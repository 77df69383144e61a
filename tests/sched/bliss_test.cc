/**
 * @file
 * Tests for the BLISS blacklisting scheduler: bit set at the streak
 * threshold, interval clearing, two-level arbitration, starvation freedom
 * under an adversarial streamer, and memo-soundness of the per-bank pick
 * cache across blacklist transitions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/assert.hh"
#include "common/rng.hh"
#include "oracle/scan_checked.hh"
#include "sched/bliss.hh"
#include "sched/factory.hh"
#include "test_util.hh"

namespace parbs {
namespace {

using test::ControllerHarness;

/** Harness around a BlissScheduler we keep a typed handle to. */
struct BlissHarness {
    explicit BlissHarness(const BlissConfig& config = {},
                          std::uint32_t num_threads = 4,
                          ControllerConfig controller =
                              ControllerHarness::DefaultConfig(),
                          dram::TimingParams timing = test::TestTiming())
        : owned(std::make_unique<BlissScheduler>(config)),
          bliss(owned.get()),
          h(std::move(owned), num_threads, controller, timing)
    {
    }

    std::unique_ptr<BlissScheduler> owned;
    BlissScheduler* bliss;
    ControllerHarness h;
};

TEST(Bliss, DefaultNameAndConfigMatchThePaper)
{
    BlissScheduler scheduler;
    EXPECT_EQ(scheduler.name(), "BLISS");
    EXPECT_EQ(scheduler.config().blacklist_threshold, 4u);
    EXPECT_EQ(scheduler.config().clearing_interval, 10000u);
    EXPECT_EQ(BlissScheduler(BlissConfig{2, 500}).name(),
              "BLISS(n=2,clear=500)");
}

TEST(Bliss, StreakAtThresholdSetsTheBit)
{
    BlissHarness x;
    // A single thread streaming row hits tags itself after 4 data
    // commands; a thread that never reaches the threshold stays clean.
    for (std::uint32_t column = 0; column < 4; ++column) {
        x.h.Enqueue(0, 0, 1, column);
    }
    x.h.Enqueue(1, 1, 1, 0);
    x.h.RunUntilIdle();
    EXPECT_TRUE(x.bliss->Blacklisted(0));
    EXPECT_FALSE(x.bliss->Blacklisted(1));
    EXPECT_EQ(x.bliss->BlacklistedCount(), 1u);
}

TEST(Bliss, InterleavedServiceNeverBlacklists)
{
    BlissHarness x;
    // Two threads alternating on one bank: the streak resets on every
    // ownership change and never reaches 4.
    for (std::uint32_t i = 0; i < 12; ++i) {
        x.h.Enqueue(static_cast<ThreadId>(i % 2), 0, 1 + (i % 2), i);
        x.h.RunUntilIdle();
    }
    EXPECT_EQ(x.bliss->BlacklistedCount(), 0u);
}

TEST(Bliss, IntervalClearingLiftsThePenalty)
{
    BlissHarness x(BlissConfig{4, 500});
    for (std::uint32_t column = 0; column < 4; ++column) {
        x.h.Enqueue(0, 0, 1, column);
    }
    x.h.RunUntilIdle();
    ASSERT_TRUE(x.bliss->Blacklisted(0));
    // Tick past the next multiple of the clearing interval (the tick AT
    // cycle k*500 performs the clear).
    const DramCycle target = (x.h.now() / 500 + 1) * 500;
    while (x.h.now() <= target) {
        x.h.Tick();
    }
    EXPECT_FALSE(x.bliss->Blacklisted(0));
    EXPECT_EQ(x.bliss->BlacklistedCount(), 0u);
    const auto stats = x.bliss->Stats();
    const auto find = [&](const char* key) {
        for (const auto& [name, value] : stats) {
            if (name == key) {
                return value;
            }
        }
        return -1.0;
    };
    EXPECT_GE(find("blacklist_clearings"), 1.0);
    EXPECT_GE(find("blacklist_events"), 1.0);
    EXPECT_DOUBLE_EQ(find("blacklisted_now"), 0.0);
}

TEST(Bliss, BlacklistedRowHitLosesToCleanRowMiss)
{
    BlissHarness x;
    // Blacklist thread 0 with a row-hit streak on bank 0.
    for (std::uint32_t column = 0; column < 4; ++column) {
        x.h.Enqueue(0, 0, 1, column);
    }
    x.h.RunUntilIdle();
    ASSERT_TRUE(x.bliss->Blacklisted(0));
    ASSERT_FALSE(x.bliss->Blacklisted(1));

    // Row 1 is still open in bank 0: thread 0 offers a row hit, thread 1
    // a row miss.  FR-FCFS would serve the hit first; BLISS must serve
    // the non-blacklisted thread first.
    const std::size_t before = x.h.completed().size();
    x.h.Enqueue(0, 0, 1, 10);
    x.h.Enqueue(1, 0, 2, 0);
    x.h.RunUntilIdle();
    ASSERT_EQ(x.h.completed().size(), before + 2);
    EXPECT_EQ(x.h.completed_threads()[before], 1);
    EXPECT_EQ(x.h.completed_threads()[before + 1], 0);
}

TEST(Bliss, WithinALevelFrFcfsOrderHolds)
{
    BlissHarness x;
    // No thread blacklisted: row hit beats older row miss, exactly
    // FR-FCFS.  Open row 1 in bank 0 first.
    x.h.Enqueue(0, 0, 1, 0);
    x.h.RunUntilIdle();
    const std::size_t before = x.h.completed().size();
    const RequestId miss = x.h.Enqueue(2, 0, 7, 0); // older, row miss
    const RequestId hit = x.h.Enqueue(3, 0, 1, 1);  // younger, row hit
    x.h.RunUntilIdle();
    ASSERT_EQ(x.h.completed().size(), before + 2);
    EXPECT_EQ(x.h.completed()[before], hit);
    EXPECT_EQ(x.h.completed()[before + 1], miss);
}

TEST(Bliss, AdversarialStreamerCannotStarveALightThread)
{
    // Thread 0 keeps an endless row-hit stream on bank 0; thread 1 drops
    // one row-miss request into the same bank every 400 cycles.  The
    // blacklist must keep serving thread 1 throughout the run, and the
    // interval clears must keep re-penalizing the streamer.
    // Refresh on: a 30000-cycle run crosses the tREFI deadline and the
    // protocol checker (rightly) demands the refreshes happen.
    BlissHarness x(BlissConfig{}, 2, ControllerHarness::DefaultConfig(),
                   dram::TimingParams{});
    Rng rng(0xB1155);
    std::uint32_t column = 0;
    std::uint64_t light_enqueued = 0;
    for (std::uint64_t cycle = 0; cycle < 30000; ++cycle) {
        while (x.h.controller().pending_reads() < 24) {
            x.h.Enqueue(0, 0, 1, column++ % 32);
        }
        if (cycle % 400 == 0) {
            x.h.Enqueue(1, 0,
                        2 + static_cast<std::uint32_t>(rng.NextBelow(8)),
                        0);
            light_enqueued += 1;
        }
        x.h.Tick();
    }
    const std::uint64_t light_completed = static_cast<std::uint64_t>(
        std::count(x.h.completed_threads().begin(),
                   x.h.completed_threads().end(), ThreadId{1}));
    // Every light request except at most the last in-flight one retired
    // while the streamer was still hammering the bank.
    EXPECT_GE(light_completed + 1, light_enqueued);
    // The streamer re-blacklists after every clear: events keep accruing.
    const auto stats = x.bliss->Stats();
    for (const auto& [name, value] : stats) {
        if (name == "blacklist_events") {
            EXPECT_GE(value, 3.0);
        }
        if (name == "blacklist_clearings") {
            EXPECT_GE(value, 2.0);
        }
    }
}

TEST(Bliss, MemoizedPicksCrossCheckAcrossBlacklistTransitions)
{
    // The scan oracle recomputes every DRAM cycle's pick with a full scan
    // and throws on disagreement — driving random traffic across many
    // blacklist sets and interval clears proves InvalidateBankPicks() is
    // called on every comparator-visible transition (memo-epoch
    // soundness).
    auto owned = std::make_unique<BlissScheduler>(BlissConfig{4, 500});
    BlissScheduler* bliss = owned.get();
    oracle::CheckedHarness x(std::move(owned));
    ControllerHarness& h = x.h;
    Rng rng(0xB1155EED);
    for (int round = 0; round < 3000; ++round) {
        if (h.controller().pending_reads() < 100 &&
            h.controller().pending_writes() < 50) {
            // Bias toward thread 0 so blacklisting actually triggers.
            const ThreadId thread = static_cast<ThreadId>(
                rng.NextBool(0.5) ? 0 : rng.NextBelow(4));
            h.Enqueue(thread, static_cast<std::uint32_t>(rng.NextBelow(8)),
                      static_cast<std::uint32_t>(rng.NextBelow(4)),
                      static_cast<std::uint32_t>(rng.NextBelow(32)),
                      rng.NextBool(0.2));
        }
        h.Tick(static_cast<std::uint64_t>(rng.NextBelow(4)));
    }
    h.RunUntilIdle(200000);
    EXPECT_EQ(h.controller().pending_reads(), 0u);
    EXPECT_EQ(h.controller().pending_writes(), 0u);
    EXPECT_EQ(x.oracle->cycles_checked(), h.now());
    EXPECT_GE(bliss->Stats()[0].second, 1.0); // blacklist_events
    EXPECT_GE(bliss->Stats()[1].second, 1.0); // blacklist_clearings
}

TEST(Bliss, FactoryBuildsAndParsesBliss)
{
    SchedulerConfig config;
    config.kind = SchedulerKind::kBliss;
    EXPECT_EQ(MakeScheduler(config)->name(), "BLISS");
    SchedulerKind parsed = SchedulerKind::kFrFcfs;
    ASSERT_TRUE(ParseSchedulerKind("BLISS", parsed));
    EXPECT_EQ(parsed, SchedulerKind::kBliss);
    const auto kinds = AllSchedulerKinds();
    EXPECT_NE(std::find(kinds.begin(), kinds.end(), SchedulerKind::kBliss),
              kinds.end());
}

TEST(Bliss, InvalidConfigIsFatal)
{
    EXPECT_THROW(BlissScheduler(BlissConfig{0, 10000}), ConfigError);
    EXPECT_THROW(BlissScheduler(BlissConfig{4, 0}), ConfigError);
}

} // namespace
} // namespace parbs
