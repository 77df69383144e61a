/** @file PAR-BS batching and thread ranking at scale: 70 threads on 16
 *  banks, so thread ids span two 64-bit words, under every ranking policy
 *  and both batching variants. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "sched/batch_variants.hh"
#include "sched/observer.hh"
#include "sched/parbs_sched.hh"
#include "test_util.hh"

namespace parbs {
namespace {

using test::ControllerHarness;

constexpr std::uint32_t kThreads = 70;
constexpr std::uint32_t kRanks = 2;
constexpr std::uint32_t kBanksPerRank = 8;

dram::Geometry
SixteenBanks()
{
    dram::Geometry geometry = test::TestGeometry();
    geometry.ranks_per_channel = kRanks;
    geometry.banks_per_rank = kBanksPerRank;
    return geometry;
}

/** Counts every policy event the scheduler reports. */
struct CountingObserver final : SchedulerObserver {
    void OnBatchFormed(DramCycle, std::uint64_t, std::uint64_t) override
    {
        events += 1;
    }
    void OnBatchComplete(DramCycle, std::uint64_t, DramCycle) override
    {
        events += 1;
        completions += 1;
    }
    void OnThreadRanked(DramCycle, ThreadId, std::uint32_t) override
    {
        events += 1;
    }
    void OnMarkingCapHit(DramCycle, ThreadId, std::uint32_t,
                         RequestId) override
    {
        events += 1;
    }

    std::uint64_t events = 0;
    std::uint64_t completions = 0;
};

/** A 16-bank controller driving @p scheduler, with a typed handle. */
struct RankingHarness {
    explicit RankingHarness(std::unique_ptr<ParBsScheduler> owned)
        : scheduler(owned.get()),
          h(std::move(owned), kThreads, ControllerHarness::DefaultConfig(),
            test::TestTiming(), SixteenBanks())
    {
        scheduler->SetObserver(&observer);
    }

    /** Enqueues a read to controller-local flat @p bank. */
    void
    Read(ThreadId thread, std::uint32_t bank, std::uint32_t row,
         std::uint32_t column = 0)
    {
        h.Enqueue(thread, bank % kBanksPerRank, row, column, false,
                  bank / kBanksPerRank);
    }

    std::vector<std::uint32_t>
    Ranks() const
    {
        std::vector<std::uint32_t> ranks;
        for (ThreadId thread = 0; thread < kThreads; ++thread) {
            ranks.push_back(scheduler->ThreadRank(thread));
        }
        return ranks;
    }

    ParBsScheduler* scheduler;
    CountingObserver observer;
    ControllerHarness h;
};

/** (max bank load, total load) of every thread over the marked reads. */
std::vector<std::pair<std::uint32_t, std::uint32_t>>
MarkedLoads(const RequestQueue& reads)
{
    std::vector<std::uint32_t> per_bank(
        static_cast<std::size_t>(kThreads) * reads.num_banks(), 0);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> loads(kThreads);
    for (const MemRequest* request : reads.requests()) {
        if (!request->marked) {
            continue;
        }
        std::uint32_t& count =
            per_bank[static_cast<std::size_t>(request->thread) *
                         reads.num_banks() +
                     reads.FlatBank(*request)];
        count += 1;
        auto& [max_load, total_load] = loads[request->thread];
        max_load = std::max(max_load, count);
        total_load += 1;
    }
    return loads;
}

/**
 * The ranks the scheduler just formed must follow @p policy's key over the
 * marked reads: ranked threads are exactly those with marked reads, their
 * ranks are 0..k-1, and Max-Total / Total-Max order them by their key.
 * Round-robin rotates every thread by the batch count instead.
 */
void
ExpectRanksFollowPolicy(RankingHarness& x, RankingPolicy policy)
{
    const std::vector<std::uint32_t> ranks = x.Ranks();
    if (policy == RankingPolicy::kRoundRobin) {
        const std::uint64_t shift =
            x.scheduler->batch_stats().batches_formed;
        for (ThreadId thread = 0; thread < kThreads; ++thread) {
            ASSERT_EQ(ranks[thread], (thread + shift) % kThreads)
                << "thread " << thread;
        }
        return;
    }
    const auto loads = MarkedLoads(x.h.controller().read_queue());
    std::vector<ThreadId> by_rank;
    for (ThreadId thread = 0; thread < kThreads; ++thread) {
        if (loads[thread].second == 0) {
            ASSERT_EQ(ranks[thread], kThreads)
                << "thread " << thread << " has no marked read";
        } else {
            by_rank.push_back(thread);
        }
    }
    ASSERT_FALSE(by_rank.empty());
    std::sort(by_rank.begin(), by_rank.end(),
              [&](ThreadId a, ThreadId b) { return ranks[a] < ranks[b]; });
    for (std::uint32_t position = 0; position < by_rank.size(); ++position) {
        ASSERT_EQ(ranks[by_rank[position]], position);
    }
    for (std::size_t i = 1; i < by_rank.size(); ++i) {
        const auto& [max_a, total_a] = loads[by_rank[i - 1]];
        const auto& [max_b, total_b] = loads[by_rank[i]];
        if (policy == RankingPolicy::kMaxTotal) {
            ASSERT_LE(std::tie(max_a, total_a), std::tie(max_b, total_b));
        } else if (policy == RankingPolicy::kTotalMax) {
            ASSERT_LE(std::tie(total_a, max_a), std::tie(total_b, max_b));
        }
    }
}

struct Variant {
    std::string name;
    RankingPolicy policy;
    std::function<std::unique_ptr<ParBsScheduler>(const ParBsConfig&)> make;
};

void
PrintTo(const Variant& variant, std::ostream* out)
{
    *out << variant.name;
}

std::unique_ptr<ParBsScheduler>
MakeParBs(const ParBsConfig& config)
{
    return std::make_unique<ParBsScheduler>(config);
}

class ParBsRankingAtScale : public ::testing::TestWithParam<Variant> {};

TEST_P(ParBsRankingAtScale, EveryBatchRanksByItsMarkedReads)
{
    const Variant& variant = GetParam();
    ParBsConfig config;
    config.ranking = variant.policy;
    RankingHarness x(variant.make(config));
    Rng rng(0x5ca1e + static_cast<std::uint64_t>(variant.policy));
    std::uint64_t batches_seen = 0;
    std::uint64_t ranked = 0;
    for (int round = 0; round < 20000 && batches_seen < 40; ++round) {
        // Now and then a wave of 2-8 threads, each with a burst of 1-7
        // reads to one bank, so a batch ranks several threads whose
        // per-bank loads differ, the Marking-Cap bites, and threads 64-69
        // mix with 0-63.
        if (rng.NextBool(0.012) && x.h.controller().pending_reads() < 80) {
            const std::uint64_t wave = 2 + rng.NextBelow(7);
            for (std::uint64_t t = 0; t < wave; ++t) {
                const auto thread =
                    static_cast<ThreadId>(rng.NextBelow(kThreads));
                const auto bank =
                    static_cast<std::uint32_t>(rng.NextBelow(16));
                const std::uint64_t burst = 1 + rng.NextBelow(7);
                for (std::uint64_t i = 0; i < burst; ++i) {
                    x.Read(thread, bank,
                           static_cast<std::uint32_t>(rng.NextBelow(4)),
                           static_cast<std::uint32_t>(i));
                }
            }
        }
        x.h.Tick();
        const std::uint64_t formed =
            x.scheduler->batch_stats().batches_formed;
        if (formed != batches_seen) {
            ASSERT_EQ(formed, batches_seen + 1);
            batches_seen = formed;
            ExpectRanksFollowPolicy(x, variant.policy);
            const auto loads = MarkedLoads(x.h.controller().read_queue());
            ranked += static_cast<std::uint64_t>(std::count_if(
                loads.begin(), loads.end(),
                [](const auto& load) { return load.second > 0; }));
        }
    }
    EXPECT_EQ(batches_seen, 40u);
    // On average a batch ranks more than three threads.
    EXPECT_GT(ranked, 3 * batches_seen);
    x.h.RunUntilIdle(200000);
    EXPECT_EQ(x.h.controller().pending_reads(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ParBsRankingAtScale,
    ::testing::Values(
        Variant{"MaxTotal", RankingPolicy::kMaxTotal, MakeParBs},
        Variant{"TotalMax", RankingPolicy::kTotalMax, MakeParBs},
        Variant{"Random", RankingPolicy::kRandom, MakeParBs},
        Variant{"RoundRobin", RankingPolicy::kRoundRobin, MakeParBs},
        Variant{"Static", RankingPolicy::kMaxTotal,
                [](const ParBsConfig& config)
                    -> std::unique_ptr<ParBsScheduler> {
                    return std::make_unique<StaticBatchScheduler>(config,
                                                                  40);
                }},
        Variant{"Eslot", RankingPolicy::kMaxTotal,
                [](const ParBsConfig& config)
                    -> std::unique_ptr<ParBsScheduler> {
                    return std::make_unique<EslotBatchScheduler>(config);
                }}),
    [](const auto& info) { return info.param.name; });

TEST(ParBsRanking, AttemptsWithNothingMarkableLeaveNoTrace)
{
    RankingHarness x(MakeParBs({}));
    // Thread 69 is opportunistic (never marked); thread 66 is marked only
    // in every second batch.
    x.scheduler->SetThreadPriority(69, kOpportunisticPriority);
    x.scheduler->SetThreadPriority(66, 2);

    // Reads of a never-markable thread: every cycle's attempt fails.
    for (std::uint32_t bank = 0; bank < 16; ++bank) {
        x.Read(69, bank, 1);
    }
    x.h.RunUntilIdle();
    EXPECT_EQ(x.scheduler->batch_stats().batches_formed, 0u);
    EXPECT_EQ(x.observer.events, 0u);
    EXPECT_EQ(x.Ranks(), std::vector<std::uint32_t>(kThreads, kThreads));

    // Batch 1 (batches_formed was 0, so thread 66 is due).
    x.Read(0, 0, 1);
    x.Read(64, 9, 1);
    x.Read(66, 3, 1);
    x.h.Tick();
    ASSERT_EQ(x.scheduler->batch_stats().batches_formed, 1u);
    EXPECT_EQ(x.scheduler->marked_outstanding(), 3u);
    const std::vector<std::uint32_t> batch_ranks = x.Ranks();
    ExpectRanksFollowPolicy(x, RankingPolicy::kMaxTotal);

    // Reads of threads 66 (not due in batch 2) and 69 queue behind the
    // batch in its own banks, so they are still queued when it drains.
    x.Read(66, 3, 2);
    x.Read(69, 9, 2);
    for (int cycle = 0;
         cycle < 1000 && x.scheduler->marked_outstanding() > 0; ++cycle) {
        x.h.Tick();
    }
    ASSERT_EQ(x.scheduler->marked_outstanding(), 0u);
    x.h.Tick();
    // The drain closed batch 1; every attempt since found nothing.
    ASSERT_EQ(x.observer.completions, 1u);
    const std::uint64_t events = x.observer.events;
    for (int cycle = 0; cycle < 200; ++cycle) {
        x.h.Tick();
    }
    EXPECT_EQ(x.scheduler->batch_stats().batches_formed, 1u);
    EXPECT_EQ(x.observer.events, events);
    EXPECT_EQ(x.Ranks(), batch_ranks);

    // A markable read forms batch 2 from it alone: 66 is still not due.
    x.Read(65, 5, 1);
    x.Read(66, 6, 1);
    x.h.Tick();
    EXPECT_EQ(x.scheduler->batch_stats().batches_formed, 2u);
    EXPECT_EQ(x.scheduler->marked_outstanding(), 1u);
    EXPECT_EQ(x.scheduler->batch_stats().marked_total, 4u);
    x.h.RunUntilIdle();
}

TEST(ParBsRanking, StaticIntervalWithOnlyMarkedReadsFormsNoBatch)
{
    auto owned = std::make_unique<StaticBatchScheduler>(ParBsConfig{}, 5);
    StaticBatchScheduler* scheduler = owned.get();
    RankingHarness x(std::move(owned));
    // Four reads per (thread, bank) fit under the cap: the first interval
    // marks all of them, and the same-bank conflicts keep them queued past
    // the next interval boundaries.
    for (std::uint32_t row = 1; row <= 4; ++row) {
        x.Read(2, 0, row);
        x.Read(67, 12, row);
    }
    x.h.Tick();
    ASSERT_EQ(scheduler->batch_stats().batches_formed, 1u);
    EXPECT_EQ(scheduler->marked_outstanding(), 8u);
    const std::vector<std::uint32_t> ranks = x.Ranks();
    x.h.Tick(20);
    EXPECT_GT(x.h.controller().pending_reads(), 0u);
    EXPECT_EQ(scheduler->batch_stats().batches_formed, 1u);
    EXPECT_EQ(x.Ranks(), ranks);
    EXPECT_EQ(x.observer.events, 0u);
}

/**
 * Ranks of the seven marked threads in a fixed sequence of three batches.
 * Every batch draws one tiebreak per thread, in thread order, so a change
 * to the draw pattern moves the pinned ranks below.
 */
std::vector<std::vector<std::uint32_t>>
SeededRankSequence(RankingPolicy policy)
{
    ParBsConfig config;
    config.ranking = policy;
    config.seed = 0x70;
    RankingHarness x(MakeParBs(config));
    const std::vector<ThreadId> threads = {1, 5, 40, 63, 64, 65, 69};
    std::vector<std::vector<std::uint32_t>> sequence;
    for (std::uint32_t batch = 0; batch < 3; ++batch) {
        // Equal loads, so Max-Total falls through to the tiebreak, except
        // thread 40 in the second batch (two reads in one bank).
        for (std::size_t i = 0; i < threads.size(); ++i) {
            x.Read(threads[i], static_cast<std::uint32_t>(2 * i), batch + 1);
        }
        if (batch == 1) {
            x.Read(40, 4, batch + 1, 1);
        }
        x.h.Tick();
        std::vector<std::uint32_t> ranks;
        for (ThreadId thread : threads) {
            ranks.push_back(x.scheduler->ThreadRank(thread));
        }
        sequence.push_back(ranks);
        x.h.RunUntilIdle();
    }
    EXPECT_EQ(x.scheduler->batch_stats().batches_formed, 3u);
    return sequence;
}

TEST(ParBsRanking, SeededRanksMatchRecordedSequence)
{
    using Sequence = std::vector<std::vector<std::uint32_t>>;
    EXPECT_EQ(SeededRankSequence(RankingPolicy::kRandom),
              (Sequence{{5, 2, 1, 3, 4, 6, 0},
                        {1, 3, 0, 4, 6, 5, 2},
                        {4, 3, 6, 5, 2, 1, 0}}));
    // Equal loads fall through to the same tiebreaks; thread 40's double
    // load sends it last in the second batch.
    EXPECT_EQ(SeededRankSequence(RankingPolicy::kMaxTotal),
              (Sequence{{5, 2, 1, 3, 4, 6, 0},
                        {0, 2, 6, 3, 5, 4, 1},
                        {4, 3, 6, 5, 2, 1, 0}}));
}

} // namespace
} // namespace parbs
