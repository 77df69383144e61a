/** @file Tests for the memory controller: service, stats, writes, refresh. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/assert.hh"
#include "sched/frfcfs.hh"
#include "sched/fcfs.hh"
#include "test_util.hh"

namespace parbs {
namespace {

using test::ControllerHarness;

TEST(Controller, SingleReadCompletesWithClosedLatency)
{
    ControllerHarness h(std::make_unique<FrFcfsScheduler>());
    const dram::TimingParams t = test::TestTiming();
    h.Enqueue(0, 0, 1);
    h.RunUntilIdle();
    ASSERT_EQ(h.completed().size(), 1u);
    // ACT at cycle 0 is not possible (tick order: the request is enqueued
    // at cycle 0 and picked that same tick); data = ACT + tRCD + tCL +
    // tBURST.
    EXPECT_LE(h.now(), t.ClosedLatency() + t.tBURST + 3);
}

TEST(Controller, RowHitClassification)
{
    ControllerHarness h(std::make_unique<FrFcfsScheduler>());
    h.Enqueue(0, 0, 1, 0);
    h.Enqueue(0, 0, 1, 1); // Same row: serviced as a hit.
    h.Enqueue(0, 0, 2, 0); // Different row: conflict.
    h.RunUntilIdle();
    const ControllerThreadStats& stats = h.controller().thread_stats(0);
    EXPECT_EQ(stats.reads_completed, 3u);
    EXPECT_EQ(stats.read_row_closed, 1u);
    EXPECT_EQ(stats.read_row_hits, 1u);
    EXPECT_EQ(stats.read_row_conflicts, 1u);
    EXPECT_NEAR(stats.RowHitRate(), 1.0 / 3.0, 1e-9);
}

TEST(Controller, CompletionOrderRowHitFirst)
{
    ControllerHarness h(std::make_unique<FrFcfsScheduler>());
    const RequestId a = h.Enqueue(0, 0, 1); // Opens row 1.
    h.Tick(3);
    const RequestId conflict = h.Enqueue(1, 0, 2);
    const RequestId hit = h.Enqueue(2, 0, 1);
    h.RunUntilIdle();
    ASSERT_EQ(h.completed().size(), 3u);
    EXPECT_EQ(h.completed()[0], a);
    // FR-FCFS services the younger row-hit before the older conflict.
    EXPECT_EQ(h.completed()[1], hit);
    EXPECT_EQ(h.completed()[2], conflict);
}

TEST(Controller, FcfsServicesInArrivalOrder)
{
    ControllerHarness h(std::make_unique<FcfsScheduler>());
    const RequestId a = h.Enqueue(0, 0, 1);
    h.Tick(3);
    const RequestId conflict = h.Enqueue(1, 0, 2);
    const RequestId hit = h.Enqueue(2, 0, 1);
    h.RunUntilIdle();
    ASSERT_EQ(h.completed().size(), 3u);
    EXPECT_EQ(h.completed()[0], a);
    EXPECT_EQ(h.completed()[1], conflict);
    EXPECT_EQ(h.completed()[2], hit);
}

TEST(Controller, BankParallelismOverlapsServce)
{
    // Two requests to different banks finish much sooner than two
    // conflicting requests to the same bank.
    const dram::TimingParams t = test::TestTiming();

    ControllerHarness parallel(std::make_unique<FrFcfsScheduler>());
    parallel.Enqueue(0, 0, 1);
    parallel.Enqueue(0, 1, 1);
    parallel.RunUntilIdle();
    const DramCycle parallel_time = parallel.now();

    ControllerHarness serial(std::make_unique<FrFcfsScheduler>());
    serial.Enqueue(0, 0, 1);
    serial.Enqueue(0, 0, 2);
    serial.RunUntilIdle();
    const DramCycle serial_time = serial.now();

    EXPECT_LT(parallel_time, serial_time);
    EXPECT_LE(parallel_time, t.ClosedLatency() + t.tBURST + t.tRRD + 4);
}

TEST(Controller, BlpStatsReflectParallelService)
{
    ControllerHarness h(std::make_unique<FrFcfsScheduler>());
    for (std::uint32_t bank = 0; bank < 4; ++bank) {
        h.Enqueue(0, bank, 1);
    }
    h.RunUntilIdle();
    EXPECT_GT(h.controller().thread_stats(0).AverageBlp(), 1.8);
}

TEST(Controller, SerialRequestsHaveBlpNearOne)
{
    ControllerHarness h(std::make_unique<FrFcfsScheduler>());
    h.Enqueue(0, 0, 1, 0);
    h.Enqueue(0, 0, 1, 1);
    h.Enqueue(0, 0, 1, 2);
    h.RunUntilIdle();
    EXPECT_LE(h.controller().thread_stats(0).AverageBlp(), 1.01);
}

TEST(Controller, BlpSamplesEveryBusyThreadAcrossThreadWords)
{
    // 80 threads, so thread ids span two 64-bit words, with reads in
    // service on both sides of thread 64; some threads hold several banks
    // at once, and a second wave makes threads leave service and re-enter.
    constexpr std::uint32_t kThreads = 80;
    ControllerHarness h(std::make_unique<FrFcfsScheduler>(), kThreads);
    struct Service {
        ThreadId thread;
        std::uint32_t bank;
        DramCycle begin;
        DramCycle end;
    };
    std::vector<Service> services;
    h.controller().SetReadCompleteCallback(
        [&](const MemRequest& request, DramCycle now) {
            services.push_back({request.thread, request.coords.bank,
                                request.first_command_cycle, now});
        });
    h.Enqueue(3, 0, 1);
    h.Enqueue(3, 1, 1);
    h.Enqueue(63, 2, 1);
    h.Enqueue(64, 3, 1);
    h.Enqueue(79, 4, 1);
    h.Enqueue(79, 5, 1);
    h.Enqueue(79, 6, 1);
    h.Tick(25);
    h.Enqueue(64, 7, 2);
    h.Enqueue(64, 7, 2, 1);
    h.Enqueue(64, 0, 2);
    h.Enqueue(70, 1, 3);
    h.Enqueue(3, 2, 3);
    h.RunUntilIdle();
    ASSERT_EQ(services.size(), 12u);

    // A read is in service from its first command up to, not including,
    // its retiring cycle; BLP counts the distinct banks a thread has in
    // service on each cycle.
    std::vector<std::uint64_t> sum(kThreads, 0);
    std::vector<std::uint64_t> cycles(kThreads, 0);
    for (DramCycle cycle = 0; cycle < h.now(); ++cycle) {
        std::vector<std::vector<bool>> busy(
            kThreads, std::vector<bool>(8, false));
        for (const Service& service : services) {
            if (service.begin <= cycle && cycle < service.end) {
                busy[service.thread][service.bank] = true;
            }
        }
        for (ThreadId thread = 0; thread < kThreads; ++thread) {
            const auto banks = static_cast<std::uint64_t>(std::count(
                busy[thread].begin(), busy[thread].end(), true));
            sum[thread] += banks;
            cycles[thread] += banks > 0 ? 1 : 0;
        }
    }
    for (ThreadId thread = 0; thread < kThreads; ++thread) {
        const ControllerThreadStats& stats =
            h.controller().thread_stats(thread);
        EXPECT_EQ(stats.blp_sum, sum[thread]) << "thread " << thread;
        EXPECT_EQ(stats.blp_cycles, cycles[thread]) << "thread " << thread;
    }
    // The reference itself saw overlap in both words; the per-thread
    // figures are pinned as well.
    using Blp = std::vector<std::uint64_t>;
    const std::vector<ThreadId> watched = {3, 63, 64, 70, 79};
    Blp watched_sum;
    Blp watched_cycles;
    for (ThreadId thread : watched) {
        watched_sum.push_back(h.controller().thread_stats(thread).blp_sum);
        watched_cycles.push_back(
            h.controller().thread_stats(thread).blp_cycles);
    }
    EXPECT_EQ(watched_sum, (Blp{64, 17, 65, 28, 51}));
    EXPECT_EQ(watched_cycles, (Blp{51, 17, 41, 28, 25}));
    EXPECT_GT(sum[3], cycles[3]);
    EXPECT_GT(sum[79], cycles[79]);
}

TEST(Controller, ReadsPrioritizedOverWrites)
{
    ControllerHarness h(std::make_unique<FrFcfsScheduler>());
    h.Enqueue(0, 0, 2, 0, true); // Write, enqueued first.
    const RequestId read = h.Enqueue(1, 0, 3);
    h.RunUntilIdle();
    // The read completes first despite being younger and conflicting.
    ASSERT_EQ(h.completed().size(), 1u);
    EXPECT_EQ(h.completed()[0], read);
    EXPECT_EQ(h.controller().thread_stats(0).writes_completed, 1u);
}

TEST(Controller, WritesDrainWhenNoReads)
{
    ControllerHarness h(std::make_unique<FrFcfsScheduler>());
    for (int i = 0; i < 5; ++i) {
        h.Enqueue(0, i, 1, 0, true);
    }
    h.RunUntilIdle();
    EXPECT_EQ(h.controller().thread_stats(0).writes_completed, 5u);
    EXPECT_EQ(h.controller().pending_writes(), 0u);
}

TEST(Controller, ForcedDrainProtectsWriteQueue)
{
    // Keep a stream of ready reads while pushing writes past the high
    // watermark: the drain must still make write progress.
    ControllerConfig config = ControllerHarness::DefaultConfig();
    config.write_queue_capacity = 16;
    config.write_drain_high = 8;
    config.write_drain_low = 2;
    ControllerHarness h(std::make_unique<FrFcfsScheduler>(), 4, config);

    std::uint32_t column = 0;
    for (int i = 0; i < 10; ++i) {
        h.Enqueue(0, 0, 1, column++ % 32, true);
    }
    // Sustained same-row reads that would otherwise always win.
    for (int burst = 0; burst < 30; ++burst) {
        h.Enqueue(1, 1, 7, burst % 32);
        h.Tick(8);
    }
    h.RunUntilIdle();
    EXPECT_EQ(h.controller().pending_writes(), 0u);
    EXPECT_EQ(h.controller().thread_stats(0).writes_completed, 10u);
}

TEST(Controller, LatencyStatsTrackWorstCase)
{
    ControllerHarness h(std::make_unique<FrFcfsScheduler>());
    h.Enqueue(0, 0, 1);
    h.Enqueue(0, 0, 2);
    h.Enqueue(0, 0, 3);
    h.RunUntilIdle();
    const ControllerThreadStats& stats = h.controller().thread_stats(0);
    EXPECT_GT(stats.read_latency_max, stats.AverageReadLatency() * 0.99);
    EXPECT_GT(stats.read_latency_max,
              test::TestTiming().ConflictLatency());
}

TEST(Controller, CommandCountsAreConsistent)
{
    ControllerHarness h(std::make_unique<FrFcfsScheduler>());
    h.Enqueue(0, 0, 1, 0);
    h.Enqueue(0, 0, 1, 1);
    h.Enqueue(0, 0, 2, 0);
    h.RunUntilIdle();
    // 3 reads, 2 activates (rows 1 and 2), 1 precharge (conflict).
    EXPECT_EQ(h.controller().commands_issued(dram::CommandType::kRead), 3u);
    EXPECT_EQ(h.controller().commands_issued(dram::CommandType::kActivate),
              2u);
    EXPECT_EQ(h.controller().commands_issued(dram::CommandType::kPrecharge),
              1u);
}

TEST(Controller, RefreshIsPerformedAndBlocksTraffic)
{
    ControllerConfig config;
    dram::TimingParams timing = test::TestTiming();
    timing.tREFI = 200; // Short interval so the test sees refreshes.
    ControllerHarness h(std::make_unique<FrFcfsScheduler>(), 4, config,
                        timing);
    // Sustained traffic across the refresh boundary.
    for (int i = 0; i < 40; ++i) {
        h.Enqueue(0, i % 8, 1 + i / 8);
        h.Tick(25);
    }
    h.RunUntilIdle();
    EXPECT_GE(h.controller().commands_issued(dram::CommandType::kRefresh),
              4u);
    EXPECT_EQ(h.controller().thread_stats(0).reads_completed, 40u);
}

TEST(Controller, RefreshClosesOpenRows)
{
    ControllerConfig config;
    dram::TimingParams timing = test::TestTiming();
    timing.tREFI = 100;
    ControllerHarness h(std::make_unique<FrFcfsScheduler>(), 4, config,
                        timing);
    h.Enqueue(0, 0, 5); // Opens row 5 in bank 0.
    h.RunUntilIdle();
    h.Tick(300); // Cross the refresh boundary (quiesce + refresh).
    // A new request to the same row must be a closed access, not a hit.
    h.Enqueue(0, 0, 5);
    h.RunUntilIdle();
    const ControllerThreadStats& stats = h.controller().thread_stats(0);
    EXPECT_EQ(stats.read_row_hits, 0u);
    EXPECT_EQ(stats.read_row_closed, 2u);
}

TEST(Controller, PerThreadStatsAreIsolated)
{
    ControllerHarness h(std::make_unique<FrFcfsScheduler>());
    h.Enqueue(0, 0, 1);
    h.Enqueue(1, 1, 1);
    h.Enqueue(1, 2, 1);
    h.RunUntilIdle();
    EXPECT_EQ(h.controller().thread_stats(0).reads_completed, 1u);
    EXPECT_EQ(h.controller().thread_stats(1).reads_completed, 2u);
}

TEST(Controller, InvalidDrainWatermarksRejected)
{
    ControllerConfig config;
    config.write_drain_low = 60;
    config.write_drain_high = 40;
    EXPECT_THROW(
        Controller(config, test::TestTiming(), test::TestGeometry(), 2,
                   std::make_unique<FrFcfsScheduler>()),
        ConfigError);
}

} // namespace
} // namespace parbs
