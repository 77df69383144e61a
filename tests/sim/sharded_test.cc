/**
 * @file
 * Oracle equivalence tests for the lookahead-window engine (DESIGN.md
 * §5g): for every scheduler and every channel-team size, System must be
 * *bit-identical* to the naive per-cycle reference loop
 * (tests/oracle/) — same stats dump bytes, same trace-document bytes, same
 * stop cycle — with observability on or off, across chunked Run calls,
 * with the watchdog armed, and under scheduler chaos.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "fault/fault_injector.hh"
#include "oracle/reference_system.hh"
#include "sched/factory.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "trace/synthetic.hh"

namespace parbs {
namespace {

std::vector<std::unique_ptr<TraceSource>>
SyntheticTraces(const SystemConfig& config, std::uint32_t count,
                double mpki = 20.0, double write_fraction = 0.15)
{
    dram::AddressMapper mapper(config.geometry, config.xor_bank_hash);
    std::vector<std::unique_ptr<TraceSource>> traces;
    for (ThreadId t = 0; t < count; ++t) {
        SyntheticParams params;
        params.mpki = mpki;
        params.write_fraction = write_fraction;
        traces.push_back(std::make_unique<SyntheticTraceSource>(
            params, mapper, t, count, 1000 + t));
    }
    return traces;
}

using oracle::ReferenceSystem;

struct Artifacts {
    std::string stats;
    std::string trace;
    CpuCycle stop = 0;
    /** System's resolved team size; 0 for the oracle. */
    unsigned channel_jobs = 0;
    /** System::skipped_core_ticks(); 0 for the oracle. */
    std::uint64_t skipped_core_ticks = 0;
};

/** Runs a fresh System or oracle on @p traces through @p chunks and
 *  captures every observable output byte-for-byte. */
template <typename SystemT>
Artifacts
RunTraces(const SystemConfig& config,
          std::vector<std::unique_ptr<TraceSource>> traces,
          const std::vector<CpuCycle>& chunks)
{
    SystemT system(config, std::move(traces));
    for (const CpuCycle chunk : chunks) {
        system.Run(chunk);
    }
    Artifacts out;
    out.stop = system.now();
    if constexpr (std::is_same_v<SystemT, System>) {
        out.channel_jobs = system.channel_jobs();
        out.skipped_core_ticks = system.skipped_core_ticks();
    }
    std::ostringstream stats;
    system.DumpStats(stats);
    out.stats = stats.str();
    if (config.observability.Enabled()) {
        std::ostringstream trace;
        system.WriteTrace(trace, "sharded-equivalence");
        out.trace = trace.str();
    }
    return out;
}

/** RunTraces on @p cores synthetic traces of one intensity. */
template <typename SystemT>
Artifacts
RunSystem(const SystemConfig& config, std::uint32_t cores,
          const std::vector<CpuCycle>& chunks, double mpki = 20.0,
          double write_fraction = 0.15)
{
    return RunTraces<SystemT>(
        config, SyntheticTraces(config, cores, mpki, write_fraction),
        chunks);
}

/** Byte equality that reports only the first differing offset: gtest's
 *  full diff of two megabyte trace documents takes minutes and gigabytes. */
::testing::AssertionResult
SameBytes(const std::string& expected, const std::string& actual)
{
    if (expected == actual) {
        return ::testing::AssertionSuccess();
    }
    const auto offset = static_cast<std::size_t>(
        std::mismatch(expected.begin(), expected.end(), actual.begin(),
                      actual.end())
            .first -
        expected.begin());
    return ::testing::AssertionFailure()
           << "documents of " << expected.size() << " and " << actual.size()
           << " bytes first differ at byte " << offset << ": \""
           << expected.substr(offset, 80) << "\" vs \""
           << actual.substr(offset, 80) << "\"";
}

SystemConfig
TracedConfig(std::uint32_t cores, const SchedulerConfig& scheduler,
             unsigned channel_jobs)
{
    SystemConfig config = SystemConfig::Baseline(cores);
    config.scheduler = scheduler;
    config.channel_jobs = channel_jobs;
    config.observability.trace = true;
    config.observability.sample_interval = 256;
    return config;
}

/** Team sizes every 4-channel equivalence test runs: inline, a split
 *  team, and a request above the channel count (clamped to 4). */
constexpr unsigned kTeamSizes[] = {1, 2, 8};

class ShardedEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardedEquivalence, BitIdenticalAcrossWorkerCounts)
{
    const SchedulerConfig scheduler =
        ComparisonSchedulers()[GetParam()];
    constexpr std::uint32_t kCores = 16; // Baseline(16) has 4 channels.
    const std::vector<CpuCycle> chunks{60000};

    const Artifacts reference = RunSystem<ReferenceSystem>(
        TracedConfig(kCores, scheduler, 1), kCores, chunks);
    for (const unsigned jobs : kTeamSizes) {
        const Artifacts engine = RunSystem<System>(
            TracedConfig(kCores, scheduler, jobs), kCores, chunks);
        ASSERT_EQ(engine.channel_jobs, std::min(jobs, 4u)) << "jobs=" << jobs;
        EXPECT_EQ(reference.stop, engine.stop) << "jobs=" << jobs;
        EXPECT_EQ(reference.stats, engine.stats) << "jobs=" << jobs;
        EXPECT_EQ(reference.trace, engine.trace) << "jobs=" << jobs;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, ShardedEquivalence, ::testing::Range<std::size_t>(0, 6),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
        std::string name =
            SchedulerConfigName(ComparisonSchedulers()[info.param]);
        for (char& c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name;
    });

TEST(ShardedSystem, UnalignedChunkedRunsStayIdentical)
{
    SchedulerConfig scheduler;
    scheduler.kind = SchedulerKind::kParBs;
    constexpr std::uint32_t kCores = 16;
    // Chunk boundaries that land mid-DRAM-tick and mid-window exercise the
    // resume bootstrap (next_tick_ == ceil(cpu / ratio)).
    const std::vector<CpuCycle> chunks{997, 1, 13, 29001, 7, 29981};
    const std::vector<CpuCycle> one_shot{997 + 1 + 13 + 29001 + 7 + 29981};

    const Artifacts reference = RunSystem<ReferenceSystem>(
        TracedConfig(kCores, scheduler, 1), kCores, one_shot);
    const Artifacts reference_chunks = RunSystem<ReferenceSystem>(
        TracedConfig(kCores, scheduler, 1), kCores, chunks);
    EXPECT_EQ(reference.stats, reference_chunks.stats);
    for (const unsigned jobs : kTeamSizes) {
        const Artifacts engine_chunks = RunSystem<System>(
            TracedConfig(kCores, scheduler, jobs), kCores, chunks);
        EXPECT_EQ(reference.stats, engine_chunks.stats) << "jobs=" << jobs;
        EXPECT_EQ(reference.trace, engine_chunks.trace) << "jobs=" << jobs;
        EXPECT_EQ(reference.stop, engine_chunks.stop) << "jobs=" << jobs;
    }
}

TEST(ShardedSystem, WatchdogArmedRunStaysIdentical)
{
    // The global progress signature is sampled on the coordinator while
    // the controller counters lag by up to one window; a healthy run must
    // still match the oracle (and raise no spurious WatchdogError).
    SchedulerConfig scheduler;
    scheduler.kind = SchedulerKind::kParBs;
    auto config = [&](unsigned jobs) {
        SystemConfig out = TracedConfig(16, scheduler, jobs);
        out.controller.watchdog.enabled = true;
        return out;
    };
    const std::vector<CpuCycle> chunks{50000};
    const Artifacts reference = RunSystem<ReferenceSystem>(config(1), 16,
                                                           chunks);
    for (const unsigned jobs : {1u, 4u}) {
        const Artifacts engine = RunSystem<System>(config(jobs), 16, chunks);
        EXPECT_EQ(reference.stats, engine.stats) << "jobs=" << jobs;
        EXPECT_EQ(reference.trace, engine.trace) << "jobs=" << jobs;
    }
}

TEST(ShardedSystem, SchedulerChaosFaultInjectionStaysIdentical)
{
    // Per-channel seeded ChaosSchedulers draw from their own RNGs, so the
    // decision stream only depends on each channel's local event order —
    // which the windowed engine must preserve exactly.
    auto config = [](unsigned jobs) {
        SystemConfig out = SystemConfig::Baseline(16);
        out.channel_jobs = jobs;
        auto counter = std::make_shared<std::uint64_t>(0);
        out.scheduler_factory = [counter]() {
            SchedulerConfig inner;
            inner.kind = SchedulerKind::kParBs;
            return std::make_unique<ChaosScheduler>(
                MakeScheduler(inner), 0xC0FFEE + (*counter)++, 0.5);
        };
        return out;
    };
    const std::vector<CpuCycle> chunks{40000};
    const Artifacts reference = RunSystem<ReferenceSystem>(config(1), 16,
                                                           chunks);
    for (const unsigned jobs : {1u, 4u}) {
        const Artifacts engine = RunSystem<System>(config(jobs), 16, chunks);
        EXPECT_EQ(reference.stats, engine.stats) << "jobs=" << jobs;
        EXPECT_EQ(reference.stop, engine.stop) << "jobs=" << jobs;
    }
}

TEST(ShardedSystem, SingleChannelRunsOneParticipant)
{
    // A one-channel system has nothing to split: any team request
    // resolves to one participant, which still runs the windowed engine
    // and must match the oracle.
    SchedulerConfig scheduler;
    scheduler.kind = SchedulerKind::kParBs;
    const SystemConfig config = TracedConfig(4, scheduler, 8);
    ASSERT_EQ(config.geometry.channels, 1u);
    const std::vector<CpuCycle> chunks{10000};
    const Artifacts reference =
        RunSystem<ReferenceSystem>(config, 4, chunks);
    const Artifacts engine = RunSystem<System>(config, 4, chunks);
    EXPECT_EQ(engine.channel_jobs, 1u);
    EXPECT_NE(reference.stats.find("loads="), std::string::npos);
    EXPECT_EQ(reference.stats, engine.stats);
    EXPECT_EQ(reference.trace, engine.trace);
    EXPECT_EQ(reference.stop, engine.stop);
}

TEST(ShardedSystem, ZeroJobsMeansOneWorkerPerChannel)
{
    SchedulerConfig scheduler;
    scheduler.kind = SchedulerKind::kFrFcfs;
    const std::vector<CpuCycle> chunks{30000};
    const Artifacts reference = RunSystem<ReferenceSystem>(
        TracedConfig(16, scheduler, 1), 16, chunks);
    const Artifacts engine =
        RunSystem<System>(TracedConfig(16, scheduler, 0), 16, chunks);
    ASSERT_EQ(engine.channel_jobs, std::min(4u, HardwareJobs()));
    EXPECT_EQ(reference.stats, engine.stats);
    EXPECT_EQ(reference.trace, engine.trace);
}

TEST(ShardedSystem, LookaheadWindowMatchesTimingBound)
{
    SystemConfig config = SystemConfig::Baseline(16);
    config.channel_jobs = 4;
    System system(config, SyntheticTraces(config, 16));
    ASSERT_EQ(system.channel_jobs(), 4u);
    // The adaptive window is bounded by the shortest burst latency alone:
    // read notifications are published ahead of execution, so the return-
    // path latency no longer caps the horizon (DESIGN.md §5g).
    const DramCycle expected =
        std::min<DramCycle>(config.timing.tCL + config.timing.tBURST,
                            config.timing.tCWD + config.timing.tBURST);
    EXPECT_EQ(system.lookahead_window(), expected);
    EXPECT_GE(system.lookahead_window(), 1u);
}

TEST(ShardedSystem, BackpressureMatchesTheOracle)
{
    // Six-entry queues under 80 MPKI keep both queues of every channel
    // full, so cores are rejected all the time: each one sleeps on the
    // queue that rejected it and must wake on the very departure that
    // frees it a slot (DESIGN.md §5g, "Dormant cores").
    SchedulerConfig scheduler;
    scheduler.kind = SchedulerKind::kParBs;
    auto config = [&](unsigned jobs) {
        SystemConfig out = TracedConfig(16, scheduler, jobs);
        out.controller.read_queue_capacity = 6;
        out.controller.write_queue_capacity = 6;
        out.controller.write_drain_high = 5;
        out.controller.write_drain_low = 2;
        out.observability.sample_interval = 16;
        return out;
    };
    const std::vector<CpuCycle> chunks{12000, 11000};
    constexpr double kMpki = 80.0;
    for (const double write_fraction : {0.15, 0.6}) {
        SCOPED_TRACE("write_fraction=" + std::to_string(write_fraction));
        const Artifacts reference = RunSystem<ReferenceSystem>(
            config(1), 16, chunks, kMpki, write_fraction);
        for (const unsigned jobs : kTeamSizes) {
            const Artifacts engine = RunSystem<System>(
                config(jobs), 16, chunks, kMpki, write_fraction);
            EXPECT_EQ(reference.stop, engine.stop) << "jobs=" << jobs;
            EXPECT_EQ(reference.stats, engine.stats) << "jobs=" << jobs;
            EXPECT_TRUE(SameBytes(reference.trace, engine.trace))
                << "jobs=" << jobs;
        }

        // The sampler rows prove the test reached its regime.
        System system(config(1),
                      SyntheticTraces(config(1), 16, kMpki, write_fraction));
        system.Run(chunks[0] + chunks[1]);
        std::uint32_t max_reads = 0;
        std::uint32_t max_writes = 0;
        for (const obs::Sample& row :
             system.observability()->sampler().samples()) {
            for (const obs::ControllerSample& channel : row.controllers) {
                max_reads = std::max(max_reads, channel.read_queue);
                max_writes = std::max(max_writes, channel.write_queue);
            }
        }
        EXPECT_EQ(max_reads, 6u);
        EXPECT_EQ(max_writes, 6u);
        EXPECT_GT(system.skipped_core_ticks(), 0u);
    }
}

TEST(ShardedSystem, ComputeBoundRunsMatchTheOracle)
{
    // Twelve cores at about 1 MPKI spend most cycles in steady compute
    // runs, which the sweep advances in closed form, and often leave no
    // core awake, which cycles the sweep skips; four intensive threads
    // keep read returns landing mid-run.  A return latency off the
    // DRAM-cycle grid puts notifications between DRAM ticks, where the
    // idle-cycle jump must stop (DESIGN.md §5g, "Dormant cores").
    SchedulerConfig scheduler;
    scheduler.kind = SchedulerKind::kParBs;
    auto config = [&](unsigned jobs) {
        SystemConfig out = TracedConfig(16, scheduler, jobs);
        out.controller.watchdog.enabled = true;
        out.extra_read_latency_cpu = 63;
        return out;
    };
    auto traces = [](const SystemConfig& config) {
        dram::AddressMapper mapper(config.geometry, config.xor_bank_hash);
        std::vector<std::unique_ptr<TraceSource>> out;
        for (ThreadId t = 0; t < 16; ++t) {
            SyntheticParams params;
            params.mpki = t % 4 == 3 ? 40.0 : 1.0;
            out.push_back(std::make_unique<SyntheticTraceSource>(
                params, mapper, t, 16, 3000 + t));
        }
        return out;
    };
    const std::vector<CpuCycle> chunks{20011, 3, 29986};
    const Artifacts reference =
        RunTraces<ReferenceSystem>(config(1), traces(config(1)), chunks);
    std::vector<std::uint64_t> skipped;
    for (const unsigned jobs : kTeamSizes) {
        const Artifacts engine =
            RunTraces<System>(config(jobs), traces(config(jobs)), chunks);
        EXPECT_EQ(reference.stop, engine.stop) << "jobs=" << jobs;
        EXPECT_EQ(reference.stats, engine.stats) << "jobs=" << jobs;
        EXPECT_TRUE(SameBytes(reference.trace, engine.trace))
            << "jobs=" << jobs;
        skipped.push_back(engine.skipped_core_ticks);
    }
    EXPECT_EQ(skipped[1], skipped[0]);
    EXPECT_EQ(skipped[2], skipped[0]);

    // The regime: a dormant core skips only stalled ticks, so skipping
    // more ticks than stalled proves that steady runs were skipped.
    System system(config(1), traces(config(1)));
    system.Run(50000);
    std::uint64_t stalled = 0;
    for (ThreadId t = 0; t < system.num_cores(); ++t) {
        stalled += system.core(t).stats().load_stall_cycles +
                   system.core(t).stats().store_stall_cycles;
    }
    EXPECT_GT(system.skipped_core_ticks(), stalled + 16 * 50000 / 4);
}

/** 16 cores with 40-entry traces, run until every trace drains; returns
 *  the stop cycle and the stats report. */
template <typename SystemT>
std::pair<CpuCycle, std::string>
DrainFiniteTraces(unsigned jobs)
{
    SystemConfig config = SystemConfig::Baseline(16);
    config.channel_jobs = jobs;
    std::vector<std::unique_ptr<TraceSource>> traces;
    for (ThreadId t = 0; t < 16; ++t) {
        std::vector<TraceEntry> entries;
        for (int i = 0; i < 40; ++i) {
            const Addr addr =
                0x1000 + 64ull * (i * 97 + t * 1031 + i * i * 7);
            entries.push_back({5, addr, (i % 3) == 2, false});
        }
        traces.push_back(std::make_unique<VectorTraceSource>(entries));
    }
    SystemT system(config, std::move(traces));
    system.Run(5'000'000);
    EXPECT_TRUE(system.AllDone());
    std::ostringstream stats;
    system.DumpStats(stats);
    return {system.now(), stats.str()};
}

TEST(ShardedSystem, FiniteTracesDrainOnTheSameCycle)
{
    // The end-of-run probe runs against the occupancy proxies; the engine
    // must stop on the very same CPU cycle as the oracle.
    const auto reference = DrainFiniteTraces<ReferenceSystem>(1);
    for (const unsigned jobs : kTeamSizes) {
        const auto engine = DrainFiniteTraces<System>(jobs);
        EXPECT_EQ(reference.first, engine.first) << "jobs=" << jobs;
        EXPECT_EQ(reference.second, engine.second) << "jobs=" << jobs;
    }
}

} // namespace
} // namespace parbs
