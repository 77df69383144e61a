/**
 * @file
 * Scale-out equivalence tests (DESIGN.md §5g): at 64+ cores the engine's
 * channel shards and pre-published read notifications must stay
 * bit-identical to the naive per-cycle oracle (tests/oracle/) — same
 * stats bytes, same trace bytes, same stop cycle — for every scheduler
 * and channel-team size.  Also covers the machine-sized default team, the
 * generalized baseline geometries (128/256 cores scale by ranks), and
 * that the scan oracle (tests/oracle/scan_checked.hh) changes no byte of
 * a 64-core run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/json.hh"
#include "oracle/reference_system.hh"
#include "oracle/scan_checked.hh"
#include "sched/factory.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "trace/synthetic.hh"

namespace parbs {
namespace {

std::vector<std::unique_ptr<TraceSource>>
SyntheticTraces(const SystemConfig& config, std::uint32_t count,
                double mpki = 20.0)
{
    dram::AddressMapper mapper(config.geometry, config.xor_bank_hash);
    std::vector<std::unique_ptr<TraceSource>> traces;
    for (ThreadId t = 0; t < count; ++t) {
        SyntheticParams params;
        params.mpki = mpki;
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
};

/** Stop cycle, stats and (if traced) trace of a finished run. */
template <typename SystemT>
Artifacts
Collect(SystemT& system, const SystemConfig& config)
{
    Artifacts out;
    out.stop = system.now();
    if constexpr (std::is_same_v<SystemT, System>) {
        out.channel_jobs = system.channel_jobs();
    }
    std::ostringstream stats;
    system.DumpStats(stats);
    out.stats = stats.str();
    if (config.observability.Enabled()) {
        std::ostringstream trace;
        system.WriteTrace(trace, "scale-equivalence");
        out.trace = trace.str();
    }
    return out;
}

template <typename SystemT>
Artifacts
RunSystem(const SystemConfig& config, std::uint32_t cores, CpuCycle cycles)
{
    SystemT system(config, SyntheticTraces(config, cores));
    system.Run(cycles);
    return Collect(system, config);
}

SystemConfig
TracedConfig(std::uint32_t cores, const SchedulerConfig& scheduler,
             unsigned channel_jobs)
{
    SystemConfig config = SystemConfig::Baseline(cores);
    config.scheduler = scheduler;
    config.channel_jobs = channel_jobs;
    config.observability.trace = true;
    config.observability.sample_interval = 512;
    return config;
}

class ScaleShardedEquivalence
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScaleShardedEquivalence, BitIdenticalAt64Cores)
{
    const SchedulerConfig scheduler = ComparisonSchedulers()[GetParam()];
    constexpr std::uint32_t kCores = 64; // Baseline(64) has 16 channels.
    constexpr CpuCycle kCycles = 25000;

    const Artifacts reference = RunSystem<ReferenceSystem>(
        TracedConfig(kCores, scheduler, 1), kCores, kCycles);
    for (const unsigned jobs : {1u, 4u, 8u}) {
        const Artifacts engine = RunSystem<System>(
            TracedConfig(kCores, scheduler, jobs), kCores, kCycles);
        ASSERT_EQ(engine.channel_jobs, jobs);
        EXPECT_EQ(reference.stop, engine.stop) << "jobs=" << jobs;
        EXPECT_EQ(reference.stats, engine.stats) << "jobs=" << jobs;
        EXPECT_EQ(reference.trace, engine.trace) << "jobs=" << jobs;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, ScaleShardedEquivalence,
    ::testing::Range<std::size_t>(0, 6),
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

TEST(ScaleSharded, AutoChannelJobsSizeToTheMachine)
{
    // channel_jobs = 0 resolves to min(channels, hardware threads), so the
    // default engine never puts more spinning workers than the machine has.
    SystemConfig config = SystemConfig::Baseline(64, 8);
    config.channel_jobs = 0;
    config.observability.engine_profile = true;
    System system(config, SyntheticTraces(config, 64));
    const json::Value env = system.EngineEnvJson();
    const json::Value* participants = env.Find("participants");
    ASSERT_NE(participants, nullptr);
    EXPECT_EQ(participants->AsNumber(),
              static_cast<double>(std::min(8u, HardwareJobs())));
    EXPECT_EQ(system.channel_jobs(), std::min(8u, HardwareJobs()));
}

TEST(ScaleSharded, DormantCoresSkipMostCoreTicks)
{
    // At 64 cores most core ticks wait on DRAM, and the sweep must skip
    // them (DESIGN.md §5g, "Dormant cores").  Which ticks it skips follows
    // from the cores alone, so the counts cannot depend on the team size.
    constexpr CpuCycle kCycles = 20000;
    std::vector<std::uint64_t> skipped;
    for (const unsigned jobs : {1u, 4u, 8u}) {
        SystemConfig config = SystemConfig::Baseline(64, 8);
        config.channel_jobs = jobs;
        System system(config, SyntheticTraces(config, 64));
        system.Run(kCycles);
        std::uint64_t cycles = 0;
        for (ThreadId t = 0; t < system.num_cores(); ++t) {
            cycles += system.core(t).stats().cycles;
        }
        EXPECT_EQ(cycles, 64 * kCycles) << "jobs=" << jobs;
        EXPECT_GE(2 * system.skipped_core_ticks(), cycles) << "jobs=" << jobs;
        skipped.push_back(system.skipped_core_ticks());
    }
    EXPECT_EQ(skipped[1], skipped[0]);
    EXPECT_EQ(skipped[2], skipped[0]);
}

TEST(ScaleSharded, RankScaledBaselineStaysIdenticalAt128Cores)
{
    // Baseline(128) saturates the channel cap and doubles the ranks; the
    // engine must match the oracle on rank-scaled geometries too.
    SchedulerConfig scheduler;
    scheduler.kind = SchedulerKind::kParBs;
    constexpr CpuCycle kCycles = 8000;
    auto config = [&](unsigned jobs) {
        SystemConfig out = SystemConfig::Baseline(128);
        out.scheduler = scheduler;
        out.channel_jobs = jobs;
        return out;
    };
    const Artifacts reference =
        RunSystem<ReferenceSystem>(config(1), 128, kCycles);
    for (const unsigned jobs : {1u, 8u}) {
        const Artifacts engine = RunSystem<System>(config(jobs), 128, kCycles);
        ASSERT_EQ(engine.channel_jobs, jobs);
        EXPECT_EQ(reference.stop, engine.stop) << "jobs=" << jobs;
        EXPECT_EQ(reference.stats, engine.stats) << "jobs=" << jobs;
    }
}

TEST(ScaleSharded, BaselineGeometryScalesByRanksBeyond64Cores)
{
    const SystemConfig b64 = SystemConfig::Baseline(64);
    EXPECT_EQ(b64.geometry.channels, 16u);
    EXPECT_EQ(b64.geometry.ranks_per_channel, 1u);
    const SystemConfig b128 = SystemConfig::Baseline(128);
    EXPECT_EQ(b128.geometry.channels, 16u);
    EXPECT_EQ(b128.geometry.ranks_per_channel, 2u);
    const SystemConfig b256 = SystemConfig::Baseline(256);
    EXPECT_EQ(b256.geometry.channels, 16u);
    EXPECT_EQ(b256.geometry.ranks_per_channel, 4u);
    const SystemConfig wide = SystemConfig::Baseline(64, 8);
    EXPECT_EQ(wide.geometry.channels, 8u);
    EXPECT_EQ(wide.geometry.ranks_per_channel, 2u);
    // All of them must pass full validation (the old cores/4 rule pushed
    // 128 cores to an invalid 32-channel geometry).
    b64.Validate();
    b128.Validate();
    b256.Validate();
    wide.Validate();
    EXPECT_THROW(SystemConfig::Baseline(64, 3), ConfigError);
    EXPECT_THROW(SystemConfig::Baseline(64, 32), ConfigError);
}

TEST(ScaleSharded, ScanOracleIsObservationFree)
{
    // The scan oracle wraps every channel's scheduler and replays each
    // DRAM cycle's selection through Pick(); on a 64-core run under the
    // channel team it must not change a byte of the stats or the trace.
    SchedulerConfig scheduler;
    scheduler.kind = SchedulerKind::kParBs;
    constexpr std::uint32_t kCores = 64;
    constexpr CpuCycle kCycles = 25000;
    const SystemConfig plain = TracedConfig(kCores, scheduler, 4);
    SystemConfig checked = plain;
    oracle::InstallScanOracle(checked);

    System system(checked, SyntheticTraces(checked, kCores));
    const std::vector<oracle::ScanChecked*> oracles =
        oracle::BindScanOracles(system);
    system.Run(kCycles);
    const Artifacts with_oracle = Collect(system, checked);
    std::uint64_t picks_checked = 0;
    for (const oracle::ScanChecked* scan : oracles) {
        picks_checked += scan->picks_checked();
    }
    const Artifacts without = RunSystem<System>(plain, kCores, kCycles);
    EXPECT_GT(picks_checked, 0u);
    EXPECT_EQ(with_oracle.stop, without.stop);
    EXPECT_EQ(with_oracle.stats, without.stats);
    EXPECT_EQ(with_oracle.trace, without.trace);
}

} // namespace
} // namespace parbs
