/** @file Integration tests for the full CMP system and experiment runner. */

#include <gtest/gtest.h>

#include <sstream>

#include "common/assert.hh"
#include "oracle/reference_system.hh"
#include "sim/experiment.hh"
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

TEST(System, BaselineConfigsScaleChannels)
{
    EXPECT_EQ(SystemConfig::Baseline(4).geometry.channels, 1u);
    EXPECT_EQ(SystemConfig::Baseline(8).geometry.channels, 2u);
    EXPECT_EQ(SystemConfig::Baseline(16).geometry.channels, 4u);
}

TEST(System, RunsAndMeasures)
{
    SystemConfig config = SystemConfig::Baseline(4);
    System system(config, SyntheticTraces(config, 4));
    system.Run(200000);
    EXPECT_EQ(system.num_cores(), 4u);
    for (ThreadId t = 0; t < 4; ++t) {
        const ThreadMeasurement m = system.Measure(t);
        EXPECT_GT(m.requests, 100u) << "thread " << t;
        EXPECT_GT(m.ipc, 0.0);
        EXPECT_GT(m.row_hit_rate, 0.0);
        EXPECT_GT(m.blp, 0.9);
        EXPECT_GT(m.worst_case_latency, 0u);
    }
}

TEST(System, DeterministicAcrossRuns)
{
    auto measure = [] {
        SystemConfig config = SystemConfig::Baseline(4);
        config.scheduler.kind = SchedulerKind::kParBs;
        System system(config, SyntheticTraces(config, 4));
        system.Run(100000);
        std::vector<std::uint64_t> out;
        for (ThreadId t = 0; t < 4; ++t) {
            const ThreadMeasurement m = system.Measure(t);
            out.push_back(m.requests);
            out.push_back(m.instructions);
            out.push_back(m.worst_case_latency);
        }
        return out;
    };
    EXPECT_EQ(measure(), measure());
}

TEST(System, FiniteTracesDrainToDone)
{
    SystemConfig config = SystemConfig::Baseline(4);
    std::vector<std::unique_ptr<TraceSource>> traces;
    std::vector<TraceEntry> entries;
    for (int i = 0; i < 10; ++i) {
        entries.push_back({10, static_cast<Addr>(0x1000 + 64 * i), false,
                           false});
    }
    traces.push_back(std::make_unique<VectorTraceSource>(entries));
    System system(config, std::move(traces));
    system.Run(1'000'000);
    EXPECT_TRUE(system.AllDone());
    EXPECT_EQ(system.Measure(0).requests, 10u);
}

TEST(System, MultiChannelRoutesRequests)
{
    SystemConfig config = SystemConfig::Baseline(8);
    System system(config, SyntheticTraces(config, 8));
    system.Run(100000);
    EXPECT_EQ(system.num_controllers(), 2u);
    std::uint64_t total0 = 0;
    std::uint64_t total1 = 0;
    for (ThreadId t = 0; t < 8; ++t) {
        total0 += system.controller(0).thread_stats(t).reads_completed;
        total1 += system.controller(1).thread_stats(t).reads_completed;
    }
    EXPECT_GT(total0, 100u);
    EXPECT_GT(total1, 100u);
}

TEST(System, ExtraReadLatencyDelaysCompletion)
{
    SystemConfig fast = SystemConfig::Baseline(4);
    fast.extra_read_latency_cpu = 0;
    SystemConfig slow = SystemConfig::Baseline(4);
    slow.extra_read_latency_cpu = 300;

    auto run = [](const SystemConfig& config) {
        std::vector<std::unique_ptr<TraceSource>> traces;
        traces.push_back(std::make_unique<VectorTraceSource>(
            std::vector<TraceEntry>{{0, 0x1000, false, false}}));
        System system(config, std::move(traces));
        system.Run(1'000'000);
        return system.core(0).stats().load_stall_cycles;
    };
    EXPECT_GE(run(slow), run(fast) + 290);
}

TEST(System, WatchdogSeesProgressThroughLongComputeRuns)
{
    // Entries of 200,000 compute instructions let the core sleep through
    // steady runs of about 66,000 cycles, far beyond the global watchdog's
    // 20,480-cycle bound, with no DRAM command in between.  The progress
    // signature must count what a steady sleeper commits (DESIGN.md §5g,
    // "Dormant cores"), and the run must match the per-cycle oracle.
    SystemConfig config = SystemConfig::Baseline(1);
    config.controller.watchdog.enabled = true;
    auto traces = [] {
        std::vector<TraceEntry> entries;
        for (Addr i = 0; i < 8; ++i) {
            entries.push_back({200'000, 0x1000 + 64 * i, false, false});
        }
        std::vector<std::unique_ptr<TraceSource>> out;
        out.push_back(std::make_unique<VectorTraceSource>(entries));
        return out;
    };
    System system(config, traces());
    EXPECT_NO_THROW(system.Run(400'000));
    oracle::ReferenceSystem reference(config, traces());
    reference.Run(400'000);
    std::ostringstream expected;
    std::ostringstream actual;
    reference.DumpStats(expected);
    system.DumpStats(actual);
    EXPECT_EQ(expected.str(), actual.str());
    EXPECT_GT(system.skipped_core_ticks(), 390'000u);
}

TEST(System, RefreshOffRunsCleanUnderTheProtocolChecker)
{
    // timing.tREFI = 0 is the one refresh switch: the controller stops
    // refreshing and the checker stops demanding refreshes, so a run well
    // past the checker's nine-postponed-refreshes limit (28,080 DRAM
    // cycles at the default tREFI) stays clean and matches the oracle.
    SystemConfig config = SystemConfig::Baseline(4);
    config.timing.tREFI = 0;
    config.controller.protocol_check = true;
    System system(config, SyntheticTraces(config, 4));
    EXPECT_NO_THROW(system.Run(400'000));
    EXPECT_EQ(system.controller(0).commands_issued(
                  dram::CommandType::kRefresh),
              0u);
    oracle::ReferenceSystem reference(config, SyntheticTraces(config, 4));
    reference.Run(400'000);
    std::ostringstream expected;
    std::ostringstream actual;
    reference.DumpStats(expected);
    system.DumpStats(actual);
    EXPECT_EQ(expected.str(), actual.str());
}

TEST(System, TooManyTracesRejected)
{
    SystemConfig config = SystemConfig::Baseline(4);
    EXPECT_THROW(System(config, SyntheticTraces(config, 5)), ConfigError);
}

TEST(System, InvalidConfigRejected)
{
    SystemConfig config = SystemConfig::Baseline(4);
    config.cpu_to_dram_ratio = 0;
    EXPECT_THROW(config.Validate(), ConfigError);
    SystemConfig config2 = SystemConfig::Baseline(4);
    config2.num_cores = 0;
    EXPECT_THROW(config2.Validate(), ConfigError);
    EXPECT_THROW(SystemConfig::Baseline(0), ConfigError);
}

TEST(System, DumpStatsReportsEverySubsystem)
{
    SystemConfig config = SystemConfig::Baseline(4);
    config.scheduler.kind = SchedulerKind::kParBs;
    System system(config, SyntheticTraces(config, 2));
    system.Run(50000);
    std::ostringstream out;
    system.DumpStats(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("core[0]"), std::string::npos);
    EXPECT_NE(text.find("core[1]"), std::string::npos);
    EXPECT_NE(text.find("controller[0]"), std::string::npos);
    EXPECT_NE(text.find("PAR-BS"), std::string::npos);
    EXPECT_NE(text.find("batches_formed"), std::string::npos);
    EXPECT_NE(text.find("ACT="), std::string::npos);
}

TEST(Experiment, AloneBaselineIsCached)
{
    ExperimentConfig config;
    config.run_cycles = 50000;
    ExperimentRunner runner(config);
    const ThreadMeasurement& a = runner.AloneBaseline("429.mcf");
    const ThreadMeasurement& b = runner.AloneBaseline("429.mcf");
    EXPECT_EQ(&a, &b);
    EXPECT_GT(a.requests, 0u);
}

TEST(Experiment, SharedRunProducesMetrics)
{
    ExperimentConfig config;
    config.run_cycles = 100000;
    ExperimentRunner runner(config);
    SchedulerConfig scheduler;
    scheduler.kind = SchedulerKind::kParBs;
    const SharedRun run = runner.RunShared(CaseStudy1(), scheduler);
    EXPECT_EQ(run.shared.size(), 4u);
    EXPECT_EQ(run.alone.size(), 4u);
    EXPECT_GE(run.metrics.unfairness, 1.0);
    EXPECT_GT(run.metrics.weighted_speedup, 0.0);
    EXPECT_EQ(run.scheduler, "PAR-BS");
    for (double slowdown : run.metrics.memory_slowdown) {
        EXPECT_GE(slowdown, 1.0);
    }
}

TEST(Experiment, PrioritiesAndWeightsAreApplied)
{
    ExperimentConfig config;
    config.run_cycles = 100000;
    ExperimentRunner runner(config);
    SchedulerConfig scheduler;
    scheduler.kind = SchedulerKind::kParBs;
    const std::vector<ThreadPriority> priorities{1, 1, 2, 8};
    EXPECT_NO_THROW(
        runner.RunShared(Copies("470.lbm", 4), scheduler, &priorities));
    SchedulerConfig nfq;
    nfq.kind = SchedulerKind::kNfq;
    const std::vector<double> weights{8, 8, 4, 1};
    EXPECT_NO_THROW(
        runner.RunShared(Copies("470.lbm", 4), nfq, nullptr, &weights));
}

TEST(Experiment, AggregateComputesGmeans)
{
    ExperimentConfig config;
    config.run_cycles = 60000;
    ExperimentRunner runner(config);
    SchedulerConfig scheduler;
    scheduler.kind = SchedulerKind::kFrFcfs;
    std::vector<SharedRun> runs;
    for (const auto& workload : RandomMixes(3, 4, 9)) {
        runs.push_back(runner.RunShared(workload, scheduler));
    }
    const AggregateMetrics agg = ExperimentRunner::Aggregate(runs);
    EXPECT_GE(agg.unfairness_gmean, 1.0);
    EXPECT_GT(agg.weighted_speedup_gmean, 0.0);
    EXPECT_GT(agg.hmean_speedup_gmean, 0.0);
}

TEST(Experiment, ComparisonSchedulersMatchPaperLineup)
{
    const auto lineup = ComparisonSchedulers();
    ASSERT_EQ(lineup.size(), 6u);
    EXPECT_EQ(SchedulerConfigName(lineup[0]), "FR-FCFS");
    EXPECT_EQ(SchedulerConfigName(lineup[1]), "FCFS");
    EXPECT_EQ(SchedulerConfigName(lineup[2]), "NFQ");
    EXPECT_EQ(SchedulerConfigName(lineup[3]), "STFM");
    EXPECT_EQ(SchedulerConfigName(lineup[4]), "PAR-BS");
    // The paper's five plus the BLISS foil (the Pareto shootout lineup).
    EXPECT_EQ(SchedulerConfigName(lineup[5]), "BLISS");
}

TEST(Workloads, NamedWorkloadsMatchPaper)
{
    EXPECT_EQ(CaseStudy1().benchmarks,
              (std::vector<std::string>{"462.libquantum", "429.mcf",
                                        "459.GemsFDTD", "483.xalancbmk"}));
    EXPECT_EQ(CaseStudy2().benchmarks,
              (std::vector<std::string>{"matlab", "464.h264ref",
                                        "471.omnetpp", "456.hmmer"}));
    EXPECT_EQ(CaseStudy3().benchmarks.size(), 4u);
    EXPECT_EQ(EightCoreMixed().benchmarks.size(), 8u);
    EXPECT_EQ(Fig8SampleWorkloads().size(), 10u);
}

TEST(Workloads, SixteenCoreSamplesAreComplete)
{
    const auto samples = SixteenCoreSamples();
    ASSERT_EQ(samples.size(), 5u);
    for (const auto& sample : samples) {
        EXPECT_EQ(sample.benchmarks.size(), 16u) << sample.name;
        for (const auto& benchmark : sample.benchmarks) {
            EXPECT_NO_THROW(FindProfile(benchmark)) << benchmark;
        }
    }
}

TEST(Workloads, RandomMixesAreDeterministicAndValid)
{
    const auto a = RandomMixes(10, 4, 42);
    const auto b = RandomMixes(10, 4, 42);
    ASSERT_EQ(a.size(), 10u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].benchmarks, b[i].benchmarks);
        EXPECT_EQ(a[i].benchmarks.size(), 4u);
    }
    const auto c = RandomMixes(10, 4, 43);
    bool any_different = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        any_different |= a[i].benchmarks != c[i].benchmarks;
    }
    EXPECT_TRUE(any_different);
}

TEST(Workloads, SixteenCoreMixesCoverCategoriesTwice)
{
    const auto mixes = RandomMixes(3, 16, 7);
    for (const auto& mix : mixes) {
        std::vector<int> counts(8, 0);
        for (const auto& benchmark : mix.benchmarks) {
            counts[FindProfile(benchmark).category] += 1;
        }
        for (int category = 0; category < 8; ++category) {
            EXPECT_EQ(counts[category], 2) << mix.name;
        }
    }
}

} // namespace
} // namespace parbs
