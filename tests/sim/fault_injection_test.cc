/** @file Tests for the deterministic fault-injection harness. */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_injector.hh"
#include "sched/factory.hh"
#include "sim/system.hh"
#include "trace/synthetic.hh"

namespace parbs {
namespace {

TEST(FaultInjector, ExpectedDefensePerFamily)
{
    using enum FaultKind;
    EXPECT_EQ(FaultInjector::ExpectedDefense(kMalformedTrace),
              Defense::kConfigError);
    EXPECT_EQ(FaultInjector::ExpectedDefense(kOutOfRangeAddress),
              Defense::kConfigError);
    EXPECT_EQ(FaultInjector::ExpectedDefense(kBadTiming),
              Defense::kConfigError);
    EXPECT_EQ(FaultInjector::ExpectedDefense(kBadGeometry),
              Defense::kConfigError);
    EXPECT_EQ(FaultInjector::ExpectedDefense(kBadControllerConfig),
              Defense::kConfigError);
    EXPECT_EQ(FaultInjector::ExpectedDefense(kRefreshStorm), Defense::kNone);
    EXPECT_EQ(FaultInjector::ExpectedDefense(kWritePressure),
              Defense::kNone);
    EXPECT_EQ(FaultInjector::ExpectedDefense(kSchedulerChaos),
              Defense::kNone);
    EXPECT_EQ(FaultInjector::ExpectedDefense(kTimingCorruption),
              Defense::kProtocolError);
    EXPECT_EQ(FaultInjector::ExpectedDefense(kServiceWithholding),
              Defense::kWatchdogError);
    EXPECT_EQ(FaultInjector::ExpectedDefense(kTransientBitErrors),
              Defense::kNone);
    EXPECT_EQ(FaultInjector::ExpectedDefense(kStuckRow),
              Defense::kMachineCheck);
    EXPECT_EQ(FaultInjector::ExpectedDefense(kScrubStorm), Defense::kNone);
}

TEST(FaultInjector, ScenariosAreDeterministic)
{
    FaultInjector a(0xFA11);
    FaultInjector b(0xFA11);
    for (std::uint64_t index = 0; index < kNumFaultKinds; ++index) {
        const FaultOutcome first = a.RunScenario(index);
        const FaultOutcome second = b.RunScenario(index);
        EXPECT_EQ(first.observed, second.observed) << "index " << index;
        EXPECT_EQ(first.detail, second.detail) << "index " << index;
    }
}

TEST(FaultInjector, EveryFamilyIsDefendedAsExpected)
{
    // Three full rotations through every family (the CI fuzz run covers
    // far more; this keeps the tier-1 suite fast but representative).
    FaultInjector injector(0xFA11);
    for (std::uint64_t index = 0; index < 3 * kNumFaultKinds; ++index) {
        const FaultOutcome outcome = injector.RunScenario(index);
        EXPECT_TRUE(outcome.Passed())
            << "index " << index << " (" << FaultKindName(outcome.kind)
            << "): expected " << DefenseName(outcome.expected)
            << ", observed " << DefenseName(outcome.observed) << "\n  "
            << outcome.detail;
    }
}

TEST(FaultInjector, ASecondSeedAlsoPasses)
{
    FaultInjector injector(0xC0FFEE);
    for (std::uint64_t index = 0; index < kNumFaultKinds; ++index) {
        const FaultOutcome outcome = injector.RunScenario(index);
        EXPECT_TRUE(outcome.Passed())
            << "index " << index << " (" << FaultKindName(outcome.kind)
            << "): observed " << DefenseName(outcome.observed) << "\n  "
            << outcome.detail;
    }
}

TEST(FaultInjector, DefensesAreInvariantUnderSchedulerAndSharding)
{
    // The scenario matrix replayed under a different scheduler and under
    // the channel-sharded engine must classify every fault identically to
    // the serial FR-FCFS baseline: defenses are a property of the fault,
    // not of the scheduling policy or the worker count.
    FaultInjector injector(0xFA11);
    std::vector<FaultOutcome> baseline;
    for (std::uint64_t index = 0; index < kNumFaultKinds; ++index) {
        baseline.push_back(injector.RunScenario(index));
    }
    // Enumerate from the factory registry so a newly registered policy
    // is replayed automatically (the FR-FCFS entry harmlessly re-checks
    // the baseline under sharding).
    for (const SchedulerKind scheduler : AllSchedulerKinds()) {
        FaultOptions options;
        options.scheduler = scheduler;
        options.channel_jobs = 4;
        for (std::uint64_t index = 0; index < kNumFaultKinds; ++index) {
            const FaultOutcome outcome =
                injector.RunScenario(index, options);
            EXPECT_TRUE(outcome.Passed())
                << "index " << index << " scheduler "
                << SchedulerKindName(scheduler) << ": observed "
                << DefenseName(outcome.observed) << "\n  "
                << outcome.detail;
            EXPECT_EQ(outcome.observed, baseline[index].observed)
                << "index " << index << " under "
                << SchedulerKindName(scheduler)
                << " --channel-jobs 4 diverged from the serial baseline";
        }
    }
}

TEST(FaultInjector, UserFaultDetailNamesTheProblem)
{
    // The rejection message must carry context, not just a type.
    FaultInjector injector(0xFA11);
    const FaultOutcome outcome =
        injector.RunScenario(static_cast<std::uint64_t>(
            FaultKind::kMalformedTrace));
    ASSERT_EQ(outcome.observed, Defense::kConfigError);
    EXPECT_NE(outcome.detail.find("trace"), std::string::npos)
        << outcome.detail;
}

TEST(FaultWrappers, ChaosAtZeroIsTransparent)
{
    // A chaos wrapper that never overrides a pick must be invisible: the
    // thread priorities reach the wrapped PAR-BS, and Stats() is the
    // wrapped scheduler's.  The priorities change a bare PAR-BS run, so a
    // wrapper that dropped them would differ.  Pick-memo counts are left
    // out: the wrapper's per-bank path walks the chains through its own
    // Pick(), not through the wrapped scheduler's memo.
    const auto run = [](bool wrap, bool prioritize) {
        SystemConfig config = SystemConfig::Baseline(4);
        config.scheduler.kind = SchedulerKind::kParBs;
        if (wrap) {
            config.scheduler_factory = [scheduler = config.scheduler] {
                return std::make_unique<ChaosScheduler>(
                    MakeScheduler(scheduler), 7, 0.0);
            };
        }
        const dram::AddressMapper mapper(config.geometry,
                                         config.xor_bank_hash);
        std::vector<std::unique_ptr<TraceSource>> traces;
        for (ThreadId t = 0; t < 4; ++t) {
            SyntheticParams params;
            params.mpki = 25.0;
            traces.push_back(std::make_unique<SyntheticTraceSource>(
                params, mapper, t, 4, 1000 + t));
        }
        System system(config, std::move(traces));
        if (prioritize) {
            system.SetThreadPriority(0, 2);
            system.SetThreadPriority(3, kOpportunisticPriority);
        }
        system.Run(100000);
        std::ostringstream out;
        for (ThreadId t = 0; t < 4; ++t) {
            const ThreadMeasurement m = system.Measure(t);
            out << "thread " << t << ": mcpi=" << m.mcpi << " ipc=" << m.ipc
                << " ast=" << m.ast_per_req << " rbh=" << m.row_hit_rate
                << " blp=" << m.blp << " mpki=" << m.mpki
                << " worst=" << m.worst_case_latency
                << " instructions=" << m.instructions
                << " requests=" << m.requests << "\n";
        }
        for (const auto& [key, value] :
             system.controller(0).scheduler().Stats()) {
            out << key << "=" << value << "\n";
        }
        return out.str();
    };
    const std::string bare = run(false, true);
    ASSERT_NE(run(false, false), bare) << "the priorities change nothing";
    EXPECT_EQ(run(true, true), bare);
}

} // namespace
} // namespace parbs
