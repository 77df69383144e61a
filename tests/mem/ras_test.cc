/**
 * @file
 * Tests for the RAS subsystem: the deterministic error model, the ECC
 * retry / row-retirement state machine, machine-check surfacing, the
 * patrol scrubber and its skip-ahead schedule, and the recovery-tax latency
 * component.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <set>
#include <string>

#include "common/assert.hh"
#include "common/rng.hh"
#include "dram/error_model.hh"
#include "mem/ras.hh"
#include "mem/scrubber.hh"
#include "obs/latency.hh"
#include "obs/tracer.hh"
#include "oracle/scan_checked.hh"
#include "sched/factory.hh"
#include "test_util.hh"

namespace parbs {
namespace {

std::unique_ptr<Scheduler>
FrFcfs()
{
    SchedulerConfig config;
    config.kind = SchedulerKind::kFrFcfs;
    return MakeScheduler(config);
}

// --- Error model ---------------------------------------------------------

TEST(ErrorModel, ClassificationIsAPureFunctionOfItsKey)
{
    dram::ErrorModelConfig config;
    config.seed = 42;
    config.channel = 1;
    config.transient_error_rate = 0.3;
    const dram::ErrorModel a(config);
    const dram::ErrorModel b(config);
    for (std::uint64_t access = 0; access < 200; ++access) {
        EXPECT_EQ(a.ClassifyTransient(0, 3, 17, access),
                  b.ClassifyTransient(0, 3, 17, access));
    }
    EXPECT_EQ(a.RowStuck(0, 2, 9), b.RowStuck(0, 2, 9));
}

TEST(ErrorModel, TransientRateIsHonoredStatistically)
{
    dram::ErrorModelConfig config;
    config.seed = 7;
    config.transient_error_rate = 0.5;
    config.transient_uncorrectable = 0.0;
    const dram::ErrorModel model(config);
    std::uint64_t errors = 0;
    constexpr std::uint64_t kDraws = 4000;
    for (std::uint64_t access = 0; access < kDraws; ++access) {
        if (model.ClassifyTransient(0, 0, 0, access) !=
            dram::EccOutcome::kClean) {
            errors += 1;
        }
    }
    EXPECT_GT(errors, kDraws * 45 / 100);
    EXPECT_LT(errors, kDraws * 55 / 100);
}

TEST(ErrorModel, StuckRowPopulationDependsOnChannel)
{
    dram::ErrorModelConfig config;
    config.seed = 11;
    config.stuck_row_fraction = 0.5;
    auto stuck_set = [&](std::uint32_t channel) {
        dram::ErrorModelConfig c = config;
        c.channel = channel;
        const dram::ErrorModel model(c);
        std::set<std::uint32_t> rows;
        for (std::uint32_t row = 0; row < 1024; ++row) {
            if (model.RowStuck(0, 0, row)) {
                rows.insert(row);
            }
        }
        return rows;
    };
    const auto ch0 = stuck_set(0);
    const auto ch1 = stuck_set(1);
    EXPECT_GT(ch0.size(), 300u);
    EXPECT_LT(ch0.size(), 700u);
    EXPECT_NE(ch0, ch1);
    EXPECT_EQ(ch0, stuck_set(0)); // deterministic in (seed, channel)
}

TEST(ErrorModel, RejectsOutOfRangeRates)
{
    dram::ErrorModelConfig config;
    config.transient_error_rate = 1.5;
    EXPECT_THROW(config.Validate(), ConfigError);
    config = {};
    config.stuck_row_fraction = -0.1;
    EXPECT_THROW(config.Validate(), ConfigError);
}

TEST(RasConfig, RejectsZeroRetryBackoff)
{
    RasConfig config;
    config.enabled = true;
    config.retry_backoff = 0;
    EXPECT_THROW(config.Validate(), ConfigError);
}

// --- ECC recovery path ---------------------------------------------------

ControllerConfig
RasControllerConfig()
{
    ControllerConfig config = test::ControllerHarness::DefaultConfig();
    config.ras.enabled = true;
    config.ras.seed = 1234;
    return config;
}

TEST(Ras, CorrectableErrorsAreTransparentlyAbsorbed)
{
    ControllerConfig config = RasControllerConfig();
    config.ras.transient_error_rate = 1.0;     // every read errors...
    config.ras.transient_uncorrectable = 0.0;  // ...correctably
    test::ControllerHarness harness(FrFcfs(), 2, config);
    for (std::uint32_t i = 0; i < 20; ++i) {
        harness.Enqueue(i % 2, i % 8, i % 32);
    }
    harness.RunUntilIdle();
    EXPECT_EQ(harness.completed().size(), 20u);
    const RasStats& stats = harness.controller().ras()->stats();
    EXPECT_EQ(stats.corrected, 20u);
    EXPECT_EQ(stats.uncorrectable, 0u);
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_EQ(stats.rows_retired, 0u);
}

TEST(Ras, UncorrectableReadRetriesWithBoundedBudgetThenRetires)
{
    // Every attempt fails uncorrectably, so each read must burn its full
    // retry budget, retire the row, and succeed from the remapped row.
    ControllerConfig config = RasControllerConfig();
    config.ras.transient_error_rate = 1.0;
    config.ras.transient_uncorrectable = 1.0;
    config.ras.retry_budget = 3;
    config.ras.remap_capacity = 8;
    test::ControllerHarness harness(FrFcfs(), 2, config);
    harness.Enqueue(0, 2, 5);
    harness.RunUntilIdle();
    ASSERT_EQ(harness.completed().size(), 1u);
    const RasEngine* ras = harness.controller().ras();
    // budget + 1 failed attempts, then a clean read of the remapped row.
    EXPECT_EQ(ras->stats().uncorrectable, 4u);
    EXPECT_EQ(ras->stats().retries, 4u);
    EXPECT_EQ(ras->stats().rows_retired, 1u);
    EXPECT_EQ(ras->remap_used(), 1u);
    EXPECT_TRUE(ras->IsRetired(0, 2, 5));
}

TEST(Ras, RetiredRowsAreExcludedFromSubsequentTraffic)
{
    ControllerConfig config = RasControllerConfig();
    config.ras.stuck_row_fraction = 1.0;
    config.ras.retry_budget = 1;
    config.ras.remap_capacity = 4;
    test::ControllerHarness harness(FrFcfs(), 2, config);
    harness.Enqueue(0, 1, 9);
    harness.RunUntilIdle();
    const RasEngine* ras = harness.controller().ras();
    ASSERT_EQ(ras->stats().rows_retired, 1u);
    const std::uint64_t failures = ras->stats().uncorrectable;
    // Ten more reads of the (remapped) row must classify clean.
    for (std::uint32_t i = 0; i < 10; ++i) {
        harness.Enqueue(0, 1, 9, i + 1);
    }
    harness.RunUntilIdle();
    EXPECT_EQ(harness.completed().size(), 11u);
    EXPECT_EQ(ras->stats().uncorrectable, failures);
    EXPECT_EQ(ras->stats().rows_retired, 1u);
}

TEST(Ras, RemapExhaustionSurfacesAsMachineCheck)
{
    ControllerConfig config = RasControllerConfig();
    config.ras.stuck_row_fraction = 1.0;
    config.ras.retry_budget = 1;
    config.ras.remap_capacity = 1;
    test::ControllerHarness harness(FrFcfs(), 2, config);
    harness.Enqueue(0, 0, 10); // retires into the only remap slot
    harness.Enqueue(0, 1, 20); // must machine-check
    try {
        harness.RunUntilIdle();
        FAIL() << "expected MachineCheckError";
    } catch (const MachineCheckError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("machine check"), std::string::npos) << what;
        EXPECT_NE(what.find("remap table full"), std::string::npos) << what;
        EXPECT_NE(what.find("row 20"), std::string::npos) << what;
    }
    const RasEngine* ras = harness.controller().ras();
    EXPECT_EQ(ras->stats().machine_checks, 1u);
    EXPECT_EQ(ras->remap_used(), 1u);
}

TEST(Ras, RecoveryTaxIsRecordedPerThread)
{
    ControllerConfig config = RasControllerConfig();
    config.ras.transient_error_rate = 1.0;
    config.ras.transient_uncorrectable = 1.0;
    config.ras.retry_budget = 2;
    config.ras.remap_capacity = 16;
    test::ControllerHarness harness(FrFcfs(), 2, config);
    obs::Tracer tracer(4096);
    obs::LatencyAnatomy latency(2);
    harness.controller().AttachObservability(&tracer, &latency, 0);
    harness.Enqueue(1, 3, 7);
    harness.RunUntilIdle();
    ASSERT_EQ(latency.recorded_reads(), 1u);
    // The read needed retries, so its recovery tax is strictly positive
    // and bounded by its total latency.
    EXPECT_EQ(latency.Recovery(1).count(), 1u);
    EXPECT_GT(latency.Recovery(1).max(), 0u);
    EXPECT_LE(latency.Recovery(1).max(), latency.Total(1).max());
    EXPECT_EQ(latency.Recovery(0).count(), 0u);
}

TEST(Ras, CleanReadsPayZeroRecoveryTax)
{
    ControllerConfig config = RasControllerConfig();
    test::ControllerHarness harness(FrFcfs(), 2, config);
    obs::Tracer tracer(4096);
    obs::LatencyAnatomy latency(2);
    harness.controller().AttachObservability(&tracer, &latency, 0);
    for (std::uint32_t i = 0; i < 8; ++i) {
        harness.Enqueue(0, i, 3);
    }
    harness.RunUntilIdle();
    ASSERT_EQ(latency.recorded_reads(), 8u);
    EXPECT_EQ(latency.Recovery(0).count(), 8u);
    EXPECT_EQ(latency.Recovery(0).max(), 0u);
}

// --- Patrol scrubber -----------------------------------------------------

TEST(Scrubber, CursorWalksRowsBanksRanksThenWraps)
{
    dram::Geometry geometry = test::TestGeometry();
    geometry.rows_per_bank = 2;
    geometry.banks_per_rank = 2;
    Scrubber scrubber(geometry, /*interval=*/8, /*demote_reads=*/4);
    EXPECT_EQ(scrubber.rank(), 0u);
    EXPECT_EQ(scrubber.bank(), 0u);
    EXPECT_EQ(scrubber.row(), 0u);
    for (int i = 0; i < 4; ++i) {
        scrubber.AdvanceCursor();
    }
    EXPECT_EQ(scrubber.sweeps(), 1u);
    EXPECT_EQ(scrubber.rank(), 0u);
    EXPECT_EQ(scrubber.bank(), 0u);
    EXPECT_EQ(scrubber.row(), 0u);
}

TEST(Ras, ScrubberReadsRowsDuringIdleCycles)
{
    ControllerConfig config = RasControllerConfig();
    config.ras.scrub_interval = 16;
    test::ControllerHarness harness(FrFcfs(), 2, config);
    harness.Tick(4000); // fully idle: every interval belongs to the scrub
    const RasEngine* ras = harness.controller().ras();
    EXPECT_GT(ras->stats().scrub_reads, 50u);
    EXPECT_EQ(ras->stats().scrub_uncorrectable, 0u);
    const Scrubber* scrubber = harness.controller().scrubber();
    ASSERT_NE(scrubber, nullptr);
    EXPECT_GT(scrubber->rank() + scrubber->bank() + scrubber->row(), 0u);
}

TEST(Ras, ScrubberProactivelyRetiresStuckRows)
{
    ControllerConfig config = RasControllerConfig();
    config.ras.scrub_interval = 8;
    config.ras.stuck_row_fraction = 1.0;
    config.ras.remap_capacity = 1u << 20; // never exhausts
    test::ControllerHarness harness(FrFcfs(), 2, config);
    harness.Tick(2000);
    const RasEngine* ras = harness.controller().ras();
    EXPECT_GT(ras->stats().scrub_uncorrectable, 0u);
    EXPECT_GT(ras->stats().rows_retired, 0u);
    // Retirement came from the scrub alone: no demand reads ran at all.
    EXPECT_EQ(ras->stats().uncorrectable, 0u);
    EXPECT_EQ(ras->stats().retries, 0u);
}

TEST(Ras, ScrubStandsDownUnderQueuePressure)
{
    ControllerConfig config = RasControllerConfig();
    config.ras.scrub_interval = 1;
    config.ras.scrub_demote_reads = 1;
    test::ControllerHarness harness(FrFcfs(), 2, config);
    // With the demotion threshold at one queued read, scrub only ever runs
    // on cycles where the read queue is empty — demand is never starved.
    for (std::uint32_t i = 0; i < 50; ++i) {
        harness.Enqueue(0, i % 8, i % 16);
    }
    harness.RunUntilIdle();
    EXPECT_EQ(harness.completed().size(), 50u);
}

TEST(Ras, WatchdogDumpIncludesRasState)
{
    // Satellite: the stall dump must carry the RAS counters and remap
    // occupancy so a stalled run under errors is debuggable from the
    // message alone.
    ControllerConfig config = RasControllerConfig();
    config.ras.stuck_row_fraction = 1.0;
    config.ras.retry_budget = 1;
    config.ras.remap_capacity = 4;
    config.watchdog.enabled = true;
    config.watchdog.no_progress_bound = 600;
    test::ControllerHarness harness(FrFcfs(), 2, config);
    harness.Enqueue(0, 0, 3);
    harness.RunUntilIdle();
    ASSERT_EQ(harness.controller().ras()->stats().rows_retired, 1u);
    const std::string dump =
        harness.controller().Diagnostics(harness.now());
    EXPECT_NE(dump.find("ras: corrected=0"), std::string::npos) << dump;
    EXPECT_NE(dump.find("remap=1/4"), std::string::npos) << dump;
    EXPECT_NE(dump.find("retries=2"), std::string::npos) << dump;
}

// --- Scrub schedule ------------------------------------------------------

/**
 * What a scrubbing controller leaves behind: every issued DRAM command (a
 * count and an FNV-1a digest of cycle, type, flat bank and row, in issue
 * order), the RAS counters, and the scan schedule.
 */
struct ScrubRun {
    std::uint64_t commands = 0;
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    RasStats ras;
    oracle::ScanSchedule schedule;
};

void
MixDigest(std::uint64_t& digest, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        digest ^= (value >> (8 * byte)) & 0xff;
        digest *= 0x100000001b3ULL;
    }
}

ScrubRun
Summarize(const obs::Tracer& tracer, const Controller& controller)
{
    EXPECT_EQ(tracer.dropped(), 0u);
    ScrubRun run;
    for (const obs::TraceEvent& event : tracer.Snapshot()) {
        if (event.kind != obs::EventKind::kCommand) {
            continue;
        }
        run.commands += 1;
        MixDigest(run.digest, event.cycle);
        MixDigest(run.digest, event.a);
        MixDigest(run.digest, event.bank);
        MixDigest(run.digest, event.b);
    }
    run.ras = controller.ras()->stats();
    run.schedule += controller;
    return run;
}

void
ExpectRun(const ScrubRun& run, const ScrubRun& expected)
{
    EXPECT_EQ(run.commands, expected.commands);
    EXPECT_EQ(run.digest, expected.digest);
    EXPECT_EQ(run.ras.corrected, expected.ras.corrected);
    EXPECT_EQ(run.ras.uncorrectable, expected.ras.uncorrectable);
    EXPECT_EQ(run.ras.retries, expected.ras.retries);
    EXPECT_EQ(run.ras.rows_retired, expected.ras.rows_retired);
    EXPECT_EQ(run.ras.machine_checks, expected.ras.machine_checks);
    EXPECT_EQ(run.ras.scrub_reads, expected.ras.scrub_reads);
    EXPECT_EQ(run.ras.scrub_corrected, expected.ras.scrub_corrected);
    EXPECT_EQ(run.ras.scrub_uncorrectable, expected.ras.scrub_uncorrectable);
    EXPECT_EQ(run.schedule, expected.schedule);
}

/**
 * PAR-BS under the scan oracle, on DDR2 timing with refresh, with RAS
 * errors (transient, and stuck rows the remap table always has room for)
 * and a patrol scrub every @p interval cycles.  Seeded bursts of reads and
 * writes each drain and are followed by an idle stretch longer than the
 * interval, so the scrubber runs both beside demand traffic (demoted,
 * write-drained, refresh- and timing-blocked) and alone.
 */
ScrubRun
RunScrubbedBursts(DramCycle interval)
{
    ControllerConfig config = RasControllerConfig();
    config.ras.transient_error_rate = 0.02;
    config.ras.transient_uncorrectable = 0.5;
    config.ras.stuck_row_fraction = 0.03;
    config.ras.remap_capacity = 1u << 20;
    config.ras.scrub_interval = interval;
    config.write_queue_capacity = 16;
    config.write_drain_high = 12;
    config.write_drain_low = 4;
    SchedulerConfig scheduler;
    scheduler.kind = SchedulerKind::kParBs;
    oracle::CheckedHarness x(MakeScheduler(scheduler), config,
                             dram::TimingParams{});
    obs::Tracer tracer(1u << 18);
    x.h.controller().AttachObservability(&tracer, nullptr, 0);

    Rng rng(0x5c7b + interval);
    for (int burst = 0; burst < 40; ++burst) {
        const std::uint64_t size = 1 + rng.NextBelow(32);
        for (std::uint64_t i = 0; i < size; ++i) {
            const bool is_write = rng.NextBool(0.3);
            const Controller& controller = x.h.controller();
            if (is_write ? controller.CanAcceptWrite()
                         : controller.CanAcceptRead()) {
                x.h.Enqueue(static_cast<ThreadId>(rng.NextBelow(4)),
                            static_cast<std::uint32_t>(rng.NextBelow(8)),
                            static_cast<std::uint32_t>(rng.NextBelow(64)),
                            static_cast<std::uint32_t>(rng.NextBelow(32)),
                            is_write);
            }
            x.h.Tick(rng.NextBelow(3));
        }
        x.h.RunUntilIdle();
        x.h.Tick(interval + 1 + rng.NextBelow(interval + 512));
    }
    EXPECT_EQ(x.h.controller().pending_reads(), 0u);
    EXPECT_EQ(x.h.controller().pending_writes(), 0u);
    EXPECT_GT(x.oracle->picks_checked(), 0u);
    return Summarize(tracer, x.h.controller());
}

/**
 * The scrubber runs under the skip-ahead bound (DESIGN.md §6): a declining
 * scrub folds its clock or its command's EarliestIssue into the bound.
 * The commands and RAS counters below were recorded from a controller
 * that scanned every cycle while scrubbing, so a bound one cycle late, or
 * a skip window that outlives a scrub read's retirement, changes them;
 * the scan schedule pins how many of those cycles are now skipped.
 */
struct ScrubCase {
    DramCycle interval;
    ScrubRun expected;
};

void
PrintTo(const ScrubCase& scrub_case, std::ostream* out)
{
    *out << "interval " << scrub_case.interval;
}

class ScrubSkipAhead : public ::testing::TestWithParam<ScrubCase> {};

TEST_P(ScrubSkipAhead, MatchesThePerCycleScrubber)
{
    ExpectRun(RunScrubbedBursts(GetParam().interval), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Intervals, ScrubSkipAhead,
    ::testing::Values(
        ScrubCase{1,
                  {3735, 0xd8ba2653454252f1ULL,
                   {5, 31, 31, 34, 0, 506, 4, 27},
                   {7676, 8379, 2226, 2441, 85}}},
        ScrubCase{16,
                  {3496, 0x5930a3b24177b41dULL,
                   {4, 39, 39, 32, 0, 421, 3, 23},
                   {6689, 12610, 2194, 2432, 77}}},
        ScrubCase{512,
                  {2482, 0xb2c76fa5057414ffULL,
                   {7, 40, 40, 12, 0, 90, 2, 3},
                   {4567, 43280, 1964, 2351, 79}}}),
    [](const auto& info) {
        return "Every" + std::to_string(info.param.interval);
    });

TEST(Ras, ScrubberStopsOnceEveryRowIsRetired)
{
    // Eight rows, all stuck: the scrubber retires every one, after which
    // it declines for good and folds nothing into the bound, so idle
    // cycles are skipped again and demand traffic still reads the
    // remapped rows.
    ControllerConfig config = RasControllerConfig();
    config.ras.stuck_row_fraction = 1.0;
    config.ras.remap_capacity = 1u << 20;
    config.ras.scrub_interval = 8;
    dram::Geometry geometry = test::TestGeometry();
    geometry.banks_per_rank = 2;
    geometry.rows_per_bank = 4;
    oracle::CheckedHarness x(FrFcfs(), config, test::TestTiming(), 2,
                             geometry);
    obs::Tracer tracer(1u << 14);
    x.h.controller().AttachObservability(&tracer, nullptr, 0);
    x.h.Tick(1000);
    x.h.Enqueue(0, 1, 2);
    x.h.Enqueue(1, 0, 3, 0, /*is_write=*/true);
    x.h.RunUntilIdle();
    x.h.Tick(1000);
    EXPECT_EQ(x.h.completed().size(), 1u);
    EXPECT_EQ(x.h.controller().pending_writes(), 0u);
    ExpectRun(Summarize(tracer, x.h.controller()),
              {26, 0x227dcb0ad17a3948ULL,
               {0, 0, 0, 8, 0, 8, 0, 8},
               {62, 1962, 0, 4, 0}});
}

} // namespace
} // namespace parbs
