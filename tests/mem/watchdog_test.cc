/** @file Tests for the forward-progress watchdog. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "common/assert.hh"
#include "fault/fault_injector.hh"
#include "mem/watchdog.hh"
#include "obs/latency.hh"
#include "obs/tracer.hh"
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

std::unique_ptr<Scheduler>
ParBs()
{
    SchedulerConfig config;
    config.kind = SchedulerKind::kParBs;
    return MakeScheduler(config);
}

TEST(WatchdogConfig, ValidateRejectsNonsense)
{
    WatchdogConfig config;
    config.enabled = true;
    config.check_interval = 0;
    EXPECT_THROW(config.Validate(), ConfigError);

    config = WatchdogConfig{};
    config.enabled = true;
    config.batch_bound_factor = -1.0;
    EXPECT_THROW(config.Validate(), ConfigError);

    // A disabled watchdog's knobs are never consulted.
    config = WatchdogConfig{};
    config.enabled = false;
    config.check_interval = 0;
    EXPECT_NO_THROW(config.Validate());
}

TEST(Watchdog, DerivesDocumentedDefaultBounds)
{
    WatchdogConfig config;
    config.enabled = true;
    const dram::TimingParams timing;
    ForwardProgressWatchdog watchdog(config, timing, 128);
    // 4 x queue capacity x (tRC + tBURST).
    EXPECT_EQ(watchdog.starvation_bound(),
              4 * 128 * (timing.tRC() + timing.tBURST));
    // max(512, 4 x (tRFC + tRC)).
    EXPECT_EQ(watchdog.no_progress_bound(),
              std::max<DramCycle>(512, 4 * (timing.tRFC + timing.tRC())));
}

TEST(Watchdog, ExplicitBoundsWin)
{
    WatchdogConfig config;
    config.enabled = true;
    config.starvation_bound = 777;
    config.no_progress_bound = 999;
    const dram::TimingParams timing;
    ForwardProgressWatchdog watchdog(config, timing, 128);
    EXPECT_EQ(watchdog.starvation_bound(), 777u);
    EXPECT_EQ(watchdog.no_progress_bound(), 999u);
    EXPECT_EQ(ResolveNoProgressBound(config, timing), 999u);
}

TEST(Watchdog, CleanRunDoesNotTrip)
{
    ControllerConfig config = test::ControllerHarness::DefaultConfig();
    config.watchdog.enabled = true;
    test::ControllerHarness harness(ParBs(), 4, config);
    for (std::uint32_t i = 0; i < 100; ++i) {
        harness.Enqueue(i % 4, i % 8, (i * 3) % 64, i % 16,
                        /*is_write=*/(i % 7) == 0);
        if (i % 2 == 0) {
            harness.Tick(3);
        }
    }
    EXPECT_NO_THROW(harness.RunUntilIdle());
    EXPECT_EQ(harness.controller().pending_reads(), 0u);
}

TEST(Watchdog, CatchesRequestStarvation)
{
    // A buggy scheduler withholds service from thread 0 while thread 1's
    // traffic keeps the channel busy: the victim's request ages past the
    // bound and the watchdog must fail the run with a diagnostic dump.
    ControllerConfig config = test::ControllerHarness::DefaultConfig();
    config.watchdog.enabled = true;
    config.watchdog.starvation_bound = 1500;
    test::ControllerHarness harness(
        std::make_unique<WithholdingScheduler>(FrFcfs(), 0), 2, config);
    harness.Enqueue(0, 0, 1); // the victim
    try {
        for (std::uint32_t i = 0; i < 4000; ++i) {
            if (i % 16 == 0) {
                harness.Enqueue(1, i % 8, (i / 16) % 32);
            }
            harness.Tick();
        }
        FAIL() << "expected WatchdogError";
    } catch (const WatchdogError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("request starvation"), std::string::npos)
            << what;
        EXPECT_NE(what.find("thread=0"), std::string::npos) << what;
        // The dump carries enough context to debug from the message alone.
        EXPECT_NE(what.find("controller diagnostics"), std::string::npos);
        EXPECT_NE(what.find("bank states"), std::string::npos);
        EXPECT_NE(what.find("scheduler"), std::string::npos);
    }
}

TEST(Watchdog, CatchesNoForwardProgress)
{
    // Only the victim has traffic, so the withholding scheduler issues no
    // command at all: the no-progress detector trips first.
    ControllerConfig config = test::ControllerHarness::DefaultConfig();
    config.watchdog.enabled = true;
    test::ControllerHarness harness(
        std::make_unique<WithholdingScheduler>(FrFcfs(), 0), 2, config);
    harness.Enqueue(0, 0, 1);
    try {
        harness.Tick(4000);
        FAIL() << "expected WatchdogError";
    } catch (const WatchdogError& error) {
        EXPECT_NE(std::string(error.what()).find("no forward progress"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Watchdog, StallDumpCarriesTraceTail)
{
    // With a tracer attached, a watchdog failure appends the recent ring
    // events relevant to the stall — here the no-progress case, whose
    // wildcard filter shows everything, including the victim's arrival.
    ControllerConfig config = test::ControllerHarness::DefaultConfig();
    config.watchdog.enabled = true;
    test::ControllerHarness harness(
        std::make_unique<WithholdingScheduler>(FrFcfs(), 0), 2, config);
    obs::Tracer tracer(1024);
    obs::LatencyAnatomy latency(2);
    harness.controller().AttachObservability(&tracer, &latency, 0);
    harness.Enqueue(0, 0, 1);
    try {
        harness.Tick(4000);
        FAIL() << "expected WatchdogError";
    } catch (const WatchdogError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("recent trace events"), std::string::npos)
            << what;
        EXPECT_NE(what.find("req-arrive"), std::string::npos) << what;
    }
}

TEST(Watchdog, StallDumpOmittedWithoutTracer)
{
    // The pre-observability failure text is unchanged when no tracer is
    // attached (the default).
    ControllerConfig config = test::ControllerHarness::DefaultConfig();
    config.watchdog.enabled = true;
    test::ControllerHarness harness(
        std::make_unique<WithholdingScheduler>(FrFcfs(), 0), 2, config);
    harness.Enqueue(0, 0, 1);
    try {
        harness.Tick(4000);
        FAIL() << "expected WatchdogError";
    } catch (const WatchdogError& error) {
        EXPECT_EQ(std::string(error.what()).find("recent trace events"),
                  std::string::npos);
    }
}

TEST(Watchdog, CatchesBatchNonCompletion)
{
    // PAR-BS marks the victim's requests into a batch; withholding service
    // then violates the paper's starvation-freedom theorem, which the
    // batch-completion bound checks at runtime.  Other bounds are pushed
    // out of the way so the batch check is the one that fires.
    ControllerConfig config = test::ControllerHarness::DefaultConfig();
    config.watchdog.enabled = true;
    config.watchdog.starvation_bound = 1000000000;
    config.watchdog.no_progress_bound = 1000000000;
    config.watchdog.batch_bound_factor = 1.0;
    test::ControllerHarness harness(
        std::make_unique<WithholdingScheduler>(ParBs(), 0), 2, config);
    for (std::uint32_t i = 0; i < 4; ++i) {
        harness.Enqueue(0, i, 5);
    }
    try {
        harness.Tick(20000);
        FAIL() << "expected WatchdogError";
    } catch (const WatchdogError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("batch overdue"), std::string::npos) << what;
        EXPECT_NE(what.find("starvation-freedom"), std::string::npos)
            << what;
    }
}

} // namespace
} // namespace parbs
