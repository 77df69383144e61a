/** @file Tests for the independent DRAM protocol checker (shadow model). */

#include <gtest/gtest.h>

#include <string>

#include "dram/protocol_checker.hh"
#include "sched/factory.hh"
#include "test_util.hh"

namespace parbs::dram {
namespace {

TimingParams
T()
{
    return TimingParams{};
}

ProtocolChecker
RecordingChecker()
{
    return ProtocolChecker(T(), 1, 8, ProtocolChecker::Mode::kRecord);
}

Command
Act(std::uint32_t bank, std::uint32_t row)
{
    return Command{CommandType::kActivate, 0, bank, row};
}

Command
Pre(std::uint32_t bank)
{
    return Command{CommandType::kPrecharge, 0, bank, 0};
}

Command
Rd(std::uint32_t bank, std::uint32_t row)
{
    return Command{CommandType::kRead, 0, bank, row};
}

Command
Wr(std::uint32_t bank, std::uint32_t row)
{
    return Command{CommandType::kWrite, 0, bank, row};
}

TEST(ProtocolChecker, AcceptsLegalSequence)
{
    ProtocolChecker checker = RecordingChecker();
    const TimingParams t = T();
    // ACT -> RD -> PRE -> ACT, all at their legal minimum distances.
    checker.Observe(Act(0, 5), 0);
    checker.Observe(Rd(0, 5), t.tRCD);
    checker.Observe(Pre(0), t.tRAS);
    checker.Observe(Act(0, 6), t.tRAS + t.tRP);
    // Parallel activity in another bank respecting tRRD.
    checker.Observe(Act(1, 9), t.tRAS + t.tRP + t.tRRD);
    EXPECT_TRUE(checker.violations().empty());
    EXPECT_EQ(checker.commands_checked(), 5u);
}

TEST(ProtocolChecker, CatchesActivateToOpenBank)
{
    ProtocolChecker checker = RecordingChecker();
    checker.Observe(Act(0, 5), 0);
    checker.Observe(Act(0, 6), 100);
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations()[0].rule, "ACT-open-row");
}

TEST(ProtocolChecker, CatchesShortTrp)
{
    ProtocolChecker checker = RecordingChecker();
    const TimingParams t = T();
    // Precharge late enough that tRC is satisfied and only tRP binds.
    checker.Observe(Act(0, 5), 0);
    checker.Observe(Rd(0, 5), t.tRCD);
    checker.Observe(Pre(0), t.tRC() + 6);
    checker.Observe(Act(0, 6), t.tRC() + 6 + t.tRP - 1);
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations()[0].rule, "tRP");
}

TEST(ProtocolChecker, CatchesShortTras)
{
    ProtocolChecker checker = RecordingChecker();
    const TimingParams t = T();
    checker.Observe(Act(0, 5), 0);
    checker.Observe(Pre(0), t.tRAS - 1);
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations()[0].rule, "tRAS");
}

TEST(ProtocolChecker, CatchesShortTrcd)
{
    ProtocolChecker checker = RecordingChecker();
    const TimingParams t = T();
    checker.Observe(Act(0, 5), 0);
    checker.Observe(Rd(0, 5), t.tRCD - 1);
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations()[0].rule, "tRCD");
}

TEST(ProtocolChecker, CatchesRowMismatchAndClosedColumn)
{
    ProtocolChecker checker = RecordingChecker();
    const TimingParams t = T();
    checker.Observe(Rd(0, 5), t.tWTR); // nothing open
    checker.Observe(Act(1, 5), t.tWTR + 10);
    checker.Observe(Rd(1, 6), t.tWTR + 30); // wrong row
    ASSERT_EQ(checker.violations().size(), 2u);
    EXPECT_EQ(checker.violations()[0].rule, "column-closed");
    EXPECT_EQ(checker.violations()[1].rule, "row-mismatch");
}

TEST(ProtocolChecker, CatchesShortTrrd)
{
    ProtocolChecker checker = RecordingChecker();
    const TimingParams t = T();
    checker.Observe(Act(0, 5), 0);
    checker.Observe(Act(1, 5), t.tRRD - 1);
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations()[0].rule, "tRRD");
}

TEST(ProtocolChecker, CatchesFiveActivatesInFawWindow)
{
    ProtocolChecker checker = RecordingChecker();
    const TimingParams t = T();
    // Four ACTs at the legal tRRD pace, fifth inside the tFAW window.
    DramCycle now = 0;
    for (std::uint32_t bank = 0; bank < 4; ++bank) {
        checker.Observe(Act(bank, 1), now);
        now += t.tRRD;
    }
    ASSERT_TRUE(checker.violations().empty());
    ASSERT_LT(now, t.tFAW); // the fifth would be inside the window
    checker.Observe(Act(4, 1), now);
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations()[0].rule, "tFAW");
}

TEST(ProtocolChecker, CatchesShortWriteRecovery)
{
    ProtocolChecker checker = RecordingChecker();
    const TimingParams t = T();
    checker.Observe(Act(0, 5), 0);
    checker.Observe(Wr(0, 5), t.tRCD);
    const DramCycle recovery_end = t.tRCD + t.tCWD + t.tBURST + t.tWR;
    checker.Observe(Pre(0), recovery_end - 1);
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations()[0].rule, "tWR");
}

TEST(ProtocolChecker, CatchesShortWriteToReadTurnaround)
{
    ProtocolChecker checker = RecordingChecker();
    const TimingParams t = T();
    checker.Observe(Act(0, 5), 0);
    checker.Observe(Act(1, 7), t.tRRD);
    const DramCycle wr_at = 2 * t.tRCD;
    checker.Observe(Wr(0, 5), wr_at);
    // READ in the other bank before the rank-wide turnaround completes.
    const DramCycle burst_end = wr_at + t.tCWD + t.tBURST;
    checker.Observe(Rd(1, 7), burst_end + t.tWTR - 1);
    ASSERT_GE(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations()[0].rule, "tWTR");
}

TEST(ProtocolChecker, CatchesShortReadToPrecharge)
{
    ProtocolChecker checker = RecordingChecker();
    const TimingParams t = T();
    checker.Observe(Act(0, 5), 0);
    // Late read so tRTP (not tRAS) is the binding constraint.
    const DramCycle rd_at = t.tRAS + 10;
    checker.Observe(Rd(0, 5), rd_at);
    checker.Observe(Pre(0), rd_at + t.tRTP - 1);
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations()[0].rule, "tRTP");
}

TEST(ProtocolChecker, CatchesDataBusOverlap)
{
    ProtocolChecker checker = RecordingChecker();
    const TimingParams t = T();
    checker.Observe(Act(0, 5), 0);
    checker.Observe(Act(1, 7), t.tRRD);
    const DramCycle first_rd = 2 * t.tRCD;
    checker.Observe(Rd(0, 5), first_rd);
    // Second read whose data would overlap the first burst.
    checker.Observe(Rd(1, 7), first_rd + t.tBURST - 1);
    ASSERT_GE(checker.violations().size(), 1u);
    bool found = false;
    for (const ProtocolViolation& violation : checker.violations()) {
        found = found || violation.rule == "data-bus";
    }
    EXPECT_TRUE(found);
}

TEST(ProtocolChecker, CatchesPrechargeOfClosedBank)
{
    ProtocolChecker checker = RecordingChecker();
    checker.Observe(Pre(3), 0);
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations()[0].rule, "PRE-closed");
}

TEST(ProtocolChecker, CatchesRefreshWithOpenBank)
{
    ProtocolChecker checker = RecordingChecker();
    checker.Observe(Act(0, 5), 0);
    checker.Observe(Command{CommandType::kRefresh, 0, 0, 0}, 100);
    ASSERT_GE(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations()[0].rule, "REF-open-bank");
}

TEST(ProtocolChecker, CatchesCommandDuringRefresh)
{
    ProtocolChecker checker = RecordingChecker();
    const TimingParams t = T();
    checker.Observe(Command{CommandType::kRefresh, 0, 0, 0}, 0);
    checker.Observe(Act(0, 5), t.tRFC - 1);
    ASSERT_GE(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations()[0].rule, "tRFC");
}

TEST(ProtocolChecker, CatchesRefreshStarvation)
{
    ProtocolChecker checker = RecordingChecker();
    const TimingParams t = T();
    checker.Observe(Act(0, 5), 9 * t.tREFI + 1);
    ASSERT_GE(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations()[0].rule, "tREFI");
}

TEST(ProtocolChecker, CatchesOutOfRangeOperands)
{
    ProtocolChecker checker = RecordingChecker();
    checker.Observe(Act(0, 5), 0);
    checker.Observe(Command{CommandType::kActivate, 7, 0, 5}, 100);
    checker.Observe(Command{CommandType::kActivate, 0, 99, 5}, 200);
    ASSERT_EQ(checker.violations().size(), 2u);
    EXPECT_EQ(checker.violations()[0].rule, "rank-range");
    EXPECT_EQ(checker.violations()[1].rule, "bank-range");
}

TEST(ProtocolChecker, ThrowModeRaisesWithContext)
{
    ProtocolChecker checker(T(), 1, 8, ProtocolChecker::Mode::kThrow);
    checker.Observe(Act(0, 5), 0);
    try {
        checker.Observe(Act(0, 6), 100);
        FAIL() << "expected ProtocolError";
    } catch (const ProtocolError& error) {
        const std::string what = error.what();
        // The report names the rule, the shadow state, and the history.
        EXPECT_NE(what.find("ACT-open-row"), std::string::npos) << what;
        EXPECT_NE(what.find("shadow state"), std::string::npos) << what;
        EXPECT_NE(what.find("commands (oldest first)"), std::string::npos)
            << what;
    }
    // The violation is recorded even in throw mode.
    EXPECT_EQ(checker.violations().size(), 1u);
}

TEST(ProtocolChecker, TimeOrderViolation)
{
    ProtocolChecker checker = RecordingChecker();
    checker.Observe(Act(0, 5), 100);
    checker.Observe(Pre(0), 99);
    ASSERT_GE(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations()[0].rule, "time-order");
}

// --- Integration: the real controller under the checker ------------------

TEST(ProtocolChecker, ControllerWorkloadIsViolationFree)
{
    // Drive the full controller (with refresh) through a mixed workload:
    // the shadow model must agree with the FSMs on every command.
    ControllerConfig config;
    config.protocol_check = true;
    SchedulerConfig sched;
    sched.kind = SchedulerKind::kParBs;
    test::ControllerHarness harness(MakeScheduler(sched), 4, config,
                                    TimingParams{});
    for (std::uint32_t i = 0; i < 200; ++i) {
        harness.Enqueue(i % 4, i % 8, (i * 7) % 32, i % 16,
                        /*is_write=*/(i % 5) == 0);
        if (i % 3 == 0) {
            harness.Tick(5);
        }
    }
    harness.RunUntilIdle();
    const dram::ProtocolChecker* checker =
        harness.controller().protocol_checker();
    ASSERT_NE(checker, nullptr);
    EXPECT_TRUE(checker->violations().empty());
    // Every request needs at least its column command.
    EXPECT_GE(checker->commands_checked(), 200u);
}

TEST(ProtocolChecker, SeededTrpCorruptionIsCaught)
{
    // The fault-injection seam: device FSMs run with a skipped tRP while
    // the checker validates against the true reference timing.
    dram::TimingParams corrupted = test::TestTiming();
    corrupted.tRP = 2;
    test::ControllerHarness harness(
        MakeScheduler(SchedulerConfig{}), 2,
        test::ControllerHarness::DefaultConfig(), corrupted);
    harness.controller().EnableProtocolCheck(dram::TimingParams{});
    EXPECT_THROW(
        {
            for (int i = 0; i < 12; ++i) {
                harness.Enqueue(0, 2, (i % 2) != 0 ? 5 : 9);
            }
            harness.RunUntilIdle();
        },
        dram::ProtocolError);
}

} // namespace
} // namespace parbs::dram
