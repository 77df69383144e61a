/** @file Tests for the per-bank DRAM state machine and timing constraints. */

#include <gtest/gtest.h>

#include "dram/bank.hh"

namespace parbs::dram {
namespace {

class BankTest : public ::testing::Test {
  protected:
    TimingParams timing_;
    Bank bank_{timing_};

    Command
    Cmd(CommandType type, std::uint32_t row = 0)
    {
        return Command{type, 0, 0, row};
    }
};

TEST_F(BankTest, StartsClosed)
{
    EXPECT_FALSE(bank_.IsOpen());
    EXPECT_EQ(bank_.open_row(), kNoRow);
    EXPECT_EQ(bank_.open_since(), kNeverCycle);
}

TEST_F(BankTest, ClassifyClosedHitConflict)
{
    EXPECT_EQ(bank_.Classify(5), RowBufferState::kClosed);
    bank_.Issue(Cmd(CommandType::kActivate, 5), 0);
    EXPECT_EQ(bank_.Classify(5), RowBufferState::kHit);
    EXPECT_EQ(bank_.Classify(6), RowBufferState::kConflict);
}

TEST_F(BankTest, NextCommandPerState)
{
    EXPECT_EQ(bank_.NextCommandFor(3, false), CommandType::kActivate);
    bank_.Issue(Cmd(CommandType::kActivate, 3), 0);
    EXPECT_EQ(bank_.NextCommandFor(3, false), CommandType::kRead);
    EXPECT_EQ(bank_.NextCommandFor(3, true), CommandType::kWrite);
    EXPECT_EQ(bank_.NextCommandFor(4, false), CommandType::kPrecharge);
}

TEST_F(BankTest, TrcdGatesColumnAfterActivate)
{
    bank_.Issue(Cmd(CommandType::kActivate, 1), 10);
    EXPECT_EQ(bank_.EarliestIssue(CommandType::kRead), 10 + timing_.tRCD);
    EXPECT_EQ(bank_.EarliestIssue(CommandType::kWrite), 10 + timing_.tRCD);
}

TEST_F(BankTest, TrasGatesPrechargeAfterActivate)
{
    bank_.Issue(Cmd(CommandType::kActivate, 1), 0);
    EXPECT_EQ(bank_.EarliestIssue(CommandType::kPrecharge), timing_.tRAS);
}

TEST_F(BankTest, TrcGatesActivateToActivate)
{
    bank_.Issue(Cmd(CommandType::kActivate, 1), 0);
    bank_.Issue(Cmd(CommandType::kPrecharge), timing_.tRAS);
    // The next activate must respect both tRP (after PRE) and tRC (after
    // the previous ACT); with default timing tRC == tRAS + tRP binds.
    EXPECT_EQ(bank_.EarliestIssue(CommandType::kActivate), timing_.tRC());
}

TEST_F(BankTest, TrpGatesActivateAfterPrecharge)
{
    bank_.Issue(Cmd(CommandType::kActivate, 1), 0);
    const DramCycle pre_at = timing_.tRAS + 10;
    bank_.Issue(Cmd(CommandType::kPrecharge), pre_at);
    EXPECT_EQ(bank_.EarliestIssue(CommandType::kActivate),
              pre_at + timing_.tRP);
}

TEST_F(BankTest, TrtpGatesPrechargeAfterRead)
{
    bank_.Issue(Cmd(CommandType::kActivate, 1), 0);
    const DramCycle read_at = timing_.tRCD;
    bank_.Issue(Cmd(CommandType::kRead, 1), read_at);
    // tRAS (from ACT) and tRTP (from READ) both apply; tRAS dominates here.
    const DramCycle earliest =
        std::max(timing_.tRAS, read_at + timing_.tRTP);
    EXPECT_EQ(bank_.EarliestIssue(CommandType::kPrecharge), earliest);
}

TEST_F(BankTest, WriteRecoveryGatesPrecharge)
{
    bank_.Issue(Cmd(CommandType::kActivate, 1), 0);
    const DramCycle write_at = timing_.tRCD;
    bank_.Issue(Cmd(CommandType::kWrite, 1), write_at);
    const DramCycle earliest = std::max(
        timing_.tRAS,
        write_at + timing_.tCWD + timing_.tBURST + timing_.tWR);
    EXPECT_EQ(bank_.EarliestIssue(CommandType::kPrecharge), earliest);
}

TEST_F(BankTest, TccdGatesBackToBackColumns)
{
    bank_.Issue(Cmd(CommandType::kActivate, 1), 0);
    bank_.Issue(Cmd(CommandType::kRead, 1), timing_.tRCD);
    EXPECT_EQ(bank_.EarliestIssue(CommandType::kRead),
              timing_.tRCD + timing_.tCCD);
}

TEST_F(BankTest, OpenSinceTracksActivate)
{
    bank_.Issue(Cmd(CommandType::kActivate, 7), 42);
    EXPECT_EQ(bank_.open_since(), 42u);
    bank_.Issue(Cmd(CommandType::kPrecharge), 42 + timing_.tRAS);
    EXPECT_EQ(bank_.open_since(), kNeverCycle);
}

TEST_F(BankTest, BlockUntilDefersEverything)
{
    bank_.BlockUntil(100);
    EXPECT_EQ(bank_.EarliestIssue(CommandType::kActivate), 100u);
}

TEST_F(BankTest, ActivateOnOpenBankAborts)
{
    bank_.Issue(Cmd(CommandType::kActivate, 1), 0);
    EXPECT_DEATH(bank_.Issue(Cmd(CommandType::kActivate, 2),
                             timing_.tRC()),
                 "open row");
}

TEST_F(BankTest, ReadWrongRowAborts)
{
    bank_.Issue(Cmd(CommandType::kActivate, 1), 0);
    EXPECT_DEATH(bank_.Issue(Cmd(CommandType::kRead, 2), timing_.tRCD),
                 "matching open row");
}

TEST_F(BankTest, PrechargeClosedBankAborts)
{
    EXPECT_DEATH(bank_.Issue(Cmd(CommandType::kPrecharge), 0),
                 "already-closed");
}

TEST_F(BankTest, EarlyIssueAborts)
{
    bank_.Issue(Cmd(CommandType::kActivate, 1), 0);
    EXPECT_DEATH(bank_.Issue(Cmd(CommandType::kRead, 1),
                             timing_.tRCD - 1),
                 "timing violation");
}

TEST(BankLatency, PaperTableTwoLatencies)
{
    // Table 2 / Section 3: hit = tCL, closed = tRCD + tCL,
    // conflict = tRP + tRCD + tCL (15/30/45 ns at DDR2-800: 6/12/18).
    TimingParams t;
    EXPECT_EQ(t.HitLatency(), 6u);
    EXPECT_EQ(t.ClosedLatency(), 12u);
    EXPECT_EQ(t.ConflictLatency(), 18u);
}

} // namespace
} // namespace parbs::dram
