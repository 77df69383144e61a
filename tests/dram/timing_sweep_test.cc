/** @file Parameterized sweeps over DRAM timing values: the bank/rank state
 *  machines must honour whatever constraints they are configured with, not
 *  just the DDR2-800 defaults. */

#include <gtest/gtest.h>

#include "dram/channel.hh"

namespace parbs::dram {
namespace {

/** (tCL, tRCD, tRP, tRAS) tuples covering slow and fast devices. */
using TimingTuple =
    std::tuple<DramCycle, DramCycle, DramCycle, DramCycle>;

class TimingSweep : public ::testing::TestWithParam<TimingTuple> {
  protected:
    TimingParams
    Params() const
    {
        TimingParams t;
        std::tie(t.tCL, t.tRCD, t.tRP, t.tRAS) = GetParam();
        return t;
    }
};

INSTANTIATE_TEST_SUITE_P(
    Devices, TimingSweep,
    ::testing::Values(TimingTuple{3, 3, 3, 9},    // fast DDR-ish
                      TimingTuple{6, 6, 6, 18},   // DDR2-800 baseline
                      TimingTuple{7, 7, 7, 21},   // DDR2-1066-ish
                      TimingTuple{11, 11, 11, 28} // DDR3-1600-ish
                      ));

TEST_P(TimingSweep, ReadLatencyFollowsConfiguredValues)
{
    const TimingParams t = Params();
    Bank bank(t);
    bank.Issue({CommandType::kActivate, 0, 0, 1}, 0);
    EXPECT_EQ(bank.EarliestIssue(CommandType::kRead), t.tRCD);
}

TEST_P(TimingSweep, RowCycleFollowsConfiguredValues)
{
    const TimingParams t = Params();
    Bank bank(t);
    bank.Issue({CommandType::kActivate, 0, 0, 1}, 0);
    bank.Issue({CommandType::kPrecharge, 0, 0, 0}, t.tRAS);
    EXPECT_EQ(bank.EarliestIssue(CommandType::kActivate), t.tRC());
}

TEST_P(TimingSweep, DerivedLatenciesAreConsistent)
{
    const TimingParams t = Params();
    EXPECT_EQ(t.HitLatency(), t.tCL);
    EXPECT_EQ(t.ClosedLatency(), t.tRCD + t.tCL);
    EXPECT_EQ(t.ConflictLatency(), t.tRP + t.tRCD + t.tCL);
    EXPECT_LT(t.HitLatency(), t.ClosedLatency());
    EXPECT_LT(t.ClosedLatency(), t.ConflictLatency());
    EXPECT_NO_THROW(t.Validate());
}

TEST_P(TimingSweep, EndToEndRequestLegality)
{
    // Drive a full conflict sequence through a channel: every command's
    // earliest cycle is the one the configured values give, and issuing
    // it there passes the protocol checker.
    const TimingParams t = Params();
    Geometry geometry;
    geometry.rows_per_bank = 1024;
    Channel channel(t, geometry);
    channel.EnableProtocolCheck();

    channel.Issue({CommandType::kActivate, 0, 0, 1}, 0);
    const DramCycle read_at = t.tRCD;
    ASSERT_EQ(channel.EarliestIssue({CommandType::kRead, 0, 0, 1}),
              read_at);
    channel.Issue({CommandType::kRead, 0, 0, 1}, read_at);

    const DramCycle pre_at = std::max(t.tRAS, read_at + t.tRTP);
    ASSERT_EQ(channel.EarliestIssue({CommandType::kPrecharge, 0, 0, 0}),
              pre_at);
    channel.Issue({CommandType::kPrecharge, 0, 0, 0}, pre_at);

    const DramCycle act_at = std::max(pre_at + t.tRP, t.tRC());
    ASSERT_EQ(channel.EarliestIssue({CommandType::kActivate, 0, 0, 2}),
              act_at);
    channel.Issue({CommandType::kActivate, 0, 0, 2}, act_at);
    EXPECT_EQ(channel.protocol_checker()->commands_checked(), 4u);
}

/** Sweep the CPU:DRAM ratio used by the round-trip accounting. */
class BurstSweep : public ::testing::TestWithParam<DramCycle> {};

INSTANTIATE_TEST_SUITE_P(Bursts, BurstSweep,
                         ::testing::Values(2u, 4u, 8u));

TEST_P(BurstSweep, BusOccupancyScalesWithBurstLength)
{
    TimingParams t;
    t.tBURST = GetParam();
    Geometry geometry;
    geometry.rows_per_bank = 1024;
    Channel channel(t, geometry);
    channel.Issue({CommandType::kActivate, 0, 0, 1}, 0);
    channel.Issue({CommandType::kActivate, 0, 1, 1}, t.tRRD);
    const DramCycle first = t.tRCD;
    const DramCycle done = channel.Issue({CommandType::kRead, 0, 0, 1},
                                         first);
    EXPECT_EQ(done, first + t.tCL + t.tBURST);
    // The second read's burst may start exactly when the first ends — but
    // it must also respect its own bank's tRCD (binding for short bursts).
    const DramCycle second_ok =
        std::max(done - t.tCL, t.tRRD + t.tRCD);
    EXPECT_EQ(channel.EarliestIssue({CommandType::kRead, 0, 1, 1}),
              second_ok);
}

} // namespace
} // namespace parbs::dram
