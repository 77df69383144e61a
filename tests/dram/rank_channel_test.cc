/** @file Tests for rank-level constraints, refresh, and the channel buses. */

#include <gtest/gtest.h>

#include "common/assert.hh"
#include "dram/channel.hh"

namespace parbs::dram {
namespace {

Command
Act(std::uint32_t bank, std::uint32_t row = 0, std::uint32_t rank = 0)
{
    return Command{CommandType::kActivate, rank, bank, row};
}

Command
Read(std::uint32_t bank, std::uint32_t row = 0, std::uint32_t rank = 0)
{
    return Command{CommandType::kRead, rank, bank, row};
}

Command
Write(std::uint32_t bank, std::uint32_t row = 0, std::uint32_t rank = 0)
{
    return Command{CommandType::kWrite, rank, bank, row};
}

class RankTest : public ::testing::Test {
  protected:
    TimingParams timing_;
    Rank rank_{timing_, 8};
};

TEST_F(RankTest, TrrdGatesActivatesAcrossBanks)
{
    rank_.Issue(Act(0), 0);
    EXPECT_EQ(rank_.EarliestIssue(Act(1)), timing_.tRRD);
}

TEST_F(RankTest, TfawLimitsFourActivates)
{
    // Four activates spaced at tRRD; the fifth must wait for the tFAW
    // window measured from the first.
    DramCycle t = 0;
    for (std::uint32_t bank = 0; bank < 4; ++bank) {
        rank_.Issue(Act(bank), t);
        t += timing_.tRRD;
    }
    ASSERT_LT(t, timing_.tFAW);
    EXPECT_EQ(rank_.EarliestIssue(Act(4)), timing_.tFAW);
}

TEST_F(RankTest, TwtrGatesReadAfterWrite)
{
    rank_.Issue(Act(0), 0);
    rank_.Issue(Act(1), timing_.tRRD);
    const DramCycle write_at = timing_.tRCD;
    rank_.Issue(Write(0), write_at);
    const DramCycle earliest =
        write_at + timing_.tCWD + timing_.tBURST + timing_.tWTR;
    // Read to a *different* bank still gated by the rank-level tWTR.
    EXPECT_EQ(rank_.EarliestIssue(Read(1)), earliest);
}

TEST_F(RankTest, RefreshDueAfterTrefi)
{
    EXPECT_FALSE(rank_.RefreshDue(timing_.tREFI - 1));
    EXPECT_TRUE(rank_.RefreshDue(timing_.tREFI));
}

TEST_F(RankTest, RefreshRequiresAllBanksClosed)
{
    rank_.Issue(Act(2), 0);
    const DramCycle due = timing_.tREFI;
    EXPECT_FALSE(rank_.CanRefresh(due));
    EXPECT_EQ(rank_.OpenBanks(), std::vector<std::uint32_t>{2});
    rank_.Issue(Command{CommandType::kPrecharge, 0, 2, 0}, timing_.tRAS);
    EXPECT_TRUE(rank_.CanRefresh(due + timing_.tRP));
}

TEST_F(RankTest, RefreshBlocksBanksForTrfc)
{
    const DramCycle due = timing_.tREFI;
    rank_.Issue(Command{CommandType::kRefresh, 0, 0, 0}, due);
    EXPECT_EQ(rank_.EarliestIssue(Act(0)), due + timing_.tRFC);
    // The next refresh is scheduled one interval later.
    EXPECT_EQ(rank_.next_refresh_due(), 2 * timing_.tREFI);
}

TEST(RankDisabledRefresh, NeverDue)
{
    TimingParams timing;
    timing.tREFI = 0;
    Rank rank(timing, 4);
    EXPECT_FALSE(rank.RefreshDue(1u << 30));
}

class ChannelTest : public ::testing::Test {
  protected:
    TimingParams timing_;
    Geometry geometry_ = [] {
        Geometry g;
        g.channels = 1;
        g.ranks_per_channel = 1;
        g.banks_per_rank = 8;
        g.rows_per_bank = 1024;
        return g;
    }();
    Channel channel_{timing_, geometry_};
};

TEST_F(ChannelTest, ReadReturnsDataAtTclPlusBurst)
{
    channel_.Issue(Act(0, 1), 0);
    const DramCycle read_at = timing_.tRCD;
    const DramCycle done = channel_.Issue(Read(0, 1), read_at);
    EXPECT_EQ(done, read_at + timing_.tCL + timing_.tBURST);
}

TEST_F(ChannelTest, WriteCompletesAtTcwdPlusBurst)
{
    channel_.Issue(Act(0, 1), 0);
    const DramCycle write_at = timing_.tRCD;
    const DramCycle done = channel_.Issue(Write(0, 1), write_at);
    EXPECT_EQ(done, write_at + timing_.tCWD + timing_.tBURST);
}

TEST_F(ChannelTest, DataBusSerializesBurstsAcrossBanks)
{
    channel_.Issue(Act(0, 1), 0);
    channel_.Issue(Act(1, 1), timing_.tRRD);
    const DramCycle first_read = timing_.tRCD;
    channel_.Issue(Read(0, 1), first_read);
    const DramCycle bus_free = first_read + timing_.tCL + timing_.tBURST;
    // A second read whose burst would overlap the first must wait until
    // its data start clears the bus (later than its own bank's tRCD).
    ASSERT_LT(timing_.tRRD + timing_.tRCD, bus_free - timing_.tCL);
    EXPECT_EQ(channel_.EarliestIssue(Read(1, 1)), bus_free - timing_.tCL);
}

TEST_F(ChannelTest, NonColumnCommandsIgnoreDataBus)
{
    channel_.Issue(Act(0, 1), 0);
    channel_.Issue(Read(0, 1), timing_.tRCD);
    // An activate to another bank can issue while the burst is in flight:
    // only the rank's tRRD holds it.
    EXPECT_EQ(channel_.EarliestIssue(Act(1, 1)), timing_.tRRD);
    EXPECT_LT(timing_.tRRD, channel_.bus_free_at());
}

TEST_F(ChannelTest, InvalidGeometryRejected)
{
    Geometry bad = geometry_;
    bad.banks_per_rank = 0;
    EXPECT_THROW(Channel(timing_, bad), ConfigError);

    Geometry not_pow2 = geometry_;
    not_pow2.rows_per_bank = 1000;
    EXPECT_THROW(Channel(timing_, not_pow2), ConfigError);
}

TEST_F(ChannelTest, InvalidTimingRejected)
{
    TimingParams bad;
    bad.tRAS = 2; // Below tRCD.
    EXPECT_THROW(Channel(bad, geometry_), ConfigError);

    TimingParams bad2;
    bad2.tCL = 0;
    EXPECT_THROW(Channel(bad2, geometry_), ConfigError);

    TimingParams bad3;
    bad3.tRFC = bad3.tREFI + 1;
    EXPECT_THROW(Channel(bad3, geometry_), ConfigError);
}

TEST(MultiRankChannel, RanksAreIndependentForActivates)
{
    TimingParams timing;
    Geometry geometry;
    geometry.ranks_per_channel = 2;
    Channel channel(timing, geometry);
    channel.Issue(Act(0, 1, 0), 0);
    // tRRD is per rank: the other rank can activate at once.
    EXPECT_EQ(channel.EarliestIssue(Act(0, 1, 1)), 0u);
}

TEST(GeometryHelpers, DerivedQuantities)
{
    Geometry g;
    g.channels = 2;
    g.ranks_per_channel = 1;
    g.banks_per_rank = 8;
    g.row_bytes = 2048;
    g.line_bytes = 64;
    EXPECT_EQ(g.LinesPerRow(), 32u);
    EXPECT_EQ(g.TotalBanks(), 16u);
}

} // namespace
} // namespace parbs::dram
