/**
 * @file
 * Property test for Channel::EarliestIssue, the one timing rule: CanIssue
 * reads it, and the controller's bank prefilter and skip-ahead bound rest
 * on it (DESIGN.md §5d–§5e).  Random legal command streams — ACT, PRE,
 * RD, WR, and REF once due — drive a protocol-checked Channel.  It guards
 * two facts.  Monotonicity: on every cycle, for every (rank, bank) and
 * non-refresh command type, EarliestIssue never decreases.  Legality:
 * about half the cycles issue a command exactly at its EarliestIssue, and
 * the protocol checker, an independent model of the same constraints,
 * accepts every one.  (That the rule is not later than it need be is
 * pinned per constraint by the bank, rank/channel and timing-sweep tests.)
 */

#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dram/channel.hh"
#include "test_util.hh"

namespace parbs::dram {
namespace {

constexpr CommandType kProbedTypes[] = {
    CommandType::kActivate, CommandType::kPrecharge, CommandType::kRead,
    CommandType::kWrite};

/** A command the protocol allows in @p bank's row-buffer state (timing
 *  aside): ACT to a random row when closed; RD, WR to the open row or PRE
 *  when open. */
Command
StateLegalCommand(const Channel& channel, std::uint32_t rank,
                  std::uint32_t bank, Rng& rng)
{
    const Bank& state = channel.bank(rank, bank);
    if (!state.IsOpen()) {
        return {CommandType::kActivate, rank, bank,
                static_cast<std::uint32_t>(rng.NextBelow(64))};
    }
    constexpr CommandType kOpenTypes[] = {
        CommandType::kRead, CommandType::kWrite, CommandType::kPrecharge};
    return {kOpenTypes[rng.NextBelow(3)], rank, bank, state.open_row()};
}

/**
 * Picks this cycle's command, if any: a rank with a refresh due is
 * refreshed when it can be and otherwise quiesced (a random open bank
 * precharged); otherwise, half the time, one of @p due (state-legal
 * commands whose earliest cycle is now), else a random state-legal
 * command.  A few tries per cycle keep the command bus busy.  @return
 * false when nothing passes CanIssue.
 */
bool
PickCommand(const Channel& channel, DramCycle now, Rng& rng,
            const std::vector<Command>& due, Command& out)
{
    for (std::uint32_t r = 0; r < channel.num_ranks(); ++r) {
        const Rank& rank = channel.rank(r);
        if (!rank.RefreshDue(now)) {
            continue;
        }
        if (rank.CanRefresh(now)) {
            out = {CommandType::kRefresh, r, 0, 0};
            return true;
        }
        const std::vector<std::uint32_t> open = rank.OpenBanks();
        if (!open.empty()) {
            const std::uint32_t bank = open[rng.NextBelow(open.size())];
            out = {CommandType::kPrecharge, r, bank, 0};
            if (channel.CanIssue(out, now)) {
                return true;
            }
        }
    }
    if (!due.empty() && rng.NextBool(0.5)) {
        out = due[rng.NextBelow(due.size())];
        return true;
    }
    for (int attempt = 0; attempt < 4; ++attempt) {
        const auto rank =
            static_cast<std::uint32_t>(rng.NextBelow(channel.num_ranks()));
        if (channel.rank(rank).RefreshDue(now)) {
            continue;
        }
        const auto bank = static_cast<std::uint32_t>(
            rng.NextBelow(channel.rank(rank).num_banks()));
        out = StateLegalCommand(channel, rank, bank, rng);
        if (channel.CanIssue(out, now)) {
            return true;
        }
    }
    return false;
}

struct Shape {
    std::uint32_t ranks;
    std::uint32_t banks_per_rank;
};

/** Commands issued by type: all of them, and those issued exactly at
 *  their EarliestIssue (refresh has none). */
struct Issued {
    std::array<std::uint64_t, 5> all{};
    std::array<std::uint64_t, 5> at_earliest{};
};

/**
 * Runs @p cycles of random legal traffic on one protocol-checked channel,
 * checking monotonicity on every cycle (the checker throws on an illegal
 * command); @p issued counts the commands issued.
 */
void
DriveAndCheck(const TimingParams& timing, Shape shape, std::uint64_t seed,
              DramCycle cycles, Issued& issued)
{
    Geometry geometry = test::TestGeometry();
    geometry.ranks_per_channel = shape.ranks;
    geometry.banks_per_rank = shape.banks_per_rank;
    Channel channel(timing, geometry);
    channel.EnableProtocolCheck();
    Rng rng(seed);

    const std::size_t slots = static_cast<std::size_t>(shape.ranks) *
                              shape.banks_per_rank * std::size(kProbedTypes);
    std::vector<DramCycle> last(slots, 0);
    std::vector<Command> due;
    issued = {};
    for (DramCycle now = 0; now < cycles; ++now) {
        std::size_t slot = 0;
        due.clear();
        for (std::uint32_t r = 0; r < shape.ranks; ++r) {
            for (std::uint32_t b = 0; b < shape.banks_per_rank; ++b) {
                const Bank& state = channel.bank(r, b);
                for (CommandType type : kProbedTypes) {
                    const Command cmd{type, r, b, 0};
                    const DramCycle earliest = channel.EarliestIssue(cmd);
                    ASSERT_GE(earliest, last[slot])
                        << "EarliestIssue moved earlier: rank " << r
                        << " bank " << b << " type " << static_cast<int>(type)
                        << " at cycle " << now;
                    last[slot++] = earliest;
                    // ACT when closed; RD, WR, PRE when open.
                    const bool state_legal =
                        state.IsOpen() != (type == CommandType::kActivate);
                    if (earliest == now && state_legal &&
                        !channel.rank(r).RefreshDue(now)) {
                        due.push_back(
                            {type, r, b,
                             state.IsOpen()
                                 ? state.open_row()
                                 : static_cast<std::uint32_t>(
                                       rng.NextBelow(64))});
                    }
                }
            }
        }
        Command cmd;
        if (PickCommand(channel, now, rng, due, cmd)) {
            const auto type = static_cast<std::size_t>(cmd.type);
            if (cmd.type != CommandType::kRefresh &&
                channel.EarliestIssue(cmd) == now) {
                issued.at_earliest[type] += 1;
            }
            channel.Issue(cmd, now);
            issued.all[type] += 1;
        }
    }
}

class EarliestIssueProperty : public ::testing::TestWithParam<Shape> {};

TEST_P(EarliestIssueProperty, MonotoneAndExactUnderDdr2Refresh)
{
    // DDR2 defaults, refresh on (tREFI 3120): refresh's tRFC blocks and
    // quiescing precharges are part of the stream.
    Issued issued;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        DriveAndCheck(TimingParams{}, GetParam(), seed, 16000, issued);
        if (HasFatalFailure()) {
            return;
        }
        EXPECT_GT(issued.all[static_cast<std::size_t>(CommandType::kRefresh)],
                  0u)
            << "seed " << seed;
        for (CommandType type : kProbedTypes) {
            EXPECT_GT(issued.at_earliest[static_cast<std::size_t>(type)], 0u)
                << "type " << static_cast<int>(type) << " seed " << seed;
        }
    }
}

TEST_P(EarliestIssueProperty, MonotoneAndExactUnderTestTiming)
{
    Issued issued;
    for (std::uint64_t seed = 3; seed <= 4; ++seed) {
        DriveAndCheck(test::TestTiming(), GetParam(), seed, 8000, issued);
        if (HasFatalFailure()) {
            return;
        }
        EXPECT_EQ(issued.all[static_cast<std::size_t>(CommandType::kRefresh)],
                  0u);
        for (CommandType type : kProbedTypes) {
            EXPECT_GT(issued.at_earliest[static_cast<std::size_t>(type)], 0u)
                << "type " << static_cast<int>(type) << " seed " << seed;
        }
    }
}

// The perf ledger's channel shapes (1x8, 2x8, 4x8) and the wide 2x64.
INSTANTIATE_TEST_SUITE_P(
    Geometries, EarliestIssueProperty,
    ::testing::Values(Shape{1, 8}, Shape{2, 8}, Shape{4, 8}, Shape{2, 64}),
    [](const auto& info) {
        return std::to_string(info.param.ranks) + "x" +
               std::to_string(info.param.banks_per_rank);
    });

} // namespace
} // namespace parbs::dram
