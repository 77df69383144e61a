/**
 * @file
 * Channel-level DRAM model: ranks plus the shared command and data buses.
 *
 * The controller issues at most one command per DRAM cycle per channel
 * (command-bus bandwidth); the channel enforces data-bus occupancy so that
 * read/write bursts from different banks and ranks never overlap on the
 * shared 64-bit data bus.
 */

#ifndef PARBS_DRAM_CHANNEL_HH
#define PARBS_DRAM_CHANNEL_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/assert.hh"
#include "common/types.hh"
#include "dram/command.hh"
#include "dram/protocol_checker.hh"
#include "dram/rank.hh"
#include "dram/timing.hh"

namespace parbs::dram {

/** One memory channel: ranks, banks, and the shared buses. */
class Channel {
  public:
    Channel(const TimingParams& timing, const Geometry& geometry);

    const TimingParams& timing() const { return timing_; }

    std::uint32_t num_ranks() const;

    Rank&
    rank(std::uint32_t index)
    {
        PARBS_ASSERT(index < ranks_.size(), "rank index out of range");
        return ranks_[index];
    }

    const Rank&
    rank(std::uint32_t index) const
    {
        PARBS_ASSERT(index < ranks_.size(), "rank index out of range");
        return ranks_[index];
    }

    /** Convenience accessor across the rank boundary. */
    Bank&
    bank(std::uint32_t rank_index, std::uint32_t bank_index)
    {
        return rank(rank_index).bank(bank_index);
    }

    const Bank&
    bank(std::uint32_t rank_index, std::uint32_t bank_index) const
    {
        return rank(rank_index).bank(bank_index);
    }

    /**
     * @return true if @p cmd satisfies every device and bus constraint at
     *         cycle @p now — the command is "ready" in the paper's sense
     *         (command-bus availability is enforced by the controller, which
     *         issues at most one command per cycle).
     */
    bool
    CanIssue(const Command& cmd, DramCycle now) const
    {
        if (cmd.type == CommandType::kRefresh) {
            return rank(cmd.rank).CanRefresh(now);
        }
        return now >= EarliestIssue(cmd);
    }

    /**
     * Earliest cycle @p cmd passes every device and bus constraint,
     * assuming no further command issues on this channel in between.
     * Issue() only ever moves it later (every timer behind it is a running
     * maximum).  The controller's bank prefilter and skip-ahead bound are
     * built on that (tests/dram/earliest_issue_test.cc checks it, and that
     * commands issued at this cycle pass the protocol checker).
     * @pre cmd.type != kRefresh
     */
    DramCycle
    EarliestIssue(const Command& cmd) const
    {
        PARBS_ASSERT(cmd.rank < ranks_.size(), "command rank out of range");
        DramCycle earliest = ranks_[cmd.rank].EarliestIssue(cmd);
        if (cmd.type == CommandType::kRead ||
            cmd.type == CommandType::kWrite) {
            // The data burst [start, start + tBURST) must begin after the
            // current bus occupant finishes, so the command becomes
            // bus-ready at bus_free_at_ - latency.  Because tCWD < tCL on
            // DDR2, this start-after-free rule is slightly conservative for
            // a write following a read, which matches real controllers'
            // bus turnaround.
            const DramCycle latency = (cmd.type == CommandType::kRead)
                                          ? timing_.tCL
                                          : timing_.tCWD;
            if (bus_free_at_ > latency) {
                earliest = std::max(earliest, bus_free_at_ - latency);
            }
        }
        return earliest;
    }

    /**
     * Issues @p cmd at cycle @p now.
     * @return for column commands, the cycle at which the data burst
     *         completes (read data available / write retired); 0 otherwise.
     * @pre CanIssue(cmd, now)
     */
    DramCycle Issue(const Command& cmd, DramCycle now);

    /** @return the cycle the data bus becomes free (for stats/debug). */
    DramCycle bus_free_at() const { return bus_free_at_; }

    /**
     * Total cycles of data-bus occupancy committed so far (tBURST per
     * column command).  Monotonic; interval deltas give bus utilization.
     */
    std::uint64_t bus_busy_cycles() const { return bus_busy_cycles_; }

    /**
     * Enables shadow re-validation of every issued command.  @p reference
     * is the timing the checker validates against; it defaults to the
     * channel's own parameters, but tests may pass the true device timing
     * while the channel runs a deliberately corrupted copy to prove the
     * corruption is caught.
     */
    void EnableProtocolCheck(const TimingParams* reference = nullptr);

    /** @return the attached checker, or nullptr when checking is off. */
    const ProtocolChecker* protocol_checker() const { return checker_.get(); }

  private:
    TimingParams timing_;
    Geometry geometry_;
    std::vector<Rank> ranks_;

    /** Cycle at which the current data-bus burst (if any) ends. */
    DramCycle bus_free_at_ = 0;
    /** Cumulative data-bus occupancy, tBURST per column command. */
    std::uint64_t bus_busy_cycles_ = 0;

    std::unique_ptr<ProtocolChecker> checker_;
};

} // namespace parbs::dram

#endif // PARBS_DRAM_CHANNEL_HH
