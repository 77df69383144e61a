/**
 * @file
 * Rank-level DRAM constraints: ACT-to-ACT spacing (tRRD), the four-activate
 * window (tFAW), write-to-read turnaround (tWTR), and auto-refresh.
 */

#ifndef PARBS_DRAM_RANK_HH
#define PARBS_DRAM_RANK_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/assert.hh"
#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/command.hh"
#include "dram/timing.hh"

namespace parbs::dram {

/** One DRAM rank: a set of banks sharing rank-level timing constraints. */
class Rank {
  public:
    Rank(const TimingParams& timing, std::uint32_t num_banks);

    /** @return the number of banks in this rank. */
    std::uint32_t
    num_banks() const
    {
        return static_cast<std::uint32_t>(banks_.size());
    }

    Bank&
    bank(std::uint32_t index)
    {
        PARBS_ASSERT(index < banks_.size(), "bank index out of range");
        return banks_[index];
    }

    const Bank&
    bank(std::uint32_t index) const
    {
        PARBS_ASSERT(index < banks_.size(), "bank index out of range");
        return banks_[index];
    }

    /**
     * @return true if @p cmd may issue at @p now considering both rank-level
     *         and bank-level constraints (data-bus checks are the channel's).
     */
    bool
    CanIssue(const Command& cmd, DramCycle now) const
    {
        if (cmd.type == CommandType::kRefresh) {
            return CanRefresh(now);
        }
        return now >= EarliestIssue(cmd);
    }

    /**
     * Earliest cycle @p cmd passes the rank- and bank-level constraints,
     * assuming no further command issues in between.  Issue() and refresh
     * only ever move it later (every timer behind it is a running
     * maximum); the controller's bank prefilter and skip-ahead are built
     * on that.  @pre cmd.type != kRefresh (refresh legality depends on
     * row-buffer state, not only on timers).
     */
    DramCycle
    EarliestIssue(const Command& cmd) const
    {
        PARBS_ASSERT(cmd.type != CommandType::kRefresh,
                     "EarliestIssue is undefined for refresh");
        DramCycle earliest = banks_[cmd.bank].EarliestIssue(cmd.type);
        switch (cmd.type) {
          case CommandType::kActivate: {
            earliest = std::max(earliest, next_activate_);
            // tFAW: at most four ACTIVATEs in any tFAW window.  The oldest
            // entry in the 4-deep history must be at least tFAW in the
            // past, and it never moves earlier.
            const DramCycle oldest =
                activate_history_[activate_history_head_];
            if (oldest != kNeverCycle) {
                earliest = std::max(earliest, oldest + timing_.tFAW);
            }
            break;
          }
          case CommandType::kRead:
            earliest = std::max(earliest, next_read_);
            break;
          case CommandType::kWrite:
          case CommandType::kPrecharge:
          case CommandType::kRefresh:
            break;
        }
        return earliest;
    }

    /** Applies @p cmd at cycle @p now to rank and bank state. */
    void Issue(const Command& cmd, DramCycle now);

    // --- Refresh management (paper baseline: all-bank auto refresh) ---

    /** @return true if a refresh is due at or before cycle @p now. */
    bool RefreshDue(DramCycle now) const { return now >= next_refresh_due_; }

    /**
     * @return true if the mandatory refresh can start now (refresh due and
     *         every bank precharged and past its bank-level constraints).
     */
    bool CanRefresh(DramCycle now) const;

    /** @return banks that still have an open row (must be precharged before
     *          a refresh can start). */
    std::vector<std::uint32_t> OpenBanks() const;

    /** @return the cycle refreshes become due next (for scheduling). */
    DramCycle next_refresh_due() const { return next_refresh_due_; }

  private:
    const TimingParams& timing_;
    std::vector<Bank> banks_;

    /** Earliest cycle the next ACTIVATE may issue anywhere in the rank. */
    DramCycle next_activate_ = 0;
    /** Earliest cycle the next READ may issue anywhere in the rank (tWTR). */
    DramCycle next_read_ = 0;
    /** Issue times of the last four ACTIVATEs, for the tFAW window. */
    std::array<DramCycle, 4> activate_history_{};
    std::size_t activate_history_head_ = 0;

    DramCycle next_refresh_due_;
};

} // namespace parbs::dram

#endif // PARBS_DRAM_RANK_HH
