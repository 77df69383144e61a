/**
 * @file
 * Per-bank DRAM state machine and bank-level timing constraints.
 *
 * A bank tracks its open row (at most one, held in the row-buffer) and, for
 * each command type, the earliest DRAM cycle at which that command may
 * legally be issued to this bank.  Rank-level (tRRD, tFAW, tWTR, refresh) and
 * channel-level (data-bus) constraints are enforced by Rank and Channel; the
 * conjunction of all three layers decides whether a command is "ready" in
 * the paper's sense.
 */

#ifndef PARBS_DRAM_BANK_HH
#define PARBS_DRAM_BANK_HH

#include <cstdint>

#include "common/assert.hh"
#include "common/types.hh"
#include "dram/command.hh"
#include "dram/timing.hh"

namespace parbs::dram {

/** One DRAM bank: row-buffer state plus bank-local timing registers. */
class Bank {
  public:
    explicit Bank(const TimingParams& timing);

    /** @return the currently open row, or kNoRow if the bank is precharged. */
    std::uint32_t open_row() const { return open_row_; }

    /** @return true if some row is open in the row-buffer. */
    bool IsOpen() const { return open_row_ != kNoRow; }

    /**
     * Classifies an access to @p row against the current row-buffer state
     * (hit / closed / conflict), as defined in Section 3 of the paper.
     */
    RowBufferState
    Classify(std::uint32_t row) const
    {
        if (open_row_ == row) {
            return RowBufferState::kHit;
        }
        if (open_row_ == kNoRow) {
            return RowBufferState::kClosed;
        }
        return RowBufferState::kConflict;
    }

    /**
     * The next command an access to @p row needs: a column command on a hit,
     * kActivate when closed, kPrecharge on a conflict.
     */
    CommandType
    NextCommandFor(std::uint32_t row, bool is_write) const
    {
        switch (Classify(row)) {
          case RowBufferState::kHit:
            return is_write ? CommandType::kWrite : CommandType::kRead;
          case RowBufferState::kClosed:
            return CommandType::kActivate;
          case RowBufferState::kConflict:
            return CommandType::kPrecharge;
        }
        PARBS_ASSERT(false, "unreachable row-buffer state");
        return CommandType::kActivate;
    }

    /**
     * @return true if @p type may issue to this bank at cycle @p now as far
     *         as *bank-local* constraints are concerned.
     */
    bool
    CanIssue(CommandType type, DramCycle now) const
    {
        return now >= EarliestIssue(type);
    }

    /**
     * Earliest cycle at which @p type may issue (bank-local constraints
     * only); used by schedulers that reason about readiness windows.
     */
    DramCycle
    EarliestIssue(CommandType type) const
    {
        switch (type) {
          case CommandType::kActivate:
            return next_activate_;
          case CommandType::kPrecharge:
            return next_precharge_;
          case CommandType::kRead:
            return next_read_;
          case CommandType::kWrite:
            return next_write_;
          case CommandType::kRefresh:
            // Refresh legality (all banks precharged) is a rank-level
            // decision; at bank level it behaves like an activate.
            return next_activate_;
        }
        PARBS_ASSERT(false, "unreachable command type");
        return 0;
    }

    /**
     * Applies a command issued at cycle @p now.
     * @pre CanIssue(cmd.type, now) and the command is legal for the current
     *      row-buffer state (e.g. no READ while closed).
     */
    void Issue(const Command& cmd, DramCycle now);

    /**
     * Blocks all commands to this bank until @p until (used for refresh).
     * @pre the bank is precharged.
     */
    void BlockUntil(DramCycle until);

    /** @return the cycle the row currently open was activated (kNeverCycle
     *          if closed); used by NFQ's priority-inversion-prevention. */
    DramCycle open_since() const { return open_since_; }

    /**
     * Monotonic generation of the row-buffer state: bumped whenever
     * open_row() changes (ACTIVATE / PRECHARGE).  Schedulers key memoized
     * per-bank picks on it, so that row-hit status cached with a pick is
     * known stale the moment the open row changes (DESIGN.md §5e).
     */
    std::uint64_t row_generation() const { return row_gen_; }

    /** Total ACTIVATE commands issued to this bank (for time-series obs). */
    std::uint64_t activations() const { return activations_; }

  private:
    const TimingParams& timing_;

    std::uint32_t open_row_ = kNoRow;
    DramCycle open_since_ = kNeverCycle;
    std::uint64_t row_gen_ = 1;
    std::uint64_t activations_ = 0;

    /** Earliest legal issue cycle per command class. */
    DramCycle next_activate_ = 0;
    DramCycle next_precharge_ = 0;
    DramCycle next_read_ = 0;
    DramCycle next_write_ = 0;
};

} // namespace parbs::dram

#endif // PARBS_DRAM_BANK_HH
