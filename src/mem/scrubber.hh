/**
 * @file
 * Patrol-scrub state: the row cursor, the scrub clock, and the single
 * in-flight scrub read.
 *
 * The scrubber is a *passive* state machine — the Controller drives it
 * from its selection scan (Controller::TryScrub), issuing real commands
 * through the channel so the protocol checker and bank/bus timing see
 * scrub traffic exactly like demand traffic.  Arbitration rules
 * (DESIGN.md §6): a scrub command may issue only on a cycle where demand
 * selection produced nothing, no refresh issued, the write drain is not
 * active, and fewer than `scrub_demote_reads` demand reads are queued —
 * i.e. scrub is the lowest-priority internal request class and demotes
 * itself under queue pressure.  Like refresh, it is controller-generated
 * and never enters the scheduler's request buffer.
 */

#ifndef PARBS_MEM_SCRUBBER_HH
#define PARBS_MEM_SCRUBBER_HH

#include <cstdint>

#include "common/types.hh"
#include "dram/error_model.hh"
#include "dram/timing.hh"

namespace parbs {

/** Patrol-scrub cursor + in-flight read (see file comment). */
class Scrubber {
  public:
    Scrubber(const dram::Geometry& geometry, DramCycle interval,
             std::size_t demote_reads);

    DramCycle interval() const { return interval_; }
    std::size_t demote_reads() const { return demote_reads_; }

    // --- cursor -----------------------------------------------------------
    std::uint32_t rank() const { return rank_; }
    std::uint32_t bank() const { return bank_; }
    std::uint32_t row() const { return row_; }

    /** Advances the cursor one row, wrapping row -> bank -> rank. */
    void AdvanceCursor();

    /** Rows the cursor walks: every row of the channel. */
    std::uint64_t
    rows() const
    {
        return std::uint64_t{num_ranks_} * banks_per_rank_ * rows_per_bank_;
    }

    /** Completed full passes over the address space. */
    std::uint64_t sweeps() const { return sweeps_; }

    // --- scrub clock ------------------------------------------------------
    /** Earliest cycle the next scrub read may issue. */
    DramCycle next_due() const { return next_due_; }

    // --- in-flight read ---------------------------------------------------
    bool in_flight() const { return in_flight_; }
    DramCycle completion() const { return completion_; }
    dram::EccOutcome outcome() const { return outcome_; }

    /** Records the scrub read issued for the cursor row: its (pre-known)
     *  burst completion cycle and the ECC outcome drawn at issue. */
    void BeginRead(DramCycle completion, dram::EccOutcome outcome);

    /** Closes the in-flight read at @p now: re-arms the scrub clock one
     *  interval out and advances the cursor past the scrubbed row. */
    void FinishRead(DramCycle now);

  private:
    DramCycle interval_;
    std::size_t demote_reads_;

    std::uint32_t num_ranks_;
    std::uint32_t banks_per_rank_;
    std::uint32_t rows_per_bank_;

    std::uint32_t rank_ = 0;
    std::uint32_t bank_ = 0;
    std::uint32_t row_ = 0;
    std::uint64_t sweeps_ = 0;

    DramCycle next_due_ = 0;

    bool in_flight_ = false;
    DramCycle completion_ = kNeverCycle;
    dram::EccOutcome outcome_ = dram::EccOutcome::kClean;
};

} // namespace parbs

#endif // PARBS_MEM_SCRUBBER_HH
