/**
 * @file
 * Deterministic DRAM device error model.
 *
 * The model answers one question — "what does ECC see when this row is
 * read?" — without simulating payloads.  Every answer is a pure hash of
 * deterministic coordinates: (master seed, channel, rank, bank, row, and
 * the per-row access index for transient draws).  No wall-clock, thread,
 * or scheduling state enters the draw, so a failing read reproduces
 * exactly across reruns, across schedulers, and across `--channel-jobs`
 * values (the sharded engine preserves each channel's tick order, which
 * is the only ordering the access index depends on).
 *
 * Two fault populations, seeded like the fault-injection harness's
 * scenarios (tests/fault/):
 *
 *  - transient bit flips: each read of a row draws independently at
 *    `transient_error_rate`; a transient error is uncorrectable with
 *    probability `transient_uncorrectable` (SEC-DED catches multi-bit
 *    flips it cannot correct), else correctable.
 *  - permanent stuck-at rows: a fixed `stuck_row_fraction` of rows,
 *    chosen by hash at construction semantics (no state), always return
 *    uncorrectable until the controller retires them.
 */

#ifndef PARBS_DRAM_ERROR_MODEL_HH
#define PARBS_DRAM_ERROR_MODEL_HH

#include <cstdint>

#include "common/types.hh"

namespace parbs::dram {

/** What the ECC logic reports for one read burst. */
enum class EccOutcome : std::uint8_t {
    kClean,         ///< No error detected.
    kCorrectable,   ///< Single-bit error corrected in flight.
    kUncorrectable, ///< Multi-bit error detected but not correctable.
};

/** Display name ("clean", "corrected", "uncorrectable"). */
const char* EccOutcomeName(EccOutcome outcome);

/** Error-model parameters; all rates are probabilities in [0, 1]. */
struct ErrorModelConfig {
    /** Master seed; combined with the channel for independent streams. */
    std::uint64_t seed = 1;
    /** Channel index (decorrelates channels under one master seed). */
    std::uint32_t channel = 0;
    /** Per-read probability of a transient error. */
    double transient_error_rate = 0.0;
    /** Fraction of transient errors that exceed SEC-DED correction. */
    double transient_uncorrectable = 0.1;
    /** Fraction of rows that are permanently stuck (always uncorrectable). */
    double stuck_row_fraction = 0.0;

    /** @throws ConfigError on rates outside [0, 1]. */
    void Validate() const;
};

/** Stateless deterministic fault map (see file comment). */
class ErrorModel {
  public:
    explicit ErrorModel(const ErrorModelConfig& config);

    const ErrorModelConfig& config() const { return config_; }

    /** @return true if (rank, bank, row) is a permanent stuck-at row. */
    bool RowStuck(std::uint32_t rank, std::uint32_t bank,
                  std::uint32_t row) const;

    /**
     * Transient draw for the @p access_index -th read of a row.  Does not
     * consult RowStuck — the caller overlays permanent faults (and any
     * remapping) on top of this per-read draw.
     */
    EccOutcome ClassifyTransient(std::uint32_t rank, std::uint32_t bank,
                                 std::uint32_t row,
                                 std::uint64_t access_index) const;

  private:
    ErrorModelConfig config_;
    /** Pre-mixed (seed, channel) base key. */
    std::uint64_t base_;
};

} // namespace parbs::dram

#endif // PARBS_DRAM_ERROR_MODEL_HH
