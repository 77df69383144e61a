/**
 * @file
 * Deterministic fault-injection harness (test support, not part of the
 * library).
 *
 * Robustness claims need adversarial evidence: the harness replays seeded
 * fault scenarios against the simulator and classifies how each one was
 * defended.  Four scenario families:
 *
 *  - User faults (malformed traces, out-of-range addresses, impossible
 *    timing/geometry/controller configurations) must raise ConfigError —
 *    never std::abort, never silent acceptance.
 *  - Model faults (a corrupted device timing register, a scheduler that
 *    withholds service) must be caught by the protocol checker or the
 *    forward-progress watchdog.
 *  - Stress scenarios (refresh storms, write-buffer pressure, adversarially
 *    randomized scheduling, transient ECC error showers, patrol-scrub
 *    storms) must complete cleanly with zero protocol violations — the
 *    model's constraints hold under any decision sequence.
 *  - RAS faults (a device full of stuck-at rows) must exhaust the remap
 *    table and surface as a structured MachineCheckError — never an abort,
 *    never a hang.
 *
 * Every scenario runs under the oracles (tests/oracle/): each scheduler
 * is wrapped in the scan oracle, and the System-level family must also
 * match ReferenceSystem's stats report byte for byte.  A disagreement is
 * a failed defense (kOther) carrying the oracle's message, so a selection
 * bug is reported at its scenario index.
 *
 * Every scenario derives its randomness from (master seed, scenario index),
 * so a failing index reproduces exactly.  tools/fault_fuzz.cpp drives the
 * harness from the command line; tests/sim/fault_injection_test.cc asserts
 * the expected defense for every scenario family.
 */

#ifndef PARBS_TESTS_FAULT_FAULT_INJECTOR_HH
#define PARBS_TESTS_FAULT_FAULT_INJECTOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "oracle/forwarding_scheduler.hh"
#include "sched/factory.hh"

namespace parbs {

/** The fault families the harness can inject. */
enum class FaultKind : std::uint8_t {
    kMalformedTrace,      ///< Corrupted trace text fed to the parser.
    kOutOfRangeAddress,   ///< Request beyond the configured DRAM capacity.
    kBadTiming,           ///< Impossible TimingParams combination.
    kBadGeometry,         ///< Zero / non-power-of-two / oversized geometry.
    kBadControllerConfig, ///< Nonsensical queue sizing or watchdog knobs.
    kRefreshStorm,        ///< Near-minimum tREFI under load (stress).
    kWritePressure,       ///< Write bursts pinned at buffer capacity.
    kSchedulerChaos,      ///< Randomized scheduling decisions (stress).
    kTimingCorruption,    ///< Device model runs with a shortened constraint.
    kServiceWithholding,  ///< Scheduler never services one thread.
    kTransientBitErrors,  ///< High transient ECC error rate under load.
    kStuckRow,            ///< Stuck-at rows exhaust the remap table.
    kScrubStorm,          ///< Patrol scrub at the minimum interval (stress).
};

inline constexpr std::size_t kNumFaultKinds = 13;

/** @return a short name, e.g. "malformed-trace". */
const char* FaultKindName(FaultKind kind);

/** How a scenario was (or should be) defended. */
enum class Defense : std::uint8_t {
    kNone,          ///< Scenario must complete cleanly.
    kConfigError,   ///< Rejected as a user configuration fault.
    kProtocolError, ///< Caught by the DRAM protocol checker.
    kWatchdogError, ///< Caught by the forward-progress watchdog.
    kMachineCheck,  ///< Surfaced as a structured MachineCheckError (RAS).
    kOther,         ///< Unexpected exception or oracle disagreement.
};

/** @return a short name, e.g. "config-error". */
const char* DefenseName(Defense defense);

/** Result of one injected scenario. */
struct FaultOutcome {
    std::uint64_t index = 0;
    FaultKind kind = FaultKind::kMalformedTrace;
    Defense expected = Defense::kNone;
    Defense observed = Defense::kNone;
    /** First line of the raised error (empty for clean completions). */
    std::string detail;
    /** Picks the scan oracle confirmed, up to the end or the failure. */
    std::uint64_t picks_checked = 0;

    bool Passed() const { return observed == expected; }
};

/**
 * Execution knobs orthogonal to the scenario stream: the same (seed, index)
 * scenario can be replayed under any scheduler and any channel-team size,
 * and the defense classification must not change.  System-level scenarios
 * honor both fields; controller-level scenarios drive a Controller
 * without a System, so they honor only the scheduler.
 */
struct FaultOptions {
    SchedulerKind scheduler = SchedulerKind::kFrFcfs;
    unsigned channel_jobs = 1;
};

/** Seeded scenario generator + executor. */
class FaultInjector {
  public:
    explicit FaultInjector(std::uint64_t master_seed);

    /**
     * Runs scenario @p index (deterministic in (seed, index)) under
     * @p options; the fault kind cycles through all families so any
     * contiguous index range covers every family.  Never aborts: all
     * defenses are catchable exceptions.
     */
    FaultOutcome RunScenario(std::uint64_t index,
                             const FaultOptions& options = {});

    /** The defense a given fault kind is required to trigger. */
    static Defense ExpectedDefense(FaultKind kind);

  private:
    std::uint64_t master_seed_;
};

/**
 * Wraps a scheduler and, with probability `chaos`, overrides its decision
 * with a uniformly random ready candidate.  Because the controller only
 * offers timing-ready candidates, *no* decision sequence may break the DRAM
 * protocol — the chaos scenarios prove that under the protocol checker.
 */
class ChaosScheduler : public test::ForwardingScheduler {
  public:
    ChaosScheduler(std::unique_ptr<Scheduler> inner, std::uint64_t seed,
                   double chaos = 0.5);

    std::string name() const override;
    MemRequest* Pick(std::span<const Candidate> candidates,
                     DramCycle now) override;
    /** Pick() draws from the RNG, so re-running selection over the same
     *  candidates changes the decision stream: a selection cross-check
     *  must not replay picks under chaos. */
    bool DeterministicPick() const override { return false; }

  private:
    Rng rng_;
    double chaos_;
};

/**
 * Wraps a scheduler but never services the victim thread's requests — a
 * seeded starvation bug the forward-progress watchdog must catch.
 */
class WithholdingScheduler : public test::ForwardingScheduler {
  public:
    WithholdingScheduler(std::unique_ptr<Scheduler> inner, ThreadId victim);

    std::string name() const override;
    MemRequest* Pick(std::span<const Candidate> candidates,
                     DramCycle now) override;

  private:
    ThreadId victim_;
    std::vector<Candidate> filtered_;
};

} // namespace parbs

#endif // PARBS_TESTS_FAULT_FAULT_INJECTOR_HH
