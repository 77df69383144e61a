/**
 * @file
 * The per-cycle selection oracle the production controller is checked
 * against (DESIGN.md §5d–§5e).
 *
 * ScanChecked decorates a Scheduler.  On every DRAM cycle, after the
 * wrapped scheduler's own OnDramCycle hook, it predicts what the
 * exhaustive per-cycle controller would issue: no request if an overdue
 * refresh takes the cycle; otherwise the first pick of the drain-first /
 * reads / writes order (write-drain hysteresis from the ControllerConfig
 * watermarks), each pick a full-buffer scan that groups the queued
 * requests by bank, asks Pick() for every bank's winner, keeps the winners
 * whose next command passes CanIssue, and asks Pick() again among them.
 * The scan shares nothing with the production path — no per-bank chains,
 * EarliestIssue prefilter, PickInBank memo or skip-ahead bound — so an
 * OnCommandIssued for any other request, on any other cycle, or a
 * predicted pick that never issues, throws SelectionMismatch.
 *
 * Everything else forwards to the wrapped scheduler (ForwardingScheduler),
 * including its observer, its knob changes and its memoized PickInBank,
 * so stats, engine counters and traces are the same with or without the
 * oracle.  Schedulers whose Pick() is not deterministic
 * (DeterministicPick() == false) are forwarded unchecked.
 */

#ifndef PARBS_TESTS_ORACLE_SCAN_CHECKED_HH
#define PARBS_TESTS_ORACLE_SCAN_CHECKED_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mem/controller.hh"
#include "oracle/forwarding_scheduler.hh"
#include "test_util.hh"

namespace parbs {
class System;
struct SystemConfig;
} // namespace parbs

namespace parbs::oracle {

/** The controller's selection differs from the exhaustive scan. */
class SelectionMismatch : public std::logic_error {
  public:
    using std::logic_error::logic_error;
};

class ScanChecked final : public test::ForwardingScheduler {
  public:
    /** @p config supplies the write-drain watermarks and whether RAS is
     *  on; it must match the checked controller's. */
    ScanChecked(std::unique_ptr<Scheduler> inner,
                const ControllerConfig& config);

    /**
     * Reads @p controller's RAS retry-backoff bank holds.  Required when
     * config.ras is enabled: an unbound oracle throws on its first cycle.
     */
    void Bind(const Controller& controller) { bound_ = &controller; }

    /** DRAM cycles predicted (every OnDramCycle while checking). */
    std::uint64_t cycles_checked() const { return cycles_checked_; }
    /** Predicted cycles that issue a request, each one confirmed. */
    std::uint64_t picks_checked() const { return picks_checked_; }

    void Attach(const SchedulerContext& context) override;
    /** The wrapped scheduler's own per-bank path, memo included: it is
     *  the path under check. */
    MemRequest*
    PickInBank(const RequestQueue& queue, std::uint32_t bank,
               DramCycle now) override
    {
        return Inner().PickInBank(queue, bank, now);
    }
    void OnCommandIssued(const MemRequest& request,
                         const dram::Command& command,
                         DramCycle now) override;
    void OnDramCycle(DramCycle now) override;

  private:
    /** HandleRefresh's decision: an overdue refresh issues a REF or a
     *  quiescing PRE this cycle. */
    bool RefreshTakesCycle(DramCycle now) const;

    /** Full-buffer two-level selection from @p queue. */
    MemRequest* Scan(const RequestQueue& queue, DramCycle now);

    [[noreturn]] void Fail(const std::string& what, DramCycle now) const;

    ControllerConfig config_;
    const Controller* bound_ = nullptr;

    bool drain_ = false;
    /** This cycle's predicted pick, until OnCommandIssued confirms it.
     *  Still buffered while unconfirmed: a queued request leaves the
     *  buffer only after a column command of its own issues. */
    MemRequest* expected_ = nullptr;
    DramCycle expected_cycle_ = 0;

    std::uint64_t cycles_checked_ = 0;
    std::uint64_t picks_checked_ = 0;

    std::vector<std::vector<Candidate>> per_bank_;
    std::vector<Candidate> finalists_;
};

/** A test::ControllerHarness whose scheduler is wrapped in the scan
 *  oracle, bound to the harness's controller. */
struct CheckedHarness {
    explicit CheckedHarness(
        std::unique_ptr<Scheduler> scheduler,
        ControllerConfig config = test::ControllerHarness::DefaultConfig(),
        dram::TimingParams timing = test::TestTiming(),
        std::uint32_t threads = 4,
        dram::Geometry geometry = test::TestGeometry())
        : owned(std::make_unique<ScanChecked>(std::move(scheduler), config)),
          oracle(owned.get()),
          h(std::move(owned), threads, config, timing, geometry)
    {
        oracle->Bind(h.controller());
    }

    std::unique_ptr<ScanChecked> owned;
    ScanChecked* oracle;
    test::ControllerHarness h;
};

/**
 * What the oracle cannot see: on which cycles a controller scanned or
 * skipped selection, and how its scheduler's per-bank memo fared (every
 * PickInBank call is a hit or a miss).  A skip-ahead bound that is early
 * or a prefilter that lets a blocked bank through changes no pick, only
 * these counts, so the exactness tests pin them per scheduler.
 */
struct ScanSchedule {
    std::uint64_t scans = 0;
    std::uint64_t skips = 0;
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;
    std::uint64_t memo_invalidations = 0;

    /** Adds @p controller's fast-path and pick-memo counters. */
    ScanSchedule& operator+=(const Controller& controller);
    bool operator==(const ScanSchedule&) const = default;
};

/** Prints {scans, skips, hits, misses, invalidations}. */
std::ostream& operator<<(std::ostream& out, const ScanSchedule& schedule);

/**
 * Makes @p config build every channel's scheduler from config.scheduler,
 * wrapped in a ScanChecked.  Call once config.controller is final.
 */
void InstallScanOracle(SystemConfig& config);

/** Binds each channel's ScanChecked to its controller.
 *  @pre the System was built from an InstallScanOracle config. */
std::vector<ScanChecked*> BindScanOracles(System& system);

} // namespace parbs::oracle

#endif // PARBS_TESTS_ORACLE_SCAN_CHECKED_HH
