/**
 * @file
 * The ledger's measurement probes, all built from outside the library:
 *
 *  - TimedTraceSource and TimedScheduler decorate the library's TraceSource
 *    and Scheduler interfaces, counting calls and summing TSC ticks
 *    (obs::EngineProfiler::Now) around every forwarded call.  They change
 *    no result: the smoke test holds the traced digest equal to the
 *    untraced one.
 *  - TscClock converts those ticks to seconds, calibrated against
 *    steady_clock over the ledger's own run.
 *  - SpanLog keeps the coarse Chrome-trace spans (workload, rep, construct
 *    / run / measure, one per paper_mixes task) in memory until exit.
 *
 * Each decorator instance belongs to one System component (one core's
 * trace, one channel's scheduler) and is only touched by the thread that
 * advances that component, so the counters need no synchronization.
 */

#ifndef PARBS_LEDGER_PROBES_HH
#define PARBS_LEDGER_PROBES_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/engine_profiler.hh"
#include "sched/scheduler.hh"
#include "trace/trace.hh"

namespace ledger {

/** EngineProfiler::Now() ticks -> seconds, calibrated over the interval
 *  since Start(). */
class TscClock {
  public:
    /** (Re)starts the calibration interval. */
    void Start();

    /** Ticks per second over the interval since Start(). */
    double TicksPerSecond() const;

  private:
    std::uint64_t ticks_ = 0;
    std::chrono::steady_clock::time_point time_;
};

/** Seconds since @p start on the steady clock. */
double SecondsSince(std::chrono::steady_clock::time_point start);

/** Forwards Next() to the wrapped source, counting entries and ticks. */
class TimedTraceSource final : public parbs::TraceSource {
  public:
    explicit TimedTraceSource(std::unique_ptr<parbs::TraceSource> inner)
        : inner_(std::move(inner))
    {
    }

    std::optional<parbs::TraceEntry> Next() override;

    std::uint64_t entries() const { return entries_; }
    std::uint64_t ticks() const { return ticks_; }

  private:
    std::unique_ptr<parbs::TraceSource> inner_;
    std::uint64_t entries_ = 0;
    std::uint64_t ticks_ = 0;
};

/** Call counts and TSC ticks of one TimedScheduler. */
struct SchedCounters {
    std::uint64_t pick_in_bank_calls = 0;
    std::uint64_t pick_in_bank_ticks = 0;
    std::uint64_t pick_calls = 0;
    std::uint64_t pick_ticks = 0;
    /** OnRequestQueued / OnCommandIssued / OnRequestComplete /
     *  OnDramCycle, together. */
    std::uint64_t hook_calls = 0;
    std::uint64_t hook_ticks = 0;

    SchedCounters& operator+=(const SchedCounters& other);
};

/**
 * Forwards every Scheduler virtual to the wrapped scheduler and times the
 * selection calls and lifecycle hooks.  Installed through
 * SystemConfig::scheduler_factory.
 */
class TimedScheduler final : public parbs::Scheduler {
  public:
    explicit TimedScheduler(std::unique_ptr<parbs::Scheduler> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }
    void Attach(const parbs::SchedulerContext& context) override;
    parbs::MemRequest* Pick(std::span<const parbs::Candidate> candidates,
                            parbs::DramCycle now) override;
    parbs::MemRequest* PickInBank(const parbs::RequestQueue& queue,
                                  std::uint32_t bank,
                                  parbs::DramCycle now) override;
    bool DeterministicPick() const override
    {
        return inner_->DeterministicPick();
    }
    void OnRequestQueued(parbs::MemRequest& request,
                         parbs::DramCycle now) override;
    void OnCommandIssued(const parbs::MemRequest& request,
                         const parbs::dram::Command& command,
                         parbs::DramCycle now) override;
    void OnRequestComplete(const parbs::MemRequest& request,
                           parbs::DramCycle now) override;
    void OnDramCycle(parbs::DramCycle now) override;
    std::vector<std::pair<std::string, double>> Stats() const override
    {
        return inner_->Stats();
    }
    std::uint64_t BatchOutstanding() const override
    {
        return inner_->BatchOutstanding();
    }
    PickMemoCounters MemoCounters() const override
    {
        return inner_->MemoCounters();
    }

    const SchedCounters& counters() const { return counters_; }

  protected:
    /** Forwards the knob that changed (the base stores knobs, not the
     *  wrapped scheduler). */
    void OnSchedulingKnobChanged() override;

  private:
    std::unique_ptr<parbs::Scheduler> inner_;
    SchedCounters counters_;
};

/** One coarse span of the ledger's Chrome trace. */
struct Span {
    std::string name;
    std::string category;
    std::uint32_t tid = 0;
    double begin_us = 0.0;
    double dur_us = 0.0;
};

/**
 * Thread-safe in-memory span list, written as a Chrome trace-event
 * document on request.  Disabled logs record nothing.
 */
class SpanLog {
  public:
    explicit SpanLog(bool enabled);

    bool enabled() const { return enabled_; }

    /** Records [@p begin, now) on the calling thread's lane. */
    void Add(const std::string& name, const std::string& category,
             std::chrono::steady_clock::time_point begin);

    /** @return false if @p path cannot be written. */
    bool Write(const std::string& path) const;

  private:
    bool enabled_;
    std::chrono::steady_clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

} // namespace ledger

#endif // PARBS_LEDGER_PROBES_HH
