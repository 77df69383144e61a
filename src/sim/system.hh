/**
 * @file
 * The full CMP system: cores, the address mapper, and one memory controller
 * per channel, advanced in lock-step on the two clock domains.
 *
 * One engine advances it (DESIGN.md §5g): the coordinator sweeps the
 * cores over a lookahead window of CPU cycles, then the channel team
 * catches every controller up to the window's end — inline when
 * config.channel_jobs resolves to 1, on worker threads otherwise, with
 * bit-identical results either way.
 */

#ifndef PARBS_SIM_SYSTEM_HH
#define PARBS_SIM_SYSTEM_HH

#include <cstdint>
#include <deque>
#include <exception>
#include <iosfwd>
#include <memory>
#include <vector>

#include "cpu/core.hh"
#include "dram/address_mapper.hh"
#include "mem/controller.hh"
#include "mem/request_pool.hh"
#include "obs/observability.hh"
#include "sim/config.hh"
#include "stats/metrics.hh"
#include "trace/trace.hh"

namespace parbs {

class ChannelTeam;

namespace json {
class Value;
}

namespace obs {
class EngineProfiler;
}

/** Joins @p core's statistics with its thread's DRAM-side statistics
 *  summed over @p controllers (System::Measure). */
ThreadMeasurement MeasureThread(
    const SystemConfig& config, const Core& core,
    const std::vector<std::unique_ptr<Controller>>& controllers);

/** The report behind System::DumpStats, for any owner of cores and
 *  controllers (the test oracle prints through it, so the two compare). */
void WriteStatsReport(
    std::ostream& out, const SystemConfig& config, CpuCycle now,
    const std::vector<std::unique_ptr<Core>>& cores,
    const std::vector<std::unique_ptr<Controller>>& controllers);

/** A simulated chip-multiprocessor sharing a DRAM memory system. */
class System : public MemoryPort {
  public:
    /**
     * @param config validated system configuration
     * @param traces one trace source per core (ownership transferred);
     *        entries may be fewer than cores — missing cores idle.
     */
    System(const SystemConfig& config,
           std::vector<std::unique_ptr<TraceSource>> traces);

    ~System() override;

    /**
     * Runs for @p cpu_cycles CPU cycles (or until every core's trace is
     * exhausted, whichever comes first).  May be called repeatedly to
     * continue the simulation.
     */
    void Run(CpuCycle cpu_cycles);

    /** @return true once all cores have drained their traces. */
    bool AllDone() const;

    CpuCycle now() const { return cpu_cycle_; }

    std::uint32_t num_cores() const;

    Core& core(ThreadId thread);
    const Core& core(ThreadId thread) const;

    Controller& controller(std::uint32_t channel);
    const Controller& controller(std::uint32_t channel) const;
    std::uint32_t num_controllers() const;

    const dram::AddressMapper& mapper() const { return mapper_; }

    /** Sets a thread's priority on every channel's scheduler (Section 5). */
    void SetThreadPriority(ThreadId thread, ThreadPriority priority);

    /** Sets a thread's bandwidth weight on every channel's scheduler. */
    void SetThreadWeight(ThreadId thread, double weight);

    /** Joins core-side and DRAM-side statistics for @p thread. */
    ThreadMeasurement Measure(ThreadId thread) const;

    /** Null unless config.observability.Enabled() at construction. */
    const obs::Observability* observability() const { return obs_.get(); }

    /** Null unless config.observability.engine_profile at construction. */
    const obs::EngineProfiler* engine_profiler() const
    {
        return engine_profiler_.get();
    }

    /**
     * Deterministic engine counters (window accounting, arrival balance,
     * pick-memo rates) for the bench `run.engine` subtree; byte-identical
     * across --jobs / --channel-jobs.
     * @pre the engine profiler is enabled (asserted).
     */
    json::Value EngineRunJson() const;

    /**
     * Volatile engine timings (per-phase wall clock, serial-tail fraction,
     * worker utilization) plus machine-shape counters (request-pool high
     * waters) for the bench `env.engine` subtree.
     * @pre the engine profiler is enabled (asserted).
     */
    json::Value EngineEnvJson() const;

    /**
     * One-look engine state for stall dumps: team size, window bounds,
     * profiler phase, per-shard occupancy.
     * Appended to watchdog errors so a hung run shows where the engine
     * was parked.  Works with or without the profiler.
     */
    std::string EngineStateDump() const;

    /**
     * Writes the Chrome trace-event document for this run to @p out.
     * @pre observability is enabled (asserted).
     */
    void WriteTrace(std::ostream& out,
                    const std::string& workload_label = "") const;

    /**
     * Writes a human-readable statistics report for the whole system:
     * per-core performance, per-controller DRAM counters, and each
     * scheduler's own diagnostics (gem5-style end-of-run dump).
     */
    void DumpStats(std::ostream& out) const;

    /**
     * The resolved team size: config.channel_jobs (0 = hardware threads)
     * clamped to [1, channels].  1 runs every window inline on the
     * calling thread.
     */
    unsigned channel_jobs() const { return channel_jobs_; }

    /** The engine's lookahead window, in DRAM cycles (>= 1; see DESIGN.md
     *  §5g for the bound). */
    DramCycle lookahead_window() const { return window_; }

    /** Core ticks the sweep skipped and accounted in bulk instead, both
     *  quiescent and steady ones (DESIGN.md §5g, "Dormant cores");
     *  deterministic and the same at every channel_jobs.  The cores'
     *  `cycles` minus this count is the number of ticks the sweep ran. */
    std::uint64_t skipped_core_ticks() const { return skipped_core_ticks_; }

    // --- MemoryPort -------------------------------------------------------
    std::optional<RequestId> TryIssueRead(ThreadId thread, Addr addr) override;
    bool TryIssueWrite(ThreadId thread, Addr addr) override;

  private:
    SystemConfig config_;
    dram::AddressMapper mapper_;

    std::vector<std::unique_ptr<TraceSource>> traces_;
    std::vector<std::unique_ptr<Core>> cores_;
    /**
     * Per-channel request slabs (mem/request_pool.hh).  Declared before
     * the controllers (and the shards below) so the pools are destroyed
     * *after* everything still holding RequestPtrs into them.
     */
    std::vector<std::unique_ptr<RequestPool>> pools_;
    std::vector<std::unique_ptr<Controller>> controllers_;

    /** Constructed only when config.observability.Enabled(). */
    std::unique_ptr<obs::Observability> obs_;
    /** Cached &obs_->sampler(), or null — keeps the Run loop branch cheap. */
    obs::IntervalSampler* sampler_ = nullptr;

    CpuCycle cpu_cycle_ = 0;
    RequestId next_request_id_ = 1;

    /** Total addressable bytes (cached from the geometry). */
    std::uint64_t capacity_bytes_;

    /**
     * Global no-progress detection (active when the controller watchdog is
     * enabled): a monotone progress signature — instructions retired plus
     * DRAM commands issued — must advance within a bounded window while
     * work remains, or the run fails with a WatchdogError carrying the
     * full system statistics dump.
     */
    std::uint64_t progress_signature_ = 0;
    CpuCycle progress_cycle_ = 0;
    CpuCycle progress_bound_cpu_ = 0;
    CpuCycle next_progress_check_ = 0;

    void CheckGlobalProgress();
    std::uint64_t ProgressSignature() const;

    /** @throws ConfigError if @p addr exceeds the configured capacity. */
    void CheckAddr(Addr addr) const;

    /** Read completions awaiting the fixed return-path latency. */
    struct PendingNotify {
        CpuCycle ready;
        ThreadId thread;
        RequestId id;
    };
    std::deque<PendingNotify> notifications_;

    /**
     * The front deadline of notifications_ (kNeverCycle when empty),
     * maintained on every publish and delivery so the per-cycle core sweep
     * probes one cached integer instead of the deque.
     */
    CpuCycle next_notify_ready_ = kNeverCycle;

    void DeliverNotifications();

    /**
     * Cores whose traces have not drained yet, with a per-core done flag
     * to detect the (monotone) transition after each core tick — makes
     * the per-cycle all-done probe O(1) instead of an O(cores) scan.
     */
    std::uint32_t active_cores_ = 0;
    std::vector<std::uint8_t> core_done_;

    // --- dormant cores (DESIGN.md §5g) -------------------------------------

    /** One bit per core, set while the sweep ticks it.  A core sleeps
     *  after a tick without progress (dormant), or after a tick followed
     *  by a steady run (Core::SteadyRun), until WakeCore. */
    std::vector<std::uint64_t> awake_;
    /** Per sleeping core: the first CPU cycle it was not ticked for. */
    std::vector<CpuCycle> asleep_since_;
    /** Per steady sleeper: the cycle its steady run ends and it ticks
     *  again; kNeverCycle for awake and dormant cores. */
    std::vector<CpuCycle> steady_wake_;
    struct SteadyWake {
        CpuCycle cycle;
        ThreadId thread;
        bool operator>(const SteadyWake& other) const
        {
            return cycle > other.cycle;
        }
    };
    /** The steady sleepers' wake cycles, a min-heap; entries that no
     *  longer match steady_wake_ are stale and dropped when popped. */
    std::vector<SteadyWake> wake_heap_;
    /** Queues that rejected the ticking core, as 2 * channel + is_write. */
    std::vector<std::uint32_t> rejected_;
    std::uint64_t skipped_core_ticks_ = 0;

    /** Accounts @p thread's skipped cycles (in closed form for a steady
     *  sleeper) and puts it back in the sweep; a no-op for an awake
     *  core. */
    void WakeCore(ThreadId thread);
    /** Wakes every core registered in @p waiters and clears them. */
    void WakeWaiters(std::vector<std::uint64_t>& waiters);
    /** Wakes the steady sleepers whose runs end at or before this cycle. */
    void WakeSteadySleepers();
    /** Wakes every core, so each Core::stats() is exact at this cycle. */
    void WakeAllCores();
    /** With no core awake: the next CPU cycle the core phase must visit
     *  (a DRAM tick, a notification, a steady wake, a progress check or
     *  @p core_end). */
    CpuCycle NextCoreEvent(CpuCycle core_end) const;

    DramCycle DramNow() const { return cpu_cycle_ / config_.cpu_to_dram_ratio; }

    /** Builds a request from the target channel's slab pool. */
    RequestPtr MakeRequest(ThreadId thread, Addr addr, bool is_write,
                           const dram::DecodedAddr& coords);

    // --- lookahead-window engine (DESIGN.md §5g) --------------------------

    /** One issued request in flight to its channel's worker. */
    struct MailboxEntry {
        DramCycle arrival;
        /** Global issue order across channels; keys trace-merge replay. */
        std::uint64_t seq;
        RequestPtr request;
    };

    /**
     * One contiguous run of events in a channel's staging tracer, tagged
     * with its cycle-order key: controller-tick runs sort by (cycle,
     * channel); arrival runs sort by (arrival cycle, issue seq) after all
     * tick runs of that cycle.  Keys are unique — at most one tick run per
     * (cycle, channel) and one arrival run per enqueue — so the merge
     * order is total and reproduces the emission order of a per-cycle
     * loop (every controller ticks, then the cores issue) exactly.
     */
    struct StagedRun {
        DramCycle cycle;
        std::uint8_t phase; ///< 0 = controller tick, 1 = request arrival
        std::uint64_t order;
        std::uint32_t begin;
        std::uint32_t end;
    };

    struct StagedSample {
        DramCycle cycle;
        obs::ControllerSample data;
    };

    /**
     * Per-channel shard state.  Within a window the coordinator writes the
     * inbox/proxies and the worker reads them (and vice versa for the
     * completion/staging outputs) in strictly alternating phases separated
     * by the team barrier, so no field is ever accessed concurrently.
     */
    struct ChannelShard {
        /** Requests issued by cores this window, in issue order. */
        std::vector<MailboxEntry> inbox;

        /**
         * Exact queue-occupancy proxies driving CanAccept backpressure on
         * the coordinator: incremented at issue, decremented by the retire
         * schedule below.  Asserted equal to the real queue sizes at every
         * barrier.
         */
        std::size_t read_size = 0;
        std::size_t write_size = 0;

        /** Sleeping cores each queue rejected, one bit per core; a
         *  departure from the queue wakes them (ApplyScheduledRetires). */
        std::vector<std::uint64_t> read_waiters;
        std::vector<std::uint64_t> write_waiters;

        /**
         * The retire schedule for the *next* window: every in-burst
         * request retiring before the window's end, known exactly in
         * advance because the window is no longer than the shortest burst
         * latency (Controller::PendingRetires).  Read entries carry the
         * (thread, id) of the eventual completion, so the schedule doubles
         * as the source of the pre-published core notifications
         * (PublishNotifications).
         */
        std::vector<Controller::PendingRead> read_retires;
        std::vector<DramCycle> write_retires;
        std::size_t read_pos = 0;
        std::size_t write_pos = 0;

        /**
         * Read completions the window actually produced, in tick order.
         * Since notifications are published from the retire schedules
         * ahead of execution, this is purely a cross-check: AdvanceChannel
         * asserts it equals the schedule prefix the window ran under.
         */
        std::vector<PendingNotify> completions;

        /** First per-channel error of the window (e.g. WatchdogError). */
        std::exception_ptr error;

        // Staging sinks (null untraced; latency also at one participant).
        std::unique_ptr<obs::Tracer> tracer;
        std::unique_ptr<obs::LatencyAnatomy> latency;
        std::vector<StagedRun> runs;
        std::size_t staged_mark = 0;
        std::vector<StagedSample> samples;
        DramCycle next_sample = kNeverCycle;

        /** Tags events staged since the last mark as one ordered run. */
        void CloseRun(DramCycle cycle, std::uint8_t phase,
                      std::uint64_t order);
    };

    unsigned channel_jobs_ = 1;
    /** Lookahead window in DRAM cycles; see LookaheadWindow(). */
    DramCycle window_ = 0;
    /** Next controller tick to execute == ceil(cpu_cycle_ / ratio) at
     *  every window boundary (the engine's central invariant). */
    DramCycle next_tick_ = 0;
    std::uint64_t arrival_seq_ = 0;
    std::size_t read_capacity_ = 0;
    std::size_t write_capacity_ = 0;
    DramCycle sample_interval_ = 0;

    std::vector<std::unique_ptr<ChannelShard>> shards_;

    /** Current window bounds, published before each team release. */
    DramCycle window_from_ = 0;
    DramCycle window_to_ = 0;
    DramCycle window_limit_ = 0;

    /** Merge scratch, reused across windows. */
    struct TaggedRun {
        StagedRun run;
        std::uint32_t channel;
    };
    std::vector<TaggedRun> merge_runs_;
    /** Per-channel cursor scratch for the notification publish merge. */
    std::vector<std::size_t> publish_pos_;

    // --- engine flight recorder (DESIGN.md §5h) ---------------------------

    /** Constructed only when config.observability.engine_profile. */
    std::unique_ptr<obs::EngineProfiler> engine_profiler_;
    /** Cached raw pointer, same discipline as sampler_: the hot-path gate
     *  is one null check, no unique_ptr deref. */
    obs::EngineProfiler* eng_ = nullptr;
    /** Reused per-channel occupancy scratch for window closes. */
    std::vector<std::uint64_t> prof_occupancy_;

    /** Rethrows a worker-side error; watchdog errors are rewrapped with
     *  the engine state dump appended so a stall shows where the engine
     *  was parked. */
    [[noreturn]] void RethrowShardError(std::exception_ptr error);

    /** Ordered last so its threads join before any state they touch dies. */
    std::unique_ptr<ChannelTeam> team_;

    /** The largest window that preserves cycle-exactness (DESIGN.md §5g):
     *  min(read burst latency, write burst latency) in DRAM cycles — the
     *  earliest a command issued inside a window can complete.  Read
     *  notifications are published ahead of execution, so the return-path
     *  latency no longer bounds the window. */
    DramCycle LookaheadWindow() const;

    /** Worker body: advances this participant's share of the channels. */
    void RunParticipant(unsigned participant);
    void AdvanceChannel(std::uint32_t channel);

    /** Ticks every awake core once, in thread order, puts the ones that
     *  made no progress or face a steady run to sleep, and tracks the
     *  (monotone) done transitions for the O(1) end-of-run probe.
     *  @return whether any core is still awake. */
    bool TickCores();

    /**
     * Rebuilds the pre-published notification schedule at a window
     * boundary: drops the (provably undelivered) suffix for ticks >=
     * next_tick_ and re-appends the shards' fresh read-retire schedules,
     * k-way merged by (completion, channel) — the order in which the
     * controllers' read-complete callbacks fire.
     */
    void PublishNotifications();

    /** Applies scheduled retires with completion <= @p tick to proxies,
     *  waking the cores each departing queue rejected. */
    void ApplyScheduledRetires(DramCycle tick);

    /** Re-establishes coordinator state from the real controllers at the
     *  start of a Run (schedules, proxies, sampler cursors, every core
     *  awake). */
    void PrepareRun();

    /** Folds the window's outputs back into the cycle-order structures:
     *  notifications, trace, latency, samples; verifies the proxies. */
    void MergeWindow();
    void MergeObservability();

    /** Points controllers and adapters at the staging (or main) sinks. */
    void BindShardObservability(bool staging);
};

} // namespace parbs

#endif // PARBS_SIM_SYSTEM_HH
