/**
 * @file
 * The DRAM memory controller: request buffering, write handling, refresh,
 * per-cycle command selection via a pluggable Scheduler, and the per-thread
 * DRAM-side statistics (row-buffer hit rate, bank-level parallelism,
 * request latencies) used throughout the paper's evaluation.
 */

#ifndef PARBS_MEM_CONTROLLER_HH
#define PARBS_MEM_CONTROLLER_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "dram/channel.hh"
#include "mem/ras.hh"
#include "mem/request.hh"
#include "mem/request_queue.hh"
#include "mem/scrubber.hh"
#include "mem/watchdog.hh"
#include "sched/scheduler.hh"

namespace parbs {

namespace obs {
class Tracer;
class LatencyAnatomy;
} // namespace obs

/** Controller sizing and policy knobs (paper baseline in defaults). */
struct ControllerConfig {
    /** Memory request buffer entries (reads). */
    std::size_t read_queue_capacity = 128;
    /** Write data buffer entries. */
    std::size_t write_queue_capacity = 64;
    /**
     * Write-drain watermarks.  The paper's policy is strict read-over-write
     * priority; writes are serviced when no read command is ready.  As
     * overflow protection — real controllers must bound the write buffer —
     * once the write queue reaches `write_drain_high` writes win over reads
     * until it falls to `write_drain_low`.
     */
    std::size_t write_drain_high = 56;
    std::size_t write_drain_low = 24;
    /**
     * Re-validate every issued DRAM command against an independent shadow
     * model of the JEDEC constraints (see dram/protocol_checker.hh); a
     * violation throws ProtocolError with full command-history context.
     */
    bool protocol_check = false;
    /** Forward-progress watchdog (starvation / batch / deadlock bounds). */
    WatchdogConfig watchdog;
    /**
     * RAS: deterministic device error model, ECC outcome classification
     * with bounded retry + row retirement, and patrol scrubbing (DESIGN.md
     * §6).  Disabled by default; when disabled no RAS state is allocated
     * and every hook is one null-pointer branch (the PR 5 discipline).
     */
    RasConfig ras;

    /** @throws ConfigError on invalid sizing or watermarks. */
    void Validate() const;
};

/** Per-thread statistics gathered at the controller. */
struct ControllerThreadStats {
    std::uint64_t reads_completed = 0;
    std::uint64_t writes_completed = 0;

    /** Row-buffer outcome of the *first* command of each read request. */
    std::uint64_t read_row_hits = 0;
    std::uint64_t read_row_closed = 0;
    std::uint64_t read_row_conflicts = 0;

    /** Sum/max of read-request latency (arrival to data), DRAM cycles. */
    std::uint64_t read_latency_sum = 0;
    std::uint64_t read_latency_max = 0;

    /**
     * Bank-level parallelism accounting: `blp_sum` accumulates, for every
     * DRAM cycle in which this thread had at least one request in service,
     * the number of banks concurrently servicing the thread's requests
     * (the Section 7 definition, after Chou et al.'s MLP metric).
     */
    std::uint64_t blp_sum = 0;
    std::uint64_t blp_cycles = 0;

    double
    RowHitRate() const
    {
        const std::uint64_t total =
            read_row_hits + read_row_closed + read_row_conflicts;
        return total == 0 ? 0.0
                          : static_cast<double>(read_row_hits) /
                                static_cast<double>(total);
    }

    double
    AverageBlp() const
    {
        return blp_cycles == 0 ? 0.0
                               : static_cast<double>(blp_sum) /
                                     static_cast<double>(blp_cycles);
    }

    double
    AverageReadLatency() const
    {
        return reads_completed == 0
                   ? 0.0
                   : static_cast<double>(read_latency_sum) /
                         static_cast<double>(reads_completed);
    }
};

/**
 * One memory controller driving one channel.
 *
 * The controller is ticked at the DRAM command clock.  Each tick it retires
 * finished bursts, performs mandatory refreshes, gathers ready candidates,
 * and issues at most one command chosen by the scheduler.
 */
class Controller {
  public:
    /** Invoked when read data returns; @p now is the retiring DRAM cycle
     *  (the sharded System derives the CPU-side delivery time from it). */
    using ReadCompleteCallback =
        std::function<void(const MemRequest&, DramCycle now)>;

    Controller(const ControllerConfig& config,
               const dram::TimingParams& timing,
               const dram::Geometry& geometry, std::uint32_t num_threads,
               std::unique_ptr<Scheduler> scheduler);

    /** Registers the completion callback invoked when read data returns. */
    void SetReadCompleteCallback(ReadCompleteCallback callback);

    /** @return true if the read request buffer has space. */
    bool CanAcceptRead() const { return !read_queue_.Full(); }

    /** @return true if the write buffer has space. */
    bool CanAcceptWrite() const { return !write_queue_.Full(); }

    /**
     * Enqueues a request; the controller takes ownership.
     * @pre the corresponding CanAccept*() returned true.
     */
    void Enqueue(RequestPtr request, DramCycle now);

    /** Advances the controller and its channel by one DRAM cycle. */
    void Tick(DramCycle now);

    Scheduler& scheduler() { return *scheduler_; }
    const Scheduler& scheduler() const { return *scheduler_; }
    const dram::Channel& channel() const { return channel_; }

    const RequestQueue& read_queue() const { return read_queue_; }
    const RequestQueue& write_queue() const { return write_queue_; }
    std::uint32_t num_threads() const { return num_threads_; }

    /**
     * Attaches the observability sinks (DESIGN.md §5f).  Either pointer may
     * be null; both default to null, in which case every emission site
     * reduces to one predictable not-taken branch.  @p channel_id tags the
     * emitted events with this controller's channel index.
     */
    void AttachObservability(obs::Tracer* tracer,
                             obs::LatencyAnatomy* latency,
                             std::uint8_t channel_id);

    const ControllerThreadStats& thread_stats(ThreadId thread) const;

    /** Number of reads currently buffered (queued or in burst). */
    std::size_t pending_reads() const { return read_queue_.size(); }
    std::size_t pending_writes() const { return write_queue_.size(); }

    /**
     * One scheduled read retirement: its completion cycle plus the thread
     * and id the read-complete notification will carry.  The sharded
     * System turns these into core notifications *before* the retiring
     * tick runs (DESIGN.md §5g adaptive lookahead).
     */
    struct PendingRead {
        DramCycle done;
        ThreadId thread;
        RequestId id;
    };

    /**
     * Appends every in-burst request that will retire strictly before
     * @p limit, in retirement order, to the output vectors (reads and
     * writes separately).  This is the sharded System's retire schedule
     * (DESIGN.md §5g): with a lookahead window no longer than the shortest
     * burst latency, no command issued during the window can complete
     * inside it, so these prefixes are *exactly* the queue departures of
     * the next window — known before it runs.  Read entries additionally
     * carry the (thread, id) of the eventual completion notification;
     * ECC-failed reads are excluded (they requeue instead of notifying).
     */
    void PendingRetires(DramCycle limit, std::vector<PendingRead>& reads,
                        std::vector<DramCycle>& writes) const;

    /** Total DRAM commands issued, by type (ACT/PRE/RD/WR/REF). */
    std::uint64_t commands_issued(dram::CommandType type) const;

    /** Total DRAM commands issued, all types. */
    std::uint64_t total_commands_issued() const;

    /**
     * Enables shadow protocol checking against @p reference timing (which
     * may deliberately differ from the timing driving the device model —
     * the fault-injection seam).  The config flag covers the normal path.
     */
    void EnableProtocolCheck(const dram::TimingParams& reference);

    /** @return the attached checker, or nullptr when checking is off. */
    const dram::ProtocolChecker* protocol_checker() const
    {
        return channel_.protocol_checker();
    }

    /** Structured state dump: queues, bank states, scheduler state. */
    std::string Diagnostics(DramCycle now) const;

    /** Fast-path effectiveness counters (micro_scheduler_cost / tests). */
    struct FastPathStats {
        /** Cycles that ran the full candidate scan. */
        std::uint64_t select_scans = 0;
        /** Cycles the cached next-event bound skipped the scan. */
        std::uint64_t select_skips = 0;
        /** Cycles that ran the retirement scan. */
        std::uint64_t retire_scans = 0;
    };

    const FastPathStats& fast_path_stats() const { return fast_stats_; }

    /** RAS engine (error/retry/retirement books), or null when disabled. */
    const RasEngine* ras() const { return ras_.get(); }

    /** Patrol scrubber, or null when scrubbing is off. */
    const Scrubber* scrubber() const { return scrubber_.get(); }

  private:
    ControllerConfig config_;
    dram::Channel channel_;
    std::uint32_t num_threads_;
    std::unique_ptr<Scheduler> scheduler_;

    RequestQueue read_queue_;
    RequestQueue write_queue_;

    ReadCompleteCallback read_complete_;

    bool write_drain_active_ = false;

    std::unique_ptr<ForwardProgressWatchdog> watchdog_;
    /** Cycle the last DRAM command (any type) was issued. */
    DramCycle last_command_cycle_ = kNeverCycle;

    /** RAS engine; null unless config.ras.enabled (the gating branch). */
    std::unique_ptr<RasEngine> ras_;
    /** Patrol scrubber; null unless RAS is on and scrub_interval > 0. */
    std::unique_ptr<Scrubber> scrubber_;

    /** Observability sinks; null when tracing is off (the gating branch). */
    obs::Tracer* tracer_ = nullptr;
    obs::LatencyAnatomy* latency_obs_ = nullptr;
    std::uint8_t channel_id_ = 0;
    /** Open fast-path skip span (traced runs only): start + length. */
    DramCycle skip_span_start_ = 0;
    std::uint64_t skip_span_len_ = 0;

    std::vector<ControllerThreadStats> stats_;
    std::uint64_t commands_by_type_[5] = {0, 0, 0, 0, 0};

    /** [thread * num_banks + flat_bank] count of in-service requests. */
    std::vector<std::uint32_t> in_service_;
    /** Number of banks with >= 1 in-service request, per thread. */
    std::vector<std::uint32_t> busy_banks_;
    /** Bit t of word t / 64 is set iff busy_banks_[t] > 0. */
    std::vector<std::uint64_t> busy_threads_;

    /** Finalist scratch buffer reused across cycles. */
    std::vector<Candidate> finalists_;

    /**
     * Next-event caches (see DESIGN.md "Hot-loop fast path").  Both are
     * conservative lower bounds on when the guarded scan can next do work;
     * kNeverCycle means "not until an invalidating event".
     *
     * `next_select_cycle_`: no queued request's next command, and no
     * scrub command, can pass CanIssue before this cycle (RAS holds aside;
     * ranks with a refresh due excluded).  Set by a selection scan that
     * issues nothing, from the bound its walk and TryScrub fold; valid
     * until a request arrives or any command issues (both reset it to 0),
     * or — with a scrubber — any retirement check runs.
     *
     * `next_retire_check_`: the earliest completion cycle among in-burst
     * requests; maintained at issue time and recomputed on retirement.
     */
    DramCycle next_select_cycle_ = 0;
    DramCycle next_retire_check_ = kNeverCycle;

    /**
     * One in-flight data burst: its (pre-known) completion cycle, the
     * request, and the ECC verdict drawn at issue time.  A failed read
     * (`ecc_fail`) never retires — at its completion cycle it re-enters
     * the read queue for a retry instead — so the sharded retire schedule
     * (PendingRetires) excludes it.
     */
    struct InFlight {
        DramCycle done;
        const MemRequest* request;
        ThreadId thread;
        bool ecc_fail;
    };

    /**
     * In-burst requests per queue, in completion order.  Burst latency is
     * a per-queue constant (tCL+tBURST for reads, tCWL+tBURST for writes)
     * and commands issue on distinct cycles, so issue order is completion
     * order — retirement pops fronts instead of scanning the buffers.
     */
    std::deque<InFlight> inburst_reads_;
    std::deque<InFlight> inburst_writes_;

    FastPathStats fast_stats_;

    void RetireFinished(DramCycle now);
    /** @return true if a refresh-related command consumed this cycle. */
    bool HandleRefresh(DramCycle now);
    /**
     * Two-level request selection (Section 3: "a possibly two-level
     * scheduler"): for each bank, the scheduler picks its highest-priority
     * queued request; banks whose winner has a ready command produce a
     * finalist, and the scheduler picks among finalists.  A bank whose
     * top-priority request is still timing-blocked issues nothing — this
     * request-level prioritization is what lets a stream of row hits
     * capture a bank under FR-FCFS and lets PAR-BS's marked requests own
     * their banks.
     *
     * Indexed (DESIGN.md §5e): one walk over the queue's occupied banks
     * probes each bank once (ProbeBank), skips refresh-blocked and held
     * banks and banks with no command type ready, and asks the scheduler
     * for each remaining bank's memoized winner — O(occupied banks +
     * queued-in-contending-banks) per cycle instead of O(buffered
     * requests).  The same walk folds into @p bound the skip-ahead bound
     * that next_select_cycle_ takes when the scan issues nothing: the
     * earliest cycle any queued request's next command passes timing, or
     * now + 1 if that is sooner or a finalist was found.
     * @return the chosen request, or nullptr if nothing can issue.
     */
    MemRequest* SelectRequest(const RequestQueue& queue, DramCycle now,
                              DramCycle& bound);

    /**
     * Earliest issue cycle of each command type a request of one queue
     * could need in one bank — kActivate when the bank is closed; the
     * queue's column command and kPrecharge when a row is open — and
     * kNeverCycle for the types it cannot need.  Timing legality is
     * row-independent, so these answer for every request in the bank, and
     * CanIssue(cmd, now) is exactly now >= For(cmd.type).
     */
    struct BankReadiness {
        DramCycle activate = kNeverCycle;
        DramCycle column = kNeverCycle;
        DramCycle precharge = kNeverCycle;

        DramCycle
        Earliest() const
        {
            return std::min({activate, column, precharge});
        }
        DramCycle
        For(dram::CommandType type) const
        {
            switch (type) {
              case dram::CommandType::kActivate:
                return activate;
              case dram::CommandType::kRead:
              case dram::CommandType::kWrite:
                return column;
              case dram::CommandType::kPrecharge:
                return precharge;
              case dram::CommandType::kRefresh:
                break;
            }
            return kNeverCycle;
        }

        /**
         * Earliest cycle any request of @p chain (the bank's queued
         * requests, @p open_row its open row) could issue its next
         * command: for an open bank the earlier of the two types counts
         * only if some request needs it, and every request needs one of
         * them.  Walks the chain up to the first such request.
         */
        DramCycle
        Needed(RequestQueue::BankChain chain, std::uint32_t open_row) const
        {
            if (column == precharge) {
                // A closed bank (both kNeverCycle), or a tie.
                return Earliest();
            }
            const bool column_first = column < precharge;
            for (const MemRequest* request : chain) {
                if ((request->coords.row == open_row) == column_first) {
                    return std::min(column, precharge);
                }
            }
            return std::max(column, precharge);
        }
    };

    /** One EarliestIssue probe per type a request whose column command
     *  is @p column could need in bank @p state. */
    BankReadiness ProbeBank(const dram::Bank& state, std::uint32_t rank,
                            std::uint32_t bank_in_rank,
                            dram::CommandType column) const;

    void IssueFor(MemRequest& request, DramCycle now);

    /**
     * Handles an uncorrectable read at its completion cycle: requeues the
     * request for a controller-issued retry under a per-bank backoff hold,
     * retiring the row first once the retry budget is exhausted.
     * @throws MachineCheckError if retirement finds the remap table full.
     */
    void RetryFailedRead(RequestPtr request, DramCycle now);

    /**
     * Moves (rank, bank, row) into the remap table with graceful-
     * degradation accounting.  @p thread tags the trace event
     * (kInvalidThread for scrub-triggered retirement).
     * @throws MachineCheckError when the table is at capacity.
     */
    void RetireRow(ThreadId thread, std::uint32_t rank, std::uint32_t bank,
                   std::uint32_t row, DramCycle now);

    /**
     * Issues at most one patrol-scrub command (DESIGN.md §6 arbitration:
     * only on cycles where demand selection produced nothing, no refresh
     * issued, no write drain, and the read queue sits below the demotion
     * watermark).  When it declines, it folds into @p bound the earliest
     * cycle it could issue without a retirement or another command in
     * between: the scrub clock, or the scrub command's EarliestIssue.
     * @return true if a command was issued.
     */
    bool TryScrub(DramCycle now, DramCycle& bound);

    /** Closes the completed scrub read: classification bookkeeping and —
     *  for an uncorrectable row — proactive retirement. */
    void FinishScrub(DramCycle now);

    /** Recomputes next_retire_check_ from the in-burst requests. */
    void RecomputeNextRetire();

    /**
     * Advances the write-drain watermark state machine from the current
     * write-queue size.  Called wherever the per-cycle loop used to sample
     * it: at every selection scan, and from RetireFinished so that a dip to
     * the low watermark inside a skip window is never missed (hysteresis is
     * path-dependent).  @p now is only used for event timestamps.
     */
    void UpdateWriteDrain(DramCycle now);

    /**
     * Counts an issued command and feeds the progress tracker; on traced
     * runs also emits a kCommand event.  @p thread / @p flat_bank / @p row
     * describe the command's target (sentinels for refresh).
     */
    void RecordCommand(dram::CommandType type, DramCycle now,
                       ThreadId thread, std::uint32_t flat_bank,
                       std::uint32_t row);

    /** Emits and closes the open fast-path skip span, if any. */
    void FlushSkipSpan();

    std::uint32_t FlatBank(const MemRequest& request) const;
    void EnterService(const MemRequest& request);
    void LeaveService(const MemRequest& request);
    void SampleBlp();
};

} // namespace parbs

#endif // PARBS_MEM_CONTROLLER_HH
