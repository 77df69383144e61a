/**
 * @file
 * The DRAM scheduling framework.
 *
 * Each DRAM cycle the controller computes the set of *ready* candidates —
 * requests whose next DRAM command passes every bank / rank / bus timing
 * check — and asks the scheduler to pick one.  A scheduler is therefore a
 * prioritizer plus lifecycle hooks; the paper's Rule 1 (batch formation),
 * Rule 2 (request prioritization) and Rule 3 (thread ranking) map directly
 * onto OnDramCycle / Better / batch-formation code in ParBsScheduler.
 *
 * Selection is two-level (DESIGN.md §5e): the controller asks the scheduler
 * for each bank's best request via PickInBank() — which walks the request
 * buffer's per-bank chain and, for comparator schedulers whose order is
 * stable between invalidations, memoizes the winner — and then for the best
 * among the ready per-bank winners via Pick().
 *
 * Thread weights (NFQ, STFM) and thread priorities (PAR-BS, Section 5) are
 * part of the common interface so the benchmark harness can configure any
 * scheduler uniformly.
 */

#ifndef PARBS_SCHED_SCHEDULER_HH
#define PARBS_SCHED_SCHEDULER_HH

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "dram/command.hh"
#include "mem/request.hh"
#include "mem/request_queue.hh"
#include "sched/observer.hh"

namespace parbs {

namespace dram {
class Bank;
class Channel;
} // namespace dram

/** Environment handed to a scheduler when it is attached to a controller. */
struct SchedulerContext {
    const RequestQueue* read_queue = nullptr;
    /** The write buffer; lets a scheduler tell which queue a per-bank pick
     *  is for (may be null in harnesses that drive Pick() directly). */
    const RequestQueue* write_queue = nullptr;
    /** Live bank state, used by PickInBank() to derive row-hit status and
     *  next commands (may be null in harnesses that drive Pick() directly;
     *  PickInBank() requires it). */
    const dram::Channel* channel = nullptr;
    std::uint32_t num_threads = 0;
    std::uint32_t num_ranks = 0;
    std::uint32_t banks_per_rank = 0;
    /** DRAM timing the scheduler may reason about (e.g. NFQ's tRAS rule). */
    const dram::TimingParams* timing = nullptr;

    std::uint32_t NumBanks() const { return num_ranks * banks_per_rank; }
};

/** A schedulable request together with its next command and row-hit status. */
struct Candidate {
    MemRequest* request = nullptr;
    dram::CommandType next_command = dram::CommandType::kActivate;
    /** True if the request's row is currently open in its bank. */
    bool row_hit = false;
    /** Cycle the bank's current row was opened (kNeverCycle if closed);
     *  NFQ's priority-inversion prevention uses this against tRAS. */
    DramCycle row_open_since = kNeverCycle;
};

/** Abstract DRAM scheduler. */
class Scheduler {
  public:
    virtual ~Scheduler() = default;

    /** Human-readable algorithm name, e.g. "PAR-BS". */
    virtual std::string name() const = 0;

    /** Binds the scheduler to a controller's queues and configuration. */
    virtual void Attach(const SchedulerContext& context);

    /**
     * Selects the request to service among @p candidates (non-empty); the
     * controller then issues that request's next command.  May return
     * nullptr to deliberately leave the cycle idle (strict-order policies
     * such as FCFS do this while the oldest request's command is not yet
     * ready).
     */
    virtual MemRequest* Pick(std::span<const Candidate> candidates,
                             DramCycle now) = 0;

    /**
     * The scheduler's best request among @p bank's queued requests in
     * @p queue, or nullptr to leave the bank idle.  The default walks the
     * queue's per-bank chain, materializes candidates into a reused scratch
     * buffer, and delegates to Pick(); ComparatorScheduler overrides it
     * with a memoized chain walk.  Requires context.channel.
     *
     * Must agree with Pick() run over the same candidates: the scan oracle
     * in tests/oracle/ replays every DRAM cycle's selection through Pick()
     * alone and fails on any difference (a stale memoized winner, say).
     */
    virtual MemRequest* PickInBank(const RequestQueue& queue,
                                   std::uint32_t bank, DramCycle now);

    /**
     * True if Pick() is a pure function of (candidates, now, scheduler
     * state) — no RNG draws or other side effects.  The scan oracle in
     * tests/oracle/ calls Pick() a second time each cycle, which is only
     * sound for deterministic schedulers, so it switches itself off when
     * this is false; fault-injection wrappers that draw random numbers in
     * Pick() return false.
     */
    virtual bool DeterministicPick() const { return true; }

    // --- Lifecycle hooks -------------------------------------------------

    /** A new request entered the read or write queue. */
    virtual void OnRequestQueued(MemRequest& request, DramCycle now);

    /** A DRAM command was issued on behalf of @p request. */
    virtual void OnCommandIssued(const MemRequest& request,
                                 const dram::Command& command, DramCycle now);

    /** @p request finished its data burst and leaves the buffer. */
    virtual void OnRequestComplete(const MemRequest& request, DramCycle now);

    /** Called once per DRAM cycle before candidates are gathered. */
    virtual void OnDramCycle(DramCycle now);

    // --- System-software knobs (Section 5) -------------------------------

    /**
     * Sets a thread's priority level (1 = highest; kOpportunisticPriority =
     * the paper's level "L").  Meaningful for PAR-BS; other schedulers may
     * approximate priorities through weights.
     */
    void SetThreadPriority(ThreadId thread, ThreadPriority priority);

    /** Sets a thread's bandwidth weight (NFQ shares / STFM weights). */
    void SetThreadWeight(ThreadId thread, double weight);

    /**
     * Attaches the policy-event observer (null to detach).  The base class
     * reports knob changes; schedulers with batch semantics additionally
     * report batch / rank / marking events through the same observer.
     */
    void SetObserver(SchedulerObserver* observer) { observer_ = observer; }
    SchedulerObserver* observer() const { return observer_; }

    ThreadPriority thread_priority(ThreadId thread) const;
    double thread_weight(ThreadId thread) const;

    /**
     * Named diagnostic statistics (algorithm-specific): batch counts,
     * slowdown estimates, adaptive state...  Intended for logging and
     * debugging; keys are stable within a scheduler class.
     */
    virtual std::vector<std::pair<std::string, double>> Stats() const;

    /**
     * Requests outstanding in the scheduler's current service unit (PAR-BS:
     * the open batch's marked requests); 0 for schedulers without batching
     * semantics.  The forward-progress watchdog derives the batch-completion
     * bound (the paper's starvation-freedom guarantee) from this.
     */
    virtual std::uint64_t BatchOutstanding() const { return 0; }

    /**
     * Pick-memo accounting for the engine flight recorder (DESIGN.md §5h).
     * Deterministic: counts follow the selection sequence, which is
     * bit-identical across every parallelism setting.  All-zero for
     * schedulers without a memo (including comparator schedulers that opt
     * out via PickMemoStable, e.g. NFQ).
     */
    struct PickMemoCounters {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t invalidations = 0;
    };
    virtual PickMemoCounters MemoCounters() const { return {}; }

  protected:
    /**
     * Notification that a thread priority or weight changed; comparator
     * schedulers use it to invalidate memoized per-bank picks whose order
     * may depend on the knobs.
     */
    virtual void OnSchedulingKnobChanged() {}

    /** Live state of controller-local flat @p bank (requires channel). */
    const dram::Bank& BankState(std::uint32_t flat_bank) const;

    /** Builds the Candidate record for @p request from live bank state. */
    Candidate MakeCandidate(MemRequest& request,
                            const dram::Bank& bank) const;

    SchedulerContext context_;
    std::vector<ThreadPriority> priorities_;
    std::vector<double> weights_;
    /** Policy-event sink; null when observability is off. */
    SchedulerObserver* observer_ = nullptr;

  private:
    /** Reused candidate scratch for the default PickInBank(). */
    std::vector<Candidate> bank_scratch_;
};

/**
 * Convenience base for schedulers expressible as a strict-weak-order over
 * candidates.  Implements Pick() as "best under Better(), with DRAM reads
 * preferred over DRAM writes" — every scheduler in the paper prioritizes
 * reads over writes because reads block the cores (Section 7.2).
 *
 * PickInBank() memoizes the per-bank winner for schedulers that declare
 * their order stable (PickMemoStable()): the cached pick is reused while
 * the bank's chain generation, the bank's row generation, and the
 * scheduler's pick epoch are all unchanged, making steady-state selection
 * O(1) per bank instead of O(queued-in-bank).
 */
class ComparatorScheduler : public Scheduler {
  public:
    void Attach(const SchedulerContext& context) override;

    MemRequest* Pick(std::span<const Candidate> candidates,
                     DramCycle now) final;

    MemRequest* PickInBank(const RequestQueue& queue, std::uint32_t bank,
                           DramCycle now) override;

    PickMemoCounters MemoCounters() const override
    {
        return memo_counters_;
    }

  protected:
    /**
     * @return true if @p a should be serviced in preference to @p b.
     * Both candidates are of the same kind (both reads or both writes).
     */
    virtual bool Better(const Candidate& a, const Candidate& b,
                        DramCycle now) const = 0;

    /**
     * Opt-in for the per-bank pick memo.  A subclass may return true only
     * if Better() is a pure function of the candidates and of scheduler
     * state whose every change is announced via InvalidateBankPicks() —
     * in particular it must not read `now` or any per-cycle mutable state.
     * Defaults to false (always re-walk the chain), which is always
     * correct.
     */
    virtual bool PickMemoStable() const { return false; }

    /**
     * Declares every memoized per-bank pick stale.  Subclasses call this
     * whenever comparator-visible state changes outside the request buffer
     * (batch formation, re-marking, ranking or fairness-mode updates).
     */
    void InvalidateBankPicks()
    {
        pick_epoch_ += 1;
        memo_counters_.invalidations += 1;
    }

    void OnSchedulingKnobChanged() override { InvalidateBankPicks(); }

  private:
    /** Winner cache for one (queue, bank); validity is generation-keyed. */
    struct PickMemo {
        MemRequest* winner = nullptr;
        /** Matching RequestQueue::BankGeneration (0 = never valid). */
        std::uint64_t queue_gen = 0;
        /** Matching dram::Bank::row_generation (0 = never valid). */
        std::uint64_t row_gen = 0;
        /** Matching pick_epoch_ (0 = never valid). */
        std::uint64_t epoch = 0;
    };

    /** Best queued request of @p bank by Better(), via the bank chain. */
    MemRequest* PickFromChain(const RequestQueue& queue, std::uint32_t bank,
                              const dram::Bank& state, DramCycle now) const;

    /** [queue_index * NumBanks + bank]; queue 0 = reads, 1 = writes. */
    std::vector<PickMemo> pick_memo_;
    std::uint64_t pick_epoch_ = 1;
    PickMemoCounters memo_counters_;
};

} // namespace parbs

#endif // PARBS_SCHED_SCHEDULER_HH
