/**
 * @file
 * The trace-driven processor core model.
 *
 * The paper's observation (Section 2) reduces the frontend's role to this
 * contract: instructions commit in order; the window fills a few cycles
 * after a last-level-cache miss and the core stalls until the *oldest*
 * miss returns; misses that are independent and in the window together are
 * serviced in parallel (memory-level parallelism), so the core stalls once
 * for the overlapped group rather than once per miss.
 *
 * This model implements exactly that contract with the paper's baseline
 * parameters: a 128-entry instruction window, 3-wide fetch/commit with at
 * most one memory operation per cycle, and a 32-entry MSHR bound on
 * outstanding reads.  Loads block commit until their DRAM data returns;
 * stores retire into the controller's write buffer.  A trace entry can be
 * flagged dependent (`depends_on_prev`), in which case its access does not
 * issue until all earlier accesses complete — the generator's model of
 * pointer chasing.
 */

#ifndef PARBS_CPU_CORE_HH
#define PARBS_CPU_CORE_HH

#include <cstdint>
#include <deque>

#include "common/types.hh"
#include "trace/trace.hh"

namespace parbs {

/** Core microarchitecture parameters (paper Table 2 baseline). */
struct CoreConfig {
    std::uint32_t window_size = 128;
    /** Fetch/exec/commit width; at most one memory op per cycle. */
    std::uint32_t width = 3;
    /** Maximum outstanding read misses (L2 MSHRs). */
    std::uint32_t mshrs = 32;

    /** @throws ConfigError on nonsensical values. */
    void Validate() const;
};

/** Per-core performance counters. */
struct CoreStats {
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    /** Cycles the core could not commit because the oldest instruction is
     *  an incomplete DRAM load (the paper's memory stall time). */
    std::uint64_t load_stall_cycles = 0;
    /** Cycles commit was blocked behind a store that could not enter the
     *  (full) write buffer. */
    std::uint64_t store_stall_cycles = 0;
    std::uint64_t loads_issued = 0;
    std::uint64_t loads_completed = 0;
    std::uint64_t stores_issued = 0;

    /** Memory cycles per instruction (Table 3's MCPI). */
    double
    Mcpi() const
    {
        return instructions == 0
                   ? 0.0
                   : static_cast<double>(load_stall_cycles +
                                         store_stall_cycles) /
                         static_cast<double>(instructions);
    }

    double
    Ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(instructions) /
                                 static_cast<double>(cycles);
    }

    /** Average stall time per DRAM (load) request — Table 3's AST/req. */
    double
    AstPerRequest() const
    {
        return loads_completed == 0
                   ? 0.0
                   : static_cast<double>(load_stall_cycles) /
                         static_cast<double>(loads_completed);
    }

    /** L2 misses (reads + writes) per 1000 committed instructions. */
    double
    Mpki() const
    {
        return instructions == 0
                   ? 0.0
                   : 1000.0 *
                         static_cast<double>(loads_issued + stores_issued) /
                         static_cast<double>(instructions);
    }
};

/**
 * The interface through which a core reaches the memory system.  The
 * System implements it by routing to the per-channel controllers.
 */
class MemoryPort {
  public:
    virtual ~MemoryPort() = default;

    /**
     * Attempts to issue a read.  @return the assigned request id, or
     * nullopt if the target controller's request buffer is full (the core
     * retries next cycle).
     */
    virtual std::optional<RequestId> TryIssueRead(ThreadId thread,
                                                  Addr addr) = 0;

    /** Attempts to issue a write. @return false if the write buffer is
     *  full (the core retries next cycle). */
    virtual bool TryIssueWrite(ThreadId thread, Addr addr) = 0;
};

/** One processor core executing one thread's trace. */
class Core {
  public:
    Core(const CoreConfig& config, ThreadId thread, TraceSource& trace,
         MemoryPort& port);

    /**
     * Advances the core by one CPU cycle.  @return whether the tick made
     * progress: committed, issued or fetched anything (a TraceSource::Next
     * call counts, since sources are stateful).  A tick without progress
     * moved only `cycles` and at most one stall counter, and every later
     * tick repeats it exactly until one of the core's reads returns or a
     * queue that rejected it frees a slot (DESIGN.md §5g, "Dormant
     * cores").  A done core never makes progress.
     */
    bool Tick();

    /**
     * Adds exactly what @p n more ticks without progress add: `cycles`,
     * plus `load_stall_cycles` behind an outstanding load at the head or
     * `store_stall_cycles` behind an unissued store.
     * @pre the last Tick() returned false and nothing reached the core
     *      since.
     */
    void SkipQuiescentCycles(std::uint64_t n);

    /**
     * The number k of upcoming ticks that are *steady*: each commits
     * `width` instructions, issues nothing and fetches only compute
     * instructions of the trace entry in progress, unless a read returns
     * first (DESIGN.md §5g, "Dormant cores").  0 when a memory operation
     * is unissued, when no entry is being fetched (the next fetch would
     * call TraceSource::Next) or when fewer than `width` instructions are
     * in the window.  Otherwise k = min(compute left to fetch, committable
     * prefix) / width, where the prefix ends at the oldest load whose
     * data has not returned.
     */
    std::uint64_t SteadyRun() const;

    /**
     * Applies exactly what @p n more steady ticks apply: `cycles`,
     * `instructions` and the window turning over by n * width.
     * @pre n <= SteadyRun() and nothing reached the core since.
     */
    void AdvanceSteady(std::uint64_t n);

    /** Notification that the DRAM read with @p id returned its data. */
    void OnReadComplete(RequestId id);

    /** @return true once the trace is exhausted and the window drained. */
    bool Done() const;

    ThreadId thread() const { return thread_; }
    const CoreStats& stats() const { return stats_; }

  private:
    /** One window slot: a run of compute instructions or one memory op. */
    struct Slot {
        enum class Kind : std::uint8_t { kCompute, kLoad, kStore };
        Kind kind = Kind::kCompute;
        /** Compute instructions in this slot (kCompute only). */
        std::uint32_t count = 0;
        Addr addr = 0;
        bool depends_on_prev = false;
        bool issued = false;
        bool done = false;
        RequestId request_id = 0;
    };

    CoreConfig config_;
    ThreadId thread_;
    TraceSource& trace_;
    MemoryPort& port_;

    std::deque<Slot> window_;
    std::uint32_t window_occupancy_ = 0;

    /** Unissued memory slots, oldest first (points into window_). */
    std::deque<Slot*> unissued_;

    std::uint32_t outstanding_loads_ = 0;

    /** Entry currently being fetched (compute portion may be partial). */
    std::optional<TraceEntry> fetching_;
    std::uint32_t fetch_compute_left_ = 0;
    bool trace_exhausted_ = false;

    CoreStats stats_;

    /** The stall counter a cycle without commit charges (null when the
     *  window is empty or its head can commit). */
    std::uint64_t* HeadStallCounter();

    /** Appends @p n fetched compute instructions at the window's tail,
     *  joining a trailing compute slot. */
    void AppendCompute(std::uint32_t n);

    /** Each returns whether it made progress. */
    bool Commit();
    bool IssueMemory();
    bool Fetch();
};

} // namespace parbs

#endif // PARBS_CPU_CORE_HH
