/**
 * @file
 * Flight recorder for the simulation engine itself (DESIGN.md §5h).
 *
 * The PR 5 observability layer sees requests and banks; this profiler sees
 * the machinery that simulates them: how long each participant of the
 * channel team spends in each engine phase, how full the lookahead windows
 * run, and how evenly the request stream spreads across the channel
 * shards.  Its measurements split into two strictly separated families:
 *
 * - **Deterministic counters** — window count and tick histogram, per-
 *   channel arrivals and per-window arrival imbalance, queue occupancy
 *   sampled at window closes — are pure functions of the simulated
 *   schedule and must stay byte-identical across `--jobs` and
 *   `--channel-jobs` (the serial engine replicates the sharded engine's
 *   window accounting so both report the same numbers).  They export
 *   under the bench JSON `run` subtree.
 *
 * - **Volatile wall-clock timings** — per-participant ticks in each phase
 *   (coordinator core sweep, channel work, barrier and park waits,
 *   publish, merge) via a TSC-style clock sampled only at phase
 *   boundaries.  They export under `env`, and per-window records
 *   feed Chrome trace lanes on a synthetic "engine" process.
 *
 * Thread-safety: each participant writes only its own cache-line-padded
 * slot; the coordinator reads and folds the slots only between team
 * barriers (the same alternating-phases argument as the channel shards),
 * so no access is ever concurrent and no atomics sit on the hot path.
 */

#ifndef PARBS_OBS_ENGINE_PROFILER_HH
#define PARBS_OBS_ENGINE_PROFILER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hh"
#include "stats/histogram.hh"

namespace parbs {
namespace json {
class Value;
}
} // namespace parbs

namespace parbs::obs {

class EngineProfiler {
  public:
    /** Engine phases, one accumulator per (participant, phase). */
    enum class Phase : std::uint8_t {
        // Never recorded; removed with the perf ledger's next update.
        kCoreFrontend = 0,
        kCoreJoin,
        kCoreIssue,
        kCoreSweep,        ///< Coordinator's serial core sweep of a window.
        kChannelWork,      ///< Controller catch-up for owned channels.
        kBarrierJoin,      ///< Coordinator spin on the team done counter.
        kWorkerPark,       ///< Worker wait between windows.
        kPublish,          ///< Notification schedule rebuild (k-way merge).
        kMerge,            ///< Rest of the window merge (proxies, obs).
    };
    static constexpr std::size_t kPhaseCount = 9;

    static const char* PhaseName(Phase phase);

    /**
     * @param participants team size the volatile slots are built for (1 on
     *        the serial engine)
     * @param num_channels channel count for the per-shard counters
     * @param lookahead_window the engine's window bound, in DRAM cycles
     */
    EngineProfiler(unsigned participants, std::uint32_t num_channels,
                   DramCycle lookahead_window);

    /** Cheap monotonic tick source: TSC on x86, steady_clock elsewhere.
     *  Unit is calibrated against steady_clock at export time. */
    static std::uint64_t Now();

    unsigned participants() const { return participants_; }
    DramCycle lookahead_window() const { return lookahead_window_; }

    // --- volatile side (wall clock; sharded engine only) ------------------

    /** Folds @p ticks into (participant, phase); called only by the thread
     *  owning @p participant's slot. */
    void AddPhaseTicks(unsigned participant, Phase phase,
                       std::uint64_t ticks);

    /** Marks the wall-clock start of the next engine window (coordinator
     *  only; no-op if a window is already open). */
    void BeginWindowWall();

    /** Coordinator's current phase, for watchdog stall dumps (relaxed —
     *  a stale read is fine, a torn one impossible). */
    void SetCurrentPhase(Phase phase);
    const char* CurrentPhaseName() const;

    // --- deterministic side (simulated schedule; both engines) ------------

    /** A request was accepted into @p channel's queue. */
    void OnArrival(std::uint32_t channel)
    {
        window_arrivals_[channel] += 1;
    }

    /**
     * Closes the window [@p from, @p to) of controller ticks:
     * folds the per-window arrival counts into the imbalance histogram,
     * samples @p occupancy (per-channel queued requests at the close,
     * identical between shard proxies and real queues at this point), and
     * — when a wall window is open — snapshots the volatile slot scratch
     * into a bounded per-window record for the trace lanes.
     */
    void OnWindowClose(DramCycle from, DramCycle to,
                       std::span<const std::uint64_t> occupancy);

    // --- export -----------------------------------------------------------

    /** Deterministic counters; byte-identical across every parallelism
     *  setting.  Bench JSON `run.engine` payload. */
    json::Value DeterministicJson() const;

    /** Volatile phase timings, clock calibration, and summary fractions.
     *  Bench JSON `env.engine` payload. */
    json::Value TimingJson() const;

    /**
     * Appends the engine lanes to a Chrome trace document produced by
     * Observability::TraceDocument: process/thread metadata, per-window
     * phase spans, and per-window counter tracks on a synthetic engine
     * process.  Engine timestamps are wall-clock microseconds since
     * profiler construction (the simulation tracks use DRAM cycles); the
     * document's otherData records both the flag and the clock note.
     */
    void AppendToTraceDocument(json::Value& document) const;

  private:
    /** Per-participant accumulators, cache-line padded; `window` holds the
     *  scratch since the last window close, folded by the coordinator. */
    struct alignas(64) Slot {
        std::uint64_t ticks[kPhaseCount] = {};
        std::uint64_t samples[kPhaseCount] = {};
        std::uint64_t window[kPhaseCount] = {};
    };

    /** One closed window's volatile snapshot (trace lanes only). */
    struct WindowRecord {
        DramCycle from = 0;
        DramCycle to = 0;
        std::uint64_t arrivals = 0;
        std::uint64_t imbalance = 0;
        std::uint64_t occupancy = 0;
        /** Wall ticks since construction. */
        std::uint64_t wall_begin = 0;
        std::uint64_t wall_end = 0;
        std::uint64_t core_ticks = 0;
        std::uint64_t publish_ticks = 0;
        std::uint64_t merge_ticks = 0;
        /** Per-participant kChannelWork ticks. */
        std::vector<std::uint64_t> work_ticks;
    };

    static constexpr std::uint64_t kNoWall = ~std::uint64_t{0};
    static constexpr std::size_t kMaxWindowRecords = 4096;

    /** Export-time ticks-per-second calibration against steady_clock. */
    double TicksPerSecond() const;

    unsigned participants_;
    DramCycle lookahead_window_;

    // Deterministic accumulators.
    std::uint64_t windows_ = 0;
    std::uint64_t arrivals_ = 0;
    Histogram window_ticks_;
    Histogram imbalance_;
    Histogram occupancy_;
    std::vector<std::uint64_t> window_arrivals_; ///< Per-window scratch.
    std::vector<std::uint64_t> channel_arrivals_;
    std::vector<std::uint64_t> occupancy_hiwater_;

    // Volatile state.
    std::unique_ptr<Slot[]> slots_;
    std::uint64_t construct_ticks_;
    std::chrono::steady_clock::time_point construct_time_;
    std::uint64_t wall_open_ = kNoWall;
    std::vector<WindowRecord> records_;
    std::uint64_t records_dropped_ = 0;
    std::atomic<std::uint8_t> current_phase_;
};

} // namespace parbs::obs

#endif // PARBS_OBS_ENGINE_PROFILER_HH
