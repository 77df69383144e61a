/**
 * @file
 * The ledger's five closed workloads: each rep is a fixed batch of
 * simulation work built from the seed, run through the library's public
 * API, timed from outside, and reduced to a digest of its simulated
 * outputs.  All runs start from empty queues and banks.
 *
 * A traced rep runs the same simulations with the TimedTraceSource /
 * TimedScheduler decorators and the engine profiler on, and additionally
 * returns the raw per-layer totals (Layers).  Its digest must equal the
 * untraced one.
 */

#ifndef PARBS_LEDGER_WORKLOADS_HH
#define PARBS_LEDGER_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/engine_profiler.hh"
#include "probes.hh"
#include "sim/config.hh"
#include "trace/trace.hh"

namespace ledger {

using TraceList = std::vector<std::unique_ptr<parbs::TraceSource>>;

/** One workload of the ledger. */
struct WorkloadDef {
    const char* name;
    const char* why;
    /** Host threads the workload keeps busy (pool workers or engine
     *  participants). */
    unsigned threads;
    /** Simulated CPU cycles per System run, full size and --smoke. */
    parbs::CpuCycle cycles;
    parbs::CpuCycle smoke_cycles;
    /** paper_mixes only: random 4-core mixes per rep. */
    std::uint32_t mixes;
    std::uint32_t smoke_mixes;
    /** Single-System workloads: the configuration and its traces.  Null
     *  for paper_mixes, which runs through ExperimentRunner. */
    parbs::SystemConfig (*make_config)();
    TraceList (*make_traces)(const parbs::SystemConfig& config,
                             std::uint64_t seed);
};

/** The five workloads, in report order. */
const std::vector<WorkloadDef>& Workloads();

/** @return the workload named @p name, or null. */
const WorkloadDef* FindWorkload(const std::string& name);

/** Raw per-layer totals of a traced rep, summed over its Systems. */
struct Layers {
    // trace: TimedTraceSource.
    std::uint64_t trace_entries = 0;
    std::uint64_t trace_ticks = 0;
    // sched: TimedScheduler + the schedulers' own memo counters.
    SchedCounters sched;
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;
    std::uint64_t memo_invalidations = 0;
    // mem: Controller getters.
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t read_latency_sum = 0;
    std::uint64_t select_scans = 0;
    std::uint64_t select_skips = 0;
    std::uint64_t retire_scans = 0;
    /** Simulated DRAM cycles x channels: the arrival-rate denominator. */
    std::uint64_t channel_cycles = 0;
    // dram: commands by dram::CommandType, first-command row outcomes.
    std::uint64_t commands[5] = {};
    std::uint64_t row_hits = 0;
    std::uint64_t row_accesses = 0;
    // cpu: CoreStats.
    std::uint64_t core_ticks = 0;
    std::uint64_t instructions = 0;
    std::uint64_t stall_cycles = 0;
    // sim: System wall time (thread-seconds over Systems) + profiler.
    double construct_s = 0.0;
    double run_s = 0.0;
    std::uint64_t windows = 0;
    double window_ticks_sum = 0.0;
    double imbalance_sum = 0.0;
    /** Engine phase seconds, summed over participants / coordinator. */
    double phase_s[parbs::obs::EngineProfiler::kPhaseCount] = {};
    double coordinator_phase_s[parbs::obs::EngineProfiler::kPhaseCount] = {};
    double worker_busy_s = 0.0;
    double worker_idle_s = 0.0;
    // runner: paper_mixes only.
    std::uint64_t tasks = 0;
    std::uint64_t alone_runs = 0;
    double alone_s = 0.0;
    double task_busy_s = 0.0;
    /** Pool workers x wall time of the pool's batches. */
    double pool_capacity_s = 0.0;

    Layers& operator+=(const Layers& other);
};

/** What one rep did and how long it took. */
struct RepResult {
    /** Workload start to the first simulated cycle. */
    double setup_s = 0.0;
    /** First to last simulated cycle (the throughput denominator). */
    double run_s = 0.0;
    /** Simulated CPU cycles over every System the rep ran. */
    double sim_cycles = 0.0;
    /** DRAM read requests completed, over every System. */
    double dram_reads = 0.0;
    /** System runs attempted, and those that threw. */
    std::uint64_t runs = 0;
    std::uint64_t failed = 0;
    /** Per-run digests (0 for a run that threw), then any rep-level
     *  aggregates; see CombinedDigest. */
    std::vector<std::uint64_t> digests;
    /** Filled by traced reps only. */
    Layers layers;
};

struct RepOptions {
    std::uint64_t seed = 1;
    bool smoke = false;
    bool traced = false;
    /** Forces channel_jobs 1 (the scale64_sharded serial reference). */
    bool serial = false;
    /** Coarse spans; null records none. */
    SpanLog* spans = nullptr;
};

/** Runs one closed rep of @p workload. */
RepResult RunRep(const WorkloadDef& workload, const RepOptions& options);

/** Times the workload's set-up alone (built, then torn down). */
double SetupOnly(const WorkloadDef& workload, std::uint64_t seed);

/** Order-sensitive 64-bit FNV-1a over @p digests. */
std::uint64_t CombinedDigest(const std::vector<std::uint64_t>& digests);

/** 16 lowercase hex digits. */
std::string DigestHex(std::uint64_t digest);

/** A System configuration plus its traces, for the isolated harnesses. */
struct SystemInputs {
    parbs::SystemConfig config;
    TraceList traces;
};

/**
 * The workload's representative System (for paper_mixes: the first mix
 * under PAR-BS), with fresh traces for @p seed.
 */
SystemInputs RepresentativeSystem(const WorkloadDef& workload,
                                  std::uint64_t seed);

} // namespace ledger

#endif // PARBS_LEDGER_WORKLOADS_HH
