/**
 * @file
 * Shared infrastructure for the benchmark harness: every binary in bench/
 * regenerates one of the paper's tables or figures as console output, and
 * (with --json) a machine-readable result file for the perf-regression gate.
 *
 * Common CLI (every experiment binary):
 *   --quick        quarter-length runs and smaller workload sets
 *   --full         paper-scale workload counts (e.g. 100 4-core mixes)
 *   --cycles N     simulated CPU cycles per run (default 2,000,000)
 *   --seed N       master seed
 *   --jobs N       worker threads for independent runs (default 1; 0 = all
 *                  hardware threads).  Results are bit-identical for every
 *                  N — see DESIGN.md "Parallel runner".
 *   --channel-jobs N  worker threads advancing the memory controllers
 *                  *inside* each run (default 1 = serial loop; 0 =
 *                  min(channels, hardware threads)).  Bit-identical for every N — DESIGN.md §5g.
 *                  Composes with --jobs: the run-level pool is divided by
 *                  N so --jobs J --channel-jobs C never oversubscribes.
 *   --engine       enable the engine flight recorder (DESIGN.md §5h) on
 *                  every run that supports it; deterministic engine
 *                  counters land under the JSON "run.engine" subtree and
 *                  volatile phase timings under "env.engine"
 *   --json PATH    write structured results (metrics per scheduler per
 *                  workload, wall clock, commit metadata) to PATH
 *   --trace PATH   write a Chrome trace-event file per shared run, named
 *                  <PATH minus .json>-<workload>-<scheduler>.json
 *                  (equivalent to setting PARBS_TRACE=PATH)
 */

#ifndef PARBS_BENCH_BENCH_COMMON_HH
#define PARBS_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "stats/table.hh"

namespace parbs::bench {

/** Parsed harness options. */
struct Options {
    CpuCycle cycles = 2'000'000;
    bool quick = false;
    bool full = false;
    std::uint64_t seed = 1;
    /** Worker threads for independent runs; 0 means all hardware threads. */
    unsigned jobs = 1;
    /** Intra-run channel workers (SystemConfig::channel_jobs); 0 means
     *  min(channels, hardware threads). */
    unsigned channel_jobs = 1;
    /** Engine flight recorder (observability.engine_profile). */
    bool engine = false;
    /** Structured-output path; empty disables JSON. */
    std::string json_path;
    /** Per-run trace-output stem; empty defers to PARBS_TRACE. */
    std::string trace_path;

    /** Picks a workload count by mode: quick/default/full. */
    std::uint32_t
    Count(std::uint32_t quick_n, std::uint32_t default_n,
          std::uint32_t full_n) const
    {
        return full ? full_n : quick ? quick_n : default_n;
    }

    /** The mode label recorded in JSON output. */
    const char*
    Mode() const
    {
        return full ? "full" : quick ? "quick" : "default";
    }
};

/** Parses the common CLI; exits with a usage message on errors. */
Options ParseOptions(int argc, char** argv);

/** An experiment runner configured from @p options. */
ExperimentRunner MakeRunner(const Options& options, std::uint32_t cores);

/** Prints the figure/table banner. */
void Banner(const std::string& id, const std::string& caption);

/**
 * One benchmark-binary invocation: parses the CLI, prints the banner, owns
 * the worker pool, collects structured results, and writes the JSON file
 * (and a wall-clock line on stderr) when destroyed.
 *
 * The Record* methods are not thread-safe; call them from the main thread
 * after the parallel runs have completed (the Run* helpers below do this).
 * Console output stays on stdout and is byte-identical regardless of
 * --jobs; everything timing-dependent (wall clock) goes to stderr and the
 * JSON "env" subtree, keeping the "run" subtree deterministic.
 */
class Session {
  public:
    Session(int argc, char** argv, const std::string& id,
            const std::string& caption);
    ~Session();

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    const Options& options() const { return options_; }
    TaskPool& pool() { return *pool_; }

    /** Records one shared run's metrics under @p section. */
    void RecordRun(const std::string& section, const SharedRun& run);

    /** Records a per-scheduler aggregate under @p section. */
    void RecordAggregate(const std::string& section,
                         const std::string& scheduler,
                         const AggregateMetrics& aggregate);

    /** Records a named scalar (custom tables/sweeps) under @p section. */
    void RecordValue(const std::string& section, const std::string& name,
                     double value);

    /**
     * Records one run's engine-profiler output under @p label: the
     * deterministic counters (System::EngineRunJson) join the JSON
     * "run.engine" array, the volatile timings (System::EngineEnvJson) the
     * parallel "env.engine" array.  The two arrays stay index-aligned.
     */
    void RecordEngine(const std::string& label, json::Value run_engine,
                      json::Value env_engine);

    /**
     * Writes the JSON file (if --json was given) and prints the wall clock
     * to stderr.  Idempotent; called by the destructor.
     */
    void Finish();

  private:
    json::Value& SectionNode(const std::string& section);

    Options options_;
    std::string binary_;
    std::unique_ptr<TaskPool> pool_;
    std::chrono::steady_clock::time_point start_;
    json::Value sections_ = json::Value::Array();
    json::Value engine_run_ = json::Value::Array();
    json::Value engine_env_ = json::Value::Array();
    bool finished_ = false;
};

/**
 * One simulation job for RunTasks: a workload/scheduler pair plus the
 * optional per-thread priorities and weights (empty = none).
 */
struct RunTask {
    WorkloadSpec workload;
    SchedulerConfig scheduler;
    std::vector<ThreadPriority> priorities;
    std::vector<double> weights;
};

/**
 * Runs every task on the session's pool and returns the results in
 * submission order.  Each task is an independent simulation; results are
 * bit-identical for any --jobs value.
 */
std::vector<SharedRun> RunTasks(Session& session, ExperimentRunner& runner,
                                const std::vector<RunTask>& tasks);

/**
 * Runs every (scheduler, workload) pair concurrently.
 * @return runs indexed [scheduler][workload].
 */
std::vector<std::vector<SharedRun>>
RunMatrix(Session& session, ExperimentRunner& runner,
          const std::vector<SchedulerConfig>& schedulers,
          const std::vector<WorkloadSpec>& workloads);

/**
 * Runs @p workload under the paper's five-scheduler lineup and prints the
 * per-thread slowdowns, unfairness, and throughput — the layout of the
 * Figure 5/6/7/9 case studies.  Records each run under a section named
 * after the workload.  @return the runs, in lineup order.
 */
std::vector<SharedRun> RunCaseStudy(Session& session,
                                    ExperimentRunner& runner,
                                    const WorkloadSpec& workload);

/**
 * Runs a workload *set* under the lineup and prints per-scheduler
 * aggregates (the Figure 8/10 and Table 4 layout).  Records every run and
 * the per-scheduler aggregates under @p label.
 */
void RunAggregate(Session& session, ExperimentRunner& runner,
                  const std::vector<WorkloadSpec>& workloads,
                  const std::string& label);

} // namespace parbs::bench

#endif // PARBS_BENCH_BENCH_COMMON_HH
