#include "workloads.hh"

#include <bit>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <set>

#include "common/json.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"
#include "trace/synthetic.hh"

namespace ledger {
namespace {

using namespace parbs;
using Clock = std::chrono::steady_clock;
using Phase = obs::EngineProfiler::Phase;

/** paper_mixes runs on a fixed-size pool, so its load is the same on
 *  every machine (the env block flags machines with fewer threads). */
constexpr unsigned kPoolWorkers = 4;

/** 64-bit FNV-1a over whole words. */
class Fnv {
  public:
    void
    Add(std::uint64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ = (hash_ ^ ((value >> (8 * byte)) & 0xff)) *
                    0x100000001b3ULL;
        }
    }
    void Add(double value) { Add(std::bit_cast<std::uint64_t>(value)); }
    std::uint64_t hash() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

SystemConfig
Intensive16Config()
{
    return SystemConfig::Baseline(16);
}

TraceList
Intensive16Traces(const SystemConfig& config, std::uint64_t seed)
{
    ExperimentConfig experiment;
    experiment.cores = config.num_cores;
    experiment.seed = seed;
    for (const WorkloadSpec& spec : SixteenCoreSamples()) {
        if (spec.name == "intensive16") {
            return ExperimentRunner(experiment).MakeTraces(spec, config);
        }
    }
    throw ConfigError("intensive16 is missing from SixteenCoreSamples()");
}

SystemConfig
Scale64SerialConfig()
{
    return SystemConfig::Baseline(64, 8);
}

SystemConfig
Scale64ShardedConfig()
{
    SystemConfig config = SystemConfig::Baseline(64, 8);
    config.channel_jobs = 4;
    config.core_jobs = 0;
    return config;
}

SystemConfig
Stream256Config()
{
    return SystemConfig::Baseline(256, 16);
}

/** One synthetic generator per core, seeded as bench_scale seeds them. */
TraceList
SyntheticTraces(const SystemConfig& config, std::uint64_t seed,
                SyntheticParams (*params)(ThreadId slot))
{
    dram::AddressMapper mapper(config.geometry, config.xor_bank_hash);
    TraceList traces;
    traces.reserve(config.num_cores);
    for (ThreadId t = 0; t < config.num_cores; ++t) {
        traces.push_back(std::make_unique<SyntheticTraceSource>(
            params(t), mapper, t, config.num_cores, seed * 1000 + t));
    }
    return traces;
}

/** bench_scale's mixed population: per-slot MPKI 40/20/10/2. */
SyntheticParams
ScaleParams(ThreadId slot)
{
    static constexpr double kMpki[4] = {40.0, 20.0, 10.0, 2.0};
    SyntheticParams params;
    params.mpki = kMpki[slot % 4];
    return params;
}

/** Streaming, write-heavy, no row reuse: every request opens a row. */
SyntheticParams
StreamParams(ThreadId)
{
    SyntheticParams params;
    params.mpki = 20.0;
    params.write_fraction = 0.5;
    params.row_run_length = 1.0;
    params.burst_banks = 4.0;
    return params;
}

TraceList
ScaleTraces(const SystemConfig& config, std::uint64_t seed)
{
    return SyntheticTraces(config, seed, ScaleParams);
}

TraceList
StreamTraces(const SystemConfig& config, std::uint64_t seed)
{
    return SyntheticTraces(config, seed, StreamParams);
}

const std::vector<WorkloadDef> kWorkloads = {
    {"paper_mixes",
     "the paper's method and commonest user action: random 4-core mixes x "
     "six schedulers through ExperimentRunner on a 4-worker pool; one "
     "channel, so the sharded engine is never used",
     kPoolWorkers, 125'000, 20'000, 48, 4, nullptr, nullptr},
    {"intensive16",
     "paper scale (Fig. 10 intensive16: 16 cores, 4 channels, PAR-BS), "
     "memory-bound with busy read queues: the controller tick and core loop "
     "at the size the paper evaluates",
     1, 1'500'000, 100'000, 0, 0, Intensive16Config, Intensive16Traces},
    {"scale64_serial",
     "64 cores on 8 channels (bench_scale population), serial engine: the "
     "reference an engine-only change must leave unchanged",
     1, 100'000, 30'000, 0, 0, Scale64SerialConfig, ScaleTraces},
    {"scale64_sharded",
     "the same run on the default sharded shape (channel_jobs 4, core crew "
     "auto): barrier, publish, merge and per-cycle crew joins",
     4, 100'000, 30'000, 0, 0, Scale64ShardedConfig, ScaleTraces},
    {"stream256_writes",
     "256 streaming, write-heavy cores on 16 channels x 4 ranks: no row "
     "reuse, half the requests are writes, 256 core ticks per simulated "
     "cycle",
     1, 150'000, 10'000, 0, 0, Stream256Config, StreamTraces},
};

/** Wraps every trace in a TimedTraceSource and the scheduler in a
 *  TimedScheduler, and turns the engine profiler on. */
TraceList
Instrument(SystemConfig& config, TraceList traces,
           std::vector<const TimedTraceSource*>& probes)
{
    TraceList wrapped;
    wrapped.reserve(traces.size());
    for (auto& trace : traces) {
        auto timed = std::make_unique<TimedTraceSource>(std::move(trace));
        probes.push_back(timed.get());
        wrapped.push_back(std::move(timed));
    }
    const SchedulerConfig scheduler = config.scheduler;
    config.scheduler_factory = [scheduler] {
        return std::make_unique<TimedScheduler>(MakeScheduler(scheduler));
    };
    config.observability.engine_profile = true;
    return wrapped;
}

/** Digest of one System's simulated outputs. */
std::uint64_t
SystemDigest(const System& system)
{
    Fnv fnv;
    for (ThreadId t = 0; t < system.num_cores(); ++t) {
        const CoreStats& core = system.core(t).stats();
        fnv.Add(core.instructions);
        fnv.Add(core.loads_completed);
        std::uint64_t hits = 0;
        std::uint64_t latency = 0;
        for (std::uint32_t c = 0; c < system.num_controllers(); ++c) {
            const ControllerThreadStats& stats =
                system.controller(c).thread_stats(t);
            hits += stats.read_row_hits;
            latency += stats.read_latency_sum;
        }
        fnv.Add(hits);
        fnv.Add(latency);
    }
    for (std::uint32_t c = 0; c < system.num_controllers(); ++c) {
        for (int type = 0; type < 5; ++type) {
            fnv.Add(system.controller(c).commands_issued(
                static_cast<dram::CommandType>(type)));
        }
    }
    return fnv.hash();
}

void
AddMeasurement(Fnv& fnv, const ThreadMeasurement& m)
{
    fnv.Add(m.instructions);
    fnv.Add(m.requests);
    fnv.Add(m.row_hit_rate);
    fnv.Add(m.mcpi);
    fnv.Add(m.worst_case_latency);
}

std::uint64_t
SharedRunDigest(const SharedRun& run)
{
    Fnv fnv;
    for (const ThreadMeasurement& m : run.shared) {
        AddMeasurement(fnv, m);
    }
    for (const ThreadMeasurement& m : run.alone) {
        AddMeasurement(fnv, m);
    }
    fnv.Add(run.metrics.weighted_speedup);
    fnv.Add(run.metrics.unfairness);
    return fnv.hash();
}

double
DramReads(const System& system)
{
    double reads = 0.0;
    for (ThreadId t = 0; t < system.num_cores(); ++t) {
        reads += static_cast<double>(system.core(t).stats().loads_completed);
    }
    return reads;
}

double
Number(const json::Value& object, const char* key)
{
    const json::Value* value = object.Find(key);
    return value != nullptr ? value->AsNumber() : 0.0;
}

/** Reads one traced System's per-layer totals into @p out. */
void
CollectLayers(const System& system,
              const std::vector<const TimedTraceSource*>& probes,
              Layers& out)
{
    for (const TimedTraceSource* probe : probes) {
        out.trace_entries += probe->entries();
        out.trace_ticks += probe->ticks();
    }
    for (std::uint32_t c = 0; c < system.num_controllers(); ++c) {
        const Controller& controller = system.controller(c);
        if (const auto* timed =
                dynamic_cast<const TimedScheduler*>(&controller.scheduler())) {
            out.sched += timed->counters();
        }
        const Scheduler::PickMemoCounters memo =
            controller.scheduler().MemoCounters();
        out.memo_hits += memo.hits;
        out.memo_misses += memo.misses;
        out.memo_invalidations += memo.invalidations;
        const Controller::FastPathStats& fast = controller.fast_path_stats();
        out.select_scans += fast.select_scans;
        out.select_skips += fast.select_skips;
        out.retire_scans += fast.retire_scans;
        for (int type = 0; type < 5; ++type) {
            out.commands[type] += controller.commands_issued(
                static_cast<dram::CommandType>(type));
        }
        for (ThreadId t = 0; t < controller.num_threads(); ++t) {
            const ControllerThreadStats& stats = controller.thread_stats(t);
            out.reads += stats.reads_completed;
            out.writes += stats.writes_completed;
            out.read_latency_sum += stats.read_latency_sum;
            out.row_hits += stats.read_row_hits;
            out.row_accesses += stats.read_row_hits + stats.read_row_closed +
                                stats.read_row_conflicts;
        }
    }
    for (ThreadId t = 0; t < system.num_cores(); ++t) {
        const CoreStats& core = system.core(t).stats();
        out.core_ticks += core.cycles;
        out.instructions += core.instructions;
        out.stall_cycles += core.load_stall_cycles + core.store_stall_cycles;
    }

    const json::Value run = system.EngineRunJson();
    const double windows = Number(run, "windows");
    out.windows += static_cast<std::uint64_t>(windows);
    if (const json::Value* ticks = run.Find("window_ticks")) {
        out.window_ticks_sum += Number(*ticks, "mean") * windows;
    }
    if (const json::Value* imbalance = run.Find("arrival_imbalance")) {
        out.imbalance_sum += Number(*imbalance, "mean") * windows;
    }
    const json::Value env = system.EngineEnvJson();
    if (const json::Value* phases = env.Find("phases")) {
        for (const json::Value& entry : phases->items()) {
            const std::string& name = entry.Find("phase")->AsString();
            const double seconds = Number(entry, "seconds");
            const bool coordinator = Number(entry, "participant") == 0.0;
            for (std::size_t i = 0; i < obs::EngineProfiler::kPhaseCount;
                 ++i) {
                const auto phase = static_cast<Phase>(i);
                if (name != obs::EngineProfiler::PhaseName(phase)) {
                    continue;
                }
                out.phase_s[i] += seconds;
                if (coordinator) {
                    out.coordinator_phase_s[i] += seconds;
                } else if (phase == Phase::kChannelWork ||
                           phase == Phase::kCoreFrontend) {
                    out.worker_busy_s += seconds;
                } else if (phase == Phase::kWorkerPark ||
                           phase == Phase::kCoreJoin) {
                    out.worker_idle_s += seconds;
                }
            }
        }
    }
}

/** Per-scheduler gmeans over a complete paper_mixes rep. */
void
AppendAggregates(const std::vector<SharedRun>& runs, std::size_t schedulers,
                 std::vector<std::uint64_t>& digests)
{
    for (std::size_t s = 0; s < schedulers; ++s) {
        std::vector<SharedRun> lineup;
        for (std::size_t i = s; i < runs.size(); i += schedulers) {
            lineup.push_back(runs[i]);
        }
        const AggregateMetrics aggregate = ExperimentRunner::Aggregate(lineup);
        Fnv fnv;
        fnv.Add(aggregate.weighted_speedup_gmean);
        fnv.Add(aggregate.unfairness_gmean);
        digests.push_back(fnv.hash());
    }
}

std::vector<std::string>
DistinctBenchmarks(const std::vector<WorkloadSpec>& specs)
{
    std::set<std::string> names;
    for (const WorkloadSpec& spec : specs) {
        names.insert(spec.benchmarks.begin(), spec.benchmarks.end());
    }
    return {names.begin(), names.end()};
}

ExperimentConfig
PaperMixesConfig(CpuCycle cycles, std::uint64_t seed)
{
    ExperimentConfig experiment;
    experiment.cores = 4;
    experiment.run_cycles = cycles;
    experiment.seed = seed;
    experiment.channel_jobs = 1;
    return experiment;
}

/**
 * Untraced: every (mix, scheduler) pair is one ExperimentRunner::RunShared
 * task, alone baselines computed on demand inside the tasks, as the figure
 * binaries run them.  Traced: the alone baselines first (runner.alone_*),
 * then the same shared runs built step by step from the runner's public
 * pieces so the traces and scheduler can be decorated; the digests prove
 * the two paths simulate the same thing.
 */
RepResult
RunPaperMixes(const WorkloadDef& workload, const RepOptions& options)
{
    RepResult rep;
    SpanLog* spans = options.spans;
    const auto start = Clock::now();
    const std::uint32_t mixes =
        options.smoke ? workload.smoke_mixes : workload.mixes;
    const CpuCycle cycles =
        options.smoke ? workload.smoke_cycles : workload.cycles;
    const std::vector<WorkloadSpec> specs =
        RandomMixes(mixes, 4, options.seed);
    const std::vector<SchedulerConfig> schedulers = ComparisonSchedulers();
    ExperimentRunner runner(PaperMixesConfig(cycles, options.seed));
    TaskPool pool(kPoolWorkers);
    rep.setup_s = SecondsSince(start);
    spans->Add("construct", "rep", start);

    const std::size_t count = specs.size() * schedulers.size();
    const std::vector<std::string> benchmarks = DistinctBenchmarks(specs);
    std::vector<SharedRun> runs(count);
    std::vector<std::uint8_t> ok(count, 0);
    std::mutex mutex; // Guards rep.layers.
    const auto run_start = Clock::now();
    if (options.traced) {
        pool.ParallelFor(benchmarks.size(), [&](std::size_t i) {
            const auto task_start = Clock::now();
            runner.AloneBaseline(benchmarks[i]);
            const double seconds = SecondsSince(task_start);
            spans->Add("alone " + benchmarks[i], "task", task_start);
            std::lock_guard<std::mutex> lock(mutex);
            rep.layers.alone_s += seconds;
            rep.layers.task_busy_s += seconds;
        });
    }
    pool.ParallelFor(count, [&](std::size_t i) {
        const WorkloadSpec& spec = specs[i / schedulers.size()];
        const SchedulerConfig& scheduler = schedulers[i % schedulers.size()];
        const auto task_start = Clock::now();
        try {
            if (!options.traced) {
                runs[i] = runner.RunShared(spec, scheduler);
            } else {
                Layers layers;
                SystemConfig config =
                    runner.config().MakeSystemConfig(scheduler);
                std::vector<const TimedTraceSource*> probes;
                TraceList traces = Instrument(
                    config, runner.MakeTraces(spec, config), probes);
                System system(config, std::move(traces));
                layers.construct_s = SecondsSince(task_start);
                const auto sim_start = Clock::now();
                system.Run(cycles);
                layers.run_s = SecondsSince(sim_start);
                SharedRun& run = runs[i];
                run.workload = spec.name;
                run.scheduler = SchedulerConfigName(scheduler);
                run.benchmarks = spec.benchmarks;
                for (ThreadId t = 0; t < spec.benchmarks.size(); ++t) {
                    run.shared.push_back(system.Measure(t));
                    run.alone.push_back(
                        runner.AloneBaseline(spec.benchmarks[t]));
                }
                run.metrics = ComputeMetrics(run.shared, run.alone);
                CollectLayers(system, probes, layers);
                layers.channel_cycles +=
                    system.now() / config.cpu_to_dram_ratio *
                    system.num_controllers();
                layers.task_busy_s = SecondsSince(task_start);
                std::lock_guard<std::mutex> lock(mutex);
                rep.layers += layers;
            }
            ok[i] = 1;
        } catch (const std::exception& error) {
            std::fprintf(stderr, "ledger: paper_mixes task %zu threw: %s\n",
                         i, error.what());
        }
        if (spans->enabled()) {
            // SchedulerConfigName builds a scheduler: only pay for it when
            // the span is kept.
            spans->Add(spec.name + " " + SchedulerConfigName(scheduler),
                       "task", task_start);
        }
    });
    rep.run_s = SecondsSince(run_start);
    spans->Add("run", "rep", run_start);

    const auto measure_start = Clock::now();
    rep.runs = count;
    bool all_ok = true;
    for (std::size_t i = 0; i < count; ++i) {
        if (ok[i] == 0) {
            rep.failed += 1;
            rep.digests.push_back(0);
            all_ok = false;
            continue;
        }
        rep.digests.push_back(SharedRunDigest(runs[i]));
        for (const ThreadMeasurement& m : runs[i].shared) {
            rep.dram_reads += static_cast<double>(m.requests);
        }
    }
    if (all_ok) {
        AppendAggregates(runs, schedulers.size(), rep.digests);
    }
    for (const std::string& benchmark : benchmarks) {
        rep.dram_reads +=
            static_cast<double>(runner.AloneBaseline(benchmark).requests);
    }
    rep.sim_cycles =
        static_cast<double>(cycles) *
        static_cast<double>(count + benchmarks.size());
    if (options.traced) {
        rep.layers.tasks = count;
        rep.layers.alone_runs = benchmarks.size();
        rep.layers.pool_capacity_s = kPoolWorkers * rep.run_s;
    }
    spans->Add("measure", "rep", measure_start);
    return rep;
}

RepResult
RunSystemRep(const WorkloadDef& workload, const RepOptions& options)
{
    RepResult rep;
    SpanLog* spans = options.spans;
    rep.runs = 1;
    const auto start = Clock::now();
    try {
        SystemConfig config = workload.make_config();
        config.seed = options.seed;
        if (options.serial) {
            config.channel_jobs = 1;
        }
        TraceList traces = workload.make_traces(config, options.seed);
        std::vector<const TimedTraceSource*> probes;
        if (options.traced) {
            traces = Instrument(config, std::move(traces), probes);
        }
        System system(config, std::move(traces));
        rep.setup_s = SecondsSince(start);
        spans->Add("construct", "rep", start);

        const auto run_start = Clock::now();
        system.Run(options.smoke ? workload.smoke_cycles : workload.cycles);
        rep.run_s = SecondsSince(run_start);
        spans->Add("run", "rep", run_start);

        const auto measure_start = Clock::now();
        rep.digests.push_back(SystemDigest(system));
        rep.sim_cycles = static_cast<double>(system.now());
        rep.dram_reads = DramReads(system);
        if (options.traced) {
            CollectLayers(system, probes, rep.layers);
            rep.layers.construct_s = rep.setup_s;
            rep.layers.run_s = rep.run_s;
            rep.layers.channel_cycles = system.now() /
                                        config.cpu_to_dram_ratio *
                                        system.num_controllers();
        }
        spans->Add("measure", "rep", measure_start);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "ledger: %s threw: %s\n", workload.name,
                     error.what());
        rep.failed = 1;
        rep.digests.assign(1, 0);
    }
    return rep;
}

} // namespace

const std::vector<WorkloadDef>&
Workloads()
{
    return kWorkloads;
}

const WorkloadDef*
FindWorkload(const std::string& name)
{
    for (const WorkloadDef& workload : kWorkloads) {
        if (name == workload.name) {
            return &workload;
        }
    }
    return nullptr;
}

Layers&
Layers::operator+=(const Layers& other)
{
    trace_entries += other.trace_entries;
    trace_ticks += other.trace_ticks;
    sched += other.sched;
    memo_hits += other.memo_hits;
    memo_misses += other.memo_misses;
    memo_invalidations += other.memo_invalidations;
    reads += other.reads;
    writes += other.writes;
    read_latency_sum += other.read_latency_sum;
    select_scans += other.select_scans;
    select_skips += other.select_skips;
    retire_scans += other.retire_scans;
    channel_cycles += other.channel_cycles;
    for (int type = 0; type < 5; ++type) {
        commands[type] += other.commands[type];
    }
    row_hits += other.row_hits;
    row_accesses += other.row_accesses;
    core_ticks += other.core_ticks;
    instructions += other.instructions;
    stall_cycles += other.stall_cycles;
    construct_s += other.construct_s;
    run_s += other.run_s;
    windows += other.windows;
    window_ticks_sum += other.window_ticks_sum;
    imbalance_sum += other.imbalance_sum;
    for (std::size_t i = 0; i < obs::EngineProfiler::kPhaseCount; ++i) {
        phase_s[i] += other.phase_s[i];
        coordinator_phase_s[i] += other.coordinator_phase_s[i];
    }
    worker_busy_s += other.worker_busy_s;
    worker_idle_s += other.worker_idle_s;
    tasks += other.tasks;
    alone_runs += other.alone_runs;
    alone_s += other.alone_s;
    task_busy_s += other.task_busy_s;
    pool_capacity_s += other.pool_capacity_s;
    return *this;
}

RepResult
RunRep(const WorkloadDef& workload, const RepOptions& options)
{
    static SpanLog no_spans(false);
    RepOptions resolved = options;
    if (resolved.spans == nullptr) {
        resolved.spans = &no_spans;
    }
    return workload.make_config == nullptr ? RunPaperMixes(workload, resolved)
                                           : RunSystemRep(workload, resolved);
}

double
SetupOnly(const WorkloadDef& workload, std::uint64_t seed)
{
    const auto start = Clock::now();
    if (workload.make_config == nullptr) {
        const std::vector<WorkloadSpec> specs =
            RandomMixes(workload.mixes, 4, seed);
        const std::vector<SchedulerConfig> schedulers =
            ComparisonSchedulers();
        ExperimentRunner runner(PaperMixesConfig(workload.cycles, seed));
        TaskPool pool(kPoolWorkers);
        return SecondsSince(start);
    }
    SystemConfig config = workload.make_config();
    config.seed = seed;
    System system(config, workload.make_traces(config, seed));
    return SecondsSince(start);
}

std::uint64_t
CombinedDigest(const std::vector<std::uint64_t>& digests)
{
    Fnv fnv;
    for (const std::uint64_t digest : digests) {
        fnv.Add(digest);
    }
    return fnv.hash();
}

std::string
DigestHex(std::uint64_t digest)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(digest));
    return buffer;
}

SystemInputs
RepresentativeSystem(const WorkloadDef& workload, std::uint64_t seed)
{
    SystemInputs inputs;
    if (workload.make_config == nullptr) {
        const ExperimentConfig experiment =
            PaperMixesConfig(workload.cycles, seed);
        SchedulerConfig parbs;
        parbs.kind = SchedulerKind::kParBs;
        inputs.config = experiment.MakeSystemConfig(parbs);
        inputs.traces = ExperimentRunner(experiment).MakeTraces(
            RandomMixes(1, 4, seed).front(), inputs.config);
        return inputs;
    }
    inputs.config = workload.make_config();
    inputs.config.seed = seed;
    inputs.traces = workload.make_traces(inputs.config, seed);
    return inputs;
}

} // namespace ledger
