/**
 * @file
 * Scaling sweep for the scale-out engine (DESIGN.md §5g): 64/128/256-core
 * systems across 4/8/16 channels under the six-scheduler shootout lineup,
 * driven directly through System (no alone-run baselines — at this scale
 * the interesting outputs are throughput and service metrics, and the
 * run matrix is already 9 x 6).  Every recorded value is a deterministic
 * simulation quantity, so the JSON "run" subtree is golden-checkable and
 * bit-identical for any --jobs / --channel-jobs combination.
 *
 * Quick mode trims the matrix to the CI subset (64c x {4,8,16}ch plus
 * 128c/256c at 8 channels) and shortens the runs; the per-run cycle count
 * scales inversely with the core count so every run simulates the same
 * number of core-cycles.
 */

#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hh"
#include "trace/synthetic.hh"

namespace {

using namespace parbs;

struct ScalePoint {
    std::uint32_t cores;
    std::uint32_t channels;
};

/** Deterministic mixed-intensity population: a quarter each of heavy,
 *  medium, light, and near-compute-bound threads. */
double
SlotMpki(ThreadId slot)
{
    switch (slot % 4) {
    case 0: return 40.0;
    case 1: return 20.0;
    case 2: return 10.0;
    default: return 2.0;
    }
}

std::vector<std::unique_ptr<TraceSource>>
MakeTraces(const SystemConfig& config, std::uint64_t seed)
{
    dram::AddressMapper mapper(config.geometry, config.xor_bank_hash);
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.reserve(config.num_cores);
    for (ThreadId t = 0; t < config.num_cores; ++t) {
        SyntheticParams params;
        params.mpki = SlotMpki(t);
        traces.push_back(std::make_unique<SyntheticTraceSource>(
            params, mapper, t, config.num_cores, seed * 1000 + t));
    }
    return traces;
}

/** Whole-system aggregates of one scale point under one scheduler; all
 *  fields except the env-side engine timings are deterministic simulation
 *  quantities. */
struct ScaleRun {
    std::uint64_t instructions = 0;
    std::uint64_t requests = 0;
    double row_hit_rate = 0.0; ///< Request-weighted mean across threads.
    double blp = 0.0;          ///< Plain mean across threads.
    /** Engine flight-recorder output (--engine only; null otherwise).
     *  engine_run is deterministic, engine_env is wall-clock volatile. */
    json::Value engine_run;
    json::Value engine_env;
};

ScaleRun
RunPoint(const ScalePoint& point, const SchedulerConfig& scheduler,
         const bench::Options& options, CpuCycle cycles)
{
    SystemConfig config =
        SystemConfig::Baseline(point.cores, point.channels);
    config.scheduler = scheduler;
    config.seed = options.seed;
    config.channel_jobs = options.channel_jobs;
    config.observability.engine_profile = options.engine;
    // Same PARBS_CHECK contract as the ExperimentRunner binaries: the
    // shadow protocol checker, at any --channel-jobs.
    ApplyCheckEnvironment(config);
    System system(config, MakeTraces(config, options.seed));
    system.Run(cycles);

    ScaleRun out;
    double hit_weight = 0.0;
    double blp_sum = 0.0;
    for (ThreadId t = 0; t < point.cores; ++t) {
        const ThreadMeasurement m = system.Measure(t);
        out.instructions += m.instructions;
        out.requests += m.requests;
        hit_weight += m.row_hit_rate * static_cast<double>(m.requests);
        blp_sum += m.blp;
    }
    if (out.requests > 0) {
        out.row_hit_rate = hit_weight / static_cast<double>(out.requests);
    }
    out.blp = blp_sum / static_cast<double>(point.cores);
    if (options.engine) {
        out.engine_run = system.EngineRunJson();
        out.engine_env = system.EngineEnvJson();
    }
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::Session session(argc, argv, "Scaling sweep",
                           "64-256 cores x 4-16 channels under the "
                           "six-scheduler lineup");
    const bench::Options& options = session.options();

    std::vector<ScalePoint> points;
    if (options.quick) {
        points = {{64, 4}, {64, 8}, {64, 16}, {128, 8}, {256, 8}};
    } else {
        for (const std::uint32_t cores : {64u, 128u, 256u}) {
            for (const std::uint32_t channels : {4u, 8u, 16u}) {
                points.push_back({cores, channels});
            }
        }
    }
    const std::vector<SchedulerConfig> lineup = ComparisonSchedulers();

    // Constant core-cycles per run: a 256-core run simulates a quarter of
    // a 64-core run's cycles, so every matrix cell costs about the same.
    const CpuCycle core_cycle_budget = options.cycles * 4;

    std::vector<ScaleRun> results(points.size() * lineup.size());
    session.pool().ParallelFor(
        results.size(), [&](std::size_t index) {
            const ScalePoint& point = points[index / lineup.size()];
            const SchedulerConfig& scheduler =
                lineup[index % lineup.size()];
            results[index] =
                RunPoint(point, scheduler, options,
                         core_cycle_budget / point.cores);
        });

    Table table({"system", "scheduler", "instructions", "requests",
                 "row-hit", "BLP"});
    for (std::size_t p = 0; p < points.size(); ++p) {
        const ScalePoint& point = points[p];
        const SystemConfig geometry =
            SystemConfig::Baseline(point.cores, point.channels);
        const std::uint32_t ranks = geometry.geometry.ranks_per_channel;
        const std::string section =
            std::to_string(point.cores) + " cores x " +
            std::to_string(point.channels) + " channels (" +
            std::to_string(ranks) + (ranks == 1 ? " rank)" : " ranks)");
        for (std::size_t s = 0; s < lineup.size(); ++s) {
            const std::string name = SchedulerConfigName(lineup[s]);
            ScaleRun& run = results[p * lineup.size() + s];
            if (options.engine) {
                session.RecordEngine(section + "/" + name,
                                     std::move(run.engine_run),
                                     std::move(run.engine_env));
            }
            session.RecordValue(section, "instructions/" + name,
                                static_cast<double>(run.instructions));
            session.RecordValue(section, "requests/" + name,
                                static_cast<double>(run.requests));
            session.RecordValue(section, "row_hit/" + name,
                                run.row_hit_rate);
            session.RecordValue(section, "blp/" + name, run.blp);
            table.AddRow({section, name,
                          std::to_string(run.instructions),
                          std::to_string(run.requests),
                          Table::Num(run.row_hit_rate, 3),
                          Table::Num(run.blp, 2)});
        }
    }

    std::cout << table.Render() << "\n"
              << "Shape check: instruction throughput should grow with the "
                 "channel count at a fixed\ncore count, and the scheduler "
                 "ordering seen at 16 cores (PAR-BS/BLISS leading\n"
                 "FR-FCFS on service) should persist at 64-256 cores.\n";
    return 0;
}
