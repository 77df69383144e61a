/**
 * @file
 * The perf ledger: end-to-end and per-layer host cost of the simulator on
 * five closed workloads (README.md in this directory has the tables).
 *
 *   ledger --workload W --seed N --seconds S --trace 0|1 [--chrome DIR]
 *       One workload in this process: a fixed-seed exactness check at
 *       --smoke size, one untimed warm-up rep, timed reps for S seconds
 *       (or exactly R with --reps R), the set-up samples, and with
 *       --trace 1 a traced rep plus the isolated layer harnesses.  The last
 *       stdout line is one JSON object: {"correct", "attempted", "failed",
 *       "metrics"} with the end-to-end metrics (--trace 0) or the
 *       per-layer ones (--trace 1); --record prints the full per-workload
 *       record instead (what --all collects).
 *   ledger --all [--seed N] [--reps R] [--json FILE] [--chrome DIR]
 *       Every workload in its own child process (R timed reps each, default
 *       5, traced rep included), summarized with median, p25/p75, min/max
 *       and n, plus the machine descriptor.
 *   ledger --compare A.json B.json
 *       Per (workload, end-to-end metric): median ratio B/A, whether the
 *       quartile ranges overlap, and whether B is within A's bound.
 *   ledger --smoke [--bless]
 *       Every workload at --smoke size, seed 1: digests against
 *       expected.json, traced against untraced, sharded against serial.
 *       --bless rewrites expected.json instead of checking it.
 *
 * Exit status: 0 when every check passed, 1 on a failed check, a
 * mismatch or a regression (--compare), 2 on a usage error.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "isolated.hh"
#include "probes.hh"
#include "sim/runner.hh"
#include "workloads.hh"

namespace {

using namespace ledger;
namespace json = parbs::json;
using Clock = std::chrono::steady_clock;
using Phase = parbs::obs::EngineProfiler::Phase;

/** Floor on timed reps, whatever --seconds says. */
constexpr int kMinReps = 3;
/**
 * Timed reps cycle through this many inputs derived from the seed, so a
 * run's median averages over several inputs: how fast the simulator runs
 * depends on the traffic a seed generates, and one input per run made that
 * the largest part of the run-to-run spread.
 */
constexpr int kSubSeeds = 8;
/** Set-up-only samples taken after the timed reps (setup_s is their
 *  median). */
constexpr int kSetupSamples = 31;
/** Isolated-harness repetitions (median reported). */
constexpr int kIsolatedReps = 3;
constexpr parbs::DramCycle kIsolatedMemTicks = 200'000;
constexpr parbs::CpuCycle kIsolatedCoreTicks = 4'000'000;

/** An end-to-end metric.  A value may worsen from the baseline median by
 *  `bound` times that median, or by `floor` in absolute terms, whichever
 *  is larger, before it counts as a regression. */
struct EndToEndDef {
    const char* name;
    const char* unit;
    bool higher_better;
    double bound;
    double floor;
};

/** BENCHMARK.json lists the first four with the same bounds (it has no
 *  floors); failed_frac is usually exactly 0, so the result line carries
 *  it as "failed" instead.  README.md explains how the bounds were set. */
const EndToEndDef kEndToEnd[] = {
    {"sim_mcycles_per_s", "Mcycles/s", true, 0.25, 0.0},
    {"dram_kreq_per_s", "kreq/s", true, 0.25, 0.0},
    {"setup_s", "s", false, 0.25, 0.005},
    {"peak_rss_mb", "MB", false, 0.10, 2.0},
    {"failed_frac", "fraction", false, 0.0, 0.0},
};
constexpr std::size_t kListedEndToEnd = 4;

struct Options {
    std::string workload;
    bool all = false;
    bool smoke = false;
    bool bless = false;
    bool record = false;
    std::uint64_t seed = 1;
    double seconds = 0.0;
    int reps = 0;
    int trace = 0;
    std::string json_path;
    std::string chrome_dir;
    std::vector<std::string> compare;
};

[[noreturn]] void
Usage(const std::string& problem)
{
    std::cerr << "ledger: " << problem << "\n"
              << "usage: ledger --workload W --seed N (--seconds S | --reps R)"
                 " --trace 0|1 [--chrome DIR] [--record]\n"
                 "       ledger --all [--seed N] [--reps R] [--json FILE]"
                 " [--chrome DIR]\n"
                 "       ledger --compare A.json B.json\n"
                 "       ledger --smoke [--bless]\n";
    std::exit(2);
}

std::uint64_t
ParseCount(const std::string& text, const char* flag)
{
    std::size_t used = 0;
    unsigned long long value = 0;
    try {
        value = std::stoull(text, &used);
    } catch (const std::exception&) {
        used = 0;
    }
    if (used != text.size() || text.empty() || text[0] == '-') {
        Usage(std::string("bad value for ") + flag + ": " + text);
    }
    return value;
}

Options
ParseOptions(int argc, char** argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                Usage("missing value for " + arg);
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
        } else if (arg == "--seed") {
            options.seed = ParseCount(value(), "--seed");
        } else if (arg == "--seconds") {
            options.seconds =
                static_cast<double>(ParseCount(value(), "--seconds"));
        } else if (arg == "--reps") {
            options.reps = static_cast<int>(
                std::min<std::uint64_t>(ParseCount(value(), "--reps"), 1000));
        } else if (arg == "--trace") {
            const std::string text = value();
            if (text != "0" && text != "1") {
                Usage("--trace takes 0 or 1");
            }
            options.trace = text == "1" ? 1 : 0;
        } else if (arg == "--all") {
            options.all = true;
        } else if (arg == "--smoke") {
            options.smoke = true;
        } else if (arg == "--bless") {
            options.bless = true;
        } else if (arg == "--record") {
            options.record = true;
        } else if (arg == "--json") {
            options.json_path = value();
        } else if (arg == "--chrome") {
            options.chrome_dir = value();
        } else if (arg == "--compare") {
            options.compare.push_back(value());
            options.compare.push_back(value());
        } else {
            Usage("unknown argument " + arg);
        }
    }
    const int modes = (options.workload.empty() ? 0 : 1) +
                      (options.all ? 1 : 0) + (options.smoke ? 1 : 0) +
                      (options.compare.empty() ? 0 : 1);
    if (modes != 1) {
        Usage("choose exactly one of --workload, --all, --smoke, --compare");
    }
    if (!options.workload.empty() && options.reps == 0 &&
        options.seconds <= 0.0) {
        Usage("--workload needs --seconds or --reps");
    }
    if (options.bless && !options.smoke) {
        Usage("--bless goes with --smoke");
    }
    return options;
}

/** Input @p index of @p seed's family; index 0 is the seed itself. */
std::uint64_t
SubSeed(std::uint64_t seed, int index)
{
    if (index == 0) {
        return seed;
    }
    // splitmix64 finalizer over (seed, index).
    std::uint64_t z = seed + static_cast<std::uint64_t>(index) *
                                 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
Ratio(double numerator, double denominator)
{
    return denominator == 0.0 ? 0.0 : numerator / denominator;
}

/** Median, quartiles, range and count of a sample. */
struct Summary {
    double median = 0.0;
    double p25 = 0.0;
    double p75 = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::size_t n = 0;
};

/** Quartiles as Python's statistics.quantiles(values, n=4) computes them
 *  (the "exclusive" method), so the ledger and its readers agree. */
Summary
Summarize(std::vector<double> values)
{
    Summary out;
    out.n = values.size();
    if (values.empty()) {
        return out;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    out.min = values.front();
    out.max = values.back();
    out.median = n % 2 == 1 ? values[n / 2]
                            : (values[n / 2 - 1] + values[n / 2]) / 2.0;
    if (n == 1) {
        out.p25 = out.p75 = values[0];
        return out;
    }
    auto quartile = [&](std::size_t i) {
        const std::size_t m = n + 1;
        std::size_t j = i * m / 4;
        j = std::clamp<std::size_t>(j, 1, n - 1);
        const double delta =
            static_cast<double>(i * m) - static_cast<double>(j * 4);
        return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
    };
    out.p25 = quartile(1);
    out.p75 = quartile(3);
    return out;
}

json::Value
SummaryJson(const Summary& summary, const char* unit)
{
    json::Value out = json::Value::Object();
    out.Set("unit", unit);
    out.Set("median", summary.median);
    out.Set("p25", summary.p25);
    out.Set("p75", summary.p75);
    out.Set("min", summary.min);
    out.Set("max", summary.max);
    out.Set("n", static_cast<std::uint64_t>(summary.n));
    return out;
}

/** One per-layer value; `listed` marks the BENCHMARK.json subset, which
 *  leaves out metrics that are identically zero on some workload (engine
 *  phases on the serial rows, runner.* outside paper_mixes, imbalance on
 *  one channel, row hits on stream256_writes). */
struct LayerMetric {
    std::string name;
    std::string unit;
    double value;
    bool listed;
};

std::vector<LayerMetric>
LayerMetrics(const Layers& l, double ticks_per_second, double traced_run_s,
             double untraced_run_median, const IsolatedMem& mem,
             double core_ns)
{
    auto seconds = [&](std::uint64_t ticks) {
        return Ratio(static_cast<double>(ticks), ticks_per_second);
    };
    auto count = [](std::uint64_t value) { return static_cast<double>(value); };
    const double trace_s = seconds(l.trace_ticks);
    const double pick_in_bank_s = seconds(l.sched.pick_in_bank_ticks);
    const double pick_s = seconds(l.sched.pick_ticks);
    const double hooks_s = seconds(l.sched.hook_ticks);
    const double requests = count(l.reads + l.writes);
    std::uint64_t commands = 0;
    for (const std::uint64_t c : l.commands) {
        commands += c;
    }
    double coordinator_s = 0.0;
    for (const double s : l.coordinator_phase_s) {
        coordinator_s += s;
    }
    auto coordinator = [&](Phase phase) {
        return l.coordinator_phase_s[static_cast<std::size_t>(phase)];
    };

    std::vector<LayerMetric> out = {
        {"trace.entries", "count", count(l.trace_entries), true},
        {"trace.busy_s", "s", trace_s, true},
        {"trace.ns_per_entry", "ns",
         Ratio(trace_s * 1e9, count(l.trace_entries)), true},
        {"sched.pick_in_bank_calls", "count",
         count(l.sched.pick_in_bank_calls), true},
        {"sched.pick_calls", "count", count(l.sched.pick_calls), true},
        {"sched.pick_in_bank_s", "s", pick_in_bank_s, true},
        {"sched.pick_s", "s", pick_s, true},
        {"sched.hooks_s", "s", hooks_s, true},
        {"sched.ns_per_pick_in_bank", "ns",
         Ratio(pick_in_bank_s * 1e9, count(l.sched.pick_in_bank_calls)),
         true},
        {"sched.memo_hit_ratio", "ratio",
         Ratio(count(l.memo_hits), count(l.memo_hits + l.memo_misses)), true},
        {"sched.memo_invalidations", "count", count(l.memo_invalidations),
         true},
        {"mem.requests", "count", requests, true},
        {"mem.write_frac", "fraction", Ratio(count(l.writes), requests), true},
        {"mem.select_scans", "count", count(l.select_scans), true},
        {"mem.select_skip_ratio", "ratio",
         Ratio(count(l.select_skips), count(l.select_scans + l.select_skips)),
         true},
        {"mem.retire_scans", "count", count(l.retire_scans), true},
        {"mem.read_latency_dram", "dram_cycles",
         Ratio(count(l.read_latency_sum), count(l.reads)), true},
        {"mem.iso_ns_per_tick", "ns", mem.ns_per_tick, true},
        {"mem.iso_ns_per_command", "ns", mem.ns_per_command, true},
        {"dram.commands", "count", count(commands), true},
        {"dram.act", "count", count(l.commands[0]), true},
        {"dram.pre", "count", count(l.commands[1]), true},
        {"dram.rd", "count", count(l.commands[2]), true},
        {"dram.wr", "count", count(l.commands[3]), true},
        {"dram.ref", "count", count(l.commands[4]), true},
        {"dram.row_hit_rate", "fraction",
         Ratio(count(l.row_hits), count(l.row_accesses)), false},
        {"dram.commands_per_request", "ratio", Ratio(count(commands), requests),
         true},
        {"cpu.core_ticks", "count", count(l.core_ticks), true},
        {"cpu.instructions", "count", count(l.instructions), true},
        {"cpu.stall_frac", "fraction",
         Ratio(count(l.stall_cycles), count(l.core_ticks)), true},
        {"cpu.iso_ns_per_core_tick", "ns", core_ns, true},
        {"sim.construct_s", "s", l.construct_s, true},
        {"sim.run_s", "s", l.run_s, true},
        {"sim.other_s", "s", l.run_s - trace_s - pick_in_bank_s - pick_s -
                                 hooks_s,
         true},
        {"sim.windows", "count", count(l.windows), true},
        {"sim.window_ticks_mean", "dram_cycles",
         Ratio(l.window_ticks_sum, count(l.windows)), true},
        {"sim.arrival_imbalance_mean", "requests",
         Ratio(l.imbalance_sum, count(l.windows)), false},
    };
    for (std::size_t i = 0; i < parbs::obs::EngineProfiler::kPhaseCount;
         ++i) {
        out.push_back({std::string("sim.") +
                           parbs::obs::EngineProfiler::PhaseName(
                               static_cast<Phase>(i)) +
                           "_s",
                       "s", l.phase_s[i], false});
    }
    out.push_back({"sim.serial_tail_frac", "fraction",
                   Ratio(coordinator(Phase::kCoreIssue) +
                             coordinator(Phase::kPublish) +
                             coordinator(Phase::kMerge),
                         coordinator_s),
                   false});
    out.push_back({"sim.worker_util", "fraction",
                   Ratio(l.worker_busy_s, l.worker_busy_s + l.worker_idle_s),
                   false});
    out.push_back({"sim.attributed_frac", "fraction",
                   Ratio(coordinator_s, l.run_s), false});
    out.push_back({"runner.tasks", "count", count(l.tasks), false});
    out.push_back({"runner.alone_runs", "count", count(l.alone_runs), false});
    out.push_back({"runner.alone_s", "s", l.alone_s, false});
    out.push_back({"runner.busy_frac", "fraction",
                   Ratio(l.task_busy_s, l.pool_capacity_s), false});
    out.push_back({"obs.trace_overhead_frac", "fraction",
                   Ratio(traced_run_s, untraced_run_median) - 1.0, true});
    return out;
}

/** Digests blessed in expected.json (name -> hex); empty if unreadable. */
std::map<std::string, std::string>
LoadExpected()
{
    std::map<std::string, std::string> out;
    std::ifstream in(LEDGER_EXPECTED_PATH);
    if (!in) {
        return out;
    }
    std::stringstream text;
    text << in.rdbuf();
    try {
        const json::Value document = json::Value::Parse(text.str());
        if (const json::Value* digests = document.Find("digests")) {
            for (const auto& [name, value] : digests->members()) {
                out[name] = value.AsString();
            }
        }
    } catch (const json::ParseError&) {
        out.clear();
    }
    return out;
}

std::string
CpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t value = line.find_first_not_of(
                " \t", line.find(':') + 1);
            if (value != std::string::npos) {
                return line.substr(value);
            }
        }
    }
    return "unknown";
}

/** The machine descriptor stamped into every JSON output. */
json::Value
EnvJson(const Options& options, unsigned workload_threads)
{
    json::Value env = json::Value::Object();
    env.Set("cpu_model", CpuModel());
    env.Set("nproc", static_cast<std::uint64_t>(parbs::HardwareJobs()));
    env.Set("build_type", LEDGER_BUILD_TYPE);
    env.Set("compiler", LEDGER_COMPILER);
    env.Set("git_commit", LEDGER_GIT_COMMIT);
    env.Set("seed", options.seed);
    env.Set("warmup_reps", 1);
    if (options.reps > 0) {
        env.Set("reps", options.reps);
    } else {
        env.Set("seconds", options.seconds);
    }
    env.Set("workload_threads", static_cast<std::uint64_t>(workload_threads));
    env.Set("oversubscribed", workload_threads > parbs::HardwareJobs());
    return env;
}

/** This process's peak resident set, from VmHWM: unlike ru_maxrss, it
 *  starts afresh at exec, so a large parent does not inflate it. */
double
PeakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        }
    }
    return 0.0;
}

/** Everything one workload measured in this process. */
struct Measured {
    bool correct = true;
    std::vector<std::string> problems;
    std::string digest;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> sim_rate;
    std::vector<double> dram_rate;
    std::vector<double> setup;
    double peak_rss_mb = 0.0;
    std::vector<LayerMetric> layers;

    void
    Problem(const std::string& text)
    {
        correct = false;
        problems.push_back(text);
        std::cerr << "ledger: " << text << "\n";
    }
};

/** Runs in-process whether the sharded shape is the workload's own. */
bool
Sharded(const WorkloadDef& workload)
{
    return workload.make_config != nullptr &&
           workload.make_config().channel_jobs != 1;
}

IsolatedMem
MedianIsolatedMem(const WorkloadDef& workload, std::uint64_t seed,
                  double rate)
{
    std::vector<double> tick;
    std::vector<double> command;
    for (int i = 0; i < kIsolatedReps; ++i) {
        const IsolatedMem mem = IsolatedController(
            RepresentativeSystem(workload, seed), rate, kIsolatedMemTicks);
        tick.push_back(mem.ns_per_tick);
        command.push_back(mem.ns_per_command);
    }
    return {Summarize(tick).median, Summarize(command).median};
}

double
MedianIsolatedCores(const WorkloadDef& workload, std::uint64_t seed)
{
    std::vector<double> ns;
    for (int i = 0; i < kIsolatedReps; ++i) {
        SystemInputs inputs = RepresentativeSystem(workload, seed);
        const parbs::CpuCycle cycles =
            kIsolatedCoreTicks / std::max<std::size_t>(1, inputs.traces.size());
        ns.push_back(IsolatedCores(std::move(inputs), cycles));
    }
    return Summarize(ns).median;
}

Measured
MeasureWorkload(const WorkloadDef& workload, const Options& options)
{
    Measured out;
    SpanLog spans(!options.chrome_dir.empty());
    const auto workload_start = Clock::now();
    TscClock clock;
    clock.Start();

    // 1. Exactness against the blessed digest: fixed seed, --smoke size.
    {
        const auto start = Clock::now();
        RepOptions smoke;
        smoke.smoke = true;
        smoke.spans = &spans;
        const std::string digest =
            DigestHex(CombinedDigest(RunRep(workload, smoke).digests));
        const auto expected = LoadExpected();
        const auto it = expected.find(workload.name);
        if (it == expected.end() || it->second != digest) {
            out.Problem(std::string(workload.name) + ": smoke digest " +
                        digest + " differs from expected.json (" +
                        (it == expected.end() ? "missing" : it->second) +
                        ")");
        }
        spans.Add("smoke check", "rep", start);
    }

    RepOptions rep_options;
    rep_options.seed = options.seed;
    rep_options.spans = &spans;

    // 2. Warm-up; its digests are the reference every later rep matches.
    const auto warm_start = Clock::now();
    const RepResult warm = RunRep(workload, rep_options);
    spans.Add("warm-up", "rep", warm_start);
    out.digest = DigestHex(CombinedDigest(warm.digests));
    if (warm.failed != 0) {
        out.Problem(std::string(workload.name) + ": warm-up rep failed");
    }

    // 3. The sharded shape must simulate exactly what the serial one does.
    if (Sharded(workload)) {
        RepOptions serial = rep_options;
        serial.serial = true;
        const auto start = Clock::now();
        const std::string reference =
            DigestHex(CombinedDigest(RunRep(workload, serial).digests));
        spans.Add("serial reference", "rep", start);
        if (reference != out.digest) {
            out.Problem(std::string(workload.name) + ": digest " +
                        out.digest + " differs from the serial engine's " +
                        reference);
        }
    }

    // 4. Timed reps, cycling through the seed's sub-seeds; the first rep of
    //    each sub-seed (the warm-up, for sub-seed 0) is the reference the
    //    later ones must match.
    std::map<int, std::vector<std::uint64_t>> references = {{0, warm.digests}};
    std::vector<double> run_s_first_input;
    const auto timed_start = Clock::now();
    for (int rep = 0;
         options.reps > 0
             ? rep < options.reps
             : (rep < kMinReps || SecondsSince(timed_start) < options.seconds);
         ++rep) {
        const int input = rep % kSubSeeds;
        RepOptions timed = rep_options;
        timed.seed = SubSeed(options.seed, input);
        const auto start = Clock::now();
        const RepResult result = RunRep(workload, timed);
        spans.Add("rep " + std::to_string(rep + 1), "rep", start);
        out.attempted += result.runs;
        out.failed += result.failed;
        const auto [reference, first] =
            references.try_emplace(input, result.digests);
        for (std::size_t i = 0; !first && i < result.runs; ++i) {
            const bool threw = result.digests[i] == 0;
            if (!threw && (i >= reference->second.size() ||
                           result.digests[i] != reference->second[i])) {
                out.failed += 1;
            }
        }
        if (result.digests != reference->second) {
            out.Problem(std::string(workload.name) + ": rep " +
                        std::to_string(rep + 1) +
                        " simulated different outputs than an earlier rep "
                        "of the same inputs");
        }
        out.sim_rate.push_back(Ratio(result.sim_cycles, result.run_s) / 1e6);
        out.dram_rate.push_back(Ratio(result.dram_reads, result.run_s) / 1e3);
        if (input == 0) {
            run_s_first_input.push_back(result.run_s);
        }
    }
    // Set-up is sampled apart from the reps, a fixed number of times, so
    // its median does not depend on how many reps fitted in the run.
    for (int i = 0; i < kSetupSamples; ++i) {
        out.setup.push_back(SetupOnly(workload, options.seed));
    }
    out.peak_rss_mb = PeakRssMb();
    if (out.failed != 0) {
        out.Problem(std::string(workload.name) + ": " +
                    std::to_string(out.failed) + " of " +
                    std::to_string(out.attempted) + " runs failed");
    }

    // 5. Traced rep and isolated harnesses: the per-layer view.
    if (options.trace == 1) {
        RepOptions traced_options = rep_options;
        traced_options.traced = true;
        const auto start = Clock::now();
        const RepResult traced = RunRep(workload, traced_options);
        spans.Add("traced", "rep", start);
        if (traced.digests != warm.digests) {
            out.Problem(std::string(workload.name) +
                        ": the traced rep simulated different outputs");
        }
        const Layers& layers = traced.layers;
        const double rate =
            Ratio(static_cast<double>(layers.reads + layers.writes),
                  static_cast<double>(layers.channel_cycles));
        const IsolatedMem mem =
            MedianIsolatedMem(workload, options.seed, rate);
        const double core_ns = MedianIsolatedCores(workload, options.seed);
        out.layers =
            LayerMetrics(layers, clock.TicksPerSecond(), traced.run_s,
                         Summarize(run_s_first_input).median, mem, core_ns);
    }

    spans.Add(workload.name, "workload", workload_start);
    if (spans.enabled()) {
        const std::string path =
            options.chrome_dir + "/" + workload.name + ".trace.json";
        if (!spans.Write(path)) {
            out.Problem("cannot write " + path);
        }
    }
    return out;
}

/** The end-to-end summaries, in kEndToEnd order. */
std::vector<Summary>
EndToEndSummaries(const Measured& measured)
{
    return {Summarize(measured.sim_rate), Summarize(measured.dram_rate),
            Summarize(measured.setup), Summarize({measured.peak_rss_mb}),
            Summarize({Ratio(static_cast<double>(measured.failed),
                             static_cast<double>(measured.attempted))})};
}

json::Value
ValueJson(double value, const std::string& unit)
{
    json::Value out = json::Value::Object();
    out.Set("value", value);
    out.Set("unit", unit);
    return out;
}

/** The result line: exactly correct/attempted/failed/metrics. */
json::Value
ResultLine(const Measured& measured, int trace)
{
    json::Value metrics = json::Value::Object();
    if (trace == 0) {
        const std::vector<Summary> summaries = EndToEndSummaries(measured);
        for (std::size_t i = 0; i < kListedEndToEnd; ++i) {
            metrics.Set(kEndToEnd[i].name,
                        ValueJson(summaries[i].median, kEndToEnd[i].unit));
        }
    } else {
        for (const LayerMetric& layer : measured.layers) {
            if (layer.listed) {
                metrics.Set(layer.name, ValueJson(layer.value, layer.unit));
            }
        }
    }
    json::Value line = json::Value::Object();
    line.Set("correct", measured.correct);
    line.Set("attempted", measured.attempted);
    line.Set("failed", measured.failed);
    line.Set("metrics", std::move(metrics));
    return line;
}

/** The full per-workload record (--record, and each --all entry). */
json::Value
RecordJson(const WorkloadDef& workload, const Measured& measured,
           const Options& options)
{
    json::Value record = json::Value::Object();
    record.Set("why", workload.why);
    record.Set("threads", static_cast<std::uint64_t>(workload.threads));
    record.Set("digest", measured.digest);
    record.Set("correct", measured.correct);
    json::Value problems = json::Value::Array();
    for (const std::string& problem : measured.problems) {
        problems.Append(problem);
    }
    record.Set("problems", std::move(problems));
    record.Set("attempted", measured.attempted);
    record.Set("failed", measured.failed);
    json::Value end_to_end = json::Value::Object();
    const std::vector<Summary> summaries = EndToEndSummaries(measured);
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
        end_to_end.Set(kEndToEnd[i].name,
                       SummaryJson(summaries[i], kEndToEnd[i].unit));
    }
    record.Set("end_to_end", std::move(end_to_end));
    json::Value layers = json::Value::Object();
    for (const LayerMetric& layer : measured.layers) {
        layers.Set(layer.name, ValueJson(layer.value, layer.unit));
    }
    record.Set("per_layer", std::move(layers));
    record.Set("env", EnvJson(options, workload.threads));
    return record;
}

int
RunOne(const Options& options)
{
    const WorkloadDef* workload = FindWorkload(options.workload);
    if (workload == nullptr) {
        Usage("unknown workload " + options.workload);
    }
    const Measured measured = MeasureWorkload(*workload, options);
    if (options.record) {
        std::cout << RecordJson(*workload, measured, options).Dump() << "\n";
    } else {
        std::cout << ResultLine(measured, options.trace).Dump() << "\n";
    }
    return measured.correct ? 0 : 1;
}

/** Runs `/proc/self/exe args...`; @return its stdout, or "" on failure. */
std::string
RunChild(const std::vector<std::string>& args, int& status)
{
    int fds[2];
    if (pipe(fds) != 0) {
        status = -1;
        return "";
    }
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        status = -1;
        return "";
    }
    if (pid == 0) {
        dup2(fds[1], STDOUT_FILENO);
        close(fds[0]);
        close(fds[1]);
        std::vector<char*> argv;
        for (const std::string& arg : args) {
            argv.push_back(const_cast<char*>(arg.c_str()));
        }
        argv.push_back(nullptr);
        execv("/proc/self/exe", argv.data());
        _exit(127);
    }
    close(fds[1]);
    std::string output;
    char buffer[4096];
    ssize_t got = 0;
    while ((got = read(fds[0], buffer, sizeof(buffer))) > 0) {
        output.append(buffer, static_cast<std::size_t>(got));
    }
    close(fds[0]);
    waitpid(pid, &status, 0);
    return output;
}

std::string
LastLine(const std::string& text)
{
    std::string last;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (!line.empty()) {
            last = line;
        }
    }
    return last;
}

int
RunAll(const Options& options)
{
    const int reps = options.reps > 0 ? options.reps : 5;
    Options env_options = options;
    env_options.reps = reps;
    unsigned max_threads = 1;
    bool ok = true;
    json::Value workloads = json::Value::Object();
    std::map<std::string, std::string> digests;
    for (const WorkloadDef& workload : Workloads()) {
        max_threads = std::max(max_threads, workload.threads);
        std::vector<std::string> args = {
            "ledger", "--workload", workload.name,
            "--seed", std::to_string(options.seed),
            "--reps", std::to_string(reps),
            "--trace", "1", "--record"};
        if (!options.chrome_dir.empty()) {
            args.push_back("--chrome");
            args.push_back(options.chrome_dir);
        }
        std::cerr << "ledger: " << workload.name << " ...\n";
        int status = 0;
        const std::string output = RunChild(args, status);
        json::Value record;
        try {
            record = json::Value::Parse(LastLine(output));
        } catch (const json::ParseError&) {
            record = json::Value::Object();
            record.Set("correct", false);
        }
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            std::cerr << "ledger: " << workload.name << " child failed\n";
            record.Set("correct", false);
            ok = false;
        }
        if (const json::Value* digest = record.Find("digest")) {
            digests[workload.name] = digest->AsString();
        }
        workloads.Set(workload.name, std::move(record));
    }
    if (digests["scale64_sharded"] != digests["scale64_serial"]) {
        std::cerr << "ledger: scale64_sharded and scale64_serial digests "
                     "differ\n";
        ok = false;
    }

    json::Value bounds = json::Value::Object();
    for (const EndToEndDef& def : kEndToEnd) {
        json::Value bound = json::Value::Object();
        bound.Set("unit", def.unit);
        bound.Set("better", def.higher_better ? "higher" : "lower");
        bound.Set("bound", def.bound);
        bound.Set("floor", def.floor);
        bounds.Set(def.name, std::move(bound));
    }
    json::Value document = json::Value::Object();
    document.Set("env", EnvJson(env_options, max_threads));
    document.Set("bounds", std::move(bounds));
    document.Set("workloads", std::move(workloads));

    // Human-readable summary.
    std::printf("%-18s %-18s %12s %12s %12s %4s\n", "workload", "metric",
                "median", "p25", "p75", "n");
    for (const auto& [name, record] : document.Find("workloads")->members()) {
        const json::Value* end_to_end = record.Find("end_to_end");
        if (end_to_end == nullptr) {
            continue;
        }
        for (const auto& [metric, summary] : end_to_end->members()) {
            std::printf("%-18s %-18s %12.6g %12.6g %12.6g %4.0f\n",
                        name.c_str(), metric.c_str(),
                        summary.Find("median")->AsNumber(),
                        summary.Find("p25")->AsNumber(),
                        summary.Find("p75")->AsNumber(),
                        summary.Find("n")->AsNumber());
        }
    }
    if (!options.json_path.empty()) {
        std::ofstream out(options.json_path);
        out << document.Dump(2) << "\n";
        if (!out) {
            std::cerr << "ledger: cannot write " << options.json_path << "\n";
            ok = false;
        }
    }
    return ok ? 0 : 1;
}

json::Value
LoadDocument(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        Usage("cannot read " + path);
    }
    std::stringstream text;
    text << in.rdbuf();
    try {
        return json::Value::Parse(text.str());
    } catch (const json::ParseError& error) {
        Usage(path + ": " + error.what());
    }
}

int
RunCompare(const Options& options)
{
    const json::Value a = LoadDocument(options.compare[0]);
    const json::Value b = LoadDocument(options.compare[1]);
    const json::Value* a_workloads = a.Find("workloads");
    const json::Value* b_workloads = b.Find("workloads");
    if (a_workloads == nullptr || b_workloads == nullptr) {
        Usage("--compare needs two `ledger --all --json` outputs");
    }
    bool ok = true;
    std::printf("%-18s %-18s %12s %12s %8s %8s %s\n", "workload", "metric",
                "median A", "median B", "B/A", "overlap", "verdict");
    for (const auto& [name, a_record] : a_workloads->members()) {
        const json::Value* b_record = b_workloads->Find(name);
        if (b_record == nullptr) {
            std::printf("%-18s missing from B\n", name.c_str());
            ok = false;
            continue;
        }
        for (const EndToEndDef& def : kEndToEnd) {
            const json::Value* sa = a_record.Find("end_to_end")->Find(def.name);
            const json::Value* sb =
                b_record->Find("end_to_end")->Find(def.name);
            if (sa == nullptr || sb == nullptr) {
                continue;
            }
            const double ma = sa->Find("median")->AsNumber();
            const double mb = sb->Find("median")->AsNumber();
            const bool overlap =
                sa->Find("p25")->AsNumber() <= sb->Find("p75")->AsNumber() &&
                sb->Find("p25")->AsNumber() <= sa->Find("p75")->AsNumber();
            const double worse = def.higher_better ? ma - mb : mb - ma;
            const bool within =
                worse <= std::max(def.bound * std::abs(ma), def.floor);
            ok = ok && within;
            std::printf("%-18s %-18s %12.6g %12.6g %8.4f %8s %s\n",
                        name.c_str(), def.name, ma, mb, Ratio(mb, ma),
                        overlap ? "yes" : "no",
                        within ? "within bound" : "REGRESSION");
        }
    }
    return ok ? 0 : 1;
}

int
RunSmoke(const Options& options)
{
    bool ok = true;
    std::map<std::string, std::string> digests;
    const auto expected = LoadExpected();
    for (const WorkloadDef& workload : Workloads()) {
        RepOptions plain;
        plain.smoke = true;
        RepOptions traced = plain;
        traced.traced = true;
        const RepResult untraced_rep = RunRep(workload, plain);
        const std::string untraced =
            DigestHex(CombinedDigest(untraced_rep.digests));
        const std::string with_probes =
            DigestHex(CombinedDigest(RunRep(workload, traced).digests));
        digests[workload.name] = untraced;
        const auto it = expected.find(workload.name);
        const bool blessed = it != expected.end() && it->second == untraced;
        const bool transparent = with_probes == untraced;
        std::printf("%-18s %s  traced %s  %s\n", workload.name,
                    untraced.c_str(), transparent ? "same" : "DIFFERS",
                    options.bless ? "" : blessed ? "matches expected.json"
                                                 : "DIFFERS from expected.json");
        ok = ok && transparent && untraced_rep.failed == 0 &&
             (options.bless || blessed);
    }
    if (digests["scale64_sharded"] != digests["scale64_serial"]) {
        std::printf("scale64_sharded and scale64_serial digests differ\n");
        ok = false;
    }
    if (options.bless) {
        if (!ok) {
            std::printf("not blessing: a check failed\n");
            return 1;
        }
        json::Value table = json::Value::Object();
        for (const WorkloadDef& workload : Workloads()) {
            table.Set(workload.name, digests[workload.name]);
        }
        json::Value document = json::Value::Object();
        document.Set("seed", 1);
        document.Set("size", "smoke");
        document.Set("digests", std::move(table));
        std::ofstream out(LEDGER_EXPECTED_PATH);
        out << document.Dump(2) << "\n";
        if (!out) {
            std::printf("cannot write %s\n", LEDGER_EXPECTED_PATH);
            return 1;
        }
        std::printf("blessed %s\n", LEDGER_EXPECTED_PATH);
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    // The figure binaries honour these; the ledger measures the plain path
    // whatever the caller's environment says.
    unsetenv("PARBS_TRACE");
    unsetenv("PARBS_CHECK");
    const Options options = ParseOptions(argc, argv);
    try {
        if (!options.compare.empty()) {
            return RunCompare(options);
        }
        if (options.all) {
            return RunAll(options);
        }
        if (options.smoke) {
            return RunSmoke(options);
        }
        return RunOne(options);
    } catch (const std::exception& error) {
        std::cerr << "ledger: " << error.what() << "\n";
        return 1;
    }
}
