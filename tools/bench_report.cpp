/**
 * @file
 * Aggregates the per-binary JSON files the bench harness writes (one per
 * `--json` invocation, conventionally under bench/out/) into a single
 * BENCH_results.json, and optionally checks them against the checked-in
 * golden results:
 *
 *   bench_report --dir bench/out --out BENCH_results.json
 *   bench_report --dir bench/out --check bench/golden [--wall-tolerance 0.2]
 *   bench_report --dir bench/out --summary summary.md
 *   bench_report --dir bench/out --engine
 *   bench_report --trace run.json
 *
 * --trace switches to a standalone mode that validates one Chrome
 * trace-event file produced by the observability layer (PARBS_TRACE /
 * --trace on the experiment binaries): the JSON must parse, carry a
 * nonempty traceEvents array with well-formed events, and its request
 * spans must balance; a summary (event counts by category, sampler rows,
 * latency percentiles) is printed to stderr.  Traces stamped with
 * otherData.engine_profile must additionally carry the engine lanes
 * (DESIGN.md §5h) and only the known engine track names.
 *
 * --engine reads the engine flight-recorder subtrees that bench_scale
 * emits under env.engine (per-run phase timings) and prints one row per
 * (config, scheduler): serial-tail fraction of the coordinator, mean
 * worker utilization, and recorded window count.  When the same suite was
 * run at several --channel-jobs values into the same --dir, rows sharing
 * a label differ only in worker count N, so the mode also fits
 * wall = a + b/N per label (given at least three distinct N) and reports
 * the implied Amdahl ceiling (a+b)/a — the speedup the engine could reach
 * with infinite workers — or "no parallel gain" when the fitted b is not
 * positive.  With --summary the table is appended as markdown.
 *
 * The check compares each file's deterministic "run" subtree exactly
 * (any metric drift fails) and its wall clock against the golden wall
 * clock with a relative tolerance (default +20%) — the perf-regression
 * gate in CI.  Exit status: 0 clean, 1 regression/drift, 2 usage error.
 *
 * The aggregate pass also joins every per-scheduler aggregate (weighted
 * speedup, unfairness) with the table1 "scheduler cost" values into the
 * performance / fairness / hardware-cost Pareto table — the policy
 * shootout the lineup exists for.  --summary PATH additionally writes the
 * Pareto table as GitHub-flavored markdown (CI appends it to
 * $GITHUB_STEP_SUMMARY).
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"

namespace fs = std::filesystem;
using parbs::json::Value;

namespace {

/** Sorted *.json paths directly inside @p dir. */
std::vector<fs::path>
JsonFiles(const fs::path& dir)
{
    std::vector<fs::path> files;
    if (!fs::is_directory(dir)) {
        return files;
    }
    for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".json") {
            files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

bool
LoadJson(const fs::path& path, Value& out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "bench_report: cannot read %s\n",
                     path.string().c_str());
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
        out = Value::Parse(buffer.str());
    } catch (const parbs::json::ParseError& error) {
        std::fprintf(stderr, "bench_report: %s: %s\n",
                     path.string().c_str(), error.what());
        return false;
    }
    return true;
}

/** LoadJson, then rejects any document that is not one bench binary's
 *  result: an object with "env" and "run" objects. */
bool
LoadBenchResult(const fs::path& path, Value& out)
{
    if (!LoadJson(path, out)) {
        return false;
    }
    const auto is_object = [](const Value* value) {
        return value != nullptr && value->kind() == Value::Kind::kObject;
    };
    if (!is_object(&out) || !is_object(out.Find("env")) ||
        !is_object(out.Find("run"))) {
        std::fprintf(stderr,
                     "bench_report: %s: not a bench result (expected an "
                     "object with \"env\" and \"run\" objects)\n",
                     path.string().c_str());
        return false;
    }
    return true;
}

double
WallSeconds(const Value& root)
{
    const Value* env = root.Find("env");
    const Value* wall = env != nullptr ? env->Find("wall_seconds") : nullptr;
    return wall != nullptr ? wall->AsNumber() : 0.0;
}

/**
 * Per-scheduler Pareto point: performance and fairness averaged over
 * every aggregate any benchmark recorded for the scheduler, joined with
 * the table1 "scheduler cost" storage bits.
 */
struct ParetoRow {
    std::string scheduler;
    double speedup_sum = 0.0;
    double unfairness_sum = 0.0;
    std::size_t samples = 0;
    double cost_bits = -1.0; ///< <0 until table1's value is found.
    bool frontier = false;

    double Speedup() const
    {
        return samples == 0 ? 0.0
                            : speedup_sum / static_cast<double>(samples);
    }
    double Unfairness() const
    {
        return samples == 0 ? 0.0
                            : unfairness_sum / static_cast<double>(samples);
    }
};

/**
 * Collects the Pareto rows from the aggregate @p report: every
 * sections[].aggregates[] entry contributes a (speedup, unfairness)
 * sample keyed by scheduler name; every "scheduler cost" section value
 * named "<scheduler> total bits" contributes the cost coordinate.
 * Insertion order follows first appearance (the lineup order).
 */
std::vector<ParetoRow>
CollectParetoRows(const Value& report)
{
    std::vector<ParetoRow> rows;
    auto row_for = [&rows](const std::string& name) -> ParetoRow& {
        for (ParetoRow& row : rows) {
            if (row.scheduler == name) {
                return row;
            }
        }
        rows.push_back(ParetoRow{});
        rows.back().scheduler = name;
        return rows.back();
    };

    const Value* benchmarks = report.Find("benchmarks");
    if (benchmarks == nullptr) {
        return rows;
    }

    // Pass 1: the lineup, from table1_hardware_cost's "scheduler cost"
    // section ("<scheduler> total bits" values, in lineup order).
    std::vector<std::pair<std::string, double>> costs;
    for (const Value& entry : benchmarks->items()) {
        const Value* run = entry.Find("run");
        const Value* sections =
            run != nullptr ? run->Find("sections") : nullptr;
        if (sections == nullptr) {
            continue;
        }
        for (const Value& section : sections->items()) {
            const Value* name = section.Find("name");
            if (name == nullptr || name->AsString() != "scheduler cost") {
                continue;
            }
            const Value* values = section.Find("values");
            if (values == nullptr) {
                continue;
            }
            for (const Value& value : values->items()) {
                const Value* value_name = value.Find("name");
                const Value* bits = value.Find("value");
                if (value_name == nullptr || bits == nullptr) {
                    continue;
                }
                const std::string& label = value_name->AsString();
                const std::string suffix = " total bits";
                if (label.size() <= suffix.size() ||
                    label.compare(label.size() - suffix.size(),
                                  suffix.size(), suffix) != 0) {
                    continue;
                }
                costs.emplace_back(
                    label.substr(0, label.size() - suffix.size()),
                    bits->AsNumber());
            }
        }
    }
    for (const auto& [scheduler, bits] : costs) {
        row_for(scheduler).cost_bits = bits;
    }

    // Pass 2: accumulate (speedup, unfairness) samples.  With a known
    // lineup, only sections covering the *whole* lineup contribute —
    // otherwise a scheduler that also appears in two-policy sweeps or
    // ablations would average over a different benchmark set than its
    // rivals and the means would not be comparable.  Without a cost
    // section (partial --dir) every aggregate contributes.
    for (const Value& entry : benchmarks->items()) {
        const Value* run = entry.Find("run");
        const Value* sections =
            run != nullptr ? run->Find("sections") : nullptr;
        if (sections == nullptr) {
            continue;
        }
        for (const Value& section : sections->items()) {
            const Value* aggregates = section.Find("aggregates");
            if (aggregates == nullptr) {
                continue;
            }
            if (!costs.empty()) {
                bool covers_lineup = true;
                for (const auto& [scheduler, bits] : costs) {
                    bool found = false;
                    for (const Value& aggregate : aggregates->items()) {
                        const Value* name = aggregate.Find("scheduler");
                        found |= name != nullptr &&
                                 name->AsString() == scheduler;
                    }
                    covers_lineup &= found;
                }
                if (!covers_lineup) {
                    continue;
                }
            }
            for (const Value& aggregate : aggregates->items()) {
                const Value* scheduler = aggregate.Find("scheduler");
                const Value* speedup =
                    aggregate.Find("weighted_speedup_gmean");
                const Value* unfairness =
                    aggregate.Find("unfairness_gmean");
                if (scheduler == nullptr || speedup == nullptr ||
                    unfairness == nullptr) {
                    continue;
                }
                if (!costs.empty() &&
                    std::none_of(costs.begin(), costs.end(),
                                 [&](const auto& cost) {
                                     return cost.first ==
                                            scheduler->AsString();
                                 })) {
                    continue;
                }
                ParetoRow& row = row_for(scheduler->AsString());
                row.speedup_sum += speedup->AsNumber();
                row.unfairness_sum += unfairness->AsNumber();
                row.samples += 1;
            }
        }
    }

    // A row is on the frontier unless some other row is at least as good
    // on every axis (speedup up; unfairness and cost down) and strictly
    // better on one.  Rows without a cost coordinate (cost-less fallback
    // mode) still compare on the two metric axes.
    for (ParetoRow& row : rows) {
        if (row.samples == 0) {
            continue;
        }
        row.frontier = true;
        for (const ParetoRow& other : rows) {
            if (&other == &row || other.samples == 0) {
                continue;
            }
            const double cost = row.cost_bits < 0 ? 0.0 : row.cost_bits;
            const double other_cost =
                other.cost_bits < 0 ? 0.0 : other.cost_bits;
            const bool as_good = other.Speedup() >= row.Speedup() &&
                                 other.Unfairness() <= row.Unfairness() &&
                                 other_cost <= cost;
            const bool better = other.Speedup() > row.Speedup() ||
                                other.Unfairness() < row.Unfairness() ||
                                other_cost < cost;
            if (as_good && better) {
                row.frontier = false;
                break;
            }
        }
    }
    return rows;
}

/** Prints the Pareto shootout table to stderr. */
void
PrintParetoTable(const std::vector<ParetoRow>& rows)
{
    bool any = false;
    for (const ParetoRow& row : rows) {
        if (row.samples > 0) {
            any = true;
            break;
        }
    }
    if (!any) {
        return;
    }
    std::fprintf(stderr,
                 "pareto %-22s %10s %10s %10s  %s\n",
                 "scheduler", "WS(mean)", "unfairness", "cost bits",
                 "frontier");
    for (const ParetoRow& row : rows) {
        if (row.samples == 0) {
            continue;
        }
        char cost[32];
        if (row.cost_bits < 0) {
            std::snprintf(cost, sizeof(cost), "%10s", "?");
        } else {
            std::snprintf(cost, sizeof(cost), "%10.0f", row.cost_bits);
        }
        std::fprintf(stderr, "pareto %-22s %10.3f %10.3f %s  %s\n",
                     row.scheduler.c_str(), row.Speedup(),
                     row.Unfairness(), cost,
                     row.frontier ? "*" : "");
    }
}

/** Writes the markdown job summary: the Pareto table. */
bool
WriteSummary(const std::string& path, const std::vector<ParetoRow>& rows)
{
    std::ofstream out(path, std::ios::app);
    if (!out) {
        std::fprintf(stderr, "bench_report: cannot write %s\n",
                     path.c_str());
        return false;
    }
    out << "## Scheduler shootout — performance / fairness / hardware "
           "cost\n\n";
    out << "| scheduler | weighted speedup (mean) | unfairness (mean) | "
           "cost (bits) | Pareto |\n";
    out << "|---|---|---|---|---|\n";
    char line[256];
    for (const ParetoRow& row : rows) {
        if (row.samples == 0) {
            continue;
        }
        if (row.cost_bits < 0) {
            std::snprintf(line, sizeof(line),
                          "| %s | %.3f | %.3f | ? | %s |\n",
                          row.scheduler.c_str(), row.Speedup(),
                          row.Unfairness(),
                          row.frontier ? "frontier" : "");
        } else {
            std::snprintf(line, sizeof(line),
                          "| %s | %.3f | %.3f | %.0f | %s |\n",
                          row.scheduler.c_str(), row.Speedup(),
                          row.Unfairness(), row.cost_bits,
                          row.frontier ? "frontier" : "");
        }
        out << line;
    }
    out << "\n";
    std::fprintf(stderr, "bench_report: appended summary to %s\n",
                 path.c_str());
    return true;
}

/**
 * One engine flight-recorder row: the env.engine timing subtree a single
 * (config, scheduler) run recorded (DESIGN.md §5h).
 */
struct EngineRow {
    std::string label;        ///< "64 cores x 8 channels (1 rank)/PAR-BS"
    double participants = 0.0;
    double tail = 0.0;        ///< Coordinator serial-tail fraction.
    double utilization = 0.0; ///< Mean worker busy fraction.
    double windows = 0.0;     ///< Wall-timed window records kept.
    double wall_seconds = 0.0; ///< Coordinator busy seconds (all phases).
};

/** Per-config least-squares fit of wall = a + b/N. */
struct AmdahlFit {
    std::string group;
    std::size_t points = 0;
    double serial = 0.0;    ///< a: wall left at N = infinity.
    double parallel = 0.0;  ///< b: the part that scales away.
    double ceiling = 0.0;   ///< (a+b)/a, or 0 when a is noise-negative.

    /** b <= 0: wall does not shrink with N, so no ceiling is reported. */
    bool NoParallelGain() const { return parallel <= 0.0; }
};

/**
 * Collects one EngineRow per env.engine entry of every benchmark in the
 * aggregate @p report.  Benchmarks without engine output contribute
 * nothing, so the mode degrades to an empty table on non-engine suites.
 */
std::vector<EngineRow>
CollectEngineRows(const Value& report)
{
    std::vector<EngineRow> rows;
    const Value* benchmarks = report.Find("benchmarks");
    if (benchmarks == nullptr) {
        return rows;
    }
    for (const Value& entry : benchmarks->items()) {
        const Value* env = entry.Find("env");
        const Value* engine = env != nullptr ? env->Find("engine") : nullptr;
        if (engine == nullptr) {
            continue;
        }
        for (const Value& item : engine->items()) {
            const Value* label = item.Find("label");
            const Value* timing = item.Find("engine");
            if (label == nullptr || timing == nullptr) {
                continue;
            }
            EngineRow row;
            row.label = label->AsString();
            const Value* participants = timing->Find("participants");
            const Value* tail = timing->Find("serial_tail_fraction");
            const Value* utilization = timing->Find("worker_utilization");
            const Value* windows = timing->Find("windows_recorded");
            row.participants =
                participants != nullptr ? participants->AsNumber() : 0.0;
            row.tail = tail != nullptr ? tail->AsNumber() : 0.0;
            row.utilization =
                utilization != nullptr ? utilization->AsNumber() : 0.0;
            row.windows = windows != nullptr ? windows->AsNumber() : 0.0;
            const Value* phases = timing->Find("phases");
            if (phases != nullptr) {
                for (const Value& phase : phases->items()) {
                    const Value* participant = phase.Find("participant");
                    const Value* seconds = phase.Find("seconds");
                    if (participant != nullptr && seconds != nullptr &&
                        participant->AsNumber() == 0.0) {
                        row.wall_seconds += seconds->AsNumber();
                    }
                }
            }
            rows.push_back(std::move(row));
        }
    }
    return rows;
}

/**
 * Fits wall = a + b * (1/N) per config label by least squares over the
 * rows whose participant counts differ.  Within one label the simulated
 * work is fixed, so N only varies when the same suite was run at several
 * --channel-jobs values into the same --dir (the CI engine sweep); the
 * intercept a is then the engine's serial floor and (a+b)/a its Amdahl
 * speedup ceiling.  Two points always fit a line exactly, so labels with
 * fewer than kMinAmdahlPoints distinct N are skipped — a single-sweep
 * aggregate simply fits nothing.
 */
constexpr std::size_t kMinAmdahlPoints = 3;

std::vector<AmdahlFit>
FitAmdahl(const std::vector<EngineRow>& rows)
{
    std::vector<AmdahlFit> fits;
    std::vector<std::string> groups;
    for (const EngineRow& row : rows) {
        if (std::find(groups.begin(), groups.end(), row.label) ==
            groups.end()) {
            groups.push_back(row.label);
        }
    }
    for (const std::string& group : groups) {
        double sum_x = 0.0;
        double sum_y = 0.0;
        double sum_xx = 0.0;
        double sum_xy = 0.0;
        std::size_t n = 0;
        std::vector<double> distinct;
        for (const EngineRow& row : rows) {
            if (row.label != group || row.participants <= 0.0 ||
                row.wall_seconds <= 0.0) {
                continue;
            }
            if (std::find(distinct.begin(), distinct.end(),
                          row.participants) == distinct.end()) {
                distinct.push_back(row.participants);
            }
            const double x = 1.0 / row.participants;
            const double y = row.wall_seconds;
            sum_x += x;
            sum_y += y;
            sum_xx += x * x;
            sum_xy += x * y;
            n += 1;
        }
        if (distinct.size() < kMinAmdahlPoints) {
            continue;
        }
        const double denom =
            static_cast<double>(n) * sum_xx - sum_x * sum_x;
        if (denom == 0.0) {
            continue;
        }
        AmdahlFit fit;
        fit.group = group;
        fit.points = n;
        fit.parallel =
            (static_cast<double>(n) * sum_xy - sum_x * sum_y) / denom;
        fit.serial = (sum_y - fit.parallel * sum_x) / static_cast<double>(n);
        fit.ceiling = fit.serial > 0.0
                          ? (fit.serial + fit.parallel) / fit.serial
                          : 0.0;
        fits.push_back(std::move(fit));
    }
    return fits;
}

/** Prints the engine table and the Amdahl fits to stderr. */
void
PrintEngineTable(const std::vector<EngineRow>& rows,
                 const std::vector<AmdahlFit>& fits)
{
    if (rows.empty()) {
        std::fprintf(stderr,
                     "bench_report: --engine found no env.engine data "
                     "(run bench_scale with --engine)\n");
        return;
    }
    std::fprintf(stderr, "engine %-42s %4s %10s %10s %8s %9s\n",
                 "config/scheduler", "N", "tail", "util", "windows",
                 "wall");
    for (const EngineRow& row : rows) {
        std::fprintf(stderr,
                     "engine %-42s %4.0f %9.1f%% %9.1f%% %8.0f %8.3fs\n",
                     row.label.c_str(), row.participants, row.tail * 100.0,
                     row.utilization * 100.0, row.windows,
                     row.wall_seconds);
    }
    for (const AmdahlFit& fit : fits) {
        if (fit.NoParallelGain()) {
            std::fprintf(stderr,
                         "amdahl %-42s no parallel gain: wall does not "
                         "shrink with N (%zu points)\n",
                         fit.group.c_str(), fit.points);
        } else if (fit.ceiling > 0.0) {
            std::fprintf(stderr,
                         "amdahl %-42s serial %.3fs + parallel %.3fs "
                         "-> ceiling %.1fx (%zu points)\n",
                         fit.group.c_str(), fit.serial, fit.parallel,
                         fit.ceiling, fit.points);
        } else {
            std::fprintf(stderr,
                         "amdahl %-42s no measurable serial floor "
                         "(%zu points)\n",
                         fit.group.c_str(), fit.points);
        }
    }
}

/** Appends the engine table and Amdahl fits as markdown to @p path. */
bool
AppendEngineSummary(const std::string& path,
                    const std::vector<EngineRow>& rows,
                    const std::vector<AmdahlFit>& fits)
{
    if (rows.empty()) {
        return true;
    }
    std::ofstream out(path, std::ios::app);
    if (!out) {
        std::fprintf(stderr, "bench_report: cannot write %s\n",
                     path.c_str());
        return false;
    }
    out << "## Engine flight recorder — phase timings\n\n";
    out << "| config / scheduler | workers | serial tail | worker util | "
           "windows | coordinator wall |\n";
    out << "|---|---|---|---|---|---|\n";
    char line[256];
    for (const EngineRow& row : rows) {
        std::snprintf(line, sizeof(line),
                      "| %s | %.0f | %.1f%% | %.1f%% | %.0f | %.3fs |\n",
                      row.label.c_str(), row.participants, row.tail * 100.0,
                      row.utilization * 100.0, row.windows,
                      row.wall_seconds);
        out << line;
    }
    out << "\n";
    if (!fits.empty()) {
        out << "### Fitted Amdahl ceiling (wall = a + b/N)\n\n";
        out << "| group | points | serial a | parallel b | ceiling |\n";
        out << "|---|---|---|---|---|\n";
        for (const AmdahlFit& fit : fits) {
            if (fit.NoParallelGain()) {
                std::snprintf(line, sizeof(line),
                              "| %s | %zu | %.3fs | %.3fs | no parallel gain "
                              "|\n",
                              fit.group.c_str(), fit.points, fit.serial,
                              fit.parallel);
            } else if (fit.ceiling > 0.0) {
                std::snprintf(line, sizeof(line),
                              "| %s | %zu | %.3fs | %.3fs | %.1fx |\n",
                              fit.group.c_str(), fit.points, fit.serial,
                              fit.parallel, fit.ceiling);
            } else {
                std::snprintf(line, sizeof(line),
                              "| %s | %zu | — | — | no serial floor |\n",
                              fit.group.c_str(), fit.points);
            }
            out << line;
        }
        out << "\n";
    }
    std::fprintf(stderr, "bench_report: appended engine summary to %s\n",
                 path.c_str());
    return true;
}

/** Short display form of a scalar JSON value for diff lines. */
std::string
ScalarRepr(const Value& value)
{
    switch (value.kind()) {
      case Value::Kind::kNull:
        return "null";
      case Value::Kind::kBool:
        return value.AsBool() ? "true" : "false";
      case Value::Kind::kNumber:
        return parbs::json::FormatNumber(value.AsNumber());
      case Value::Kind::kString:
        return "\"" + value.AsString() + "\"";
      case Value::Kind::kArray:
        return "[array of " + std::to_string(value.items().size()) + "]";
      case Value::Kind::kObject:
        return "{object}";
    }
    return "?";
}

/**
 * Recursively collects human-readable difference lines between @p golden
 * and @p fresh into @p out (at most @p max lines), each prefixed with its
 * JSON path.  Array elements whose objects carry a "name" / "scheduler" /
 * "workload" key are labeled by it, so a drifted metric reads like
 * `sections[16 cores].aggregates[BLISS].unfairness_gmean: 1.2 -> 1.3`.
 */
void
DiffValues(const std::string& path, const Value& golden, const Value& fresh,
           std::vector<std::string>& out, std::size_t max)
{
    if (out.size() >= max) {
        return;
    }
    if (golden.kind() != fresh.kind()) {
        out.push_back(path + ": " + ScalarRepr(golden) + " -> " +
                      ScalarRepr(fresh));
        return;
    }
    switch (golden.kind()) {
      case Value::Kind::kObject: {
        for (const auto& [key, value] : golden.members()) {
            const Value* other = fresh.Find(key);
            if (other == nullptr) {
                out.push_back(path + "." + key +
                              ": missing from fresh result");
            } else {
                DiffValues(path + "." + key, value, *other, out, max);
            }
            if (out.size() >= max) {
                return;
            }
        }
        for (const auto& [key, value] : fresh.members()) {
            if (golden.Find(key) == nullptr) {
                out.push_back(path + "." + key + ": not in golden");
                if (out.size() >= max) {
                    return;
                }
            }
        }
        return;
      }
      case Value::Kind::kArray: {
        const std::size_t common =
            std::min(golden.items().size(), fresh.items().size());
        for (std::size_t i = 0; i < common; ++i) {
            const Value& element = golden.items()[i];
            std::string label = std::to_string(i);
            if (element.kind() == Value::Kind::kObject) {
                for (const char* key :
                     {"name", "scheduler", "workload"}) {
                    const Value* tag = element.Find(key);
                    if (tag != nullptr &&
                        tag->kind() == Value::Kind::kString) {
                        label = tag->AsString();
                        break;
                    }
                }
            }
            DiffValues(path + "[" + label + "]", element,
                       fresh.items()[i], out, max);
            if (out.size() >= max) {
                return;
            }
        }
        if (golden.items().size() != fresh.items().size()) {
            out.push_back(path + ": length " +
                          std::to_string(golden.items().size()) + " -> " +
                          std::to_string(fresh.items().size()));
        }
        return;
      }
      default:
        if (golden != fresh) {
            out.push_back(path + ": " + ScalarRepr(golden) + " -> " +
                          ScalarRepr(fresh));
        }
        return;
    }
}

/**
 * Compares one result file against its golden counterpart.  @return true
 * when the run subtree matches exactly and the wall clock is within
 * tolerance.
 */
bool
CheckAgainstGolden(const std::string& name, const Value& result,
                   const Value& golden, double wall_tolerance)
{
    bool ok = true;
    const Value* run = result.Find("run");
    const Value* golden_run = golden.Find("run");
    if (run == nullptr || golden_run == nullptr) {
        std::fprintf(stderr, "FAIL %s: missing \"run\" subtree\n",
                     name.c_str());
        return false;
    }
    if (!(*run == *golden_run)) {
        constexpr std::size_t kMaxDiffLines = 20;
        std::vector<std::string> diff;
        DiffValues("run", *golden_run, *run, diff, kMaxDiffLines);
        std::fprintf(stderr,
                     "FAIL %s: simulated metrics drifted from golden "
                     "(golden -> fresh):\n",
                     name.c_str());
        for (const std::string& line : diff) {
            std::fprintf(stderr, "  %s\n", line.c_str());
        }
        if (diff.size() >= kMaxDiffLines) {
            std::fprintf(stderr, "  ... (diff truncated at %zu lines)\n",
                         kMaxDiffLines);
        }
        std::fprintf(stderr,
                     "  if the change is intentional, regenerate with: "
                     "cmake --build build --target bench_quick && "
                     "cp build/bench/out/*.json bench/golden/\n");
        ok = false;
    }
    const double wall = WallSeconds(result);
    const double golden_wall = WallSeconds(golden);
    // Quarter-second absolute grace: sub-second binaries (table printers)
    // are all scheduler-independent setup noise, and 20% of ~10ms is
    // nothing but jitter.
    if (golden_wall > 0.0 &&
        wall > golden_wall * (1.0 + wall_tolerance) + 0.25) {
        std::fprintf(stderr,
                     "FAIL %s: wall clock %.2fs exceeds golden %.2fs by "
                     "more than %.0f%%\n",
                     name.c_str(), wall, golden_wall,
                     wall_tolerance * 100.0);
        ok = false;
    }
    if (ok) {
        std::fprintf(stderr, "ok   %s (wall %.2fs, golden %.2fs)\n",
                     name.c_str(), wall, golden_wall);
    }
    return ok;
}

/**
 * Validates one observability trace file and prints its summary.
 * @return the process exit status (0 valid, 1 invalid, 2 unreadable).
 */
int
ValidateTrace(const std::string& path)
{
    Value root;
    if (!LoadJson(path, root)) {
        return 2;
    }
    const Value* events = root.Find("traceEvents");
    if (events == nullptr || events->items().empty()) {
        std::fprintf(stderr,
                     "FAIL %s: no traceEvents array (or it is empty)\n",
                     path.c_str());
        return 1;
    }

    // The engine flight recorder's track names (DESIGN.md §5h): anything
    // else under the "engine" category is an exporter bug.
    constexpr const char* kEngineTracks[] = {
        "engine", "window", "core", "channels",
        "publish", "merge", "work", "engine window",
    };

    bool ok = true;
    std::size_t spans_begin = 0;
    std::size_t spans_end = 0;
    std::size_t instants = 0;
    std::size_t counters = 0;
    std::size_t complete = 0;
    std::size_t metadata = 0;
    std::size_t engine_events = 0;
    std::uint64_t last_ts = 0;
    for (const Value& event : events->items()) {
        const Value* ph = event.Find("ph");
        const Value* name = event.Find("name");
        if (ph == nullptr || name == nullptr ||
            event.Find("pid") == nullptr) {
            std::fprintf(stderr,
                         "FAIL %s: event without ph/name/pid\n",
                         path.c_str());
            ok = false;
            break;
        }
        const std::string& phase = ph->AsString();
        if (phase == "M") {
            metadata += 1;
            continue;
        }
        const Value* cat = event.Find("cat");
        if (cat != nullptr && cat->AsString() == "engine") {
            engine_events += 1;
            if (std::none_of(std::begin(kEngineTracks),
                             std::end(kEngineTracks),
                             [&name](const char* track) {
                                 return name->AsString() == track;
                             })) {
                std::fprintf(stderr,
                             "FAIL %s: unknown engine track \"%s\"\n",
                             path.c_str(), name->AsString().c_str());
                ok = false;
                break;
            }
        }
        const Value* ts = event.Find("ts");
        if (ts == nullptr) {
            std::fprintf(stderr, "FAIL %s: non-metadata event without ts\n",
                         path.c_str());
            ok = false;
            break;
        }
        last_ts = std::max(last_ts,
                           static_cast<std::uint64_t>(ts->AsNumber()));
        if (phase == "b") {
            spans_begin += 1;
        } else if (phase == "e") {
            spans_end += 1;
        } else if (phase == "i") {
            instants += 1;
        } else if (phase == "C") {
            counters += 1;
        } else if (phase == "X") {
            complete += 1;
        } else {
            std::fprintf(stderr, "FAIL %s: unknown event phase \"%s\"\n",
                         path.c_str(), phase.c_str());
            ok = false;
            break;
        }
    }
    // Spans still open at the end of the run (in-flight requests, the open
    // batch) are legal, but more ends than begins never are.
    if (spans_end > spans_begin) {
        std::fprintf(stderr,
                     "FAIL %s: %zu span ends for %zu span begins\n",
                     path.c_str(), spans_end, spans_begin);
        ok = false;
    }
    if (spans_begin == 0) {
        std::fprintf(stderr, "FAIL %s: no request/batch spans recorded\n",
                     path.c_str());
        ok = false;
    }

    std::size_t sample_rows = 0;
    const Value* samples = root.Find("samples");
    const Value* rows =
        samples != nullptr ? samples->Find("samples") : nullptr;
    if (rows != nullptr) {
        sample_rows = rows->items().size();
    }
    std::uint64_t dropped = 0;
    const Value* other = root.Find("otherData");
    const Value* dropped_node =
        other != nullptr ? other->Find("events_dropped") : nullptr;
    if (dropped_node != nullptr) {
        dropped = static_cast<std::uint64_t>(dropped_node->AsNumber());
    }

    // A trace stamped as engine-profiled must carry the engine lanes (at
    // minimum the whole-run summary span), and engine events must never
    // appear without the stamp — either way the exporter and the profiler
    // disagree about whether the flight recorder was on.
    const Value* engine_flag =
        other != nullptr ? other->Find("engine_profile") : nullptr;
    const bool engine_profiled =
        engine_flag != nullptr && engine_flag->AsBool();
    if (engine_profiled && engine_events == 0) {
        std::fprintf(stderr,
                     "FAIL %s: otherData.engine_profile set but no "
                     "engine-category events\n",
                     path.c_str());
        ok = false;
    }
    if (!engine_profiled && engine_events > 0) {
        std::fprintf(stderr,
                     "FAIL %s: %zu engine events without "
                     "otherData.engine_profile\n",
                     path.c_str(), engine_events);
        ok = false;
    }

    std::fprintf(stderr,
                 "trace %s: %zu events (%zu+%zu spans, %zu instants, "
                 "%zu counters, %zu complete, %zu metadata, %zu engine), "
                 "last ts %llu, %llu dropped, %zu sampler rows\n",
                 path.c_str(),
                 events->items().size(), spans_begin, spans_end, instants,
                 counters, complete, metadata, engine_events,
                 static_cast<unsigned long long>(last_ts),
                 static_cast<unsigned long long>(dropped), sample_rows);

    const Value* latency = root.Find("latency");
    const Value* all = latency != nullptr ? latency->Find("all") : nullptr;
    const Value* total = all != nullptr ? all->Find("total") : nullptr;
    if (total != nullptr) {
        std::fprintf(
            stderr,
            "latency(all.total): count=%.0f p50=%.0f p95=%.0f p99=%.0f "
            "max=%.0f dram cycles\n",
            total->Find("count")->AsNumber(),
            total->Find("p50")->AsNumber(), total->Find("p95")->AsNumber(),
            total->Find("p99")->AsNumber(), total->Find("max")->AsNumber());
    }
    std::fprintf(stderr, "bench_report: trace check %s\n",
                 ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string dir = "bench/out";
    std::string out_path = "BENCH_results.json";
    std::string golden_dir;
    std::string trace_path;
    std::string summary_path;
    double wall_tolerance = 0.20;
    bool engine = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--dir" && i + 1 < argc) {
            dir = argv[++i];
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--check" && i + 1 < argc) {
            golden_dir = argv[++i];
        } else if (arg == "--trace" && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (arg == "--summary" && i + 1 < argc) {
            summary_path = argv[++i];
        } else if (arg == "--wall-tolerance" && i + 1 < argc) {
            wall_tolerance = std::strtod(argv[++i], nullptr);
        } else if (arg == "--engine") {
            engine = true;
        } else if (arg == "--help" || arg == "-h") {
            std::fprintf(stderr,
                         "usage: %s [--dir DIR] [--out PATH] "
                         "[--check GOLDEN_DIR] [--summary PATH] "
                         "[--trace FILE] [--engine] [--wall-tolerance F]\n",
                         argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "bench_report: unknown option %s\n",
                         arg.c_str());
            return 2;
        }
    }

    if (!trace_path.empty()) {
        return ValidateTrace(trace_path);
    }

    const std::vector<fs::path> files = JsonFiles(dir);
    if (files.empty()) {
        std::fprintf(stderr, "bench_report: no .json files in %s\n",
                     dir.c_str());
        return 2;
    }

    Value benchmarks = Value::Array();
    double total_wall = 0.0;
    for (const fs::path& path : files) {
        Value root;
        if (!LoadBenchResult(path, root)) {
            return 2;
        }
        total_wall += WallSeconds(root);
        Value entry = Value::Object();
        entry.Set("file", path.filename().string());
        entry.Set("env", std::move(*root.Find("env")));
        entry.Set("run", std::move(*root.Find("run")));
        benchmarks.Append(std::move(entry));
    }

    Value report = Value::Object();
    Value summary = Value::Object();
    summary.Set("benchmarks",
                static_cast<std::uint64_t>(benchmarks.items().size()));
    summary.Set("total_wall_seconds", total_wall);
    report.Set("summary", std::move(summary));
    report.Set("benchmarks", std::move(benchmarks));

    {
        std::ofstream out(out_path);
        if (!out) {
            std::fprintf(stderr, "bench_report: cannot write %s\n",
                         out_path.c_str());
            return 2;
        }
        out << report.Dump(2) << "\n";
    }
    std::fprintf(stderr, "bench_report: wrote %s (%zu benchmarks, "
                         "%.1fs total)\n",
                 out_path.c_str(), files.size(), total_wall);

    const std::vector<ParetoRow> pareto = CollectParetoRows(report);
    PrintParetoTable(pareto);

    std::vector<EngineRow> engine_rows;
    std::vector<AmdahlFit> engine_fits;
    if (engine) {
        engine_rows = CollectEngineRows(report);
        engine_fits = FitAmdahl(engine_rows);
        PrintEngineTable(engine_rows, engine_fits);
    }

    if (!summary_path.empty() && !WriteSummary(summary_path, pareto)) {
        return 2;
    }
    if (engine && !summary_path.empty() &&
        !AppendEngineSummary(summary_path, engine_rows, engine_fits)) {
        return 2;
    }

    if (golden_dir.empty()) {
        return 0;
    }

    // Gate mode: every golden file must have a fresh, matching result.
    const std::vector<fs::path> golden_files = JsonFiles(golden_dir);
    if (golden_files.empty()) {
        std::fprintf(stderr, "bench_report: no golden files in %s\n",
                     golden_dir.c_str());
        return 2;
    }
    bool all_ok = true;
    for (const fs::path& golden_path : golden_files) {
        const std::string name = golden_path.filename().string();
        const fs::path result_path = fs::path(dir) / name;
        Value golden;
        if (!LoadBenchResult(golden_path, golden)) {
            return 2;
        }
        if (!fs::is_regular_file(result_path)) {
            std::fprintf(stderr, "FAIL %s: no result in %s\n",
                         name.c_str(), dir.c_str());
            all_ok = false;
            continue;
        }
        Value result;
        if (!LoadBenchResult(result_path, result)) {
            return 2;
        }
        all_ok &= CheckAgainstGolden(name, result, golden, wall_tolerance);
    }
    std::fprintf(stderr, "bench_report: golden check %s\n",
                 all_ok ? "passed" : "FAILED");
    return all_ok ? 0 : 1;
}
