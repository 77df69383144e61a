/**
 * @file
 * Microbenchmark (google-benchmark) of the per-cycle scheduling decision —
 * the paper's implementability argument: PAR-BS uses "simple prioritization
 * rules that depend on request counts" and needs no complex arithmetic,
 * unlike STFM's slowdown estimation (which the hardware proposal implements
 * with dividers).  This measures the software decision cost of each policy
 * under an identical standing request mix.
 *
 * Families:
 *
 *  - BM_<policy> — per-tick cost at the historical 8-thread / 96-request
 *    operating point (the perf-trajectory series).
 *  - BM_<policy>_loaded at 4/8/16 cores with the read buffer loaded to
 *    capacity — the indexed per-bank selection (DESIGN.md §5e) as cores
 *    scale, and the baseline of the observability and RAS overhead gates.
 *  - BM_IdleTick_skip — per-tick cost of the next-event skip-ahead on a
 *    drained controller.
 *  - BM_System_serial / BM_System_sharded — whole-System wall clock of the
 *    lookahead-window engine (DESIGN.md §5g) run inline on one thread
 *    (channel_jobs 1) against the machine-sized channel team
 *    (channel_jobs 0), at the 16-core/4-channel and 64-core/8-channel
 *    operating points.  Both shapes are bit-identical by construction, so
 *    this pair measures nothing but speed; the CI perf gate holds the team
 *    no slower than inline with >= 4 hardware threads, and at most 10%
 *    slower below that.
 */

#include <benchmark/benchmark.h>

#include <functional>

#include "common/rng.hh"
#include "mem/controller.hh"
#include "obs/latency.hh"
#include "obs/tracer.hh"
#include "sched/factory.hh"
#include "sim/system.hh"
#include "trace/synthetic.hh"

namespace parbs {
namespace {

/** A controller pre-loaded with a reproducible mixed request population. */
std::unique_ptr<Controller>
LoadedController(SchedulerKind kind, std::uint32_t requests,
                 std::uint32_t threads = 8, double write_fraction = 0.2,
                 const std::function<void(ControllerConfig&)>& customize = {})
{
    SchedulerConfig scheduler_config;
    scheduler_config.kind = kind;
    ControllerConfig config;
    if (customize) {
        customize(config);
    }
    dram::TimingParams timing;
    timing.tREFI = 0; // refresh off
    dram::Geometry geometry;
    geometry.rows_per_bank = 1024;
    auto controller = std::make_unique<Controller>(
        config, timing, geometry, threads,
        MakeScheduler(scheduler_config));
    Rng rng(42);
    for (std::uint32_t i = 0; i < requests; ++i) {
        auto request = std::make_unique<MemRequest>();
        request->id = i + 1;
        request->thread = static_cast<ThreadId>(rng.NextBelow(threads));
        request->coords.bank = static_cast<std::uint32_t>(rng.NextBelow(8));
        request->coords.row = static_cast<std::uint32_t>(rng.NextBelow(64));
        request->is_write = rng.NextBool(write_fraction);
        controller->Enqueue(std::move(request), 0);
    }
    return controller;
}

void
SchedulerTick(benchmark::State& state, SchedulerKind kind)
{
    auto controller = LoadedController(kind, 96);
    DramCycle now = 0;
    for (auto _ : state) {
        controller->Tick(now);
        now += 1;
        // Keep the buffer populated so every tick makes real decisions.
        if (controller->pending_reads() < 48) {
            state.PauseTiming();
            controller = LoadedController(kind, 96);
            now = 0;
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/**
 * Selection-path cost at a fully-loaded read buffer (128 standing reads —
 * the paper's buffer capacity) spread over `cores` threads: the candidate
 * gather + two-level pick dominates the tick.
 */
void
SelectionTick(benchmark::State& state, SchedulerKind kind,
              std::uint32_t cores)
{
    constexpr std::uint32_t kFullBuffer = 128;
    auto controller = LoadedController(kind, kFullBuffer, cores,
                                       /*write_fraction=*/0.0);
    DramCycle now = 0;
    for (auto _ : state) {
        controller->Tick(now);
        now += 1;
        // Stay near capacity so every selection walks a loaded buffer.
        if (controller->pending_reads() < kFullBuffer / 2) {
            state.PauseTiming();
            controller = LoadedController(kind, kFullBuffer, cores,
                                          /*write_fraction=*/0.0);
            now = 0;
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/**
 * The observability overhead pair at the 16-core loaded operating point:
 * obs_off is the same configuration as BM_ParBs_loaded/16 but built
 * through the observability-aware construction path with null sinks (the
 * CI gate holds it within 1% of BM_ParBs_loaded/16 — the zero-overhead-
 * when-off claim of DESIGN.md §5f); obs_on attaches a live tracer ring and
 * latency anatomy and is informational.
 */
void
ObsTick(benchmark::State& state, bool attach)
{
    constexpr std::uint32_t kFullBuffer = 128;
    constexpr std::uint32_t kCores = 16;
    obs::Tracer tracer(std::size_t{1} << 16);
    obs::LatencyAnatomy latency(kCores);
    auto controller = LoadedController(SchedulerKind::kParBs, kFullBuffer,
                                       kCores, /*write_fraction=*/0.0);
    if (attach) {
        controller->AttachObservability(&tracer, &latency, 0);
    }
    DramCycle now = 0;
    for (auto _ : state) {
        controller->Tick(now);
        now += 1;
        if (controller->pending_reads() < kFullBuffer / 2) {
            state.PauseTiming();
            controller = LoadedController(SchedulerKind::kParBs, kFullBuffer,
                                          kCores, /*write_fraction=*/0.0);
            if (attach) {
                controller->AttachObservability(&tracer, &latency, 0);
            }
            now = 0;
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/**
 * The RAS overhead pair at the 16-core loaded operating point: ras_off is
 * BM_ParBs_loaded/16 with the RAS hooks compiled in but disabled (the CI
 * gate holds it within 1% — RAS must be free when off); ras_on runs the
 * deterministic error model at a realistic 1e-4 transient rate and is
 * informational.
 */
void
RasTick(benchmark::State& state, bool enabled)
{
    constexpr std::uint32_t kFullBuffer = 128;
    constexpr std::uint32_t kCores = 16;
    const auto customize = [enabled](ControllerConfig& config) {
        config.ras.enabled = enabled;
        config.ras.transient_error_rate = enabled ? 1e-4 : 0.0;
        config.ras.seed = 99;
    };
    auto controller = LoadedController(SchedulerKind::kParBs, kFullBuffer,
                                       kCores, /*write_fraction=*/0.0,
                                       customize);
    DramCycle now = 0;
    for (auto _ : state) {
        controller->Tick(now);
        now += 1;
        if (controller->pending_reads() < kFullBuffer / 2) {
            state.PauseTiming();
            controller = LoadedController(SchedulerKind::kParBs, kFullBuffer,
                                          kCores, /*write_fraction=*/0.0,
                                          customize);
            now = 0;
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/**
 * Per-tick cost on a drained controller: the first tick computes a kNever
 * bound and every further tick is a pure skip.
 */
void
BM_IdleTick_skip(benchmark::State& state)
{
    auto controller = LoadedController(SchedulerKind::kParBs, 0);
    DramCycle now = 0;
    for (auto _ : state) {
        controller->Tick(now);
        now += 1;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/**
 * Whole-System cycle-loop cost: cores, caches, and all controllers
 * advancing together in 20k-CPU-cycle slices under memory-intensive
 * synthetic traces.  `channel_jobs` 1 runs the lookahead windows inline;
 * 0 runs them on min(channels, hardware threads) participants.  Items
 * processed = simulated CPU cycles, so items/s compares directly across
 * the pair.
 */
void
SystemSlice(benchmark::State& state, std::uint32_t cores,
            std::uint32_t channels, unsigned channel_jobs,
            bool engine_profile = false)
{
    SystemConfig config = SystemConfig::Baseline(cores, channels);
    config.channel_jobs = channel_jobs;
    config.observability.engine_profile = engine_profile;
    dram::AddressMapper mapper(config.geometry, config.xor_bank_hash);
    std::vector<std::unique_ptr<TraceSource>> traces;
    for (ThreadId t = 0; t < cores; ++t) {
        SyntheticParams params;
        params.mpki = 20.0;
        traces.push_back(std::make_unique<SyntheticTraceSource>(
            params, mapper, t, cores, 1000 + t));
    }
    constexpr CpuCycle kSlice = 20'000;
    System system(config, std::move(traces));
    for (auto _ : state) {
        system.Run(kSlice);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kSlice));
}

void
BM_System_serial(benchmark::State& s)
{
    const auto cores = static_cast<std::uint32_t>(s.range(0));
    SystemSlice(s, cores, cores == 64 ? 8 : cores / 4, /*channel_jobs=*/1);
}

void
BM_System_sharded(benchmark::State& s)
{
    const auto cores = static_cast<std::uint32_t>(s.range(0));
    SystemSlice(s, cores, cores == 64 ? 8 : cores / 4, /*channel_jobs=*/0);
}

/**
 * The engine flight-recorder overhead pair on the sharded 64-core/8-channel
 * operating point: prof_off is BM_System_sharded/64 rebuilt through the
 * same configuration path with the profiler left disabled (the CI gate
 * holds it within 1% of BM_System_sharded/64 — the raw-pointer null checks
 * must be free, DESIGN.md §5h); prof_on records every phase and is
 * informational.
 */
void
BM_System_prof_off(benchmark::State& s)
{
    const auto cores = static_cast<std::uint32_t>(s.range(0));
    SystemSlice(s, cores, cores == 64 ? 8 : cores / 4, /*channel_jobs=*/0,
                /*engine_profile=*/false);
}

void
BM_System_prof_on(benchmark::State& s)
{
    const auto cores = static_cast<std::uint32_t>(s.range(0));
    SystemSlice(s, cores, cores == 64 ? 8 : cores / 4, /*channel_jobs=*/0,
                /*engine_profile=*/true);
}

void BM_Fcfs(benchmark::State& s) { SchedulerTick(s, SchedulerKind::kFcfs); }
void BM_FrFcfs(benchmark::State& s)
{
    SchedulerTick(s, SchedulerKind::kFrFcfs);
}
void BM_Nfq(benchmark::State& s) { SchedulerTick(s, SchedulerKind::kNfq); }
void BM_Stfm(benchmark::State& s) { SchedulerTick(s, SchedulerKind::kStfm); }
void BM_ParBs(benchmark::State& s)
{
    SchedulerTick(s, SchedulerKind::kParBs);
}
void BM_Bliss(benchmark::State& s)
{
    SchedulerTick(s, SchedulerKind::kBliss);
}
void BM_ParBs_obs_off(benchmark::State& s) { ObsTick(s, false); }
void BM_ParBs_obs_on(benchmark::State& s) { ObsTick(s, true); }
void BM_ParBs_ras_off(benchmark::State& s) { RasTick(s, false); }
void BM_ParBs_ras_on(benchmark::State& s) { RasTick(s, true); }

#define PARBS_SELECTION_BENCH(Name, Kind)                                   \
    void BM_##Name##_loaded(benchmark::State& s)                            \
    {                                                                       \
        SelectionTick(s, SchedulerKind::Kind,                               \
                      static_cast<std::uint32_t>(s.range(0)));              \
    }                                                                       \
    BENCHMARK(BM_##Name##_loaded)->Arg(4)->Arg(8)->Arg(16)

BENCHMARK(BM_Fcfs);
BENCHMARK(BM_FrFcfs);
BENCHMARK(BM_Nfq);
BENCHMARK(BM_Stfm);
BENCHMARK(BM_ParBs);
BENCHMARK(BM_Bliss);
PARBS_SELECTION_BENCH(Fcfs, kFcfs);
PARBS_SELECTION_BENCH(FrFcfs, kFrFcfs);
PARBS_SELECTION_BENCH(Nfq, kNfq);
PARBS_SELECTION_BENCH(Stfm, kStfm);
PARBS_SELECTION_BENCH(ParBs, kParBs);
PARBS_SELECTION_BENCH(Bliss, kBliss);
BENCHMARK(BM_IdleTick_skip);
BENCHMARK(BM_ParBs_obs_off);
BENCHMARK(BM_ParBs_obs_on);
BENCHMARK(BM_ParBs_ras_off);
BENCHMARK(BM_ParBs_ras_on);
// Real-time (not CPU-time) is the honest metric for the sharded engine:
// its work happens on worker threads the main thread only coordinates.
BENCHMARK(BM_System_serial)->Arg(16)->Arg(64)->UseRealTime();
BENCHMARK(BM_System_sharded)->Arg(16)->Arg(64)->UseRealTime();
BENCHMARK(BM_System_prof_off)->Arg(64)->UseRealTime();
BENCHMARK(BM_System_prof_on)->Arg(64)->UseRealTime();

} // namespace
} // namespace parbs

BENCHMARK_MAIN();
