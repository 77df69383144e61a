#include "obs/engine_profiler.hh"

#include <algorithm>
#include <string>

#include "common/assert.hh"
#include "common/json.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace parbs::obs {

namespace {

/** Synthetic Chrome-trace process for the engine lanes; the simulation
 *  processes are the channel indices, far below this. */
constexpr std::uint64_t kEnginePid = 10000;
/** Lane holding one span per engine window. */
constexpr std::uint64_t kWindowLane = 999;

/** Deterministic histogram rendering: every field is a pure function of
 *  the recorded samples (mean divides two exact integer accumulators). */
json::Value
HistogramJson(const Histogram& histogram)
{
    const Histogram::Summary summary = histogram.PercentileSummary();
    json::Value out = json::Value::Object();
    out.Set("count", histogram.count());
    out.Set("mean", histogram.Mean());
    out.Set("min", histogram.min());
    out.Set("p50", summary.p50);
    out.Set("p95", summary.p95);
    out.Set("p99", summary.p99);
    out.Set("p999", summary.p999);
    out.Set("max", summary.max);
    out.Set("overflow", histogram.overflow());
    return out;
}

/** Same shape as the exporter in observability.cc (anonymous there). */
json::Value
MakeEvent(const char* ph, const std::string& name, const char* cat,
          std::uint64_t pid, std::uint64_t tid, double ts)
{
    json::Value event = json::Value::Object();
    event.Set("ph", ph);
    event.Set("name", name);
    event.Set("cat", cat);
    event.Set("pid", pid);
    event.Set("tid", tid);
    event.Set("ts", ts);
    return event;
}

json::Value
MetadataEvent(const char* kind, std::uint64_t pid, std::uint64_t tid,
              const std::string& name)
{
    json::Value event = json::Value::Object();
    event.Set("ph", "M");
    event.Set("name", kind);
    event.Set("pid", pid);
    if (std::string(kind) == "thread_name") {
        event.Set("tid", tid);
    }
    json::Value args = json::Value::Object();
    args.Set("name", name);
    event.Set("args", std::move(args));
    return event;
}

} // namespace

const char*
EngineProfiler::PhaseName(Phase phase)
{
    switch (phase) {
    case Phase::kCoreFrontend: return "core_frontend";
    case Phase::kCoreJoin: return "core_join";
    case Phase::kCoreIssue: return "core_issue";
    case Phase::kCoreSweep: return "core_sweep";
    case Phase::kChannelWork: return "channel_work";
    case Phase::kBarrierJoin: return "barrier_join";
    case Phase::kWorkerPark: return "worker_park";
    case Phase::kPublish: return "publish";
    case Phase::kMerge: return "merge";
    }
    return "unknown";
}

EngineProfiler::EngineProfiler(unsigned participants,
                               std::uint32_t num_channels,
                               DramCycle lookahead_window)
    : participants_(participants),
      lookahead_window_(lookahead_window),
      // Window lengths are bounded by the lookahead window (a handful of
      // DRAM cycles); imbalance by the per-window arrival burst; occupancy
      // by the queue capacities.  Overflow buckets catch outliers loudly.
      window_ticks_(1, 32),
      imbalance_(1, 64),
      occupancy_(4, 64),
      window_arrivals_(num_channels, 0),
      channel_arrivals_(num_channels, 0),
      occupancy_hiwater_(num_channels, 0),
      slots_(std::make_unique<Slot[]>(participants)),
      construct_ticks_(Now()),
      construct_time_(std::chrono::steady_clock::now()),
      current_phase_(static_cast<std::uint8_t>(kPhaseCount))
{
    PARBS_ASSERT(participants_ >= 1 && num_channels >= 1,
                 "engine profiler needs participants and channels");
}

std::uint64_t
EngineProfiler::Now()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
}

void
EngineProfiler::AddPhaseTicks(unsigned participant, Phase phase,
                              std::uint64_t ticks)
{
    PARBS_ASSERT(participant < participants_,
                 "profiler participant out of range");
    Slot& slot = slots_[participant];
    const auto index = static_cast<std::size_t>(phase);
    slot.ticks[index] += ticks;
    slot.samples[index] += 1;
    slot.window[index] += ticks;
}

void
EngineProfiler::BeginWindowWall()
{
    if (wall_open_ == kNoWall) {
        wall_open_ = Now() - construct_ticks_;
    }
}

void
EngineProfiler::SetCurrentPhase(Phase phase)
{
    current_phase_.store(static_cast<std::uint8_t>(phase),
                         std::memory_order_relaxed);
}

const char*
EngineProfiler::CurrentPhaseName() const
{
    const std::uint8_t raw = current_phase_.load(std::memory_order_relaxed);
    if (raw >= kPhaseCount) {
        return "idle";
    }
    return PhaseName(static_cast<Phase>(raw));
}

void
EngineProfiler::OnWindowClose(DramCycle from, DramCycle to,
                              std::span<const std::uint64_t> occupancy)
{
    PARBS_ASSERT(to > from, "window close with no ticks");
    PARBS_ASSERT(occupancy.size() == window_arrivals_.size(),
                 "occupancy sample has the wrong channel count");
    windows_ += 1;
    window_ticks_.Add(to - from);

    std::uint64_t lo = ~std::uint64_t{0};
    std::uint64_t hi = 0;
    std::uint64_t total = 0;
    for (std::size_t channel = 0; channel < window_arrivals_.size();
         ++channel) {
        const std::uint64_t count = window_arrivals_[channel];
        lo = std::min(lo, count);
        hi = std::max(hi, count);
        total += count;
        channel_arrivals_[channel] += count;
        window_arrivals_[channel] = 0;
    }
    arrivals_ += total;
    imbalance_.Add(hi - lo);

    std::uint64_t occupancy_total = 0;
    for (std::size_t channel = 0; channel < occupancy.size(); ++channel) {
        occupancy_.Add(occupancy[channel]);
        occupancy_hiwater_[channel] =
            std::max(occupancy_hiwater_[channel], occupancy[channel]);
        occupancy_total += occupancy[channel];
    }

    if (wall_open_ == kNoWall) {
        return; // Serial engine: deterministic accounting only.
    }
    const bool keep = records_.size() < kMaxWindowRecords;
    if (keep) {
        WindowRecord record;
        record.from = from;
        record.to = to;
        record.arrivals = total;
        record.imbalance = hi - lo;
        record.occupancy = occupancy_total;
        record.wall_begin = wall_open_;
        record.wall_end = Now() - construct_ticks_;
        Slot& coordinator = slots_[0];
        record.core_ticks =
            coordinator.window[static_cast<std::size_t>(Phase::kCoreSweep)];
        record.publish_ticks =
            coordinator.window[static_cast<std::size_t>(Phase::kPublish)];
        record.merge_ticks =
            coordinator.window[static_cast<std::size_t>(Phase::kMerge)];
        record.work_ticks.reserve(participants_);
        for (unsigned p = 0; p < participants_; ++p) {
            record.work_ticks.push_back(
                slots_[p].window[static_cast<std::size_t>(
                    Phase::kChannelWork)]);
        }
        records_.push_back(std::move(record));
    } else {
        records_dropped_ += 1;
    }
    // The slots' window scratch is folded (or dropped) — reset it.  The
    // workers are parked between windows, so this never races a writer.
    for (unsigned p = 0; p < participants_; ++p) {
        std::fill(std::begin(slots_[p].window), std::end(slots_[p].window),
                  std::uint64_t{0});
    }
    wall_open_ = kNoWall;
}

double
EngineProfiler::TicksPerSecond() const
{
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      construct_time_)
            .count();
    const double ticks =
        static_cast<double>(Now() - construct_ticks_);
    if (elapsed <= 1e-6 || ticks <= 0.0) {
        return 0.0;
    }
    return ticks / elapsed;
}

json::Value
EngineProfiler::DeterministicJson() const
{
    json::Value out = json::Value::Object();
    out.Set("lookahead_window", std::uint64_t{lookahead_window_});
    out.Set("windows", windows_);
    out.Set("arrivals", arrivals_);
    out.Set("window_ticks", HistogramJson(window_ticks_));
    out.Set("arrival_imbalance", HistogramJson(imbalance_));
    out.Set("occupancy", HistogramJson(occupancy_));
    json::Value channels = json::Value::Array();
    for (std::size_t channel = 0; channel < channel_arrivals_.size();
         ++channel) {
        json::Value entry = json::Value::Object();
        entry.Set("arrivals", channel_arrivals_[channel]);
        entry.Set("occupancy_hiwater", occupancy_hiwater_[channel]);
        channels.Append(std::move(entry));
    }
    out.Set("channels", std::move(channels));
    return out;
}

json::Value
EngineProfiler::TimingJson() const
{
    const double tps = TicksPerSecond();
    auto seconds = [tps](std::uint64_t ticks) {
        return tps > 0.0 ? static_cast<double>(ticks) / tps : 0.0;
    };

    json::Value out = json::Value::Object();
    json::Value clock = json::Value::Object();
#if defined(__x86_64__) || defined(__i386__)
    clock.Set("source", "rdtsc");
#else
    clock.Set("source", "steady_clock");
#endif
    clock.Set("ticks_per_second", tps);
    out.Set("clock", std::move(clock));
    out.Set("participants", std::uint64_t{participants_});

    json::Value phases = json::Value::Array();
    for (unsigned p = 0; p < participants_; ++p) {
        const Slot& slot = slots_[p];
        for (std::size_t index = 0; index < kPhaseCount; ++index) {
            if (slot.samples[index] == 0) {
                continue;
            }
            json::Value entry = json::Value::Object();
            entry.Set("participant", std::uint64_t{p});
            entry.Set("phase", PhaseName(static_cast<Phase>(index)));
            entry.Set("ticks", slot.ticks[index]);
            entry.Set("samples", slot.samples[index]);
            entry.Set("seconds", seconds(slot.ticks[index]));
            phases.Append(std::move(entry));
        }
    }
    out.Set("phases", std::move(phases));

    // Convenience summaries (bench_report recomputes them from `phases`).
    const Slot& coordinator = slots_[0];
    std::uint64_t coordinator_total = 0;
    for (std::size_t index = 0; index < kPhaseCount; ++index) {
        coordinator_total += coordinator.ticks[index];
    }
    // Everything the coordinator runs while the workers are parked: the
    // core sweep, the notification publish, and the merge.
    const std::uint64_t tail =
        coordinator.ticks[static_cast<std::size_t>(Phase::kCoreSweep)] +
        coordinator.ticks[static_cast<std::size_t>(Phase::kPublish)] +
        coordinator.ticks[static_cast<std::size_t>(Phase::kMerge)];
    out.Set("serial_tail_fraction",
            coordinator_total == 0
                ? 0.0
                : static_cast<double>(tail) /
                      static_cast<double>(coordinator_total));

    double utilization_sum = 0.0;
    unsigned workers = 0;
    for (unsigned p = 1; p < participants_; ++p) {
        const Slot& slot = slots_[p];
        const std::uint64_t busy =
            slot.ticks[static_cast<std::size_t>(Phase::kChannelWork)];
        const std::uint64_t idle =
            slot.ticks[static_cast<std::size_t>(Phase::kWorkerPark)];
        if (busy + idle > 0) {
            utilization_sum += static_cast<double>(busy) /
                               static_cast<double>(busy + idle);
            workers += 1;
        }
    }
    out.Set("worker_utilization",
            workers == 0 ? 0.0 : utilization_sum / workers);
    out.Set("windows_recorded", static_cast<std::uint64_t>(records_.size()));
    out.Set("windows_dropped", records_dropped_);
    return out;
}

void
EngineProfiler::AppendToTraceDocument(json::Value& document) const
{
    json::Value* events = document.Find("traceEvents");
    PARBS_ASSERT(events != nullptr,
                 "trace document has no traceEvents array");
    const double tps = TicksPerSecond();
    auto us = [tps](std::uint64_t ticks) {
        return tps > 0.0 ? static_cast<double>(ticks) / tps * 1e6 : 0.0;
    };

    events->Append(MetadataEvent("process_name", kEnginePid, 0, "engine"));
    events->Append(MetadataEvent("thread_name", kEnginePid, 0,
                                 "participant 0 (coordinator)"));
    for (unsigned p = 1; p < participants_; ++p) {
        events->Append(MetadataEvent("thread_name", kEnginePid, p,
                                     "worker " + std::to_string(p)));
    }
    events->Append(
        MetadataEvent("thread_name", kEnginePid, kWindowLane, "windows"));

    // Whole-run summary span: present even when the serial engine recorded
    // no per-window wall times, so an engine-profiled trace always carries
    // at least one "engine" event for validators to find.
    {
        json::Value summary = MakeEvent("X", "engine", "engine", kEnginePid,
                                        kWindowLane, 0.0);
        summary.Set("dur", us(Now() - construct_ticks_));
        json::Value args = json::Value::Object();
        args.Set("windows", windows_);
        args.Set("arrivals", arrivals_);
        args.Set("windows_recorded",
                 static_cast<std::uint64_t>(records_.size()));
        args.Set("windows_dropped", records_dropped_);
        summary.Set("args", std::move(args));
        events->Append(std::move(summary));
    }

    for (const WindowRecord& record : records_) {
        const double begin = us(record.wall_begin);
        {
            json::Value window =
                MakeEvent("X", "window", "engine", kEnginePid, kWindowLane,
                          begin);
            window.Set("dur", us(record.wall_end) - begin);
            json::Value args = json::Value::Object();
            args.Set("from", std::uint64_t{record.from});
            args.Set("to", std::uint64_t{record.to});
            args.Set("arrivals", record.arrivals);
            window.Set("args", std::move(args));
            events->Append(std::move(window));
        }
        // Coordinator lane: the window's phases laid out sequentially from
        // the window's wall start (approximate placement, exact durations).
        double cursor = begin;
        const std::uint64_t coordinator_work =
            record.work_ticks.empty() ? 0 : record.work_ticks[0];
        const struct {
            const char* name;
            std::uint64_t ticks;
        } spans[] = {{"core", record.core_ticks},
                     {"channels", coordinator_work},
                     {"publish", record.publish_ticks},
                     {"merge", record.merge_ticks}};
        for (const auto& span : spans) {
            if (span.ticks == 0) {
                continue;
            }
            json::Value event = MakeEvent("X", span.name, "engine",
                                          kEnginePid, 0, cursor);
            event.Set("dur", us(span.ticks));
            events->Append(std::move(event));
            cursor += us(span.ticks);
        }
        for (unsigned p = 1; p < record.work_ticks.size(); ++p) {
            if (record.work_ticks[p] == 0) {
                continue;
            }
            json::Value event = MakeEvent("X", "work", "engine", kEnginePid,
                                          p, begin);
            event.Set("dur", us(record.work_ticks[p]));
            events->Append(std::move(event));
        }
        {
            json::Value counter =
                MakeEvent("C", "engine window", "engine", kEnginePid, 0,
                          us(record.wall_end));
            json::Value args = json::Value::Object();
            args.Set("arrivals", record.arrivals);
            args.Set("imbalance", record.imbalance);
            args.Set("occupancy", record.occupancy);
            counter.Set("args", std::move(args));
            events->Append(std::move(counter));
        }
    }

    json::Value* other = document.Find("otherData");
    PARBS_ASSERT(other != nullptr, "trace document has no otherData");
    other->Set("engine_profile", true);
    other->Set("engine_clock_note",
               "engine pid ts unit = 1 us wall clock since run start");
}

} // namespace parbs::obs
