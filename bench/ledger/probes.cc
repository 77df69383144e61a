#include "probes.hh"

#include <fstream>

#include "common/json.hh"

namespace ledger {

using parbs::DramCycle;
using parbs::MemRequest;
using parbs::obs::EngineProfiler;

void
TscClock::Start()
{
    ticks_ = EngineProfiler::Now();
    time_ = std::chrono::steady_clock::now();
}

double
TscClock::TicksPerSecond() const
{
    const double seconds = SecondsSince(time_);
    const double ticks = static_cast<double>(EngineProfiler::Now() - ticks_);
    return seconds > 0.0 ? ticks / seconds : 0.0;
}

double
SecondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

std::optional<parbs::TraceEntry>
TimedTraceSource::Next()
{
    const std::uint64_t start = EngineProfiler::Now();
    std::optional<parbs::TraceEntry> entry = inner_->Next();
    ticks_ += EngineProfiler::Now() - start;
    entries_ += 1;
    return entry;
}

SchedCounters&
SchedCounters::operator+=(const SchedCounters& other)
{
    pick_in_bank_calls += other.pick_in_bank_calls;
    pick_in_bank_ticks += other.pick_in_bank_ticks;
    pick_calls += other.pick_calls;
    pick_ticks += other.pick_ticks;
    hook_calls += other.hook_calls;
    hook_ticks += other.hook_ticks;
    return *this;
}

void
TimedScheduler::Attach(const parbs::SchedulerContext& context)
{
    // The base keeps its own knob vectors so SetThreadPriority/Weight on
    // this wrapper work; the wrapped scheduler does the real attaching.
    Scheduler::Attach(context);
    inner_->Attach(context);
}

MemRequest*
TimedScheduler::Pick(std::span<const parbs::Candidate> candidates,
                     DramCycle now)
{
    const std::uint64_t start = EngineProfiler::Now();
    MemRequest* winner = inner_->Pick(candidates, now);
    counters_.pick_ticks += EngineProfiler::Now() - start;
    counters_.pick_calls += 1;
    return winner;
}

MemRequest*
TimedScheduler::PickInBank(const parbs::RequestQueue& queue,
                           std::uint32_t bank, DramCycle now)
{
    const std::uint64_t start = EngineProfiler::Now();
    MemRequest* winner = inner_->PickInBank(queue, bank, now);
    counters_.pick_in_bank_ticks += EngineProfiler::Now() - start;
    counters_.pick_in_bank_calls += 1;
    return winner;
}

void
TimedScheduler::OnRequestQueued(MemRequest& request, DramCycle now)
{
    const std::uint64_t start = EngineProfiler::Now();
    inner_->OnRequestQueued(request, now);
    counters_.hook_ticks += EngineProfiler::Now() - start;
    counters_.hook_calls += 1;
}

void
TimedScheduler::OnCommandIssued(const MemRequest& request,
                                const parbs::dram::Command& command,
                                DramCycle now)
{
    const std::uint64_t start = EngineProfiler::Now();
    inner_->OnCommandIssued(request, command, now);
    counters_.hook_ticks += EngineProfiler::Now() - start;
    counters_.hook_calls += 1;
}

void
TimedScheduler::OnRequestComplete(const MemRequest& request, DramCycle now)
{
    const std::uint64_t start = EngineProfiler::Now();
    inner_->OnRequestComplete(request, now);
    counters_.hook_ticks += EngineProfiler::Now() - start;
    counters_.hook_calls += 1;
}

void
TimedScheduler::OnDramCycle(DramCycle now)
{
    const std::uint64_t start = EngineProfiler::Now();
    inner_->OnDramCycle(now);
    counters_.hook_ticks += EngineProfiler::Now() - start;
    counters_.hook_calls += 1;
}

void
TimedScheduler::OnSchedulingKnobChanged()
{
    // Forward only values that differ, so the wrapped scheduler sees one
    // knob change per change made on the wrapper, as it would unwrapped.
    for (parbs::ThreadId t = 0; t < priorities_.size(); ++t) {
        if (inner_->thread_priority(t) != priorities_[t]) {
            inner_->SetThreadPriority(t, priorities_[t]);
        }
        if (inner_->thread_weight(t) != weights_[t]) {
            inner_->SetThreadWeight(t, weights_[t]);
        }
    }
}

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now())
{
}

namespace {

/** Small stable lane number per thread, in order of first use. */
std::uint32_t
ThreadLane()
{
    static std::mutex mutex;
    static std::uint32_t next = 0;
    thread_local std::uint32_t lane = [] {
        std::lock_guard<std::mutex> lock(mutex);
        return next++;
    }();
    return lane;
}

} // namespace

void
SpanLog::Add(const std::string& name, const std::string& category,
             std::chrono::steady_clock::time_point begin)
{
    if (!enabled_) {
        return;
    }
    const auto end = std::chrono::steady_clock::now();
    Span span;
    span.name = name;
    span.category = category;
    span.tid = ThreadLane();
    span.begin_us =
        std::chrono::duration<double, std::micro>(begin - origin_).count();
    span.dur_us = std::chrono::duration<double, std::micro>(end - begin).count();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

bool
SpanLog::Write(const std::string& path) const
{
    namespace json = parbs::json;
    json::Value events = json::Value::Array();
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& span : spans_) {
        json::Value event = json::Value::Object();
        event.Set("ph", "X");
        event.Set("name", span.name);
        event.Set("cat", span.category);
        event.Set("pid", 1);
        event.Set("tid", static_cast<std::uint64_t>(span.tid));
        event.Set("ts", span.begin_us);
        event.Set("dur", span.dur_us);
        events.Append(std::move(event));
    }
    json::Value document = json::Value::Object();
    document.Set("traceEvents", std::move(events));
    document.Set("displayTimeUnit", "ms");
    std::ofstream out(path);
    out << document.Dump(1) << "\n";
    return static_cast<bool>(out);
}

} // namespace ledger
