#include "cpu/core.hh"

#include <algorithm>

#include "common/assert.hh"

namespace parbs {

void
CoreConfig::Validate() const
{
    if (window_size == 0 || width == 0 || mshrs == 0) {
        PARBS_FATAL("core: window_size, width, and mshrs must be nonzero");
    }
}

Core::Core(const CoreConfig& config, ThreadId thread, TraceSource& trace,
           MemoryPort& port)
    : config_(config), thread_(thread), trace_(trace), port_(port)
{
    config_.Validate();
}

bool
Core::Tick()
{
    stats_.cycles += 1;
    const bool committed = Commit();
    const bool issued = IssueMemory();
    const bool fetched = Fetch();
    return committed || issued || fetched;
}

void
Core::SkipQuiescentCycles(std::uint64_t n)
{
    stats_.cycles += n;
    std::uint64_t* stall = HeadStallCounter();
    PARBS_ASSERT(stall != nullptr || window_.empty(),
                 "bulk-skipped a core that can commit");
    if (stall != nullptr) {
        *stall += n;
    }
}

std::uint64_t
Core::SteadyRun() const
{
    const std::uint32_t width = config_.width;
    if (!unissued_.empty() || !fetching_.has_value() ||
        window_occupancy_ < width) {
        return 0;
    }
    // Commit frees `width` slots a tick and fetch refills them from the
    // entry's compute, so the fetch side lasts this many ticks.
    const std::uint64_t fetch_ticks = fetch_compute_left_ / width;
    const std::uint64_t fetch_instructions = fetch_ticks * width;
    std::uint64_t prefix = 0;
    for (const Slot& slot : window_) {
        if (prefix >= fetch_instructions) {
            break;
        }
        if (slot.kind == Slot::Kind::kCompute) {
            prefix += slot.count;
        } else if (slot.done) {
            prefix += 1; // A returned load, or an issued store.
        } else {
            return prefix / width; // Commit stalls on this load.
        }
    }
    // No outstanding load in reach: what the window holds commits, then
    // the compute fetched behind it.
    return fetch_ticks;
}

void
Core::AdvanceSteady(std::uint64_t n)
{
    if (n == 0) {
        return;
    }
    const std::uint64_t moved = n * config_.width;
    PARBS_ASSERT(unissued_.empty() && fetching_.has_value() &&
                     moved <= fetch_compute_left_,
                 "steady advance beyond the fetched entry's compute");
    stats_.cycles += n;
    stats_.instructions += moved;
    fetch_compute_left_ -= static_cast<std::uint32_t>(moved);
    // Commit pops the window's first min(moved, occupancy) instructions
    // (the rest of `moved` is fetched compute committing behind them), and
    // fetch refills as many at the tail, so the occupancy holds.
    std::uint64_t left = std::min<std::uint64_t>(moved, window_occupancy_);
    const auto refill = static_cast<std::uint32_t>(left);
    while (left > 0) {
        Slot& head = window_.front();
        if (head.kind == Slot::Kind::kCompute) {
            const auto taken = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(left, head.count));
            head.count -= taken;
            left -= taken;
            if (head.count == 0) {
                window_.pop_front();
            }
            continue;
        }
        PARBS_ASSERT(head.done, "steady advance past an incomplete load");
        left -= 1;
        window_.pop_front();
    }
    AppendCompute(refill);
}

void
Core::AppendCompute(std::uint32_t n)
{
    if (!window_.empty() && window_.back().kind == Slot::Kind::kCompute) {
        window_.back().count += n;
        return;
    }
    Slot slot;
    slot.kind = Slot::Kind::kCompute;
    slot.count = n;
    window_.push_back(slot);
}

std::uint64_t*
Core::HeadStallCounter()
{
    if (window_.empty()) {
        return nullptr;
    }
    const Slot& head = window_.front();
    if (head.kind == Slot::Kind::kLoad && !head.done) {
        return &stats_.load_stall_cycles;
    }
    if (head.kind == Slot::Kind::kStore && !head.issued) {
        return &stats_.store_stall_cycles;
    }
    return nullptr;
}

bool
Core::Commit()
{
    std::uint32_t budget = config_.width;
    std::uint64_t committed = 0;
    while (budget > 0 && !window_.empty()) {
        Slot& head = window_.front();
        if (head.kind == Slot::Kind::kCompute) {
            const std::uint32_t n = std::min(budget, head.count);
            head.count -= n;
            budget -= n;
            committed += n;
            window_occupancy_ -= n;
            if (head.count == 0) {
                window_.pop_front();
            }
            continue;
        }
        if (head.kind == Slot::Kind::kLoad) {
            if (!head.done) {
                break; // In-order commit: stall on the oldest load.
            }
        } else if (!head.issued) {
            break; // Store could not enter the write buffer yet.
        }
        committed += 1;
        budget -= 1;
        window_occupancy_ -= 1;
        window_.pop_front();
    }
    stats_.instructions += committed;

    if (committed == 0) {
        if (std::uint64_t* stall = HeadStallCounter()) {
            *stall += 1;
        }
    }
    return committed != 0;
}

bool
Core::IssueMemory()
{
    // At most one memory operation issues per cycle (baseline: one of the
    // three pipeline slots may be a memory op).  A dependent access may only
    // issue once it is the oldest unissued access and nothing is in flight.
    const std::size_t scan_limit = std::min<std::size_t>(unissued_.size(), 4);
    for (std::size_t i = 0; i < scan_limit; ++i) {
        Slot* slot = unissued_[i];
        const bool dependency_ready =
            !slot->depends_on_prev || (i == 0 && outstanding_loads_ == 0);
        if (!dependency_ready) {
            continue;
        }
        if (slot->kind == Slot::Kind::kLoad) {
            if (outstanding_loads_ >= config_.mshrs) {
                break; // MSHRs full: no further loads may issue.
            }
            const std::optional<RequestId> id =
                port_.TryIssueRead(thread_, slot->addr);
            if (!id.has_value()) {
                break; // Request buffer full; retry next cycle.
            }
            slot->issued = true;
            slot->request_id = *id;
            outstanding_loads_ += 1;
            stats_.loads_issued += 1;
        } else {
            if (!port_.TryIssueWrite(thread_, slot->addr)) {
                continue; // Write buffer full; a later load may still go.
            }
            slot->issued = true;
            slot->done = true; // Stores retire into the write buffer.
            stats_.stores_issued += 1;
        }
        unissued_.erase(unissued_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
    }
    return false;
}

bool
Core::Fetch()
{
    // Every pass through the loop below calls TraceSource::Next or moves
    // instructions into the window, except on a drained trace.
    const bool progress = window_occupancy_ < config_.window_size &&
                          (fetching_.has_value() || !trace_exhausted_);
    std::uint32_t budget = config_.width;
    bool memory_fetched = false;
    while (budget > 0 && window_occupancy_ < config_.window_size) {
        if (!fetching_.has_value()) {
            if (trace_exhausted_) {
                return progress;
            }
            fetching_ = trace_.Next();
            if (!fetching_.has_value()) {
                trace_exhausted_ = true;
                return progress;
            }
            fetch_compute_left_ = fetching_->compute_instructions;
        }
        if (fetch_compute_left_ > 0) {
            const std::uint32_t n = std::min(
                {budget, fetch_compute_left_,
                 config_.window_size - window_occupancy_});
            AppendCompute(n);
            window_occupancy_ += n;
            budget -= n;
            fetch_compute_left_ -= n;
            continue;
        }
        // The entry's memory operation; at most one per cycle.
        if (memory_fetched) {
            return progress;
        }
        Slot slot;
        slot.kind = fetching_->is_write ? Slot::Kind::kStore
                                        : Slot::Kind::kLoad;
        slot.addr = fetching_->addr;
        slot.depends_on_prev = fetching_->depends_on_prev;
        window_.push_back(slot);
        unissued_.push_back(&window_.back());
        window_occupancy_ += 1;
        budget -= 1;
        memory_fetched = true;
        fetching_.reset();
    }
    return progress;
}

void
Core::OnReadComplete(RequestId id)
{
    for (Slot& slot : window_) {
        if (slot.kind == Slot::Kind::kLoad && slot.issued && !slot.done &&
            slot.request_id == id) {
            slot.done = true;
            PARBS_ASSERT(outstanding_loads_ > 0,
                         "load completion with none outstanding");
            outstanding_loads_ -= 1;
            stats_.loads_completed += 1;
            return;
        }
    }
    PARBS_ASSERT(false, "read completion for an unknown request");
}

bool
Core::Done() const
{
    return trace_exhausted_ && window_.empty() && !fetching_.has_value();
}

} // namespace parbs
