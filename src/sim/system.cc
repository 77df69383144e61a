#include "sim/system.hh"

#include <algorithm>
#include <bit>
#include <functional>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "common/assert.hh"
#include "common/json.hh"
#include "obs/engine_profiler.hh"
#include "sim/channel_team.hh"
#include "sim/runner.hh"

namespace parbs {

namespace {

/**
 * Staging-ring sizing for one channel and one lookahead window.  The worst
 * tick emits one event per command / skip-span / burst / retire plus the
 * scheduler's batch-formation storm (a rank event per thread and a
 * marking-cap event per queued read), and a window additionally stages one
 * arrival event per enqueue — bounded by the queue capacities.  The merge
 * asserts dropped() == 0, so undersizing is loud, not silent.
 */
std::size_t
StagingCapacity(DramCycle window, std::size_t read_capacity,
                std::size_t write_capacity, std::uint32_t threads)
{
    return static_cast<std::size_t>(window + 2) *
               (read_capacity + threads + 32) +
           read_capacity + write_capacity + 1024;
}

} // namespace

System::System(const SystemConfig& config,
               std::vector<std::unique_ptr<TraceSource>> traces)
    : config_(config),
      mapper_(config.geometry, config.xor_bank_hash),
      traces_(std::move(traces))
{
    config_.Validate();
    if (traces_.size() > config_.num_cores) {
        PARBS_FATAL("more traces than cores");
    }
    capacity_bytes_ = config_.geometry.CapacityBytes();
    if (config_.controller.watchdog.enabled) {
        // The system-level bound wraps the per-controller one with slack
        // for the clock-domain ratio and cross-controller skew.
        progress_bound_cpu_ =
            4 * config_.cpu_to_dram_ratio *
            ResolveNoProgressBound(config_.controller.watchdog,
                                   config_.timing);
    }
    read_capacity_ = config_.controller.read_queue_capacity;
    write_capacity_ = config_.controller.write_queue_capacity;
    sample_interval_ = config_.observability.sample_interval;

    // Per-channel geometry: each controller sees a single-channel slice.
    dram::Geometry channel_geometry = config_.geometry;
    channel_geometry.channels = 1;
    for (std::uint32_t channel = 0; channel < config_.geometry.channels;
         ++channel) {
        // One request slab per channel, sized so a full pair of queues fits
        // in a single slab (mem/request_pool.hh).
        pools_.push_back(std::make_unique<RequestPool>(
            read_capacity_ + write_capacity_ + 16));
        auto scheduler = config_.scheduler_factory
                             ? config_.scheduler_factory()
                             : MakeScheduler(config_.scheduler);
        // Each channel's RAS engine draws from an independent stream keyed
        // by (seed, channel) so fault placement does not depend on the
        // channel count or on which worker simulates the channel.
        ControllerConfig controller_config = config_.controller;
        controller_config.ras.channel = channel;
        if (controller_config.ras.seed == 0) {
            controller_config.ras.seed = config_.seed;
        }
        controllers_.push_back(std::make_unique<Controller>(
            controller_config, config_.timing, channel_geometry,
            config_.num_cores, std::move(scheduler)));
        controllers_.back()->SetReadCompleteCallback(
            [this, channel](const MemRequest& request, DramCycle now) {
                // Model the fixed return path (interconnect + L2 fill)
                // before the core observes the data.  `now` is the
                // retiring DRAM cycle, so the deadline is independent of
                // how far the cores ran ahead.  The engine pre-publishes
                // notifications from the retire schedules
                // (PublishNotifications); this record is kept only so
                // AdvanceChannel can assert the window produced exactly
                // the published prefix.
                shards_[channel]->completions.push_back(
                    {now * config_.cpu_to_dram_ratio +
                         config_.extra_read_latency_cpu,
                     request.thread, request.id});
            });
    }

    if (config_.observability.Enabled()) {
        obs_ = std::make_unique<obs::Observability>(
            config_.observability, config_.num_cores,
            static_cast<std::uint32_t>(controllers_.size()));
        sampler_ = &obs_->sampler();
        for (std::uint32_t channel = 0; channel < controllers_.size();
             ++channel) {
            controllers_[channel]->AttachObservability(
                &obs_->tracer(), &obs_->latency(),
                static_cast<std::uint8_t>(channel));
            controllers_[channel]->scheduler().SetObserver(
                &obs_->adapter(channel));
        }
    }

    for (ThreadId thread = 0; thread < traces_.size(); ++thread) {
        cores_.push_back(std::make_unique<Core>(config_.core, thread,
                                                *traces_[thread], *this));
    }
    core_done_.assign(cores_.size(), 0);
    // Every core starts asleep since cycle 0; PrepareRun wakes them all.
    const std::size_t core_words = (cores_.size() + 63) / 64;
    awake_.assign(core_words, 0);
    asleep_since_.assign(cores_.size(), 0);
    steady_wake_.assign(cores_.size(), kNeverCycle);
    active_cores_ = 0;
    for (ThreadId thread = 0; thread < cores_.size(); ++thread) {
        if (cores_[thread]->Done()) {
            core_done_[thread] = 1;
        } else {
            active_cores_ += 1;
        }
    }

    // Size the channel team (DESIGN.md §5g).  channel_jobs == 0 sizes it
    // to the machine, so the default never oversubscribes; anything above
    // the channel count is wasted.
    const auto channels =
        static_cast<std::uint32_t>(controllers_.size());
    const unsigned requested =
        config_.channel_jobs == 0 ? HardwareJobs() : config_.channel_jobs;
    channel_jobs_ = std::max(1u, std::min<unsigned>(requested, channels));
    window_ = LookaheadWindow();
    // TimingParams validation rejects tCL == 0 and tBURST == 0.
    PARBS_ASSERT(window_ >= 1, "timing admits no lookahead window");
    if (config_.observability.engine_profile) {
        engine_profiler_ = std::make_unique<obs::EngineProfiler>(
            channel_jobs_, channels, window_);
        eng_ = engine_profiler_.get();
        prof_occupancy_.assign(channels, 0);
    }
    for (std::uint32_t channel = 0; channel < channels; ++channel) {
        auto shard = std::make_unique<ChannelShard>();
        shard->read_waiters.assign(core_words, 0);
        shard->write_waiters.assign(core_words, 0);
        if (obs_ != nullptr) {
            shard->tracer = std::make_unique<obs::Tracer>(StagingCapacity(
                window_, read_capacity_, write_capacity_,
                config_.num_cores));
            // The anatomy's aggregates are commutative, so staging only
            // keeps concurrent participants apart; one records directly.
            if (channel_jobs_ > 1) {
                shard->latency =
                    std::make_unique<obs::LatencyAnatomy>(config_.num_cores);
            }
        }
        shards_.push_back(std::move(shard));
    }

    team_ = std::make_unique<ChannelTeam>(
        channel_jobs_,
        [this](unsigned participant) { RunParticipant(participant); },
        eng_);
}

System::~System() = default;

DramCycle
System::LookaheadWindow() const
{
    // Cores may run W DRAM cycles ahead of the controllers iff everything
    // a controller would make visible to a core within those W ticks is
    // known before they run.  Queue departures and read returns within the
    // window come only from bursts already in flight at its start — a
    // command issued inside the window completes no earlier than the
    // shortest burst latency — so W <= min(read burst, write burst) makes
    // the published retire schedules (and the notification schedule
    // derived from them, PublishNotifications) exhaustive and exact.  The
    // return-path latency does not bound W: notifications are published
    // ahead of execution rather than discovered at the retiring tick.
    // The bound must reflect the timing the controllers actually run with,
    // so it is read back from the constructed channel rather than from the
    // config snapshot (they are equal today, but the window is the one
    // place where a future divergence would corrupt results silently).
    const dram::TimingParams& t = controllers_.front()->channel().timing();
    const DramCycle read_burst = t.tCL + t.tBURST;
    const DramCycle write_burst = t.tCWD + t.tBURST;
    return std::min(read_burst, write_burst);
}

bool
System::TickCores()
{
    // Wakes happen only before the sweep (retires, notifications, steady
    // wakes): issuing only fills queues, so the awake set cannot grow
    // mid-sweep.
    std::uint64_t any_awake = 0;
    for (std::size_t word = 0; word < awake_.size(); ++word) {
        std::uint64_t pending = awake_[word];
        while (pending != 0) {
            const int bit = std::countr_zero(pending);
            pending &= pending - 1;
            const auto thread = static_cast<ThreadId>(word * 64 + bit);
            Core& core = *cores_[thread];
            rejected_.clear();
            if (core.Tick()) {
                // Done() is monotone and flips only on a tick that made
                // progress, so checking here keeps the end-of-run probe
                // O(1).
                if (core_done_[thread] == 0 && core.Done()) {
                    core_done_[thread] = 1;
                    active_cores_ -= 1;
                }
                // The next `run` ticks are steady; they issue nothing, so
                // only a read return can change them.  A run of one tick
                // is cheaper to execute than to schedule.
                const std::uint64_t run = core.SteadyRun();
                if (run >= 2) {
                    awake_[word] &= ~(std::uint64_t{1} << bit);
                    asleep_since_[thread] = cpu_cycle_ + 1;
                    steady_wake_[thread] = cpu_cycle_ + 1 + run;
                    wake_heap_.push_back({steady_wake_[thread], thread});
                    std::push_heap(wake_heap_.begin(), wake_heap_.end(),
                                   std::greater<>());
                }
                continue;
            }
            // Every later tick would repeat this one until a read returns
            // or a queue that rejected the core frees a slot.
            awake_[word] &= ~(std::uint64_t{1} << bit);
            asleep_since_[thread] = cpu_cycle_ + 1;
            for (const std::uint32_t queue : rejected_) {
                ChannelShard& shard = *shards_[queue / 2];
                std::vector<std::uint64_t>& waiters =
                    queue % 2 == 0 ? shard.read_waiters : shard.write_waiters;
                waiters[word] |= std::uint64_t{1} << bit;
            }
        }
        any_awake |= awake_[word];
    }
    return any_awake != 0;
}

void
System::WakeCore(ThreadId thread)
{
    std::uint64_t& word = awake_[thread / 64];
    const std::uint64_t bit = std::uint64_t{1} << (thread % 64);
    if ((word & bit) != 0) {
        return;
    }
    word |= bit;
    // Account the skipped ticks before anything reaches the core.  A
    // steady sleeper woken before its run ends (by a read return, or at a
    // flush point) takes only the elapsed ticks.  A Run that unwinds
    // mid-sweep leaves the cores that fell asleep in that sweep one cycle
    // ahead of the clock, with nothing to add.
    const std::uint64_t skipped = cpu_cycle_ > asleep_since_[thread]
                                      ? cpu_cycle_ - asleep_since_[thread]
                                      : 0;
    if (steady_wake_[thread] != kNeverCycle) {
        cores_[thread]->AdvanceSteady(skipped);
        steady_wake_[thread] = kNeverCycle;
    } else {
        cores_[thread]->SkipQuiescentCycles(skipped);
    }
    skipped_core_ticks_ += skipped;
}

void
System::WakeSteadySleepers()
{
    while (!wake_heap_.empty() && wake_heap_.front().cycle <= cpu_cycle_) {
        const SteadyWake due = wake_heap_.front();
        std::pop_heap(wake_heap_.begin(), wake_heap_.end(),
                      std::greater<>());
        wake_heap_.pop_back();
        if (steady_wake_[due.thread] == due.cycle) {
            WakeCore(due.thread);
        }
    }
}

void
System::WakeWaiters(std::vector<std::uint64_t>& waiters)
{
    for (std::size_t word = 0; word < waiters.size(); ++word) {
        std::uint64_t pending = waiters[word];
        waiters[word] = 0;
        while (pending != 0) {
            WakeCore(static_cast<ThreadId>(word * 64 +
                                           std::countr_zero(pending)));
            pending &= pending - 1;
        }
    }
}

void
System::WakeAllCores()
{
    for (ThreadId thread = 0; thread < cores_.size(); ++thread) {
        WakeCore(thread);
    }
    wake_heap_.clear(); // Every entry is stale now.
}

CpuCycle
System::NextCoreEvent(CpuCycle core_end) const
{
    // Every cycle before the returned one would only find no core awake:
    // no DRAM tick applies retires, no notification or steady run is due,
    // and no progress check follows it.
    const CpuCycle ratio = config_.cpu_to_dram_ratio;
    CpuCycle next = std::min(
        {core_end, (cpu_cycle_ + ratio - 1) / ratio * ratio,
         next_notify_ready_});
    if (!wake_heap_.empty()) {
        next = std::min(next, wake_heap_.front().cycle);
    }
    if (progress_bound_cpu_ != 0) {
        // The check runs after the cycle before next_progress_check_.
        next = std::min(next, next_progress_check_ - 1);
    }
    return next;
}

void
System::PrepareRun()
{
    const CpuCycle ratio = config_.cpu_to_dram_ratio;
    next_tick_ = (cpu_cycle_ + ratio - 1) / ratio;
    arrival_seq_ = 0;
    WakeAllCores();
    if (sampler_ != nullptr && sample_interval_ > 0) {
        sampler_->PrepareChannels(controllers_);
    }
    for (std::uint32_t channel = 0; channel < shards_.size(); ++channel) {
        ChannelShard& shard = *shards_[channel];
        const Controller& controller = *controllers_[channel];
        shard.inbox.clear();
        shard.completions.clear();
        shard.read_size = controller.pending_reads();
        shard.write_size = controller.pending_writes();
        shard.read_retires.clear();
        shard.write_retires.clear();
        shard.read_pos = 0;
        shard.write_pos = 0;
        controller.PendingRetires(next_tick_ + window_, shard.read_retires,
                                  shard.write_retires);
        shard.next_sample = sampler_ != nullptr && sample_interval_ > 0
                                ? sampler_->next_sample()
                                : kNeverCycle;
        shard.runs.clear();
        shard.staged_mark = 0;
        shard.samples.clear();
        shard.error = nullptr;
    }
    // A previous Run may have left published-but-unexecuted notifications
    // behind; rebuild the schedule from the freshly read FIFOs.
    PublishNotifications();
}

void
System::BindShardObservability(bool staging)
{
    if (obs_ == nullptr) {
        return;
    }
    for (std::uint32_t channel = 0; channel < controllers_.size();
         ++channel) {
        obs::Tracer* tracer =
            staging ? shards_[channel]->tracer.get() : &obs_->tracer();
        obs::LatencyAnatomy* latency = staging && shards_[channel]->latency
                                           ? shards_[channel]->latency.get()
                                           : &obs_->latency();
        controllers_[channel]->AttachObservability(
            tracer, latency, static_cast<std::uint8_t>(channel));
        obs_->adapter(channel).SetTracer(tracer);
    }
}

void
System::Run(CpuCycle cpu_cycles)
{
    const CpuCycle end = cpu_cycle_ + cpu_cycles;
    const CpuCycle ratio = config_.cpu_to_dram_ratio;
    PrepareRun();

    // Rebind the observability sinks to the per-channel staging buffers for
    // the duration of the run, and wake every core at its end so each
    // Core::stats() is exact — both also when a watchdog error unwinds.
    struct RunGuard {
        System& system;
        ~RunGuard()
        {
            system.WakeAllCores();
            system.BindShardObservability(false);
        }
    };
    BindShardObservability(true);
    RunGuard guard{*this};

    bool all_done = false;
    while (cpu_cycle_ < end && !all_done) {
        if (eng_ != nullptr) {
            eng_->BeginWindowWall();
        }
        // --- core phase ------------------------------------------------
        // Runs the cores up to the lookahead horizon, replaying queue
        // departures from the published retire/notification schedules so
        // backpressure and read returns are bit-exact without touching
        // the controllers.  The coordinator sweeps the cores alone while
        // the workers stay parked.
        const CpuCycle core_end =
            std::min<CpuCycle>(end, (next_tick_ + window_) * ratio);
        const std::uint64_t sweep_start =
            eng_ != nullptr ? obs::EngineProfiler::Now() : 0;
        if (eng_ != nullptr) {
            eng_->SetCurrentPhase(obs::EngineProfiler::Phase::kCoreSweep);
        }
        while (cpu_cycle_ < core_end) {
            if (cpu_cycle_ % ratio == 0) {
                ApplyScheduledRetires(DramNow());
            }
            if (next_notify_ready_ <= cpu_cycle_) {
                DeliverNotifications();
            }
            if (!wake_heap_.empty() &&
                wake_heap_.front().cycle <= cpu_cycle_) {
                WakeSteadySleepers();
            }
            const bool any_awake = TickCores();
            cpu_cycle_ += 1;
            if (progress_bound_cpu_ != 0 &&
                cpu_cycle_ >= next_progress_check_) {
                CheckGlobalProgress();
            }
            // AllDone() against the proxies: the controllers are behind,
            // but the proxies describe their state at exactly this point
            // of virtual time.
            if (AllDone()) {
                all_done = true;
                break;
            }
            // Skip the cycles in which no core would tick; their ticks are
            // accounted when each core wakes.
            if (!any_awake) {
                cpu_cycle_ = NextCoreEvent(core_end);
            }
        }
        if (eng_ != nullptr) {
            eng_->AddPhaseTicks(0, obs::EngineProfiler::Phase::kCoreSweep,
                                obs::EngineProfiler::Now() - sweep_start);
        }

        // --- controller catch-up (on the team) + barrier ----------------
        const DramCycle target = (cpu_cycle_ + ratio - 1) / ratio;
        if (target > next_tick_) {
            window_from_ = next_tick_;
            window_to_ = target;
            window_limit_ = target + window_;
            if (eng_ != nullptr) {
                eng_->SetCurrentPhase(
                    obs::EngineProfiler::Phase::kChannelWork);
            }
            team_->RunWindow();
            next_tick_ = target;
            MergeWindow();
            if (eng_ != nullptr) {
                // Occupancy at the close, from the proxies the coordinator
                // just verified against the real queues (MergeWindow).
                for (std::uint32_t channel = 0; channel < shards_.size();
                     ++channel) {
                    prof_occupancy_[channel] = shards_[channel]->read_size +
                                               shards_[channel]->write_size;
                }
                eng_->OnWindowClose(window_from_, target, prof_occupancy_);
            }
        }
    }
}

void
System::RunParticipant(unsigned participant)
{
    const std::uint64_t work_start =
        eng_ != nullptr ? obs::EngineProfiler::Now() : 0;
    const auto channels = static_cast<std::uint32_t>(controllers_.size());
    for (std::uint32_t channel = participant; channel < channels;
         channel += channel_jobs_) {
        try {
            AdvanceChannel(channel);
        } catch (...) {
            shards_[channel]->error = std::current_exception();
        }
    }
    if (eng_ != nullptr) {
        eng_->AddPhaseTicks(participant,
                            obs::EngineProfiler::Phase::kChannelWork,
                            obs::EngineProfiler::Now() - work_start);
    }
}

void
System::AdvanceChannel(std::uint32_t channel)
{
    ChannelShard& shard = *shards_[channel];
    Controller& controller = *controllers_[channel];
    std::size_t next_in = 0;
    for (DramCycle tick = window_from_; tick < window_to_; ++tick) {
        // Cycle order within one DRAM cycle d: the controller ticks at
        // CPU cycle d * ratio, the sampler reads it, and only then do the
        // cores issue — so arrivals stamped d enqueue after Tick(d).
        while (next_in < shard.inbox.size() &&
               shard.inbox[next_in].arrival < tick) {
            MailboxEntry& entry = shard.inbox[next_in];
            controller.Enqueue(std::move(entry.request), entry.arrival);
            shard.CloseRun(entry.arrival, 1, entry.seq);
            next_in += 1;
        }
        controller.Tick(tick);
        shard.CloseRun(tick, 0, channel);
        if (tick == shard.next_sample) {
            shard.samples.push_back(
                {tick, sampler_->SampleChannel(controller, channel)});
            shard.next_sample += sample_interval_;
        }
    }
    while (next_in < shard.inbox.size()) {
        MailboxEntry& entry = shard.inbox[next_in];
        PARBS_ASSERT(entry.arrival < window_to_,
                     "mailbox arrival beyond the window");
        controller.Enqueue(std::move(entry.request), entry.arrival);
        shard.CloseRun(entry.arrival, 1, entry.seq);
        next_in += 1;
    }
    shard.inbox.clear();

    // Cross-check: the read completions the window actually produced must
    // be exactly the published schedule prefix the cores already consumed
    // as notifications (same count, same cycles, same threads and ids).
    const CpuCycle ratio = config_.cpu_to_dram_ratio;
    std::size_t expected = 0;
    while (expected < shard.read_retires.size() &&
           shard.read_retires[expected].done < window_to_) {
        expected += 1;
    }
    PARBS_ASSERT(shard.completions.size() == expected,
                 "window completions diverged from the published schedule");
    for (std::size_t i = 0; i < expected; ++i) {
        const Controller::PendingRead& published = shard.read_retires[i];
        const PendingNotify& produced = shard.completions[i];
        PARBS_ASSERT(produced.ready ==
                             published.done * ratio +
                                 config_.extra_read_latency_cpu &&
                         produced.thread == published.thread &&
                         produced.id == published.id,
                     "window completion diverged from the published "
                     "schedule");
    }
    shard.completions.clear();

    // Publish the next window's retire schedule while still parallel.
    shard.read_retires.clear();
    shard.write_retires.clear();
    controller.PendingRetires(window_limit_, shard.read_retires,
                              shard.write_retires);
}

void
System::ChannelShard::CloseRun(DramCycle cycle, std::uint8_t phase,
                               std::uint64_t order)
{
    if (tracer == nullptr) {
        return;
    }
    const std::size_t size = tracer->size();
    if (size == staged_mark) {
        return;
    }
    PARBS_ASSERT(tracer->dropped() == 0, "staging tracer overflowed");
    runs.push_back({cycle, phase, order,
                    static_cast<std::uint32_t>(staged_mark),
                    static_cast<std::uint32_t>(size)});
    staged_mark = size;
}

void
System::ApplyScheduledRetires(DramCycle tick)
{
    // Mirrors Controller::RetireFinished, which retires at most one read
    // and one write per tick, each exactly at its completion cycle (the
    // cycles in one schedule are distinct, so `<=` matches `==` here).
    for (auto& shard : shards_) {
        if (shard->read_pos < shard->read_retires.size() &&
            shard->read_retires[shard->read_pos].done <= tick) {
            shard->read_pos += 1;
            shard->read_size -= 1;
            WakeWaiters(shard->read_waiters);
        }
        if (shard->write_pos < shard->write_retires.size() &&
            shard->write_retires[shard->write_pos] <= tick) {
            shard->write_pos += 1;
            shard->write_size -= 1;
            WakeWaiters(shard->write_waiters);
        }
    }
}

void
System::MergeWindow()
{
    const std::uint64_t t0 =
        eng_ != nullptr ? obs::EngineProfiler::Now() : 0;
    if (eng_ != nullptr) {
        eng_->SetCurrentPhase(obs::EngineProfiler::Phase::kMerge);
    }
    for (auto& shard : shards_) {
        if (shard->error != nullptr) {
            std::exception_ptr error = shard->error;
            shard->error = nullptr;
            RethrowShardError(error);
        }
    }
    for (std::uint32_t channel = 0; channel < shards_.size(); ++channel) {
        ChannelShard& shard = *shards_[channel];
        // The proxies drove every CanAccept answer of the window; if they
        // drifted from the real queues the run is not cycle-exact.
        PARBS_ASSERT(shard.read_size ==
                             controllers_[channel]->pending_reads() &&
                         shard.write_size ==
                             controllers_[channel]->pending_writes(),
                     "occupancy proxy diverged from the controller");
        shard.read_pos = 0;
        shard.write_pos = 0;
    }

    // The workers republished their retire schedules for the widened
    // horizon (AdvanceChannel); rebuild the notification schedule on top.
    const std::uint64_t t1 =
        eng_ != nullptr ? obs::EngineProfiler::Now() : 0;
    if (eng_ != nullptr) {
        eng_->SetCurrentPhase(obs::EngineProfiler::Phase::kPublish);
    }
    PublishNotifications();
    const std::uint64_t t2 =
        eng_ != nullptr ? obs::EngineProfiler::Now() : 0;

    if (obs_ != nullptr) {
        MergeObservability();
    }
    if (eng_ != nullptr) {
        eng_->SetCurrentPhase(obs::EngineProfiler::Phase::kMerge);
        eng_->AddPhaseTicks(0, obs::EngineProfiler::Phase::kPublish,
                            t2 - t1);
        eng_->AddPhaseTicks(0, obs::EngineProfiler::Phase::kMerge,
                            (obs::EngineProfiler::Now() - t2) + (t1 - t0));
    }
}

void
System::RethrowShardError(std::exception_ptr error)
{
    try {
        std::rethrow_exception(error);
    } catch (const WatchdogError& watchdog) {
        // A stalled worker's dump shows controller state; add where the
        // engine itself was parked when the bound tripped.
        throw WatchdogError(std::string(watchdog.what()) + "\n" +
                            EngineStateDump());
    }
    // Any other exception propagates unchanged from the rethrow above.
}

void
System::PublishNotifications()
{
    const CpuCycle ratio = config_.cpu_to_dram_ratio;
    const CpuCycle horizon =
        next_tick_ * ratio + config_.extra_read_latency_cpu;

    // Drop the previously published suffix: entries for retire ticks >=
    // next_tick_ sit at ready >= horizon, and none of them was delivered
    // (delivery implies ready <= the core clock < horizon, since the last
    // executed tick is next_tick_ - 1).  Entries below the horizon belong
    // to executed ticks and are final — they stay.
    while (!notifications_.empty() &&
           notifications_.back().ready >= horizon) {
        notifications_.pop_back();
    }

    // Re-append the fresh schedules, k-way merged by (completion cycle,
    // channel): within one DRAM cycle the channels tick in index order and
    // each retires at most one read per tick, so the key is unique and the
    // order is exactly the order the read-complete callbacks fire in.
    publish_pos_.assign(shards_.size(), 0);
    while (true) {
        std::size_t best = shards_.size();
        for (std::size_t channel = 0; channel < shards_.size(); ++channel) {
            const ChannelShard& shard = *shards_[channel];
            if (publish_pos_[channel] >= shard.read_retires.size()) {
                continue;
            }
            if (best == shards_.size() ||
                shard.read_retires[publish_pos_[channel]].done <
                    shards_[best]->read_retires[publish_pos_[best]].done) {
                best = channel;
            }
        }
        if (best == shards_.size()) {
            break;
        }
        const Controller::PendingRead& entry =
            shards_[best]->read_retires[publish_pos_[best]];
        publish_pos_[best] += 1;
        const CpuCycle ready =
            entry.done * ratio + config_.extra_read_latency_cpu;
        PARBS_ASSERT(notifications_.empty() ||
                         notifications_.back().ready <= ready,
                     "published notifications out of order");
        notifications_.push_back({ready, entry.thread, entry.id});
    }
    next_notify_ready_ = notifications_.empty()
                             ? kNeverCycle
                             : notifications_.front().ready;
}

void
System::MergeObservability()
{
    // Trace: replay each channel's staged event runs into the main ring in
    // cycle order (see StagedRun for the key argument).
    merge_runs_.clear();
    for (std::uint32_t channel = 0; channel < shards_.size(); ++channel) {
        ChannelShard& shard = *shards_[channel];
        // Tag anything emitted after the last tick (there should be none,
        // but a trailing run must not be silently dropped).  The key must
        // stay unique across channels, hence the channel offset.
        shard.CloseRun(window_to_ - 1, 1, arrival_seq_ + channel);
        PARBS_ASSERT(shard.tracer->dropped() == 0,
                     "staging tracer overflowed");
        for (const StagedRun& run : shard.runs) {
            merge_runs_.push_back({run, channel});
        }
    }
    std::sort(merge_runs_.begin(), merge_runs_.end(),
              [](const TaggedRun& a, const TaggedRun& b) {
                  if (a.run.cycle != b.run.cycle) {
                      return a.run.cycle < b.run.cycle;
                  }
                  if (a.run.phase != b.run.phase) {
                      return a.run.phase < b.run.phase;
                  }
                  return a.run.order < b.run.order;
              });
    obs::Tracer& main_tracer = obs_->tracer();
    for (const TaggedRun& tagged : merge_runs_) {
        const obs::Tracer& staging = *shards_[tagged.channel]->tracer;
        for (std::uint32_t i = tagged.run.begin; i < tagged.run.end; ++i) {
            main_tracer.Emit(staging.event(i));
        }
    }
    for (auto& shard : shards_) {
        shard->tracer->Clear();
        shard->runs.clear();
        shard->staged_mark = 0;
        if (shard->latency != nullptr) {
            obs_->latency().Merge(*shard->latency);
            shard->latency->Clear();
        }
    }

    // Sampler rows: every channel sampled at the same cycles (they share
    // the cursor's start and stride), so rows zip back together in channel
    // order, exactly as one whole-system sample would have built them.
    if (sampler_ == nullptr || sample_interval_ == 0 ||
        shards_.front()->samples.empty()) {
        for (auto& shard : shards_) {
            PARBS_ASSERT(shard->samples.empty(),
                         "sampler rows out of step across channels");
        }
        return;
    }
    const std::size_t rows = shards_.front()->samples.size();
    for (std::size_t row = 0; row < rows; ++row) {
        const DramCycle cycle = shards_.front()->samples[row].cycle;
        PARBS_ASSERT(cycle == sampler_->next_sample(),
                     "sampler cursor out of step");
        std::vector<obs::ControllerSample> assembled;
        assembled.reserve(shards_.size());
        for (auto& shard : shards_) {
            PARBS_ASSERT(shard->samples.size() == rows &&
                             shard->samples[row].cycle == cycle,
                         "sampler rows out of step across channels");
            assembled.push_back(std::move(shard->samples[row].data));
        }
        sampler_->AppendRow(cycle, std::move(assembled));
    }
    for (auto& shard : shards_) {
        shard->samples.clear();
    }
}

std::uint64_t
System::ProgressSignature() const
{
    std::uint64_t signature = 0;
    for (ThreadId thread = 0; thread < cores_.size(); ++thread) {
        signature += cores_[thread]->stats().instructions;
        // A steady sleeper commits `width` instructions a cycle that its
        // stats show only once it wakes.
        const CpuCycle wake = steady_wake_[thread];
        if (wake != kNeverCycle) {
            const CpuCycle until = std::min(cpu_cycle_, wake);
            if (until > asleep_since_[thread]) {
                signature += (until - asleep_since_[thread]) *
                             config_.core.width;
            }
        }
    }
    for (const auto& controller : controllers_) {
        signature += controller->total_commands_issued();
    }
    return signature;
}

void
System::CheckGlobalProgress()
{
    // Amortize the signature scan; the bound is thousands of cycles.  This
    // runs during the core phase, when the workers are parked — the
    // controller counters may lag by up to one lookahead window, which the
    // 4x ratio slack in the bound absorbs.
    next_progress_check_ = cpu_cycle_ + 256;
    const std::uint64_t signature = ProgressSignature();
    if (signature != progress_signature_) {
        progress_signature_ = signature;
        progress_cycle_ = cpu_cycle_;
        return;
    }
    if (cpu_cycle_ - progress_cycle_ <= progress_bound_cpu_) {
        return;
    }
    if (AllDone()) {
        return;
    }
    std::ostringstream out;
    out << "watchdog: system deadlock: no instruction retired and no DRAM "
           "command issued for "
        << (cpu_cycle_ - progress_cycle_) << " CPU cycles (bound "
        << progress_bound_cpu_ << ") with work still pending\n";
    for (std::uint32_t channel = 0; channel < controllers_.size();
         ++channel) {
        out << "-- controller[" << channel << "] --\n"
            << controllers_[channel]->Diagnostics(DramNow());
    }
    WakeAllCores();
    DumpStats(out);
    out << EngineStateDump();
    throw WatchdogError(out.str());
}

std::string
System::EngineStateDump() const
{
    std::ostringstream out;
    out << "---- engine state ----\n"
        << "channel_jobs=" << channel_jobs_
        << " lookahead_window=" << window_ << "\n"
        << "cpu_cycle=" << cpu_cycle_ << " next_tick=" << next_tick_
        << " window=[" << window_from_ << "," << window_to_
        << ") limit=" << window_limit_ << "\n";
    if (eng_ != nullptr) {
        out << "profiler_phase=" << eng_->CurrentPhaseName() << "\n";
    }
    for (std::uint32_t channel = 0; channel < shards_.size(); ++channel) {
        const ChannelShard& shard = *shards_[channel];
        out << "shard[" << channel << "] reads=" << shard.read_size
            << " writes=" << shard.write_size
            << " inbox=" << shard.inbox.size()
            << (shard.error != nullptr ? " error=pending" : "") << "\n";
    }
    return out.str();
}

json::Value
System::EngineRunJson() const
{
    PARBS_ASSERT(eng_ != nullptr,
                 "EngineRunJson requires observability.engine_profile");
    json::Value out = eng_->DeterministicJson();
    Scheduler::PickMemoCounters memo;
    for (const auto& controller : controllers_) {
        const Scheduler::PickMemoCounters counters =
            controller->scheduler().MemoCounters();
        memo.hits += counters.hits;
        memo.misses += counters.misses;
        memo.invalidations += counters.invalidations;
    }
    json::Value memo_json = json::Value::Object();
    memo_json.Set("hits", json::Value(memo.hits));
    memo_json.Set("misses", json::Value(memo.misses));
    memo_json.Set("invalidations", json::Value(memo.invalidations));
    out.Set("pick_memo", std::move(memo_json));
    return out;
}

json::Value
System::EngineEnvJson() const
{
    PARBS_ASSERT(eng_ != nullptr,
                 "EngineEnvJson requires observability.engine_profile");
    json::Value out = eng_->TimingJson();
    // Pool high waters are exact but engine-shape dependent (the cores run
    // a window ahead of retirement), hence env.
    json::Value hiwater = json::Value::Array();
    for (const auto& pool : pools_) {
        hiwater.Append(
            json::Value(static_cast<std::uint64_t>(pool->hiwater())));
    }
    out.Set("pool_hiwater", std::move(hiwater));
    return out;
}

void
System::DeliverNotifications()
{
    while (!notifications_.empty() &&
           notifications_.front().ready <= cpu_cycle_) {
        const PendingNotify n = notifications_.front();
        notifications_.pop_front();
        WakeCore(n.thread);
        cores_[n.thread]->OnReadComplete(n.id);
    }
    next_notify_ready_ = notifications_.empty()
                             ? kNeverCycle
                             : notifications_.front().ready;
}

bool
System::AllDone() const
{
    if (active_cores_ != 0 || !notifications_.empty()) {
        return false;
    }
    // Drained traces may still have requests in flight; the shard proxies
    // stand in for the (lagging) controllers.
    for (const auto& shard : shards_) {
        if (shard->read_size != 0 || shard->write_size != 0) {
            return false;
        }
    }
    return true;
}

std::uint32_t
System::num_cores() const
{
    return static_cast<std::uint32_t>(cores_.size());
}

Core&
System::core(ThreadId thread)
{
    PARBS_ASSERT(thread < cores_.size(), "core index out of range");
    return *cores_[thread];
}

const Core&
System::core(ThreadId thread) const
{
    PARBS_ASSERT(thread < cores_.size(), "core index out of range");
    return *cores_[thread];
}

Controller&
System::controller(std::uint32_t channel)
{
    PARBS_ASSERT(channel < controllers_.size(), "channel out of range");
    return *controllers_[channel];
}

const Controller&
System::controller(std::uint32_t channel) const
{
    PARBS_ASSERT(channel < controllers_.size(), "channel out of range");
    return *controllers_[channel];
}

std::uint32_t
System::num_controllers() const
{
    return static_cast<std::uint32_t>(controllers_.size());
}

void
System::SetThreadPriority(ThreadId thread, ThreadPriority priority)
{
    for (auto& controller : controllers_) {
        controller->scheduler().SetThreadPriority(thread, priority);
    }
}

void
System::SetThreadWeight(ThreadId thread, double weight)
{
    for (auto& controller : controllers_) {
        controller->scheduler().SetThreadWeight(thread, weight);
    }
}

ThreadMeasurement
System::Measure(ThreadId thread) const
{
    PARBS_ASSERT(thread < cores_.size(), "thread out of range");
    return MeasureThread(config_, *cores_[thread], controllers_);
}

ThreadMeasurement
MeasureThread(const SystemConfig& config, const Core& core,
              const std::vector<std::unique_ptr<Controller>>& controllers)
{
    const ThreadId thread = core.thread();
    const CoreStats& core_stats = core.stats();

    ThreadMeasurement out;
    out.mcpi = core_stats.Mcpi();
    out.ipc = core_stats.Ipc();
    out.ast_per_req = core_stats.AstPerRequest();
    out.mpki = core_stats.Mpki();
    out.instructions = core_stats.instructions;
    out.requests = core_stats.loads_completed;

    std::uint64_t hits = 0;
    std::uint64_t accesses = 0;
    std::uint64_t blp_sum = 0;
    std::uint64_t blp_cycles = 0;
    std::uint64_t max_latency_dram = 0;
    for (const auto& controller : controllers) {
        const ControllerThreadStats& stats =
            controller->thread_stats(thread);
        hits += stats.read_row_hits;
        accesses += stats.read_row_hits + stats.read_row_closed +
                    stats.read_row_conflicts;
        blp_sum += stats.blp_sum;
        blp_cycles += stats.blp_cycles;
        max_latency_dram =
            std::max(max_latency_dram, stats.read_latency_max);
    }
    out.row_hit_rate = accesses == 0 ? 0.0
                                     : static_cast<double>(hits) /
                                           static_cast<double>(accesses);
    out.blp = blp_cycles == 0 ? 0.0
                              : static_cast<double>(blp_sum) /
                                    static_cast<double>(blp_cycles);
    out.worst_case_latency =
        max_latency_dram == 0
            ? 0
            : DramLatencyToCpuCycles(max_latency_dram,
                                     config.cpu_to_dram_ratio,
                                     config.extra_read_latency_cpu);
    return out;
}

void
System::WriteTrace(std::ostream& out, const std::string& workload_label) const
{
    PARBS_ASSERT(obs_ != nullptr,
                 "WriteTrace requires observability to be enabled");
    obs::TraceMeta meta;
    meta.scheduler = controllers_.empty()
                         ? std::string{}
                         : controllers_.front()->scheduler().name();
    meta.workload = workload_label;
    meta.cores = config_.num_cores;
    meta.seed = config_.seed;
    meta.cpu_to_dram_ratio = config_.cpu_to_dram_ratio;
    if (eng_ == nullptr) {
        obs_->WriteTrace(out, meta);
        return;
    }
    json::Value document = obs_->TraceDocument(meta);
    eng_->AppendToTraceDocument(document);
    out << document.Dump(2) << "\n";
}

void
System::DumpStats(std::ostream& out) const
{
    WriteStatsReport(out, config_, cpu_cycle_, cores_, controllers_);
}

void
WriteStatsReport(std::ostream& out, const SystemConfig& config, CpuCycle now,
                 const std::vector<std::unique_ptr<Core>>& cores,
                 const std::vector<std::unique_ptr<Controller>>& controllers)
{
    out << "---- system stats @ cpu cycle " << now << " ----\n";
    for (ThreadId t = 0; t < cores.size(); ++t) {
        const CoreStats& stats = cores[t]->stats();
        const ThreadMeasurement m =
            MeasureThread(config, *cores[t], controllers);
        out << "core[" << t << "]"
            << " instructions=" << stats.instructions
            << " ipc=" << m.ipc
            << " mcpi=" << m.mcpi
            << " loads=" << stats.loads_completed
            << " stores=" << stats.stores_issued
            << " ast_per_req=" << m.ast_per_req
            << " rb_hit=" << m.row_hit_rate
            << " blp=" << m.blp
            << " wc_latency=" << m.worst_case_latency << "\n";
    }
    for (std::uint32_t channel = 0; channel < controllers.size();
         ++channel) {
        const Controller& controller = *controllers[channel];
        out << "controller[" << channel << "]"
            << " ACT=" << controller.commands_issued(
                   dram::CommandType::kActivate)
            << " PRE=" << controller.commands_issued(
                   dram::CommandType::kPrecharge)
            << " RD=" << controller.commands_issued(
                   dram::CommandType::kRead)
            << " WR=" << controller.commands_issued(
                   dram::CommandType::kWrite)
            << " REF=" << controller.commands_issued(
                   dram::CommandType::kRefresh)
            << " pending_reads=" << controller.pending_reads()
            << " pending_writes=" << controller.pending_writes() << "\n";
        const auto scheduler_stats = controller.scheduler().Stats();
        if (!scheduler_stats.empty()) {
            out << "controller[" << channel << "].scheduler("
                << controller.scheduler().name() << ")";
            for (const auto& [key, value] : scheduler_stats) {
                out << " " << key << "=" << value;
            }
            out << "\n";
        }
        if (const RasEngine* ras = controller.ras()) {
            out << "controller[" << channel << "].ras " << ras->Summary()
                << "\n";
        }
    }
}

void
System::CheckAddr(Addr addr) const
{
    // The bit-sliced mapper masks each field, so an out-of-range address
    // would silently alias a valid one — reject it instead.
    if (addr >= capacity_bytes_) {
        std::ostringstream message;
        message << "address 0x" << std::hex << addr << std::dec
                << " is outside the " << capacity_bytes_
                << "-byte memory system (check the trace against the "
                   "configured DRAM geometry)";
        PARBS_FATAL(message.str());
    }
}

RequestPtr
System::MakeRequest(ThreadId thread, Addr addr, bool is_write,
                    const dram::DecodedAddr& coords)
{
    // Allocated from the target channel's slab (mem/request_pool.hh).
    // Issue runs on the coordinator and release on the channel's worker,
    // but the phases alternate across the team barrier, so the pool is
    // never touched concurrently.
    RequestPtr request = pools_[coords.channel]->Make();
    request->id = next_request_id_++;
    request->thread = thread;
    request->addr = addr;
    request->coords = coords;
    request->is_write = is_write;
    request->arrival_cpu = cpu_cycle_;
    return request;
}

std::optional<RequestId>
System::TryIssueRead(ThreadId thread, Addr addr)
{
    CheckAddr(addr);
    const dram::DecodedAddr coords = mapper_.Decode(addr);
    ChannelShard& shard = *shards_[coords.channel];
    if (shard.read_size >= read_capacity_) {
        rejected_.push_back(2 * coords.channel);
        return std::nullopt;
    }
    RequestPtr request = MakeRequest(thread, addr, false, coords);
    const RequestId id = request->id;
    shard.read_size += 1;
    shard.inbox.push_back({DramNow(), arrival_seq_++, std::move(request)});
    if (eng_ != nullptr) {
        eng_->OnArrival(coords.channel);
    }
    return id;
}

bool
System::TryIssueWrite(ThreadId thread, Addr addr)
{
    CheckAddr(addr);
    const dram::DecodedAddr coords = mapper_.Decode(addr);
    ChannelShard& shard = *shards_[coords.channel];
    if (shard.write_size >= write_capacity_) {
        rejected_.push_back(2 * coords.channel + 1);
        return false;
    }
    shard.write_size += 1;
    shard.inbox.push_back({DramNow(), arrival_seq_++,
                           MakeRequest(thread, addr, true, coords)});
    if (eng_ != nullptr) {
        eng_->OnArrival(coords.channel);
    }
    return true;
}

} // namespace parbs
