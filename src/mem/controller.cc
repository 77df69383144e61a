#include "mem/controller.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/assert.hh"
#include "obs/latency.hh"
#include "obs/tracer.hh"

namespace parbs {

void
ControllerConfig::Validate() const
{
    if (read_queue_capacity == 0 || write_queue_capacity == 0) {
        PARBS_FATAL("controller: queue capacities must be nonzero");
    }
    if (write_drain_low > write_drain_high ||
        write_drain_high > write_queue_capacity) {
        PARBS_FATAL("controller: write drain watermarks must satisfy "
                    "low <= high <= capacity");
    }
    watchdog.Validate();
    ras.Validate();
}

Controller::Controller(const ControllerConfig& config,
                       const dram::TimingParams& timing,
                       const dram::Geometry& geometry,
                       std::uint32_t num_threads,
                       std::unique_ptr<Scheduler> scheduler)
    : config_(config),
      channel_(timing, geometry),
      num_threads_(num_threads),
      scheduler_(std::move(scheduler)),
      read_queue_(config.read_queue_capacity, num_threads,
                  geometry.ranks_per_channel, geometry.banks_per_rank),
      write_queue_(config.write_queue_capacity, num_threads,
                   geometry.ranks_per_channel, geometry.banks_per_rank),
      stats_(num_threads),
      in_service_(static_cast<std::size_t>(num_threads) *
                      geometry.ranks_per_channel * geometry.banks_per_rank,
                  0),
      busy_banks_(num_threads, 0),
      busy_threads_((num_threads + 63) / 64, 0)
{
    PARBS_ASSERT(scheduler_ != nullptr, "controller needs a scheduler");
    config_.Validate();
    if (config_.protocol_check) {
        channel_.EnableProtocolCheck();
    }
    if (config_.ras.enabled) {
        ras_ = std::make_unique<RasEngine>(config_.ras, geometry);
        if (config_.ras.scrub_interval > 0) {
            scrubber_ = std::make_unique<Scrubber>(
                geometry, config_.ras.scrub_interval,
                config_.ras.scrub_demote_reads);
        }
    }
    if (config_.watchdog.enabled) {
        watchdog_ = std::make_unique<ForwardProgressWatchdog>(
            config_.watchdog, channel_.timing(),
            config_.read_queue_capacity);
    }
    SchedulerContext context;
    context.read_queue = &read_queue_;
    context.write_queue = &write_queue_;
    context.channel = &channel_;
    context.num_threads = num_threads;
    context.num_ranks = geometry.ranks_per_channel;
    context.banks_per_rank = geometry.banks_per_rank;
    context.timing = &channel_.timing();
    scheduler_->Attach(context);
}

void
Controller::SetReadCompleteCallback(ReadCompleteCallback callback)
{
    read_complete_ = std::move(callback);
}

void
Controller::AttachObservability(obs::Tracer* tracer,
                                obs::LatencyAnatomy* latency,
                                std::uint8_t channel_id)
{
    tracer_ = tracer;
    latency_obs_ = latency;
    channel_id_ = channel_id;
}

void
Controller::Enqueue(RequestPtr request, DramCycle now)
{
    PARBS_ASSERT(request != nullptr, "null request enqueued");
    request->arrival_dram = now;
    request->state = RequestState::kQueued;
    MemRequest& ref = request->is_write
                          ? write_queue_.Add(std::move(request))
                          : read_queue_.Add(std::move(request));
    // A new candidate may be ready immediately: drop the skip-ahead bound.
    next_select_cycle_ = 0;
    if (tracer_ != nullptr) {
        tracer_->Emit({now, obs::EventKind::kRequestArrive, channel_id_,
                       ref.thread, FlatBank(ref), ref.id,
                       ref.is_write ? 1u : 0u});
    }
    scheduler_->OnRequestQueued(ref, now);
}

void
Controller::Tick(DramCycle now)
{
    // Retirement fast path: in-burst completion cycles are known at issue
    // time, so the scan is pointless before the earliest of them.
    if (now >= next_retire_check_) {
        RetireFinished(now);
    }
    scheduler_->OnDramCycle(now);

    bool issued = HandleRefresh(now);
    if (!issued) {
        // Selection fast path: while the cached bound proves no queued
        // command (and no scrub command) can pass its timing checks, the
        // whole two-level scan is skipped.  The bound stays valid because
        // bank / rank / bus timers move only when a command issues and the
        // candidate set grows only on arrival — both reset
        // next_select_cycle_.  Skipping a cycle that issues nothing is
        // observationally identical to scanning it: Pick() is side-effect-
        // free across all schedulers, the write-drain watermark state is
        // kept cycle-exact by RetireFinished (retirement is the only event
        // that changes queue sizes during a skip window; see the note
        // there), and a declining TryScrub only moves the scrub cursor
        // past retired rows, which commutes (DESIGN.md §6).
        if (now >= next_select_cycle_) {
            fast_stats_.select_scans += 1;
            if (tracer_ != nullptr) {
                FlushSkipSpan();
            }
            UpdateWriteDrain(now);

            // A scan that issues nothing walks both queues, so their walks
            // fold the whole skip-ahead bound; a declining scrub folds its
            // own part.
            DramCycle bound = kNeverCycle;
            MemRequest* chosen = nullptr;
            if (write_drain_active_) {
                chosen = SelectRequest(write_queue_, now, bound);
            }
            if (chosen == nullptr) {
                chosen = SelectRequest(read_queue_, now, bound);
            }
            if (chosen == nullptr && !write_drain_active_) {
                chosen = SelectRequest(write_queue_, now, bound);
            }
            if (chosen != nullptr) {
                IssueFor(*chosen, now);
            } else if (scrubber_ == nullptr || !TryScrub(now, bound)) {
                next_select_cycle_ = bound;
            }
        } else {
            fast_stats_.select_skips += 1;
            if (tracer_ != nullptr) {
                if (skip_span_len_ == 0) {
                    skip_span_start_ = now;
                }
                skip_span_len_ += 1;
            }
        }
    }

    if (watchdog_) {
        watchdog_->Check(now, read_queue_, write_queue_, *scheduler_,
                         channel_, last_command_cycle_, tracer_,
                         ras_.get());
    }

    SampleBlp();
}

void
Controller::RetireFinished(DramCycle now)
{
    fast_stats_.retire_scans += 1;
    // The in-burst FIFOs hold completions in order, so retirement is a
    // front-pop per completed request instead of a full-buffer scan.  The
    // pop order (completion order, reads before writes) matches the old
    // scan: per-queue completion cycles are distinct and the check runs
    // every cycle one is due, so at most one request per queue retires per
    // call.
    while (!inburst_reads_.empty() && inburst_reads_.front().done <= now) {
        const InFlight entry = inburst_reads_.front();
        inburst_reads_.pop_front();
        RequestPtr request = read_queue_.Remove(*entry.request);
        PARBS_ASSERT(request->state == RequestState::kInBurst,
                     "retire FIFO out of sync with request state");
        if (entry.ecc_fail) {
            // The burst arrived but ECC flagged it uncorrectable: the data
            // never reaches the core.  Requeue for a bounded retry instead
            // of retiring (may throw MachineCheckError past the budget).
            RetryFailedRead(std::move(request), now);
            continue;
        }
        request->state = RequestState::kCompleted;
        LeaveService(*request);
        if (tracer_ != nullptr) {
            tracer_->Emit({now, obs::EventKind::kRequestRetire, channel_id_,
                           request->thread, FlatBank(*request), request->id,
                           request->Latency()});
        }
        if (latency_obs_ != nullptr) {
            latency_obs_->RecordRead(*request);
        }

        ControllerThreadStats& stats = stats_[request->thread];
        stats.reads_completed += 1;
        const DramCycle latency = request->Latency();
        stats.read_latency_sum += latency;
        stats.read_latency_max = std::max(stats.read_latency_max, latency);
        switch (request->service_class) {
          case dram::RowBufferState::kHit:
            stats.read_row_hits += 1;
            break;
          case dram::RowBufferState::kClosed:
            stats.read_row_closed += 1;
            break;
          case dram::RowBufferState::kConflict:
            stats.read_row_conflicts += 1;
            break;
        }

        scheduler_->OnRequestComplete(*request, now);
        if (read_complete_) {
            read_complete_(*request, now);
        }
    }

    while (!inburst_writes_.empty() &&
           inburst_writes_.front().done <= now) {
        const MemRequest& retiring = *inburst_writes_.front().request;
        inburst_writes_.pop_front();
        RequestPtr request = write_queue_.Remove(retiring);
        PARBS_ASSERT(request->state == RequestState::kInBurst,
                     "retire FIFO out of sync with request state");
        request->state = RequestState::kCompleted;
        stats_[request->thread].writes_completed += 1;
        if (tracer_ != nullptr) {
            tracer_->Emit({now, obs::EventKind::kRequestRetire, channel_id_,
                           request->thread, FlatBank(*request), request->id,
                           request->Latency()});
        }
        scheduler_->OnRequestComplete(*request, now);
    }

    if (scrubber_ != nullptr) {
        if (scrubber_->in_flight() && scrubber_->completion() <= now) {
            FinishScrub(now);
        }
        // A scrub that declined for an in-flight scrub read, the write
        // drain or the demotion watermark folded nothing into the skip-
        // ahead bound: each of those clears only here (or on an arrival or
        // an issue, which reset the bound too).
        next_select_cycle_ = 0;
    }

    // Keep the write-drain hysteresis exact across skipped selection scans:
    // the watermark state is path-dependent (a dip to the low watermark must
    // turn draining off even if the queue refills before the next scan), and
    // during a skip window retirement is the only event that changes queue
    // sizes.  Updating here — at the same point in the cycle the per-cycle
    // scan would have sampled — reproduces the cycle-exact state machine;
    // between size changes the update is a no-op, and arrivals already force
    // a scan on their next cycle.
    UpdateWriteDrain(now);

    RecomputeNextRetire();
}

void
Controller::UpdateWriteDrain(DramCycle now)
{
    // Write-drain hysteresis: strict read priority by default (the paper's
    // policy), forced drain only as overflow protection.
    if (write_queue_.size() >= config_.write_drain_high) {
        if (!write_drain_active_ && tracer_ != nullptr) {
            tracer_->Emit({now, obs::EventKind::kWriteDrainEnter,
                           channel_id_, kInvalidThread, obs::kNoFlatBank,
                           write_queue_.size(), 0});
        }
        write_drain_active_ = true;
    } else if (write_queue_.size() <= config_.write_drain_low) {
        if (write_drain_active_ && tracer_ != nullptr) {
            tracer_->Emit({now, obs::EventKind::kWriteDrainExit, channel_id_,
                           kInvalidThread, obs::kNoFlatBank,
                           write_queue_.size(), 0});
        }
        write_drain_active_ = false;
    }
}

void
Controller::FlushSkipSpan()
{
    if (skip_span_len_ == 0) {
        return;
    }
    tracer_->Emit({skip_span_start_, obs::EventKind::kFastPathSkip,
                   channel_id_, kInvalidThread, obs::kNoFlatBank,
                   skip_span_len_, 0});
    skip_span_len_ = 0;
}

void
Controller::PendingRetires(DramCycle limit, std::vector<PendingRead>& reads,
                           std::vector<DramCycle>& writes) const
{
    for (const InFlight& entry : inburst_reads_) {
        if (entry.done >= limit) {
            break;
        }
        // A failed read re-enters the queue at its completion cycle
        // instead of departing, so it is neither a retire for the sharded
        // occupancy proxies nor a core notification.
        if (entry.ecc_fail) {
            continue;
        }
        reads.push_back({entry.done, entry.thread, entry.request->id});
    }
    for (const InFlight& entry : inburst_writes_) {
        if (entry.done >= limit) {
            break;
        }
        writes.push_back(entry.done);
    }
}

void
Controller::RecomputeNextRetire()
{
    // The FIFO fronts are the earliest in-flight completions.
    next_retire_check_ = kNeverCycle;
    if (!inburst_reads_.empty()) {
        next_retire_check_ =
            std::min(next_retire_check_, inburst_reads_.front().done);
    }
    if (!inburst_writes_.empty()) {
        next_retire_check_ =
            std::min(next_retire_check_, inburst_writes_.front().done);
    }
    if (scrubber_ != nullptr && scrubber_->in_flight()) {
        next_retire_check_ =
            std::min(next_retire_check_, scrubber_->completion());
    }
}

bool
Controller::HandleRefresh(DramCycle now)
{
    if (channel_.timing().tREFI == 0) {
        return false;
    }
    for (std::uint32_t r = 0; r < channel_.num_ranks(); ++r) {
        dram::Rank& rank = channel_.rank(r);
        if (!rank.RefreshDue(now)) {
            continue;
        }
        if (rank.CanRefresh(now)) {
            dram::Command refresh{dram::CommandType::kRefresh, r, 0, 0};
            channel_.Issue(refresh, now);
            RecordCommand(dram::CommandType::kRefresh, now, kInvalidThread,
                          obs::kNoFlatBank, 0);
            return true;
        }
        // Quiesce: precharge one open bank that is ready for it.
        for (std::uint32_t b : rank.OpenBanks()) {
            dram::Command precharge{dram::CommandType::kPrecharge, r, b, 0};
            if (channel_.CanIssue(precharge, now)) {
                channel_.Issue(precharge, now);
                RecordCommand(dram::CommandType::kPrecharge, now,
                              kInvalidThread,
                              r * channel_.rank(0).num_banks() + b, 0);
                return true;
            }
        }
        // Nothing issuable yet (e.g. tRAS pending); the candidate filter
        // below keeps new traffic away from this rank so it drains.
    }
    return false;
}

Controller::BankReadiness
Controller::ProbeBank(const dram::Bank& state, std::uint32_t rank,
                      std::uint32_t bank_in_rank,
                      dram::CommandType column) const
{
    // Timing legality does not depend on the row, so probe with row 0.
    BankReadiness ready;
    if (!state.IsOpen()) {
        // Every request's next command is kActivate.
        ready.activate = channel_.EarliestIssue(
            {dram::CommandType::kActivate, rank, bank_in_rank, 0});
        return ready;
    }
    // A row is open: requests are row hits (the column command; queues
    // are homogeneous, so its type is fixed) or conflicts (kPrecharge).
    ready.column = channel_.EarliestIssue({column, rank, bank_in_rank, 0});
    ready.precharge = channel_.EarliestIssue(
        {dram::CommandType::kPrecharge, rank, bank_in_rank, 0});
    return ready;
}

MemRequest*
Controller::SelectRequest(const RequestQueue& queue, DramCycle now,
                          DramCycle& bound)
{
    if (queue.Empty()) {
        return nullptr;
    }
    const bool refresh_active = channel_.timing().tREFI != 0;
    const bool is_write_queue = &queue == &write_queue_;
    const dram::CommandType column = is_write_queue
                                         ? dram::CommandType::kWrite
                                         : dram::CommandType::kRead;
    const std::uint32_t banks_per_rank = channel_.rank(0).num_banks();
    // A skip-ahead bound at or before now + 1 scans the next cycle either
    // way, so the bound is clamped there and stops costing work.
    const DramCycle floor = now + 1;

    finalists_.clear();
    // Ascending flat-bank order over the occupied banks only: the order
    // the finalists have always had, so Pick() sees the same list.
    queue.ForEachQueuedBank([&](std::uint32_t bank) {
        const std::uint32_t rank = bank / banks_per_rank;
        // A rank with an overdue refresh accepts no new commands until the
        // refresh has been performed (starvation-free refresh guarantee);
        // issuing the refresh resets the skip-ahead bound, so the bank
        // contributes nothing to it either.
        if (refresh_active && channel_.rank(rank).RefreshDue(now)) {
            return;
        }
        // One probe gives both the ready mask and, should nothing issue,
        // the bank's part of the skip-ahead bound.
        const std::uint32_t bank_in_rank = bank % banks_per_rank;
        const dram::Bank& state = channel_.bank(rank, bank_in_rank);
        const BankReadiness ready =
            ProbeBank(state, rank, bank_in_rank, column);
        // Skipping a bank with nothing ready cannot change the outcome:
        // the bank winner's next command is one of the probed types, so it
        // would fail the finalist check below (and Pick() is side-effect-
        // free for every deterministic scheduler).  A bank under a
        // retry-backoff hold issues nothing until it expires (the hold
        // only delays, so the skip-ahead bound — which ignores holds —
        // stays a conservative lower bound).
        const bool held = ras_ != nullptr && ras_->BankHoldUntil(bank) > now;
        if (ready.Earliest() <= now && !held) {
            if (MemRequest* winner =
                    scheduler_->PickInBank(queue, bank, now)) {
                Candidate candidate;
                candidate.request = winner;
                candidate.next_command = state.NextCommandFor(
                    winner->coords.row, winner->is_write);
                candidate.row_hit = state.open_row() == winner->coords.row;
                candidate.row_open_since = state.open_since();
                if (ready.For(candidate.next_command) <= now) {
                    finalists_.push_back(candidate);
                    // A ready request: the exact bound is at most now.
                    bound = floor;
                    return;
                }
            }
        }
        // The bank's exact contribution, classified only if it can still
        // lower the bound.
        if (std::max(ready.Earliest(), floor) < bound) {
            bound = std::max(
                std::min(bound, ready.Needed(queue.BankQueued(bank),
                                             state.open_row())),
                floor);
        }
    });
    if (finalists_.empty()) {
        return nullptr;
    }
    return scheduler_->Pick(finalists_, now);
}

void
Controller::IssueFor(MemRequest& request, DramCycle now)
{
    const dram::Bank& bank =
        channel_.bank(request.coords.rank, request.coords.bank);
    const dram::CommandType type =
        bank.NextCommandFor(request.coords.row, request.is_write);
    dram::Command command{type, request.coords.rank, request.coords.bank,
                          request.coords.row};
    const DramCycle done = channel_.Issue(command, now);
    RecordCommand(type, now, request.thread, FlatBank(request),
                  request.coords.row);

    if (request.first_command_cycle == kNeverCycle) {
        request.first_command_cycle = now;
        if (tracer_ != nullptr) {
            tracer_->Emit({now, obs::EventKind::kRequestFirstIssue,
                           channel_id_, request.thread, FlatBank(request),
                           request.id, static_cast<std::uint64_t>(type)});
        }
        // The first command tells us what the row-buffer looked like when
        // service began: column command => hit, ACTIVATE => closed,
        // PRECHARGE => conflict.  An ECC retry keeps its first-attempt
        // class — the stats describe demand service, not recovery.
        if (!request.service_class_valid) {
            switch (type) {
              case dram::CommandType::kRead:
              case dram::CommandType::kWrite:
                request.service_class = dram::RowBufferState::kHit;
                break;
              case dram::CommandType::kActivate:
                request.service_class = dram::RowBufferState::kClosed;
                break;
              case dram::CommandType::kPrecharge:
                request.service_class = dram::RowBufferState::kConflict;
                break;
              case dram::CommandType::kRefresh:
                PARBS_ASSERT(false, "refresh issued for a request");
                break;
            }
            request.service_class_valid = true;
        }
        if (!request.is_write) {
            EnterService(request);
        }
    }

    if (type == dram::CommandType::kRead ||
        type == dram::CommandType::kWrite) {
        // Leaving kQueued: drop the request from its bank's chain so the
        // indexed gather never visits in-burst requests.
        (request.is_write ? write_queue_ : read_queue_)
            .BeginService(request);
        request.state = RequestState::kInBurst;
        request.burst_issue_cycle = now;
        request.completion_cycle = done;
        if (request.first_attempt_completion == kNeverCycle) {
            request.first_attempt_completion = done;
        }
        // ECC verdict, drawn when the read burst issues: a deterministic
        // function of (seed, channel, rank, bank, row, access index), so
        // the outcome is independent of scheduler and worker count.
        bool ecc_fail = false;
        if (ras_ != nullptr && type == dram::CommandType::kRead) {
            const dram::EccOutcome outcome = ras_->ClassifyRead(
                request.coords.rank, request.coords.bank,
                request.coords.row);
            if (outcome == dram::EccOutcome::kCorrectable) {
                ras_->stats().corrected += 1;
                if (tracer_ != nullptr) {
                    tracer_->Emit({now, obs::EventKind::kEccCorrected,
                                   channel_id_, request.thread,
                                   FlatBank(request), request.id,
                                   request.coords.row});
                }
            } else if (outcome == dram::EccOutcome::kUncorrectable) {
                ecc_fail = true;
            }
        }
        if (tracer_ != nullptr) {
            tracer_->Emit({now, obs::EventKind::kRequestBurst, channel_id_,
                           request.thread, FlatBank(request), request.id,
                           done});
        }
        auto& fifo = request.is_write ? inburst_writes_ : inburst_reads_;
        PARBS_ASSERT(fifo.empty() || fifo.back().done <= done,
                     "in-burst completions must be pushed in order");
        fifo.push_back({done, &request, request.thread, ecc_fail});
        next_retire_check_ = std::min(next_retire_check_, done);
    }

    scheduler_->OnCommandIssued(request, command, now);
}

void
Controller::RetryFailedRead(RequestPtr request, DramCycle now)
{
    LeaveService(*request);
    const std::uint32_t flat = FlatBank(*request);
    ras_->stats().uncorrectable += 1;
    if (tracer_ != nullptr) {
        tracer_->Emit({now, obs::EventKind::kEccUncorrectable, channel_id_,
                       request->thread, flat, request->id,
                       request->retries});
    }
    request->retries += 1;
    if (request->retries > config_.ras.retry_budget) {
        // Budget exhausted: give up on the physical row (post-package-
        // repair style) so the final retry reads the remapped, clean row.
        // Throws MachineCheckError when the remap table is full.
        RetireRow(request->thread, request->coords.rank,
                  request->coords.bank, request->coords.row, now);
        request->retries = 0;
    }
    ras_->stats().retries += 1;
    request->state = RequestState::kQueued;
    request->first_command_cycle = kNeverCycle;
    request->burst_issue_cycle = kNeverCycle;
    request->completion_cycle = kNeverCycle;
    MemRequest& ref = read_queue_.Add(std::move(request));
    ras_->HoldBank(flat, now + config_.ras.retry_backoff);
    if (tracer_ != nullptr) {
        tracer_->Emit({now, obs::EventKind::kEccRetry, channel_id_,
                       ref.thread, flat, ref.id, ref.retries});
    }
    // The requeued candidate (and later the hold expiry) may be ready
    // before any cached bound predicted.
    next_select_cycle_ = 0;
}

void
Controller::RetireRow(ThreadId thread, std::uint32_t rank,
                      std::uint32_t bank, std::uint32_t row, DramCycle now)
{
    if (ras_->IsRetired(rank, bank, row)) {
        return;
    }
    const std::uint32_t flat = rank * channel_.rank(0).num_banks() + bank;
    if (!ras_->TryRetireRow(rank, bank, row)) {
        ras_->stats().machine_checks += 1;
        if (tracer_ != nullptr) {
            tracer_->Emit({now, obs::EventKind::kMachineCheck, channel_id_,
                           thread, flat, row, ras_->remap_capacity()});
        }
        std::ostringstream message;
        message << "machine check: uncorrectable DRAM error at channel "
                << static_cast<unsigned>(channel_id_) << " rank " << rank
                << " bank " << bank << " row " << row
                << " with the remap table full (" << ras_->remap_used()
                << "/" << ras_->remap_capacity()
                << " rows retired) at cycle " << now;
        throw MachineCheckError(message.str());
    }
    ras_->stats().rows_retired += 1;
    if (tracer_ != nullptr) {
        tracer_->Emit({now, obs::EventKind::kRowRetired, channel_id_,
                       thread, flat, row, ras_->remap_used()});
    }
}

bool
Controller::TryScrub(DramCycle now, DramCycle& bound)
{
    Scrubber& scrub = *scrubber_;
    if (scrub.in_flight()) {
        return false;
    }
    if (now < scrub.next_due()) {
        // The clock moves only when a scrub read retires.
        bound = std::min(bound, scrub.next_due());
        return false;
    }
    // Forced demotion under queue pressure: scrub stands down while the
    // write drain runs or demand reads pile up (DESIGN.md §6).
    if (write_drain_active_ ||
        read_queue_.size() >= scrub.demote_reads()) {
        return false;
    }
    // Once every row is retired there is nothing left to scrub, ever: the
    // retired set only grows.  Otherwise the walk below finds a row.
    if (ras_->remap_used() >= scrub.rows()) {
        return false;
    }
    // Skip remapped rows — their physical row no longer holds data.
    while (ras_->IsRetired(scrub.rank(), scrub.bank(), scrub.row())) {
        scrub.AdvanceCursor();
    }
    const std::uint32_t rank = scrub.rank();
    const std::uint32_t bank_in_rank = scrub.bank();
    // Like demand selection, never step in front of an overdue refresh
    // (issuing it resets the bound).
    if (channel_.rank(rank).RefreshDue(now)) {
        return false;
    }
    const dram::Bank& bank = channel_.bank(rank, bank_in_rank);
    const dram::CommandType type =
        bank.NextCommandFor(scrub.row(), /*is_write=*/false);
    dram::Command command{type, rank, bank_in_rank, scrub.row()};
    const DramCycle earliest = channel_.EarliestIssue(command);
    if (now < earliest) {
        bound = std::min(bound, earliest);
        return false;
    }
    const DramCycle done = channel_.Issue(command, now);
    const std::uint32_t flat =
        rank * channel_.rank(0).num_banks() + bank_in_rank;
    RecordCommand(type, now, kInvalidThread, flat, scrub.row());
    if (type == dram::CommandType::kRead) {
        const dram::EccOutcome outcome =
            ras_->ClassifyScrub(rank, bank_in_rank, scrub.row());
        ras_->stats().scrub_reads += 1;
        scrub.BeginRead(done, outcome);
        if (tracer_ != nullptr) {
            tracer_->Emit({now, obs::EventKind::kScrubIssue, channel_id_,
                           kInvalidThread, flat, scrub.row(), done});
        }
        next_retire_check_ = std::min(next_retire_check_, done);
    }
    return true;
}

void
Controller::FinishScrub(DramCycle now)
{
    Scrubber& scrub = *scrubber_;
    const std::uint32_t flat =
        scrub.rank() * channel_.rank(0).num_banks() + scrub.bank();
    if (tracer_ != nullptr) {
        tracer_->Emit({now, obs::EventKind::kScrubComplete, channel_id_,
                       kInvalidThread, flat, scrub.row(),
                       static_cast<std::uint64_t>(scrub.outcome())});
    }
    switch (scrub.outcome()) {
      case dram::EccOutcome::kClean:
        break;
      case dram::EccOutcome::kCorrectable:
        ras_->stats().scrub_corrected += 1;
        break;
      case dram::EccOutcome::kUncorrectable:
        ras_->stats().scrub_uncorrectable += 1;
        // Proactive retirement: the patrol found the bad row before
        // demand traffic did (may throw MachineCheckError at capacity).
        RetireRow(kInvalidThread, scrub.rank(), scrub.bank(), scrub.row(),
                  now);
        break;
    }
    scrub.FinishRead(now);
}

const ControllerThreadStats&
Controller::thread_stats(ThreadId thread) const
{
    PARBS_ASSERT(thread < stats_.size(), "thread id out of range");
    return stats_[thread];
}

std::uint64_t
Controller::commands_issued(dram::CommandType type) const
{
    return commands_by_type_[static_cast<int>(type)];
}

std::uint64_t
Controller::total_commands_issued() const
{
    std::uint64_t total = 0;
    for (std::uint64_t count : commands_by_type_) {
        total += count;
    }
    return total;
}

void
Controller::EnableProtocolCheck(const dram::TimingParams& reference)
{
    channel_.EnableProtocolCheck(&reference);
}

std::string
Controller::Diagnostics(DramCycle now) const
{
    return FormatControllerDiagnostics(now, read_queue_, write_queue_,
                                       *scheduler_, channel_, ras_.get());
}

void
Controller::RecordCommand(dram::CommandType type, DramCycle now,
                          ThreadId thread, std::uint32_t flat_bank,
                          std::uint32_t row)
{
    commands_by_type_[static_cast<int>(type)] += 1;
    last_command_cycle_ = now;
    // Every issue moves bank / rank / bus timers (and may close or open a
    // row), so any cached readiness bound is stale.
    next_select_cycle_ = 0;
    if (tracer_ != nullptr) {
        FlushSkipSpan();
        tracer_->Emit({now, obs::EventKind::kCommand, channel_id_, thread,
                       flat_bank, static_cast<std::uint64_t>(type), row});
    }
}

std::uint32_t
Controller::FlatBank(const MemRequest& request) const
{
    return request.coords.rank * channel_.rank(0).num_banks() +
           request.coords.bank;
}

void
Controller::EnterService(const MemRequest& request)
{
    const std::size_t index =
        static_cast<std::size_t>(request.thread) * read_queue_.num_banks() +
        FlatBank(request);
    if (in_service_[index]++ == 0) {
        if (busy_banks_[request.thread]++ == 0) {
            busy_threads_[request.thread / 64] |=
                std::uint64_t{1} << (request.thread % 64);
        }
    }
}

void
Controller::LeaveService(const MemRequest& request)
{
    const std::size_t index =
        static_cast<std::size_t>(request.thread) * read_queue_.num_banks() +
        FlatBank(request);
    PARBS_ASSERT(in_service_[index] > 0, "in-service underflow");
    if (--in_service_[index] == 0) {
        PARBS_ASSERT(busy_banks_[request.thread] > 0,
                     "busy-bank underflow");
        if (--busy_banks_[request.thread] == 0) {
            busy_threads_[request.thread / 64] &=
                ~(std::uint64_t{1} << (request.thread % 64));
        }
    }
}

void
Controller::SampleBlp()
{
    // Only threads with a read in service accrue BLP, so the walk visits
    // exactly the busy-thread bits.
    for (std::size_t word = 0; word < busy_threads_.size(); ++word) {
        for (std::uint64_t pending = busy_threads_[word]; pending != 0;
             pending &= pending - 1) {
            const std::size_t thread = word * 64 + std::countr_zero(pending);
            stats_[thread].blp_sum += busy_banks_[thread];
            stats_[thread].blp_cycles += 1;
        }
    }
}

} // namespace parbs
