#include "oracle/scan_checked.hh"

#include <ostream>
#include <sstream>

#include "common/assert.hh"
#include "dram/channel.hh"
#include "sched/factory.hh"
#include "sim/config.hh"
#include "sim/system.hh"

namespace parbs::oracle {

ScanChecked::ScanChecked(std::unique_ptr<Scheduler> inner,
                         const ControllerConfig& config)
    : ForwardingScheduler(std::move(inner)), config_(config)
{
}

void
ScanChecked::Attach(const SchedulerContext& context)
{
    PARBS_ASSERT(context.write_queue != nullptr &&
                     context.channel != nullptr && context.timing != nullptr,
                 "scan oracle needs both queues, the channel and timing");
    ForwardingScheduler::Attach(context);
    per_bank_.assign(context.NumBanks(), {});
}

void
ScanChecked::OnDramCycle(DramCycle now)
{
    ForwardingScheduler::OnDramCycle(now);
    if (!DeterministicPick()) {
        return;
    }
    if (config_.ras.enabled && bound_ == nullptr) {
        throw std::logic_error(
            "scan oracle: RAS is on but the oracle is not bound to its "
            "controller (bank holds unknown)");
    }
    if (expected_ != nullptr) {
        Fail("never issued request " + std::to_string(expected_->id) +
                 ", the exhaustive scan's pick",
             expected_cycle_);
    }
    cycles_checked_ += 1;

    // Write-drain hysteresis, sampled every cycle like the per-cycle
    // controller's RetireFinished does (refresh cycles included).
    const std::size_t writes = context_.write_queue->size();
    if (writes >= config_.write_drain_high) {
        drain_ = true;
    } else if (writes <= config_.write_drain_low) {
        drain_ = false;
    }

    expected_cycle_ = now;
    if (RefreshTakesCycle(now)) {
        return;
    }
    MemRequest* chosen = nullptr;
    if (drain_) {
        chosen = Scan(*context_.write_queue, now);
    }
    if (chosen == nullptr) {
        chosen = Scan(*context_.read_queue, now);
    }
    if (chosen == nullptr && !drain_) {
        chosen = Scan(*context_.write_queue, now);
    }
    expected_ = chosen;
    if (chosen != nullptr) {
        picks_checked_ += 1;
    }
}

void
ScanChecked::OnCommandIssued(const MemRequest& request,
                             const dram::Command& command, DramCycle now)
{
    if (DeterministicPick()) {
        if (now != expected_cycle_ || &request != expected_) {
            Fail("issued request " + std::to_string(request.id) +
                     " but the exhaustive scan picks " +
                     (expected_ == nullptr
                          ? std::string("nothing")
                          : "request " + std::to_string(expected_->id)),
                 now);
        }
        expected_ = nullptr;
    }
    ForwardingScheduler::OnCommandIssued(request, command, now);
}

bool
ScanChecked::RefreshTakesCycle(DramCycle now) const
{
    if (context_.timing->tREFI == 0) {
        return false;
    }
    const dram::Channel& channel = *context_.channel;
    for (std::uint32_t r = 0; r < channel.num_ranks(); ++r) {
        const dram::Rank& rank = channel.rank(r);
        if (!rank.RefreshDue(now)) {
            continue;
        }
        if (rank.CanRefresh(now)) {
            return true;
        }
        for (std::uint32_t b : rank.OpenBanks()) {
            if (channel.CanIssue({dram::CommandType::kPrecharge, r, b, 0},
                                 now)) {
                return true;
            }
        }
    }
    return false;
}

MemRequest*
ScanChecked::Scan(const RequestQueue& queue, DramCycle now)
{
    if (queue.Empty()) {
        return nullptr;
    }
    const dram::Channel& channel = *context_.channel;
    const bool refresh_active = context_.timing->tREFI != 0;
    const RasEngine* ras = bound_ != nullptr ? bound_->ras() : nullptr;

    // Level 1: group the queued requests by bank, in buffer order.
    for (auto& bank_candidates : per_bank_) {
        bank_candidates.clear();
    }
    for (MemRequest* request : queue.requests()) {
        if (request->state != RequestState::kQueued) {
            continue;
        }
        // A rank with an overdue refresh accepts no new commands until the
        // refresh has been performed.
        if (refresh_active &&
            channel.rank(request->coords.rank).RefreshDue(now)) {
            continue;
        }
        const std::uint32_t flat =
            request->coords.rank * context_.banks_per_rank +
            request->coords.bank;
        if (ras != nullptr && ras->BankHoldUntil(flat) > now) {
            continue;
        }
        const dram::Bank& bank =
            channel.bank(request->coords.rank, request->coords.bank);
        Candidate candidate;
        candidate.request = request;
        candidate.next_command =
            bank.NextCommandFor(request->coords.row, request->is_write);
        candidate.row_hit = bank.open_row() == request->coords.row;
        candidate.row_open_since = bank.open_since();
        per_bank_[flat].push_back(candidate);
    }

    // Level 2: each bank's winner is a finalist if its next command passes
    // every timing check now; Pick() chooses among the finalists.
    finalists_.clear();
    for (const auto& bank_candidates : per_bank_) {
        if (bank_candidates.empty()) {
            continue;
        }
        MemRequest* winner = Inner().Pick(bank_candidates, now);
        if (winner == nullptr) {
            continue;
        }
        const Candidate* candidate = nullptr;
        for (const Candidate& c : bank_candidates) {
            if (c.request == winner) {
                candidate = &c;
                break;
            }
        }
        PARBS_ASSERT(candidate != nullptr,
                     "scheduler picked a request outside the bank pool");
        if (channel.CanIssue({candidate->next_command, winner->coords.rank,
                              winner->coords.bank, winner->coords.row},
                             now)) {
            finalists_.push_back(*candidate);
        }
    }
    if (finalists_.empty()) {
        return nullptr;
    }
    return Inner().Pick(finalists_, now);
}

void
ScanChecked::Fail(const std::string& what, DramCycle now) const
{
    std::ostringstream message;
    message << "scan oracle: " << name() << " at DRAM cycle " << now
            << ": the controller " << what;
    throw SelectionMismatch(message.str());
}

void
InstallScanOracle(SystemConfig& config)
{
    config.scheduler_factory = [scheduler = config.scheduler,
                                controller = config.controller] {
        return std::make_unique<ScanChecked>(MakeScheduler(scheduler),
                                             controller);
    };
}

ScanSchedule&
ScanSchedule::operator+=(const Controller& controller)
{
    const Controller::FastPathStats& fast = controller.fast_path_stats();
    const Scheduler::PickMemoCounters memo =
        controller.scheduler().MemoCounters();
    scans += fast.select_scans;
    skips += fast.select_skips;
    memo_hits += memo.hits;
    memo_misses += memo.misses;
    memo_invalidations += memo.invalidations;
    return *this;
}

std::ostream&
operator<<(std::ostream& out, const ScanSchedule& schedule)
{
    return out << "{" << schedule.scans << ", " << schedule.skips << ", "
               << schedule.memo_hits << ", " << schedule.memo_misses << ", "
               << schedule.memo_invalidations << "}";
}

std::vector<ScanChecked*>
BindScanOracles(System& system)
{
    std::vector<ScanChecked*> oracles;
    for (std::uint32_t c = 0; c < system.num_controllers(); ++c) {
        Controller& controller = system.controller(c);
        auto* oracle = dynamic_cast<ScanChecked*>(&controller.scheduler());
        PARBS_ASSERT(oracle != nullptr,
                     "System was not built with InstallScanOracle");
        oracle->Bind(controller);
        oracles.push_back(oracle);
    }
    return oracles;
}

} // namespace parbs::oracle
