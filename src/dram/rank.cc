#include "dram/rank.hh"

#include <algorithm>

#include "common/assert.hh"

namespace parbs::dram {

Rank::Rank(const TimingParams& timing, std::uint32_t num_banks)
    : timing_(timing), next_refresh_due_(timing.tREFI == 0 ? kNeverCycle
                                                           : timing.tREFI)
{
    PARBS_ASSERT(num_banks > 0, "a rank needs at least one bank");
    banks_.reserve(num_banks);
    for (std::uint32_t i = 0; i < num_banks; ++i) {
        banks_.emplace_back(timing);
    }
    activate_history_.fill(kNeverCycle);
}

void
Rank::Issue(const Command& cmd, DramCycle now)
{
    PARBS_ASSERT(CanIssue(cmd, now), "rank-level timing violation on issue");
    switch (cmd.type) {
      case CommandType::kActivate:
        next_activate_ = std::max(next_activate_, now + timing_.tRRD);
        activate_history_[activate_history_head_] = now;
        activate_history_head_ =
            (activate_history_head_ + 1) % activate_history_.size();
        break;

      case CommandType::kWrite:
        // tWTR: a READ anywhere in the rank must wait until tWTR after the
        // write burst leaves the bus.
        next_read_ = std::max(
            next_read_, now + timing_.tCWD + timing_.tBURST + timing_.tWTR);
        break;

      case CommandType::kRefresh: {
        for (auto& b : banks_) {
            b.BlockUntil(now + timing_.tRFC);
        }
        next_activate_ = std::max(next_activate_, now + timing_.tRFC);
        next_refresh_due_ += timing_.tREFI;
        // If we fell far behind (should not happen in practice), do not
        // schedule refreshes in the past forever.
        if (next_refresh_due_ <= now) {
            next_refresh_due_ = now + timing_.tREFI;
        }
        return; // No bank-level Issue for refresh.
      }

      case CommandType::kRead:
      case CommandType::kPrecharge:
        break;
    }
    banks_[cmd.bank].Issue(cmd, now);
}

bool
Rank::CanRefresh(DramCycle now) const
{
    if (!RefreshDue(now)) {
        return false;
    }
    for (const auto& b : banks_) {
        if (b.IsOpen() || !b.CanIssue(CommandType::kActivate, now)) {
            return false;
        }
    }
    return true;
}

std::vector<std::uint32_t>
Rank::OpenBanks() const
{
    std::vector<std::uint32_t> open;
    for (std::uint32_t i = 0; i < banks_.size(); ++i) {
        if (banks_[i].IsOpen()) {
            open.push_back(i);
        }
    }
    return open;
}

} // namespace parbs::dram
