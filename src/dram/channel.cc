#include "dram/channel.hh"

#include <algorithm>

#include "common/assert.hh"

namespace parbs::dram {

Channel::Channel(const TimingParams& timing, const Geometry& geometry)
    : timing_(timing), geometry_(geometry)
{
    timing_.Validate();
    geometry_.Validate();
    ranks_.reserve(geometry_.ranks_per_channel);
    for (std::uint32_t i = 0; i < geometry_.ranks_per_channel; ++i) {
        ranks_.emplace_back(timing_, geometry_.banks_per_rank);
    }
}

std::uint32_t
Channel::num_ranks() const
{
    return static_cast<std::uint32_t>(ranks_.size());
}

void
Channel::EnableProtocolCheck(const TimingParams* reference)
{
    checker_ = std::make_unique<ProtocolChecker>(
        reference != nullptr ? *reference : timing_,
        geometry_.ranks_per_channel, geometry_.banks_per_rank);
}

DramCycle
Channel::Issue(const Command& cmd, DramCycle now)
{
    // The checker observes first so that a violation is reported with full
    // context before the issuing FSMs' own assertions can abort.
    if (checker_) {
        checker_->Observe(cmd, now);
    }
    PARBS_ASSERT(CanIssue(cmd, now), "channel-level timing violation");
    ranks_[cmd.rank].Issue(cmd, now);
    if (cmd.type == CommandType::kRead || cmd.type == CommandType::kWrite) {
        const DramCycle latency = (cmd.type == CommandType::kRead)
                                      ? timing_.tCL
                                      : timing_.tCWD;
        const DramCycle done = now + latency + timing_.tBURST;
        bus_free_at_ = std::max(bus_free_at_, done);
        bus_busy_cycles_ += timing_.tBURST;
        return done;
    }
    return 0;
}

} // namespace parbs::dram
