#include "sched/parbs_sched.hh"

#include <algorithm>
#include <numeric>

#include "common/assert.hh"

namespace parbs {

const char*
RankingPolicyName(RankingPolicy policy)
{
    switch (policy) {
      case RankingPolicy::kMaxTotal:
        return "max-total";
      case RankingPolicy::kTotalMax:
        return "total-max";
      case RankingPolicy::kRandom:
        return "random";
      case RankingPolicy::kRoundRobin:
        return "round-robin";
      case RankingPolicy::kNoRankFrFcfs:
        return "no-rank-frfcfs";
      case RankingPolicy::kNoRankFcfs:
        return "no-rank-fcfs";
    }
    return "?";
}

ParBsScheduler::ParBsScheduler(const ParBsConfig& config)
    : config_(config), rng_(config.seed)
{
}

std::string
ParBsScheduler::name() const
{
    if (config_.ranking == RankingPolicy::kMaxTotal &&
        config_.marking_cap == 5) {
        return "PAR-BS";
    }
    std::string out = "PAR-BS(";
    out += RankingPolicyName(config_.ranking);
    out += ",cap=";
    out += config_.marking_cap == 0 ? "none"
                                    : std::to_string(config_.marking_cap);
    out += ")";
    return out;
}

void
ParBsScheduler::Attach(const SchedulerContext& context)
{
    ComparatorScheduler::Attach(context);
    rank_of_.assign(context.num_threads, context.num_threads);
    markable_now_.assign(context.num_threads, 0);
    marked_in_batch_.assign(
        static_cast<std::size_t>(context.num_threads) * context.NumBanks(),
        0);
}

void
ParBsScheduler::OnDramCycle(DramCycle now)
{
    // Rule 1: a new batch forms when no marked requests remain.
    if (marked_outstanding_ == 0) {
        FormBatch(now);
    }
}

void
ParBsScheduler::OnRequestComplete(const MemRequest& request, DramCycle)
{
    if (request.marked) {
        PARBS_ASSERT(marked_outstanding_ > 0,
                     "marked request completed with zero outstanding");
        marked_outstanding_ -= 1;
    }
}

std::vector<std::pair<std::string, double>>
ParBsScheduler::Stats() const
{
    return {
        {"batches_formed",
         static_cast<double>(batch_stats_.batches_formed)},
        {"avg_batch_size", batch_stats_.AverageBatchSize()},
        {"avg_batch_duration", batch_stats_.AverageBatchDuration()},
        {"marked_outstanding", static_cast<double>(marked_outstanding_)},
        {"marking_cap", static_cast<double>(config_.marking_cap)},
    };
}

std::uint32_t
ParBsScheduler::ThreadRank(ThreadId thread) const
{
    PARBS_ASSERT(thread < rank_of_.size(), "thread id out of range");
    return rank_of_[thread];
}

bool
ParBsScheduler::Better(const Candidate& a, const Candidate& b,
                       DramCycle) const
{
    const MemRequest& ra = *a.request;
    const MemRequest& rb = *b.request;

    // 1. BS — marked requests first.
    if (ra.marked != rb.marked) {
        return ra.marked;
    }

    // 1.5 PRIORITY — higher-priority threads first (Section 5).  The
    // opportunistic level sorts after every numbered level.
    auto priority_key = [this](ThreadId thread) -> std::uint64_t {
        const ThreadPriority p = priorities_[thread];
        return p == kOpportunisticPriority
                   ? std::numeric_limits<std::uint64_t>::max()
                   : p;
    };
    const std::uint64_t pa = priority_key(ra.thread);
    const std::uint64_t pb = priority_key(rb.thread);
    if (pa != pb) {
        return pa < pb;
    }

    // 2. RH — row-hit first (skipped by the FCFS-within-batch variant).
    if (config_.ranking != RankingPolicy::kNoRankFcfs &&
        a.row_hit != b.row_hit) {
        return a.row_hit;
    }

    // 3. RANK — higher-ranked threads first (skipped by no-rank variants).
    if (config_.ranking != RankingPolicy::kNoRankFcfs &&
        config_.ranking != RankingPolicy::kNoRankFrFcfs &&
        rank_of_[ra.thread] != rank_of_[rb.thread]) {
        return rank_of_[ra.thread] < rank_of_[rb.thread];
    }

    // 4. FCFS — oldest first.
    return ra.id < rb.id;
}

bool
ParBsScheduler::ThreadMarkable(ThreadId thread) const
{
    const ThreadPriority priority = priorities_[thread];
    if (priority == kOpportunisticPriority) {
        return false; // Level "L": never marked.
    }
    // A thread at priority X is marked every Xth batch.
    return batch_stats_.batches_formed % priority == 0;
}

std::uint64_t
ParBsScheduler::FormBatch(DramCycle now)
{
    // Close out the previous batch's duration accounting.
    if (batch_open_) {
        batch_stats_.duration_sum += now - batch_start_cycle_;
        batch_stats_.batches_completed += 1;
        batch_open_ = false;
        if (observer_ != nullptr) {
            observer_->OnBatchComplete(now, batch_stats_.batches_formed,
                                       now - batch_start_cycle_);
        }
    }

    // The pass below starts from a cleared table, so it marks something
    // iff some queued, unmarked read belongs to a markable thread.  When
    // none does, return before clearing anything: with no batch open,
    // nothing reads the table or markable_now_ before the next formed
    // batch refills them.
    const auto& requests = context_.read_queue->requests();
    if (std::none_of(requests.begin(), requests.end(),
                     [this](const MemRequest* request) {
                         return request->state == RequestState::kQueued &&
                                !request->marked &&
                                ThreadMarkable(request->thread);
                     })) {
        return 0;
    }

    std::fill(marked_in_batch_.begin(), marked_in_batch_.end(), 0);
    for (ThreadId thread = 0; thread < context_.num_threads; ++thread) {
        markable_now_[thread] = ThreadMarkable(thread) ? 1 : 0;
    }

    std::uint64_t marked = 0;
    for (MemRequest* request : requests) {
        if (request->state != RequestState::kQueued || request->marked) {
            continue;
        }
        if (!markable_now_[request->thread]) {
            continue;
        }
        std::uint32_t& used = MarkedInBatch(request->thread,
                                            FlatBank(*request));
        if (config_.marking_cap != 0 && used >= config_.marking_cap) {
            if (observer_ != nullptr) {
                observer_->OnMarkingCapHit(now, request->thread,
                                           FlatBank(*request), request->id);
            }
            continue;
        }
        // The queue is arrival-ordered, so this marks the oldest requests.
        request->marked = true;
        used += 1;
        marked += 1;
    }

    PARBS_ASSERT(marked > 0, "a batch with an eligible read marked none");
    marked_outstanding_ = marked;
    batch_stats_.batches_formed += 1;
    batch_stats_.marked_total += marked;
    batch_start_cycle_ = now;
    batch_open_ = true;

    ComputeRanking();
    if (observer_ != nullptr) {
        observer_->OnBatchFormed(now, batch_stats_.batches_formed, marked);
        for (ThreadId thread = 0; thread < context_.num_threads; ++thread) {
            observer_->OnThreadRanked(now, thread, rank_of_[thread]);
        }
    }
    // Marked bits and ranks changed under the memoized picks' feet.
    InvalidateBankPicks();
    return marked;
}

void
ParBsScheduler::ComputeRanking()
{
    const std::uint32_t num_threads = context_.num_threads;

    struct Load {
        ThreadId thread;
        std::uint32_t max_bank_load = 0;
        std::uint32_t total_load = 0;
        std::uint64_t tiebreak = 0;
    };
    // One tiebreak per thread, in thread order, whatever the batch holds:
    // the RNG stream depends only on the number of batches formed.
    std::vector<Load> loads(num_threads);
    for (ThreadId thread = 0; thread < num_threads; ++thread) {
        loads[thread].thread = thread;
        loads[thread].tiebreak = rng_.Next64();
    }

    if (config_.ranking == RankingPolicy::kRoundRobin) {
        // Rotate the rank order by one position each batch.
        const std::uint64_t shift = batch_stats_.batches_formed;
        for (ThreadId thread = 0; thread < num_threads; ++thread) {
            rank_of_[thread] = static_cast<std::uint32_t>(
                (thread + shift) % num_threads);
        }
        return;
    }

    // Every marked request is in the read queue, and marked_in_batch_
    // counts each (thread, bank)'s marked requests, so one pass over the
    // queue yields every thread's total and max-bank load.
    for (MemRequest* request : context_.read_queue->requests()) {
        if (!request->marked) {
            continue;
        }
        Load& load = loads[request->thread];
        load.total_load += 1;
        load.max_bank_load =
            std::max(load.max_bank_load,
                     MarkedInBatch(request->thread, FlatBank(*request)));
    }

    auto key_less = [this](const Load& a, const Load& b) {
        switch (config_.ranking) {
          case RankingPolicy::kMaxTotal:
            if (a.max_bank_load != b.max_bank_load) {
                return a.max_bank_load < b.max_bank_load;
            }
            if (a.total_load != b.total_load) {
                return a.total_load < b.total_load;
            }
            break;
          case RankingPolicy::kTotalMax:
            if (a.total_load != b.total_load) {
                return a.total_load < b.total_load;
            }
            if (a.max_bank_load != b.max_bank_load) {
                return a.max_bank_load < b.max_bank_load;
            }
            break;
          case RankingPolicy::kRandom:
          case RankingPolicy::kRoundRobin:
          case RankingPolicy::kNoRankFrFcfs:
          case RankingPolicy::kNoRankFcfs:
            break;
        }
        return a.tiebreak < b.tiebreak;
    };

    // Only threads with marked requests are ranked; the rest always get
    // the worst rank.
    const auto ranked_end =
        std::partition(loads.begin(), loads.end(),
                       [](const Load& load) { return load.total_load > 0; });
    std::sort(loads.begin(), ranked_end, key_less);
    std::fill(rank_of_.begin(), rank_of_.end(), num_threads);
    for (auto it = loads.begin(); it != ranked_end; ++it) {
        rank_of_[it->thread] =
            static_cast<std::uint32_t>(it - loads.begin());
    }
}

std::uint32_t
ParBsScheduler::FlatBank(const MemRequest& request) const
{
    return request.coords.rank * context_.banks_per_rank +
           request.coords.bank;
}

std::uint32_t&
ParBsScheduler::MarkedInBatch(ThreadId thread, std::uint32_t bank)
{
    return marked_in_batch_[static_cast<std::size_t>(thread) *
                                context_.NumBanks() +
                            bank];
}

} // namespace parbs
