#include "mem/request_queue.hh"

#include <algorithm>

#include "common/assert.hh"

namespace parbs {

RequestQueue::RequestQueue(std::size_t capacity, std::uint32_t num_threads,
                           std::uint32_t num_ranks,
                           std::uint32_t banks_per_rank)
    : capacity_(capacity),
      num_threads_(num_threads),
      banks_per_rank_(banks_per_rank),
      num_banks_(num_ranks * banks_per_rank),
      per_thread_bank_(static_cast<std::size_t>(num_threads) * num_banks_, 0),
      per_thread_(num_threads, 0),
      chain_head_(num_banks_, nullptr),
      chain_tail_(num_banks_, nullptr),
      queued_in_bank_(num_banks_, 0),
      queued_banks_((num_banks_ + 63) / 64, 0),
      bank_gen_(num_banks_, 1)
{
    PARBS_ASSERT(num_threads > 0, "request queue needs at least one thread");
    PARBS_ASSERT(num_banks_ > 0, "request queue needs at least one bank");
}

bool
RequestQueue::Full() const
{
    return capacity_ != 0 && requests_.size() >= capacity_;
}

MemRequest&
RequestQueue::Add(RequestPtr request)
{
    PARBS_ASSERT(!Full(), "request queue overflow");
    PARBS_ASSERT(request->thread < num_threads_,
                 "request thread id out of range");
    MemRequest& ref = *request;
    per_thread_bank_[static_cast<std::size_t>(ref.thread) * num_banks_ +
                     FlatBank(ref)] += 1;
    per_thread_[ref.thread] += 1;
    requests_.push_back(std::move(request));
    if (ref.state == RequestState::kQueued) {
        Link(ref);
    }
    return ref;
}

RequestPtr
RequestQueue::Remove(const MemRequest& request)
{
    const auto it = std::find_if(
        requests_.begin(), requests_.end(),
        [&request](const RequestPtr& held) { return held.get() == &request; });
    PARBS_ASSERT(it != requests_.end(),
                 "removing a request that is not in the buffer");
    RequestPtr out = std::move(*it);
    requests_.erase(it);
    per_thread_bank_[static_cast<std::size_t>(out->thread) * num_banks_ +
                     FlatBank(*out)] -= 1;
    per_thread_[out->thread] -= 1;
    if (out->bank_linked) {
        Unlink(*out);
    }
    return out;
}

void
RequestQueue::BeginService(MemRequest& request)
{
    PARBS_ASSERT(request.bank_linked,
                 "BeginService on a request not in its bank chain");
    Unlink(request);
}

void
RequestQueue::CheckIndex() const
{
    std::vector<std::uint32_t> thread_bank(per_thread_bank_.size(), 0);
    std::vector<std::uint32_t> thread_total(per_thread_.size(), 0);
    std::vector<std::uint32_t> queued(num_banks_, 0);
    for (const MemRequest* request : requests()) {
        thread_bank[static_cast<std::size_t>(request->thread) * num_banks_ +
                    FlatBank(*request)] += 1;
        thread_total[request->thread] += 1;
        if (request->state == RequestState::kQueued) {
            queued[FlatBank(*request)] += 1;
            PARBS_ASSERT(request->bank_linked,
                         "queued request missing from its bank chain");
        } else {
            PARBS_ASSERT(!request->bank_linked,
                         "non-queued request still in a bank chain");
        }
    }
    PARBS_ASSERT(thread_bank == per_thread_bank_,
                 "per-(thread,bank) counters diverged from buffer contents");
    PARBS_ASSERT(thread_total == per_thread_,
                 "per-thread counters diverged from buffer contents");
    PARBS_ASSERT(queued == queued_in_bank_,
                 "per-bank queued counts diverged from buffer contents");
    std::vector<std::uint64_t> occupied(queued_banks_.size(), 0);
    for (std::uint32_t bank = 0; bank < num_banks_; ++bank) {
        if (queued[bank] > 0) {
            occupied[bank / 64] |= std::uint64_t{1} << (bank % 64);
        }
    }
    PARBS_ASSERT(occupied == queued_banks_,
                 "occupied-bank bits diverged from queued counts");

    for (std::uint32_t bank = 0; bank < num_banks_; ++bank) {
        // The chain must hold exactly the queued requests of this bank, in
        // arrival order (ids are assigned in arrival order by the cores;
        // the flat list preserves it, so walk both in lockstep).
        const MemRequest* prev = nullptr;
        std::uint32_t chained = 0;
        std::size_t cursor = 0;
        for (const MemRequest* request : BankQueued(bank)) {
            PARBS_ASSERT(FlatBank(*request) == bank,
                         "bank chain holds a foreign request");
            PARBS_ASSERT(request->state == RequestState::kQueued,
                         "bank chain holds a non-queued request");
            PARBS_ASSERT(request->bank_prev == prev,
                         "bank chain back-links corrupted");
            while (cursor < requests_.size() &&
                   requests_[cursor].get() != request) {
                cursor += 1;
            }
            PARBS_ASSERT(cursor < requests_.size(),
                         "bank chain order diverged from arrival order");
            prev = request;
            chained += 1;
        }
        PARBS_ASSERT(chain_tail_[bank] == prev,
                     "bank chain tail pointer corrupted");
        PARBS_ASSERT(chained == queued_in_bank_[bank],
                     "bank chain length diverged from queued count");
    }
}

std::uint32_t
RequestQueue::ReqsInBankPerThread(ThreadId thread, std::uint32_t bank) const
{
    PARBS_ASSERT(thread < num_threads_ && bank < num_banks_,
                 "occupancy query out of range");
    return per_thread_bank_[static_cast<std::size_t>(thread) * num_banks_ +
                            bank];
}

std::uint32_t
RequestQueue::ReqsPerThread(ThreadId thread) const
{
    PARBS_ASSERT(thread < num_threads_, "occupancy query out of range");
    return per_thread_[thread];
}

std::uint32_t
RequestQueue::FlatBank(const MemRequest& request) const
{
    return request.coords.rank * banks_per_rank_ + request.coords.bank;
}

void
RequestQueue::Link(MemRequest& request)
{
    const std::uint32_t bank = FlatBank(request);
    PARBS_ASSERT(bank < num_banks_, "request bank out of range");
    request.bank_prev = chain_tail_[bank];
    request.bank_next = nullptr;
    if (chain_tail_[bank] != nullptr) {
        chain_tail_[bank]->bank_next = &request;
    } else {
        chain_head_[bank] = &request;
    }
    chain_tail_[bank] = &request;
    request.bank_linked = true;
    if (queued_in_bank_[bank]++ == 0) {
        queued_banks_[bank / 64] |= std::uint64_t{1} << (bank % 64);
    }
    bank_gen_[bank] += 1;
}

void
RequestQueue::Unlink(MemRequest& request)
{
    const std::uint32_t bank = FlatBank(request);
    if (request.bank_prev != nullptr) {
        request.bank_prev->bank_next = request.bank_next;
    } else {
        chain_head_[bank] = request.bank_next;
    }
    if (request.bank_next != nullptr) {
        request.bank_next->bank_prev = request.bank_prev;
    } else {
        chain_tail_[bank] = request.bank_prev;
    }
    request.bank_prev = nullptr;
    request.bank_next = nullptr;
    request.bank_linked = false;
    PARBS_ASSERT(queued_in_bank_[bank] > 0, "queued-in-bank underflow");
    if (--queued_in_bank_[bank] == 0) {
        queued_banks_[bank / 64] &= ~(std::uint64_t{1} << (bank % 64));
    }
    bank_gen_[bank] += 1;
}

} // namespace parbs
