/**
 * @file
 * The memory request buffer: bounded storage for outstanding requests plus
 * the per-thread, per-bank occupancy counters that the paper's schedulers
 * consult (Table 1: ReqsInBankPerThread, ReqsPerThread).
 *
 * Beyond the flat arrival-ordered list, the buffer maintains a per-bank
 * *index*: an intrusive, arrival-ordered chain of the queued (schedulable)
 * requests of every (rank, bank), plus per-bank occupancy counters and
 * modification generations, and a bitmask of the banks that hold queued
 * requests.  The controller's per-cycle candidate gathering and the
 * schedulers' memoized per-bank picks (DESIGN.md §5e) are built on this
 * index, making selection cost proportional to the occupied banks rather
 * than buffer occupancy or bank count.
 */

#ifndef PARBS_MEM_REQUEST_QUEUE_HH
#define PARBS_MEM_REQUEST_QUEUE_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <ranges>
#include <vector>

#include "common/assert.hh"
#include "common/types.hh"
#include "mem/request.hh"
#include "mem/request_pool.hh"

namespace parbs {

/**
 * Bounded buffer of outstanding requests with O(1) occupancy queries.
 *
 * Requests stay in the buffer from arrival until their data burst completes
 * (the paper's request buffer holds requests "while they are waiting to be
 * serviced"); schedulers iterate the queued subset each cycle.
 */
class RequestQueue {
  public:
    /** Arrival-ordered forward range over one bank's queued requests. */
    class BankChain {
      public:
        class Iterator {
          public:
            explicit Iterator(MemRequest* request) : request_(request) {}
            MemRequest* operator*() const { return request_; }
            Iterator&
            operator++()
            {
                request_ = request_->bank_next;
                return *this;
            }
            bool
            operator!=(const Iterator& other) const
            {
                return request_ != other.request_;
            }

          private:
            MemRequest* request_;
        };

        explicit BankChain(MemRequest* head) : head_(head) {}
        Iterator begin() const { return Iterator(head_); }
        Iterator end() const { return Iterator(nullptr); }
        bool empty() const { return head_ == nullptr; }
        MemRequest* front() const { return head_; }

      private:
        MemRequest* head_;
    };

    /**
     * @param capacity maximum simultaneous requests (0 = unbounded)
     * @param num_threads number of threads whose counters to track
     * @param num_ranks ranks on this controller's channel
     * @param banks_per_rank banks in each rank
     */
    RequestQueue(std::size_t capacity, std::uint32_t num_threads,
                 std::uint32_t num_ranks, std::uint32_t banks_per_rank);

    std::size_t size() const { return requests_.size(); }
    std::size_t capacity() const { return capacity_; }
    bool Empty() const { return requests_.empty(); }
    bool Full() const;

    /** Adds a request. @pre !Full() */
    MemRequest& Add(RequestPtr request);

    /**
     * Removes a completed request from the buffer, found by address (a
     * pointer compare per buffered request, no dereference).
     * @return ownership of the removed request.
     * @pre the request is present.
     */
    RequestPtr Remove(const MemRequest& request);

    /**
     * Unlinks @p request from its bank chain when service begins (state
     * left kQueued): the request stays buffered but is no longer a
     * scheduling candidate.  Called by the controller when the first
     * column command for the request issues.
     * @pre the request is in this buffer and currently linked.
     */
    void BeginService(MemRequest& request);

    /** All buffered requests, in arrival order (includes in-burst ones):
     *  a random-access range of MemRequest* over the owning list. */
    auto
    requests() const
    {
        return std::views::transform(
            requests_, [](const RequestPtr& held) { return held.get(); });
    }

    /** Oldest buffered request (front of arrival order), or nullptr. */
    MemRequest*
    Oldest() const
    {
        return requests_.empty() ? nullptr : requests_.front().get();
    }

    // --- Per-bank index --------------------------------------------------

    /** Queued (schedulable) requests of @p bank, in arrival order. */
    BankChain
    BankQueued(std::uint32_t bank) const
    {
        PARBS_ASSERT(bank < num_banks_, "bank index out of range");
        return BankChain(chain_head_[bank]);
    }

    /** Number of queued requests in controller-local flat @p bank. */
    std::uint32_t
    QueuedInBank(std::uint32_t bank) const
    {
        PARBS_ASSERT(bank < num_banks_, "bank index out of range");
        return queued_in_bank_[bank];
    }

    /**
     * Monotonic modification generation of @p bank's chain: bumped on
     * every link/unlink.  Schedulers key memoized per-bank picks on it
     * (see ComparatorScheduler::PickInBank).
     */
    std::uint64_t
    BankGeneration(std::uint32_t bank) const
    {
        PARBS_ASSERT(bank < num_banks_, "bank index out of range");
        return bank_gen_[bank];
    }

    /**
     * Calls @p visit(bank) for every bank with queued requests, in
     * ascending flat-bank order: O(banks / 64 + occupied banks), so empty
     * banks cost one bit each.  @p visit must not link or unlink requests.
     */
    template <typename Visit>
    void
    ForEachQueuedBank(Visit&& visit) const
    {
        for (std::size_t word = 0; word < queued_banks_.size(); ++word) {
            for (std::uint64_t pending = queued_banks_[word]; pending != 0;
                 pending &= pending - 1) {
                visit(static_cast<std::uint32_t>(
                    word * 64 + std::countr_zero(pending)));
            }
        }
    }

    /**
     * Cross-checks the per-bank index, chains, occupancy counters and
     * occupied-bank bits against a from-scratch rebuild of the buffer
     * contents; aborts on any divergence.  O(size x banks) —
     * validation/test hook only.
     */
    void CheckIndex() const;

    /** Paper counter: requests from @p thread to controller-local @p bank. */
    std::uint32_t ReqsInBankPerThread(ThreadId thread,
                                      std::uint32_t bank) const;

    /** Paper counter: total requests from @p thread in the buffer. */
    std::uint32_t ReqsPerThread(ThreadId thread) const;

    std::uint32_t num_threads() const { return num_threads_; }
    std::uint32_t num_banks() const { return num_banks_; }

    /** Controller-local flat bank index (rank-major) of a request. */
    std::uint32_t FlatBank(const MemRequest& request) const;

  private:
    std::size_t capacity_;
    std::uint32_t num_threads_;
    std::uint32_t banks_per_rank_;
    std::uint32_t num_banks_;

    /** The buffered requests, in arrival order. */
    std::vector<RequestPtr> requests_;

    /** [thread * num_banks + bank] occupancy. */
    std::vector<std::uint32_t> per_thread_bank_;
    std::vector<std::uint32_t> per_thread_;

    /** Per-bank chain endpoints over the queued subset (arrival order). */
    std::vector<MemRequest*> chain_head_;
    std::vector<MemRequest*> chain_tail_;
    /** Per-bank queued (schedulable) request counts. */
    std::vector<std::uint32_t> queued_in_bank_;
    /** Bit b of word b / 64 is set iff queued_in_bank_[b] > 0. */
    std::vector<std::uint64_t> queued_banks_;
    /** Per-bank chain modification generations (start at 1; 0 is never a
     *  valid generation, so zero-initialized memo slots read as stale). */
    std::vector<std::uint64_t> bank_gen_;

    void Link(MemRequest& request);
    void Unlink(MemRequest& request);
};

} // namespace parbs

#endif // PARBS_MEM_REQUEST_QUEUE_HH
