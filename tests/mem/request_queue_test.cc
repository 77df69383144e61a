/** @file Tests for the request buffer and its occupancy counters. */

#include <gtest/gtest.h>

#include "mem/request_queue.hh"

namespace parbs {
namespace {

std::unique_ptr<MemRequest>
Make(RequestId id, ThreadId thread, std::uint32_t bank,
     std::uint32_t rank = 0)
{
    auto request = std::make_unique<MemRequest>();
    request->id = id;
    request->thread = thread;
    request->coords.rank = rank;
    request->coords.bank = bank;
    return request;
}

TEST(RequestQueue, AddRemoveTracksSize)
{
    RequestQueue queue(4, 2, 1, 8);
    EXPECT_TRUE(queue.Empty());
    MemRequest& first = queue.Add(Make(1, 0, 0));
    queue.Add(Make(2, 1, 3));
    EXPECT_EQ(queue.size(), 2u);
    auto removed = queue.Remove(first);
    EXPECT_EQ(removed->id, 1u);
    EXPECT_EQ(queue.size(), 1u);
}

TEST(RequestQueue, FullAtCapacity)
{
    RequestQueue queue(2, 1, 1, 8);
    queue.Add(Make(1, 0, 0));
    EXPECT_FALSE(queue.Full());
    queue.Add(Make(2, 0, 1));
    EXPECT_TRUE(queue.Full());
}

TEST(RequestQueue, ZeroCapacityIsUnbounded)
{
    RequestQueue queue(0, 1, 1, 8);
    for (RequestId id = 1; id <= 500; ++id) {
        queue.Add(Make(id, 0, id % 8));
    }
    EXPECT_FALSE(queue.Full());
    EXPECT_EQ(queue.size(), 500u);
}

TEST(RequestQueue, OverflowAborts)
{
    RequestQueue queue(1, 1, 1, 8);
    queue.Add(Make(1, 0, 0));
    EXPECT_DEATH(queue.Add(Make(2, 0, 1)), "overflow");
}

TEST(RequestQueue, OccupancyCountersFollowContents)
{
    RequestQueue queue(16, 2, 1, 8);
    queue.Add(Make(1, 0, 3));
    MemRequest& second = queue.Add(Make(2, 0, 3));
    queue.Add(Make(3, 0, 5));
    queue.Add(Make(4, 1, 3));
    EXPECT_EQ(queue.ReqsInBankPerThread(0, 3), 2u);
    EXPECT_EQ(queue.ReqsInBankPerThread(0, 5), 1u);
    EXPECT_EQ(queue.ReqsInBankPerThread(1, 3), 1u);
    EXPECT_EQ(queue.ReqsPerThread(0), 3u);
    EXPECT_EQ(queue.ReqsPerThread(1), 1u);

    queue.Remove(second);
    EXPECT_EQ(queue.ReqsInBankPerThread(0, 3), 1u);
    EXPECT_EQ(queue.ReqsPerThread(0), 2u);
}

TEST(RequestQueue, MultiRankFlatBankIndexing)
{
    RequestQueue queue(16, 1, 2, 4); // 2 ranks x 4 banks = 8 flat banks.
    EXPECT_EQ(queue.num_banks(), 8u);
    queue.Add(Make(1, 0, 2, 0)); // rank 0 bank 2 -> flat 2
    queue.Add(Make(2, 0, 2, 1)); // rank 1 bank 2 -> flat 6
    EXPECT_EQ(queue.ReqsInBankPerThread(0, 2), 1u);
    EXPECT_EQ(queue.ReqsInBankPerThread(0, 6), 1u);
}

TEST(RequestQueue, ViewIsArrivalOrdered)
{
    RequestQueue queue(16, 1, 1, 8);
    queue.Add(Make(10, 0, 0));
    MemRequest& middle = queue.Add(Make(11, 0, 1));
    queue.Add(Make(12, 0, 2));
    queue.Remove(middle);
    ASSERT_EQ(queue.requests().size(), 2u);
    EXPECT_EQ(queue.requests()[0]->id, 10u);
    EXPECT_EQ(queue.requests()[1]->id, 12u);
}

TEST(RequestQueue, RemoveMissingAborts)
{
    RequestQueue queue(16, 1, 1, 8);
    queue.Add(Make(1, 0, 0));
    // Same id, another request: removal goes by address.
    const auto stranger = Make(1, 0, 0);
    EXPECT_DEATH(queue.Remove(*stranger), "not in the buffer");
}

TEST(RequestQueue, BankChainsAreArrivalOrderedPerBank)
{
    RequestQueue queue(16, 2, 1, 8);
    queue.Add(Make(1, 0, 3));
    queue.Add(Make(2, 1, 5));
    queue.Add(Make(3, 0, 3));
    queue.Add(Make(4, 1, 3));

    std::vector<RequestId> bank3;
    for (const MemRequest* request : queue.BankQueued(3)) {
        bank3.push_back(request->id);
    }
    EXPECT_EQ(bank3, (std::vector<RequestId>{1, 3, 4}));
    EXPECT_EQ(queue.QueuedInBank(3), 3u);
    EXPECT_EQ(queue.QueuedInBank(5), 1u);
    EXPECT_TRUE(queue.BankQueued(0).empty());
    EXPECT_EQ(queue.BankQueued(3).front()->id, 1u);
    queue.CheckIndex();
}

TEST(RequestQueue, BeginServiceUnlinksButKeepsBuffered)
{
    RequestQueue queue(16, 1, 1, 8);
    queue.Add(Make(1, 0, 2));
    MemRequest& middle = queue.Add(Make(2, 0, 2));
    queue.Add(Make(3, 0, 2));

    queue.BeginService(middle);
    middle.state = RequestState::kInBurst;

    std::vector<RequestId> chain;
    for (const MemRequest* request : queue.BankQueued(2)) {
        chain.push_back(request->id);
    }
    EXPECT_EQ(chain, (std::vector<RequestId>{1, 3}));
    EXPECT_EQ(queue.QueuedInBank(2), 2u);
    // Still buffered (occupancy counters include in-burst requests).
    EXPECT_EQ(queue.size(), 3u);
    EXPECT_EQ(queue.ReqsInBankPerThread(0, 2), 3u);
    queue.CheckIndex();

    // Removing the in-burst request must not touch the chain again.
    queue.Remove(middle);
    EXPECT_EQ(queue.QueuedInBank(2), 2u);
    queue.CheckIndex();
}

TEST(RequestQueue, BeginServiceUnlinkedAborts)
{
    RequestQueue queue(16, 1, 1, 8);
    MemRequest& request = queue.Add(Make(1, 0, 0));
    queue.BeginService(request);
    request.state = RequestState::kInBurst;
    EXPECT_DEATH(queue.BeginService(request), "not in its bank chain");
}

TEST(RequestQueue, BankGenerationsBumpOnChainChangesOnly)
{
    RequestQueue queue(16, 1, 1, 8);
    const std::uint64_t gen2 = queue.BankGeneration(2);
    const std::uint64_t gen4 = queue.BankGeneration(4);
    EXPECT_GE(gen2, 1u); // generations start at 1: 0 is never valid, so
                         // zero-initialized memo slots always read stale.

    MemRequest& request = queue.Add(Make(1, 0, 2));
    EXPECT_GT(queue.BankGeneration(2), gen2);
    EXPECT_EQ(queue.BankGeneration(4), gen4); // untouched bank unchanged

    const std::uint64_t after_add = queue.BankGeneration(2);
    queue.BeginService(request);
    request.state = RequestState::kInBurst;
    EXPECT_GT(queue.BankGeneration(2), after_add);

    const std::uint64_t after_service = queue.BankGeneration(2);
    queue.Remove(request); // already unlinked: chain untouched
    EXPECT_EQ(queue.BankGeneration(2), after_service);
}

TEST(RequestQueue, OldestIsFrontOfArrivalOrder)
{
    RequestQueue queue(16, 1, 1, 8);
    EXPECT_EQ(queue.Oldest(), nullptr);
    MemRequest& oldest = queue.Add(Make(7, 0, 0));
    queue.Add(Make(8, 0, 1));
    ASSERT_NE(queue.Oldest(), nullptr);
    EXPECT_EQ(queue.Oldest()->id, 7u);
    queue.Remove(oldest);
    EXPECT_EQ(queue.Oldest()->id, 8u);
}

} // namespace
} // namespace parbs
