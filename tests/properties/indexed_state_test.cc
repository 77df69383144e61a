/**
 * @file
 * Property tests for the per-bank index (DESIGN.md §5e): under randomized
 * add / remove / begin-service sequences the intrusive chains, occupancy
 * counters, and generations must always match a from-scratch rebuild of
 * the buffer, and indexed selection must pick what the scan oracle's
 * full-buffer scan picks on every DRAM cycle, for every scheduler in the
 * factory registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "fault/fault_injector.hh"
#include "mem/request_queue.hh"
#include "oracle/scan_checked.hh"
#include "sched/factory.hh"
#include "sched/frfcfs.hh"
#include "test_util.hh"

namespace parbs {
namespace {

using oracle::CheckedHarness;
using test::ControllerHarness;

// Same per-scenario seed derivation as the fault-injection harness, so a
// failing scenario reproduces from (master seed, index) alone.
constexpr std::uint64_t kMasterSeed = 0xbadb100d;

std::uint64_t
ScenarioSeed(std::uint64_t index)
{
    return kMasterSeed + 0x9e3779b97f4a7c15ULL * (index + 1);
}

constexpr std::uint32_t kRanks = 2;
constexpr std::uint32_t kBanksPerRank = 4;
constexpr std::uint32_t kThreads = 4;

/** Shadow model: flat per-bank arrival-ordered id lists. */
struct ShadowModel {
    explicit ShadowModel(std::uint32_t num_banks) : queued_ids(num_banks) {}

    std::vector<std::vector<RequestId>> queued_ids;
    std::vector<RequestId> buffered; ///< arrival order, includes in-burst

    void
    ExpectMatches(const RequestQueue& queue) const
    {
        std::vector<std::uint32_t> occupied;
        for (std::uint32_t bank = 0; bank < queued_ids.size(); ++bank) {
            ASSERT_EQ(queue.QueuedInBank(bank), queued_ids[bank].size())
                << "bank " << bank;
            std::vector<RequestId> chain;
            for (const MemRequest* request : queue.BankQueued(bank)) {
                chain.push_back(request->id);
            }
            ASSERT_EQ(chain, queued_ids[bank])
                << "bank " << bank << " chain order diverged";
            if (!queued_ids[bank].empty()) {
                occupied.push_back(bank);
            }
        }
        // The occupied-bank walk visits exactly the non-empty banks, in
        // ascending order.
        std::vector<std::uint32_t> walked;
        queue.ForEachQueuedBank(
            [&](std::uint32_t bank) { walked.push_back(bank); });
        ASSERT_EQ(walked, occupied);
        ASSERT_EQ(queue.size(), buffered.size());
    }
};

/**
 * Random add / remove / begin-service sequences on one buffer, each
 * operation followed by CheckIndex and the shadow-model comparison.
 */
void
FuzzIndex(std::uint32_t ranks, std::uint32_t banks_per_rank,
          std::uint32_t threads, std::size_t capacity, int steps)
{
    const std::uint32_t num_banks = ranks * banks_per_rank;
    for (std::uint64_t scenario = 0; scenario < 8; ++scenario) {
        Rng rng(ScenarioSeed(scenario));
        RequestQueue queue(capacity, threads, ranks, banks_per_rank);
        ShadowModel model(num_banks);
        RequestId next_id = 1;
        std::vector<std::uint64_t> last_gen(num_banks, 0);

        for (int step = 0; step < steps; ++step) {
            const std::uint64_t op = rng.NextBelow(4);
            if (op <= 1 && !queue.Full()) {
                // Add a fresh queued request.
                auto request = std::make_unique<MemRequest>();
                request->id = next_id++;
                request->thread =
                    static_cast<ThreadId>(rng.NextBelow(threads));
                request->coords.rank =
                    static_cast<std::uint32_t>(rng.NextBelow(ranks));
                request->coords.bank =
                    static_cast<std::uint32_t>(rng.NextBelow(banks_per_rank));
                request->coords.row =
                    static_cast<std::uint32_t>(rng.NextBelow(16));
                const std::uint32_t flat = queue.FlatBank(*request);
                const RequestId id = request->id;
                queue.Add(std::move(request));
                model.queued_ids[flat].push_back(id);
                model.buffered.push_back(id);
            } else if (op == 2 && !model.buffered.empty()) {
                // Remove a random buffered request (queued or in-burst).
                const std::size_t pick = static_cast<std::size_t>(
                    rng.NextBelow(model.buffered.size()));
                const RequestId id = model.buffered[pick];
                // The view is arrival-ordered, like the model's list.
                RequestPtr removed = queue.Remove(*queue.requests()[pick]);
                ASSERT_EQ(removed->id, id);
                model.buffered.erase(model.buffered.begin() +
                                     static_cast<std::ptrdiff_t>(pick));
                auto& chain = model.queued_ids[queue.FlatBank(*removed)];
                chain.erase(std::remove(chain.begin(), chain.end(), id),
                            chain.end());
            } else if (op == 3) {
                // Begin service on a random queued request ("issue"): the
                // request leaves its chain but stays buffered, exactly as
                // the controller does at column-command issue.
                std::vector<std::uint32_t> nonempty;
                for (std::uint32_t bank = 0; bank < num_banks; ++bank) {
                    if (!model.queued_ids[bank].empty()) {
                        nonempty.push_back(bank);
                    }
                }
                if (nonempty.empty()) {
                    continue;
                }
                const std::uint32_t bank = nonempty[static_cast<std::size_t>(
                    rng.NextBelow(nonempty.size()))];
                auto& chain = model.queued_ids[bank];
                const std::size_t pick = static_cast<std::size_t>(
                    rng.NextBelow(chain.size()));
                const RequestId id = chain[pick];
                MemRequest* request = nullptr;
                for (MemRequest* r : queue.BankQueued(bank)) {
                    if (r->id == id) {
                        request = r;
                    }
                }
                ASSERT_NE(request, nullptr);
                queue.BeginService(*request);
                request->state = RequestState::kInBurst;
                chain.erase(chain.begin() +
                            static_cast<std::ptrdiff_t>(pick));
            } else {
                continue;
            }

            // The buffer's own O(size x banks) rebuild cross-check...
            queue.CheckIndex();
            // ...plus the external shadow model (contents and order).
            model.ExpectMatches(queue);
            // Generations never move backwards (memo-key soundness).
            for (std::uint32_t bank = 0; bank < num_banks; ++bank) {
                const std::uint64_t gen = queue.BankGeneration(bank);
                ASSERT_GE(gen, std::max<std::uint64_t>(last_gen[bank], 1));
                last_gen[bank] = gen;
            }
        }
    }
}

TEST(IndexedQueueFuzz, IndexMatchesRebuildAfterEveryOperation)
{
    FuzzIndex(kRanks, kBanksPerRank, kThreads, 32, 600);
}

TEST(IndexedQueueFuzz, WideGeometryIndexMatchesRebuild)
{
    // 80 banks: the occupied-bank bits span a full first word and a
    // partial second one; 70 threads span two words of thread ids.
    FuzzIndex(2, 40, 70, 48, 1200);
}

SchedulerConfig
ConfigFor(SchedulerKind kind)
{
    SchedulerConfig config;
    config.kind = kind;
    return config;
}

/** Random reads and 20% writes over 8 banks x 16 rows, then drain. */
void
DriveRandomTraffic(ControllerHarness& h, std::uint64_t seed)
{
    Rng rng(seed);
    for (int round = 0; round < 400; ++round) {
        if (h.controller().pending_reads() < 100 &&
            h.controller().pending_writes() < 50) {
            h.Enqueue(static_cast<ThreadId>(rng.NextBelow(kThreads)),
                      static_cast<std::uint32_t>(rng.NextBelow(8)),
                      static_cast<std::uint32_t>(rng.NextBelow(16)),
                      static_cast<std::uint32_t>(rng.NextBelow(32)),
                      rng.NextBool(0.2));
        }
        h.Tick(static_cast<std::uint64_t>(rng.NextBelow(6)));
    }
    h.RunUntilIdle(200000);
    EXPECT_EQ(h.controller().pending_reads(), 0u);
    EXPECT_EQ(h.controller().pending_writes(), 0u);
}

/**
 * Parameterized over the whole factory registry.  The scan oracle predicts
 * every DRAM cycle from a full-buffer scan through Pick() alone and throws
 * if the controller's indexed path (per-bank chains, EarliestIssue
 * prefilter, memoized PickInBank winners, skip-ahead bound) issues
 * anything else.  The scan schedules the oracle cannot see are pinned per
 * scheduler, in AllSchedulerKinds() order: {select scans, select skips,
 * pick-memo hits, misses, invalidations} summed over a test's scenarios.
 */
class IndexedSelectionExactness
    : public ::testing::TestWithParam<SchedulerKind> {};

const oracle::ScanSchedule kEndToEndSchedule[] = {
    /* FCFS */ {2334, 668, 3232, 1704, 0},
    /* FR-FCFS */ {2299, 554, 3988, 1635, 0},
    /* NFQ */ {2288, 590, 0, 0, 0},
    /* STFM */ {2325, 572, 4088, 1660, 22},
    /* PAR-BS */ {2317, 693, 3810, 1633, 7},
    /* PAR-BS static */ {2316, 599, 4017, 1611, 2},
    /* PAR-BS eslot */ {2334, 608, 4272, 1608, 3},
    /* PAR-BS adaptive */ {2317, 693, 3810, 1633, 7},
    /* BLISS */ {2295, 560, 4182, 1639, 6},
};

const oracle::ScanSchedule kWideGeometrySchedule[] = {
    /* FCFS */ {2268, 233, 42839, 2527, 0},
    /* FR-FCFS */ {2286, 205, 52572, 2613, 0},
    /* NFQ */ {2303, 217, 0, 0, 0},
    /* STFM */ {2263, 215, 43388, 5278, 62},
    /* PAR-BS */ {2301, 229, 46876, 2746, 8},
    /* PAR-BS static */ {2286, 205, 52572, 2613, 0},
    /* PAR-BS eslot */ {2291, 209, 52401, 2548, 2},
    /* PAR-BS adaptive */ {2301, 229, 46876, 2746, 8},
    /* BLISS */ {2286, 205, 52572, 2613, 0},
};

TEST_P(IndexedSelectionExactness, IndexedMatchesFullScanEndToEnd)
{
    // The whole per-cycle order, end to end: frequent refresh (overdue-
    // refresh cycles and refresh-blocked ranks), and a small write buffer
    // with tight watermarks so the drain-first hysteresis flips many times.
    ControllerConfig config = ControllerHarness::DefaultConfig();
    config.write_queue_capacity = 16;
    config.write_drain_high = 12;
    config.write_drain_low = 4;
    dram::TimingParams timing = test::TestTiming();
    timing.tREFI = 300;
    oracle::ScanSchedule schedule;
    for (std::uint64_t scenario = 0; scenario < 2; ++scenario) {
        CheckedHarness x(MakeScheduler(ConfigFor(GetParam())), config,
                         timing);
        Rng rng(ScenarioSeed(100 + scenario));
        for (int round = 0; round < 400; ++round) {
            const bool write = rng.NextBool(0.5);
            if (write ? x.h.controller().CanAcceptWrite()
                      : x.h.controller().pending_reads() < 100) {
                x.h.Enqueue(static_cast<ThreadId>(rng.NextBelow(kThreads)),
                            static_cast<std::uint32_t>(rng.NextBelow(8)),
                            static_cast<std::uint32_t>(rng.NextBelow(16)),
                            static_cast<std::uint32_t>(rng.NextBelow(32)),
                            write);
            }
            x.h.Tick(static_cast<std::uint64_t>(rng.NextBelow(5)));
        }
        x.h.RunUntilIdle(200000);
        EXPECT_EQ(x.h.controller().pending_reads(), 0u);
        EXPECT_EQ(x.h.controller().pending_writes(), 0u);
        EXPECT_GT(x.h.controller().commands_issued(
                      dram::CommandType::kRefresh),
                  0u);
        EXPECT_EQ(x.oracle->cycles_checked(), x.h.now());
        EXPECT_GT(x.oracle->picks_checked(), 0u);
        schedule += x.h.controller();
    }
    EXPECT_EQ(schedule,
              kEndToEndSchedule[static_cast<std::size_t>(GetParam())]);
}

TEST_P(IndexedSelectionExactness, EveryPickCrossChecksUnderRandomTraffic)
{
    // Random traffic exercises the memoized per-bank winners (and the
    // row-hit state they embed) against the from-scratch scan on every
    // DRAM cycle, ticked or skipped.
    for (std::uint64_t scenario = 0; scenario < 4; ++scenario) {
        CheckedHarness x(MakeScheduler(ConfigFor(GetParam())));
        DriveRandomTraffic(x.h, ScenarioSeed(scenario));
        EXPECT_EQ(x.oracle->cycles_checked(), x.h.now());
        EXPECT_GT(x.oracle->picks_checked(), 0u);
    }
}

TEST_P(IndexedSelectionExactness, WideGeometryMatchesFullScan)
{
    // 2 ranks x 64 banks: the occupied-bank bits fill two words, so a walk
    // that stops after the first word leaves banks 64-127 unserved.  80
    // threads put thread ids in two words as well; refresh and a small
    // write buffer keep the refresh-blocked and drain-first paths live.
    dram::Geometry geometry = test::TestGeometry();
    geometry.ranks_per_channel = 2;
    geometry.banks_per_rank = 64;
    constexpr std::uint32_t kWideThreads = 80;
    ControllerConfig config = ControllerHarness::DefaultConfig();
    config.write_queue_capacity = 16;
    config.write_drain_high = 12;
    config.write_drain_low = 4;
    dram::TimingParams timing = test::TestTiming();
    timing.tREFI = 400;
    oracle::ScanSchedule schedule;
    for (std::uint64_t scenario = 0; scenario < 2; ++scenario) {
        CheckedHarness x(MakeScheduler(ConfigFor(GetParam())), config,
                         timing, kWideThreads, geometry);
        Rng rng(ScenarioSeed(200 + scenario));
        std::uint64_t high_bank_requests = 0;
        for (int round = 0; round < 600; ++round) {
            const bool write = rng.NextBool(0.3);
            if (write ? x.h.controller().CanAcceptWrite()
                      : x.h.controller().pending_reads() < 100) {
                const auto rank =
                    static_cast<std::uint32_t>(rng.NextBelow(2));
                high_bank_requests += rank;
                x.h.Enqueue(
                    static_cast<ThreadId>(rng.NextBelow(kWideThreads)),
                    static_cast<std::uint32_t>(rng.NextBelow(64)),
                    static_cast<std::uint32_t>(rng.NextBelow(8)),
                    static_cast<std::uint32_t>(rng.NextBelow(32)), write,
                    rank);
            }
            x.h.Tick(static_cast<std::uint64_t>(rng.NextBelow(4)));
        }
        x.h.RunUntilIdle(200000);
        EXPECT_GT(high_bank_requests, 100u);
        EXPECT_EQ(x.h.controller().pending_reads(), 0u);
        EXPECT_EQ(x.h.controller().pending_writes(), 0u);
        EXPECT_EQ(x.oracle->cycles_checked(), x.h.now());
        EXPECT_GT(x.oracle->picks_checked(), 0u);
        schedule += x.h.controller();
    }
    EXPECT_EQ(schedule,
              kWideGeometrySchedule[static_cast<std::size_t>(GetParam())]);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, IndexedSelectionExactness,
    ::testing::ValuesIn(AllSchedulerKinds()),
    [](const auto& info) {
        const std::string name = SchedulerKindName(info.param);
        std::string out;
        for (char c : name) {
            if (std::isalnum(static_cast<unsigned char>(c))) {
                out += c;
            }
        }
        return out;
    });

/**
 * The memo bug class: a bank's winner reused for as long as it stays
 * queued, ignoring arrivals and row changes.  Always a queued request of
 * the right bank, so nothing but a selection check can notice it.
 */
class StalePickScheduler final : public FrFcfsScheduler {
  public:
    void
    Attach(const SchedulerContext& context) override
    {
        FrFcfsScheduler::Attach(context);
        cached_.assign(static_cast<std::size_t>(context.NumBanks()) * 2,
                       nullptr);
    }

    MemRequest*
    PickInBank(const RequestQueue& queue, std::uint32_t bank,
               DramCycle now) override
    {
        MemRequest*& cached =
            cached_[bank * 2 + (&queue == context_.write_queue ? 1 : 0)];
        bool queued = false;
        for (const MemRequest* request : queue.BankQueued(bank)) {
            queued = queued || request == cached;
        }
        if (!queued) {
            cached = FrFcfsScheduler::PickInBank(queue, bank, now);
        }
        return cached;
    }

  private:
    std::vector<MemRequest*> cached_;
};

TEST(ScanOracle, StalePickInBankFailsTheOracle)
{
    // Unchecked, the stale winners run to completion without complaint
    // (every command they issue is legal)...
    ControllerHarness unchecked(std::make_unique<StalePickScheduler>(),
                                kThreads);
    DriveRandomTraffic(unchecked, ScenarioSeed(7));
    // ...while the oracle rejects the first pick that differs.
    CheckedHarness x(std::make_unique<StalePickScheduler>());
    EXPECT_THROW(DriveRandomTraffic(x.h, ScenarioSeed(7)),
                 oracle::SelectionMismatch);
}

TEST(ScanOracle, RasBankHoldsAreHonoured)
{
    // Uncorrectable reads requeue under a retry-backoff bank hold; the
    // bound oracle must see the holds the controller's indexed path skips.
    ControllerConfig config = ControllerHarness::DefaultConfig();
    config.ras.enabled = true;
    config.ras.transient_error_rate = 0.05;
    config.ras.transient_uncorrectable = 0.5;
    config.ras.seed = 7;
    CheckedHarness x(MakeScheduler(ConfigFor(SchedulerKind::kParBs)),
                     config);
    DriveRandomTraffic(x.h, ScenarioSeed(11));
    ASSERT_NE(x.h.controller().ras(), nullptr);
    EXPECT_GT(x.h.controller().ras()->stats().retries, 0u);
    EXPECT_GT(x.oracle->picks_checked(), 0u);
    // The skip-ahead bound ignores holds, so a held bank still shapes the
    // scan schedule (pinned as in IndexedSelectionExactness).
    oracle::ScanSchedule schedule;
    schedule += x.h.controller();
    EXPECT_EQ(schedule, (oracle::ScanSchedule{1293, 142, 2076, 1092, 9}));
}

TEST(ScanOracle, NondeterministicPickIsForwardedUnchecked)
{
    // Replaying a chaos wrapper's Pick() would change its RNG stream, so
    // the oracle only forwards it.
    CheckedHarness x(std::make_unique<ChaosScheduler>(
        MakeScheduler(ConfigFor(SchedulerKind::kFrFcfs)), 42));
    DriveRandomTraffic(x.h, ScenarioSeed(3));
    EXPECT_EQ(x.oracle->cycles_checked(), 0u);
    EXPECT_EQ(x.oracle->picks_checked(), 0u);
}

} // namespace
} // namespace parbs
