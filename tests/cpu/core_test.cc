/** @file Tests for the processor core model: in-order commit, stalls,
 *  memory-level parallelism (the Figure 1/2 behaviours), MSHRs, stores. */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <random>

#include "common/assert.hh"
#include "cpu/core.hh"
#include "trace/trace.hh"

namespace parbs {
namespace {

/** A memory port with a fixed latency and scriptable acceptance. */
class MockPort : public MemoryPort {
  public:
    std::optional<RequestId>
    TryIssueRead(ThreadId, Addr addr) override
    {
        if (!accept_reads) {
            return std::nullopt;
        }
        const RequestId id = next_id++;
        const auto slow = latency_for.find(addr);
        pending[id] = {addr, now + (slow != latency_for.end()
                                        ? slow->second
                                        : read_latency)};
        reads_seen += 1;
        return id;
    }

    bool
    TryIssueWrite(ThreadId, Addr) override
    {
        if (!accept_writes) {
            return false;
        }
        writes_seen += 1;
        return true;
    }

    /** Advances time; returns ids whose data is now ready. */
    std::vector<RequestId>
    Tick()
    {
        now += 1;
        std::vector<RequestId> ready;
        for (auto it = pending.begin(); it != pending.end();) {
            if (it->second.ready_at <= now) {
                ready.push_back(it->first);
                it = pending.erase(it);
            } else {
                ++it;
            }
        }
        return ready;
    }

    struct Entry {
        Addr addr;
        CpuCycle ready_at;
    };
    CpuCycle now = 0;
    CpuCycle read_latency = 50;
    /** Per-address read latencies overriding read_latency. */
    std::map<Addr, CpuCycle> latency_for;
    bool accept_reads = true;
    bool accept_writes = true;
    RequestId next_id = 1;
    std::map<RequestId, Entry> pending;
    int reads_seen = 0;
    int writes_seen = 0;
};

/** Runs @p core against @p port until done or @p max cycles. */
void
DriveCore(Core& core, MockPort& port, CpuCycle max = 100000)
{
    for (CpuCycle i = 0; i < max && !core.Done(); ++i) {
        for (RequestId id : port.Tick()) {
            core.OnReadComplete(id);
        }
        core.Tick();
    }
}

TraceEntry
Load(Addr addr, std::uint32_t compute = 0, bool dependent = false)
{
    TraceEntry e;
    e.compute_instructions = compute;
    e.addr = addr;
    e.depends_on_prev = dependent;
    return e;
}

TraceEntry
Store(Addr addr, std::uint32_t compute = 0)
{
    TraceEntry e;
    e.compute_instructions = compute;
    e.addr = addr;
    e.is_write = true;
    return e;
}

TEST(Core, ComputeOnlyTraceCommitsAtFullWidth)
{
    MockPort port;
    VectorTraceSource trace({Load(0, 299)});
    port.read_latency = 1;
    CoreConfig config;
    Core core(config, 0, trace, port);
    DriveCore(core, port);
    EXPECT_TRUE(core.Done());
    EXPECT_EQ(core.stats().instructions, 300u);
    // 300 instructions at width 3 plus small pipeline slack.
    EXPECT_LE(core.stats().cycles, 110u);
}

TEST(Core, SingleLoadStallsUntilData)
{
    MockPort port;
    port.read_latency = 200;
    VectorTraceSource trace({Load(0x1000)});
    Core core(CoreConfig{}, 0, trace, port);
    DriveCore(core, port);
    EXPECT_EQ(core.stats().loads_issued, 1u);
    EXPECT_EQ(core.stats().loads_completed, 1u);
    // Nearly the whole latency shows up as memory stall.
    EXPECT_GE(core.stats().load_stall_cycles, 195u);
    EXPECT_GE(core.stats().AstPerRequest(), 195.0);
}

TEST(Core, IndependentLoadsOverlap)
{
    // The Figure 1 behaviour: two independent misses expose roughly one
    // latency, not two.
    MockPort port;
    port.read_latency = 200;
    VectorTraceSource trace({Load(0x1000), Load(0x2000)});
    Core core(CoreConfig{}, 0, trace, port);
    DriveCore(core, port);
    EXPECT_LE(core.stats().load_stall_cycles, 210u);
    EXPECT_EQ(core.stats().loads_completed, 2u);
}

TEST(Core, DependentLoadsSerialize)
{
    // The pointer-chasing contract: depends_on_prev exposes each latency.
    MockPort port;
    port.read_latency = 200;
    VectorTraceSource trace({Load(0x1000), Load(0x2000, 0, true)});
    Core core(CoreConfig{}, 0, trace, port);
    DriveCore(core, port);
    EXPECT_GE(core.stats().load_stall_cycles, 390u);
}

TEST(Core, ManyIndependentLoadsStallOnce)
{
    MockPort port;
    port.read_latency = 300;
    std::vector<TraceEntry> entries;
    for (int i = 0; i < 6; ++i) {
        entries.push_back(Load(0x1000 + 64 * i, 5));
    }
    VectorTraceSource trace(entries);
    Core core(CoreConfig{}, 0, trace, port);
    DriveCore(core, port);
    // All six overlap: total stall well under 2 latencies.
    EXPECT_LT(core.stats().load_stall_cycles, 450u);
}

TEST(Core, MshrLimitBoundsOutstanding)
{
    MockPort port;
    port.read_latency = 100000; // Nothing ever returns.
    std::vector<TraceEntry> entries;
    for (int i = 0; i < 64; ++i) {
        entries.push_back(Load(64 * i));
    }
    VectorTraceSource trace(entries);
    CoreConfig config;
    config.mshrs = 4;
    config.window_size = 512;
    Core core(config, 0, trace, port);
    for (int i = 0; i < 200; ++i) {
        core.Tick();
    }
    EXPECT_EQ(port.reads_seen, 4);
}

TEST(Core, WindowLimitBoundsOutstanding)
{
    MockPort port;
    port.read_latency = 100000;
    std::vector<TraceEntry> entries;
    for (int i = 0; i < 64; ++i) {
        entries.push_back(Load(64 * i, 19)); // 20 instructions per miss.
    }
    VectorTraceSource trace(entries);
    CoreConfig config;
    config.window_size = 128;
    config.mshrs = 32;
    Core core(config, 0, trace, port);
    for (int i = 0; i < 500; ++i) {
        core.Tick();
    }
    // A 128-entry window holds ~6.4 twenty-instruction blocks.
    EXPECT_GE(port.reads_seen, 6);
    EXPECT_LE(port.reads_seen, 8);
}

TEST(Core, StoresDoNotBlockCommit)
{
    MockPort port;
    VectorTraceSource trace({Store(0x1000), Load(0, 49)});
    port.read_latency = 1;
    Core core(CoreConfig{}, 0, trace, port);
    DriveCore(core, port);
    EXPECT_TRUE(core.Done());
    EXPECT_EQ(core.stats().stores_issued, 1u);
    // The store may expose at most the one-cycle commit/issue pipeline
    // bubble, never a memory-latency-sized stall.
    EXPECT_LE(core.stats().store_stall_cycles, 1u);
}

TEST(Core, FullWriteBufferEventuallyStallsCommit)
{
    MockPort port;
    port.accept_writes = false;
    port.read_latency = 1;
    VectorTraceSource trace({Store(0x1000)});
    Core core(CoreConfig{}, 0, trace, port);
    for (int i = 0; i < 100; ++i) {
        core.Tick();
    }
    EXPECT_FALSE(core.Done());
    EXPECT_GT(core.stats().store_stall_cycles, 50u);
    // Once the buffer opens up, the core drains.
    port.accept_writes = true;
    DriveCore(core, port);
    EXPECT_TRUE(core.Done());
}

TEST(Core, RetriesWhenRequestBufferFull)
{
    MockPort port;
    port.accept_reads = false;
    port.read_latency = 10;
    VectorTraceSource trace({Load(0x40)});
    Core core(CoreConfig{}, 0, trace, port);
    for (int i = 0; i < 20; ++i) {
        core.Tick();
    }
    EXPECT_EQ(core.stats().loads_issued, 0u);
    port.accept_reads = true;
    DriveCore(core, port);
    EXPECT_TRUE(core.Done());
    EXPECT_EQ(core.stats().loads_issued, 1u);
}

TEST(Core, McpiAndMpkiAreConsistent)
{
    MockPort port;
    port.read_latency = 100;
    std::vector<TraceEntry> entries;
    for (int i = 0; i < 50; ++i) {
        entries.push_back(Load(64 * i, 99, true)); // 100 instr per miss.
    }
    VectorTraceSource trace(entries);
    Core core(CoreConfig{}, 0, trace, port);
    DriveCore(core, port);
    EXPECT_NEAR(core.stats().Mpki(), 10.0, 0.5);
    EXPECT_GT(core.stats().Mcpi(), 0.5);
    EXPECT_NEAR(core.stats().Mcpi(),
                core.stats().AstPerRequest() * core.stats().Mpki() / 1000.0,
                0.2);
}

TEST(Core, OneMemoryOpFetchedPerCycle)
{
    MockPort port;
    port.read_latency = 1;
    std::vector<TraceEntry> entries;
    for (int i = 0; i < 9; ++i) {
        entries.push_back(Load(64 * i));
    }
    VectorTraceSource trace(entries);
    Core core(CoreConfig{}, 0, trace, port);
    core.Tick();
    // After one cycle, at most one memory op can have entered the window
    // (and hence at most one issue).
    EXPECT_LE(port.reads_seen, 1);
}

TEST(Core, DoneOnlyAfterDrain)
{
    MockPort port;
    port.read_latency = 30;
    VectorTraceSource trace({Load(0x40)});
    Core core(CoreConfig{}, 0, trace, port);
    core.Tick();
    EXPECT_FALSE(core.Done());
    DriveCore(core, port);
    EXPECT_TRUE(core.Done());
}

/** Every CoreStats field of @p a equals @p b's, or names the first that
 *  differs. */
::testing::AssertionResult
SameStats(const CoreStats& a, const CoreStats& b)
{
    static constexpr std::pair<const char*, std::uint64_t CoreStats::*>
        kFields[] = {
            {"cycles", &CoreStats::cycles},
            {"instructions", &CoreStats::instructions},
            {"load_stall_cycles", &CoreStats::load_stall_cycles},
            {"store_stall_cycles", &CoreStats::store_stall_cycles},
            {"loads_issued", &CoreStats::loads_issued},
            {"loads_completed", &CoreStats::loads_completed},
            {"stores_issued", &CoreStats::stores_issued},
        };
    for (const auto& [name, field] : kFields) {
        if (a.*field != b.*field) {
            return ::testing::AssertionFailure()
                   << name << " " << a.*field << " vs " << b.*field;
        }
    }
    return ::testing::AssertionSuccess();
}

void
ExpectSameStats(const CoreStats& a, const CoreStats& b)
{
    EXPECT_TRUE(SameStats(a, b));
}

TEST(Core, TickReportsProgressExactly)
{
    // One load, 20 cycles away: tick 1 fetches it and drains the trace,
    // tick 2 issues it, ticks 3-21 only stall, tick 22 commits the
    // returned load, and the done core never makes progress again.
    MockPort port;
    port.read_latency = 20;
    VectorTraceSource trace({Load(0x1000)});
    Core core(CoreConfig{}, 0, trace, port);
    std::vector<bool> progress;
    for (int i = 0; i < 40; ++i) {
        for (RequestId id : port.Tick()) {
            core.OnReadComplete(id);
        }
        progress.push_back(core.Tick());
    }
    std::vector<bool> expected(40, false);
    expected[0] = expected[1] = expected[21] = true;
    EXPECT_EQ(progress, expected);
    EXPECT_TRUE(core.Done());
    EXPECT_EQ(core.stats().load_stall_cycles, 20u);
}

TEST(Core, RejectedIssueIsNoProgressUntilThePortReopens)
{
    MockPort port;
    port.accept_reads = false;
    VectorTraceSource trace({Load(0x40)});
    Core core(CoreConfig{}, 0, trace, port);
    EXPECT_TRUE(core.Tick()); // Fetches the load and drains the trace.
    for (int i = 0; i < 10; ++i) {
        EXPECT_FALSE(core.Tick());
    }
    port.accept_reads = true;
    EXPECT_TRUE(core.Tick());
    EXPECT_EQ(core.stats().loads_issued, 1u);
}

/**
 * Drives two identical cores into a state where Tick() reports no
 * progress, then checks that @p n bulk-skipped cycles leave exactly the
 * stats of @p n more ticks (each of which must also report none).
 */
void
ExpectSkipMatchesTicks(const std::vector<TraceEntry>& entries,
                       const CoreConfig& config, MockPort port,
                       std::uint64_t n = 37)
{
    MockPort ticked_port = port;
    MockPort skipped_port = port;
    VectorTraceSource ticked_trace(entries);
    VectorTraceSource skipped_trace(entries);
    Core ticked(config, 0, ticked_trace, ticked_port);
    Core skipped(config, 0, skipped_trace, skipped_port);
    bool quiescent = false;
    for (int i = 0; i < 1000 && !quiescent; ++i) {
        for (RequestId id : ticked_port.Tick()) {
            ticked.OnReadComplete(id);
        }
        for (RequestId id : skipped_port.Tick()) {
            skipped.OnReadComplete(id);
        }
        quiescent = !ticked.Tick();
        EXPECT_EQ(skipped.Tick(), !quiescent);
    }
    ASSERT_TRUE(quiescent);
    for (std::uint64_t i = 0; i < n; ++i) {
        EXPECT_FALSE(ticked.Tick());
    }
    skipped.SkipQuiescentCycles(n);
    ExpectSameStats(ticked.stats(), skipped.stats());
}

TEST(Core, SkipMatchesTicksBehindAnOutstandingLoad)
{
    MockPort port;
    port.read_latency = 100000;
    ExpectSkipMatchesTicks({Load(0x1000, 7), Load(0x2000, 3)},
                           CoreConfig{}, port);
}

TEST(Core, SkipMatchesTicksBehindARejectedStore)
{
    MockPort port;
    port.accept_writes = false;
    ExpectSkipMatchesTicks({Store(0x1000, 4), Load(0x2000)}, CoreConfig{},
                           port);
}

TEST(Core, SkipMatchesTicksWithMshrsFull)
{
    MockPort port;
    port.read_latency = 100000;
    std::vector<TraceEntry> entries;
    for (int i = 0; i < 16; ++i) {
        entries.push_back(Load(64 * i, 2));
    }
    CoreConfig config;
    config.mshrs = 3;
    ExpectSkipMatchesTicks(entries, config, port);
}

TEST(Core, SkipMatchesTicksOnADoneCore)
{
    MockPort port;
    port.read_latency = 5;
    ExpectSkipMatchesTicks({Load(0x40, 11), Store(0x80, 2)}, CoreConfig{},
                           port);
}

TEST(Core, SleepingTwinMatchesTheTickingCore)
{
    // A twin that stops ticking after a tick without progress, and
    // catches up in bulk only when something reaches it (a read return,
    // or the port reopening), must end exactly where a core ticked on
    // every cycle ends: same stats, same requests, issued on the same
    // cycles.
    std::vector<TraceEntry> entries;
    for (int i = 0; i < 300; ++i) {
        TraceEntry e;
        e.compute_instructions = static_cast<std::uint32_t>((i * 7) % 23);
        e.addr = 64 * static_cast<Addr>(i);
        e.is_write = i % 3 == 0;
        e.depends_on_prev = i % 11 == 10;
        entries.push_back(e);
    }
    MockPort ticked_port;
    MockPort twin_port;
    ticked_port.read_latency = twin_port.read_latency = 61;
    VectorTraceSource ticked_trace(entries);
    VectorTraceSource twin_trace(entries);
    CoreConfig config;
    config.mshrs = 6;
    Core ticked(config, 0, ticked_trace, ticked_port);
    Core twin(config, 0, twin_trace, twin_port);

    bool awake = true;
    CpuCycle asleep_since = 0;
    std::uint64_t skipped = 0;
    auto wake = [&](CpuCycle now) {
        if (!awake) {
            twin.SkipQuiescentCycles(now - asleep_since);
            skipped += now - asleep_since;
            awake = true;
        }
    };
    CpuCycle now = 0;
    for (; now < 40000 && !ticked.Done(); ++now) {
        const bool reads = (now / 90) % 4 != 3;
        const bool writes = (now / 130) % 3 != 2;
        if ((reads && !twin_port.accept_reads) ||
            (writes && !twin_port.accept_writes)) {
            wake(now);
        }
        ticked_port.accept_reads = twin_port.accept_reads = reads;
        ticked_port.accept_writes = twin_port.accept_writes = writes;
        for (RequestId id : ticked_port.Tick()) {
            ticked.OnReadComplete(id);
        }
        for (RequestId id : twin_port.Tick()) {
            wake(now);
            twin.OnReadComplete(id);
        }
        ticked.Tick();
        if (awake && !twin.Tick()) {
            awake = false;
            asleep_since = now + 1;
        }
    }
    wake(now);
    ASSERT_TRUE(ticked.Done());
    EXPECT_TRUE(twin.Done());
    ExpectSameStats(ticked.stats(), twin.stats());
    EXPECT_EQ(ticked_port.reads_seen, twin_port.reads_seen);
    EXPECT_EQ(ticked_port.writes_seen, twin_port.writes_seen);
    // The twin really slept.
    EXPECT_GT(skipped, ticked.stats().cycles / 4);
}

/** One core with its own trace and port; pinned, since the core holds
 *  references to both. */
struct CoreRig {
    CoreRig(const std::vector<TraceEntry>& entries, const CoreConfig& config,
            const MockPort& port_template)
        : port(port_template), trace(entries), core(config, 0, trace, port)
    {
    }
    CoreRig(const CoreRig&) = delete;
    CoreRig& operator=(const CoreRig&) = delete;

    /** One cycle: due read returns reach the core, then it ticks. */
    bool
    Step()
    {
        for (RequestId id : port.Tick()) {
            core.OnReadComplete(id);
        }
        return core.Tick();
    }

    MockPort port;
    VectorTraceSource trace;
    Core core;
};

/** What RunTwins saw. */
struct TwinReport {
    /** (cycle, SteadyRun()) after each of the twin's ticks with a steady
     *  run ahead. */
    std::vector<std::pair<CpuCycle, std::uint64_t>> runs;
    /** Sleeps cut short by a read return, and ticks advanced in closed
     *  form. */
    std::uint64_t early_wakes = 0;
    std::uint64_t advanced = 0;
};

/**
 * Ticks one core on every cycle and a twin that sleeps through steady runs
 * the way the System does (DESIGN.md §5g, "Dormant cores"): after a tick
 * with k = SteadyRun() >= 1, the twin sleeps pick(i, k) <= k cycles (i
 * counts such ticks; 0 stays awake), and catches up with AdvanceSteady
 * when the sleep ends or, earlier, before a read return reaches it.  The
 * twin must equal the ticked core at every catch-up and after every tick,
 * and the two must issue the same requests on the same cycles.
 */
TwinReport
RunTwins(const std::vector<TraceEntry>& entries, const CoreConfig& config,
         const MockPort& port,
         const std::function<std::uint64_t(std::size_t, std::uint64_t)>&
             pick,
         CpuCycle cycles = 20000)
{
    CoreRig ticked(entries, config, port);
    CoreRig twin(entries, config, port);
    TwinReport report;
    bool asleep = false;
    CpuCycle since = 0;
    CpuCycle wake = 0;
    CpuCycle now = 0;
    for (; now < cycles && !ticked.core.Done(); ++now) {
        const std::vector<RequestId> ticked_ready = ticked.port.Tick();
        const std::vector<RequestId> twin_ready = twin.port.Tick();
        if (ticked_ready != twin_ready) {
            ADD_FAILURE() << "read returns diverged at cycle " << now;
            return report;
        }
        if (asleep && (now == wake || !twin_ready.empty())) {
            report.early_wakes += now < wake ? 1 : 0;
            report.advanced += now - since;
            twin.core.AdvanceSteady(now - since);
            asleep = false;
            const auto same = SameStats(ticked.core.stats(),
                                        twin.core.stats());
            if (!same) {
                ADD_FAILURE() << "catch-up at cycle " << now << ": "
                              << same.message();
                return report;
            }
        }
        for (RequestId id : ticked_ready) {
            ticked.core.OnReadComplete(id);
        }
        for (RequestId id : twin_ready) {
            twin.core.OnReadComplete(id);
        }
        const bool progress = ticked.core.Tick();
        if (asleep) {
            continue;
        }
        const bool twin_progress = twin.core.Tick();
        const auto same = SameStats(ticked.core.stats(), twin.core.stats());
        if (!same || progress != twin_progress ||
            ticked.port.reads_seen != twin.port.reads_seen ||
            ticked.port.writes_seen != twin.port.writes_seen) {
            ADD_FAILURE() << "tick at cycle " << now << " diverged: "
                          << same.message();
            return report;
        }
        const std::uint64_t run = twin.core.SteadyRun();
        if (run == 0) {
            continue;
        }
        EXPECT_TRUE(progress) << "steady run after a quiescent tick";
        report.runs.emplace_back(now, run);
        const std::uint64_t sleep = pick(report.runs.size() - 1, run);
        if (sleep > 0) {
            asleep = true;
            since = now + 1;
            wake = now + 1 + sleep;
        }
    }
    if (asleep) {
        // A flush point mid-sleep: only the elapsed ticks apply.
        twin.core.AdvanceSteady(now - since);
        report.advanced += now - since;
    }
    EXPECT_TRUE(SameStats(ticked.core.stats(), twin.core.stats()));
    EXPECT_EQ(ticked.core.Done(), twin.core.Done());
    EXPECT_EQ(ticked.port.reads_seen, twin.port.reads_seen);
    EXPECT_EQ(ticked.port.writes_seen, twin.port.writes_seen);
    return report;
}

/**
 * At the first tick of each of the first @p points steady runs, and for
 * every j <= k there: a twin advanced by j in closed form equals the core
 * ticked j times, and stays equal on every later tick.  @return k at
 * each run start.
 */
std::vector<std::uint64_t>
ExpectEveryRunLengthMatches(const std::vector<TraceEntry>& entries,
                            const CoreConfig& config, const MockPort& port,
                            std::size_t points, CpuCycle cycles = 4000)
{
    const auto runs = RunTwins(entries, config, port,
                               [](std::size_t, std::uint64_t) { return 0; },
                               cycles)
                          .runs;
    std::vector<std::uint64_t> starts;
    for (std::size_t point = 0;
         point < runs.size() && starts.size() < points; ++point) {
        if (point > 0 && runs[point].first == runs[point - 1].first + 1) {
            continue; // The same run, one tick on.
        }
        starts.push_back(runs[point].second);
        for (std::uint64_t j = 1; j <= runs[point].second; ++j) {
            SCOPED_TRACE("run at cycle " +
                         std::to_string(runs[point].first) + ", j=" +
                         std::to_string(j));
            RunTwins(
                entries, config, port,
                [&](std::size_t i, std::uint64_t) {
                    return i == point ? j : 0;
                },
                cycles);
            if (::testing::Test::HasFailure()) {
                return starts;
            }
        }
    }
    return starts;
}

TEST(Core, SteadyRunIsZeroWithAnUnissuedMemoryOp)
{
    // A load holds the head while compute fills the window behind it; a
    // store fetched meanwhile cannot enter the full write buffer.  Once
    // the load returns, commit has compute to chew through, but the store
    // waits in unissued_, so no tick is steady.
    MockPort port;
    port.read_latency = 40;
    port.accept_writes = false;
    VectorTraceSource trace({Load(0x0), Store(0x40, 60), Load(0x80, 3000)});
    Core core(CoreConfig{}, 0, trace, port);
    std::uint64_t committed_ticks = 0;
    for (int i = 0; i < 120; ++i) {
        for (RequestId id : port.Tick()) {
            core.OnReadComplete(id);
        }
        const std::uint64_t before = core.stats().instructions;
        core.Tick();
        committed_ticks += core.stats().instructions - before == 3 ? 1 : 0;
        EXPECT_EQ(core.SteadyRun(), 0u) << "tick " << i;
    }
    EXPECT_GT(committed_ticks, 10u);
    EXPECT_EQ(core.stats().stores_issued, 0u);
}

TEST(Core, SteadyRunIsZeroWithNoEntryInFetch)
{
    // The trace drained while the first load was out; once it returns,
    // compute commits at full width, but the next fetch would ask the
    // trace again.
    MockPort port;
    port.read_latency = 30;
    CoreRig rig({Load(0x0), Load(0x40, 20)}, CoreConfig{}, port);
    for (int i = 0; i < 33; ++i) {
        rig.Step();
    }
    ASSERT_EQ(rig.trace.Remaining(), 0u);
    ASSERT_EQ(rig.core.stats().loads_completed, 1u);
    EXPECT_EQ(rig.core.SteadyRun(), 0u);
    const std::uint64_t before = rig.core.stats().instructions;
    rig.Step();
    EXPECT_EQ(rig.core.stats().instructions - before, 3u);
}

TEST(Core, SteadyRunIsZeroBelowWidthOccupancy)
{
    // A two-slot window never holds a full commit group.
    MockPort port;
    VectorTraceSource trace({Load(0x0, 600)});
    CoreConfig config;
    config.window_size = 2;
    Core core(config, 0, trace, port);
    for (int i = 0; i < 20; ++i) {
        EXPECT_TRUE(core.Tick());
        EXPECT_EQ(core.SteadyRun(), 0u) << "tick " << i;
    }
}

TEST(Core, SteadyRunTurnsTheWindowOverAtWidthOccupancy)
{
    // From an empty window a 300-instruction entry keeps exactly `width`
    // instructions in flight: the first tick fetches 3, leaving 297 (a
    // multiple of the width), so 99 steady ticks follow, each turning the
    // whole window over; the 100th fetches the load.  The next entry's
    // run starts behind that load with 24 instructions in the window and
    // 275 left to fetch, so it rounds down to 91 ticks.
    const std::vector<TraceEntry> entries{Load(0x1000, 300),
                                          Load(0x2000, 301),
                                          Store(0x3000, 44)};
    MockPort port;
    port.read_latency = 7;
    const std::vector<std::uint64_t> starts =
        ExpectEveryRunLengthMatches(entries, CoreConfig{}, port, 3);
    ASSERT_GE(starts.size(), 2u);
    EXPECT_EQ(starts[0], 99u);
    EXPECT_EQ(starts[1], 91u);
}

TEST(Core, SteadyRunStopsAtALoadStillInFlight)
{
    // The first load returns at cycle 22, by when the window holds 58
    // compute instructions, the second load (never returning) and fetched
    // compute of the third entry: 19 steady ticks commit the 57
    // instructions a full group can reach, the 20th stalls on the load.
    MockPort port;
    port.read_latency = 20;
    port.latency_for[0x40] = 100000;
    const std::vector<TraceEntry> entries{Load(0x0), Load(0x40, 60),
                                          Load(0x80, 3000)};
    CoreRig rig(entries, CoreConfig{}, port);
    for (int i = 0; i < 22; ++i) {
        rig.Step();
    }
    EXPECT_EQ(rig.core.SteadyRun(), 19u);
    ExpectEveryRunLengthMatches(entries, CoreConfig{}, port, 4, 400);
}

TEST(Core, SteadyRunCommitsReturnedLoadsAndIssuedStores)
{
    // While the first load is out (until cycle 42), the window fills with
    // 10 compute, an issued store, 10 compute, a second load (back at
    // cycle 46), 40 compute, a third load (back at 63) and the last
    // entry's compute.  The run that starts at 42 commits through the
    // store and stops at the second load: 19 instructions, 6 ticks.  That
    // load returns 3 ticks in, so a twin sleeping longer wakes early,
    // catches up, and only then sees the return; later steady ticks
    // commit through the returned loads.
    MockPort port;
    port.read_latency = 40;
    port.latency_for[0x80] = 37;
    const std::vector<TraceEntry> entries{
        Load(0x0), Store(0x40, 10), Load(0x80, 10), Load(0xC0, 40),
        Load(0x100, 900)};
    const std::vector<std::uint64_t> starts =
        ExpectEveryRunLengthMatches(entries, CoreConfig{}, port, 2, 1500);
    ASSERT_EQ(starts.size(), 2u);
    EXPECT_EQ(starts[0], 6u);
    const TwinReport whole = RunTwins(
        entries, CoreConfig{}, port,
        [](std::size_t, std::uint64_t run) { return run; }, 1500);
    EXPECT_EQ(whole.early_wakes, 1u);
    EXPECT_GT(whole.advanced, 250u);
}

/** A random trace mixing short and long compute stretches, loads (some
 *  dependent, with latencies from a few cycles to hundreds), and stores;
 *  load latencies go into @p port. */
std::vector<TraceEntry>
RandomTrace(std::uint64_t seed, MockPort& port, int length = 400)
{
    std::mt19937_64 rng(seed);
    auto uniform = [&](std::uint64_t lo, std::uint64_t hi) {
        return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
    };
    std::vector<TraceEntry> entries;
    for (int i = 0; i < length; ++i) {
        TraceEntry e;
        const std::uint64_t shape = uniform(0, 9);
        e.compute_instructions = static_cast<std::uint32_t>(
            shape < 5 ? uniform(0, 12)
                      : (shape < 8 ? uniform(13, 150) : uniform(151, 900)));
        e.addr = 64 * static_cast<Addr>(i + 1);
        e.is_write = uniform(0, 3) == 0;
        e.depends_on_prev = uniform(0, 9) == 0;
        if (!e.is_write) {
            port.latency_for[e.addr] = uniform(0, 2) == 0
                                           ? uniform(2, 12)
                                           : uniform(30, 400);
        }
        entries.push_back(e);
    }
    return entries;
}

TEST(Core, ClosedFormTwinsMatchOnRandomTraces)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        MockPort port;
        const std::vector<TraceEntry> entries = RandomTrace(seed, port);
        CoreConfig config;
        config.mshrs = seed % 2 == 0 ? 6 : 32;
        config.width = seed % 3 == 0 ? 4 : 3;

        // Whole runs, then random lengths, then every length at the first
        // few runs.
        const TwinReport whole = RunTwins(
            entries, config, port,
            [](std::size_t, std::uint64_t run) { return run; }, 60000);
        ASSERT_FALSE(HasFailure());
        std::mt19937_64 rng(seed);
        const TwinReport partial = RunTwins(
            entries, config, port,
            [&](std::size_t, std::uint64_t run) {
                return std::uniform_int_distribution<std::uint64_t>(
                    0, run)(rng);
            },
            60000);
        ASSERT_FALSE(HasFailure());
        EXPECT_GT(whole.advanced, 1000u);
        EXPECT_GT(whole.early_wakes + partial.early_wakes, 0u);
        ExpectEveryRunLengthMatches(entries, config, port, 3);
        ASSERT_FALSE(HasFailure());
    }
}

TEST(Core, UnknownCompletionAborts)
{
    MockPort port;
    VectorTraceSource trace({Load(0x40)});
    Core core(CoreConfig{}, 0, trace, port);
    EXPECT_DEATH(core.OnReadComplete(12345), "unknown request");
}

TEST(Core, InvalidConfigRejected)
{
    MockPort port;
    VectorTraceSource trace({});
    CoreConfig config;
    config.window_size = 0;
    EXPECT_THROW(Core(config, 0, trace, port), ConfigError);
}

} // namespace
} // namespace parbs
