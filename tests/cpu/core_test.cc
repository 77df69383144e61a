/** @file Tests for the processor core model: in-order commit, stalls,
 *  memory-level parallelism (the Figure 1/2 behaviours), MSHRs, stores. */

#include <gtest/gtest.h>

#include <map>

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
        pending[id] = {addr, now + read_latency};
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

/** Every CoreStats field of @p a equals @p b's. */
void
ExpectSameStats(const CoreStats& a, const CoreStats& b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.load_stall_cycles, b.load_stall_cycles);
    EXPECT_EQ(a.store_stall_cycles, b.store_stall_cycles);
    EXPECT_EQ(a.loads_issued, b.loads_issued);
    EXPECT_EQ(a.loads_completed, b.loads_completed);
    EXPECT_EQ(a.stores_issued, b.stores_issued);
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
