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
