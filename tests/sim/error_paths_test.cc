/** @file User configuration faults must raise ConfigError with context. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/assert.hh"
#include "dram/timing.hh"
#include "mem/controller.hh"
#include "sim/config.hh"
#include "sim/system.hh"
#include "trace/trace.hh"

namespace parbs {
namespace {

TEST(ErrorPaths, ControllerRejectsZeroCapacityQueues)
{
    ControllerConfig config;
    config.read_queue_capacity = 0;
    EXPECT_THROW(config.Validate(), ConfigError);

    config = ControllerConfig{};
    config.write_queue_capacity = 0;
    EXPECT_THROW(config.Validate(), ConfigError);
}

TEST(ErrorPaths, ControllerRejectsInvertedDrainWatermarks)
{
    ControllerConfig config;
    config.write_drain_low = 60;
    config.write_drain_high = 40;
    EXPECT_THROW(config.Validate(), ConfigError);

    config = ControllerConfig{};
    config.write_drain_high = config.write_queue_capacity + 1;
    EXPECT_THROW(config.Validate(), ConfigError);
}

TEST(ErrorPaths, GeometryRejectsOversizedShapes)
{
    dram::Geometry geometry;
    geometry.channels = 32;
    EXPECT_THROW(geometry.Validate(), ConfigError);

    geometry = dram::Geometry{};
    geometry.ranks_per_channel = 32;
    EXPECT_THROW(geometry.Validate(), ConfigError);

    geometry = dram::Geometry{};
    geometry.banks_per_rank = 128;
    EXPECT_THROW(geometry.Validate(), ConfigError);

    geometry = dram::Geometry{};
    geometry.rows_per_bank = 1u << 25;
    EXPECT_THROW(geometry.Validate(), ConfigError);

    geometry = dram::Geometry{};
    geometry.row_bytes = 128 * 1024;
    EXPECT_THROW(geometry.Validate(), ConfigError);
}

TEST(ErrorPaths, GeometryErrorNamesTheOffendingValue)
{
    dram::Geometry geometry;
    geometry.channels = 32;
    try {
        geometry.Validate();
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& error) {
        EXPECT_NE(std::string(error.what()).find("channels=32"),
                  std::string::npos)
            << error.what();
    }
}

TEST(ErrorPaths, SystemConfigValidateCoversTheController)
{
    SystemConfig config = SystemConfig::Baseline(4);
    config.controller.read_queue_capacity = 0;
    EXPECT_THROW(config.Validate(), ConfigError);
}

TEST(ErrorPaths, SystemRejectsOutOfRangeAddresses)
{
    SystemConfig config = SystemConfig::Baseline(4);
    config.Validate();
    System system(config, {});
    const std::uint64_t capacity = config.geometry.CapacityBytes();

    // The last valid line is accepted; one byte past capacity is not.
    EXPECT_NO_THROW(system.TryIssueRead(0, capacity - 1));
    EXPECT_THROW(system.TryIssueRead(0, capacity), ConfigError);
    EXPECT_THROW(system.TryIssueWrite(0, capacity + 4096), ConfigError);

    try {
        system.TryIssueRead(0, capacity);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& error) {
        // The message points the user at the geometry, not at internals.
        EXPECT_NE(std::string(error.what()).find("geometry"),
                  std::string::npos)
            << error.what();
    }
}

TEST(ErrorPaths, AddressErrorMidRunLeavesCoreStatsSound)
{
    // Core 0 drains its empty trace on cycle 0 and falls asleep on cycle 1,
    // the cycle core 1 issues an address past capacity.  Run unwinds from
    // the middle of that sweep and wakes every core on the way out; the
    // sleeper must keep the two ticks it ran, not lose one to the clock.
    SystemConfig config = SystemConfig::Baseline(4);
    const Addr bad = config.geometry.CapacityBytes();
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(
        std::make_unique<VectorTraceSource>(std::vector<TraceEntry>{}));
    traces.push_back(std::make_unique<VectorTraceSource>(
        std::vector<TraceEntry>{{0, bad, false, false}}));
    System system(config, std::move(traces));
    EXPECT_THROW(system.Run(100), ConfigError);
    EXPECT_EQ(system.now(), 1u);
    EXPECT_EQ(system.core(0).stats().cycles, 2u);
    EXPECT_EQ(system.core(1).stats().cycles, 2u);
}

} // namespace
} // namespace parbs
