/**
 * @file
 * Whole-system configuration: the paper's Table 2 baseline and its 4/8/16
 * core variants (DRAM channels scale with cores: 1, 2, 4 channels).
 */

#ifndef PARBS_SIM_CONFIG_HH
#define PARBS_SIM_CONFIG_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "cpu/core.hh"
#include "dram/timing.hh"
#include "mem/controller.hh"
#include "obs/observability.hh"
#include "sched/factory.hh"

namespace parbs {

// GCC reports a deprecated field at every implicitly defined copy or move
// of its struct; only explicit uses of the field should warn.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"

/** Complete CMP + memory-system configuration. */
struct SystemConfig {
    std::uint32_t num_cores = 4;
    /** CPU cycles per DRAM command-clock cycle (4 GHz vs DDR2-800). */
    std::uint32_t cpu_to_dram_ratio = 10;

    dram::TimingParams timing;
    dram::Geometry geometry;
    ControllerConfig controller;
    CoreConfig core;
    SchedulerConfig scheduler;

    /**
     * Extension point: when set, the System builds each channel's
     * scheduler by calling this factory instead of consulting `scheduler`,
     * so user-defined Scheduler subclasses plug in without being
     * registered (see examples/custom_scheduler.cpp).
     */
    std::function<std::unique_ptr<Scheduler>()> scheduler_factory;

    /** XOR-based address-to-bank mapping (Table 2 baseline). */
    bool xor_bank_hash = true;

    /** Event tracing / time-series sampling / latency anatomy (off by
     *  default: disabled observability is a null-pointer check per site). */
    obs::ObservabilityConfig observability;

    /**
     * Intra-run parallelism: the channel team's size, i.e. the threads
     * advancing the memory controllers inside one System::Run (DESIGN.md
     * §5g).  1 runs every lookahead window inline on the calling thread;
     * 0 means min(channels, HardwareJobs()), so the default never
     * oversubscribes the machine; values above the channel count are
     * clamped (a single-channel system always runs one participant).
     * Results are bit-identical for every value — the team changes only
     * which thread executes a controller's ticks, never their order or
     * inputs — so this is purely a wall-clock knob.
     */
    unsigned channel_jobs = 1;

    /** Ignored: the sharded engine always sweeps the cores serially.
     *  Kept only so the perf ledger (bench/ledger/) still compiles;
     *  removed with the ledger's next update. */
    [[deprecated("ignored; the core sweep is always serial")]]
    unsigned core_jobs = 0;

    /**
     * Fixed latency added to every read completion before the core sees the
     * data, in CPU cycles: L2 miss handling, the on-chip interconnect, and
     * the controller pipeline.  60 cycles reproduces the paper's Table 2
     * uncontended round trips (row hit 160, closed 240, conflict 320 CPU
     * cycles) on top of the pure DRAM timing.
     */
    std::uint32_t extra_read_latency_cpu = 60;

    /** Master seed; all simulator randomness derives from it. */
    std::uint64_t seed = 1;

    /** @throws ConfigError if any component is invalid. */
    void Validate() const;

    /**
     * The paper's baseline for @p cores cores (4, 8, or 16): DDR2-800
     * timing, 8 banks, 2 KB rows, and cores/4 memory channels.  Beyond 64
     * cores the channel count saturates at the geometry maximum (16) and
     * capacity instead scales by adding ranks per channel, so 128- and
     * 256-core baselines stay valid geometries.
     */
    static SystemConfig Baseline(std::uint32_t cores);

    /**
     * Baseline with an explicit channel count (must be a power of two,
     * 1..16).  Ranks per channel scale as max(1, cores / (4 * channels)),
     * keeping one bank group per 4 cores of the paper's ratio; the
     * one-argument overload picks channels = clamp(cores / 4, 1, 16).
     */
    static SystemConfig Baseline(std::uint32_t cores, std::uint32_t channels);
};

#pragma GCC diagnostic pop

/**
 * The PARBS_CHECK contract shared by every bench binary: when the
 * environment variable is set to anything but empty or "0", turns on the
 * shadow protocol checker (ControllerConfig::protocol_check) for @p config.
 * Selection exactness is not a run-time check; the test suite's scan
 * oracle covers it.
 */
void ApplyCheckEnvironment(SystemConfig& config);

} // namespace parbs

#endif // PARBS_SIM_CONFIG_HH
