#include "fault/fault_injector.hh"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "mem/controller.hh"
#include "mem/ras.hh"
#include "mem/watchdog.hh"
#include "oracle/reference_system.hh"
#include "oracle/scan_checked.hh"
#include "sim/config.hh"
#include "sim/system.hh"
#include "test_util.hh"
#include "trace/file_trace.hh"
#include "trace/synthetic.hh"

namespace parbs {
namespace {

using test::ControllerHarness;

/** Cycles a scenario waits for its buffers to drain (RunUntilIdle). */
constexpr std::uint64_t kDrainBound = 50000;

/**
 * A scenario's oracle::CheckedHarness.  When it goes out of scope, by
 * return or by exception, it adds the picks its oracle confirmed to
 * @p tally.
 */
struct TalliedHarness : oracle::CheckedHarness {
    TalliedHarness(std::unique_ptr<Scheduler> scheduler,
                   std::uint32_t threads, const ControllerConfig& config,
                   const dram::TimingParams& timing, std::uint64_t& tally)
        : CheckedHarness(std::move(scheduler), config, timing, threads),
          tally(tally)
    {
    }

    ~TalliedHarness() { tally += oracle->picks_checked(); }

    std::uint64_t& tally;
};

std::unique_ptr<Scheduler>
Make(SchedulerKind kind)
{
    SchedulerConfig config;
    config.kind = kind;
    return MakeScheduler(config);
}

// --- User-fault scenarios (must raise ConfigError) -----------------------

void
RunMalformedTrace(Rng& rng)
{
    static const char* const kBadLines[] = {
        "R 0x1000",                      // missing instruction count
        "20 X 0x1000",                   // unknown access type
        "20 R",                          // missing address
        "abc R 0x1000",                  // non-numeric count
        "20 R zzz",                      // non-numeric address
        "99999999999999999999 R 0x20",   // count overflows uint64
        "5000000000 R 0x20",             // count overflows uint32
        "20 R 0x1000 Q",                 // bad trailing flag
        "20 R 0x1000 D D",               // duplicated flag
        "20R0x1000",                     // fused fields
        "0x R 0x1000",                   // bare hex prefix
    };
    std::ostringstream text;
    // Valid prefix lines so the reported line number matters.
    const std::uint64_t prefix = rng.NextBelow(3);
    for (std::uint64_t i = 0; i < prefix; ++i) {
        text << "10 R 0x" << std::hex << (0x1000 + i * 0x40) << std::dec
             << "\n";
    }
    text << kBadLines[rng.NextBelow(std::size(kBadLines))] << "\n";
    std::istringstream in(text.str());
    ParseTrace(in, "<fuzz>");
}

void
RunOutOfRangeAddress(Rng& rng)
{
    SystemConfig config;
    config.num_cores = 1;
    config.geometry.channels = 1;
    System system(config, {});
    const Addr capacity = config.geometry.CapacityBytes();
    const Addr addr = capacity + rng.NextBelow(1ULL << 30);
    if (rng.NextBool(0.5)) {
        system.TryIssueRead(0, addr);
    } else {
        system.TryIssueWrite(0, addr);
    }
}

void
RunBadTiming(Rng& rng)
{
    dram::TimingParams timing;
    switch (rng.NextBelow(6)) {
    case 0: timing.tCL = 0; break;
    case 1: timing.tRCD = 0; break;
    case 2: timing.tRP = 0; break;
    case 3: timing.tRAS = timing.tRCD - 1; break;
    case 4: timing.tBURST = 0; break;
    default: timing.tRFC = timing.tREFI + 1; break;
    }
    timing.Validate();
}

void
RunBadGeometry(Rng& rng)
{
    dram::Geometry geometry;
    switch (rng.NextBelow(6)) {
    case 0: geometry.banks_per_rank = 0; break;
    case 1: geometry.rows_per_bank = 6; break;   // not a power of two
    case 2: geometry.line_bytes = 48; break;     // row % line != 0
    case 3: geometry.channels = 32; break;       // beyond supported range
    case 4: geometry.rows_per_bank = 1u << 25; break;
    default: geometry.row_bytes = 1u << 17; break;
    }
    geometry.Validate();
}

void
RunBadControllerConfig(Rng& rng, std::uint64_t& picks)
{
    ControllerConfig config;
    switch (rng.NextBelow(6)) {
    case 0: config.read_queue_capacity = 0; break;
    case 1: config.write_queue_capacity = 0; break;
    case 2:
        config.write_drain_low = 40;
        config.write_drain_high = 20;
        break;
    case 3:
        config.write_drain_high = config.write_queue_capacity + 1;
        break;
    case 4:
        config.watchdog.enabled = true;
        config.watchdog.check_interval = 0;
        break;
    default:
        config.watchdog.enabled = true;
        config.watchdog.batch_bound_factor = -1.0;
        break;
    }
    if (rng.NextBool(0.5)) {
        config.Validate();
    } else {
        // The constructor path must reject it the same way.
        TalliedHarness x(Make(SchedulerKind::kFrFcfs), 2, config,
                         dram::TimingParams{}, picks);
    }
}

// --- Stress scenarios (must complete cleanly under the checker) ----------

/** Runs @p h until its buffers drain.  The checker throws on its first
 *  violation, so a stress scenario that drains is clean. */
void
Drain(ControllerHarness& h)
{
    h.RunUntilIdle(kDrainBound);
    if (h.controller().pending_reads() > 0 ||
        h.controller().pending_writes() > 0) {
        throw WatchdogError("stress scenario failed to drain");
    }
}

void
RandomTraffic(ControllerHarness& h, Rng& rng, std::uint32_t requests,
              std::uint32_t num_threads, double write_fraction)
{
    for (std::uint32_t i = 0; i < requests; ++i) {
        h.Enqueue(static_cast<ThreadId>(rng.NextBelow(num_threads)),
                  static_cast<std::uint32_t>(rng.NextBelow(8)),
                  static_cast<std::uint32_t>(rng.NextBelow(16)),
                  static_cast<std::uint32_t>(rng.NextBelow(32)),
                  rng.NextBool(write_fraction));
        if (rng.NextBool(0.3)) {
            h.Tick(rng.NextBelow(12));
        }
    }
    Drain(h);
}

void
RunRefreshStorm(Rng& rng, std::uint64_t& picks)
{
    ControllerConfig config;
    config.protocol_check = true;
    config.watchdog.enabled = true;
    // Refresh consumes most of the bandwidth here, so legitimate queueing
    // delays exceed the default starvation bound; scale it to match.
    config.watchdog.starvation_bound = 100000;
    dram::TimingParams timing;
    // Aggressive refresh: tRFC consumes up to ~40% of every period (a
    // tighter interval cannot even close a tRAS-bound row between
    // refreshes, so nothing would drain).
    timing.tREFI = timing.tRFC + 80 + rng.NextBelow(60);
    TalliedHarness x(Make(SchedulerKind::kFrFcfs), 4, config, timing, picks);
    RandomTraffic(x.h, rng, 30, 4, 0.2);
}

void
RunWritePressure(Rng& rng, std::uint64_t& picks)
{
    ControllerConfig config;
    config.protocol_check = true;
    config.watchdog.enabled = true;
    config.write_queue_capacity = 16;
    config.write_drain_high = 12;
    config.write_drain_low = 4;
    TalliedHarness x(Make(SchedulerKind::kFrFcfs), 4, config,
                     test::TestTiming(), picks);
    for (std::uint32_t burst = 0; burst < 6; ++burst) {
        // Pin the write buffer at capacity to force drain mode.
        while (x.h.controller().CanAcceptWrite()) {
            x.h.Enqueue(static_cast<ThreadId>(rng.NextBelow(4)),
                        static_cast<std::uint32_t>(rng.NextBelow(8)),
                        static_cast<std::uint32_t>(rng.NextBelow(16)),
                        static_cast<std::uint32_t>(rng.NextBelow(32)),
                        /*is_write=*/true);
        }
        x.h.Enqueue(static_cast<ThreadId>(rng.NextBelow(4)),
                    static_cast<std::uint32_t>(rng.NextBelow(8)),
                    static_cast<std::uint32_t>(rng.NextBelow(16)), 0,
                    /*is_write=*/false);
        x.h.Tick(20 + rng.NextBelow(100));
    }
    Drain(x.h);
}

void
RunSchedulerChaos(Rng& rng, std::uint64_t& picks)
{
    dram::TimingParams timing;
    if (!rng.NextBool(0.5)) {
        timing.tREFI = 0;
    }
    ControllerConfig config;
    config.protocol_check = true;
    config.watchdog.enabled = true;
    auto inner = Make(rng.NextBool(0.5) ? SchedulerKind::kParBs
                                        : SchedulerKind::kFrFcfs);
    auto chaos = std::make_unique<ChaosScheduler>(
        std::move(inner), rng.Next64(), 0.5 + rng.NextDouble() * 0.5);
    TalliedHarness x(std::move(chaos), 4, config, timing, picks);
    RandomTraffic(x.h, rng, 80, 4, 0.3);
}

// --- Model-fault scenarios (checker / watchdog must fire) ----------------

/**
 * Services ACTIVATE candidates first (oldest request as the tie-break).
 * API-legal but adversarial: it bunches row activations as tightly as the
 * device model permits, which is exactly where a corrupted tRRD or tFAW
 * register shows — FR-FCFS's row-hit preference paces activates too evenly
 * for the four-activate window to ever bind.
 */
class ActFirstScheduler : public Scheduler {
  public:
    std::string name() const override { return "act-first"; }

    MemRequest*
    Pick(std::span<const Candidate> candidates, DramCycle) override
    {
        const auto key = [](const Candidate& c) {
            return std::pair(c.next_command != dram::CommandType::kActivate,
                             c.request->id);
        };
        const auto best = std::min_element(
            candidates.begin(), candidates.end(),
            [&](const Candidate& a, const Candidate& b) {
                return key(a) < key(b);
            });
        return best == candidates.end() ? nullptr : best->request;
    }
};

/** One seeded device-timing corruption and traffic that exposes it. */
struct Corruption {
    const char* param;
    void (*corrupt)(dram::TimingParams&);
    void (*drive)(ControllerHarness&, Rng&);
    /** Drive with the activate-bunching scheduler instead of FR-FCFS. */
    bool act_first = false;
};

void
ConflictChain(ControllerHarness& h, Rng&)
{
    for (int i = 0; i < 12; ++i) {
        h.Enqueue(0, 2, (i % 2) != 0 ? 5 : 9);
    }
    h.RunUntilIdle(kDrainBound);
}

void
SequentialConflict(ControllerHarness& h, Rng&)
{
    // One request at a time, so FR-FCFS cannot reorder row hits ahead of
    // the conflicting row: the precharge lands right after the read, where
    // a shortened tRAS binds.
    for (std::uint32_t round = 0; round < 4; ++round) {
        h.Enqueue(0, 4, 2 * round);
        h.Tick(8);
        h.Enqueue(0, 4, 2 * round + 1);
        h.RunUntilIdle(kDrainBound);
    }
}

void
RowHitRunThenConflict(ControllerHarness& h, Rng&)
{
    for (std::uint32_t c = 0; c < 8; ++c) {
        h.Enqueue(0, 1, 7, c);
    }
    h.Enqueue(0, 1, 8);
    h.RunUntilIdle(kDrainBound);
}

void
RowHitRun(ControllerHarness& h, Rng&)
{
    for (std::uint32_t c = 0; c < 10; ++c) {
        h.Enqueue(0, 1, 7, c);
    }
    h.RunUntilIdle(kDrainBound);
}

void
ActivateBurst(ControllerHarness& h, Rng&)
{
    for (int round = 0; round < 3; ++round) {
        for (std::uint32_t bank = 0; bank < 8; ++bank) {
            h.Enqueue(0, bank, 3 + bank + round);
        }
        h.RunUntilIdle(kDrainBound);
    }
}

void
WriteThenPrecharge(ControllerHarness& h, Rng&)
{
    for (int round = 0; round < 4; ++round) {
        for (std::uint32_t c = 0; c < 6; ++c) {
            h.Enqueue(0, 3, 10, c, /*is_write=*/true);
        }
        h.RunUntilIdle(kDrainBound);
        // The conflicting row forces a precharge right after the last
        // write burst, where tWR binds.
        h.Enqueue(0, 3, 11 + round);
        h.RunUntilIdle(kDrainBound);
    }
}

void
WriteReadTurnaround(ControllerHarness& h, Rng& rng)
{
    // Open both rows so later accesses are pure column commands.
    h.Enqueue(0, 0, 4);
    h.Enqueue(0, 1, 6);
    h.RunUntilIdle(kDrainBound);
    for (int phase = 0; phase < 10; ++phase) {
        for (std::uint32_t c = 0; c < 3; ++c) {
            h.Enqueue(0, 0, 4, c, /*is_write=*/true);
        }
        h.Tick(1 + rng.NextBelow(8));
        h.Enqueue(0, 1, 6, static_cast<std::uint32_t>(phase));
        h.RunUntilIdle(kDrainBound);
    }
}

const Corruption kCorruptions[] = {
    {"tRP", [](dram::TimingParams& t) { t.tRP = 2; }, ConflictChain},
    {"tRCD", [](dram::TimingParams& t) { t.tRCD = 2; }, ConflictChain},
    {"tRAS", [](dram::TimingParams& t) { t.tRAS = t.tRCD; },
     SequentialConflict},
    {"tWR", [](dram::TimingParams& t) { t.tWR = 1; }, WriteThenPrecharge},
    {"tWTR", [](dram::TimingParams& t) { t.tWTR = 0; }, WriteReadTurnaround},
    {"tRRD", [](dram::TimingParams& t) { t.tRRD = 1; }, ActivateBurst,
     /*act_first=*/true},
    {"tFAW", [](dram::TimingParams& t) { t.tFAW = t.tRRD; }, ActivateBurst,
     /*act_first=*/true},
    {"tRTP", [](dram::TimingParams& t) { t.tRTP = 1; }, RowHitRunThenConflict},
    {"tBURST", [](dram::TimingParams& t) { t.tBURST = 2; }, RowHitRun},
};

/** Raised when a seeded corruption escapes detection (always a failure —
 *  classified as an unexpected exception, with the parameter named). */
struct UncaughtCorruption : std::runtime_error {
    explicit UncaughtCorruption(const std::string& param)
        : std::runtime_error("timing corruption of " + param +
                             " escaped the protocol checker")
    {
    }
};

void
RunTimingCorruption(Rng& rng, std::uint64_t& picks)
{
    const Corruption& corruption =
        kCorruptions[rng.NextBelow(std::size(kCorruptions))];
    // What the model will (wrongly) enforce, and what the checker
    // validates against.
    dram::TimingParams device = test::TestTiming();
    const dram::TimingParams reference = test::TestTiming();
    corruption.corrupt(device);
    device.Validate(); // the corruption must be plausible, not rejected
    TalliedHarness x(corruption.act_first
                         ? std::make_unique<ActFirstScheduler>()
                         : Make(SchedulerKind::kFrFcfs),
                     2, ControllerConfig{}, device, picks);
    x.h.controller().EnableProtocolCheck(reference);
    corruption.drive(x.h, rng);
    // Reaching this point means the corruption escaped the checker.
    throw UncaughtCorruption(corruption.param);
}

void
RunServiceWithholding(Rng& rng, std::uint64_t& picks)
{
    ControllerConfig config;
    config.watchdog.enabled = true;
    config.watchdog.starvation_bound = 1500;
    TalliedHarness x(std::make_unique<WithholdingScheduler>(
                         Make(SchedulerKind::kFrFcfs), /*victim=*/0),
                     2, config, test::TestTiming(), picks);
    for (std::uint32_t i = 0; i < 4; ++i) {
        x.h.Enqueue(0, static_cast<std::uint32_t>(rng.NextBelow(8)),
                    static_cast<std::uint32_t>(rng.NextBelow(16)));
    }
    const bool background = rng.NextBool(0.5);
    for (int step = 0; step < 4000; ++step) {
        // With background traffic the starvation bound trips; without it
        // the no-progress bound trips.  Both are WatchdogError.
        if (background && step % 30 == 0 && x.h.controller().CanAcceptRead()) {
            x.h.Enqueue(1, static_cast<std::uint32_t>(rng.NextBelow(8)),
                        static_cast<std::uint32_t>(rng.NextBelow(16)));
        }
        x.h.Tick();
    }
}

// --- RAS scenarios (mem/ras.hh) ------------------------------------------

/** Raised when a RAS scenario's own sanity check fails (always kOther). */
struct RasSelfCheckFailure : std::runtime_error {
    explicit RasSelfCheckFailure(const std::string& what)
        : std::runtime_error("RAS self-check: " + what)
    {
    }
};

/**
 * A multi-channel System under a heavy transient ECC error shower: every
 * error must be corrected or recovered by retry, the run must drain
 * cleanly, and (self-check) the error rate is high enough that observing
 * zero ECC events would itself prove the error model broken.  Each
 * channel's picks run under the scan oracle, and the per-cycle reference
 * loop must produce the same stats report.
 */
void
RunTransientBitErrors(Rng& rng, const FaultOptions& options,
                      std::uint64_t& picks)
{
    SystemConfig config = SystemConfig::Baseline(8); // 2 channels
    config.scheduler.kind = options.scheduler;
    config.channel_jobs = options.channel_jobs;
    config.seed = 1 + rng.NextBelow(1ULL << 32);
    config.controller.protocol_check = true;
    config.controller.watchdog.enabled = true;
    config.controller.ras.enabled = true;
    // With >= 1% of reads erroring over thousands of reads, a clean-run
    // self-check failure is astronomically unlikely unless the model or
    // the recovery path is broken.
    config.controller.ras.transient_error_rate =
        0.01 + rng.NextDouble() * 0.04;
    config.controller.ras.transient_uncorrectable =
        0.05 + rng.NextDouble() * 0.25;
    if (rng.NextBool(0.5)) {
        config.controller.ras.scrub_interval = 2048 + rng.NextBelow(4096);
    }

    std::vector<std::uint64_t> trace_seeds;
    for (ThreadId t = 0; t < config.num_cores; ++t) {
        trace_seeds.push_back(rng.Next64());
    }
    const dram::AddressMapper mapper(config.geometry, config.xor_bank_hash);
    const auto traces = [&] {
        SyntheticParams params;
        params.mpki = 25.0;
        std::vector<std::unique_ptr<TraceSource>> out;
        for (ThreadId t = 0; t < config.num_cores; ++t) {
            out.push_back(std::make_unique<SyntheticTraceSource>(
                params, mapper, t, config.num_cores, trace_seeds[t]));
        }
        return out;
    };
    constexpr CpuCycle kCycles = 150000;

    SystemConfig checked = config;
    oracle::InstallScanOracle(checked);
    System system(checked, traces());
    const std::vector<oracle::ScanChecked*> oracles =
        oracle::BindScanOracles(system);
    system.Run(kCycles);
    for (const oracle::ScanChecked* oracle : oracles) {
        picks += oracle->picks_checked();
    }

    oracle::ReferenceSystem reference(config, traces());
    reference.Run(kCycles);
    std::ostringstream expected;
    std::ostringstream actual;
    reference.DumpStats(expected);
    system.DumpStats(actual);
    if (expected.str() != actual.str()) {
        throw std::logic_error("reference oracle: the System's stats report "
                               "differs from the per-cycle loop's");
    }

    std::uint64_t events = 0;
    for (std::uint32_t channel = 0; channel < config.geometry.channels;
         ++channel) {
        const RasEngine* ras = system.controller(channel).ras();
        if (ras == nullptr) {
            throw RasSelfCheckFailure("RAS engine missing on channel " +
                                      std::to_string(channel));
        }
        events += ras->stats().corrected + ras->stats().uncorrectable;
    }
    if (events == 0) {
        throw RasSelfCheckFailure(
            "no ECC events despite a >= 1% per-read error rate");
    }
}

/**
 * Every row stuck-at: demand reads to more distinct rows than the remap
 * table holds must retire rows until the table fills and the next
 * retirement surfaces as a structured MachineCheckError.
 */
void
RunStuckRowExhaustion(Rng& rng, const FaultOptions& options,
                      std::uint64_t& picks)
{
    ControllerConfig config;
    config.ras.enabled = true;
    config.ras.stuck_row_fraction = 1.0;
    config.ras.seed = 1 + rng.NextBelow(1ULL << 32);
    config.ras.retry_budget = 1 + rng.NextBelow(3);
    config.ras.remap_capacity = rng.NextBelow(3);
    TalliedHarness x(Make(options.scheduler), 2, config, test::TestTiming(),
                     picks);
    // remap_capacity + 1 distinct rows guarantee exhaustion: each stuck
    // row burns one remap slot after its retry budget runs out.
    const std::uint32_t rows = config.ras.remap_capacity + 1;
    for (std::uint32_t i = 0; i < rows; ++i) {
        x.h.Enqueue(static_cast<ThreadId>(i % 2),
                    static_cast<std::uint32_t>(rng.NextBelow(8)), 100 + i);
    }
    x.h.RunUntilIdle(200000);
    throw RasSelfCheckFailure(
        "stuck rows exhausted no remap capacity (machine check expected)");
}

/**
 * Patrol scrub at the minimum interval under demand traffic, with the
 * watchdog and protocol checker armed: the storm must neither starve
 * demand nor violate device timing, and (self-check) must actually issue
 * scrub reads once the queues drain.
 */
void
RunScrubStorm(Rng& rng, const FaultOptions& options, std::uint64_t& picks)
{
    dram::TimingParams timing;
    if (!rng.NextBool(0.5)) {
        timing.tREFI = 0;
    }
    ControllerConfig config;
    config.protocol_check = true;
    config.watchdog.enabled = true;
    config.ras.enabled = true;
    config.ras.seed = 1 + rng.NextBelow(1ULL << 32);
    config.ras.scrub_interval = 1;
    config.ras.scrub_demote_reads = 1 + rng.NextBelow(16);
    TalliedHarness x(Make(options.scheduler), 4, config, timing, picks);
    RandomTraffic(x.h, rng, 40, 4, 0.25);
    // Idle tail: with the queues empty every cycle belongs to the scrub.
    x.h.Tick(2000);
    const RasEngine* ras = x.h.controller().ras();
    if (ras == nullptr || ras->stats().scrub_reads == 0) {
        throw RasSelfCheckFailure(
            "scrub storm issued no patrol reads during idle cycles");
    }
}

std::string
FirstLine(const char* what)
{
    const std::string text(what);
    const std::size_t newline = text.find('\n');
    return newline == std::string::npos ? text : text.substr(0, newline);
}

} // namespace

const char*
FaultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::kMalformedTrace: return "malformed-trace";
    case FaultKind::kOutOfRangeAddress: return "out-of-range-address";
    case FaultKind::kBadTiming: return "bad-timing";
    case FaultKind::kBadGeometry: return "bad-geometry";
    case FaultKind::kBadControllerConfig: return "bad-controller-config";
    case FaultKind::kRefreshStorm: return "refresh-storm";
    case FaultKind::kWritePressure: return "write-pressure";
    case FaultKind::kSchedulerChaos: return "scheduler-chaos";
    case FaultKind::kTimingCorruption: return "timing-corruption";
    case FaultKind::kServiceWithholding: return "service-withholding";
    case FaultKind::kTransientBitErrors: return "transient-bit-errors";
    case FaultKind::kStuckRow: return "stuck-row";
    case FaultKind::kScrubStorm: return "scrub-storm";
    }
    return "?";
}

const char*
DefenseName(Defense defense)
{
    switch (defense) {
    case Defense::kNone: return "clean";
    case Defense::kConfigError: return "config-error";
    case Defense::kProtocolError: return "protocol-error";
    case Defense::kWatchdogError: return "watchdog-error";
    case Defense::kMachineCheck: return "machine-check";
    case Defense::kOther: return "unexpected-exception";
    }
    return "?";
}

Defense
FaultInjector::ExpectedDefense(FaultKind kind)
{
    switch (kind) {
    case FaultKind::kMalformedTrace:
    case FaultKind::kOutOfRangeAddress:
    case FaultKind::kBadTiming:
    case FaultKind::kBadGeometry:
    case FaultKind::kBadControllerConfig:
        return Defense::kConfigError;
    case FaultKind::kRefreshStorm:
    case FaultKind::kWritePressure:
    case FaultKind::kSchedulerChaos:
    case FaultKind::kTransientBitErrors:
    case FaultKind::kScrubStorm:
        return Defense::kNone;
    case FaultKind::kTimingCorruption:
        return Defense::kProtocolError;
    case FaultKind::kServiceWithholding:
        return Defense::kWatchdogError;
    case FaultKind::kStuckRow:
        return Defense::kMachineCheck;
    }
    return Defense::kOther;
}

FaultInjector::FaultInjector(std::uint64_t master_seed)
    : master_seed_(master_seed)
{
}

FaultOutcome
FaultInjector::RunScenario(std::uint64_t index, const FaultOptions& options)
{
    FaultOutcome outcome;
    outcome.index = index;
    outcome.kind = static_cast<FaultKind>(index % kNumFaultKinds);
    outcome.expected = ExpectedDefense(outcome.kind);
    Rng rng(master_seed_ + 0x9e3779b97f4a7c15ULL * (index + 1));
    std::uint64_t& picks = outcome.picks_checked;
    try {
        switch (outcome.kind) {
        case FaultKind::kMalformedTrace: RunMalformedTrace(rng); break;
        case FaultKind::kOutOfRangeAddress: RunOutOfRangeAddress(rng); break;
        case FaultKind::kBadTiming: RunBadTiming(rng); break;
        case FaultKind::kBadGeometry: RunBadGeometry(rng); break;
        case FaultKind::kBadControllerConfig:
            RunBadControllerConfig(rng, picks);
            break;
        case FaultKind::kRefreshStorm: RunRefreshStorm(rng, picks); break;
        case FaultKind::kWritePressure: RunWritePressure(rng, picks); break;
        case FaultKind::kSchedulerChaos: RunSchedulerChaos(rng, picks); break;
        case FaultKind::kTimingCorruption:
            RunTimingCorruption(rng, picks);
            break;
        case FaultKind::kServiceWithholding:
            RunServiceWithholding(rng, picks);
            break;
        case FaultKind::kTransientBitErrors:
            RunTransientBitErrors(rng, options, picks);
            break;
        case FaultKind::kStuckRow:
            RunStuckRowExhaustion(rng, options, picks);
            break;
        case FaultKind::kScrubStorm:
            RunScrubStorm(rng, options, picks);
            break;
        }
        outcome.observed = Defense::kNone;
    } catch (const ConfigError& error) {
        outcome.observed = Defense::kConfigError;
        outcome.detail = FirstLine(error.what());
    } catch (const dram::ProtocolError& error) {
        outcome.observed = Defense::kProtocolError;
        outcome.detail = FirstLine(error.what());
    } catch (const WatchdogError& error) {
        outcome.observed = Defense::kWatchdogError;
        outcome.detail = FirstLine(error.what());
    } catch (const MachineCheckError& error) {
        outcome.observed = Defense::kMachineCheck;
        outcome.detail = FirstLine(error.what());
    } catch (const std::exception& error) {
        // Includes the oracles' disagreements.
        outcome.observed = Defense::kOther;
        outcome.detail = FirstLine(error.what());
    }
    return outcome;
}

// --- ChaosScheduler ------------------------------------------------------

ChaosScheduler::ChaosScheduler(std::unique_ptr<Scheduler> inner,
                               std::uint64_t seed, double chaos)
    : ForwardingScheduler(std::move(inner)), rng_(seed), chaos_(chaos)
{
}

std::string
ChaosScheduler::name() const
{
    return "chaos(" + inner().name() + ")";
}

MemRequest*
ChaosScheduler::Pick(std::span<const Candidate> candidates, DramCycle now)
{
    if (!candidates.empty() && rng_.NextBool(chaos_)) {
        return candidates[rng_.NextBelow(candidates.size())].request;
    }
    return Inner().Pick(candidates, now);
}

// --- WithholdingScheduler ------------------------------------------------

WithholdingScheduler::WithholdingScheduler(std::unique_ptr<Scheduler> inner,
                                           ThreadId victim)
    : ForwardingScheduler(std::move(inner)), victim_(victim)
{
}

std::string
WithholdingScheduler::name() const
{
    return "withholding(" + inner().name() + ")";
}

MemRequest*
WithholdingScheduler::Pick(std::span<const Candidate> candidates,
                           DramCycle now)
{
    filtered_.clear();
    for (const Candidate& candidate : candidates) {
        if (candidate.request->thread != victim_) {
            filtered_.push_back(candidate);
        }
    }
    if (filtered_.empty()) {
        return nullptr;
    }
    return Inner().Pick(filtered_, now);
}

} // namespace parbs
