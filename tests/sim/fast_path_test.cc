/**
 * @file
 * Exactness tests for the controller's next-event fast path and indexed
 * selection in a whole System: every DRAM cycle of a 4-core run is checked
 * by the scan oracle (tests/oracle/scan_checked.hh), for every scheduler
 * in the factory registry.  A skipped cycle that had a ready pick, or any
 * pick that differs from the exhaustive per-cycle scan, throws; the
 * oracle itself must not change a single measurement.
 */

#include <gtest/gtest.h>

#include "oracle/scan_checked.hh"
#include "sched/factory.hh"
#include "sim/system.hh"
#include "trace/synthetic.hh"

namespace parbs {
namespace {

std::vector<std::unique_ptr<TraceSource>>
SyntheticTraces(const SystemConfig& config, std::uint32_t count,
                double mpki = 20.0)
{
    dram::AddressMapper mapper(config.geometry, config.xor_bank_hash);
    std::vector<std::unique_ptr<TraceSource>> traces;
    for (ThreadId t = 0; t < count; ++t) {
        SyntheticParams params;
        params.mpki = mpki;
        traces.push_back(std::make_unique<SyntheticTraceSource>(
            params, mapper, t, count, 1000 + t));
    }
    return traces;
}

/** Everything observable about a run, plus what the oracle saw. */
struct CheckedRun {
    std::vector<std::uint64_t> fingerprint;
    std::uint64_t ticks = 0;        ///< select scans + skips, all channels
    std::uint64_t skips = 0;
    std::uint64_t cycles_checked = 0;
    std::uint64_t picks_checked = 0;
    oracle::ScanSchedule schedule;
};

CheckedRun
RunSystem(SchedulerKind kind, double mpki, bool oracle,
          bool protocol_check = false)
{
    SystemConfig config = SystemConfig::Baseline(4);
    config.scheduler.kind = kind;
    config.controller.protocol_check = protocol_check;
    if (oracle) {
        oracle::InstallScanOracle(config);
    }
    System system(config, SyntheticTraces(config, 4, mpki));
    std::vector<oracle::ScanChecked*> oracles;
    if (oracle) {
        oracles = oracle::BindScanOracles(system);
    }
    system.Run(200000);

    CheckedRun out;
    for (ThreadId t = 0; t < 4; ++t) {
        const ThreadMeasurement m = system.Measure(t);
        out.fingerprint.push_back(m.requests);
        out.fingerprint.push_back(m.instructions);
        out.fingerprint.push_back(m.worst_case_latency);
        out.fingerprint.push_back(
            static_cast<std::uint64_t>(m.row_hit_rate * 1e12));
        out.fingerprint.push_back(static_cast<std::uint64_t>(m.blp * 1e12));
    }
    for (std::uint32_t c = 0; c < system.num_controllers(); ++c) {
        const Controller& controller = system.controller(c);
        for (dram::CommandType type :
             {dram::CommandType::kActivate, dram::CommandType::kPrecharge,
              dram::CommandType::kRead, dram::CommandType::kWrite}) {
            out.fingerprint.push_back(controller.commands_issued(type));
        }
        const Controller::FastPathStats& fast = controller.fast_path_stats();
        out.ticks += fast.select_scans + fast.select_skips;
        out.skips += fast.select_skips;
        out.schedule += controller;
    }
    for (const oracle::ScanChecked* checked : oracles) {
        out.cycles_checked += checked->cycles_checked();
        out.picks_checked += checked->picks_checked();
    }
    return out;
}

/**
 * RunSystem's scan schedule per scheduler (AllSchedulerKinds() order) at
 * mpki 20 and 2: select scans, select skips, pick-memo hits, misses and
 * invalidations.  The oracle checks picks; these pin when the controller
 * scans and which banks reach PickInBank, which an early skip-ahead bound
 * or a loose bank prefilter changes without changing a pick.
 */
const oracle::ScanSchedule kExpectedSchedule[][2] = {
    // FCFS
    {{18341, 1615, 38808, 13993, 0}, {9856, 10091, 15287, 5746, 0}},
    // FR-FCFS
    {{18891, 1060, 68989, 12425, 0}, {9767, 10179, 16590, 5479, 0}},
    // NFQ
    {{18579, 1374, 0, 0, 0}, {9277, 10669, 0, 0, 0}},
    // STFM
    {{18586, 1366, 67223, 12606, 137}, {9782, 10169, 17548, 5674, 96}},
    // PAR-BS
    {{18888, 1066, 63949, 13626, 189}, {9713, 10233, 15782, 6196, 398}},
    // PAR-BS static
    {{18113, 1837, 51009, 11937, 6}, {10168, 9779, 18389, 5495, 4}},
    // PAR-BS eslot
    {{17784, 2168, 47130, 12314, 70}, {9643, 10303, 15309, 5690, 186}},
    // PAR-BS adaptive
    {{18888, 1066, 63949, 13626, 189}, {9713, 10233, 15782, 6196, 398}},
    // BLISS
    {{19110, 844, 71303, 12840, 9}, {9976, 9971, 17774, 5502, 9}},
};

class FastPathExactness : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(FastPathExactness, SkipAheadMatchesPerCycleScan)
{
    // High-mpki saturated traffic and low-mpki idle-heavy traffic stress
    // different skip windows (retirement-bound vs arrival-bound).  The
    // oracle throws on the first divergence; the unchecked run must then
    // measure exactly the same, and the scan schedule must match its pin.
    const double mpkis[] = {20.0, 2.0};
    for (std::size_t i = 0; i < 2; ++i) {
        const double mpki = mpkis[i];
        const CheckedRun checked =
            RunSystem(GetParam(), mpki, /*oracle=*/true);
        EXPECT_GT(checked.picks_checked, 0u) << "mpki " << mpki;
        EXPECT_EQ(checked.schedule,
                  kExpectedSchedule[static_cast<std::size_t>(GetParam())][i])
            << "mpki " << mpki;
        EXPECT_EQ(checked.fingerprint,
                  RunSystem(GetParam(), mpki, /*oracle=*/false).fingerprint)
            << "the oracle changed the run at mpki " << mpki;
    }
}

TEST_P(FastPathExactness, NoReadyCommandEverSkipped)
{
    // The oracle predicts every DRAM cycle, skipped or scanned, and the
    // protocol checker cross-validates every issued command against its
    // shadow timing model.  Both throw on violation.
    const CheckedRun run = RunSystem(GetParam(), 20.0, /*oracle=*/true,
                                     /*protocol_check=*/true);
    // The run must actually have exercised the skip path...
    EXPECT_GT(run.skips, 0u);
    // ...and the oracle must have seen every tick (refresh cycles, which
    // neither scan nor skip, come on top).
    EXPECT_GE(run.cycles_checked, run.ticks);
    EXPECT_GT(run.picks_checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, FastPathExactness,
                         ::testing::ValuesIn(AllSchedulerKinds()));

} // namespace
} // namespace parbs
