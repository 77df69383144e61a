/**
 * @file
 * Shared test fixtures: a controller harness that drives a Controller with
 * hand-built requests at DRAM-cycle granularity, recording completions.
 */

#ifndef PARBS_TESTS_TEST_UTIL_HH
#define PARBS_TESTS_TEST_UTIL_HH

#include <memory>
#include <vector>

#include "mem/controller.hh"
#include "sched/scheduler.hh"

namespace parbs::test {

/** Baseline DDR2-800 timing (the library defaults) with refresh off:
 *  most tests want deterministic schedules. */
inline dram::TimingParams
TestTiming()
{
    dram::TimingParams timing;
    timing.tREFI = 0;
    return timing;
}

/** Single-channel, single-rank, 8-bank geometry with small rows. */
inline dram::Geometry
TestGeometry()
{
    dram::Geometry geometry;
    geometry.channels = 1;
    geometry.ranks_per_channel = 1;
    geometry.banks_per_rank = 8;
    geometry.rows_per_bank = 1024;
    geometry.row_bytes = 2048;
    geometry.line_bytes = 64;
    return geometry;
}

/** Drives one Controller directly with synthetic requests. */
class ControllerHarness {
  public:
    explicit ControllerHarness(std::unique_ptr<Scheduler> scheduler,
                               std::uint32_t num_threads = 4,
                               ControllerConfig config = DefaultConfig(),
                               dram::TimingParams timing = TestTiming(),
                               dram::Geometry geometry = TestGeometry())
        : controller_(config, timing, geometry, num_threads,
                      std::move(scheduler))
    {
        controller_.SetReadCompleteCallback(
            [this](const MemRequest& request, DramCycle) {
                completed_.push_back(request.id);
                completed_threads_.push_back(request.thread);
            });
    }

    /**
     * The protocol checker is ON so the entire suite doubles as shadow-model
     * validation — any illegal command issued anywhere throws ProtocolError.
     */
    static ControllerConfig
    DefaultConfig()
    {
        ControllerConfig config;
        config.protocol_check = true;
        return config;
    }

    /** Enqueues a request with explicit coordinates; returns its id. */
    RequestId
    Enqueue(ThreadId thread, std::uint32_t bank, std::uint32_t row,
            std::uint32_t column = 0, bool is_write = false,
            std::uint32_t rank = 0)
    {
        auto request = std::make_unique<MemRequest>();
        request->id = next_id_++;
        request->thread = thread;
        request->coords.channel = 0;
        request->coords.rank = rank;
        request->coords.bank = bank;
        request->coords.row = row;
        request->coords.column = column;
        request->is_write = is_write;
        const RequestId id = request->id;
        controller_.Enqueue(std::move(request), now_);
        return id;
    }

    /** Advances @p cycles DRAM cycles. */
    void
    Tick(std::uint64_t cycles = 1)
    {
        for (std::uint64_t i = 0; i < cycles; ++i) {
            controller_.Tick(now_);
            now_ += 1;
        }
    }

    /** Runs until all buffered requests retire (or @p max_cycles). */
    void
    RunUntilIdle(std::uint64_t max_cycles = 100000)
    {
        std::uint64_t spent = 0;
        while ((controller_.pending_reads() > 0 ||
                controller_.pending_writes() > 0) &&
               spent < max_cycles) {
            Tick();
            spent += 1;
        }
    }

    Controller& controller() { return controller_; }
    DramCycle now() const { return now_; }
    const std::vector<RequestId>& completed() const { return completed_; }
    const std::vector<ThreadId>& completed_threads() const
    {
        return completed_threads_;
    }

  private:
    Controller controller_;
    DramCycle now_ = 0;
    RequestId next_id_ = 1;
    std::vector<RequestId> completed_;
    std::vector<ThreadId> completed_threads_;
};

} // namespace parbs::test

#endif // PARBS_TESTS_TEST_UTIL_HH
