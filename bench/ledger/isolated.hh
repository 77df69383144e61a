/**
 * @file
 * Isolated layer harnesses: one layer of a workload's System driven alone,
 * so its host cost per unit of work is measured without the rest of the
 * cycle loop around it.
 */

#ifndef PARBS_LEDGER_ISOLATED_HH
#define PARBS_LEDGER_ISOLATED_HH

#include "workloads.hh"

namespace ledger {

struct IsolatedMem {
    double ns_per_tick = 0.0;
    double ns_per_command = 0.0;
};

/**
 * Drives one Controller, built from @p inputs' configuration and scheduler,
 * open-loop: the traces' accesses that decode to channel 0 arrive at
 * @p rate requests per DRAM cycle (waiting while the queue is full) for
 * @p ticks controller ticks.
 */
IsolatedMem IsolatedController(SystemInputs inputs, double rate,
                               parbs::DramCycle ticks);

/**
 * Ticks @p inputs' cores for @p cycles CPU cycles against an ideal memory
 * port that accepts everything and returns every read after a fixed
 * latency.  @return host ns per core tick.
 */
double IsolatedCores(SystemInputs inputs, parbs::CpuCycle cycles);

} // namespace ledger

#endif // PARBS_LEDGER_ISOLATED_HH
