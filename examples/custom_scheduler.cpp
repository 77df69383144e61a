/**
 * @file
 * Extending the library with a new scheduler through the public API.
 *
 * The paper presents request batching as "a simple and flexible framework
 * that can be used to enhance the fairness of existing scheduling
 * algorithms" — any within-batch policy plugs in.  This example implements
 * a scheduler from scratch *outside* the library — "BLP-first", which
 * (after marked status and row hits) prioritizes the thread currently
 * occupying the fewest banks, a live-heuristic alternative to Max-Total
 * ranking — injects it via SystemConfig::scheduler_factory, and races it
 * against the built-in lineup on Case Study I.
 */

#include <iostream>

#include "sched/parbs_sched.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "stats/table.hh"

namespace {

using namespace parbs;

/** A user-defined scheduler: batching plus a live bank-usage heuristic. */
class BlpFirstScheduler : public ParBsScheduler {
  public:
    BlpFirstScheduler() : ParBsScheduler(MakeConfig()) {}

    std::string name() const override { return "BLP-first (custom)"; }

  protected:
    static ParBsConfig
    MakeConfig()
    {
        ParBsConfig config;
        // Disable the built-in ranking; Better() below supplies its own
        // heuristic in the RANK slot.
        config.ranking = RankingPolicy::kNoRankFrFcfs;
        return config;
    }

    /**
     * Opt back out of the per-bank pick memo ParBsScheduler enables:
     * Better() below reads the *live* ReqsInBankPerThread counters, which
     * change on any bank's arrivals and completions without this bank's
     * chain generation moving — a memoized winner could silently go stale.
     * This is the contract every PickMemoStable() == true scheduler signs:
     * the order may depend only on the candidates, the bank's row state,
     * and scheduler state announced through InvalidateBankPicks().
     */
    bool PickMemoStable() const override { return false; }

    bool
    Better(const Candidate& a, const Candidate& b,
           DramCycle /*now*/) const override
    {
        const MemRequest& ra = *a.request;
        const MemRequest& rb = *b.request;
        if (ra.marked != rb.marked) {
            return ra.marked; // Keep the batching guarantee.
        }
        if (a.row_hit != b.row_hit) {
            return a.row_hit;
        }
        const std::uint32_t banks_a = BanksInUse(ra.thread);
        const std::uint32_t banks_b = BanksInUse(rb.thread);
        if (banks_a != banks_b) {
            return banks_a < banks_b; // Fewest banks in use first.
        }
        return ra.id < rb.id;
    }

  private:
    std::uint32_t
    BanksInUse(ThreadId thread) const
    {
        std::uint32_t banks = 0;
        for (std::uint32_t bank = 0; bank < context_.NumBanks(); ++bank) {
            if (context_.read_queue->ReqsInBankPerThread(thread, bank) >
                0) {
                banks += 1;
            }
        }
        return banks;
    }
};

} // namespace

int
main()
{
    ExperimentConfig config;
    config.cores = 4;
    config.run_cycles = 2'000'000;
    ExperimentRunner runner(config);
    const WorkloadSpec workload = CaseStudy1();

    std::cout << "Custom scheduler (BLP-first) vs the built-in lineup on "
              << workload.name << "\n\n";

    Table table({"scheduler", "unfairness", "weighted-sp", "hmean-sp"});
    for (const auto& scheduler : ComparisonSchedulers()) {
        const SharedRun run = runner.RunShared(workload, scheduler);
        table.AddRow({run.scheduler, Table::Num(run.metrics.unfairness),
                      Table::Num(run.metrics.weighted_speedup),
                      Table::Num(run.metrics.hmean_speedup)});
    }

    // Inject the unregistered scheduler through the factory seam and
    // compute the same metrics by hand.
    {
        SchedulerConfig donor;
        SystemConfig system_config =
            runner.config().MakeSystemConfig(donor);
        system_config.scheduler_factory = [] {
            return std::make_unique<BlpFirstScheduler>();
        };
        System system(system_config,
                      runner.MakeTraces(workload, system_config));
        system.Run(config.run_cycles);

        std::vector<ThreadMeasurement> shared;
        std::vector<ThreadMeasurement> alone;
        for (ThreadId t = 0; t < workload.benchmarks.size(); ++t) {
            shared.push_back(system.Measure(t));
            alone.push_back(runner.AloneBaseline(workload.benchmarks[t]));
        }
        const WorkloadMetrics metrics = ComputeMetrics(shared, alone);
        table.AddRow({"BLP-first (custom)", Table::Num(metrics.unfairness),
                      Table::Num(metrics.weighted_speedup),
                      Table::Num(metrics.hmean_speedup)});
    }

    std::cout << table.Render() << "\n"
              << "BlpFirstScheduler lives entirely in this example: it "
                 "subclasses ParBsScheduler,\noverrides Better(), and is "
                 "injected via SystemConfig::scheduler_factory.\n";
    return 0;
}
