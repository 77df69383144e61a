/**
 * @file
 * The base of every Scheduler decorator in the test tree: the scan oracle
 * (scan_checked.hh) and the fault harness's chaos and withholding wrappers
 * (tests/fault/).
 *
 * ForwardingScheduler owns the wrapped scheduler, attaches both, and
 * forwards every hook, the observer and the knob changes to it, so a
 * decorator overrides only what it changes and a wrapped run reports the
 * wrapped scheduler's stats, batches and policy events.  PickInBank stays
 * at the Scheduler default, which walks the bank's chain through this
 * wrapper's Pick(): a decorator that changes Pick() sees every per-bank
 * candidate list, and the wrapped scheduler's pick memo goes unused.  The
 * scan oracle, which checks that memo, forwards PickInBank instead.
 */

#ifndef PARBS_TESTS_ORACLE_FORWARDING_SCHEDULER_HH
#define PARBS_TESTS_ORACLE_FORWARDING_SCHEDULER_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hh"
#include "sched/scheduler.hh"

namespace parbs::test {

class ForwardingScheduler : public Scheduler {
  public:
    explicit ForwardingScheduler(std::unique_ptr<Scheduler> inner)
        : inner_(std::move(inner))
    {
        PARBS_ASSERT(inner_ != nullptr,
                     "a decorator needs a scheduler to wrap");
    }

    std::string name() const override { return inner_->name(); }

    /** The base keeps its own knob vectors so SetThreadPriority/Weight
     *  on this wrapper work; the wrapped scheduler does the real work. */
    void
    Attach(const SchedulerContext& context) override
    {
        Scheduler::Attach(context);
        inner_->Attach(context);
    }

    MemRequest*
    Pick(std::span<const Candidate> candidates, DramCycle now) override
    {
        return Inner().Pick(candidates, now);
    }

    bool DeterministicPick() const override
    {
        return inner_->DeterministicPick();
    }

    void
    OnRequestQueued(MemRequest& request, DramCycle now) override
    {
        Inner().OnRequestQueued(request, now);
    }

    void
    OnCommandIssued(const MemRequest& request, const dram::Command& command,
                    DramCycle now) override
    {
        Inner().OnCommandIssued(request, command, now);
    }

    void
    OnRequestComplete(const MemRequest& request, DramCycle now) override
    {
        Inner().OnRequestComplete(request, now);
    }

    void OnDramCycle(DramCycle now) override { Inner().OnDramCycle(now); }

    std::vector<std::pair<std::string, double>> Stats() const override
    {
        return inner_->Stats();
    }

    std::uint64_t BatchOutstanding() const override
    {
        return inner_->BatchOutstanding();
    }

    PickMemoCounters MemoCounters() const override
    {
        return inner_->MemoCounters();
    }

  protected:
    /** The wrapped scheduler, with this wrapper's observer installed. */
    Scheduler&
    Inner()
    {
        if (inner_->observer() != observer_) {
            inner_->SetObserver(observer_);
        }
        return *inner_;
    }

    const Scheduler& inner() const { return *inner_; }

    /** Forwards the knob that changed; the base already told the
     *  observer, so the wrapped scheduler applies it silently. */
    void
    OnSchedulingKnobChanged() override
    {
        inner_->SetObserver(nullptr);
        for (ThreadId t = 0; t < priorities_.size(); ++t) {
            if (inner_->thread_priority(t) != priorities_[t]) {
                inner_->SetThreadPriority(t, priorities_[t]);
            }
            if (inner_->thread_weight(t) != weights_[t]) {
                inner_->SetThreadWeight(t, weights_[t]);
            }
        }
        inner_->SetObserver(observer_);
    }

  private:
    std::unique_ptr<Scheduler> inner_;
};

} // namespace parbs::test

#endif // PARBS_TESTS_ORACLE_FORWARDING_SCHEDULER_HH
