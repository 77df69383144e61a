#include "isolated.hh"

#include <chrono>
#include <deque>

#include "cpu/core.hh"
#include "dram/address_mapper.hh"
#include "mem/controller.hh"
#include "sched/factory.hh"

namespace ledger {
namespace {

using namespace parbs;

/** Roughly the paper's uncontended closed-row round trip (Table 2). */
constexpr CpuCycle kIdealReadLatency = 240;

struct Access {
    ThreadId thread;
    Addr addr;
    dram::DecodedAddr coords;
    bool is_write;
};

/** Memory that never pushes back and answers every read in fixed time. */
class IdealPort final : public MemoryPort {
  public:
    std::optional<RequestId>
    TryIssueRead(ThreadId thread, Addr) override
    {
        const RequestId id = next_id_++;
        pending_.push_back({now_ + kIdealReadLatency, thread, id});
        return id;
    }

    bool TryIssueWrite(ThreadId, Addr) override { return true; }

    /** Advances to @p now, returning every read due by then. */
    void
    Deliver(CpuCycle now, std::vector<std::unique_ptr<Core>>& cores)
    {
        now_ = now;
        while (!pending_.empty() && pending_.front().ready <= now) {
            cores[pending_.front().thread]->OnReadComplete(
                pending_.front().id);
            pending_.pop_front();
        }
    }

  private:
    struct Pending {
        CpuCycle ready;
        ThreadId thread;
        RequestId id;
    };
    CpuCycle now_ = 0;
    RequestId next_id_ = 1;
    std::deque<Pending> pending_;
};

} // namespace

IsolatedMem
IsolatedController(SystemInputs inputs, double rate, DramCycle ticks)
{
    const SystemConfig& config = inputs.config;
    Controller controller(config.controller, config.timing, config.geometry,
                          config.num_cores, MakeScheduler(config.scheduler));

    // Decode the arrivals up front so trace generation stays untimed.
    const dram::AddressMapper mapper(config.geometry, config.xor_bank_hash);
    const auto wanted = static_cast<std::size_t>(rate * ticks) + 1;
    std::vector<Access> accesses;
    accesses.reserve(wanted);
    // Bounded so a geometry that never maps to channel 0 cannot hang.
    for (std::size_t round = 0; accesses.size() < wanted && round < 64 * wanted;
         ++round) {
        for (ThreadId t = 0; t < inputs.traces.size(); ++t) {
            const std::optional<TraceEntry> entry = inputs.traces[t]->Next();
            if (!entry) {
                continue;
            }
            const dram::DecodedAddr coords = mapper.Decode(entry->addr);
            if (coords.channel == 0) {
                accesses.push_back({t, entry->addr, coords, entry->is_write});
            }
        }
    }

    const auto start = std::chrono::steady_clock::now();
    std::size_t next = 0;
    double credit = 0.0;
    for (DramCycle now = 0; now < ticks; ++now) {
        credit += rate;
        while (credit >= 1.0 && next < accesses.size()) {
            const Access& access = accesses[next];
            if (access.is_write ? !controller.CanAcceptWrite()
                                : !controller.CanAcceptRead()) {
                break;
            }
            auto request = std::make_unique<MemRequest>();
            request->id = next + 1;
            request->thread = access.thread;
            request->addr = access.addr;
            request->coords = access.coords;
            request->is_write = access.is_write;
            request->arrival_cpu = now * config.cpu_to_dram_ratio;
            controller.Enqueue(std::move(request), now);
            next += 1;
            credit -= 1.0;
        }
        controller.Tick(now);
    }
    const double ns =
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - start)
            .count();
    IsolatedMem out;
    out.ns_per_tick = ns / static_cast<double>(ticks);
    const std::uint64_t commands = controller.total_commands_issued();
    out.ns_per_command =
        commands == 0 ? 0.0 : ns / static_cast<double>(commands);
    return out;
}

double
IsolatedCores(SystemInputs inputs, CpuCycle cycles)
{
    IdealPort port;
    std::vector<std::unique_ptr<Core>> cores;
    for (ThreadId t = 0; t < inputs.traces.size(); ++t) {
        cores.push_back(std::make_unique<Core>(inputs.config.core, t,
                                               *inputs.traces[t], port));
    }
    const auto start = std::chrono::steady_clock::now();
    for (CpuCycle now = 0; now < cycles; ++now) {
        port.Deliver(now, cores);
        for (auto& core : cores) {
            core->Tick();
        }
    }
    const double ns =
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - start)
            .count();
    return ns / static_cast<double>(cycles * cores.size());
}

} // namespace ledger
