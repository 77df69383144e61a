/**
 * @file
 * Fault-injection fuzzer: replays seeded fault scenarios against the
 * simulator and verifies every one is defended the way its family demands
 * (user faults -> ConfigError, model corruptions -> ProtocolError /
 * WatchdogError, stress -> clean completion), under the scan oracle and
 * the per-cycle reference System (tests/fault/, tests/oracle/).  Exits
 * nonzero on the first class of mismatch; a failing scenario reproduces
 * with the same --seed / index pair.  Each summary line reports the picks
 * the scan oracle confirmed.
 *
 * Usage: fault_fuzz [--scenarios N] [--seed S] [--scheduler NAME|all]
 *                   [--channel-jobs N] [--verbose]
 *
 * Numbers are whole numbers in decimal, 0x-hex or 0-octal; anything else,
 * or fewer than one scenario, exits 2 with the usage line.
 *
 * --scheduler / --channel-jobs replay the same scenario stream under a
 * different scheduler or worker count; the defenses must not change
 * (tests/sim/fault_injection_test.cc asserts exact equality).  Scheduler
 * names come from the factory registry (AllSchedulerKinds), so a newly
 * registered policy is accepted — and swept by `--scheduler all` — with
 * no fuzzer change.
 */
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "fault/fault_injector.hh"
#include "sched/factory.hh"

using namespace parbs;

namespace {

/**
 * Parses @p text, the value of @p flag, as a whole number no larger than
 * @p max (strtoull's base prefixes).  A sign, a stray character or
 * overflow prints why and returns false.
 */
bool
ParseWhole(const char* flag, const char* text, std::uint64_t max,
           std::uint64_t& out)
{
    errno = 0;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 0);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
        errno == ERANGE || *end != '\0' || value > max) {
        std::fprintf(stderr,
                     "fault_fuzz: %s expects a whole number, got '%s'\n",
                     flag, text);
        return false;
    }
    out = value;
    return true;
}

/** Runs @p scenarios scenarios under @p options; @return mismatches. */
std::uint64_t
RunSweep(std::uint64_t scenarios, std::uint64_t seed,
         const FaultOptions& options, bool verbose)
{
    FaultInjector injector(seed);
    std::uint64_t passed = 0;
    std::uint64_t failed = 0;
    std::uint64_t picks = 0;
    std::uint64_t by_kind[kNumFaultKinds] = {};
    for (std::uint64_t index = 0; index < scenarios; ++index) {
        const FaultOutcome outcome = injector.RunScenario(index, options);
        by_kind[static_cast<std::size_t>(outcome.kind)] += 1;
        picks += outcome.picks_checked;
        if (outcome.Passed()) {
            passed += 1;
            if (verbose) {
                std::printf("[%6llu] %-22s %-18s %s\n",
                            static_cast<unsigned long long>(index),
                            FaultKindName(outcome.kind),
                            DefenseName(outcome.observed),
                            outcome.detail.c_str());
            }
        } else {
            failed += 1;
            std::fprintf(stderr,
                         "FAIL [%llu] %s: expected %s, observed %s\n  %s\n",
                         static_cast<unsigned long long>(index),
                         FaultKindName(outcome.kind),
                         DefenseName(outcome.expected),
                         DefenseName(outcome.observed),
                         outcome.detail.c_str());
        }
    }

    std::printf("fault_fuzz: scheduler %s: %llu scenarios, %llu defended "
                "as expected, %llu mismatched, %llu oracle-checked picks "
                "(seed 0x%llx)\n",
                SchedulerKindName(options.scheduler),
                static_cast<unsigned long long>(scenarios),
                static_cast<unsigned long long>(passed),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(picks),
                static_cast<unsigned long long>(seed));
    for (std::size_t kind = 0; kind < kNumFaultKinds; ++kind) {
        std::printf("  %-22s %llu\n",
                    FaultKindName(static_cast<FaultKind>(kind)),
                    static_cast<unsigned long long>(by_kind[kind]));
    }
    return failed;
}

} // namespace

int
main(int argc, char** argv)
{
    const auto usage = [&] {
        std::fprintf(stderr,
                     "usage: %s [--scenarios N] [--seed S] "
                     "[--scheduler NAME|all] [--channel-jobs N] "
                     "[--verbose]\n",
                     argv[0]);
        return 2;
    };
    constexpr std::uint64_t kAny = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t scenarios = 1000;
    std::uint64_t seed = 0xFA11;
    bool verbose = false;
    bool all_schedulers = false;
    FaultOptions options;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--scenarios") == 0 && i + 1 < argc) {
            if (!ParseWhole(argv[i], argv[i + 1], kAny, scenarios)) {
                return usage();
            }
            i += 1;
        } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            if (!ParseWhole(argv[i], argv[i + 1], kAny, seed)) {
                return usage();
            }
            i += 1;
        } else if (std::strcmp(argv[i], "--scheduler") == 0 && i + 1 < argc) {
            i += 1;
            if (std::strcmp(argv[i], "all") == 0) {
                all_schedulers = true;
            } else if (!ParseSchedulerKind(argv[i], options.scheduler)) {
                std::fprintf(stderr, "unknown scheduler: %s (registry:",
                             argv[i]);
                for (const SchedulerKind kind : AllSchedulerKinds()) {
                    std::fprintf(stderr, " %s", SchedulerKindName(kind));
                }
                std::fprintf(stderr, ", or all)\n");
                return 2;
            }
        } else if (std::strcmp(argv[i], "--channel-jobs") == 0 &&
                   i + 1 < argc) {
            std::uint64_t jobs = 0;
            if (!ParseWhole(argv[i], argv[i + 1],
                            std::numeric_limits<unsigned>::max(), jobs)) {
                return usage();
            }
            options.channel_jobs = static_cast<unsigned>(jobs);
            i += 1;
        } else if (std::strcmp(argv[i], "--verbose") == 0) {
            verbose = true;
        } else {
            return usage();
        }
    }
    if (scenarios == 0) {
        std::fprintf(stderr, "fault_fuzz: --scenarios must be at least 1\n");
        return usage();
    }

    std::uint64_t failed = 0;
    if (all_schedulers) {
        for (const SchedulerKind kind : AllSchedulerKinds()) {
            options.scheduler = kind;
            failed += RunSweep(scenarios, seed, options, verbose);
        }
    } else {
        failed = RunSweep(scenarios, seed, options, verbose);
    }
    return failed == 0 ? 0 : 1;
}
