/**
 * @file
 * perfbench_harness — the in-process half of the repository benchmark
 * (perfbench/run.py drives it; see perfbench/README.md).
 *
 * Links libduet and times the public entry points of the layers under
 * it: `System` construction (the cold bring-up the batch workloads
 * report as setup_s) and `runWorkload` (one scenario). Scenarios come
 * on stdin, one per line:
 *
 *   <workload> <mode> <cores> <size> <seed>      (0 = registry default)
 *
 *   perfbench_harness --setup < list
 *       construct each distinct geometry of the list once, cold, and
 *       report the construction wall time
 *   perfbench_harness --seconds S [--min-passes N] [--traced] < list
 *       run the list in passes until S host seconds have elapsed (and
 *       at least N passes). --traced alternates clean passes with
 *       instrumented ones (profiler, latency breakdown, stats dump), so
 *       one process gives both sides of the tracing-overhead ratio.
 *
 * Output is JSON lines on stdout: one "run" record per scenario
 * execution, a "prof" record (duet-prof/1, summed over traced passes),
 * and an "end" record carrying the process's peak RSS. Exit code 2 on
 * bad input; scenario failures are reported in the records, not by the
 * exit code, so run.py can count them.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <sys/resource.h>

#include "service/scenario_service.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "workload/apps.hh"

namespace
{

using namespace duet;
using Clock = std::chrono::steady_clock;

struct Scenario
{
    SweepScenario sc;
    SystemConfig cfg;
};

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

bool
readScenarios(std::istream &in, std::vector<Scenario> &out)
{
    std::string line;
    while (std::getline(in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        std::istringstream fields(line);
        ScenarioRequest req;
        if (!(fields >> req.workload >> req.mode >> req.cores >> req.size >>
              req.seed)) {
            std::cerr << "perfbench_harness: bad scenario line: " << line
                      << "\n";
            return false;
        }
        Scenario s;
        std::string err;
        if (!validateRequest(req, SystemConfig{}, s.sc, s.cfg, err)) {
            std::cerr << "perfbench_harness: " << line << ": " << err
                      << "\n";
            return false;
        }
        out.push_back(std::move(s));
    }
    return !out.empty();
}

/** Cold bring-up: every distinct (mode, p, m) geometry once, in a
 *  process that has not built a System yet. */
void
runSetup(const std::vector<Scenario> &list)
{
    std::set<std::tuple<int, unsigned, unsigned>> seen;
    double total = 0.0;
    for (const Scenario &s : list) {
        const WorkloadParams &p = s.sc.params;
        if (!seen.insert({static_cast<int>(s.sc.mode), p.cores, p.memHubs})
                 .second)
            continue;
        const SystemConfig cfg = appConfig(p.cores, p.memHubs, s.cfg);
        const auto t0 = Clock::now();
        auto sys = std::make_unique<System>(cfg);
        total += seconds(Clock::now() - t0);
    }
    std::printf("{\"type\": \"setup\", \"geometries\": %zu, "
                "\"seconds\": %.9f}\n",
                seen.size(), total);
}

/** One scenario execution; traced runs also dump the stats registry
 *  and the Fig. 9 latency classes. */
void
runOne(const Scenario &s, unsigned pass, std::size_t index, bool traced)
{
    constexpr std::size_t kLatCats =
        static_cast<std::size_t>(LatencyTrace::Cat::kNumCats);
    std::uint64_t events = 0;
    Tick ticks = 0;
    Tick lat[kLatCats] = {};
    std::string counters;
    // Named lvalue: SystemConfig::observer is a non-owning reference.
    auto observe = [&](System &sys) {
        events += sys.eventQueue().executed();
        ticks = sys.eventQueue().now();
        if (!traced)
            return;
        for (std::size_t c = 0; c < kLatCats; ++c)
            lat[c] = sys.latencyTotals().get(
                static_cast<LatencyTrace::Cat>(c));
        std::ostringstream os;
        sys.stats().dumpJson(os);
        counters = os.str();
    };
    SystemConfig cfg = s.cfg;
    cfg.observer = observe;
    cfg.latencyBreakdown = traced;

    AppResult res;
    std::string error;
    const auto t0 = Clock::now();
    try {
        res = runWorkload(*s.sc.workload, s.sc.params, cfg);
    } catch (const SimFatal &e) {
        res.correct = false;
        error = e.what();
    }
    const double wall = seconds(Clock::now() - t0);

    std::printf("{\"type\": \"run\", \"pass\": %u, \"index\": %zu, "
                "\"traced\": %s, \"wall_s\": %.9f, \"correct\": %s, "
                "\"runtime\": %llu, \"ticks\": %llu, \"events\": %llu",
                pass, index, traced ? "true" : "false", wall,
                res.correct ? "true" : "false",
                static_cast<unsigned long long>(res.runtime),
                static_cast<unsigned long long>(ticks),
                static_cast<unsigned long long>(events));
    if (!error.empty())
        std::printf(", \"error\": %s", jsonQuote(error).c_str());
    if (traced) {
        std::printf(", \"lat\": [%llu, %llu, %llu, %llu], \"stats\": %s",
                    static_cast<unsigned long long>(lat[0]),
                    static_cast<unsigned long long>(lat[1]),
                    static_cast<unsigned long long>(lat[2]),
                    static_cast<unsigned long long>(lat[3]),
                    counters.empty() ? "{}" : counters.c_str());
    }
    std::printf("}\n");
}

int
usage()
{
    std::cerr << "usage: perfbench_harness --setup < scenarios\n"
                 "       perfbench_harness --seconds S [--min-passes N] "
                 "[--traced] < scenarios\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    bool setup = false;
    bool traced = false;
    double budget = -1.0;
    unsigned minPasses = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--setup") {
            setup = true;
        } else if (a == "--traced") {
            traced = true;

        } else if (a == "--seconds" && i + 1 < argc) {
            budget = std::atof(argv[++i]);
        } else if (a == "--min-passes" && i + 1 < argc) {
            minPasses = static_cast<unsigned>(std::atoi(argv[++i]));
        } else {
            return usage();
        }
    }
    if (!setup && budget < 0.0)
        return usage();

    std::vector<Scenario> list;
    if (!readScenarios(std::cin, list))
        return 2;

    if (setup) {
        runSetup(list);
        return 0;
    }

    // A traced pass only ever follows a clean one, and a traced run
    // stops only after its traced pass, so the two medians the
    // overhead ratio compares come from the same number of passes.
    Profiler profiler;
    const auto start = Clock::now();
    for (unsigned pass = 0;; ++pass) {
        const bool tracedPass = traced && pass % 2 == 1;
        if (!tracedPass && pass >= minPasses &&
            seconds(Clock::now() - start) >= budget)
            break;
        if (tracedPass)
            obs::setProfiler(&profiler);
        for (std::size_t i = 0; i < list.size(); ++i)
            runOne(list[i], pass, i, tracedPass);
        if (tracedPass)
            obs::setProfiler(nullptr);
        std::fflush(stdout);
    }
    if (traced) {
        std::ostringstream os;
        profiler.write(os);
        std::string prof = os.str();
        while (!prof.empty() && prof.back() == '\n')
            prof.pop_back();
        std::printf("{\"type\": \"prof\", \"profile\": %s}\n", prof.c_str());
    }
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    std::printf("{\"type\": \"end\", \"maxrss_kib\": %ld}\n", ru.ru_maxrss);
    return 0;
}
