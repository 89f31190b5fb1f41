/**
 * @file
 * Simulator self-benchmark: wall-clock throughput of the simulation
 * core itself (not a paper experiment). Each config is run several
 * times; the best host time is reported, and the results are written
 * as machine-readable JSON (BENCH_core.json by default, or argv[1])
 * so successive PRs can track the simulator's throughput trajectory.
 *
 * The high-latency configs (netLatency >= 64) are where the
 * event-driven scheduler earns its keep: with tokens in flight for
 * dozens of cycles the naive per-cycle loop spends most iterations
 * discovering that nothing can happen, while skipAhead() jumps
 * straight to the next delivery.
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"

namespace
{

struct Result
{
    std::string name;
    std::uint64_t simCycles = 0;
    std::uint64_t workItems = 0; //!< tokens fired / instructions retired
    double hostMs = 0.0;         //!< best-of-reps wall time
    double cyclesPerSec = 0.0;
    double itemsPerSec = 0.0;
};

// Set from --reps/--warmup in main before any config runs.
std::uint32_t gReps = 3;
std::uint32_t gWarmup = 1;

/** Run `body` gWarmup untimed times, then gReps timed times; returns
 *  the best wall-clock milliseconds (min is robust to host noise). */
template <typename F>
double
bestMs(F &&body)
{
    for (std::uint32_t r = 0; r < gWarmup; ++r)
        body();
    double best = 0.0;
    for (std::uint32_t r = 0; r < gReps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        body();
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (r == 0 || ms < best)
            best = ms;
    }
    return best;
}

Result
finish(std::string name, std::uint64_t cycles, std::uint64_t items,
       double ms)
{
    Result r;
    r.name = std::move(name);
    r.simCycles = cycles;
    r.workItems = items;
    r.hostMs = ms;
    const double sec = ms / 1000.0;
    r.cyclesPerSec = sec > 0.0 ? static_cast<double>(cycles) / sec : 0.0;
    r.itemsPerSec = sec > 0.0 ? static_cast<double>(items) / sec : 0.0;
    return r;
}

/** One TTDA run of the E1 row-pipeline workload at a given latency on
 *  a `pes`-wide machine. */
Result
ttdaConfig(bench::SimOptions &opts, const id::Compiled &compiled,
           const std::string &name, sim::Cycle net_latency,
           std::int64_t n, std::uint32_t pes = 4,
           sim::MetricsRecorder *metrics = nullptr)
{
    ttda::MachineConfig cfg;
    cfg.numPEs = pes;
    cfg.netLatency = net_latency;
    // The "_metrics" A/A overhead row's own recorder: sampled but
    // never exported — the row exists to price the sampling itself.
    cfg.metrics = metrics;
    std::uint64_t cycles = 0;
    std::uint64_t fired = 0;
    const double ms = bestMs([&] {
        if (cfg.metrics)
            cfg.metrics->reset(); // each rep restarts at cycle 0
        auto run = bench::runTtda(compiled, cfg,
                                  {graph::Value{n}}, &opts);
        cycles = run.cycles;
        fired = run.fired;
    });
    return finish(name, cycles, fired, ms);
}

/** One blocking-vN trace run (k contexts) at a given latency. */
Result
vnConfig(bench::SimOptions &opts, const std::string &name,
         std::uint32_t contexts, sim::Cycle net_latency,
         std::uint64_t references)
{
    vn::VnMachineConfig cfg;
    cfg.numCores = 4;
    cfg.topology = vn::VnMachineConfig::Topology::Ideal;
    cfg.netLatency = net_latency;
    cfg.core.numContexts = contexts;
    cfg.wordsPerModule = 4096;
    opts.apply(cfg);
    std::uint64_t cycles = 0;
    std::uint64_t instrs = 0;
    const double ms = bestMs([&] {
        auto m = bench::runVnTrace(cfg, references, 3, 1.0);
        cycles = m.cycles();
        instrs = 0;
        for (std::uint32_t c = 0; c < m.numCores(); ++c)
            instrs += m.core(c).stats().instructions.value();
        opts.writeStatsJson(m);
        opts.writeMetrics(name);
    });
    return finish(name, cycles, instrs, ms);
}

bool
writeJson(const std::vector<Result> &results, const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "bench_core: cannot open " << path
                  << " for writing\n";
        return false;
    }
    os << "{\n  \"benchmark\": \"bench_core\",\n  \"unit_note\": "
          "\"hostMs is best-of-"
       << gReps << " wall time\",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Result &r = results[i];
        os << "    {\n"
           << "      \"name\": \"" << r.name << "\",\n"
           << "      \"simCycles\": " << r.simCycles << ",\n"
           << "      \"workItems\": " << r.workItems << ",\n"
           << "      \"hostMs\": " << r.hostMs << ",\n"
           << "      \"cyclesPerSec\": " << r.cyclesPerSec << ",\n"
           << "      \"itemsPerSec\": " << r.itemsPerSec << "\n"
           << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.good();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::SimOptions opts(argc, argv);
    gReps = opts.reps();
    gWarmup = opts.warmup();
    const std::string out =
        opts.args.size() > 1 ? opts.args[1] : "BENCH_core.json";

    // The E1 workload: 24 independent row pipelines over an
    // I-structure array — enough parallelism that the machine is never
    // fully idle at low latency, long network round trips at high.
    const id::Compiled compiled = id::compile(R"(
        def fillrow(a, n, r) =
          (initial t <- a
           for j from 0 to n - 1 do
             new t <- store(t, r * n + j, 2 * (r * n + j))
           return t);
        def sumrow(a, n, r) =
          (initial s <- 0
           for j from 0 to n - 1 do
             new s <- s + a[r * n + j]
           return s);
        def main(n) =
          let a = array(n * n) in
          let launch = (initial z <- 0
                        for r from 0 to n - 1 do
                          new z <- z + 0 * fillrow(a, n, r)[r * n]
                        return z) in
          (initial s <- 0
           for r from 0 to n - 1 do
             new s <- s + sumrow(a, n, r)
           return s);
    )");

    // Serial chain: every iteration allocates a fresh one-word
    // I-structure, stores, and fetches back through the loop-carried
    // s — no parallelism to hide the network, so simulated time is
    // almost all quiescent waiting (the skip-dominated regime).
    const id::Compiled serial = id::compile(R"(
        def main(n) =
          (initial s <- 0
           for j from 0 to n - 1 do
             new s <- store(array(1), 0, s + 1)[0]
           return s);
    )");

    std::vector<Result> results;
    results.push_back(ttdaConfig(opts, compiled, "ttda_net2", 2, 24));
    results.push_back(ttdaConfig(opts, compiled, "ttda_net64", 64, 24));
    results.push_back(
        ttdaConfig(opts, compiled, "ttda_net256", 256, 24));
    results.push_back(
        ttdaConfig(opts, serial, "ttda_serial_net256", 256, 400));
    results.push_back(vnConfig(opts, "vn_blocking_net64", 1, 64, 2000));
    results.push_back(
        vnConfig(opts, "vn_blocking_net256", 1, 256, 2000));
    results.push_back(vnConfig(opts, "vn_k8_net64", 8, 64, 2000));

    // A/A overhead row: ttda_net64's exact config with a metrics
    // recorder sampling at the default interval. Compare against
    // ttda_net64 to price the sampling; bench_guard.sh treats
    // "_metrics"-suffixed rows as informational (no floor gating).
    sim::MetricsRecorder aaRecorder;
    results.push_back(ttdaConfig(opts, compiled, "ttda_net64_metrics",
                                 64, 24, 4, &aaRecorder));

    // A 64-PE machine at each network latency. The "_t1" suffix keeps
    // the names BENCH_core.json and scripts/bench_guard.sh key the
    // rows' floors on.
    for (const sim::Cycle lat : {sim::Cycle{2}, sim::Cycle{64},
                                 sim::Cycle{256}}) {
        results.push_back(ttdaConfig(
            opts, compiled,
            "ttda_pe64_net" + std::to_string(lat) + "_t1", lat, 24,
            64));
    }

    sim::Table t("Simulator core throughput (best of " +
                 std::to_string(gReps) + " runs)");
    t.header({"config", "sim cycles", "work items", "host ms",
              "Mcycles/s", "Kitems/s"});
    for (const Result &r : results)
        t.addRow({r.name, sim::Table::num(r.simCycles),
                  sim::Table::num(r.workItems),
                  sim::Table::num(r.hostMs, 3),
                  sim::Table::num(r.cyclesPerSec / 1e6, 2),
                  sim::Table::num(r.itemsPerSec / 1e3, 1)});
    t.print(std::cout);

    if (!writeJson(results, out))
        return 1;
    std::cout << "\nwrote " << out << "\n";
    return 0;
}
