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

#include <cstdint>
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
    bool gated = true;           //!< false: reported, never gated
};

double
perSec(std::uint64_t n, double ms)
{
    return ms > 0.0 ? static_cast<double>(n) * 1000.0 / ms : 0.0;
}

/** One TTDA run of the E1 row-pipeline workload at a given latency on
 *  a `pes`-wide machine. */
Result
ttdaConfig(bench::SimOptions &opts, const bench::RepTimer &timer,
           const id::Compiled &compiled, const std::string &name,
           sim::Cycle net_latency, std::int64_t n, std::uint32_t pes,
           sim::MetricsRecorder *metrics)
{
    ttda::MachineConfig cfg;
    cfg.numPEs = pes;
    cfg.netLatency = net_latency;
    // The "_metrics" A/A overhead row's own recorder: sampled but
    // never exported — the row exists to price the sampling itself,
    // against its metrics-off twin, so it is reported but not gated.
    cfg.metrics = metrics;
    Result r{name};
    r.gated = metrics == nullptr;
    r.hostMs = timer.bestMs([&] {
        if (cfg.metrics)
            cfg.metrics->reset(); // each rep restarts at cycle 0
        auto run = bench::runTtda(compiled, cfg,
                                  {graph::Value{n}}, &opts);
        r.simCycles = run.cycles;
        r.workItems = run.fired;
    });
    return r;
}

/** One blocking-vN trace run (k contexts) at a given latency. */
Result
vnConfig(bench::SimOptions &opts, const bench::RepTimer &timer,
         const std::string &name, std::uint32_t contexts,
         sim::Cycle net_latency, std::uint64_t references)
{
    vn::VnMachineConfig cfg;
    cfg.numCores = 4;
    cfg.topology = vn::VnMachineConfig::Topology::Ideal;
    cfg.netLatency = net_latency;
    cfg.core.numContexts = contexts;
    cfg.wordsPerModule = 4096;
    opts.apply(cfg);
    Result r{name};
    r.hostMs = timer.bestMs([&] {
        auto m = bench::runVnTrace(cfg, references, 3, 1.0);
        r.simCycles = m.cycles();
        r.workItems = 0;
        for (std::uint32_t c = 0; c < m.numCores(); ++c)
            r.workItems += m.core(c).stats().instructions.value();
        opts.writeStatsJson(m);
        opts.writeMetrics(name);
    });
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::SimOptions opts(argc, argv);
    const bench::RepTimer timer(opts);
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
    const auto ttda = [&](const id::Compiled &c, const std::string &name,
                          sim::Cycle lat, std::int64_t n,
                          std::uint32_t pes = 4,
                          sim::MetricsRecorder *metrics = nullptr) {
        results.push_back(
            ttdaConfig(opts, timer, c, name, lat, n, pes, metrics));
    };
    const auto vn = [&](const std::string &name, std::uint32_t contexts,
                        sim::Cycle lat) {
        results.push_back(vnConfig(opts, timer, name, contexts, lat, 2000));
    };
    ttda(compiled, "ttda_net2", 2, 24);
    ttda(compiled, "ttda_net64", 64, 24);
    ttda(compiled, "ttda_net256", 256, 24);
    ttda(serial, "ttda_serial_net256", 256, 400);
    vn("vn_blocking_net64", 1, 64);
    vn("vn_blocking_net256", 1, 256);
    vn("vn_k8_net64", 8, 64);

    // A/A overhead row: ttda_net64's exact config with a metrics
    // recorder sampling at the default interval. Compare against
    // ttda_net64 to price the sampling.
    sim::MetricsRecorder aaRecorder;
    ttda(compiled, "ttda_net64_metrics", 64, 24, 4, &aaRecorder);

    // A 64-PE machine at each network latency. The "_t1" suffix keeps
    // the names the committed BENCH_core.json rows carry.
    for (const sim::Cycle lat : {sim::Cycle{2}, sim::Cycle{64},
                                 sim::Cycle{256}})
        ttda(compiled, "ttda_pe64_net" + std::to_string(lat) + "_t1",
             lat, 24, 64);

    sim::Table t("Simulator core throughput (" + timer.describe() + ")");
    t.header({"config", "sim cycles", "work items", "host ms",
              "Mcycles/s", "Kitems/s"});
    std::vector<bench::BenchRow> rows;
    for (const Result &r : results) {
        t.addRow({r.name, sim::Table::num(r.simCycles),
                  sim::Table::num(r.workItems),
                  sim::Table::num(r.hostMs, 3),
                  sim::Table::num(perSec(r.simCycles, r.hostMs) / 1e6, 2),
                  sim::Table::num(perSec(r.workItems, r.hostMs) / 1e3, 1)});
        auto &row = rows.emplace_back(r.name)
                        .set("simCycles", r.simCycles)
                        .set("workItems", r.workItems)
                        .set("hostMs", r.hostMs)
                        .set("cyclesPerSec", perSec(r.simCycles, r.hostMs))
                        .set("itemsPerSec", perSec(r.workItems, r.hostMs));
        r.gated ? row.lower("hostMs") : row.info();
    }
    t.print(std::cout);
    std::cout << "\n";
    return bench::writeBench(out, "bench_core",
                             "hostMs: wall time, " + timer.describe(),
                             rows)
               ? 0
               : 1;
}
