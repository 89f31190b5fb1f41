/**
 * @file
 * Degradation-under-loss benchmark (the resilience experiment).
 *
 * Sweeps the fault injector's packet-drop rate (with proportional
 * duplicate/corrupt/delay rates) over both machine styles, bare and
 * wrapped in net::ReliableNet, under one fixed fault seed:
 *
 *   rate in {0, 0.1%, 1%, 5%}
 *     x {ttda, ttda+reliable, vn, vn+reliable}
 *
 * The paper's Issue 1 claim needs faults to be *survivable*, not just
 * injectable: the reliable variants must finish every point (slower —
 * that slowdown is the degradation curve recorded in EXPERIMENTS.md),
 * while the bare variants strand tokens/contexts at nonzero loss and
 * quiesce incomplete, classified by the deadlock forensics.
 *
 * Results are written as machine-readable JSON (BENCH_faults.json by
 * default, or argv[1]); the zero-fault rows are gated on hostMs, the
 * lossy ones are reported only.
 *
 * Two more rows price the reliability layer itself: the zero-fault
 * TTDA and vn runs timed reliable over bare in one process, their
 * reps interleaved so both sides see the same host phase. Each is
 * gated on its ratio.
 */

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"

namespace
{

struct Result
{
    std::string name;
    double dropRate = 0.0;
    bool completed = false;      //!< run finished without stranding
    std::uint64_t simCycles = 0;
    std::uint64_t workItems = 0; //!< tokens fired / instructions retired
    std::uint64_t destroyed = 0; //!< packets killed by the injector
    std::uint64_t retransmits = 0;
    double hostMs = 0.0;         //!< best-of-reps wall time
    double slowdown = 0.0;       //!< simCycles / same variant at rate 0
};

/** Reliable over bare host time at drop rate 0, from one process. */
struct Ratio
{
    std::string name;
    double relMs = 0.0;  //!< best-of-kRatioReps reliable wall time
    double bareMs = 0.0; //!< best-of-kRatioReps bare wall time
};

constexpr int kRatioReps = 24;
constexpr std::uint64_t kFaultSeed = 0xFA17;

/** Best-of-kRatioReps times of `bare` and `rel`, alternating. */
template <typename Bare, typename Rel>
Ratio
interleaved(const std::string &name, Bare &&bare, Rel &&rel)
{
    Ratio r;
    r.name = name;
    for (int i = 0; i < kRatioReps; ++i) {
        const double b = bench::timeMs(bare);
        const double l = bench::timeMs(rel);
        r.bareMs = i == 0 ? b : std::min(r.bareMs, b);
        r.relMs = i == 0 ? l : std::min(r.relMs, l);
    }
    return r;
}

/** The sweep's plan at one drop rate: duplicates at half the drop
 *  rate, detected corruption at a tenth, delay spikes at the drop
 *  rate. Rate 0 disables injection entirely (bit-identical to the
 *  fault-free build — the acceptance gate bench_guard checks). */
sim::fault::FaultPlan
planAt(double rate)
{
    sim::fault::FaultPlan plan;
    plan.seed = kFaultSeed;
    plan.dropRate = rate;
    plan.dupRate = rate / 2.0;
    plan.corruptRate = rate / 10.0;
    plan.delayRate = rate;
    plan.delaySpike = 16;
    return plan;
}

/** The sweep's TTDA machine, before options and faults. */
ttda::MachineConfig
ttdaBase()
{
    ttda::MachineConfig cfg;
    cfg.numPEs = 4;
    cfg.netLatency = 2;
    return cfg;
}

/** The sweep's vn machine, before options and faults. */
vn::VnMachineConfig
vnBase()
{
    vn::VnMachineConfig cfg;
    cfg.numCores = 4;
    cfg.topology = vn::VnMachineConfig::Topology::Ideal;
    cfg.netLatency = 8;
    cfg.core.numContexts = 1;
    cfg.wordsPerModule = 4096;
    return cfg;
}

Result
ttdaConfig(bench::SimOptions &opts, const bench::RepTimer &timer,
           const id::Compiled &compiled, const std::string &name,
           double rate, bool reliable, std::int64_t n)
{
    ttda::MachineConfig cfg = ttdaBase();
    opts.apply(cfg);
    // The sweep's own fault matrix wins over --fault-seed/--reliable:
    // the sweep *is* the benchmark.
    cfg.faults = planAt(rate);
    cfg.reliableNet = reliable;

    Result r;
    r.name = name;
    r.dropRate = rate;
    r.hostMs = timer.bestMs([&] {
        ttda::Machine m(compiled.program, cfg);
        m.input(compiled.startCb, 0, graph::Value{n});
        m.run();
        r.completed = !m.deadlocked();
        r.simCycles = m.cycles();
        r.workItems = m.totalFired();
        if (const auto *f = m.faultInjector())
            r.destroyed = f->stats().destroyed();
        if (const auto *rel = m.reliableNet())
            r.retransmits = rel->relStats().retransmits.value();
        if (m.deadlocked())
            std::cout << m.deadlockReport();
        opts.writeStatsJson(m);
        opts.writeProfile(m);
        opts.writeMetrics(name); // resets for the next rep/row
    });
    return r;
}

Result
vnConfig(bench::SimOptions &opts, const bench::RepTimer &timer,
         const std::string &name, double rate, bool reliable,
         std::uint64_t references)
{
    vn::VnMachineConfig cfg = vnBase();
    opts.apply(cfg);
    cfg.faults = planAt(rate);
    cfg.reliableNet = reliable;

    Result r;
    r.name = name;
    r.dropRate = rate;
    r.hostMs = timer.bestMs([&] {
        auto m = bench::runVnTrace(cfg, references, 3, 1.0);
        r.completed = !m.deadlocked();
        r.simCycles = m.cycles();
        r.workItems = 0;
        for (std::uint32_t c = 0; c < m.numCores(); ++c)
            r.workItems += m.core(c).stats().instructions.value();
        if (const auto *f = m.faultInjector())
            r.destroyed = f->stats().destroyed();
        if (const auto *rs = m.relStats())
            r.retransmits = rs->retransmits.value();
        if (m.deadlocked())
            std::cout << m.deadlockReport();
        opts.writeStatsJson(m);
        opts.writeMetrics(name);
    });
    return r;
}

/** The zero-fault TTDA and vn runs, reliable over bare. The configs
 *  take no command-line options, so tracing or stats flags never
 *  reach these extra runs. */
std::vector<Ratio>
relOverBare(const id::Compiled &compiled, std::int64_t n,
            std::uint64_t references)
{
    const auto ttda = [&](bool reliable) {
        ttda::MachineConfig cfg = ttdaBase();
        cfg.faults = planAt(0.0);
        cfg.reliableNet = reliable;
        return [&compiled, n, cfg] {
            ttda::Machine m(compiled.program, cfg);
            m.input(compiled.startCb, 0, graph::Value{n});
            m.run();
        };
    };
    const auto vn = [references](bool reliable) {
        vn::VnMachineConfig cfg = vnBase();
        cfg.faults = planAt(0.0);
        cfg.reliableNet = reliable;
        return [references, cfg] {
            bench::runVnTrace(cfg, references, 3, 1.0);
        };
    };
    return {interleaved("ttda_rel_over_bare", ttda(false), ttda(true)),
            interleaved("vn_rel_over_bare", vn(false), vn(true))};
}

} // namespace

int
main(int argc, char **argv)
{
    bench::SimOptions opts(argc, argv);
    const bench::RepTimer timer(opts, 3, 0);
    const std::string out =
        opts.args.size() > 1 ? opts.args[1] : "BENCH_faults.json";

    // The bench_core row-pipeline workload at a size where a single
    // lost token is overwhelmingly likely to strand a pipeline.
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

    const std::vector<std::pair<double, std::string>> rates = {
        {0.0, "0"}, {0.001, "0.1pct"}, {0.01, "1pct"}, {0.05, "5pct"}};
    std::vector<Result> results;
    for (const auto &[rate, tag] : rates) {
        results.push_back(ttdaConfig(opts, timer, compiled,
                                     "ttda_drop" + tag, rate, false, 12));
        results.push_back(ttdaConfig(opts, timer, compiled,
                                     "ttda_rel_drop" + tag, rate, true,
                                     12));
        results.push_back(
            vnConfig(opts, timer, "vn_drop" + tag, rate, false, 500));
        results.push_back(
            vnConfig(opts, timer, "vn_rel_drop" + tag, rate, true, 500));
    }

    // Slowdown relative to the same variant's zero-fault run (the
    // first four entries, in the same variant order per rate).
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Result &base = results[i % 4];
        if (results[i].completed && base.simCycles > 0)
            results[i].slowdown =
                static_cast<double>(results[i].simCycles) /
                static_cast<double>(base.simCycles);
    }

    sim::Table t("Degradation under injected loss (fault seed " +
                 std::to_string(kFaultSeed) + ", " + timer.describe() +
                 ")");
    t.header({"config", "drop", "done", "sim cycles", "destroyed",
              "retransmits", "slowdown", "host ms"});
    std::vector<bench::BenchRow> rows;
    for (const Result &r : results) {
        t.addRow({r.name, sim::Table::num(r.dropRate, 3),
                  r.completed ? "yes" : "STRANDED",
                  sim::Table::num(r.simCycles),
                  sim::Table::num(r.destroyed),
                  sim::Table::num(r.retransmits),
                  sim::Table::num(r.slowdown, 3),
                  sim::Table::num(r.hostMs, 3)});
        // Lossy rows measure degradation, not the fault-free cost.
        auto &row = rows.emplace_back(r.name)
                        .set("dropRate", r.dropRate)
                        .set("completed", r.completed)
                        .set("simCycles", r.simCycles)
                        .set("workItems", r.workItems)
                        .set("destroyed", r.destroyed)
                        .set("retransmits", r.retransmits)
                        .set("slowdown", r.slowdown)
                        .set("hostMs", r.hostMs);
        r.dropRate == 0.0 ? row.lower("hostMs") : row.info();
    }
    t.print(std::cout);

    sim::Table rt("Reliable over bare at drop 0, one process (best of " +
                  std::to_string(kRatioReps) + " interleaved)");
    rt.header({"ratio", "bare ms", "reliable ms", "reliable / bare"});
    for (const Ratio &r : relOverBare(compiled, 12, 500)) {
        rt.addRow({r.name, sim::Table::num(r.bareMs, 3),
                   sim::Table::num(r.relMs, 3),
                   sim::Table::num(r.relMs / r.bareMs, 3)});
        rows.emplace_back(r.name)
            .set("reps", kRatioReps)
            .set("relMs", r.relMs)
            .set("bareMs", r.bareMs)
            .set("ratio", r.relMs / r.bareMs)
            .lower("ratio");
    }
    std::cout << "\n";
    rt.print(std::cout);
    std::cout << "\n";
    return bench::writeBench(
               out, "bench_faults",
               sim::format("fault seed {}; hostMs: wall time, {}; "
                           "slowdown: simCycles vs the same variant at "
                           "dropRate 0; ratio rows: best of {} "
                           "interleaved runs of each side",
                           kFaultSeed, timer.describe(), kRatioReps),
               rows)
               ? 0
               : 1;
}
