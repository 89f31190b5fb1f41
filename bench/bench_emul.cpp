/**
 * @file
 * Emulation-tier throughput curves: the token-at-a-time interpreter
 * vs the threaded-code scalar VM vs the lane-batched VM at batch
 * sizes 1..256, over four laneable workloads (trapezoid, matmul,
 * wavefront, rowsum). Prints a table and writes the measurements as
 * machine-readable JSON (BENCH_emul.json by default, or argv[1]).
 * The compiled and lanes rows are gated on their speedup; the interp
 * and fleet rows are reported only.
 *
 * hostMs is best-of-N wall time per context (--reps, default 5);
 * speedup is relative to the interpreter on the same workload. Every
 * tier's result and firing count is checked against the interpreter
 * before timing is reported — a DIFFER in the table means the
 * measurement is invalid.
 */

#include "bench_util.hh"

#include "common/fleet.hh"
#include "ttda/emulator.hh"
#include "workloads/id_sources.hh"
#include "workloads/rowsum.hh"

namespace
{

constexpr std::size_t kBatches[] = {1, 4, 16, 64, 256};

} // namespace

int
main(int argc, char **argv)
{
    bench::SimOptions opts(argc, argv);
    const bench::RepTimer timer(opts, 5, 0);
    const std::string out =
        opts.args.size() > 1 ? opts.args[1] : "BENCH_emul.json";

    struct Case
    {
        const char *name;
        std::string source;
        std::vector<graph::Value> inputs;
    };
    const std::string rowsum = workloads::rowSumIdSource();
    const std::vector<Case> cases = {
        {"trapezoid",
         workloads::src::trapezoid,
         {graph::Value{0.0}, graph::Value{2.0},
          graph::Value{std::int64_t{256}}}},
        {"matmul", workloads::src::matmul,
         {graph::Value{std::int64_t{8}}}},
        {"wavefront", workloads::src::wavefront,
         {graph::Value{std::int64_t{16}}}},
        {"rowsum", rowsum, {graph::Value{std::int64_t{16}}}},
    };

    std::vector<bench::BenchRow> rows;
    bool allOk = true;
    sim::Table t("Emulation tiers: interpreter vs threaded code vs "
                 "lane batching");
    t.header({"workload", "tier", "batch", "host us/context",
              "speedup", "check"});

    for (const auto &c : cases) {
        const id::Compiled compiled = id::compile(c.source.c_str());

        // Reference: outputs + firings from the interpreter.
        ttda::Emulator ref(compiled.program);
        for (std::size_t p = 0; p < c.inputs.size(); ++p)
            ref.input(compiled.startCb,
                      static_cast<std::uint16_t>(p), c.inputs[p]);
        std::vector<graph::Value> want;
        for (const auto &rec : ref.run())
            want.push_back(rec.value);
        const std::uint64_t wantFired = ref.stats().fired;

        const double interpMs = timer.bestMs([&] {
            ttda::Emulator emu(compiled.program);
            for (std::size_t p = 0; p < c.inputs.size(); ++p)
                emu.input(compiled.startCb,
                          static_cast<std::uint16_t>(p), c.inputs[p]);
            emu.run();
        });

        // The interp rows are the speedups' denominator, not a gated
        // quantity.
        auto record = [&](const char *mode, std::size_t batch,
                          double ms, bool ok) {
            const bool lanes = std::string_view(mode) == "lanes";
            auto &row = rows.emplace_back(
                sim::format("{}/{}", c.name, mode) +
                (lanes ? sim::format("/b{}", batch) : ""));
            row.set("workload", c.name).set("mode", mode);
            if (lanes)
                row.set("batch", batch);
            row.set("hostMs", ms).set("speedup", interpMs / ms);
            std::string_view(mode) == "interp" ? row.info()
                                               : row.higher("speedup");
            allOk = allOk && ok;
            t.addRow({batch > 1 ? "" : c.name, mode,
                      sim::Table::num(std::uint64_t{batch}),
                      sim::Table::num(ms * 1e3, 2),
                      sim::Table::num(interpMs / ms, 1) + "x",
                      ok ? "ok" : "DIFFER"});
        };
        record("interp", 1, interpMs, true);

        std::string why;
        const auto prog =
            emul::tryCompile(compiled.program, compiled.startCb, &why);
        if (!prog) {
            std::cout << "bench_emul: " << c.name
                      << " not compilable: " << why << "\n";
            continue;
        }

        const auto sr = emul::run(*prog, c.inputs);
        const bool scalarOk = !sr.deadlocked &&
                              sr.outputs == want &&
                              sr.fired == wantFired;
        record("compiled", 1,
               timer.bestMs([&] { emul::run(*prog, c.inputs); }),
               scalarOk);

        if (!prog->laneable()) {
            std::cout << "bench_emul: " << c.name
                      << " has residual calls; skipping lanes\n";
            continue;
        }
        for (const std::size_t b : kBatches) {
            const auto br = prog->execute(b, c.inputs, {});
            const bool ok = br.outputs.at(0) == want &&
                            br.fired == wantFired * b;
            record("lanes", b,
                   timer.bestMs([&] { prog->execute(b, c.inputs, {}); }) /
                       static_cast<double>(b),
                   ok);
        }

        // ---- fleet of lane-VM contexts -------------------------
        // K independent lane-batched jobs over ONE shared const
        // CompiledProgram, claimed by W workers from the fleet's one
        // job cursor. Every job's outputs are checked against the
        // interpreter (bit-identity), and firing counts must match
        // the W=1 run. scaling is host time vs the 1-worker fleet, a
        // fact of the host's core count (~1.0 on a 1-CPU host), so
        // these rows are reported only; hostMs covers the whole job
        // set.
        {
            constexpr std::size_t kFleetJobs = 8;
            constexpr std::size_t kFleetLanes = 16;
            std::vector<std::uint64_t> refFired;
            double w1Ms = 0.0;
            for (const unsigned w : {1u, 2u, 4u}) {
                sim::Fleet::Config fc;
                fc.workers = w;
                sim::Fleet fleet(fc);
                std::vector<std::uint64_t> fired(kFleetJobs, 0);
                std::vector<char> jobOk(kFleetJobs, 0);
                const double ms = timer.bestMs([&] {
                    fleet.run(
                        kFleetJobs, [&](unsigned, std::size_t j) {
                            const auto br = prog->execute(
                                kFleetLanes, c.inputs, {});
                            fired[j] = br.fired;
                            jobOk[j] =
                                br.outputs.at(0) == want &&
                                br.fired == wantFired * kFleetLanes;
                        });
                });
                bool ok = true;
                for (const char o : jobOk)
                    ok = ok && o != 0;
                if (w == 1) {
                    refFired = fired;
                    w1Ms = ms;
                } else {
                    ok = ok && fired == refFired;
                }
                const double scaling =
                    ms > 0.0 && w1Ms > 0.0 ? w1Ms / ms : 1.0;
                rows.emplace_back(sim::format("{}/fleet/w{}", c.name, w))
                    .set("workload", c.name)
                    .set("mode", "fleet")
                    .set("batch", kFleetLanes)
                    .set("workers", w)
                    .set("hostMs", ms)
                    .set("scaling", scaling)
                    .info();
                allOk = allOk && ok;
                t.addRow({"", sim::format("fleet w{}", w),
                          sim::Table::num(std::uint64_t{kFleetLanes}),
                          sim::Table::num(
                              ms * 1e3 / (kFleetJobs * kFleetLanes),
                              2),
                          sim::Table::num(scaling, 1) + "x",
                          ok ? "ok" : "DIFFER"});
            }
        }
    }
    t.print(std::cout);

    std::cout
        << "\nShape check (paper): the testbed's high-speed emulator "
           "exists because the\ncycle-level simulator is orders of "
           "magnitude too slow for program development.\nThreaded "
           "code removes token matching from the critical path; lane "
           "batching\namortises dispatch over contexts, so "
           "per-context cost falls as batch grows.\n";

    const bool written = bench::writeBench(
        out, "bench_emul",
        "hostMs: wall time per context (fleet rows: of the whole job "
        "set), " + timer.describe() +
            "; speedup: vs interp; scaling: vs the 1-worker fleet",
        rows);
    return written && allOk ? 0 : 1;
}
