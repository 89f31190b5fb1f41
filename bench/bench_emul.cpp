/**
 * @file
 * Emulation-tier throughput curves: the token-at-a-time interpreter
 * vs the threaded-code scalar VM vs the lane-batched VM at batch
 * sizes 1..256, over four laneable workloads (trapezoid, matmul,
 * wavefront, rowsum). Prints a table and writes the measurements as
 * machine-readable JSON (BENCH_emul.json by default, or argv[1]) for
 * scripts/bench_guard.sh, which fails CI when a compiled-tier speedup
 * falls below the committed baseline.
 *
 * hostMs is best-of-N wall time per context; speedup is relative to
 * the interpreter on the same workload. Every tier's result and
 * firing count is checked against the interpreter before timing is
 * reported — a DIFFER in the table means the measurement is invalid.
 */

#include <chrono>
#include <fstream>
#include <functional>

#include "bench_util.hh"

#include "common/fleet.hh"
#include "ttda/emulator.hh"
#include "workloads/id_sources.hh"
#include "workloads/rowsum.hh"

namespace
{

constexpr int kReps = 5;
constexpr std::size_t kBatches[] = {1, 4, 16, 64, 256};

struct Row
{
    std::string workload;
    std::string mode;
    std::size_t batch = 1;
    double hostMs = 0;  //!< per context (fleet rows: whole job set)
    double speedup = 1; //!< vs interp; fleet rows: scaling vs w=1
    bool ok = true;     //!< outputs + firings match the interpreter
    unsigned workers = 0; //!< fleet rows only
};

double
bestMs(int reps, const std::function<void()> &fn)
{
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        best = std::min(
            best, std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
    }
    return best;
}

bool
writeJson(const std::vector<Row> &rows, const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "bench_emul: cannot open " << path
                  << " for writing\n";
        return false;
    }
    os << "{\n  \"benchmark\": \"bench_emul\",\n  \"unit_note\": "
          "\"hostMs is best-of-"
       << kReps
       << " wall time per context; speedup is vs interp\",\n"
          "  \"runs\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        os << "    {\n"
           << "      \"name\": \"" << r.workload << "/" << r.mode;
        if (r.mode == "lanes")
            os << "/b" << r.batch;
        if (r.mode == "fleet")
            os << "/w" << r.workers;
        os << "\",\n"
           << "      \"workload\": \"" << r.workload << "\",\n"
           << "      \"mode\": \"" << r.mode << "\",\n"
           << "      \"batch\": " << r.batch << ",\n"
           << "      \"workers\": " << r.workers << ",\n"
           << "      \"hostMs\": " << r.hostMs << ",\n"
           << "      \"speedup\": " << r.speedup << "\n"
           << "    }" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.good();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::SimOptions opts(argc, argv);
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

    std::vector<Row> rows;
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

        const double interpMs = bestMs(3, [&] {
            ttda::Emulator emu(compiled.program);
            for (std::size_t p = 0; p < c.inputs.size(); ++p)
                emu.input(compiled.startCb,
                          static_cast<std::uint16_t>(p), c.inputs[p]);
            emu.run();
        });

        auto record = [&](const char *mode, std::size_t batch,
                          double ms, bool ok) {
            rows.push_back(
                {c.name, mode, batch, ms, interpMs / ms, ok});
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
               bestMs(kReps, [&] { emul::run(*prog, c.inputs); }),
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
                   bestMs(kReps,
                          [&] { prog->execute(b, c.inputs, {}); }) /
                       static_cast<double>(b),
                   ok);
        }

        // ---- fleet of lane-VM contexts -------------------------
        // K independent lane-batched jobs over ONE shared const
        // CompiledProgram, claimed by W workers from the fleet's one
        // job cursor. Every job's outputs are checked against the
        // interpreter (bit-identity), and firing counts must match
        // the W=1 run. speedup here is host-time *scaling* vs the
        // 1-worker fleet — informational, ~1.0 on a 1-CPU host —
        // and hostMs covers the whole job set.
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
                const double ms = bestMs(3, [&] {
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
                Row row;
                row.workload = c.name;
                row.mode = "fleet";
                row.batch = kFleetLanes;
                row.workers = w;
                row.hostMs = ms;
                row.speedup = ms > 0.0 && w1Ms > 0.0 ? w1Ms / ms
                                                     : 1.0;
                row.ok = ok;
                rows.push_back(row);
                t.addRow({"", sim::format("fleet w{}", w),
                          sim::Table::num(std::uint64_t{kFleetLanes}),
                          sim::Table::num(
                              ms * 1e3 / (kFleetJobs * kFleetLanes),
                              2),
                          sim::Table::num(row.speedup, 1) + "x",
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

    bool ok = writeJson(rows, out);
    for (const auto &r : rows)
        ok = ok && r.ok;
    return ok ? 0 : 1;
}
