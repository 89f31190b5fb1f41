/**
 * @file
 * Host-performance microbenchmarks (google-benchmark): throughput of
 * the simulator's hot paths. These are engineering benchmarks for the
 * simulator itself, complementing the E1-E11 experiment binaries.
 *
 * Arguments go through bench::SimOptions like every other bench:
 * --seed/--fault-seed/--fault-plan/--reliable shape the
 * machine configs below, and --reps=N forwards to google-benchmark as
 * --benchmark_repetitions=N. Native --benchmark_* flags still work —
 * they are split out before SimOptions sees (and would reject) them.
 * Observability sinks (--trace/--metrics) are not wired in: machines
 * constructed inside a timing loop run dark.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"

#include "common/random.hh"
#include "id/codegen.hh"
#include "mem/istructure.hh"
#include "net/omega.hh"
#include "ttda/emulator.hh"
#include "ttda/machine.hh"
#include "workloads/id_sources.hh"

namespace
{

bench::SimOptions *gOpts = nullptr;

/** Machine config for the cycle-level benches: shared flags applied,
 *  observability sinks stripped (dark timing loop). */
ttda::MachineConfig
machineConfig(std::uint32_t pes)
{
    ttda::MachineConfig cfg;
    cfg.numPEs = pes;
    if (gOpts)
        gOpts->apply(cfg);
    cfg.trace = nullptr;
    cfg.tracer = nullptr;
    cfg.metrics = nullptr;
    return cfg;
}

void
BM_IStructureStoreFetch(benchmark::State &state)
{
    mem::IStructure<int> is(1u << 16);
    std::vector<std::pair<int, mem::Word>> out;
    std::uint64_t addr = 0;
    for (auto _ : state) {
        out.clear();
        is.fetch(addr, 1, out);          // deferred
        is.store(addr, 42, out);         // satisfies it
        benchmark::DoNotOptimize(out);
        is.clear(addr, 1);
        addr = (addr + 1) & 0xffff;
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_IStructureStoreFetch);

void
BM_OmegaStep(benchmark::State &state)
{
    const auto ports = static_cast<sim::NodeId>(state.range(0));
    net::OmegaNet<std::uint64_t> nw(ports);
    sim::Rng rng(1);
    sim::Cycle cycle = 0;
    for (auto _ : state) {
        nw.send(static_cast<sim::NodeId>(rng.below(ports)),
                static_cast<sim::NodeId>(rng.below(ports)), cycle);
        nw.step(cycle);
        ++cycle;
        for (sim::NodeId p = 0; p < ports; ++p)
            while (nw.receive(p)) {}
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OmegaStep)->Arg(16)->Arg(64)->Arg(256);

const char *kFibSource = R"(
    def fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2);
    def main(n) = fib(n);
)";

void
BM_EmulatorFib(benchmark::State &state)
{
    const id::Compiled compiled = id::compile(kFibSource);
    std::uint64_t fired = 0;
    for (auto _ : state) {
        ttda::Emulator emu(compiled.program);
        emu.input(compiled.startCb, 0,
                  graph::Value{std::int64_t{14}});
        auto out = emu.run();
        benchmark::DoNotOptimize(out);
        fired += emu.stats().fired;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
    state.SetLabel("activities/iteration");
}
BENCHMARK(BM_EmulatorFib);

void
BM_MachineFib(benchmark::State &state)
{
    const id::Compiled compiled = id::compile(kFibSource);
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const auto cfg = machineConfig(
            static_cast<std::uint32_t>(state.range(0)));
        ttda::Machine m(compiled.program, cfg);
        m.input(compiled.startCb, 0, graph::Value{std::int64_t{12}});
        auto out = m.run();
        benchmark::DoNotOptimize(out);
        cycles += m.cycles();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
    state.SetLabel("simulated cycles/s in items");
}
BENCHMARK(BM_MachineFib)->Arg(1)->Arg(8);

void
BM_MachineWavefront(benchmark::State &state)
{
    const id::Compiled compiled =
        id::compile(workloads::src::wavefront);
    std::uint64_t fired = 0;
    for (auto _ : state) {
        const auto cfg = machineConfig(8);
        ttda::Machine m(compiled.program, cfg);
        m.input(compiled.startCb, 0, graph::Value{std::int64_t{8}});
        auto out = m.run();
        benchmark::DoNotOptimize(out);
        fired += m.totalFired();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
    state.SetLabel("activities/s in items");
}
BENCHMARK(BM_MachineWavefront);

void
BM_EmulatorMergesort(benchmark::State &state)
{
    const id::Compiled compiled =
        id::compile(workloads::src::mergesort);
    std::uint64_t fired = 0;
    for (auto _ : state) {
        ttda::Emulator emu(compiled.program);
        emu.input(compiled.startCb, 0,
                  graph::Value{std::int64_t{32}});
        auto out = emu.run();
        benchmark::DoNotOptimize(out);
        fired += emu.stats().fired;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
    state.SetLabel("activities/s in items");
}
BENCHMARK(BM_EmulatorMergesort);

void
BM_CompileTrapezoid(benchmark::State &state)
{
    const std::string source = R"(
        def f(x) = x * x;
        def main(a, b, n) =
          let h = (b - a) / n in
          (initial s <- (f(a) + f(b)) / 2.0; x <- a + h
           for i from 1 to n - 1 do
             new x <- x + h;
             new s <- s + f(x)
           return s) * h;
    )";
    for (auto _ : state) {
        auto compiled = id::compile(source);
        benchmark::DoNotOptimize(compiled);
    }
}
BENCHMARK(BM_CompileTrapezoid);

} // namespace

int
main(int argc, char **argv)
{
    // Split argv: google-benchmark's own flags bypass SimOptions
    // (which fatals on flags it doesn't know), everything else goes
    // through the shared parser first.
    std::vector<char *> bmArgs, simArgs;
    if (argc > 0) {
        bmArgs.push_back(argv[0]);
        simArgs.push_back(argv[0]);
    }
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--benchmark_", 12) == 0)
            bmArgs.push_back(argv[i]);
        else
            simArgs.push_back(argv[i]);
    }
    int simArgc = static_cast<int>(simArgs.size());
    static bench::SimOptions opts(simArgc, simArgs.data());
    gOpts = &opts;

    // --reps means "timed repetitions" everywhere else; forward it as
    // google-benchmark's equivalent. (--warmup has no counterpart —
    // the harness already runs untimed calibration iterations.)
    std::string repsFlag;
    if (opts.repsSet()) {
        repsFlag = "--benchmark_repetitions=" +
                   std::to_string(opts.reps());
        bmArgs.push_back(repsFlag.data());
    }

    int bmArgc = static_cast<int>(bmArgs.size());
    benchmark::Initialize(&bmArgc, bmArgs.data());
    if (benchmark::ReportUnrecognizedArguments(bmArgc, bmArgs.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
