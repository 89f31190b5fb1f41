/**
 * @file
 * perfbench — host-time benchmark of the simulator's public APIs.
 *
 *   perfbench --workload <sim_dense|fleet_lossy|daemon_closed|emul_fleet>
 *             --seed N --seconds S --trace 0|1
 *             [--simd PATH] [--trace-out PATH] [--commit SHA]
 *
 * Sets the workload up three times, runs its fixed op schedule once
 * untraced for the end-to-end metrics and, with --trace 1, once more
 * with spans recorded for the per-layer metrics, then sets it up three
 * more times; setup_s is the larger of the two groups' medians.
 * The last stdout line is the result object; the line before it is the
 * run context (informational, never compared).
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

/** Set-ups timed before the timed passes, and again after them. The
 *  two groups lie tens of seconds apart, so on a host that runs in
 *  fast and slow phases (see summarizePass) at least one of them
 *  usually falls in the common, slower phase; setup_s takes the
 *  slower group's median. */
constexpr int kSetupsPerGroup = 3;

volatile std::uint64_t gProbeSink = 0;

/** A fixed 10^8-step integer loop: tells a slow host period apart
 *  from a slow program. */
double
hostProbeS()
{
    const std::int64_t t0 = pb::nowNs();
    std::uint64_t x = 88172645463325252ULL;
    for (std::uint32_t i = 0; i < 100'000'000u; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    gProbeSink = x;
    return static_cast<double>(pb::nowNs() - t0) * 1e-9;
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S"
                 " --trace 0|1 [--simd PATH] [--trace-out PATH]"
                 " [--commit SHA]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    pb::Options opts;
    std::string commit = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload")
            opts.workload = v;
        else if (a == "--seed")
            opts.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            opts.seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace")
            opts.trace = v != "0";
        else if (a == "--simd")
            opts.simd = v;
        else if (a == "--trace-out")
            opts.traceOut = v;
        else if (a == "--commit")
            commit = v;
        else
            usage("unknown option " + a);
    }
    if (!(opts.seconds > 0.0))
        usage("--seconds must be > 0");

    std::unique_ptr<pb::Workload> (*make)(const pb::Options &) = nullptr;
    if (opts.workload == "sim_dense")
        make = pb::makeSimDense;
    else if (opts.workload == "fleet_lossy")
        make = pb::makeFleetLossy;
    else if (opts.workload == "daemon_closed")
        make = pb::makeDaemonClosed;
    else if (opts.workload == "emul_fleet")
        make = pb::makeEmulFleet;
    else
        usage("unknown workload \"" + opts.workload + "\"");

    try {
        const double probeBefore = hostProbeS();

        std::unique_ptr<pb::Workload> w = make(opts);
        w->prepare();
        std::vector<double> setups;
        // Appends one group's set-up times; returns the group's median.
        auto setupGroup = [&w, &setups] {
            std::vector<double> group;
            for (int s = 0; s < kSetupsPerGroup; ++s) {
                if (!setups.empty())
                    w->teardown(); // untimed
                const std::int64_t t0 = pb::nowNs();
                w->setup();
                group.push_back(static_cast<double>(pb::nowNs() - t0) *
                                1e-9);
                setups.push_back(group.back());
            }
            return pb::median(group);
        };
        const double setupBefore = setupGroup();

        pb::LayerValues layers;
        const pb::PassResult plain = w->pass(nullptr, layers);
        const pb::PassSummary sum = pb::summarizePass(plain, w->windowOps());

        pb::PassResult traced;
        if (opts.trace) {
            pb::Tracer tracer(w->traceSlots());
            traced = w->pass(&tracer, layers);
            const pb::TraceSummary ts = pb::summarize(tracer.spans());
            for (std::size_t l = 0; l < pb::kLayers; ++l)
                layers[std::string("self.") +
                       pb::layerName(static_cast<pb::Layer>(l)) + "_ms"] =
                    ts.selfMs[l];
            layers["trace.coverage"] = ts.coverage;
            const double tracedTput =
                pb::summarizePass(traced, w->windowOps()).throughput;
            layers["trace.overhead"] =
                tracedTput > 0 ? sum.throughput / tracedTput - 1.0 : 0.0;
            if (!opts.traceOut.empty() && !tracer.write(opts.traceOut))
                std::cerr << "perfbench: cannot write " << opts.traceOut
                          << "\n";
        }

        const double peakRss = w->peakRssMb();
        const double setupS = std::max(setupBefore, setupGroup());
        w.reset(); // stops any child process before the report
        const double probeAfter = hostProbeS();

        const std::uint64_t attempted = plain.attempted + traced.attempted;
        const std::uint64_t failed = plain.failed + traced.failed;
        const bool deterministic =
            !opts.trace || traced.digest == plain.digest;
        if (!deterministic)
            std::cerr << "perfbench: traced pass outputs differ from the "
                         "untraced pass\n";
        const bool correct = failed == 0 && deterministic &&
                             plain.attempted > 0 &&
                             !pb::pastDeadline();

        std::cout << "{\"context\":{\"workload\":\"" << opts.workload
                  << "\",\"seed\":" << opts.seed
                  << ",\"seconds\":" << num(opts.seconds)
                  << ",\"nproc\":" << std::thread::hardware_concurrency()
                  << ",\"compiler\":\"" << PERFBENCH_COMPILER
                  << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
                  << "\",\"git_commit\":\"" << commit
                  << "\",\"host_probe_s\":[" << num(probeBefore) << ","
                  << num(probeAfter) << "],\"setup_s\":[";
        for (std::size_t s = 0; s < setups.size(); ++s)
            std::cout << (s ? "," : "") << num(setups[s]);
        std::cout << "],\"ops\":" << plain.opMs.size()
                  << ",\"latency_samples\":" << sum.ops
                  << ",\"timed_s\":" << num(plain.elapsedS)
                  << ",\"digest\":\"" << std::hex << plain.digest
                  << std::dec << "\"}}\n";

        std::string metrics;
        auto add = [&metrics](const std::string &name, double value,
                              const char *unit) {
            metrics += (metrics.empty() ? "" : ",");
            metrics += "\"" + name + "\":{\"value\":" + num(value) +
                       ",\"unit\":\"" + unit + "\"}";
        };
        if (opts.trace) {
            for (const pb::LayerMetric &m : pb::layerCatalogue()) {
                const auto it = layers.find(m.name);
                add(m.name, it == layers.end() ? 0.0 : it->second, m.unit);
            }
        } else {
            add("setup_s", setupS, "s");
            add("throughput", sum.throughput, "1/s");
            add("p50_ms", sum.p50Ms, "ms");
            add("p99_ms", sum.p99Ms, "ms");
            add("peak_rss_mb", peakRss, "MB");
            add("ok_frac",
                attempted ? static_cast<double>(attempted - failed) /
                                static_cast<double>(attempted)
                          : 0.0,
                "ratio");
        }
        std::cout << "{\"correct\":" << (correct ? "true" : "false")
                  << ",\"attempted\":" << attempted
                  << ",\"failed\":" << failed << ",\"metrics\":{"
                  << metrics << "}}" << std::endl;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << opts.workload
                  << " aborted: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
