/**
 * @file
 * Steady-state serving benchmark: the machines as request servers.
 *
 * An open-loop arrival schedule (workloads::arrivalSchedule) offers
 * independent requests — root applications of a recursive service
 * program — to a *persistent* machine at a controlled fraction rho of
 * its measured capacity. Reported per load point: delivered
 * throughput, and the submit-to-completion latency distribution
 * (p50/p90/p99/p999) from ttda::Machine::requestLatency().
 *
 * Rows:
 *  - ttda_poisson_rhoR: the load sweep (R = offered / capacity; the
 *    1.2 point shows past-saturation behavior — throughput plateaus
 *    at capacity while the tail explodes with queueing);
 *  - ttda_bursty / ttda_diurnal: shape sensitivity at rho 0.8;
 *  - ttda_det_t1: the rho-0.8 point re-run on a fresh machine — cycles
 *    and quantiles must be bit-identical to the sweep row (which ran
 *    on a reset()-reused machine), or the bench aborts: the reset()
 *    determinism contract;
 *  - ttda_reset_reuse: host-time ratio of reconstruct-per-epoch vs
 *    reset()-per-epoch (the fast path's reason to exist);
 *  - ttda_brownout: the rho-0.8 point on a lossy fabric — a mid-run
 *    drop-rate spike (dropspike fault window) under net::ReliableNet;
 *    every request still completes, the tail absorbs the retries;
 *  - vn_poisson_rhoR: the von Neumann tier serving the same schedule
 *    through its fixed hardware-context pool (workloads::VnServeDriver).
 *
 * Output: a table, plus BENCH_serve.json (argv[1] overrides the path)
 * for scripts/bench_guard.sh — zero-fault rows gate on hostMs, the
 * brownout row is informational, and the reset row gates on the
 * speedup ratio.
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "serve/fleet.hh"
#include "workloads/arrivals.hh"
#include "workloads/dfg_programs.hh"
#include "workloads/vn_serve.hh"

namespace
{

struct Row
{
    std::string name;
    std::string tier;     //!< "ttda" / "vn" / "epoch"
    double rho = 0.0;     //!< offered load / measured capacity
    bool faulted = false; //!< brownout rows: informational in guard
    std::uint64_t requests = 0;
    std::uint64_t completed = 0;
    std::uint64_t simCycles = 0;
    double offeredPerKcycle = 0.0;
    double completedPerKcycle = 0.0;
    double mean = 0.0, p50 = 0.0, p90 = 0.0, p99 = 0.0, p999 = 0.0;
    std::uint64_t watermarkHits = 0;
    double hostMs = 0.0;
    // ttda_reset_reuse only:
    double freshMs = 0.0, reuseMs = 0.0, resetSpeedup = 0.0;
    // fleet rows only:
    std::uint32_t workers = 0; //!< 0 marks non-fleet rows
    std::uint64_t jobs = 0;
    double jobsPerSec = 0.0;  //!< host-time throughput (informational)
    double fleetScaling = 0.0; //!< jobsPerSec / the w=1 row's
};

std::uint32_t gReps = 3;
std::uint32_t gWarmup = 1;

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

void
fillLatency(Row &row, const sim::Histogram &h)
{
    row.mean = h.summary().mean();
    row.p50 = h.quantile(0.5);
    row.p90 = h.quantile(0.9);
    row.p99 = h.quantile(0.99);
    row.p999 = h.quantile(0.999);
}

constexpr std::int64_t kFibN = 9;    //!< service program argument
constexpr std::size_t kRequests = 256;
constexpr std::uint64_t kSchedSeed = 42;

/** Submit the whole schedule and serve it; fills the common fields. */
Row
serveTtda(ttda::Machine &m, std::uint16_t cb,
          const std::vector<sim::Cycle> &arrivals, std::string name,
          double rho, double mean_gap,
          bench::SimOptions *opts = nullptr)
{
    for (const sim::Cycle at : arrivals)
        m.submit(cb, {graph::Value{kFibN}}, at);
    const auto t0 = std::chrono::steady_clock::now();
    m.serve();
    const auto t1 = std::chrono::steady_clock::now();

    Row row;
    row.name = std::move(name);
    row.tier = "ttda";
    row.rho = rho;
    row.requests = m.requestsSubmitted();
    row.completed = m.requestsCompleted();
    row.simCycles = m.cycles();
    row.offeredPerKcycle = 1000.0 / mean_gap;
    row.completedPerKcycle =
        row.simCycles
            ? 1000.0 * static_cast<double>(row.completed) /
                  static_cast<double>(row.simCycles)
            : 0.0;
    row.watermarkHits = m.watermarkHits();
    row.hostMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    fillLatency(row, m.requestLatency());
    if (m.deadlocked())
        sim::fatal("serve deadlocked in {}", row.name);
    if (row.completed != row.requests)
        sim::fatal("{}: {} of {} requests completed", row.name,
                   row.completed, row.requests);
    // --metrics: the serving gauges (srv.inFlight, srv.admitQueue,
    // srv.watermarkHits) ride the machine's ordinary time series.
    if (opts)
        opts->writeMetrics(row.name);
    return row;
}

bool
writeJson(const std::vector<Row> &rows, const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "bench_serve: cannot open " << path
                  << " for writing\n";
        return false;
    }
    os << "{\n  \"benchmark\": \"bench_serve\",\n  \"unit_note\": "
          "\"latencies in cycles; hostMs is one serve() wall time\",\n"
          "  \"runs\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        os << "    {\n"
           << "      \"name\": \"" << r.name << "\",\n"
           << "      \"tier\": \"" << r.tier << "\",\n"
           << "      \"rho\": " << r.rho << ",\n"
           << "      \"faulted\": " << (r.faulted ? "true" : "false")
           << ",\n"
           << "      \"requests\": " << r.requests << ",\n"
           << "      \"completed\": " << r.completed << ",\n"
           << "      \"simCycles\": " << r.simCycles << ",\n"
           << "      \"offeredPerKcycle\": " << r.offeredPerKcycle
           << ",\n"
           << "      \"completedPerKcycle\": " << r.completedPerKcycle
           << ",\n"
           << "      \"mean\": " << r.mean << ",\n"
           << "      \"p50\": " << r.p50 << ",\n"
           << "      \"p90\": " << r.p90 << ",\n"
           << "      \"p99\": " << r.p99 << ",\n"
           << "      \"p999\": " << r.p999 << ",\n"
           << "      \"watermarkHits\": " << r.watermarkHits << ",\n"
           << "      \"freshMs\": " << r.freshMs << ",\n"
           << "      \"reuseMs\": " << r.reuseMs << ",\n"
           << "      \"resetSpeedup\": " << r.resetSpeedup << ",\n"
           << "      \"workers\": " << r.workers << ",\n"
           << "      \"jobs\": " << r.jobs << ",\n"
           << "      \"jobsPerSec\": " << r.jobsPerSec << ",\n"
           << "      \"fleetScaling\": " << r.fleetScaling << ",\n"
           << "      \"hostMs\": " << r.hostMs << "\n"
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
    gReps = opts.reps();
    gWarmup = opts.warmup();
    const std::string out =
        opts.args.size() > 1 ? opts.args[1] : "BENCH_serve.json";

    graph::Program prog;
    const std::uint16_t cb = workloads::buildFib(prog);

    ttda::MachineConfig baseCfg;
    baseCfg.numPEs = 8;
    baseCfg.netLatency = 2;
    opts.apply(baseCfg);

    // ---- calibration: measured capacity and watermark scale --------
    // A closed batch of simultaneous requests saturates the machine;
    // its completion rate is the capacity the sweep's rho is relative
    // to, and its peak waiting-matching occupancy sizes the admission
    // watermark (half the all-at-once peak: low enough to engage past
    // saturation, high enough to stay open at rho < 1).
    constexpr std::size_t kCal = 32;
    double svcGap = 0.0;
    std::uint32_t wmHigh = 0;
    {
        // Calibration and epoch-timing machines run unmetered: their
        // rows would pollute the --metrics series of the real load
        // points (and new per-subsystem series must not appear after
        // sampling began).
        ttda::MachineConfig calCfg = baseCfg;
        calCfg.metrics = nullptr;
        ttda::Machine m(prog, calCfg);
        for (std::size_t i = 0; i < kCal; ++i)
            m.submit(cb, {graph::Value{kFibN}}, 0);
        m.serve();
        svcGap = static_cast<double>(m.cycles()) /
                 static_cast<double>(kCal);
        wmHigh = std::max<std::uint32_t>(
            64, static_cast<std::uint32_t>(
                    m.waitStoreResidency().summary().max() / 2.0));
    }

    ttda::MachineConfig serveCfg = baseCfg;
    serveCfg.wmHighWatermark = wmHigh;
    serveCfg.wmLowWatermark = wmHigh / 2;

    std::vector<Row> rows;

    // ---- load sweep on ONE machine, reset() between points ---------
    auto scheduleFor = [&](workloads::ArrivalKind kind, double rho) {
        workloads::ArrivalConfig ac;
        ac.kind = kind;
        ac.meanGap = svcGap / rho;
        ac.seed = kSchedSeed;
        return workloads::arrivalSchedule(ac, kRequests);
    };

    {
        ttda::Machine m(prog, serveCfg);
        for (const double rho : {0.2, 0.5, 0.8, 1.0, 1.2}) {
            m.reset();
            rows.push_back(serveTtda(
                m, cb, scheduleFor(workloads::ArrivalKind::Poisson, rho),
                sim::format("ttda_poisson_rho{}", rho), rho,
                svcGap / rho, &opts));
        }
        for (const auto kind : {workloads::ArrivalKind::Bursty,
                                workloads::ArrivalKind::Diurnal}) {
            m.reset();
            rows.push_back(serveTtda(
                m, cb, scheduleFor(kind, 0.8),
                sim::format("ttda_{}_rho0.8",
                            workloads::arrivalKindName(kind)),
                0.8, svcGap / 0.8, &opts));
        }
    }

    // ---- determinism: a fresh machine ------------------------------
    // Must reproduce the sweep's rho-0.8 row exactly: that row ran on
    // a machine that had been reset() five times, this one is fresh.
    // The "_t1" suffix keeps the name BENCH_serve.json and
    // scripts/bench_guard.sh key the row's floor on.
    {
        const Row ref = rows[2]; // ttda_poisson_rho0.8
        ttda::Machine m(prog, serveCfg);
        Row row = serveTtda(
            m, cb, scheduleFor(workloads::ArrivalKind::Poisson, 0.8),
            "ttda_det_t1", 0.8, svcGap / 0.8, &opts);
        if (row.simCycles != ref.simCycles || row.p99 != ref.p99 ||
            row.p999 != ref.p999 || row.mean != ref.mean)
            sim::fatal("{}: serving run diverged from the reference "
                       "(cycles {} vs {}, p99 {} vs {})",
                       row.name, row.simCycles, ref.simCycles, row.p99,
                       ref.p99);
        rows.push_back(std::move(row));
    }

    // ---- reset() vs reconstruct epoch cost -------------------------
    // Small epochs so per-epoch setup is a visible fraction: the
    // reused machine keeps its warmed waiting-matching stores, queue
    // storage and I-structure chunks across epochs.
    {
        constexpr std::size_t kEpochReq = 8;
        ttda::MachineConfig epochCfg = serveCfg;
        epochCfg.metrics = nullptr;
        const auto epochOn = [&](ttda::Machine &m) {
            for (std::size_t i = 0; i < kEpochReq; ++i)
                m.submit(cb, {graph::Value{std::int64_t{6}}}, 0);
            m.serve();
        };
        sim::Cycle freshCycles = 0, reuseCycles = 0;
        const double freshMs = bestMs([&] {
            ttda::Machine m(prog, epochCfg);
            epochOn(m);
            freshCycles = m.cycles();
        });
        ttda::Machine reused(prog, epochCfg);
        const double reuseMs = bestMs([&] {
            reused.reset();
            epochOn(reused);
            reuseCycles = reused.cycles();
        });
        if (freshCycles != reuseCycles)
            sim::fatal("reset epoch diverged: {} vs {} cycles",
                       reuseCycles, freshCycles);
        Row row;
        row.name = "ttda_reset_reuse";
        row.tier = "epoch";
        row.requests = kEpochReq;
        row.completed = kEpochReq;
        row.simCycles = freshCycles;
        row.freshMs = freshMs;
        row.reuseMs = reuseMs;
        row.resetSpeedup = reuseMs > 0.0 ? freshMs / reuseMs : 0.0;
        row.hostMs = reuseMs;
        rows.push_back(std::move(row));
    }

    // ---- brownout: mid-run drop spike under ReliableNet ------------
    {
        const auto arrivals =
            scheduleFor(workloads::ArrivalKind::Poisson, 0.8);
        const sim::Cycle span = arrivals.back();
        ttda::MachineConfig cfg = serveCfg;
        cfg.reliableNet = true;
        sim::fault::Event spike;
        spike.kind = sim::fault::Event::Kind::DropSpike;
        spike.from = span / 3;
        spike.to = 2 * span / 3;
        spike.a = 20000; // 2% drop inside the window
        cfg.faults.seed = 9;
        cfg.faults.events.push_back(spike);
        ttda::Machine m(prog, cfg);
        Row row = serveTtda(m, cb, arrivals, "ttda_brownout_rho0.8",
                            0.8, svcGap / 0.8, &opts);
        row.faulted = true;
        rows.push_back(std::move(row));
    }

    // ---- the von Neumann tier serving the same shapes --------------
    vn::VnMachineConfig vnCfg;
    vnCfg.numCores = 4;
    vnCfg.topology = vn::VnMachineConfig::Topology::Ideal;
    vnCfg.netLatency = 8;
    vnCfg.core.numContexts = 4;
    vnCfg.core.switchCost = 1;
    vnCfg.wordsPerModule = 4096;
    opts.apply(vnCfg);

    const auto vnRequests = [&](const std::vector<sim::Cycle> &arrivals) {
        std::vector<workloads::VnRequest> reqs;
        reqs.reserve(arrivals.size());
        for (std::size_t i = 0; i < arrivals.size(); ++i) {
            workloads::VnRequest r;
            r.arrival = arrivals[i];
            r.loads = 4;
            r.computePerLoad = 8;
            // Walk the whole address space, hopping modules per load.
            r.addr = (i * 97) % (vnCfg.numCores * vnCfg.wordsPerModule);
            r.stride = vnCfg.wordsPerModule + 1;
            r.addrSpace = vnCfg.numCores * vnCfg.wordsPerModule;
            reqs.push_back(r);
        }
        return reqs;
    };

    double vnSvcGap = 0.0;
    {
        vn::VnMachineConfig calCfg = vnCfg;
        calCfg.metrics = nullptr;
        vn::VnMachine m(calCfg);
        workloads::VnServeDriver drv(
            m, vnRequests(std::vector<sim::Cycle>(64, 0)));
        drv.attach();
        m.run();
        vnSvcGap = static_cast<double>(m.cycles()) / 64.0;
    }
    for (const double rho : {0.5, 1.0}) {
        workloads::ArrivalConfig ac;
        ac.meanGap = vnSvcGap / rho;
        ac.seed = kSchedSeed;
        const auto arrivals =
            workloads::arrivalSchedule(ac, kRequests);
        vn::VnMachine m(vnCfg);
        workloads::VnServeDriver drv(m, vnRequests(arrivals));
        drv.attach();
        const auto t0 = std::chrono::steady_clock::now();
        m.run();
        const auto t1 = std::chrono::steady_clock::now();
        Row row;
        row.name = sim::format("vn_poisson_rho{}", rho);
        row.tier = "vn";
        row.rho = rho;
        row.requests = drv.submitted();
        row.completed = drv.completed();
        row.simCycles = m.cycles();
        row.offeredPerKcycle = 1000.0 * rho / vnSvcGap;
        row.completedPerKcycle =
            1000.0 * static_cast<double>(row.completed) /
            static_cast<double>(row.simCycles);
        row.hostMs =
            std::chrono::duration<double, std::milli>(t1 - t0)
                .count();
        fillLatency(row, drv.latency());
        if (row.completed != row.requests)
            sim::fatal("{}: {} of {} requests completed", row.name,
                       row.completed, row.requests);
        opts.writeMetrics(row.name);
        rows.push_back(std::move(row));
    }

    // ---- fleet: job-level scale-out across warm replicas -----------
    // M concurrent epochs (closed loop: all queued up front) claimed
    // by W workers from the fleet's one job cursor. Per-job results are
    // bit-identical for every W — asserted against the W=1 run — so
    // the only thing the worker count may change is hostMs. jobs/sec
    // and the scaling ratio are host-time facts: informational, and
    // ~1.0 scaling expected on a 1-CPU host.
    {
        constexpr std::size_t kFleetJobs = 16;
        constexpr std::size_t kFleetReq = 32;
        std::vector<serve::FleetJob> jobs(kFleetJobs);
        for (std::size_t j = 0; j < kFleetJobs; ++j) {
            workloads::ArrivalConfig ac;
            ac.meanGap = svcGap / 0.8;
            ac.seed = sim::deriveJobSeed(kSchedSeed, j);
            const auto arrivals =
                workloads::arrivalSchedule(ac, kFleetReq);
            jobs[j].cb = cb;
            for (const sim::Cycle at : arrivals)
                jobs[j].requests.push_back(
                    serve::FleetRequest{{graph::Value{kFibN}}, at});
        }

        std::vector<serve::FleetJobResult> ref;
        double w1JobsPerSec = 0.0;
        for (const unsigned w : {1u, 2u, 4u}) {
            serve::FleetConfig fc;
            fc.workers = w;
            serve::TtdaFleet fleet(prog, serveCfg, fc);
            std::vector<serve::FleetJobResult> results;
            const double ms =
                bestMs([&] { results = fleet.run(jobs); });

            Row row;
            row.name = sim::format("ttda_fleet_w{}", w);
            row.tier = "fleet";
            row.rho = 0.8;
            row.workers = w;
            row.jobs = kFleetJobs;
            for (const auto &r : results) {
                row.requests += r.submitted;
                row.completed += r.completed;
                row.simCycles += r.cycles;
                row.watermarkHits += r.watermarkHits;
                if (r.deadlocked)
                    sim::fatal("{}: fleet job deadlocked", row.name);
            }
            if (row.completed != row.requests)
                sim::fatal("{}: {} of {} requests completed",
                           row.name, row.completed, row.requests);
            row.offeredPerKcycle = 1000.0 * 0.8 / svcGap;
            row.completedPerKcycle =
                1000.0 * static_cast<double>(row.completed) /
                static_cast<double>(row.simCycles);
            fillLatency(row,
                        serve::TtdaFleet::mergedLatency(results));
            row.hostMs = ms;
            row.jobsPerSec =
                ms > 0.0 ? 1000.0 * kFleetJobs / ms : 0.0;
            if (w == 1) {
                ref = results;
                w1JobsPerSec = row.jobsPerSec;
                row.fleetScaling = 1.0;
            } else {
                row.fleetScaling = w1JobsPerSec > 0.0
                                       ? row.jobsPerSec / w1JobsPerSec
                                       : 0.0;
                // The tentpole contract: worker count, replica
                // assignment, and claim order must not reach results.
                for (std::size_t j = 0; j < ref.size(); ++j) {
                    const auto &a = ref[j];
                    const auto &b = results[j];
                    if (a.cycles != b.cycles ||
                        a.outputs.size() != b.outputs.size() ||
                        a.latency.bins() != b.latency.bins())
                        sim::fatal("{}: job {} diverged from the "
                                   "1-worker fleet (cycles {} vs {})",
                                   row.name, j, b.cycles, a.cycles);
                    for (std::size_t i = 0; i < a.outputs.size(); ++i)
                        if (!(a.outputs[i].value == b.outputs[i].value))
                            sim::fatal("{}: job {} output {} diverged",
                                       row.name, j, i);
                }
            }
            rows.push_back(std::move(row));
        }
    }

    // The von Neumann tier's fleet: fresh machine per job (no warm
    // reset path on that tier), same determinism assertion.
    {
        constexpr std::size_t kVnJobs = 8;
        std::vector<serve::VnFleetJob> vnJobs(kVnJobs);
        for (std::size_t j = 0; j < kVnJobs; ++j) {
            workloads::ArrivalConfig ac;
            ac.meanGap = vnSvcGap / 0.8;
            ac.seed = sim::deriveJobSeed(kSchedSeed, j);
            vnJobs[j].requests =
                vnRequests(workloads::arrivalSchedule(ac, 64));
        }
        std::vector<serve::VnFleetJobResult> ref;
        double w1JobsPerSec = 0.0;
        for (const unsigned w : {1u, 2u, 4u}) {
            serve::FleetConfig fc;
            fc.workers = w;
            serve::VnFleet fleet(vnCfg, fc);
            std::vector<serve::VnFleetJobResult> results;
            const double ms =
                bestMs([&] { results = fleet.run(vnJobs); });

            Row row;
            row.name = sim::format("vn_fleet_w{}", w);
            row.tier = "fleet";
            row.rho = 0.8;
            row.workers = w;
            row.jobs = kVnJobs;
            sim::Histogram lat;
            for (const auto &r : results) {
                row.requests += r.submitted;
                row.completed += r.completed;
                row.simCycles += r.cycles;
                lat.merge(r.latency);
            }
            if (row.completed != row.requests)
                sim::fatal("{}: {} of {} requests completed",
                           row.name, row.completed, row.requests);
            row.offeredPerKcycle = 1000.0 * 0.8 / vnSvcGap;
            row.completedPerKcycle =
                1000.0 * static_cast<double>(row.completed) /
                static_cast<double>(row.simCycles);
            fillLatency(row, lat);
            row.hostMs = ms;
            row.jobsPerSec = ms > 0.0 ? 1000.0 * kVnJobs / ms : 0.0;
            if (w == 1) {
                ref = results;
                w1JobsPerSec = row.jobsPerSec;
                row.fleetScaling = 1.0;
            } else {
                row.fleetScaling = w1JobsPerSec > 0.0
                                       ? row.jobsPerSec / w1JobsPerSec
                                       : 0.0;
                for (std::size_t j = 0; j < ref.size(); ++j)
                    if (ref[j].cycles != results[j].cycles ||
                        ref[j].latency.bins() !=
                            results[j].latency.bins())
                        sim::fatal("{}: job {} diverged from the "
                                   "1-worker fleet",
                                   row.name, j);
            }
            rows.push_back(std::move(row));
        }
    }

    sim::Table t(sim::format(
        "Open-loop serving: capacity gap ttda={} vn={} cycles/request "
        "(wm watermark {})",
        sim::Table::num(svcGap, 1), sim::Table::num(vnSvcGap, 1),
        wmHigh));
    t.header({"config", "rho", "offered/kc", "done/kc", "p50", "p90",
              "p99", "p999", "wm hits", "host ms"});
    for (const Row &r : rows)
        t.addRow({r.name, sim::Table::num(r.rho, 2),
                  sim::Table::num(r.offeredPerKcycle, 3),
                  sim::Table::num(r.completedPerKcycle, 3),
                  sim::Table::num(r.p50, 0), sim::Table::num(r.p90, 0),
                  sim::Table::num(r.p99, 0),
                  sim::Table::num(r.p999, 0),
                  sim::Table::num(r.watermarkHits),
                  sim::Table::num(r.hostMs, 3)});
    t.print(std::cout);
    std::cout << "reset/reconstruct: see ttda_reset_reuse row "
                 "(resetSpeedup = reconstruct ms / reset ms)\n";

    if (!writeJson(rows, out))
        return 1;
    std::cout << "wrote " << out << "\n";
    return 0;
}
