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
 * Output: a table, plus BENCH_serve.json (argv[1] overrides the path).
 * Zero-fault rows gate on hostMs, the reset row on its speedup ratio;
 * the brownout row and the multi-worker fleet rows are reported only.
 */

#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "serve/fleet.hh"
#include "workloads/arrivals.hh"
#include "workloads/dfg_programs.hh"
#include "workloads/vn_serve.hh"

namespace
{

/** One serving run's measurements. */
struct Row
{
    std::string name;
    std::string tier;     //!< "ttda" / "vn" / "fleet"
    double rho = 0.0;     //!< offered load / measured capacity
    std::uint64_t requests = 0;
    std::uint64_t completed = 0;
    std::uint64_t simCycles = 0;
    double offeredPerKcycle = 0.0;
    double completedPerKcycle = 0.0;
    double mean = 0.0, p50 = 0.0, p90 = 0.0, p99 = 0.0, p999 = 0.0;
    std::optional<std::uint64_t> watermarkHits; //!< TTDA rows only
    double hostMs = 0.0;
};

/** A serving row's fields, in the order every serving row writes
 *  them; the caller adds its own and the gate. */
bench::BenchRow
benchRow(const Row &r)
{
    bench::BenchRow row(r.name);
    row.set("tier", r.tier)
        .set("rho", r.rho)
        .set("requests", r.requests)
        .set("completed", r.completed)
        .set("simCycles", r.simCycles)
        .set("offeredPerKcycle", r.offeredPerKcycle)
        .set("completedPerKcycle", r.completedPerKcycle)
        .set("mean", r.mean)
        .set("p50", r.p50)
        .set("p90", r.p90)
        .set("p99", r.p99)
        .set("p999", r.p999);
    if (r.watermarkHits)
        row.set("watermarkHits", *r.watermarkHits);
    return row.set("hostMs", r.hostMs);
}

/** A fleet row: the serving fields plus the fleet's host-time
 *  throughput, scaling against the 1-worker fleet's `w1Ms`. Scaling
 *  past one worker is a fact of the host's core count (~1.0 on a
 *  1-CPU host), so only the 1-worker row is gated. */
bench::BenchRow
fleetRow(const Row &r, unsigned workers, std::size_t jobs, double w1Ms)
{
    const bool timed = r.hostMs > 0.0;
    bench::BenchRow row = benchRow(r);
    row.set("workers", workers)
        .set("jobs", jobs)
        .set("jobsPerSec",
             timed ? 1000.0 * static_cast<double>(jobs) / r.hostMs : 0.0)
        .set("fleetScaling", timed ? w1Ms / r.hostMs : 0.0);
    return workers > 1 ? row.info() : row.lower("hostMs");
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

/**
 * Serve the whole schedule once per rep of `timer`, each time on the
 * machine `ready()` returns freshly built or reset, and time serve()
 * alone. Every rep is checked (and, given `mustMatch`, compared with
 * that row); the row holds the last rep, and with --metrics its one
 * epoch's series is written.
 */
template <typename Ready>
Row
serveTtda(const bench::RepTimer &timer, bench::SimOptions &opts,
          Ready &&ready, std::uint16_t cb,
          const std::vector<sim::Cycle> &arrivals, std::string name,
          double rho, double mean_gap, const Row *mustMatch = nullptr)
{
    Row row;
    row.name = std::move(name);
    row.tier = "ttda";
    row.rho = rho;
    row.offeredPerKcycle = 1000.0 / mean_gap;
    row.hostMs = timer.bestOf([&] {
        // One epoch's series per row: the recorder is emptied before
        // the machine is built, as new series may not join mid-run.
        if (sim::MetricsRecorder *rec = opts.metrics())
            rec->reset();
        ttda::Machine &m = ready();
        for (const sim::Cycle at : arrivals)
            m.submit(cb, {graph::Value{kFibN}}, at);
        const double ms = bench::timeMs([&] { m.serve(); });
        row.requests = m.requestsSubmitted();
        row.completed = m.requestsCompleted();
        row.simCycles = m.cycles();
        row.completedPerKcycle =
            row.simCycles
                ? 1000.0 * static_cast<double>(row.completed) /
                      static_cast<double>(row.simCycles)
                : 0.0;
        row.watermarkHits = m.watermarkHits();
        fillLatency(row, m.requestLatency());
        if (m.deadlocked())
            sim::fatal("serve deadlocked in {}", row.name);
        if (row.completed != row.requests)
            sim::fatal("{}: {} of {} requests completed", row.name,
                       row.completed, row.requests);
        if (mustMatch && (row.simCycles != mustMatch->simCycles ||
                          row.p99 != mustMatch->p99 ||
                          row.p999 != mustMatch->p999 ||
                          row.mean != mustMatch->mean))
            sim::fatal("{}: serving run diverged from the reference "
                       "(cycles {} vs {}, p99 {} vs {})",
                       row.name, row.simCycles, mustMatch->simCycles,
                       row.p99, mustMatch->p99);
        return ms;
    });
    // --metrics: the serving gauges (srv.inFlight, srv.admitQueue,
    // srv.watermarkHits) ride the machine's ordinary time series.
    opts.writeMetrics(row.name);
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::SimOptions opts(argc, argv);
    const bench::RepTimer timer(opts);
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

    std::vector<bench::BenchRow> rows;

    // ---- load sweep on ONE machine, reset() between points ---------
    auto scheduleFor = [&](workloads::ArrivalKind kind, double rho) {
        workloads::ArrivalConfig ac;
        ac.kind = kind;
        ac.meanGap = svcGap / rho;
        ac.seed = kSchedSeed;
        return workloads::arrivalSchedule(ac, kRequests);
    };

    Row ref; // ttda_poisson_rho0.8
    {
        ttda::Machine m(prog, serveCfg);
        const auto reset = [&m]() -> ttda::Machine & {
            m.reset();
            return m;
        };
        for (const double rho : {0.2, 0.5, 0.8, 1.0, 1.2}) {
            const Row row = serveTtda(
                timer, opts, reset, cb,
                scheduleFor(workloads::ArrivalKind::Poisson, rho),
                sim::format("ttda_poisson_rho{}", rho), rho,
                svcGap / rho);
            if (rho == 0.8)
                ref = row;
            rows.push_back(benchRow(row).lower("hostMs"));
        }
        for (const auto kind : {workloads::ArrivalKind::Bursty,
                                workloads::ArrivalKind::Diurnal}) {
            const Row row = serveTtda(
                timer, opts, reset, cb, scheduleFor(kind, 0.8),
                sim::format("ttda_{}_rho0.8",
                            workloads::arrivalKindName(kind)),
                0.8, svcGap / 0.8);
            rows.push_back(benchRow(row).lower("hostMs"));
        }
    }

    // Rows whose every rep runs on a freshly built machine.
    std::optional<ttda::Machine> fresh;
    const auto freshOn = [&](const ttda::MachineConfig &cfg) {
        return [&fresh, &prog, cfg]() -> ttda::Machine & {
            return fresh.emplace(prog, cfg);
        };
    };

    // ---- determinism: a fresh machine ------------------------------
    // Must reproduce the sweep's rho-0.8 row exactly: that row ran on
    // a reset() machine, this one is fresh. The "_t1" suffix keeps
    // the name the committed BENCH_serve.json row carries.
    rows.push_back(
        benchRow(serveTtda(timer, opts, freshOn(serveCfg), cb,
                           scheduleFor(workloads::ArrivalKind::Poisson,
                                       0.8),
                           "ttda_det_t1", 0.8, svcGap / 0.8, &ref))
            .lower("hostMs"));

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
        const double freshMs = timer.bestMs([&] {
            ttda::Machine m(prog, epochCfg);
            epochOn(m);
            freshCycles = m.cycles();
        });
        ttda::Machine reused(prog, epochCfg);
        const double reuseMs = timer.bestMs([&] {
            reused.reset();
            epochOn(reused);
            reuseCycles = reused.cycles();
        });
        if (freshCycles != reuseCycles)
            sim::fatal("reset epoch diverged: {} vs {} cycles",
                       reuseCycles, freshCycles);
        rows.emplace_back("ttda_reset_reuse")
            .set("tier", "epoch")
            .set("requests", kEpochReq)
            .set("completed", reused.requestsCompleted())
            .set("simCycles", freshCycles)
            .set("freshMs", freshMs)
            .set("reuseMs", reuseMs)
            .set("resetSpeedup", reuseMs > 0.0 ? freshMs / reuseMs : 0.0)
            .higher("resetSpeedup");
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
        // A degradation measurement, not a throughput baseline.
        rows.push_back(benchRow(serveTtda(timer, opts, freshOn(cfg), cb,
                                          arrivals,
                                          "ttda_brownout_rho0.8", 0.8,
                                          svcGap / 0.8))
                           .set("faulted", true)
                           .info());
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
        Row row;
        row.name = sim::format("vn_poisson_rho{}", rho);
        row.tier = "vn";
        row.rho = rho;
        row.offeredPerKcycle = 1000.0 * rho / vnSvcGap;
        // As serveTtda: a fresh machine per rep, run() alone timed,
        // every rep checked, one epoch's series written.
        row.hostMs = timer.bestOf([&] {
            if (sim::MetricsRecorder *rec = opts.metrics())
                rec->reset();
            vn::VnMachine m(vnCfg);
            workloads::VnServeDriver drv(m, vnRequests(arrivals));
            drv.attach();
            const double ms = bench::timeMs([&] { m.run(); });
            row.requests = drv.submitted();
            row.completed = drv.completed();
            row.simCycles = m.cycles();
            row.completedPerKcycle =
                1000.0 * static_cast<double>(row.completed) /
                static_cast<double>(row.simCycles);
            fillLatency(row, drv.latency());
            if (row.completed != row.requests)
                sim::fatal("{}: {} of {} requests completed", row.name,
                           row.completed, row.requests);
            return ms;
        });
        opts.writeMetrics(row.name);
        rows.push_back(benchRow(row).lower("hostMs"));
    }

    // ---- fleet: job-level scale-out across warm replicas -----------
    // M concurrent epochs (closed loop: all queued up front) claimed
    // by W workers from the fleet's one job cursor. Per-job results are
    // bit-identical for every W — asserted against the W=1 run — so
    // the only thing the worker count may change is hostMs.
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
        double w1Ms = 0.0;
        for (const unsigned w : {1u, 2u, 4u}) {
            serve::FleetConfig fc;
            fc.workers = w;
            serve::TtdaFleet fleet(prog, serveCfg, fc);
            std::vector<serve::FleetJobResult> results;
            Row row;
            row.hostMs =
                timer.bestMs([&] { results = fleet.run(jobs); });
            row.name = sim::format("ttda_fleet_w{}", w);
            row.tier = "fleet";
            row.rho = 0.8;
            row.watermarkHits = 0;
            for (const auto &r : results) {
                row.requests += r.submitted;
                row.completed += r.completed;
                row.simCycles += r.cycles;
                *row.watermarkHits += r.watermarkHits;
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
            if (w == 1) {
                ref = results;
                w1Ms = row.hostMs;
            } else {
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
            rows.push_back(fleetRow(row, w, kFleetJobs, w1Ms));
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
        double w1Ms = 0.0;
        for (const unsigned w : {1u, 2u, 4u}) {
            serve::FleetConfig fc;
            fc.workers = w;
            serve::VnFleet fleet(vnCfg, fc);
            std::vector<serve::VnFleetJobResult> results;
            Row row;
            row.hostMs =
                timer.bestMs([&] { results = fleet.run(vnJobs); });
            row.name = sim::format("vn_fleet_w{}", w);
            row.tier = "fleet";
            row.rho = 0.8;
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
            if (w == 1) {
                ref = results;
                w1Ms = row.hostMs;
            } else {
                for (std::size_t j = 0; j < ref.size(); ++j)
                    if (ref[j].cycles != results[j].cycles ||
                        ref[j].latency.bins() !=
                            results[j].latency.bins())
                        sim::fatal("{}: job {} diverged from the "
                                   "1-worker fleet",
                                   row.name, j);
            }
            rows.push_back(fleetRow(row, w, kVnJobs, w1Ms));
        }
    }

    sim::Table t(sim::format(
        "Open-loop serving: capacity gap ttda={} vn={} cycles/request "
        "(wm watermark {})",
        sim::Table::num(svcGap, 1), sim::Table::num(vnSvcGap, 1),
        wmHigh));
    t.header({"config", "rho", "offered/kc", "done/kc", "p50", "p90",
              "p99", "p999", "wm hits", "host ms"});
    // A row lacks the fields it did not measure; their cells read "-".
    const auto cell = [](const bench::BenchRow &r, const char *key,
                         int precision) {
        const auto &v = r[key];
        return v.isNull() ? std::string("-")
                          : sim::Table::num(v.asDouble(), precision);
    };
    for (const auto &r : rows)
        t.addRow({r["name"].asStr(), cell(r, "rho", 2),
                  cell(r, "offeredPerKcycle", 3),
                  cell(r, "completedPerKcycle", 3), cell(r, "p50", 0),
                  cell(r, "p90", 0), cell(r, "p99", 0),
                  cell(r, "p999", 0), cell(r, "watermarkHits", 0),
                  cell(r, "hostMs", 3)});
    t.print(std::cout);
    std::cout << "reset/reconstruct: see ttda_reset_reuse row "
                 "(resetSpeedup = reconstruct ms / reset ms)\n";

    return bench::writeBench(
               out, "bench_serve",
               "latencies in cycles; hostMs: wall time of one serve() "
               "or run(), fleet rows: of the whole job set; freshMs "
               "and reuseMs: of one epoch; every time the " +
                   timer.describe(),
               rows)
               ? 0
               : 1;
}
