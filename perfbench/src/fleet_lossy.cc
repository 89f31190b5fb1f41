/**
 * @file
 * fleet_lossy: warm replicas serving lossy epochs through TtdaFleet.
 *
 * serve::TtdaFleet with 2 workers over 16-PE replicas with
 * reliableNet on and network latency 64. An op is one TtdaFleet::run
 * over a batch of 4 jobs, one per program (fib, vector-sum,
 * producer-consumer, trapezoid); each job is a serving epoch of
 * seeded Poisson requests with a seed-0 fault plan dropping 1% of the
 * packets. ReliableNet envelopes, acks and retransmits, the fault
 * injector, skip-ahead over the long latency, reset() and
 * setFaultPlan() per job, and the fleet queue do most of the work —
 * the layers sim_dense never touches.
 *
 * The calls inside TtdaFleet::run cannot be timed from outside, so the
 * traced pass also replays the first batches' jobs on one standalone
 * replica, calling reset/setFaultPlan/submit/serve/dumpStatsJson
 * directly; the replayed stats JSON must equal the fleet's.
 */

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fleet.hh"
#include "common/json.hh"
#include "harness.hh"
#include "programs.hh"
#include "serve/fleet.hh"
#include "workloads/arrivals.hh"
#include "workloads/dfg_programs.hh"

namespace pb
{

namespace
{

/** Batches per second of --seconds on the reference host. */
constexpr double kOpsPerSecond = 125.0;
constexpr unsigned kWorkers = 2;
constexpr std::size_t kRequestsPerJob = 2;
/** Batches the traced pass replays on the standalone replica. */
constexpr std::size_t kReplayBatches = 24;
constexpr std::size_t kWarmupBlocks = 8;

enum Family : std::size_t { Fib, VectorSum, ProdCons, Trapezoid, kFamilies };
const char *const kNames[] = {"fib", "vector-sum", "producer-consumer",
                              "trapezoid"};

/** Odd, so the median batch sits inside one template's latencies. */
constexpr std::size_t kBatchTemplates = 3;
/** Per family, the problem size of each batch template. */
const std::int64_t kSizes[kFamilies][kBatchTemplates] = {
    {5, 6, 7}, {8, 12, 16}, {8, 12, 16}, {8, 12, 16}};

/** One job of the schedule, fully resolved. */
struct JobInput
{
    Family family = Fib;
    std::vector<graph::Value> args;
    graph::Value want;
    std::uint64_t firesPerRequest = 0;
    serve::FleetJob job;
};

class FleetLossy : public Workload
{
  public:
    explicit FleetLossy(const Options &o) : opts_(o)
    {
        cfg_.numPEs = 16;
        cfg_.netLatency = 64;
        cfg_.reliableNet = true;
        cfg_.threads = 1;
        cfg_.seed = sim::deriveJobSeed(o.seed, 1);
        plan_.dropRate = 0.01; // seed 0: derived per job by the fleet
        fleetCfg_.workers = kWorkers;
    }

    std::size_t windowOps() const override { return 6 * kBatchTemplates; }

    void
    prepare() override
    {
        // Fires per request of every (family, size): one fault-free
        // run each on a standalone machine.
        buildProgram();
        for (std::size_t f = 0; f < kFamilies; ++f)
            for (std::size_t s = 0; s < kBatchTemplates; ++s) {
                ttda::Machine m(*program_, cfg_);
                const auto args =
                    argsFor(static_cast<Family>(f), kSizes[f][s], 0.5);
                for (std::size_t p = 0; p < args.size(); ++p)
                    m.input(cb_[f], static_cast<std::uint16_t>(p), args[p]);
                m.run();
                fires_[f][s] = m.totalFired();
            }
    }

    void
    setup() override
    {
        buildProgram();
        fleet_ = std::make_unique<serve::TtdaFleet>(*program_, cfg_,
                                                    fleetCfg_);
        Rng rng(opts_.seed);
        const std::size_t blocks =
            blocksFor(kOpsPerSecond, opts_.seconds, kBatchTemplates);
        batches_ = makeBatches(rng, blocks);
        double fires = 0.0;
        for (const auto &b : makeBatches(rng, kWarmupBlocks))
            if (!runBatch(*fleet_, b, 0, nullptr, nullptr, fires))
                throw std::runtime_error("warm-up batch failed");
    }

    void
    teardown() override
    {
        tracedFleet_.reset();
        fleet_.reset();
        batches_.clear();
    }

    PassResult
    pass(Tracer *tr, LayerValues &lv) override
    {
        serve::TtdaFleet *fleet = fleet_.get();
        if (tr) {
            if (!tracedFleet_) {
                serve::FleetConfig fc = fleetCfg_;
                fc.captureStatsJson = true;
                tracedFleet_ = std::make_unique<serve::TtdaFleet>(
                    *program_, cfg_, fc);
            }
            fleet = tracedFleet_.get();
        }
        Tally tally;
        tally.perWorker.assign(kWorkers, 0);
        PassResult r;
        for (std::size_t i = 0; i < batches_.size(); ++i) {
            if (pastDeadline())
                break;
            const std::int64_t t0 = nowNs();
            double fires = 0.0;
            bool ok;
            {
                Scope op(tr, 0, Layer::Op, "op", 0, i + 1);
                ok = runBatch(*fleet, batches_[i], i, tr ? &tally : nullptr,
                              &r, fires, tr, op.id());
            }
            r.op(t0, ok, fires);
        }
        r.finish();
        if (tr) {
            lv["ttda.fires"] = tally.fires;
            lv["ttda.sim_cycles"] = tally.cycles;
            lv["serve.batch_ms"] = median(tally.batchMs);
            lv["fleet.steals"] = tally.steals;
            std::uint64_t hi = 0, lo = ~std::uint64_t{0};
            for (const std::uint64_t n : tally.perWorker) {
                hi = std::max(hi, n);
                lo = std::min(lo, n);
            }
            lv["fleet.worker_imbalance"] =
                lo ? static_cast<double>(hi) / static_cast<double>(lo) : 0.0;
            replay(tally, lv, r);
        }
        return r;
    }

  private:
    struct Tally
    {
        double fires = 0, cycles = 0, steals = 0;
        std::vector<double> batchMs;
        std::vector<std::uint64_t> perWorker;
        /** Stats JSON of every job of the first kReplayBatches. */
        std::vector<std::string> statsJson;
    };

    /** The four programs in one graph; their code-block ids depend
     *  only on the build order. */
    void
    buildProgram()
    {
        program_ = std::make_unique<graph::Program>();
        cb_[Fib] = workloads::buildFib(*program_);
        cb_[VectorSum] = workloads::buildVectorSum(*program_);
        cb_[ProdCons] = workloads::buildProducerConsumer(*program_);
        cb_[Trapezoid] = workloads::buildTrapezoid(*program_);
    }

    static std::vector<graph::Value>
    argsFor(Family f, std::int64_t n, double a)
    {
        if (f == Trapezoid)
            return {rval(a), rval(a + 2.0), ival(n)};
        return {ival(n)};
    }

    static graph::Value
    reference(Family f, std::int64_t n, double a)
    {
        switch (f) {
        case Fib:
            return ival(fibRef(n));
        case VectorSum:
            return ival(vectorSumRef(n));
        case ProdCons:
            return ival(producerConsumerRef(n));
        default:
            return rval(workloads::trapezoidReference(a, a + 2.0, n));
        }
    }

    /** `blocks` blocks of the batch templates; within a batch the
     *  four jobs run in a seeded order with seeded arrivals (and a
     *  seeded interval for trapezoid). */
    std::vector<std::vector<JobInput>>
    makeBatches(Rng &rng, std::size_t blocks)
    {
        std::vector<std::vector<JobInput>> out;
        for (const std::size_t s :
             blockSchedule(rng, kBatchTemplates, blocks)) {
            std::vector<std::size_t> order = {Fib, VectorSum, ProdCons,
                                              Trapezoid};
            rng.shuffle(order);
            std::vector<JobInput> batch;
            for (const std::size_t f : order) {
                JobInput in;
                in.family = static_cast<Family>(f);
                const std::int64_t n = kSizes[f][s];
                const double a = rng.unit();
                in.args = argsFor(in.family, n, a);
                in.want = reference(in.family, n, a);
                in.firesPerRequest = fires_[f][s];
                in.job.cb = cb_[f];
                in.job.faults = plan_;
                workloads::ArrivalConfig ac;
                ac.meanGap = 256.0;
                ac.seed = rng.next();
                for (const sim::Cycle at :
                     workloads::arrivalSchedule(ac, kRequestsPerJob))
                    in.job.requests.push_back({in.args, at});
                batch.push_back(std::move(in));
            }
            out.push_back(std::move(batch));
        }
        return out;
    }

    /** Check one job's result; folds its outputs into the digest. */
    static bool
    checkJob(const JobInput &in, const serve::FleetJobResult &res,
             std::uint64_t op, PassResult *r)
    {
        std::string why;
        if (res.deadlocked)
            why = "deadlocked";
        else if (res.completed != kRequestsPerJob ||
                 res.outputs.size() != kRequestsPerJob)
            why = "incomplete epoch";
        else
            for (const auto &out : res.outputs)
                if (!sameValue(out.value, in.want))
                    why = "got " + out.value.toString() + ", want " +
                          in.want.toString();
        if (!why.empty()) {
            reportFailure("fleet_lossy", op,
                          std::string(kNames[in.family]) + ": " + why);
            return false;
        }
        if (r) {
            std::uint64_t h = res.cycles;
            for (const auto &out : res.outputs)
                h = hashAdd(hashAdd(h, valueBits(out.value)), out.tag.iter);
            r->addOp(h);
        }
        return true;
    }

    /** Serve one batch and check it; `fires` receives the activities
     *  of the jobs that checked out. */
    bool
    runBatch(serve::TtdaFleet &fleet, const std::vector<JobInput> &batch,
             std::size_t op, Tally *tally, PassResult *r, double &fires,
             Tracer *tr = nullptr, std::uint64_t parent = 0)
    {
        std::vector<serve::FleetJob> jobs;
        jobs.reserve(batch.size());
        for (const JobInput &in : batch)
            jobs.push_back(in.job);
        std::vector<serve::FleetJobResult> results;
        const std::int64_t t0 = nowNs();
        {
            Scope s(tr, 0, Layer::Serve, "TtdaFleet::run", parent, op + 1);
            results = fleet.run(jobs);
        }
        const double batchMs = msSince(t0);

        Scope s(tr, 0, Layer::Check, "check", parent, op + 1);
        bool ok = true;
        for (std::size_t j = 0; j < batch.size(); ++j) {
            if (checkJob(batch[j], results[j], op, r))
                fires += static_cast<double>(batch[j].firesPerRequest *
                                             kRequestsPerJob);
            else
                ok = false;
        }
        if (!tally)
            return ok;

        tally->batchMs.push_back(batchMs);
        tally->steals += static_cast<double>(fleet.steals());
        const auto &pw = fleet.jobsPerWorker();
        for (std::size_t w = 0; w < pw.size() && w < kWorkers; ++w)
            tally->perWorker[w] += pw[w];
        for (std::size_t j = 0; j < batch.size(); ++j) {
            const auto stats = sim::json::parse(results[j].statsJson);
            const double fired =
                stats.get("machine").get("activities").asDouble();
            const double want = static_cast<double>(
                batch[j].firesPerRequest * kRequestsPerJob);
            if (fired != want) {
                reportFailure("fleet_lossy", op,
                              "fired " + std::to_string(fired) +
                                  " activities, want " +
                                  std::to_string(want));
                ok = false;
            }
            tally->fires += fired;
            tally->cycles += static_cast<double>(results[j].cycles);
            if (op < kReplayBatches)
                tally->statsJson.push_back(results[j].statsJson);
        }
        return ok;
    }

    /** Replay the first batches on one standalone replica, timing each
     *  public call, and read the net/fault/mem counters directly. */
    void
    replay(const Tally &tally, LayerValues &lv, PassResult &r)
    {
        ttda::Machine m(*program_, cfg_);
        std::vector<double> resetMs, planMs, serveMs, jsonMs;
        double serveNs = 0, fires = 0, cycles = 0, jobNs = 0, batchNs = 0;
        double sent = 0, delivered = 0, blocked = 0, retx = 0, acks = 0,
               dups = 0, abandoned = 0, destroyed = 0, envelopes = 0,
               isFetches = 0, isDeferred = 0;
        std::size_t k = 0;
        const std::size_t n = std::min(kReplayBatches, batches_.size());
        for (std::size_t b = 0; b < n; ++b) {
            batchNs += tally.batchMs[b] * 1e6;
            for (std::size_t j = 0; j < batches_[b].size(); ++j, ++k) {
                const serve::FleetJob &job = batches_[b][j].job;
                sim::fault::FaultPlan plan = job.faults;
                plan.seed = sim::deriveJobSeed(cfg_.seed, j);
                const std::int64_t jobStart = nowNs();
                std::int64_t t = nowNs();
                m.reset();
                resetMs.push_back(msSince(t));
                t = nowNs();
                m.setFaultPlan(plan);
                planMs.push_back(msSince(t));
                for (const serve::FleetRequest &req : job.requests)
                    m.submit(job.cb, req.args, req.arrival);
                t = nowNs();
                m.serve();
                serveMs.push_back(msSince(t));
                serveNs += static_cast<double>(nowNs() - t);
                jobNs += static_cast<double>(nowNs() - jobStart);
                t = nowNs();
                std::ostringstream os;
                m.dumpStatsJson(os);
                jsonMs.push_back(msSince(t));
                if (k >= tally.statsJson.size() ||
                    os.str() != tally.statsJson[k]) {
                    reportFailure("fleet_lossy", b,
                                  "replayed job differs from the fleet's");
                    ++r.failed;
                }

                fires += static_cast<double>(m.totalFired());
                cycles += static_cast<double>(m.cycles());
                const auto *rel = m.reliableNet();
                sent += static_cast<double>(m.netStats().sent.value());
                delivered +=
                    static_cast<double>(m.netStats().delivered.value());
                if (rel) {
                    const auto &rs = rel->relStats();
                    retx += static_cast<double>(rs.retransmits.value());
                    acks += static_cast<double>(rs.acksSent.value());
                    dups += static_cast<double>(rs.rxDuplicates.value());
                    abandoned += static_cast<double>(rs.abandoned.value());
                    envelopes +=
                        static_cast<double>(rel->innerStats().sent.value());
                    blocked += static_cast<double>(
                        rel->innerStats().blockedCycles.value());
                }
                if (const auto *fi = m.faultInjector())
                    destroyed += static_cast<double>(fi->stats().destroyed());
                const auto is = m.istructureTotals();
                isFetches += static_cast<double>(is.fetches.value());
                isDeferred += static_cast<double>(is.fetchesDeferred.value());
            }
        }
        lv["ttda.reset_ms"] = median(resetMs);
        lv["ttda.set_fault_plan_ms"] = median(planMs);
        lv["ttda.serve_ms"] = median(serveMs);
        lv["ttda.stats_json_ms"] = median(jsonMs);
        lv["ttda.ns_per_fire"] = fires > 0 ? serveNs / fires : 0.0;
        lv["ttda.ns_per_sim_cycle"] = cycles > 0 ? serveNs / cycles : 0.0;
        lv["net.sent"] = sent;
        lv["net.delivered"] = delivered;
        lv["net.blocked_cycles"] = blocked;
        lv["net.retransmits"] = retx;
        lv["net.acks_sent"] = acks;
        lv["net.rx_duplicates"] = dups;
        lv["net.abandoned"] = abandoned;
        lv["fault.destroyed"] = destroyed;
        lv["net.useful_ratio"] = envelopes > 0 ? delivered / envelopes : 0.0;
        lv["mem.is_fetches"] = isFetches;
        lv["mem.is_deferred"] = isDeferred;
        lv["mem.deferred_ratio"] = isFetches > 0 ? isDeferred / isFetches : 0.0;
        lv["fleet.busy_frac"] =
            batchNs > 0 ? jobNs / (kWorkers * batchNs) : 0.0;
    }

    Options opts_;
    ttda::MachineConfig cfg_;
    sim::fault::FaultPlan plan_;
    serve::FleetConfig fleetCfg_;
    std::unique_ptr<graph::Program> program_;
    std::uint16_t cb_[kFamilies] = {};
    std::uint64_t fires_[kFamilies][kBatchTemplates] = {};
    std::unique_ptr<serve::TtdaFleet> fleet_;
    std::unique_ptr<serve::TtdaFleet> tracedFleet_;
    std::vector<std::vector<JobInput>> batches_;
};

} // namespace

std::unique_ptr<Workload>
makeFleetLossy(const Options &o)
{
    return std::make_unique<FleetLossy>(o);
}

} // namespace pb
