/**
 * @file
 * emul_fleet: the compiled emulator tier under sim::Fleet.
 *
 * sim::Fleet with 2 workers; every compiled program is built once and
 * shared read-only by both workers. An op is one Fleet::run over a
 * batch of six jobs, one per program: the laneable ones (trapezoid,
 * matmul, wavefront) run 16 contexts lane-batched through execute(),
 * the recursive ones (fib, mergesort, tak) run one context through
 * the scalar VM's run(). It is the only workload in which src/emul runs
 * and none of the cycle machine does; it shares sim::Fleet with
 * fleet_lossy, so a queue change that helps one and costs the other
 * shows on both.
 */

#include <memory>
#include <string>
#include <vector>

#include "common/fleet.hh"
#include "emul/compile.hh"
#include "emul/vm.hh"
#include "harness.hh"
#include "id/codegen.hh"
#include "programs.hh"
#include "ttda/emulator.hh"
#include "workloads/dfg_programs.hh"
#include "workloads/id_sources.hh"

namespace pb
{

namespace
{

/** Batches per second of --seconds on the reference host. */
constexpr double kOpsPerSecond = 125.0;
constexpr unsigned kWorkers = 2;
constexpr std::size_t kLanes = 16;
/** Batches the traced pass replays on the calling thread alone. */
constexpr std::size_t kReplayBatches = 64;
constexpr std::size_t kWarmupBlocks = 2;

enum Family : std::size_t
{
    Trapezoid,
    Matmul,
    Wavefront,
    Fib,
    Mergesort,
    Tak,
    kFamilies
};
const char *const kNames[] = {"trapezoid", "matmul", "wavefront",
                              "fib",       "mergesort", "tak"};
const char *const kSources[] = {
    workloads::src::trapezoid, workloads::src::matmul,
    workloads::src::wavefront, workloads::src::fib,
    workloads::src::mergesort, workloads::src::tak};

/** Batch size classes: small, medium, large, huge. */
constexpr std::size_t kClasses = 4;
/** Per family, the problem size in each class (tak: x of
 *  tak(x, x/2, 0)). */
const std::int64_t kSizes[kFamilies][kClasses] = {
    {512, 768, 1024, 2048}, {8, 9, 10, 13},       {16, 18, 20, 28},
    {14, 15, 16, 17},       {128, 160, 192, 384}, {9, 10, 11, 11}};
/** One block of the schedule, as size classes: 8 small, 9 medium,
 *  7 large, 1 huge. The median batch is then a medium one (quantiles
 *  0.32-0.68) and p99 lies inside the huge class (0.96-1), so neither
 *  rests on the edge between two classes or on a few stray host
 *  hiccups. */
const std::size_t kBlock[] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1,
                              1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 3};
constexpr std::size_t kPerBlock = sizeof kBlock / sizeof kBlock[0];
const char *const kClassNames[] = {"small", "medium", "large", "huge"};

struct JobInput
{
    Family family = Trapezoid;
    std::size_t size = 0;                   //!< size class
    std::vector<graph::Value> uniforms;     //!< entry parameters
    std::vector<emul::VaryingInput> varying; //!< trapezoid: per-lane a, b
    std::vector<graph::Value> want;         //!< per lane (or one)
    std::uint64_t fired = 0;                //!< expected, whole job
};

class EmulFleet : public Workload
{
  public:
    explicit EmulFleet(const Options &o) : opts_(o)
    {
        fleetCfg_.workers = kWorkers;
        for (std::size_t f = 0; f < kFamilies; ++f)
            for (std::size_t s = 0; s < kClasses; ++s)
                labels_[f][s] = std::string(kNames[f]) + "/" +
                                std::to_string(kSizes[f][s]);
    }

    unsigned traceSlots() const override { return kWorkers; }
    std::size_t windowOps() const override { return kPerBlock; }

    void
    prepare() override
    {
        // The interpreter's activity count per context.
        for (std::size_t f = 0; f < kFamilies; ++f) {
            const id::Compiled c = id::compile(kSources[f]);
            for (std::size_t s = 0; s < kClasses; ++s) {
                ttda::Emulator ref(c.program);
                const auto args = argsFor(static_cast<Family>(f),
                                          kSizes[f][s], 0.5);
                for (std::size_t p = 0; p < args.size(); ++p)
                    ref.input(c.startCb, static_cast<std::uint16_t>(p),
                              args[p]);
                ref.run();
                refFired_[f][s] = ref.stats().fired;
            }
        }
    }

    void
    setup() override
    {
        idMs_ = emulMs_ = 0.0;
        for (std::size_t f = 0; f < kFamilies; ++f) {
            std::int64_t t0 = nowNs();
            compiled_[f] =
                std::make_unique<id::Compiled>(id::compile(kSources[f]));
            idMs_ += msSince(t0);
            t0 = nowNs();
            programs_[f] = std::make_unique<emul::CompiledProgram>(
                emul::compile(compiled_[f]->program, compiled_[f]->startCb));
            emulMs_ += msSince(t0);
            if ((f <= Wavefront) != programs_[f]->laneable())
                throw std::runtime_error(std::string(kNames[f]) +
                                         ": unexpected laneability");
        }
        fleet_ = std::make_unique<sim::Fleet>(fleetCfg_);

        Rng rng(opts_.seed);
        const std::size_t blocks =
            blocksFor(kOpsPerSecond, opts_.seconds, kPerBlock);
        batches_ = makeBatches(rng, blocks);
        double fires = 0.0;
        for (const auto &b : makeBatches(rng, kWarmupBlocks))
            if (!runBatch(b, 0, nullptr, fires, nullptr, nullptr, 0))
                throw std::runtime_error("warm-up batch failed");
    }

    void
    teardown() override
    {
        fleet_.reset();
        batches_.clear();
        for (std::size_t f = 0; f < kFamilies; ++f) {
            programs_[f].reset();
            compiled_[f].reset();
        }
    }

    PassResult
    pass(Tracer *tr, LayerValues &lv) override
    {
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
                Scope op(tr, 0, Layer::Op, kClassNames[batches_[i][0].size],
                         0, i + 1);
                ok = runBatch(batches_[i], i, &r, fires,
                              tr ? &tally : nullptr, tr, op.id());
            }
            r.op(t0, ok, fires);
        }
        r.finish();
        if (!tr)
            return r;

        // The same jobs on the calling thread alone: the uncontended
        // per-job time that emul.execute_ms is compared with.
        std::vector<double> soloMs;
        const std::size_t n = std::min(kReplayBatches, batches_.size());
        for (std::size_t b = 0; b < n; ++b)
            for (const JobInput &in : batches_[b]) {
                const std::int64_t t0 = nowNs();
                Result res = execute(in);
                soloMs.push_back(msSince(t0));
                if (!check(in, res, b, nullptr))
                    ++r.failed;
            }

        lv["id.compile_ms"] = idMs_;
        lv["emul.compile_ms"] = emulMs_;
        lv["emul.execute_ms"] = median(tally.jobMs);
        lv["emul.execute_w1_ms"] = median(soloMs);
        lv["emul.fires"] = tally.fires;
        lv["emul.ns_per_fire"] =
            tally.fires > 0 ? tally.jobNs / tally.fires : 0.0;
        lv["serve.batch_ms"] = median(tally.batchMs);
        lv["fleet.steals"] = tally.steals;
        std::uint64_t hi = 0, lo = ~std::uint64_t{0};
        for (const std::uint64_t c : tally.perWorker) {
            hi = std::max(hi, c);
            lo = std::min(lo, c);
        }
        lv["fleet.worker_imbalance"] =
            lo ? static_cast<double>(hi) / static_cast<double>(lo) : 0.0;
        lv["fleet.busy_frac"] =
            tally.batchNs > 0 ? tally.jobNs / (kWorkers * tally.batchNs)
                              : 0.0;
        return r;
    }

  private:
    struct Tally
    {
        double fires = 0, steals = 0, jobNs = 0, batchNs = 0;
        std::vector<double> jobMs, batchMs;
        std::vector<std::uint64_t> perWorker;
    };

    /** A job's raw output: per-lane outputs and the fired count. */
    struct Result
    {
        std::vector<std::vector<graph::Value>> outputs;
        std::uint64_t fired = 0;
        bool deadlocked = false;
    };

    static std::vector<graph::Value>
    argsFor(Family f, std::int64_t n, double a)
    {
        if (f == Trapezoid)
            return {rval(a), rval(a + 2.0), ival(n)};
        if (f == Tak)
            return {ival(n), ival(n / 2), ival(0)};
        return {ival(n)};
    }

    static graph::Value
    reference(Family f, std::int64_t n, double a)
    {
        switch (f) {
        case Trapezoid:
            return rval(workloads::trapezoidReference(a, a + 2.0, n));
        case Matmul:
            return ival(matmulRef(n));
        case Wavefront:
            return ival(wavefrontRef(n));
        case Fib:
            return ival(fibRef(n));
        case Mergesort:
            return ival(mergesortRef(n));
        default:
            return ival(takRef(n, n / 2, 0));
        }
    }

    std::vector<std::vector<JobInput>>
    makeBatches(Rng &rng, std::size_t blocks)
    {
        std::vector<std::vector<JobInput>> out;
        for (const std::size_t slot :
             blockSchedule(rng, kPerBlock, blocks)) {
            const std::size_t s = kBlock[slot];
            std::vector<std::size_t> order = {Trapezoid, Matmul, Wavefront,
                                              Fib,       Mergesort, Tak};
            rng.shuffle(order);
            std::vector<JobInput> batch;
            for (const std::size_t f : order) {
                JobInput in;
                in.family = static_cast<Family>(f);
                in.size = s;
                const std::int64_t n = kSizes[f][s];
                in.uniforms = argsFor(in.family, n, 0.0);
                const std::size_t lanes = f <= Wavefront ? kLanes : 1;
                if (in.family == Trapezoid) {
                    emul::VaryingInput va{0, {}}, vb{1, {}};
                    for (std::size_t l = 0; l < lanes; ++l) {
                        const double a = rng.unit();
                        va.values.push_back(rval(a));
                        vb.values.push_back(rval(a + 2.0));
                        in.want.push_back(reference(in.family, n, a));
                    }
                    in.varying = {std::move(va), std::move(vb)};
                } else {
                    in.want.assign(lanes, reference(in.family, n, 0.0));
                }
                in.fired = refFired_[f][s] * lanes;
                batch.push_back(std::move(in));
            }
            out.push_back(std::move(batch));
        }
        return out;
    }

    Result
    execute(const JobInput &in) const
    {
        const emul::CompiledProgram &prog = *programs_[in.family];
        Result res;
        if (prog.laneable()) {
            emul::BatchResult br =
                prog.execute(kLanes, in.uniforms, in.varying);
            res.outputs = std::move(br.outputs);
            res.fired = br.fired;
        } else {
            emul::RunResult rr = prog.run(in.uniforms);
            res.outputs.push_back(std::move(rr.outputs));
            res.fired = rr.fired;
            res.deadlocked = rr.deadlocked;
        }
        return res;
    }

    static bool
    check(const JobInput &in, const Result &res, std::uint64_t op,
          PassResult *r)
    {
        std::string why;
        if (res.deadlocked)
            why = "deadlocked";
        else if (res.fired != in.fired)
            why = "fired " + std::to_string(res.fired) + ", want " +
                  std::to_string(in.fired);
        else if (res.outputs.size() != in.want.size())
            why = "wrong lane count";
        else
            for (std::size_t l = 0; l < in.want.size(); ++l)
                if (res.outputs[l].size() != 1 ||
                    !sameValue(res.outputs[l][0], in.want[l]))
                    why = "lane " + std::to_string(l) + ": want " +
                          in.want[l].toString();
        if (!why.empty()) {
            reportFailure("emul_fleet", op,
                          std::string(kNames[in.family]) + ": " + why);
            return false;
        }
        if (r) {
            std::uint64_t h = res.fired;
            for (const auto &lane : res.outputs)
                h = hashAdd(h, valueBits(lane[0]));
            r->addOp(h);
        }
        return true;
    }

    /** Run one batch on the fleet and check it; `fires` receives the
     *  activities of the jobs that checked out. */
    bool
    runBatch(const std::vector<JobInput> &batch, std::size_t op,
             PassResult *r, double &fires, Tally *tally, Tracer *tr,
             std::uint64_t parent)
    {
        std::vector<Result> results(batch.size());
        std::vector<double> jobMs(batch.size(), 0.0);
        const std::int64_t t0 = nowNs();
        {
            Scope fs(tr, 0, Layer::Fleet, "Fleet::run", parent, op + 1);
            const std::uint64_t fleetSpan = fs.id();
            fleet_->run(batch.size(), [&](unsigned w, std::size_t j) {
                const std::int64_t j0 = nowNs();
                Scope s(tr, w, Layer::Emul,
                        labels_[batch[j].family][batch[j].size].c_str(),
                        fleetSpan, op + 1);
                results[j] = execute(batch[j]);
                jobMs[j] = msSince(j0);
            });
        }
        const double batchMs = msSince(t0);

        Scope s(tr, 0, Layer::Check, "check", parent, op + 1);
        bool ok = true;
        for (std::size_t j = 0; j < batch.size(); ++j) {
            if (check(batch[j], results[j], op, r))
                fires += static_cast<double>(results[j].fired);
            else
                ok = false;
        }
        if (tally) {
            tally->batchMs.push_back(batchMs);
            tally->batchNs += batchMs * 1e6;
            tally->steals += static_cast<double>(fleet_->steals());
            const auto &pw = fleet_->jobsPerWorker();
            for (std::size_t w = 0; w < pw.size() && w < kWorkers; ++w)
                tally->perWorker[w] += pw[w];
            for (std::size_t j = 0; j < batch.size(); ++j) {
                tally->jobMs.push_back(jobMs[j]);
                tally->jobNs += jobMs[j] * 1e6;
                tally->fires += static_cast<double>(results[j].fired);
            }
        }
        return ok;
    }

    Options opts_;
    sim::Fleet::Config fleetCfg_;
    std::unique_ptr<id::Compiled> compiled_[kFamilies];
    std::unique_ptr<emul::CompiledProgram> programs_[kFamilies];
    std::uint64_t refFired_[kFamilies][kClasses] = {};
    std::string labels_[kFamilies][kClasses]; //!< span names
    std::unique_ptr<sim::Fleet> fleet_;
    std::vector<std::vector<JobInput>> batches_;
    double idMs_ = 0.0, emulMs_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeEmulFleet(const Options &o)
{
    return std::make_unique<EmulFleet>(o);
}

} // namespace pb
