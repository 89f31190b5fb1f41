/**
 * @file
 * sim_dense: the direct-library span, Machine construction -> run().
 *
 * One thread, no fleet. Each op constructs a 16-PE ttda::Machine on an
 * Ideal network (latency 2, no ReliableNet), injects the inputs, runs
 * to quiescence and checks the one output against its closed form.
 * Waiting-matching, the ALU, I-structures and routing do nearly all
 * the work; skip-ahead over long latencies, ReliableNet, faults,
 * reset(), fleets and the daemon do none — which makes this workload
 * the no-change control for optimisations aimed at those layers.
 */

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hh"
#include "id/codegen.hh"
#include "programs.hh"
#include "ttda/machine.hh"
#include "workloads/id_sources.hh"

namespace pb
{

namespace
{

/** Ops per second of --seconds on the reference host (4-CPU x86). */
constexpr double kOpsPerSecond = 120.0;
constexpr std::size_t kWarmupBlocks = 4;

struct Family
{
    const char *name;
    const char *source;
};

const Family kFamilies[] = {
    {"matmul", workloads::src::matmul},
    {"wavefront", workloads::src::wavefront},
    {"mergesort", workloads::src::mergesort},
    {"fib", workloads::src::fib},
    {"tak", workloads::src::tak},
};

/** One op template: a family and its inputs. */
struct Template
{
    std::size_t family;
    std::vector<std::int64_t> args;
    std::string label = {}; //!< "family/arg0", names the op's span
};

std::int64_t
reference(std::size_t family, const std::vector<std::int64_t> &a)
{
    switch (family) {
    case 0:
        return matmulRef(a[0]);
    case 1:
        return wavefrontRef(a[0]);
    case 2:
        return mergesortRef(a[0]);
    case 3:
        return fibRef(a[0]);
    default:
        return takRef(a[0], a[1], a[2]);
    }
}

class SimDense : public Workload
{
  public:
    explicit SimDense(const Options &o) : opts_(o)
    {
        cfg_.numPEs = 16;
        cfg_.topology = ttda::MachineConfig::Topology::Ideal;
        cfg_.netLatency = 2;
        cfg_.threads = 1;
        // The rotation, every block all thirteen: five ops faster than
        // matmul(5), matmul(5) three times, five slower. The median op
        // is then a matmul(5) (quantiles 0.38-0.62 are all matmul(5)),
        // not whichever of two neighbouring sizes a run happens to
        // land between, and p99 lies inside the slowest template.
        templates_ = {
            {3, {9}},  {3, {10}}, {3, {11}}, {1, {6}},  {1, {8}},
            {0, {5}},  {0, {5}},  {0, {5}},
            {2, {16}}, {0, {6}},  {2, {24}}, {4, {8, 4, 0}}, {2, {32}},
        };
        for (Template &t : templates_)
            t.label = std::string(kFamilies[t.family].name) + "/" +
                      std::to_string(t.args[0]);
    }

    void
    setup() override
    {
        compileMs_ = 0.0;
        for (const Family &f : kFamilies) {
            const std::int64_t t0 = nowNs();
            programs_.push_back(
                std::make_unique<id::Compiled>(id::compile(f.source)));
            compileMs_ += msSince(t0);
        }
        // Warm-up: every template kWarmupBlocks times, checked.
        for (std::size_t b = 0; b < kWarmupBlocks; ++b)
            for (std::size_t t = 0; t < templates_.size(); ++t) {
                const Outcome o = runOne(t, nullptr, 0, 0);
                if (!o.ok)
                    throw std::runtime_error("warm-up failed: " + o.why);
            }
        Rng rng(opts_.seed);
        schedule_ = blockSchedule(
            rng, templates_.size(),
            blocksFor(kOpsPerSecond, opts_.seconds, templates_.size()));
    }

    void
    teardown() override
    {
        programs_.clear();
        schedule_.clear();
    }

    std::size_t windowOps() const override { return 2 * templates_.size(); }

    PassResult
    pass(Tracer *tr, LayerValues &lv) override
    {
        std::vector<double> constructMs, runMs;
        double runNs = 0.0, fires = 0.0, cycles = 0.0;
        Totals tot;
        PassResult r;
        for (std::size_t i = 0; i < schedule_.size(); ++i) {
            if (pastDeadline())
                break;
            const std::int64_t t0 = nowNs();
            Outcome o;
            {
                Scope op(tr, 0, Layer::Op,
                         templates_[schedule_[i]].label.c_str(), 0, i + 1);
                o = runOne(schedule_[i], tr, op.id(), i + 1,
                           tr ? &tot : nullptr);
            }
            r.op(t0, o.ok, static_cast<double>(o.fires));
            if (!o.ok) {
                reportFailure("sim_dense", i, o.why);
                continue;
            }
            r.addOp(o.bits);
            if (tr) {
                constructMs.push_back(o.constructMs);
                runMs.push_back(o.runMs);
                runNs += o.runMs * 1e6;
                fires += static_cast<double>(o.fires);
                cycles += static_cast<double>(o.cycles);
            }
        }
        r.finish();
        if (tr) {
            lv["id.compile_ms"] = compileMs_;
            lv["ttda.construct_ms"] = median(constructMs);
            lv["ttda.run_ms"] = median(runMs);
            lv["ttda.fires"] = fires;
            lv["ttda.sim_cycles"] = cycles;
            lv["ttda.ns_per_fire"] = fires > 0 ? runNs / fires : 0.0;
            lv["ttda.ns_per_sim_cycle"] = cycles > 0 ? runNs / cycles : 0.0;
            lv["net.sent"] = tot.netSent;
            lv["net.delivered"] = tot.netDelivered;
            lv["net.blocked_cycles"] = tot.netBlocked;
            lv["net.useful_ratio"] =
                tot.netSent > 0 ? tot.netDelivered / tot.netSent : 0.0;
            lv["mem.is_fetches"] = tot.isFetches;
            lv["mem.is_deferred"] = tot.isDeferred;
            lv["mem.deferred_ratio"] =
                tot.isFetches > 0 ? tot.isDeferred / tot.isFetches : 0.0;
        }
        return r;
    }

  private:
    struct Totals
    {
        double netSent = 0, netDelivered = 0, netBlocked = 0;
        double isFetches = 0, isDeferred = 0;
    };

    struct Outcome
    {
        bool ok = false;
        std::string why;
        std::uint64_t fires = 0;
        std::uint64_t cycles = 0;
        std::uint64_t bits = 0;
        double constructMs = 0.0;
        double runMs = 0.0;
    };

    Outcome
    runOne(std::size_t t, Tracer *tr, std::uint64_t parent,
           std::uint64_t op, Totals *tot = nullptr)
    {
        const Template &tp = templates_[t];
        const id::Compiled &c = *programs_[tp.family];
        Outcome o;

        std::int64_t t0 = nowNs();
        std::unique_ptr<ttda::Machine> m;
        {
            Scope s(tr, 0, Layer::Ttda, "construct", parent, op);
            m = std::make_unique<ttda::Machine>(c.program, cfg_);
        }
        o.constructMs = msSince(t0);

        t0 = nowNs();
        std::vector<ttda::OutputRecord> outs;
        {
            Scope s(tr, 0, Layer::Ttda, "run", parent, op);
            for (std::size_t p = 0; p < tp.args.size(); ++p)
                m->input(c.startCb, static_cast<std::uint16_t>(p),
                         ival(tp.args[p]));
            outs = m->run();
        }
        o.runMs = msSince(t0);

        Scope s(tr, 0, Layer::Check, "check", parent, op);
        const graph::Value want = ival(reference(tp.family, tp.args));
        if (m->deadlocked() || outs.size() != 1) {
            o.why = std::string(kFamilies[tp.family].name) +
                    ": deadlocked or wrong output count";
        } else if (!sameValue(outs[0].value, want)) {
            o.why = std::string(kFamilies[tp.family].name) + ": got " +
                    outs[0].value.toString() + ", want " +
                    want.toString();
        } else {
            o.ok = true;
            o.bits = hashAdd(valueBits(outs[0].value), m->cycles());
        }
        o.fires = m->totalFired();
        o.cycles = m->cycles();
        if (tot) {
            const auto &ns = m->netStats();
            tot->netSent += static_cast<double>(ns.sent.value());
            tot->netDelivered += static_cast<double>(ns.delivered.value());
            tot->netBlocked += static_cast<double>(ns.blockedCycles.value());
            const auto is = m->istructureTotals();
            tot->isFetches += static_cast<double>(is.fetches.value());
            tot->isDeferred +=
                static_cast<double>(is.fetchesDeferred.value());
        }
        return o;
    }

    Options opts_;
    ttda::MachineConfig cfg_;
    std::vector<Template> templates_;
    std::vector<std::unique_ptr<id::Compiled>> programs_;
    std::vector<std::size_t> schedule_;
    double compileMs_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeSimDense(const Options &o)
{
    return std::make_unique<SimDense>(o);
}

} // namespace pb
