/**
 * @file
 * Tests of the steady-state serving fast path: request multiplexing
 * (submit()/serve()), machine reset()/reuse, admission-control
 * backpressure, per-request latency accounting, and the determinism
 * contract of serving runs.
 */

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "ttda/machine.hh"
#include "workloads/arrivals.hh"
#include "workloads/dfg_programs.hh"

#include "topology_matrix.hh"

namespace
{

using graph::Value;

std::int64_t
fibRef(std::int64_t n)
{
    std::int64_t a = 0, b = 1;
    for (std::int64_t i = 0; i < n; ++i) {
        const std::int64_t t = a + b;
        a = b;
        b = t;
    }
    return a;
}

ttda::MachineConfig
serveConfig(std::uint32_t pes = 4)
{
    ttda::MachineConfig cfg;
    cfg.numPEs = pes;
    cfg.topology = ttda::MachineConfig::Topology::Ideal;
    cfg.netLatency = 2;
    return cfg;
}

/** Submit `n` fib requests on the given schedule. */
void
submitFibs(ttda::Machine &m, std::uint16_t cb,
           const std::vector<sim::Cycle> &arrivals)
{
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const std::int64_t n = 4 + static_cast<std::int64_t>(i % 5);
        m.submit(cb, {Value{n}}, arrivals[i]);
    }
}

TEST(Serve, EveryRequestCompletesWithItsOwnAnswer)
{
    graph::Program program;
    const auto cb = workloads::buildFib(program);
    ttda::Machine m(program, serveConfig());
    workloads::ArrivalConfig ac;
    ac.meanGap = 64.0;
    ac.seed = 3;
    const auto arrivals = workloads::arrivalSchedule(ac, 20);
    submitFibs(m, cb, arrivals);
    const auto out = m.serve();

    EXPECT_FALSE(m.deadlocked());
    EXPECT_EQ(m.requestsCompleted(), 20u);
    EXPECT_EQ(m.requestLatency().summary().count(), 20u);
    ASSERT_EQ(out.size(), 20u);
    // Request r is injected with initiation number r+1; fib's OUTPUT
    // fires in the root context, so each output carries its request's
    // iter and the answers can be matched to the interleaved requests.
    std::vector<bool> seen(20, false);
    for (const auto &rec : out) {
        ASSERT_GE(rec.tag.iter, 1u);
        ASSERT_LE(rec.tag.iter, 20u);
        const std::size_t rid = rec.tag.iter - 1;
        EXPECT_FALSE(seen[rid]);
        seen[rid] = true;
        EXPECT_EQ(rec.value.asInt(),
                  fibRef(4 + static_cast<std::int64_t>(rid % 5)));
    }
    // Latency is measured from arrival, so it can never exceed the
    // span of the whole run.
    EXPECT_LE(m.requestLatency().summary().max(),
              static_cast<double>(m.cycles()));
    EXPECT_GT(m.requestLatency().summary().min(), 0.0);
}

TEST(Serve, ResetThenServeIsBitIdenticalToFreshMachine)
{
    graph::Program program;
    const auto cb = workloads::buildFib(program);
    workloads::ArrivalConfig ac;
    ac.meanGap = 48.0;
    ac.seed = 11;
    const auto arrivals = workloads::arrivalSchedule(ac, 16);

    ttda::Machine fresh(program, serveConfig());
    submitFibs(fresh, cb, arrivals);
    const auto freshOut = fresh.serve();
    std::ostringstream freshStats;
    fresh.dumpStatsJson(freshStats);

    // Dirty a machine with a different workload, then reset and
    // replay the same schedule: cycles, outputs, and the full stats
    // document must match the fresh machine bit for bit.
    ttda::Machine reused(program, serveConfig());
    reused.submit(cb, {Value{std::int64_t{9}}}, 0);
    reused.submit(cb, {Value{std::int64_t{7}}}, 5);
    reused.serve();
    reused.reset();
    submitFibs(reused, cb, arrivals);
    const auto reusedOut = reused.serve();
    std::ostringstream reusedStats;
    reused.dumpStatsJson(reusedStats);

    EXPECT_EQ(reused.cycles(), fresh.cycles());
    ASSERT_EQ(reusedOut.size(), freshOut.size());
    for (std::size_t i = 0; i < freshOut.size(); ++i) {
        EXPECT_EQ(reusedOut[i].tag, freshOut[i].tag);
        EXPECT_EQ(reusedOut[i].value, freshOut[i].value);
    }
    EXPECT_EQ(reusedStats.str(), freshStats.str());
}

TEST(Serve, ResetThenPlainRunMatchesFreshMachine)
{
    // reset() must also return the machine to ordinary (non-serving)
    // use: a trapezoid run after a serving epoch matches a fresh run.
    graph::Program program;
    const auto fib = workloads::buildFib(program);
    const auto trap = workloads::buildTrapezoid(program);

    ttda::Machine fresh(program, serveConfig());
    fresh.input(trap, 0, Value{0.0});
    fresh.input(trap, 1, Value{2.0});
    fresh.input(trap, 2, Value{std::int64_t{16}});
    const auto freshOut = fresh.run();
    std::ostringstream freshStats;
    fresh.dumpStatsJson(freshStats);

    ttda::Machine reused(program, serveConfig());
    reused.submit(fib, {Value{std::int64_t{8}}}, 0);
    reused.serve();
    reused.reset();
    reused.input(trap, 0, Value{0.0});
    reused.input(trap, 1, Value{2.0});
    reused.input(trap, 2, Value{std::int64_t{16}});
    const auto reusedOut = reused.run();
    std::ostringstream reusedStats;
    reused.dumpStatsJson(reusedStats);

    EXPECT_EQ(reused.cycles(), fresh.cycles());
    ASSERT_EQ(reusedOut.size(), freshOut.size());
    EXPECT_EQ(reusedOut[0].value, freshOut[0].value);
    EXPECT_EQ(reusedStats.str(), freshStats.str());
}

TEST(Serve, RepeatRunIsBitIdentical)
{
    graph::Program program;
    const auto cb = workloads::buildFib(program);
    workloads::ArrivalConfig ac;
    ac.meanGap = 40.0;
    ac.seed = 17;
    const auto arrivals = workloads::arrivalSchedule(ac, 24);

    // The machine runs on one host thread: a serving run on a second
    // fresh machine must replay the first bit for bit.
    std::vector<sim::Cycle> cycles;
    std::vector<std::vector<graph::Value>> outputs;
    std::vector<double> p99;
    for (int run = 0; run < 2; ++run) {
        ttda::Machine m(program, serveConfig(8));
        submitFibs(m, cb, arrivals);
        const auto out = m.serve();
        cycles.push_back(m.cycles());
        p99.push_back(m.requestLatency().quantile(0.99));
        std::vector<graph::Value> vals;
        for (const auto &rec : out)
            vals.push_back(rec.value);
        outputs.push_back(std::move(vals));
    }
    EXPECT_EQ(cycles[1], cycles[0]);
    EXPECT_EQ(p99[1], p99[0]);
    EXPECT_EQ(outputs[1], outputs[0]);
}

TEST(Serve, BackpressureEngagesAndReleasesAtWatermark)
{
    graph::Program program;
    const auto cb = workloads::buildFib(program);

    // A burst of simultaneous requests against a tiny watermark: the
    // gate must engage (watermarkHits > 0) yet every request still
    // completes — admission is deferred, never dropped, and the gate
    // reopens as the waiting-matching store drains.
    auto cfg = serveConfig();
    cfg.wmHighWatermark = 8;
    cfg.wmLowWatermark = 4;
    ttda::Machine gated(program, cfg);
    for (int i = 0; i < 12; ++i)
        gated.submit(cb, {Value{std::int64_t{7}}}, 0);
    const auto gatedOut = gated.serve();
    EXPECT_FALSE(gated.deadlocked());
    EXPECT_EQ(gated.requestsCompleted(), 12u);
    EXPECT_EQ(gatedOut.size(), 12u);
    EXPECT_GE(gated.watermarkHits(), 1u);

    // Same offered burst, gate disabled: identical answers, but the
    // burst is admitted at once — so the gated run must show a larger
    // or equal completion span and no hits when disabled.
    ttda::Machine open(program, serveConfig());
    for (int i = 0; i < 12; ++i)
        open.submit(cb, {Value{std::int64_t{7}}}, 0);
    const auto openOut = open.serve();
    EXPECT_EQ(open.watermarkHits(), 0u);
    EXPECT_EQ(openOut.size(), 12u);
    auto values = [](const std::vector<ttda::OutputRecord> &out) {
        std::vector<std::int64_t> v;
        for (const auto &rec : out)
            v.push_back(rec.value.asInt());
        std::sort(v.begin(), v.end());
        return v;
    };
    EXPECT_EQ(values(gatedOut), values(openOut));
    EXPECT_GE(gated.cycles(), open.cycles());
}

TEST(Serve, AdmissionQueueingCountsTowardLatency)
{
    graph::Program program;
    const auto cb = workloads::buildFib(program);

    auto cfg = serveConfig();
    cfg.wmHighWatermark = 8;
    ttda::Machine gated(program, cfg);
    for (int i = 0; i < 12; ++i)
        gated.submit(cb, {Value{std::int64_t{7}}}, 0);
    gated.serve();

    ttda::Machine open(program, serveConfig());
    for (int i = 0; i < 12; ++i)
        open.submit(cb, {Value{std::int64_t{7}}}, 0);
    open.serve();

    // The gated run holds requests at the door; their measured
    // latency starts at arrival, so the tail must reflect the queueing
    // the open run does not have.
    EXPECT_GE(gated.requestLatency().summary().max(),
              open.requestLatency().summary().max());
}

TEST(Serve, DeadlockReportGroupsStrandedWorkByRequest)
{
    graph::Program program;
    const auto cb = workloads::buildFib(program);

    // A heavily lossy fabric with no recovery protocol strands the
    // requests' activities; the report must attribute them per
    // request.
    auto cfg = serveConfig();
    cfg.faults.seed = 5;
    cfg.faults.dropRate = 0.2;
    ttda::Machine m(program, cfg);
    for (int i = 0; i < 4; ++i)
        m.submit(cb, {Value{std::int64_t{9}}}, i * 10);
    m.serve();
    ASSERT_TRUE(m.deadlocked());
    const std::string report = m.deadlockReport();
    EXPECT_NE(report.find("serving:"), std::string::npos);
    EXPECT_NE(report.find("stranded activities by request"),
              std::string::npos);
}

TEST(Serve, ResetAfterAbandonedEpochMatchesFreshMachine)
{
    // The hardest reset: a lossy fabric under ReliableNet with a
    // retry budget tight enough to *abandon* sends mid-epoch. The
    // machine ends the epoch deadlocked, with retransmit timers,
    // dedup windows, and pending-send state all exercised. reset()
    // must clear every bit of it: a subsequent epoch on the dirty
    // machine must be bit-identical to a fresh machine's.
    graph::Program program;
    const auto cb = workloads::buildFib(program);
    auto cfg = serveConfig();
    cfg.reliableNet = true;
    cfg.retry.timeout = 16;
    cfg.retry.maxAttempts = 2;
    cfg.faults.seed = 5;
    cfg.faults.dropRate = 0.3;

    ttda::Machine dirty(program, cfg);
    for (int i = 0; i < 4; ++i)
        dirty.submit(cb, {Value{std::int64_t{9}}}, i * 8);
    dirty.serve();
    // The epoch must actually have been abandoned — otherwise this
    // test degenerates into the plain reset test above.
    ASSERT_NE(dirty.reliableNet(), nullptr);
    ASSERT_GT(dirty.reliableNet()->relStats().abandoned.value(), 0u)
        << "retry budget not exhausted; tighten the plan";
    ASSERT_TRUE(dirty.deadlocked());

    dirty.reset();
    EXPECT_EQ(dirty.reliableNet()->relStats().abandoned.value(), 0u);
    EXPECT_EQ(dirty.reliableNet()->relStats().retransmits.value(),
              0u);
    EXPECT_EQ(dirty.reliableNet()->pendingCount(), 0u);

    // Epoch B: a different schedule on the dirty machine vs a fresh
    // machine with the identical config (the injector reseeds from
    // the plan on reset, so both draw the same fault stream).
    workloads::ArrivalConfig ac;
    ac.meanGap = 48.0;
    ac.seed = 23;
    const auto arrivals = workloads::arrivalSchedule(ac, 12);

    submitFibs(dirty, cb, arrivals);
    const auto dirtyOut = dirty.serve();
    std::ostringstream dirtyStats;
    dirty.dumpStatsJson(dirtyStats);

    ttda::Machine fresh(program, cfg);
    submitFibs(fresh, cb, arrivals);
    const auto freshOut = fresh.serve();
    std::ostringstream freshStats;
    fresh.dumpStatsJson(freshStats);

    EXPECT_EQ(dirty.cycles(), fresh.cycles());
    EXPECT_EQ(dirty.deadlocked(), fresh.deadlocked());
    ASSERT_EQ(dirtyOut.size(), freshOut.size());
    for (std::size_t i = 0; i < freshOut.size(); ++i) {
        EXPECT_EQ(dirtyOut[i].tag, freshOut[i].tag);
        EXPECT_EQ(dirtyOut[i].value, freshOut[i].value);
    }
    EXPECT_EQ(dirtyStats.str(), freshStats.str());
    EXPECT_EQ(dirty.reliableNet()->relStats().retransmits.value(),
              fresh.reliableNet()->relStats().retransmits.value());
    EXPECT_EQ(dirty.reliableNet()->relStats().rxDuplicates.value(),
              fresh.reliableNet()->relStats().rxDuplicates.value());
    EXPECT_EQ(dirty.reliableNet()->relStats().abandoned.value(),
              fresh.reliableNet()->relStats().abandoned.value());
}

TEST(Serve, SetFaultPlanSwapsInjectionBetweenEpochs)
{
    // The fleet's per-job plan path: reset + setFaultPlan must be
    // bit-identical to constructing the machine with that plan — in
    // both directions (adding faults to a clean machine, removing
    // them from a faulted one).
    graph::Program program;
    const auto cb = workloads::buildFib(program);
    workloads::ArrivalConfig ac;
    ac.meanGap = 48.0;
    ac.seed = 29;
    const auto arrivals = workloads::arrivalSchedule(ac, 10);

    sim::fault::FaultPlan lossy;
    lossy.seed = 7;
    lossy.dropRate = 0.15;

    auto relCfg = serveConfig();
    relCfg.reliableNet = true; // recovery on, so epochs complete
    auto faultedCfg = relCfg;
    faultedCfg.faults = lossy;

    const auto epoch = [&](ttda::Machine &m) {
        submitFibs(m, cb, arrivals);
        m.serve();
        std::ostringstream os;
        m.dumpStatsJson(os);
        return os.str();
    };

    ttda::Machine faultedRef(program, faultedCfg);
    const std::string faultedStats = epoch(faultedRef);
    ttda::Machine cleanRef(program, relCfg);
    const std::string cleanStats = epoch(cleanRef);
    ASSERT_NE(faultedStats, cleanStats); // the plan must matter

    // Clean machine gains the plan...
    ttda::Machine m(program, relCfg);
    epoch(m);
    m.reset();
    m.setFaultPlan(lossy);
    EXPECT_EQ(epoch(m), faultedStats);
    // ...then loses it again.
    m.reset();
    m.setFaultPlan(sim::fault::FaultPlan{});
    EXPECT_EQ(epoch(m), cleanStats);
}

TEST(Serve, SubmitAfterServeViaResetRunsFreshEpoch)
{
    graph::Program program;
    const auto cb = workloads::buildFib(program);
    ttda::Machine m(program, serveConfig());
    m.submit(cb, {Value{std::int64_t{6}}}, 0);
    auto out = m.serve();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].value.asInt(), fibRef(6));

    m.reset();
    EXPECT_EQ(m.requestsSubmitted(), 0u);
    EXPECT_EQ(m.requestsCompleted(), 0u);
    EXPECT_EQ(m.requestLatency().summary().count(), 0u);
    m.submit(cb, {Value{std::int64_t{10}}}, 0);
    out = m.serve();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].value.asInt(), fibRef(10));
}

class ServeMatrix : public ::testing::TestWithParam<matrix::Case>
{
};

TEST_P(ServeMatrix, ResetThenServeMatchesFreshMachine)
{
    // Dirty the machine mid-epoch — requests queued, operands waiting,
    // packets (and, when lossy, retransmit timers) in flight — then
    // reset and serve another schedule: cycles, outputs and the full
    // stats document must equal a fresh machine's.
    graph::Program program;
    const auto cb = workloads::buildFib(program);
    const auto cfg = matrix::config(GetParam());

    ttda::Machine fresh(program, cfg);
    matrix::submitFibs(fresh, cb, 16, 11);
    const auto freshOut = fresh.serve();
    ASSERT_FALSE(fresh.deadlocked());
    std::ostringstream freshStats;
    fresh.dumpStatsJson(freshStats);

    ttda::Machine reused(program, cfg);
    matrix::submitFibs(reused, cb, 16, 41);
    ASSERT_TRUE(reused.serveUntil(300));
    reused.reset();
    matrix::submitFibs(reused, cb, 16, 11);
    const auto reusedOut = reused.serve();
    std::ostringstream reusedStats;
    reused.dumpStatsJson(reusedStats);

    EXPECT_EQ(reused.cycles(), fresh.cycles());
    ASSERT_EQ(reusedOut.size(), freshOut.size());
    for (std::size_t i = 0; i < freshOut.size(); ++i) {
        EXPECT_EQ(reusedOut[i].tag, freshOut[i].tag);
        EXPECT_EQ(reusedOut[i].value, freshOut[i].value);
    }
    EXPECT_EQ(reusedStats.str(), freshStats.str());
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, ServeMatrix,
                         ::testing::ValuesIn(matrix::allCases()));

} // namespace
