/**
 * @file
 * Golden cycle-count regression tests for the event-driven
 * scheduler.
 *
 * Each case locks the exact cycle count, activity count, per-PE stage
 * statistics, network statistics, and waiting-matching residency
 * profile of one representative workload/topology pair. The expected
 * strings were recorded from the naive one-tick-per-cycle core before
 * the event-driven rewrite; the rewrite must reproduce them bit for
 * bit (the skip-ahead invariant: observable statistics identical to
 * per-cycle ticking).
 *
 * If a deliberate timing-model change ever invalidates these numbers,
 * re-record them and say so loudly in the commit message — they are
 * the contract that scheduler optimizations do not change simulated
 * behaviour.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "graph/builder.hh"
#include "ttda/machine.hh"
#include "workloads/dfg_programs.hh"

namespace
{

using graph::Value;

/** Compact, exact rendering of everything dumpStats() exposes. */
std::string
signature(ttda::Machine &m, const std::vector<ttda::OutputRecord> &out)
{
    std::ostringstream os;
    os << "cycles=" << m.cycles() << " fired=" << m.totalFired()
       << " dead=" << m.deadlocked() << " outs=";
    for (const auto &rec : out)
        os << rec.value.toString() << ",";
    const auto &net = m.netStats();
    os << " net=" << net.sent.value() << "/" << net.delivered.value()
       << "/" << static_cast<std::uint64_t>(net.latency.sum()) << "/"
       << static_cast<std::uint64_t>(net.hops.sum());
    const auto is = m.istructureTotals();
    os << " is=" << is.fetches.value() << "/"
       << is.fetchesDeferred.value() << "/" << is.stores.value();
    const auto &wm = m.waitStoreResidency().summary();
    os << " wm=" << wm.count() << "/"
       << static_cast<std::uint64_t>(wm.sum()) << "/"
       << static_cast<std::uint64_t>(wm.max());
    for (std::uint32_t p = 0; p < m.config().numPEs; ++p) {
        const auto &st = m.peStats(p);
        os << " p" << p << "=" << st.tokensIn.value() << ","
           << st.fired.value() << "," << st.matchBusyCycles.value()
           << "," << st.aluBusyCycles.value() << ","
           << st.isBusyCycles.value() << "," << st.outputTokens.value()
           << "," << st.bypassTokens.value() << ","
           << st.matchOverflows.value() << "," << st.waitStorePeak;
    }
    return os.str();
}

/** Run the configured program; the run must match the golden
 *  signature exactly. */
void
checkGolden(const graph::Program &program, const ttda::MachineConfig &cfg,
            const std::function<void(ttda::Machine &)> &inject,
            const std::string &expected, bool expect_deadlock = false)
{
    ttda::Machine m(program, cfg);
    inject(m);
    auto out = m.run();
    EXPECT_EQ(m.deadlocked(), expect_deadlock);
    EXPECT_EQ(signature(m, out), expected);
}

TEST(GoldenCycles, Trapezoid4PeIdeal)
{
    graph::Program program;
    const auto cb = workloads::buildTrapezoid(program);
    ttda::MachineConfig cfg;
    cfg.numPEs = 4;
    cfg.topology = ttda::MachineConfig::Topology::Ideal;
    cfg.netLatency = 2;
    checkGolden(
        program, cfg,
        [&](ttda::Machine &m) {
            m.input(cb, 0, Value{0.0});
            m.input(cb, 1, Value{2.0});
            m.input(cb, 2, Value{std::int64_t{32}});
        },
        "cycles=567 fired=751 dead=0 outs=2.66797, net=786/786/1781/786 is=0/0/0 wm=567/1911/7 p0=249,181,134,181,0,240,62,0,4 p1=277,196,162,196,0,288,69,0,4 p2=258,189,138,189,0,269,64,0,4 p3=260,185,150,185,0,244,60,0,3");
}

TEST(GoldenCycles, ProducerConsumer8PeCrossbar)
{
    graph::Program program;
    const auto cb = workloads::buildProducerConsumer(program);
    ttda::MachineConfig cfg;
    cfg.numPEs = 8;
    cfg.topology = ttda::MachineConfig::Topology::Crossbar;
    cfg.netLatency = 3;
    cfg.outputBandwidth = 1;
    checkGolden(
        program, cfg,
        [&](ttda::Machine &m) {
            m.input(cb, 0, Value{std::int64_t{24}});
        },
        "cycles=608 fired=728 dead=0 outs=552, net=973/973/3023/973 is=24/0/24 wm=608/1924/8 p0=137,86,84,86,9,126,14,0,3 p1=147,97,86,97,9,142,15,0,3 p2=140,92,80,92,9,135,16,0,3 p3=127,87,66,87,9,123,15,0,2 p4=114,81,54,81,9,122,10,0,2 p5=174,115,101,115,9,185,23,0,4 p6=143,92,84,92,10,146,17,0,3 p7=117,78,63,78,9,119,15,0,3");
}

TEST(GoldenCycles, Fib10OmegaBoundedMatchStore)
{
    // Exercises APPLY/RETURN context churn, the bounded
    // waiting-matching store (overflow penalty path), and per-opcode
    // ALU latency overrides. Context interning is the most
    // order-sensitive shared service, so this is the sharpest
    // determinism check in the file.
    graph::Program program;
    const auto cb = workloads::buildFib(program);
    ttda::MachineConfig cfg;
    cfg.numPEs = 4;
    cfg.topology = ttda::MachineConfig::Topology::Omega;
    cfg.matchCapacity = 4;
    cfg.matchOverflowPenalty = 10;
    cfg.opLatency[graph::Opcode::Add] = 3;
    cfg.opLatency[graph::Opcode::Apply] = 4;
    checkGolden(
        program, cfg,
        [&](ttda::Machine &m) {
            m.input(cb, 0, Value{std::int64_t{10}});
        },
        "cycles=932 fired=1151 dead=0 outs=55, net=1042/1042/2841/2084 is=0/0/0 wm=932/17924/35 p0=342,276,500,452,0,333,78,37,12 p1=376,312,508,502,0,385,105,38,10 p2=344,272,544,413,0,347,99,40,9 p3=355,291,518,491,0,351,92,39,11");
}

TEST(GoldenCycles, ProducerConsumer8PeHypercubeByIteration)
{
    graph::Program program;
    const auto cb = workloads::buildProducerConsumer(program);
    ttda::MachineConfig cfg;
    cfg.numPEs = 8;
    cfg.topology = ttda::MachineConfig::Topology::Hypercube;
    cfg.hopLatency = 2;
    cfg.mapping = ttda::MachineConfig::Mapping::ByIteration;
    checkGolden(
        program, cfg,
        [&](ttda::Machine &m) {
            m.input(cb, 0, Value{std::int64_t{16}});
        },
        "cycles=385 fired=496 dead=0 outs=240, net=153/153/532/266 is=16/0/16 wm=385/1196/9 p0=100,65,58,65,6,96,78,0,4 p1=104,73,50,73,7,110,84,0,4 p2=88,58,50,58,6,88,70,0,4 p3=88,58,50,58,6,88,70,0,4 p4=88,58,50,58,6,88,70,0,4 p5=88,58,50,58,6,88,70,0,4 p6=88,58,50,58,6,88,70,0,4 p7=103,68,60,68,6,100,81,0,4");
}

TEST(GoldenCycles, Trapezoid8PeHierarchicalSlowStages)
{
    // Multi-cycle waiting-matching / fetch / ALU / I-structure write
    // stages over the two-level Cm*-style fabric.
    graph::Program program;
    const auto cb = workloads::buildTrapezoid(program);
    ttda::MachineConfig cfg;
    cfg.numPEs = 8;
    cfg.topology = ttda::MachineConfig::Topology::Hierarchical;
    cfg.clusterSize = 4;
    cfg.localLatency = 2;
    cfg.globalLatency = 8;
    cfg.matchCycles = 3;
    cfg.fetchCycles = 2;
    cfg.aluCycles = 2;
    cfg.isWriteCycles = 4;
    checkGolden(
        program, cfg,
        [&](ttda::Machine &m) {
            m.input(cb, 0, Value{1.0});
            m.input(cb, 1, Value{3.0});
            m.input(cb, 2, Value{std::int64_t{40}});
        },
        "cycles=2266 fired=935 dead=0 outs=8.6675, net=1118/1118/9580/2410 is=0/0/0 wm=2266/8901/8 p0=138,101,216,202,0,123,15,0,3 p1=182,129,318,258,0,188,24,0,4 p2=168,123,270,246,0,151,19,0,3 p3=160,112,288,224,0,137,16,0,3 p4=170,121,294,242,0,167,28,0,3 p5=177,124,318,248,0,189,32,0,4 p6=152,113,234,226,0,178,23,0,2 p7=153,112,246,224,0,164,22,0,2");
}

TEST(GoldenCycles, ProducerConsumer4PeJitterNoBypass)
{
    // Seeded out-of-order delivery plus the no-local-bypass path: every
    // token crosses the network.
    graph::Program program;
    const auto cb = workloads::buildProducerConsumer(program);
    ttda::MachineConfig cfg;
    cfg.numPEs = 4;
    cfg.topology = ttda::MachineConfig::Topology::Ideal;
    cfg.netLatency = 8;
    cfg.netJitter = 37;
    cfg.seed = 99;
    cfg.localBypass = false;
    checkGolden(
        program, cfg,
        [&](ttda::Machine &m) {
            m.input(cb, 0, Value{std::int64_t{20}});
        },
        "cycles=3258 fired=612 dead=0 outs=380, net=922/922/24796/922 is=20/5/20 wm=3258/10866/9 p0=238,150,148,150,15,219,0,0,4 p1=222,152,116,152,15,234,0,0,3 p2=227,148,129,148,16,213,0,0,5 p3=236,162,125,162,15,256,0,0,4");
}

TEST(GoldenCycles, DeadlockTimingLocked)
{
    // A read of a never-written cell: the machine must quiesce (not
    // hang) at a locked cycle count with the read still parked.
    graph::Program program;
    graph::BlockBuilder main(program, "main", 1);
    const auto alloc = main.add(graph::Opcode::Alloc, 1);
    main.to(0, alloc, 0);
    const auto fetch = main.add(graph::Opcode::IFetch, 1);
    main.constant(fetch, Value{std::int64_t{0}});
    main.to(alloc, fetch, 0);
    const auto out_i = main.add(graph::Opcode::Output, 1);
    main.to(fetch, out_i, 0);
    const auto cb = main.build();

    ttda::MachineConfig cfg;
    cfg.numPEs = 2;
    cfg.topology = ttda::MachineConfig::Topology::Ideal;
    cfg.netLatency = 2;
    checkGolden(
        program, cfg,
        [&](ttda::Machine &m) {
            m.input(cb, 0, Value{std::int64_t{4}});
        },
        "cycles=9 fired=3 dead=1 outs= net=1/1/2/1 is=1/1/0 wm=9/0/0 p0=3,1,0,1,2,2,2,0,0 p1=2,2,0,2,0,2,1,0,0",
        /*expect_deadlock=*/true);
}

} // namespace
