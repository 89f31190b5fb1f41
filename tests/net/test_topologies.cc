/**
 * @file
 * Unit and property tests for the interconnection network models.
 *
 * The invariants checked here are the ones the machine models rely on:
 * every packet is delivered exactly once, latency is bounded below by
 * the topology's structural latency, port bandwidth is one packet per
 * cycle, and idle() is accurate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "common/format.hh"
#include "common/random.hh"
#include "common/snapshot.hh"
#include "common/state.hh"
#include "net/crossbar.hh"
#include "net/grid.hh"
#include "net/hierarchical.hh"
#include "net/hypercube.hh"
#include "net/ideal.hh"
#include "net/network.hh"
#include "net/omega.hh"
#include "net/reliable.hh"

namespace
{

using Payload = std::uint64_t;

/** Drive a network until idle, collecting (port, payload) arrivals. */
std::vector<std::pair<sim::NodeId, Payload>>
drain(net::Network<Payload> &nw, sim::Cycle max_cycles = 100000)
{
    std::vector<std::pair<sim::NodeId, Payload>> got;
    sim::Cycle cycle = 0;
    while (cycle < max_cycles) {
        nw.step(cycle);
        for (sim::NodeId p = 0; p < nw.numPorts(); ++p) {
            if (auto payload = nw.receive(p))
                got.emplace_back(p, *payload);
        }
        ++cycle;
        if (nw.idle())
            break;
    }
    EXPECT_TRUE(nw.idle()) << "network failed to drain";
    return got;
}

TEST(IdealNetwork, DeliversWithFixedLatency)
{
    net::IdealNetwork<Payload> nw(4, 5);
    nw.send(0, 3, 42);
    sim::Cycle cycle = 0;
    std::optional<Payload> got;
    sim::Cycle arrival = 0;
    while (!got && cycle < 100) {
        nw.step(cycle);
        ++cycle;
        got = nw.receive(3);
        if (got)
            arrival = cycle;
    }
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 42u);
    EXPECT_EQ(arrival, 5u);
}

TEST(IdealNetwork, JitterReordersButDeliversAll)
{
    net::IdealNetwork<Payload> nw(2, 3, /*jitter=*/20, /*seed=*/7);
    for (Payload i = 0; i < 50; ++i)
        nw.send(0, 1, i);
    auto got = drain(nw);
    ASSERT_EQ(got.size(), 50u);
    std::vector<Payload> values;
    for (auto &[port, v] : got) {
        EXPECT_EQ(port, 1u);
        values.push_back(v);
    }
    // All values present...
    auto sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (Payload i = 0; i < 50; ++i)
        EXPECT_EQ(sorted[i], i);
    // ...and, with jitter, not in issue order (out-of-order responses,
    // the paper's Issue 1 premise).
    EXPECT_NE(values, sorted);
}

TEST(Crossbar, OutputPortSerializes)
{
    // 8 sources all target port 0: arrivals must be spaced one per
    // cycle (output bandwidth 1), so total drain time >= 8 cycles.
    net::Crossbar<Payload> nw(8, 1);
    for (sim::NodeId s = 0; s < 8; ++s)
        nw.send(s, 0, s);
    auto got = drain(nw);
    ASSERT_EQ(got.size(), 8u);
    EXPECT_GE(nw.stats().blockedCycles.value(), 1u);
}

TEST(Crossbar, DistinctOutputsProceedInParallel)
{
    net::Crossbar<Payload> nw(8, 1);
    for (sim::NodeId s = 0; s < 8; ++s)
        nw.send(s, s, s); // no conflicts at all
    sim::Cycle cycle = 0;
    nw.step(cycle);
    std::size_t arrived = 0;
    for (sim::NodeId p = 0; p < 8; ++p)
        if (nw.receive(p))
            ++arrived;
    EXPECT_EQ(arrived, 8u);
}

TEST(Crossbar, CrosspointCostGrowsQuadratically)
{
    net::Crossbar<Payload> small(16);
    net::Crossbar<Payload> big(64);
    EXPECT_EQ(small.crosspoints(), 256u);
    EXPECT_EQ(big.crosspoints(), 4096u);
}

TEST(Hierarchical, LocalFasterThanRemote)
{
    net::HierarchicalNet<Payload> nw(16, 4, 2, 8);
    nw.send(0, 1, 1); // same cluster
    nw.send(8, 1, 2); // different cluster
    sim::Cycle local_arrival = 0, remote_arrival = 0;
    sim::Cycle cycle = 0;
    while ((!local_arrival || !remote_arrival) && cycle < 1000) {
        nw.step(cycle);
        ++cycle;
        while (auto v = nw.receive(1)) {
            if (*v == 1)
                local_arrival = cycle;
            else
                remote_arrival = cycle;
        }
    }
    ASSERT_GT(local_arrival, 0u);
    ASSERT_GT(remote_arrival, 0u);
    EXPECT_LT(local_arrival, remote_arrival);
    // Remote crosses three buses; local crosses one.
    EXPECT_GE(remote_arrival, local_arrival + 8);
}

TEST(Hierarchical, RejectsIndivisibleClusterSize)
{
    EXPECT_DEATH(net::HierarchicalNet<Payload>(10, 4), "multiple");
}

TEST(Hierarchical, RejectsEmptyClusters)
{
    // Checked before the cluster count divides by it.
    EXPECT_DEATH(net::HierarchicalNet<Payload>(16, 0),
                 "needs a cluster size >= 1");
}

TEST(Omega, UncontendedLatencyIsLogN)
{
    net::OmegaNet<Payload> nw(16);
    EXPECT_EQ(nw.numStages(), 4u);
    nw.send(5, 11, 99);
    sim::Cycle cycle = 0;
    std::optional<Payload> got;
    while (!got && cycle < 100) {
        nw.step(cycle);
        ++cycle;
        got = nw.receive(11);
    }
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(cycle, 4u); // one cycle per stage
}

TEST(Omega, AllPairsRoute)
{
    // Property: the omega routing function reaches every (src, dst).
    net::OmegaNet<Payload> nw(16);
    for (sim::NodeId src = 0; src < 16; ++src)
        for (sim::NodeId dst = 0; dst < 16; ++dst)
            nw.send(src, dst, (static_cast<Payload>(src) << 8) | dst);
    auto got = drain(nw);
    ASSERT_EQ(got.size(), 256u);
    for (auto &[port, v] : got)
        EXPECT_EQ(port, v & 0xff);
}

TEST(Omega, HotSpotCausesTreeSaturation)
{
    // All 16 sources to one destination: strictly serialized at the
    // final output, so >= 16 cycles, and blocking happens upstream.
    net::OmegaNet<Payload> nw(16);
    for (sim::NodeId src = 0; src < 16; ++src)
        nw.send(src, 0, src);
    sim::Cycle cycle = 0;
    std::size_t arrived = 0;
    while (arrived < 16 && cycle < 1000) {
        nw.step(cycle);
        ++cycle;
        while (nw.receive(0))
            ++arrived;
    }
    EXPECT_EQ(arrived, 16u);
    EXPECT_GE(cycle, 16u);
    EXPECT_GT(nw.stats().blockedCycles.value(), 0u);
}

class HypercubeAllPairs : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(HypercubeAllPairs, EveryPairDeliversWithinDiameter)
{
    const std::uint32_t dim = GetParam();
    net::Hypercube<Payload> nw(dim);
    const sim::NodeId n = nw.numPorts();
    for (sim::NodeId src = 0; src < n; ++src) {
        const sim::NodeId dst = (src * 7 + 3) % n;
        nw.send(src, dst, (static_cast<Payload>(src) << 16) | dst);
    }
    auto got = drain(nw);
    ASSERT_EQ(got.size(), n);
    for (auto &[port, v] : got)
        EXPECT_EQ(port, v & 0xffff);
    // No uncontended packet exceeds `dim` hops.
    EXPECT_LE(nw.stats().hops.max(), static_cast<double>(dim));
}

INSTANTIATE_TEST_SUITE_P(Dims, HypercubeAllPairs,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 7u));

TEST(Hypercube, RejectsDimensionOutOfRange)
{
    // Checked before 2^dim is computed, so no shift goes out of range.
    EXPECT_DEATH(net::Hypercube<Payload>(0), "dimension must be in");
    EXPECT_DEATH(net::Hypercube<Payload>(21), "dimension must be in");
    EXPECT_DEATH(net::Hypercube<Payload>(32), "dimension must be in");
}

TEST(Hypercube, SelfSendDeliversImmediately)
{
    net::Hypercube<Payload> nw(3);
    nw.send(2, 2, 5);
    nw.step(0);
    auto got = nw.receive(2);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 5u);
}

TEST(Hypercube, RoutesAroundFailedLink)
{
    net::Hypercube<Payload> nw(3);
    // Kill the direct dimension-0 link out of node 0; 0 -> 1 must
    // detour but still arrive.
    nw.failLink(0, 0);
    nw.send(0, 1, 77);
    auto got = drain(nw);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].first, 1u);
    EXPECT_EQ(got[0].second, 77u);
    EXPECT_GT(nw.stats().hops.max(), 1.0); // longer than the dead edge
}

TEST(Hypercube, RoutingTableRemapsDestinations)
{
    net::Hypercube<Payload> nw(2);
    // Swap logical destinations 0 and 3.
    nw.setRoutingTable({3, 1, 2, 0});
    nw.send(1, 0, 123);
    auto got = drain(nw);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].first, 3u);
}

TEST(Grid, DiameterMatchesIlliacClaim)
{
    // Illiac IV: 8x8 end-around grid, any processor reaches any other
    // in at most seven steps.
    net::GridNet<Payload> nw(8);
    EXPECT_EQ(nw.numPorts(), 64u);
    std::uint32_t worst = 0;
    for (sim::NodeId dst = 0; dst < 64; ++dst)
        nw.send(0, dst, dst);
    auto got = drain(nw);
    ASSERT_EQ(got.size(), 64u);
    worst = static_cast<std::uint32_t>(nw.stats().hops.max());
    EXPECT_LE(worst, 8u);  // X + Y each at most 4 on a torus...
    EXPECT_GE(worst, 7u);  // ...and the far corner needs at least 7
}

TEST(Grid, TorusWrapsShortestDirection)
{
    net::GridNet<Payload> nw(8);
    nw.send(0, 7, 1); // one step west with wraparound, not 7 east
    auto got = drain(nw);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(nw.stats().hops.max(), 1.0);
}

TEST(Grid, ResetReturnsToFreshState)
{
    net::GridNet<Payload> fresh(4);
    net::GridNet<Payload> used(4);
    for (Payload i = 0; i < 16; ++i)
        used.send(0, 10, i); // all contend for node 0's east link
    used.step(0);
    used.step(1);
    ASSERT_FALSE(used.idle());
    used.reset();
    EXPECT_TRUE(used.idle());
    EXPECT_EQ(used.occupancy().queued, fresh.occupancy().queued);
    EXPECT_EQ(used.occupancy().inFlight, fresh.occupancy().inFlight);
    EXPECT_EQ(used.nextDelivery(), fresh.nextDelivery());
    EXPECT_EQ(used.stats().sent.value(), 0u);
}

/** Property sweep: every topology delivers a random workload exactly
 *  once, regardless of contention. */
class TopologyProperty : public ::testing::TestWithParam<int>
{
  public:
    static std::unique_ptr<net::Network<Payload>>
    make(int which)
    {
        switch (which) {
          case 0: return std::make_unique<net::IdealNetwork<Payload>>(
                      16, 4, 9, 11);
          case 1: return std::make_unique<net::Crossbar<Payload>>(16, 2);
          case 2: return std::make_unique<net::HierarchicalNet<Payload>>(
                      16, 4, 2, 6);
          case 3: return std::make_unique<net::OmegaNet<Payload>>(16);
          case 4: return std::make_unique<net::Hypercube<Payload>>(4);
          default: return std::make_unique<net::GridNet<Payload>>(4);
        }
    }

    /** The same six with multi-cycle links, so packets wait in service
     *  queues while others are in timed transit. */
    static std::unique_ptr<net::Network<Payload>>
    makeSlow(int which)
    {
        switch (which) {
          case 0: return std::make_unique<net::IdealNetwork<Payload>>(
                      16, 7);
          case 1: return std::make_unique<net::Crossbar<Payload>>(16, 5);
          case 2: return std::make_unique<net::HierarchicalNet<Payload>>(
                      16, 4, 3, 9);
          case 3: return std::make_unique<net::OmegaNet<Payload>>(8);
          case 4: return std::make_unique<net::Hypercube<Payload>>(4, 3);
          default: return std::make_unique<net::GridNet<Payload>>(4, 3);
        }
    }
};

TEST_P(TopologyProperty, RandomTrafficDeliveredExactlyOnce)
{
    auto nw = make(GetParam());
    const sim::NodeId n = nw->numPorts();
    sim::Rng rng(GetParam() * 1000 + 17);
    std::map<Payload, sim::NodeId> expected;
    for (Payload i = 0; i < 500; ++i) {
        const auto src = static_cast<sim::NodeId>(rng.below(n));
        const auto dst = static_cast<sim::NodeId>(rng.below(n));
        expected[i] = dst;
        nw->send(src, dst, i);
    }
    auto got = drain(*nw);
    ASSERT_EQ(got.size(), expected.size());
    std::map<Payload, int> seen;
    for (auto &[port, v] : got) {
        EXPECT_EQ(port, expected[v]) << "payload " << v;
        seen[v] += 1;
    }
    for (auto &[v, count] : seen)
        EXPECT_EQ(count, 1) << "payload " << v;
    EXPECT_EQ(nw->stats().sent.value(), 500u);
    EXPECT_EQ(nw->stats().delivered.value(), 500u);
}

TEST_P(TopologyProperty, ResetMatchesFreshNetwork)
{
    // Interrupt random traffic mid-flight, reset, and replay it: the
    // reset network must be idle at once and then deliver exactly what
    // a fresh network delivers, with the same statistics.
    auto traffic = [](net::Network<Payload> &nw, std::uint64_t seed) {
        sim::Rng rng(seed);
        for (Payload i = 0; i < 200; ++i) {
            nw.send(static_cast<sim::NodeId>(rng.below(nw.numPorts())),
                    static_cast<sim::NodeId>(rng.below(nw.numPorts())),
                    i);
        }
    };
    auto used = make(GetParam());
    traffic(*used, 5);
    for (sim::Cycle c = 0; c < 6; ++c) {
        used->step(c);
        used->receive(0);
    }
    ASSERT_FALSE(used->idle());
    used->reset();
    EXPECT_TRUE(used->idle());
    EXPECT_EQ(used->occupancy().queued, 0u);
    EXPECT_EQ(used->occupancy().inFlight, 0u);
    EXPECT_EQ(used->nextDelivery(), sim::neverCycle);
    EXPECT_EQ(used->stats().sent.value(), 0u);
    EXPECT_EQ(used->stats().blockedCycles.value(), 0u);

    auto fresh = make(GetParam());
    traffic(*fresh, 9);
    traffic(*used, 9);
    EXPECT_EQ(drain(*used), drain(*fresh));
    EXPECT_EQ(used->stats().latency.sum(), fresh->stats().latency.sum());
    EXPECT_EQ(used->stats().blockedCycles.value(),
              fresh->stats().blockedCycles.value());
}

/** One send of a scheduled traffic pattern. */
struct TimedSend
{
    sim::Cycle at;
    sim::NodeId src;
    sim::NodeId dst;
    Payload payload;
};

/** Seeded bursts of sends separated by idle gaps, in cycle order: the
 *  gaps give a skipping driver dead cycles to jump over, and the
 *  bursts build up contention it must not jump past. */
std::vector<TimedSend>
burstyTraffic(sim::NodeId ports, std::uint64_t seed)
{
    sim::Rng rng(seed);
    std::vector<TimedSend> sends;
    sim::Cycle at = 0;
    Payload next = 0;
    for (int burst = 0; burst < 16; ++burst) {
        at += rng.below(60);
        const sim::Cycle end = at + 1 + rng.below(6);
        for (; at < end; ++at) {
            for (std::uint64_t k = rng.below(ports); k > 0; --k) {
                sends.push_back(
                    {at, static_cast<sim::NodeId>(rng.below(ports)),
                     static_cast<sim::NodeId>(rng.below(ports)), next++});
            }
        }
    }
    return sends;
}

/** A delivery as the machine sees it: the cycle receive() ran, the
 *  port, and the payload. */
struct TimedDelivery
{
    sim::Cycle cycle;
    sim::NodeId port;
    Payload payload;

    bool operator==(const TimedDelivery &) const = default;
};

/** Drive `nw` through `sends` the way the machines do: send, step,
 *  then receive on every port. With `skip`, first jump to
 *  min(next send, nextDelivery()) with one step() call, as
 *  Machine::skipAhead does. Counts the step() calls in `steps`. */
std::vector<TimedDelivery>
driveTimed(net::Network<Payload> &nw, const std::vector<TimedSend> &sends,
           bool skip, std::size_t &steps)
{
    std::vector<TimedDelivery> got;
    std::size_t next = 0;
    sim::Cycle now = 0;
    steps = 0;
    while (next < sends.size() || !nw.idle()) {
        if (skip) {
            sim::Cycle to = nw.nextDelivery();
            if (next < sends.size())
                to = std::min(to, sends[next].at);
            if (to > now) {
                nw.step(to - 1);
                ++steps;
                now = to;
            }
        }
        for (; next < sends.size() && sends[next].at == now; ++next)
            nw.send(sends[next].src, sends[next].dst, sends[next].payload);
        nw.step(now);
        ++steps;
        ++now;
        for (sim::NodeId p = 0; p < nw.numPorts(); ++p) {
            if (auto v = nw.receive(p))
                got.push_back({now, p, *v});
        }
        if (now > 100000) {
            ADD_FAILURE() << "network failed to drain";
            break;
        }
    }
    return got;
}

/** Statistics as snapshot bytes, for an exact compare. */
template <class Stats>
std::string
statsBytes(const Stats &stats)
{
    sim::snapshot::Writer w;
    sim::state::save(w, stats);
    std::ostringstream os;
    w.finish(os);
    return os.str();
}

/** The skip-ahead sweep's fault mix: drops, duplicates and delay
 *  spikes. */
sim::fault::FaultPlan
skipFaultPlan(std::uint64_t seed)
{
    sim::fault::FaultPlan plan;
    plan.seed = seed;
    plan.dropRate = 0.05;
    plan.dupRate = 0.05;
    plan.delayRate = 0.10;
    plan.delaySpike = 30;
    return plan;
}

TEST_P(TopologyProperty, SkipAheadMatchesSteppingEveryCycle)
{
    // The nextDelivery() contract: jumping straight to the cycle it
    // names gives the same deliveries, cycle for cycle, and the same
    // statistics as stepping every cycle, on a bare fabric and under
    // drops, duplicates and delay spikes, with one-cycle and
    // multi-cycle links.
    const sim::fault::FaultPlan plan =
        skipFaultPlan(40 + static_cast<std::uint64_t>(GetParam()));
    for (const int variant : {0, 1, 2, 3}) {
        const bool faulted = variant & 1;
        const bool slow = variant & 2;
        SCOPED_TRACE(sim::format("{} {}", faulted ? "faulted" : "bare",
                                 slow ? "slow" : "fast"));
        auto stepped = slow ? makeSlow(GetParam()) : make(GetParam());
        auto skipped = slow ? makeSlow(GetParam()) : make(GetParam());
        const auto sends =
            burstyTraffic(stepped->numPorts(), 23 + GetParam());
        sim::fault::FaultInjector steppedFaults(plan);
        sim::fault::FaultInjector skippedFaults(plan);
        if (faulted) {
            stepped->setFaultInjector(&steppedFaults);
            skipped->setFaultInjector(&skippedFaults);
        }
        std::size_t steppedSteps = 0, skippedSteps = 0;
        const auto want = driveTimed(*stepped, sends, false, steppedSteps);
        const auto got = driveTimed(*skipped, sends, true, skippedSteps);
        EXPECT_EQ(got, want);
        EXPECT_EQ(statsBytes(skipped->stats()),
                  statsBytes(stepped->stats()));
        EXPECT_GT(stepped->stats().delivered.value(), 0u);
        if (faulted) {
            EXPECT_GT(steppedFaults.stats().delays, 0u);
            EXPECT_EQ(skippedFaults.stats().decisions,
                      steppedFaults.stats().decisions);
        }
        // The gaps were skipped, not stepped through.
        EXPECT_LT(skippedSteps, steppedSteps);
    }
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, TopologyProperty,
                         ::testing::Range(0, 6));

/** The nextDelivery() contract through net::ReliableNet, whose
 *  retransmit timers bound the skip as well as the inner fabric. */
class ReliableSkipAhead : public ::testing::TestWithParam<int>
{
  public:
    using Env = net::Envelope<Payload>;

    /** Ideal with jitter (in-flight packets reorder), Ideal without
     *  jitter at a short and at a 64-cycle latency (every first
     *  timer fires before its ACK can return), and a Crossbar. */
    static std::unique_ptr<net::ReliableNet<Payload>>
    make(int which)
    {
        std::unique_ptr<net::Network<Env>> inner;
        switch (which) {
          case 0:
            inner = std::make_unique<net::IdealNetwork<Env>>(16, 4, 9, 11);
            break;
          case 1:
            inner = std::make_unique<net::IdealNetwork<Env>>(16, 7);
            break;
          case 2:
            inner = std::make_unique<net::IdealNetwork<Env>>(16, 64);
            break;
          default:
            inner = std::make_unique<net::Crossbar<Env>>(16, 5);
            break;
        }
        return std::make_unique<net::ReliableNet<Payload>>(
            std::move(inner));
    }
};

TEST_P(ReliableSkipAhead, MatchesSteppingEveryCycle)
{
    const sim::fault::FaultPlan plan =
        skipFaultPlan(70 + static_cast<std::uint64_t>(GetParam()));
    for (const bool faulted : {false, true}) {
        SCOPED_TRACE(faulted ? "faulted" : "bare");
        auto stepped = make(GetParam());
        auto skipped = make(GetParam());
        const auto sends =
            burstyTraffic(stepped->numPorts(), 31 + GetParam());
        sim::fault::FaultInjector steppedFaults(plan);
        sim::fault::FaultInjector skippedFaults(plan);
        if (faulted) {
            stepped->setFaultInjector(&steppedFaults);
            skipped->setFaultInjector(&skippedFaults);
        }
        std::size_t steppedSteps = 0, skippedSteps = 0;
        const auto want = driveTimed(*stepped, sends, false, steppedSteps);
        const auto got = driveTimed(*skipped, sends, true, skippedSteps);
        EXPECT_EQ(got, want);
        EXPECT_EQ(want.size(), sends.size()) << "not exactly once";
        EXPECT_EQ(statsBytes(skipped->stats()),
                  statsBytes(stepped->stats()));
        EXPECT_EQ(statsBytes(skipped->innerStats()),
                  statsBytes(stepped->innerStats()));
        EXPECT_EQ(statsBytes(skipped->relStats()),
                  statsBytes(stepped->relStats()));
        if (faulted) {
            EXPECT_GT(stepped->relStats().retransmits.value(), 0u);
            EXPECT_EQ(skippedFaults.stats().decisions,
                      steppedFaults.stats().decisions);
        }
        EXPECT_LT(skippedSteps, steppedSteps);
    }
}

INSTANTIATE_TEST_SUITE_P(InnerFabrics, ReliableSkipAhead,
                         ::testing::Range(0, 4));

} // namespace
