/**
 * @file
 * net::ReliableNet: the end-to-end reliability decorator. Exactly-once
 * delivery over a lossy fabric, retransmission with bounded backoff,
 * abandonment after maxAttempts, and zero protocol overhead besides
 * ACKs when nothing is lost.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/fault.hh"
#include "net/ideal.hh"
#include "net/reliable.hh"

namespace
{

using net::Envelope;
using net::ReliableNet;
using net::RetryConfig;

std::unique_ptr<ReliableNet<int>>
makeReliable(std::uint32_t ports, RetryConfig cfg = {})
{
    return std::make_unique<ReliableNet<int>>(
        std::make_unique<net::IdealNetwork<Envelope<int>>>(
            ports, /*latency=*/2, /*jitter=*/0, /*seed=*/1),
        cfg);
}

/** Step `rel` until idle (or `maxCycles`), draining every port into
 *  per-port delivery logs. */
std::vector<std::vector<int>>
drain(ReliableNet<int> &rel, std::uint32_t ports,
      sim::Cycle maxCycles = 100000)
{
    std::vector<std::vector<int>> got(ports);
    for (sim::Cycle c = 0; c < maxCycles; ++c) {
        rel.step(c);
        for (std::uint32_t p = 0; p < ports; ++p)
            while (auto v = rel.receive(p))
                got[p].push_back(*v);
        if (rel.idle())
            break;
    }
    return got;
}

TEST(ReliableNet, LosslessDeliversInOrderWithoutRetransmits)
{
    auto rel = makeReliable(2);
    for (int i = 0; i < 20; ++i)
        rel->send(0, 1, i);
    const auto got = drain(*rel, 2);
    ASSERT_EQ(got[1].size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(got[1][i], i);
    EXPECT_TRUE(got[0].empty()); // ACKs are consumed, not delivered
    EXPECT_EQ(rel->relStats().retransmits.value(), 0u);
    EXPECT_EQ(rel->relStats().abandoned.value(), 0u);
    EXPECT_EQ(rel->relStats().acksSent.value(), 20u);
    EXPECT_TRUE(rel->idle());
}

TEST(ReliableNet, TakesItsPortCountFromTheInnerFabric)
{
    EXPECT_EQ(makeReliable(6)->numPorts(), 6u);
    // Checked before the inner fabric is asked for its port count.
    EXPECT_DEATH(ReliableNet<int>(nullptr), "inner != nullptr");
}

TEST(ReliableNet, BackoffDoublesUpToCap)
{
    RetryConfig cfg;
    cfg.timeout = 8;
    cfg.backoffCap = 3;
    EXPECT_EQ(net::backoffDelay(cfg, 1), 8u);
    EXPECT_EQ(net::backoffDelay(cfg, 2), 16u);
    EXPECT_EQ(net::backoffDelay(cfg, 3), 32u);
    EXPECT_EQ(net::backoffDelay(cfg, 4), 64u);
    EXPECT_EQ(net::backoffDelay(cfg, 5), 64u); // capped
    EXPECT_EQ(net::backoffDelay(cfg, 100), 64u);
}

TEST(ReliableNet, RecoversEveryPayloadFromHeavyLoss)
{
    // 30% drop + duplicates + delay spikes on the inner fabric: every
    // payload must still arrive exactly once. Order may differ — the
    // wrapper is at-most-once, not in-order.
    sim::fault::FaultPlan plan;
    plan.seed = 99;
    plan.dropRate = 0.3;
    plan.dupRate = 0.1;
    plan.delayRate = 0.1;
    plan.delaySpike = 8;
    sim::fault::FaultInjector inj(plan);

    RetryConfig cfg;
    cfg.timeout = 16;
    cfg.maxAttempts = 20;
    auto rel = makeReliable(4, cfg);
    rel->setFaultInjector(&inj);

    const int n = 100;
    for (int i = 0; i < n; ++i)
        rel->send(0, 1 + (i % 3), i);
    const auto got = drain(*rel, 4);

    std::map<int, int> seen;
    for (std::uint32_t p = 1; p < 4; ++p)
        for (int v : got[p])
            ++seen[v];
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(n));
    for (const auto &[v, count] : seen)
        EXPECT_EQ(count, 1) << "payload " << v;
    EXPECT_EQ(rel->relStats().abandoned.value(), 0u);
    EXPECT_GT(rel->relStats().retransmits.value(), 0u);
    EXPECT_GT(inj.stats().drops, 0u);
    EXPECT_TRUE(rel->idle());
    EXPECT_EQ(rel->pendingCount(), 0u);
}

TEST(ReliableNet, DeterministicUnderSamePlan)
{
    auto run = [] {
        sim::fault::FaultPlan plan;
        plan.seed = 7;
        plan.dropRate = 0.25;
        plan.dupRate = 0.05;
        sim::fault::FaultInjector inj(plan);
        RetryConfig cfg;
        cfg.timeout = 16;
        auto rel = makeReliable(2, cfg);
        rel->setFaultInjector(&inj);
        for (int i = 0; i < 50; ++i)
            rel->send(0, 1, i);
        const auto got = drain(*rel, 2);
        return std::make_tuple(got[1],
                               rel->relStats().retransmits.value(),
                               inj.stats().decisions);
    };
    EXPECT_EQ(run(), run());
}

TEST(ReliableNet, AbandonsAfterMaxAttempts)
{
    // A link-down window longer than every retry: all Data envelopes
    // 0->1 die, ACKs never exist, and the sender must eventually give
    // up rather than retry (or block idle()) forever.
    sim::fault::FaultPlan plan;
    plan.events.push_back(
        {sim::fault::Event::Kind::LinkDown, 0, 1000000, 0, 1});
    sim::fault::FaultInjector inj(plan);

    RetryConfig cfg;
    cfg.timeout = 8;
    cfg.maxAttempts = 4;
    cfg.backoffCap = 2;
    auto rel = makeReliable(2, cfg);
    rel->setFaultInjector(&inj);

    for (int i = 0; i < 5; ++i)
        rel->send(0, 1, i);
    const auto got = drain(*rel, 2);
    EXPECT_TRUE(got[1].empty());
    EXPECT_TRUE(rel->idle());
    EXPECT_EQ(rel->relStats().abandoned.value(), 5u);
    // Each send was transmitted maxAttempts times in total.
    EXPECT_EQ(rel->relStats().retransmits.value(),
              5u * (cfg.maxAttempts - 1));
    EXPECT_EQ(inj.stats().linkDownDrops,
              5u * cfg.maxAttempts);
    EXPECT_EQ(rel->pendingCount(), 0u);
}

} // namespace
