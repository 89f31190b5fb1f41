/**
 * @file
 * The sim::fault subsystem: plan parsing/round-tripping, the
 * injector's determinism contract (same plan => bit-identical fate
 * sequence), and the scheduled stall-window queries.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/fault.hh"

namespace
{

using sim::fault::Event;
using sim::fault::FaultInjector;
using sim::fault::FaultPlan;
using sim::fault::PacketFate;

TEST(FaultPlan, EmptyPlanIsDisabled)
{
    FaultPlan plan;
    EXPECT_FALSE(plan.enabled());
    plan.dropRate = 0.01;
    EXPECT_TRUE(plan.enabled());
}

TEST(FaultPlan, ScheduledEventsAloneEnable)
{
    FaultPlan plan;
    Event e;
    e.kind = Event::Kind::PeStall;
    e.from = 10;
    e.to = 20;
    e.a = 3;
    plan.events.push_back(e);
    EXPECT_TRUE(plan.enabled());
}

TEST(FaultPlan, ParseFullSpec)
{
    const FaultPlan plan = FaultPlan::parse(
        "seed=7,drop=0.01,dup=0.005,corrupt=0.001,delay=0.01,spike=32,"
        "linkdown@100-200:0>3,linkdown@50-60,pestall@50-90:2,"
        "memstall@10-40:1");
    EXPECT_EQ(plan.seed, 7u);
    EXPECT_DOUBLE_EQ(plan.dropRate, 0.01);
    EXPECT_DOUBLE_EQ(plan.dupRate, 0.005);
    EXPECT_DOUBLE_EQ(plan.corruptRate, 0.001);
    EXPECT_DOUBLE_EQ(plan.delayRate, 0.01);
    EXPECT_EQ(plan.delaySpike, 32u);
    ASSERT_EQ(plan.events.size(), 4u);

    EXPECT_EQ(plan.events[0].kind, Event::Kind::LinkDown);
    EXPECT_EQ(plan.events[0].from, 100u);
    EXPECT_EQ(plan.events[0].to, 200u);
    EXPECT_EQ(plan.events[0].a, 0u);
    EXPECT_EQ(plan.events[0].b, 3u);

    // Endpoint-less linkdown wildcards both sides.
    EXPECT_EQ(plan.events[1].a, Event::kAny);
    EXPECT_EQ(plan.events[1].b, Event::kAny);

    EXPECT_EQ(plan.events[2].kind, Event::Kind::PeStall);
    EXPECT_EQ(plan.events[2].a, 2u);
    EXPECT_EQ(plan.events[3].kind, Event::Kind::MemStall);
    EXPECT_EQ(plan.events[3].a, 1u);
}

TEST(FaultPlan, SummaryRoundTrips)
{
    const char *spec =
        "seed=42,drop=0.02,dup=0.01,linkdown@5-9:1>2,pestall@3-4:0";
    const FaultPlan plan = FaultPlan::parse(spec);
    const FaultPlan again = FaultPlan::parse(plan.summary());
    EXPECT_EQ(again.seed, plan.seed);
    EXPECT_DOUBLE_EQ(again.dropRate, plan.dropRate);
    EXPECT_DOUBLE_EQ(again.dupRate, plan.dupRate);
    ASSERT_EQ(again.events.size(), plan.events.size());
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
        EXPECT_EQ(again.events[i].kind, plan.events[i].kind);
        EXPECT_EQ(again.events[i].from, plan.events[i].from);
        EXPECT_EQ(again.events[i].to, plan.events[i].to);
        EXPECT_EQ(again.events[i].a, plan.events[i].a);
        EXPECT_EQ(again.events[i].b, plan.events[i].b);
    }
}

TEST(FaultPlan, DefaultLossyIsEnabledAndSeeded)
{
    const FaultPlan plan = FaultPlan::defaultLossy(99);
    EXPECT_TRUE(plan.enabled());
    EXPECT_EQ(plan.seed, 99u);
    EXPECT_GT(plan.dropRate, 0.0);
    EXPECT_GT(plan.dupRate, 0.0);
}

TEST(FaultPlan, RatesOutsideZeroOneAreRejected)
{
    using sim::fault::isRate;
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(isRate(0.0) && isRate(0.5) && isRate(1.0));
    EXPECT_FALSE(isRate(-0.01) || isRate(1.01) || isRate(inf) ||
                 isRate(-inf) || isRate(nan));

    FaultPlan plan = FaultPlan::defaultLossy(1);
    EXPECT_EQ(plan.badRate(), nullptr);
    plan.delayRate = 2.0;
    EXPECT_STREQ(plan.badRate(), "delayRate");
    plan.dupRate = nan;
    EXPECT_STREQ(plan.badRate(), "dupRate");

    // parse() applies the same rule to every rate it reads.
    EXPECT_DEATH(FaultPlan::parse("drop=1.5"), "wants a rate in");
    EXPECT_DEATH(FaultPlan::parse("dup=nan"), "wants a rate in");
    EXPECT_DEATH(FaultPlan::parse("delay=inf"), "wants a rate in");
}

TEST(FaultInjector, SameSeedSameFateSequence)
{
    FaultPlan plan;
    plan.seed = 1234;
    plan.dropRate = 0.2;
    plan.dupRate = 0.1;
    plan.corruptRate = 0.05;
    plan.delayRate = 0.1;
    plan.delaySpike = 8;

    auto fates = [&plan] {
        FaultInjector inj(plan);
        std::vector<int> seq;
        for (sim::Cycle c = 0; c < 500; ++c)
            seq.push_back(static_cast<int>(
                inj.onPacket(c, c % 4, (c + 1) % 4).action));
        return seq;
    };
    EXPECT_EQ(fates(), fates());

    FaultPlan other = plan;
    other.seed = 1235;
    FaultInjector inj(other);
    std::vector<int> seq;
    for (sim::Cycle c = 0; c < 500; ++c)
        seq.push_back(static_cast<int>(
            inj.onPacket(c, c % 4, (c + 1) % 4).action));
    EXPECT_NE(seq, fates());
}

TEST(FaultInjector, RatesRoughlyHonored)
{
    FaultPlan plan;
    plan.seed = 77;
    plan.dropRate = 0.25;
    FaultInjector inj(plan);
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        inj.onPacket(0, 0, 1);
    const auto &st = inj.stats();
    EXPECT_EQ(st.decisions, static_cast<std::uint64_t>(n));
    EXPECT_NEAR(static_cast<double>(st.drops) / n, 0.25, 0.02);
    EXPECT_EQ(st.destroyed(), st.drops);
}

TEST(FaultInjector, LinkDownWindowDropsWithoutRandomness)
{
    FaultPlan plan;
    plan.events.push_back(
        {Event::Kind::LinkDown, 10, 20, 1, 2});
    FaultInjector inj(plan);

    // In-window, matching endpoints: scheduled drop.
    PacketFate f = inj.onPacket(15, 1, 2);
    EXPECT_EQ(f.action, PacketFate::Action::Drop);
    EXPECT_TRUE(f.scheduled);
    // Wrong endpoints or outside the window: untouched.
    EXPECT_EQ(inj.onPacket(15, 2, 1).action,
              PacketFate::Action::Deliver);
    EXPECT_EQ(inj.onPacket(9, 1, 2).action,
              PacketFate::Action::Deliver);
    EXPECT_EQ(inj.onPacket(21, 1, 2).action,
              PacketFate::Action::Deliver);
    // No probabilistic rates configured: zero RNG decisions were made.
    EXPECT_EQ(inj.stats().decisions, 0u);
    EXPECT_EQ(inj.stats().linkDownDrops, 1u);
}

TEST(FaultInjector, StallWindowQueries)
{
    FaultPlan plan;
    plan.events.push_back({Event::Kind::PeStall, 10, 19, 3, 0});
    plan.events.push_back({Event::Kind::PeStall, 20, 29, 3, 0});
    plan.events.push_back({Event::Kind::MemStall, 5, 7, 1, 0});
    FaultInjector inj(plan);

    EXPECT_TRUE(inj.hasPeStalls());
    EXPECT_TRUE(inj.hasMemStalls());
    EXPECT_FALSE(inj.peStalled(9, 3));
    EXPECT_TRUE(inj.peStalled(10, 3));
    EXPECT_TRUE(inj.peStalled(29, 3));
    EXPECT_FALSE(inj.peStalled(30, 3));
    EXPECT_FALSE(inj.peStalled(15, 2)); // different PE

    // Resume chases across back-to-back windows.
    EXPECT_EQ(inj.peResume(12, 3), 30u);
    EXPECT_EQ(inj.peResume(30, 3), 30u);
    EXPECT_EQ(inj.peResume(3, 3), 3u);

    EXPECT_TRUE(inj.memStalled(6, 1));
    EXPECT_FALSE(inj.memStalled(6, 0));
    EXPECT_EQ(inj.memResume(5, 1), 8u);
}

} // namespace
