/**
 * @file
 * Waiting-matching store stress tests.
 *
 * The WM store is a FlatHashMap keyed on the full graph::Tag but
 * hashed through its 64-bit packing, which is NOT injective — distinct
 * tags can share a packed value and therefore a hash. These tests pin
 * down that such tags stay distinct entries, that collision-heavy tag
 * streams survive insert/erase/reinsert churn and growth under load,
 * and that the machine's observability fast path (latencyStats off)
 * changes no simulated behaviour.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "common/flatmap.hh"
#include "graph/tag.hh"
#include "ttda/machine.hh"
#include "workloads/dfg_programs.hh"

namespace
{

using WmMap = sim::FlatHashMap<graph::Tag, int, graph::TagHash>;

graph::Tag
tag(std::uint32_t ctx, std::uint16_t cb, std::uint16_t stmt,
    std::uint32_t iter)
{
    graph::Tag t;
    t.ctx = ctx;
    t.codeBlock = cb;
    t.stmt = stmt;
    t.iter = iter;
    return t;
}

TEST(WmStore, PackedCollisionTagsStayDistinct)
{
    // packed() = (ctx<<32) ^ (cb<<48) ^ (stmt<<16) ^ iter, so
    // {ctx=0x10000, cb=0} and {ctx=0, cb=1} share a packed value, as
    // do {stmt=1, iter=0} and {stmt=0, iter=1<<16}. Equality on the
    // full tag must keep each pair as two separate WM entries.
    const graph::Tag a = tag(0x10000, 0, 3, 5);
    const graph::Tag b = tag(0, 1, 3, 5);
    ASSERT_EQ(a.packed(), b.packed());
    ASSERT_FALSE(a == b);
    const graph::Tag c = tag(7, 2, 1, 0);
    const graph::Tag d = tag(7, 2, 0, std::uint32_t{1} << 16);
    ASSERT_EQ(c.packed(), d.packed());
    ASSERT_FALSE(c == d);

    WmMap m;
    *m.insert(a).first = 1;
    *m.insert(b).first = 2;
    *m.insert(c).first = 3;
    *m.insert(d).first = 4;
    EXPECT_EQ(m.size(), 4u);
    EXPECT_EQ(*m.find(a), 1);
    EXPECT_EQ(*m.find(b), 2);
    EXPECT_EQ(*m.find(c), 3);
    EXPECT_EQ(*m.find(d), 4);
    // Erasing one of a colliding pair must not disturb the other.
    EXPECT_TRUE(m.erase(a));
    EXPECT_EQ(m.find(a), nullptr);
    ASSERT_NE(m.find(b), nullptr);
    EXPECT_EQ(*m.find(b), 2);
}

TEST(WmStore, CollisionHeavyChurnAndGrowthUnderLoad)
{
    // A tag stream in which every iteration value appears under two
    // packed-colliding contexts, grown past several growth thresholds
    // while older entries retire — the WM store's life under a
    // loop-unfolding workload.
    WmMap m;
    constexpr std::uint32_t kLive = 64;
    for (std::uint32_t i = 0; i < 2048; ++i) {
        *m.insert(tag(0x10000, 0, 1, i)).first = static_cast<int>(i);
        *m.insert(tag(0, 1, 1, i)).first = static_cast<int>(i) + 1;
        if (i >= kLive) {
            // Retire the matched pair from kLive iterations ago.
            EXPECT_TRUE(m.erase(tag(0x10000, 0, 1, i - kLive)));
            EXPECT_TRUE(m.erase(tag(0, 1, 1, i - kLive)));
        }
        // The live window stays fully matchable.
        const std::uint32_t lo = i >= kLive ? i - kLive + 1 : 0;
        for (std::uint32_t j = lo; j <= i; j += 17) {
            ASSERT_NE(m.find(tag(0x10000, 0, 1, j)), nullptr)
                << "lost ctx-alias entry for iter " << j;
            ASSERT_NE(m.find(tag(0, 1, 1, j)), nullptr)
                << "lost cb-alias entry for iter " << j;
        }
    }
    // At most 2 * kLive + 2 = 130 entries at <= 3/4 load: four
    // doublings from the default 16 slots.
    EXPECT_EQ(m.capacity(), 256u);
    EXPECT_EQ(m.size(), 2u * kLive);
}

TEST(WmStore, InsertEraseReinsertSameTag)
{
    // stepInput erases an entry the moment its operand set completes
    // and may re-create it next iteration; the freed slot must come
    // back with default (fresh) contents every time.
    WmMap m;
    const graph::Tag t0 = tag(3, 1, 2, 0);
    for (int round = 0; round < 1000; ++round) {
        auto [v, inserted] = m.insert(t0);
        ASSERT_TRUE(inserted) << "round " << round;
        ASSERT_EQ(*v, 0) << "slot not reset on round " << round;
        *v = round + 1;
        ASSERT_TRUE(m.erase(t0));
    }
    EXPECT_TRUE(m.empty());
}

/** The machine's cycle counts, outputs, and per-PE statistics must be
 *  identical whether the observability path (latencyStats) is compiled
 *  in (Obs=true) or out (Obs=false). */
TEST(WmStore, LatencyStatsDoesNotPerturbSimulation)
{
    graph::Program program;
    const auto cb = workloads::buildProducerConsumer(program);
    std::string sig[2];
    for (int obs = 0; obs < 2; ++obs) {
        ttda::MachineConfig cfg;
        cfg.numPEs = 4;
        cfg.netLatency = 2;
        cfg.latencyStats = obs == 1;
        ttda::Machine m(program, cfg);
        m.input(cb, 0, graph::Value{std::int64_t{16}});
        auto out = m.run();
        std::ostringstream os;
        os << m.cycles() << "/" << m.totalFired() << "/"
           << m.deadlocked() << "/";
        for (const auto &rec : out)
            os << rec.value.toString() << ",";
        for (std::uint32_t p = 0; p < cfg.numPEs; ++p) {
            const auto &st = m.peStats(p);
            os << " " << st.tokensIn.value() << "," << st.fired.value()
               << "," << st.matchBusyCycles.value() << ","
               << st.outputTokens.value() << "," << st.waitStorePeak;
        }
        sig[obs] = os.str();
    }
    EXPECT_EQ(sig[0], sig[1]);
}

} // namespace
