/**
 * @file
 * Unit tests for the statistics primitives.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/json.hh"
#include "common/stats.hh"

namespace
{

TEST(Counter, StartsAtZeroAndAccumulates)
{
    sim::Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(9);
    EXPECT_EQ(c.value(), 10u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Accumulator, TracksMoments)
{
    sim::Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    a.sample(6.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 12.0);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 6.0);
}

TEST(Accumulator, EmptyMinMaxAreZero)
{
    sim::Accumulator a;
    EXPECT_EQ(a.min(), 0.0);
    EXPECT_EQ(a.max(), 0.0);
}

TEST(Histogram, BinsAndSaturates)
{
    sim::Histogram h(10.0, 4); // bins [0,10) [10,20) [20,30) [30,inf)
    h.sample(0.0);
    h.sample(9.9);
    h.sample(10.0);
    h.sample(25.0);
    h.sample(1000.0); // saturates into the last bin
    ASSERT_EQ(h.bins().size(), 4u);
    EXPECT_EQ(h.bins()[0], 2u);
    EXPECT_EQ(h.bins()[1], 1u);
    EXPECT_EQ(h.bins()[2], 1u);
    EXPECT_EQ(h.bins()[3], 1u);
    EXPECT_EQ(h.summary().count(), 5u);
}

TEST(Histogram, NegativeSamplesCountAsUnderflow)
{
    sim::Histogram h(1.0, 8);
    h.sample(-5.0);
    h.sample(-0.5, 2);
    EXPECT_EQ(h.underflow(), 3u);
    EXPECT_EQ(h.bins()[0], 0u); // not folded into the first bin
    // Underflow still participates in the summary moments.
    EXPECT_EQ(h.summary().count(), 3u);
    EXPECT_DOUBLE_EQ(h.summary().min(), -5.0);
    h.sample(0.0);
    EXPECT_EQ(h.bins()[0], 1u);
    EXPECT_EQ(h.underflow(), 3u);
}

TEST(Histogram, QuantileEstimates)
{
    sim::Histogram h(1.0, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(static_cast<double>(i) + 0.5);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
    EXPECT_NEAR(h.quantile(0.99), 99.0, 2.0);
    EXPECT_NEAR(h.quantile(0.0), 0.0, 1.0);
}

TEST(Histogram, QuantileBoundaries)
{
    sim::Histogram empty(1.0, 4);
    EXPECT_DOUBLE_EQ(empty.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(empty.quantile(1.0), 0.0);

    sim::Histogram h(10.0, 4); // bins [0,10) [10,20) [20,30) [30,inf)
    h.sample(5.0);
    h.sample(15.0);
    h.sample(25.0);
    h.sample(95.0); // saturates into the last bin
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
    // q=1 must cover every sample, including the saturated one: the
    // answer is the upper edge of the final bin, never beyond it.
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 40.0);
    // 25% of the mass sits in the first bin.
    EXPECT_DOUBLE_EQ(h.quantile(0.25), 10.0);

    // All-underflow mass: every quantile collapses to 0.
    sim::Histogram neg(1.0, 4);
    neg.sample(-1.0, 10);
    EXPECT_DOUBLE_EQ(neg.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(neg.quantile(1.0), 0.0);
}

TEST(Histogram, QuantileEdgeCases)
{
    // Empty: every quantile (including the extremes) reads 0, and
    // the tail quantiles the default dump emits never divide by a
    // zero count.
    sim::Histogram empty(2.0, 8);
    EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(empty.quantile(0.999), 0.0);

    // Single sample: all the mass sits in one bin, so every nonzero
    // quantile resolves to that bin's upper edge.
    sim::Histogram one(2.0, 8);
    one.sample(5.0); // bin [4, 6)
    EXPECT_DOUBLE_EQ(one.quantile(0.001), 6.0);
    EXPECT_DOUBLE_EQ(one.quantile(0.5), 6.0);
    EXPECT_DOUBLE_EQ(one.quantile(1.0), 6.0);

    // All-overflow mass: everything saturates into the final bin;
    // quantiles answer its upper edge, never a value beyond the
    // histogram's range.
    sim::Histogram over(10.0, 4); // bins cover [0, 40)
    over.sample(100.0, 7);
    EXPECT_EQ(over.overflow(), 7u);
    EXPECT_DOUBLE_EQ(over.quantile(0.5), 40.0);
    EXPECT_DOUBLE_EQ(over.quantile(0.999), 40.0);
    EXPECT_DOUBLE_EQ(over.quantile(1.0), 40.0);
}

TEST(Histogram, DumpJsonQuantileList)
{
    sim::Histogram h(1.0, 100);
    for (int i = 0; i < 1000; ++i)
        h.sample(static_cast<double>(i % 100) + 0.5);

    // Default list: the tail-latency set.
    std::ostringstream os;
    h.dumpJson(os);
    const std::string json = os.str();
    EXPECT_NO_THROW(sim::json::parse(json)) << json;
    for (const char *key : {"\"p50\":", "\"p90\":", "\"p99\":",
                            "\"p999\":"})
        EXPECT_NE(json.find(key), std::string::npos) << key;

    // A caller-chosen list replaces it.
    std::ostringstream os2;
    h.dumpJson(os2, {0.25, 0.75});
    const std::string json2 = os2.str();
    EXPECT_NO_THROW(sim::json::parse(json2)) << json2;
    EXPECT_NE(json2.find("\"p25\":"), std::string::npos);
    EXPECT_NE(json2.find("\"p75\":"), std::string::npos);
    EXPECT_EQ(json2.find("\"p999\":"), std::string::npos);

    // Percentile keys fold tenths into the digits.
    EXPECT_EQ(sim::detail::quantileKey(0.5), "p50");
    EXPECT_EQ(sim::detail::quantileKey(0.9), "p90");
    EXPECT_EQ(sim::detail::quantileKey(0.99), "p99");
    EXPECT_EQ(sim::detail::quantileKey(0.999), "p999");
}

TEST(Histogram, BatchedSampleMatchesRepeatedSample)
{
    sim::Histogram a(4.0, 16);
    sim::Histogram b(4.0, 16);
    const double values[] = {-3.0, 0.0, 7.5, 31.0, 100.0};
    for (double v : values) {
        a.sample(v, 5);
        for (int i = 0; i < 5; ++i)
            b.sample(v);
    }
    EXPECT_EQ(a.bins(), b.bins());
    EXPECT_EQ(a.underflow(), b.underflow());
    EXPECT_EQ(a.summary().count(), b.summary().count());
    EXPECT_DOUBLE_EQ(a.summary().sum(), b.summary().sum());
    EXPECT_DOUBLE_EQ(a.summary().min(), b.summary().min());
    EXPECT_DOUBLE_EQ(a.summary().max(), b.summary().max());
    EXPECT_DOUBLE_EQ(a.quantile(0.5), b.quantile(0.5));

    // n == 0 is a no-op, not a zero-width sample.
    a.sample(123.0, 0);
    EXPECT_EQ(a.summary().count(), b.summary().count());
}

TEST(Histogram, DumpJsonIsWellFormed)
{
    sim::Histogram h(2.0, 8);
    h.sample(-1.0);
    h.sample(3.0, 4);
    h.sample(100.0);
    std::ostringstream os;
    h.dumpJson(os);
    const std::string json = os.str();
    EXPECT_NO_THROW(sim::json::parse(json)) << json;
    EXPECT_NE(json.find("\"underflow\":1"), std::string::npos);
    EXPECT_NE(json.find("\"count\":6"), std::string::npos);
}

TEST(Histogram, OverflowCountedAndDumped)
{
    sim::Histogram h(10.0, 4); // bins cover [0, 40)
    h.sample(5.0);
    h.sample(45.0);  // saturates into the last bin
    h.sample(999.0); // ditto
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.bins().back(), 2u);
    std::ostringstream os;
    h.dumpJson(os);
    EXPECT_NO_THROW(sim::json::parse(os.str())) << os.str();
    EXPECT_NE(os.str().find("\"overflow\":2"), std::string::npos);
}

// Regression: merging per-shard histograms where some shards stayed
// empty. An empty shard must merge as a no-op whatever its geometry,
// and merging into an empty histogram must adopt the populated side's
// geometry and keep its underflow/overflow counts — previously the
// out-of-range mass was silently dropped.
TEST(Histogram, MergeWithEmptyShardKeepsOutOfRangeCounts)
{
    sim::Histogram populated(10.0, 4);
    populated.sample(-2.0);  // underflow
    populated.sample(15.0);
    populated.sample(500.0); // overflow

    // Default-constructed shard (different geometry) merging in: no-op.
    sim::Histogram emptyShard;
    populated.merge(emptyShard);
    EXPECT_EQ(populated.summary().count(), 3u);
    EXPECT_EQ(populated.underflow(), 1u);
    EXPECT_EQ(populated.overflow(), 1u);

    // Merging the populated shard into a default-constructed
    // accumulator: geometry is adopted, nothing is dropped.
    sim::Histogram total;
    total.merge(populated);
    EXPECT_EQ(total.binWidth(), 10.0);
    EXPECT_EQ(total.bins().size(), 4u);
    EXPECT_EQ(total.summary().count(), 3u);
    EXPECT_EQ(total.underflow(), 1u);
    EXPECT_EQ(total.overflow(), 1u);
    EXPECT_EQ(total.bins(), populated.bins());

    // And a same-geometry merge still adds bin-wise.
    sim::Histogram other(10.0, 4);
    other.sample(15.0);
    other.sample(40.0); // overflow
    total.merge(other);
    EXPECT_EQ(total.summary().count(), 5u);
    EXPECT_EQ(total.overflow(), 2u);
    EXPECT_EQ(total.bins()[1], 2u);
}

TEST(StatGroup, SetGetDump)
{
    sim::StatGroup g("pe0");
    g.set("utilization", 0.75);
    g.set("tokens", 123);
    EXPECT_DOUBLE_EQ(g.get("utilization"), 0.75);
    EXPECT_TRUE(g.has("utilization"));
    EXPECT_FALSE(g.has("missing"));
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("pe0.utilization = 0.75"), std::string::npos);
    EXPECT_NE(os.str().find("pe0.tokens = 123"), std::string::npos);
}

TEST(StatGroupDeathTest, GetOfAbsentKeyNamesTheKey)
{
    sim::StatGroup g("pe0");
    g.set("utilization", 0.75);
    // The report must name both the group and the offending key so a
    // typo in a benchmark points straight at itself.
    EXPECT_DEATH(g.get("utilzation"), "pe0.*utilzation");
}

TEST(StatGroup, DumpJsonIsWellFormed)
{
    sim::StatGroup g("machine");
    g.set("cycles", 1234);
    g.set("speedup", 3.5);
    g.set("nan", std::nan("")); // non-finite must become null
    std::ostringstream os;
    g.dumpJson(os);
    const std::string json = os.str();
    EXPECT_NO_THROW(sim::json::parse(json)) << json;
    EXPECT_NE(json.find("\"cycles\":1234"), std::string::npos);
    EXPECT_NE(json.find("\"nan\":null"), std::string::npos);

    sim::StatGroup empty("empty");
    std::ostringstream os2;
    empty.dumpJson(os2);
    EXPECT_EQ(os2.str(), "{}");
}

} // namespace
