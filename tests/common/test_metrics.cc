/**
 * @file
 * MetricsRecorder unit tests (sampling grid, decimation, exporter
 * schemas) and end-to-end determinism: the machine-sampled time
 * series must be bit-identical at any host thread count, and the
 * lane VM must sample on its executed-instruction pseudo-time.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/metrics.hh"
#include "emul/compile.hh"
#include "emul/vm.hh"
#include "graph/program.hh"
#include "graph/value.hh"
#include "ttda/machine.hh"
#include "vn/machine.hh"
#include "workloads/dfg_programs.hh"
#include "workloads/vn_programs.hh"

namespace
{

using graph::Value;
using sim::MetricsRecorder;
using std::int64_t;

TEST(MetricsRecorder, GaugeAndRateBasics)
{
    MetricsRecorder rec(100);
    const auto g = rec.gauge("queue.depth");
    const auto r = rec.rate("fired");
    EXPECT_EQ(rec.numSeries(), 2u);
    EXPECT_EQ(rec.gauge("queue.depth"), g) << "idempotent by name";
    EXPECT_EQ(rec.rate("fired"), r);
    EXPECT_EQ(rec.name(g), "queue.depth");
    EXPECT_EQ(rec.kind(g), MetricsRecorder::Kind::Gauge);
    EXPECT_EQ(rec.kind(r), MetricsRecorder::Kind::Rate);

    rec.set(g, 3.0);
    rec.set(r, 10.0);
    rec.record(100);
    rec.set(g, 1.0); // a gauge's stale stage is overwritten
    rec.record(200);
    ASSERT_EQ(rec.numRows(), 2u);
    EXPECT_EQ(rec.rowCycle(0), 100u);
    EXPECT_EQ(rec.rowCycle(1), 200u);
    EXPECT_DOUBLE_EQ(rec.value(g, 0), 3.0);
    EXPECT_DOUBLE_EQ(rec.value(g, 1), 1.0);
    EXPECT_DOUBLE_EQ(rec.value(r, 1), 10.0)
        << "rates store the cumulative reading, not a delta";
}

TEST(MetricsRecorder, DueFollowsTheIntervalGrid)
{
    MetricsRecorder rec(100);
    EXPECT_TRUE(rec.due(0)) << "nothing recorded yet: first sample due";
    rec.record(0);
    EXPECT_FALSE(rec.due(99));
    EXPECT_TRUE(rec.due(100));
    // An event-driven skip far past the boundary realigns to the grid.
    rec.record(250);
    EXPECT_FALSE(rec.due(299));
    EXPECT_TRUE(rec.due(300));
}

TEST(MetricsRecorder, DecimationKeepsFirstLastAndExactCount)
{
    MetricsRecorder rec(1, /*capacity=*/8);
    const auto r = rec.rate("count");
    std::uint64_t recorded = 0;
    for (sim::Cycle now = 0; now < 100; ++now) {
        if (!rec.due(now))
            continue;
        rec.set(r, static_cast<double>(3 * now));
        rec.record(now);
        ++recorded;
    }
    const sim::Cycle lastBeforeFinalize =
        rec.rowCycle(rec.numRows() - 1);
    rec.set(r, 3.0 * 99);
    rec.finalize(99);
    if (lastBeforeFinalize != 99)
        ++recorded; // finalize appended one more sample

    EXPECT_LE(rec.numRows(), 9u)
        << "finalize may re-append one row past a decimation";
    EXPECT_EQ(rec.samplesRecorded(), recorded)
        << "exact pre-decimation count survives";
    EXPECT_EQ(rec.rowCycle(0), 0u) << "first sample always survives";
    EXPECT_EQ(rec.rowCycle(rec.numRows() - 1), 99u)
        << "finalize pins the series to the run's end";
    EXPECT_GT(rec.effectiveInterval(), rec.interval())
        << "capacity pressure doubled the period";
    // Cumulative readings at surviving stamps are still true.
    for (std::size_t row = 0; row < rec.numRows(); ++row)
        EXPECT_DOUBLE_EQ(rec.value(r, row),
                         3.0 * static_cast<double>(rec.rowCycle(row)));
}

TEST(MetricsRecorder, FinalizeDedupsTheLastStamp)
{
    MetricsRecorder rec(10);
    const auto g = rec.gauge("g");
    rec.set(g, 1.0);
    rec.record(40);
    rec.finalize(40);
    EXPECT_EQ(rec.numRows(), 1u);
    rec.finalize(55);
    ASSERT_EQ(rec.numRows(), 2u);
    EXPECT_EQ(rec.rowCycle(1), 55u);
}

TEST(MetricsRecorder, JsonSchemaIsValid)
{
    MetricsRecorder rec(16);
    const auto g = rec.gauge("depth");
    const auto r = rec.rate("fired");
    for (sim::Cycle now = 0; now < 64; now += 16) {
        rec.set(g, static_cast<double>(now % 5));
        rec.set(r, static_cast<double>(now));
        rec.record(now);
    }
    rec.finalize(70);
    std::ostringstream os;
    rec.dumpJson(os);
    const std::string doc = os.str();
    EXPECT_NO_THROW(sim::json::parse(doc)) << doc;
    EXPECT_NE(doc.find("\"interval\":16"), std::string::npos);
    EXPECT_NE(doc.find("\"samplesRecorded\":5"), std::string::npos);
    EXPECT_NE(doc.find("\"depth\":{\"kind\":\"gauge\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"fired\":{\"kind\":\"rate\""),
              std::string::npos);
}

TEST(MetricsRecorder, CsvSchemaMatchesRows)
{
    MetricsRecorder rec(8);
    rec.gauge("a");
    rec.rate("b");
    rec.record(0);
    rec.record(8);
    rec.record(16);
    std::ostringstream os;
    rec.dumpCsv(os);
    std::istringstream in(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "cycle,a,b");
    std::size_t rows = 0;
    while (std::getline(in, line)) {
        ++rows;
        EXPECT_EQ(std::count(line.begin(), line.end(), ','), 2)
            << line;
    }
    EXPECT_EQ(rows, rec.numRows());
}

TEST(MetricsRecorder, ResetAllowsSequentialRuns)
{
    MetricsRecorder rec(1, 4);
    const auto g = rec.gauge("g");
    for (sim::Cycle now = 0; now < 20; ++now) {
        rec.set(g, 1.0);
        rec.record(now);
    }
    ASSERT_GT(rec.effectiveInterval(), rec.interval());
    rec.reset();
    EXPECT_EQ(rec.numRows(), 0u);
    EXPECT_EQ(rec.samplesRecorded(), 0u);
    EXPECT_EQ(rec.effectiveInterval(), rec.interval());
    EXPECT_EQ(rec.numSeries(), 1u) << "registrations survive reset";
    // A fresh run restarting at cycle 0 is legal again.
    EXPECT_TRUE(rec.due(0));
    rec.record(0);
    EXPECT_EQ(rec.numRows(), 1u);
}

/** One machine run of the trapezoid workload with sampling on;
 *  returns the recorded series as its JSON dump. */
std::string
machineSeries()
{
    graph::Program p;
    const auto cb = workloads::buildTrapezoid(p);
    sim::MetricsRecorder rec(64);
    ttda::MachineConfig cfg;
    cfg.numPEs = 8;
    cfg.netLatency = 2;
    cfg.metrics = &rec;
    ttda::Machine m(p, cfg);
    m.input(cb, 0, Value{0.0});
    m.input(cb, 1, Value{1.0});
    m.input(cb, 2, Value{int64_t{96}});
    m.run();
    EXPECT_FALSE(m.deadlocked());
    EXPECT_GT(rec.numRows(), 2u);
    std::ostringstream os;
    rec.dumpJson(os);
    return os.str();
}

TEST(MachineMetrics, RepeatRunIsBitIdentical)
{
    // The machine runs on one host thread; the series must replay bit
    // for bit on a second fresh machine.
    const std::string t1 = machineSeries();
    EXPECT_NO_THROW(sim::json::parse(t1));
    EXPECT_NE(t1.find("pe0.fired"), std::string::npos);
    EXPECT_NE(t1.find("wm.entries"), std::string::npos);
    EXPECT_NE(t1.find("net.inFlight"), std::string::npos);
    EXPECT_EQ(machineSeries(), t1);
}

/** One vN trace run with sampling on; returns the JSON dump. */
std::string
vnSeries()
{
    sim::MetricsRecorder rec(64);
    vn::VnMachineConfig cfg;
    cfg.numCores = 4;
    cfg.netLatency = 8;
    cfg.wordsPerModule = 4096;
    cfg.metrics = &rec;
    vn::VnMachine m(cfg);
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        workloads::TraceConfig tc;
        tc.coreId = c;
        tc.numCores = cfg.numCores;
        tc.wordsPerModule = cfg.wordsPerModule;
        tc.references = 400;
        tc.computePerRef = 3;
        tc.remoteFraction = 1.0;
        tc.seed = 7;
        m.core(c).attachTrace(workloads::makeUniformTrace(tc));
    }
    m.run();
    EXPECT_GT(rec.numRows(), 2u);
    std::ostringstream os;
    rec.dumpJson(os);
    return os.str();
}

TEST(VnMetrics, RepeatRunIsBitIdentical)
{
    // As for the TTDA: one host thread, and a replay matches bit for
    // bit.
    const std::string t1 = vnSeries();
    EXPECT_NO_THROW(sim::json::parse(t1));
    EXPECT_NE(t1.find("core0.busyCycles"), std::string::npos);
    EXPECT_NE(t1.find("net.queued"), std::string::npos);
    EXPECT_EQ(vnSeries(), t1);
}

TEST(LaneMetrics, SamplesOnExecutedPseudoTime)
{
    graph::Program p;
    const auto cb = workloads::buildTrapezoid(p);
    std::string why;
    const auto prog = emul::tryCompile(p, cb, &why);
    ASSERT_TRUE(prog.has_value()) << why;
    if (!prog->laneable())
        GTEST_SKIP() << "trapezoid not laneable in this build";

    sim::MetricsRecorder rec(256);
    emul::RunOptions opts;
    opts.metrics = &rec;
    const std::size_t n = 8;
    const auto br = prog->execute(
        n, {Value{0.0}, Value{1.0}, Value{int64_t{64}}}, {}, opts);
    EXPECT_GT(br.executed, 0u);
    ASSERT_GT(rec.numRows(), 1u);
    const auto active = rec.gauge("lanes.active");
    const auto util = rec.gauge("lanes.utilization");
    for (std::size_t row = 0; row < rec.numRows(); ++row) {
        EXPECT_LE(rec.value(active, row), static_cast<double>(n));
        EXPECT_GE(rec.value(active, row), 0.0);
        EXPECT_LE(rec.value(util, row), 1.0);
    }
    // Rows are stamped on the executed-instruction axis, which ends
    // at the batch's total retired count.
    EXPECT_EQ(rec.rowCycle(rec.numRows() - 1), br.executed);
}

} // namespace
