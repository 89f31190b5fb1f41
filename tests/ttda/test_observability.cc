/**
 * @file
 * End-to-end tests of the observability stack on the timed machine:
 * token-lifecycle tracing (defer/serve on I-structures, waiting-
 * matching, ALU fire), latency histograms, JSON stats export, and the
 * deadlock forensics report.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/json.hh"
#include "common/trace.hh"
#include "id/codegen.hh"
#include "ttda/machine.hh"

namespace
{

// Producer/consumer race on one I-structure: the producer pays eight
// serial ticks per element while the consumer reads immediately, so
// consumer reads reliably outrun the writes and park on deferred
// lists — every run exercises defer followed by serve.
const char *kRaceSource = R"(
def pay(v) =
  (initial q <- 0
   for k from 1 to 8 do
     new q <- q + v
   return q);
def main(n) =
  let a = array(n) in
  let g = (initial g <- 0
           for i from 0 to n - 1 do
             new g <- 0 * store(a, i, pay(i))[i]
           return g) in
  (initial s <- 0
   for i from 0 to n - 1 do
     new s <- s + a[i]
   return s) + 0 * g;
)";

constexpr std::int64_t kRaceN = 8;
// sum over i of pay(i) = 8 * sum(i) = 8 * n*(n-1)/2.
constexpr double kRaceExpected = 4.0 * kRaceN * (kRaceN - 1);

ttda::MachineConfig
raceConfig()
{
    ttda::MachineConfig cfg;
    cfg.numPEs = 4;
    cfg.netLatency = 2;
    return cfg;
}

/** Run kRaceSource with `cfg`; returns the machine (post-run). */
double
runRace(ttda::Machine &m, const id::Compiled &compiled)
{
    m.input(compiled.startCb, 0, graph::Value{kRaceN});
    auto out = m.run();
    EXPECT_FALSE(m.deadlocked());
    EXPECT_EQ(out.size(), 1u);
    return out.empty() ? 0.0 : out[0].value.asReal();
}

TEST(Observability, IStructureTraceShowsDeferThenServe)
{
    const id::Compiled compiled = id::compile(kRaceSource);
    std::ostringstream trace;
    sim::Tracer tracer;
    tracer.attach(trace);

    ttda::MachineConfig cfg = raceConfig();
    cfg.tracer = &tracer;
    ttda::Machine m(compiled.program, cfg);
    EXPECT_DOUBLE_EQ(runRace(m, compiled), kRaceExpected);
    tracer.close();

    const std::string json = trace.str();
    EXPECT_NO_THROW(sim::json::parse(json));
    // The headline story: a read arrived at an Empty cell (defer) and
    // was satisfied later by the store (serve).
    EXPECT_NE(json.find("\"name\":\"defer\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"serve\""), std::string::npos);
    const std::size_t firstDefer = json.find("\"name\":\"defer\"");
    const std::size_t firstServe = json.find("\"name\":\"serve\"");
    EXPECT_LT(firstDefer, firstServe); // events stream in cycle order
    // The rest of the token lifecycle is present too.
    EXPECT_NE(json.find("\"name\":\"match\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"fetch\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"inj\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"dlv\""), std::string::npos);
    // Tracks are named for Perfetto: one process per PE plus the
    // network, threads per pipeline stage.
    EXPECT_NE(json.find("\"pe0\""), std::string::npos);
    EXPECT_NE(json.find("\"pe3\""), std::string::npos);
    EXPECT_NE(json.find("\"network\""), std::string::npos);
    EXPECT_NE(json.find("\"wait-match\""), std::string::npos);
    EXPECT_NE(json.find("\"alu\""), std::string::npos);
}

TEST(Observability, CategoryMaskRestrictsMachineEvents)
{
    const id::Compiled compiled = id::compile(kRaceSource);
    std::ostringstream trace;
    sim::Tracer tracer;
    tracer.attach(trace, sim::Tracer::Istr);

    ttda::MachineConfig cfg = raceConfig();
    cfg.tracer = &tracer;
    ttda::Machine m(compiled.program, cfg);
    runRace(m, compiled);
    tracer.close();

    const std::string json = trace.str();
    EXPECT_NO_THROW(sim::json::parse(json));
    EXPECT_NE(json.find("\"cat\":\"istr\""), std::string::npos);
    EXPECT_EQ(json.find("\"cat\":\"fire\""), std::string::npos);
    EXPECT_EQ(json.find("\"cat\":\"wm\""), std::string::npos);
    EXPECT_EQ(json.find("\"cat\":\"net\""), std::string::npos);
}

TEST(Observability, TracingDoesNotPerturbTiming)
{
    const id::Compiled compiled = id::compile(kRaceSource);

    ttda::Machine plain(compiled.program, raceConfig());
    const double plainResult = runRace(plain, compiled);

    std::ostringstream trace;
    sim::Tracer tracer;
    tracer.attach(trace);
    ttda::MachineConfig cfg = raceConfig();
    cfg.tracer = &tracer;
    ttda::Machine traced(compiled.program, cfg);
    const double tracedResult = runRace(traced, compiled);

    // Instrumentation is observational only: bit-identical results
    // and cycle counts with tracing on and off.
    EXPECT_DOUBLE_EQ(tracedResult, plainResult);
    EXPECT_EQ(traced.cycles(), plain.cycles());
}

TEST(Observability, LatencyHistogramsPopulate)
{
    const id::Compiled compiled = id::compile(kRaceSource);
    ttda::MachineConfig cfg = raceConfig();
    cfg.latencyStats = true; // no tracer needed for the histograms
    ttda::Machine m(compiled.program, cfg);
    runRace(m, compiled);

    // Every fired instruction contributes a birth-to-fire sample;
    // every I-structure FETCH contributes a read-latency sample.
    EXPECT_GT(m.birthToFireLatency().summary().count(), 0u);
    EXPECT_GT(m.readLatency().summary().count(), 0u);
    // Latencies are elapsed cycle counts; a negative sample would be
    // a bookkeeping bug and must show up as underflow, never bin 0.
    EXPECT_EQ(m.birthToFireLatency().underflow(), 0u);
    EXPECT_EQ(m.readLatency().underflow(), 0u);
    // Deferred reads wait for the producer's eight-tick pay chain, so
    // the slowest read is strictly slower than the fastest.
    EXPECT_GT(m.readLatency().summary().max(),
              m.readLatency().summary().min());
}

TEST(Observability, DumpStatsJsonIsWellFormed)
{
    const id::Compiled compiled = id::compile(kRaceSource);
    ttda::MachineConfig cfg = raceConfig();
    cfg.latencyStats = true;
    ttda::Machine m(compiled.program, cfg);
    runRace(m, compiled);

    std::ostringstream os;
    m.dumpStatsJson(os);
    const std::string json = os.str();
    EXPECT_NO_THROW(sim::json::parse(json)) << json;
    EXPECT_NE(json.find("\"machine\""), std::string::npos);
    EXPECT_NE(json.find("\"pe0\""), std::string::npos);
    EXPECT_NE(json.find("\"pe3\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"birthToFire\""), std::string::npos);
    EXPECT_NE(json.find("\"readLatency\""), std::string::npos);
    EXPECT_NE(json.find("\"wmResidency\""), std::string::npos);
}

TEST(Observability, DeadlockReportNamesParkedReader)
{
    // A read of a cell nobody ever writes: the classic I-structure
    // deadlock. The report must name the cell and the stranded tag.
    const id::Compiled compiled = id::compile(R"(
def main(n) =
  let a = array(4) in
  a[n];
)");
    ttda::MachineConfig cfg;
    cfg.numPEs = 2;
    ttda::Machine m(compiled.program, cfg);
    m.input(compiled.startCb, 0, graph::Value{std::int64_t{1}});
    auto out = m.run();
    EXPECT_TRUE(m.deadlocked());
    EXPECT_TRUE(out.empty());

    const std::string report = m.deadlockReport();
    EXPECT_NE(report.find("deadlock report:"), std::string::npos);
    EXPECT_NE(report.find("parked read"), std::string::npos);
    EXPECT_NE(report.find("never written"), std::string::npos);
    // The stranded reader's full tag, in the machine's tag syntax.
    EXPECT_NE(report.find("reader <u"), std::string::npos);
    EXPECT_NE(report.find("read issued cycle"), std::string::npos);
}

TEST(Observability, DeadlockReportNamesStrandedActivity)
{
    // A dyadic instruction that only ever receives one operand: the
    // token parks in the waiting-matching store forever. The report
    // must show the partial port mask and which port never arrived.
    const id::Compiled compiled = id::compile("def main(a, b) = a + b;");
    ttda::MachineConfig cfg;
    cfg.numPEs = 1;
    ttda::Machine m(compiled.program, cfg);
    m.input(compiled.startCb, 0, graph::Value{std::int64_t{7}});
    auto out = m.run();
    EXPECT_TRUE(m.deadlocked());
    EXPECT_TRUE(out.empty());

    const std::string report = m.deadlockReport();
    EXPECT_NE(report.find("stranded"), std::string::npos);
    EXPECT_NE(report.find("ports filled"), std::string::npos);
    EXPECT_NE(report.find("missing port"), std::string::npos);
}

TEST(Observability, DeadlockReportListsSmallestStrandedTagsInOrder)
{
    // Every iteration reads a cell nobody writes, so its `a[j] + j`
    // holds one operand forever, and so does the next iteration's
    // SWITCH that waits for the t that add would have made: 80
    // activities strand on the only PE, over the report's cap of 16
    // per section. Whatever order the waiting-matching store holds
    // them in, the report must name the 16 smallest tags, ascending,
    // then count the rest.
    const id::Compiled compiled = id::compile(R"(
def main(n) =
  let a = array(n) in
  (initial s <- 0; t <- 0 for j from 0 to n - 1 do
     new s <- s + 1;
     new t <- a[j] + j
   return s);
)");
    ttda::MachineConfig cfg;
    cfg.numPEs = 1;
    ttda::Machine m(compiled.program, cfg);
    m.input(compiled.startCb, 0, graph::Value{std::int64_t{40}});
    m.run();
    ASSERT_TRUE(m.deadlocked());

    const std::string report = m.deadlockReport();
    const std::string header =
        "  PE 0: 80 activities still waiting for partner tokens:\n";
    const auto at = report.find(header);
    ASSERT_NE(at, std::string::npos) << report;
    std::istringstream section(report.substr(at + header.size()));
    using Key = std::tuple<unsigned, unsigned, unsigned, unsigned>;
    std::vector<Key> tags;
    std::string line;
    while (std::getline(section, line) && line.rfind("    <u", 0) == 0) {
        unsigned u = 0, c = 0, s = 0, i = 0;
        ASSERT_EQ(std::sscanf(line.c_str(), "    <u%u,c%u,s%u,i%u>", &u,
                              &c, &s, &i),
                  4)
            << line;
        tags.emplace_back(u, c, s, i);
    }
    EXPECT_EQ(line, "    ... 64 more") << report;
    ASSERT_EQ(tags.size(), 16u) << report;
    // Both stranded instructions hold one entry per iteration, so the
    // 16 smallest tags are the lower statement's first 16 iterations.
    const auto [u0, c0, s0, i0] = tags.front();
    EXPECT_LE(i0, 2u) << report;
    for (std::size_t k = 0; k < tags.size(); ++k)
        EXPECT_EQ(tags[k],
                  Key(u0, c0, s0, i0 + static_cast<unsigned>(k)))
            << report;
}

} // namespace
