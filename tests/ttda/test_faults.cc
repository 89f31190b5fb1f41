/**
 * @file
 * Fault injection on the full TTDA machine: bare machines strand under
 * loss (and the forensics say so), reliable machines complete with the
 * right answer, and both replay bit-identically — the injector's
 * determinism contract.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/format.hh"
#include "common/json.hh"
#include "ttda/machine.hh"
#include "workloads/dfg_programs.hh"

namespace
{

using graph::Value;

struct RunResult
{
    sim::Cycle cycles;
    bool deadlocked;
    std::string outputs;
    std::string statsJson;
};

RunResult
runOnce(const graph::Program &program, const ttda::MachineConfig &cfg,
        std::uint16_t cb, const std::vector<Value> &inputs)
{
    ttda::Machine m(program, cfg);
    for (std::uint16_t i = 0; i < inputs.size(); ++i)
        m.input(cb, i, inputs[i]);
    auto out = m.run();
    RunResult r;
    r.cycles = m.cycles();
    r.deadlocked = m.deadlocked();
    std::ostringstream os;
    for (const auto &rec : out)
        os << rec.value.toString() << ";";
    r.outputs = os.str();
    std::ostringstream js;
    m.dumpStatsJson(js);
    r.statsJson = js.str();
    return r;
}

/** The same run on two fresh machines must be bit-identical (cycles,
 *  deadlock flag, outputs, and the full stats document). */
RunResult
expectDeterministic(const graph::Program &program,
                    const ttda::MachineConfig &cfg, std::uint16_t cb,
                    const std::vector<Value> &inputs)
{
    const RunResult base = runOnce(program, cfg, cb, inputs);
    const RunResult r = runOnce(program, cfg, cb, inputs);
    EXPECT_EQ(r.cycles, base.cycles);
    EXPECT_EQ(r.deadlocked, base.deadlocked);
    EXPECT_EQ(r.outputs, base.outputs);
    EXPECT_EQ(r.statsJson, base.statsJson);
    return base;
}

ttda::MachineConfig
lossyConfig(double drop_rate)
{
    ttda::MachineConfig cfg;
    cfg.numPEs = 4;
    cfg.netLatency = 2;
    cfg.faults.seed = 0xFA17;
    cfg.faults.dropRate = drop_rate;
    cfg.faults.delayRate = drop_rate;
    cfg.faults.delaySpike = 16;
    return cfg;
}

/** The keys of one stats-JSON group. */
std::set<std::string>
groupKeys(const std::string &statsJson, const char *group)
{
    const sim::json::Value doc = sim::json::parse(statsJson);
    std::set<std::string> keys;
    for (const auto &[key, value] : doc.get(group).members())
        keys.insert(key);
    return keys;
}

/** Run the trapezoid workload on `m` (built from `program`, whose
 *  code block is `cb`). */
void
runTrapezoid(ttda::Machine &m, std::uint16_t cb)
{
    m.input(cb, 0, Value{0.0});
    m.input(cb, 1, Value{2.0});
    m.input(cb, 2, Value{std::int64_t{48}});
    m.run();
}

TEST(TtdaFaults, DisabledPlanCreatesNoInjector)
{
    graph::Program program;
    const auto cb = workloads::buildTrapezoid(program);
    ttda::MachineConfig cfg;
    cfg.numPEs = 4;
    ttda::Machine m(program, cfg);
    EXPECT_EQ(m.faultInjector(), nullptr);
    EXPECT_EQ(m.reliableNet(), nullptr);
    (void)cb;
}

TEST(TtdaFaults, BareMachineStrandsAndIsClassifiedAsLoss)
{
    // 5% drop on a token-pipeline workload: some token dies, its
    // consumers park forever, and the machine must (a) notice it has
    // quiesced incomplete and (b) blame the fabric, not a true cycle.
    graph::Program program;
    const auto cb = workloads::buildTrapezoid(program);
    auto cfg = lossyConfig(0.05);
    ttda::Machine m(program, cfg);
    m.input(cb, 0, Value{0.0});
    m.input(cb, 1, Value{2.0});
    m.input(cb, 2, Value{std::int64_t{48}});
    m.run();
    ASSERT_TRUE(m.deadlocked());
    ASSERT_NE(m.faultInjector(), nullptr);
    EXPECT_GT(m.faultInjector()->stats().destroyed(), 0u);
    const std::string report = m.deadlockReport();
    EXPECT_NE(report.find("stranded by loss"), std::string::npos)
        << report;
    EXPECT_EQ(report.find("true deadlock"), std::string::npos)
        << report;
}

TEST(TtdaFaults, BareLossyRunIsDeterministic)
{
    // Even a stranded run must replay bit-identically: the fate
    // sequence is drawn in deliver order, which the tick fixes.
    graph::Program program;
    const auto cb = workloads::buildTrapezoid(program);
    const RunResult r = expectDeterministic(
        program, lossyConfig(0.05), cb,
        {Value{0.0}, Value{2.0}, Value{std::int64_t{48}}});
    EXPECT_TRUE(r.deadlocked);
}

TEST(TtdaFaults, ReliableNetCompletesUnderLossBitIdentically)
{
    // The same lossy plan, wrapped in ReliableNet: every point must
    // finish with the correct answer, identically on every replay.
    // (The fault-free trapezoid result is 48 * (0 + 2) / 2 —
    // compare against a clean run instead of hard-coding.)
    graph::Program program;
    const auto cb = workloads::buildTrapezoid(program);
    const std::vector<Value> inputs = {Value{0.0}, Value{2.0},
                                       Value{std::int64_t{48}}};

    ttda::MachineConfig clean;
    clean.numPEs = 4;
    clean.netLatency = 2;
    const RunResult truth = runOnce(program, clean, cb, inputs);
    ASSERT_FALSE(truth.deadlocked);

    auto cfg = lossyConfig(0.05);
    cfg.reliableNet = true;
    const RunResult r =
        expectDeterministic(program, cfg, cb, inputs);
    EXPECT_FALSE(r.deadlocked);
    EXPECT_EQ(r.outputs, truth.outputs);
    // Loss costs cycles: the reliable run is slower, never faster.
    EXPECT_GE(r.cycles, truth.cycles);

    ttda::Machine m(program, cfg);
    for (std::uint16_t i = 0; i < inputs.size(); ++i)
        m.input(cb, i, inputs[i]);
    m.run();
    ASSERT_NE(m.reliableNet(), nullptr);
    EXPECT_GT(m.reliableNet()->relStats().retransmits.value(), 0u);
    EXPECT_EQ(m.reliableNet()->relStats().abandoned.value(), 0u);
}

TEST(TtdaFaults, PeStallWindowsDelayButComplete)
{
    // Scheduled PE freezes lose no packets, so the bare machine still
    // completes — later, and identically on every replay (the stall
    // windows cut across the event-driven skip-ahead logic).
    graph::Program program;
    const auto cb = workloads::buildTrapezoid(program);
    const std::vector<Value> inputs = {Value{0.0}, Value{2.0},
                                       Value{std::int64_t{48}}};

    ttda::MachineConfig clean;
    clean.numPEs = 4;
    clean.netLatency = 2;
    const RunResult truth = runOnce(program, clean, cb, inputs);

    ttda::MachineConfig cfg = clean;
    cfg.faults = sim::fault::FaultPlan::parse(
        "pestall@40-200:0,pestall@100-260:2");
    const RunResult r =
        expectDeterministic(program, cfg, cb, inputs);
    EXPECT_FALSE(r.deadlocked);
    EXPECT_EQ(r.outputs, truth.outputs);
    EXPECT_GT(r.cycles, truth.cycles);
}

TEST(TtdaFaults, FaultSeedDerivedFromMachineSeedWhenUnset)
{
    // plan.seed == 0 must still be deterministic: the injector seed is
    // derived from cfg.seed, so two identical configs agree and two
    // different machine seeds draw different fate streams.
    graph::Program program;
    const auto cb = workloads::buildTrapezoid(program);
    auto run = [&](std::uint64_t machine_seed) {
        ttda::MachineConfig cfg;
        cfg.numPEs = 4;
        cfg.netLatency = 2;
        cfg.seed = machine_seed;
        cfg.faults.dropRate = 0.05;
        return runOnce(program, cfg, cb,
                       {Value{0.0}, Value{2.0},
                        Value{std::int64_t{48}}});
    };
    const RunResult a1 = run(1);
    const RunResult a2 = run(1);
    EXPECT_EQ(a1.statsJson, a2.statsJson);
    const RunResult b = run(99);
    EXPECT_NE(a1.statsJson, b.statsJson);
}

TEST(TtdaFaults, LossyReliableRunWritesTheMetaAndFaultsKeys)
{
    graph::Program program;
    const auto cb = workloads::buildTrapezoid(program);
    auto cfg = lossyConfig(0.05);
    cfg.reliableNet = true;
    const RunResult r = runOnce(
        program, cfg, cb,
        {Value{0.0}, Value{2.0}, Value{std::int64_t{48}}});
    EXPECT_EQ(groupKeys(r.statsJson, "meta"),
              (std::set<std::string>{"faultSeed", "reliable", "seed"}));
    EXPECT_EQ(groupKeys(r.statsJson, "faults"),
              (std::set<std::string>{
                  "abandoned", "acksSent", "corrupts", "decisions",
                  "delays", "destroyed", "drops", "dupStoresSuppressed",
                  "dupTokensDropped", "duplicates", "envelopesSent",
                  "linkDownDrops", "retransmits", "rxDuplicates",
                  "staleAcks"}));
}

TEST(TtdaFaults, PlanThatDestroysNothingReadsAsTrueDeadlock)
{
    // Delay spikes lose no packet, so whatever the run does, the
    // report must not blame the fabric.
    graph::Program program;
    const auto cb = workloads::buildTrapezoid(program);
    ttda::MachineConfig cfg = lossyConfig(0.0);
    cfg.faults.delayRate = 0.05;
    ttda::Machine m(program, cfg);
    runTrapezoid(m, cb);
    ASSERT_NE(m.faultInjector(), nullptr);
    EXPECT_GT(m.faultInjector()->stats().delays, 0u);
    EXPECT_EQ(m.faultInjector()->stats().destroyed(), 0u);
    const std::string report = m.deadlockReport();
    EXPECT_NE(report.find("classification: true deadlock — no packets "
                          "were lost\n"),
              std::string::npos)
        << report;
}

TEST(TtdaFaults, ReliableRunThatGivesUpNamesItsAbandonedSends)
{
    // Every link is down for the whole run and each send gets two
    // attempts: the protocol abandons sends, and the report says how
    // many and after how many attempts.
    graph::Program program;
    const auto cb = workloads::buildTrapezoid(program);
    ttda::MachineConfig cfg;
    cfg.numPEs = 4;
    cfg.netLatency = 2;
    cfg.faults = sim::fault::FaultPlan::parse("linkdown@0-1000000");
    cfg.reliableNet = true;
    cfg.retry.maxAttempts = 2;
    ttda::Machine m(program, cfg);
    runTrapezoid(m, cb);
    ASSERT_TRUE(m.deadlocked());
    ASSERT_NE(m.reliableNet(), nullptr);
    const std::uint64_t abandoned =
        m.reliableNet()->relStats().abandoned.value();
    EXPECT_GT(abandoned, 0u);
    const std::string report = m.deadlockReport();
    EXPECT_NE(report.find(sim::format(
                  "classification: stranded by loss — {} packet(s) "
                  "destroyed by fault injection, {} send(s) abandoned "
                  "after 2 attempts\n",
                  m.faultInjector()->stats().destroyed(), abandoned)),
              std::string::npos)
        << report;
}

} // namespace
