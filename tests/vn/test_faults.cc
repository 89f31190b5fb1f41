/**
 * @file
 * Fault injection on the von Neumann machine: bare machines strand
 * under loss with the forensics blaming the fabric, reliable machines
 * complete and replay bit-identically, and scheduled
 * memory-stall windows delay completion deterministically.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "common/format.hh"
#include "common/json.hh"
#include "vn/machine.hh"
#include "workloads/vn_programs.hh"

namespace
{

struct RunResult
{
    sim::Cycle cycles;
    bool deadlocked;
    std::string statsJson;
};

constexpr std::uint32_t kCores = 4;
constexpr std::uint64_t kWords = 1024;

/** A machine of trace-driven cores, all traffic remote so every
 *  reference crosses the (possibly lossy) fabric. */
vn::VnMachine
tracedMachine(vn::VnMachineConfig cfg)
{
    cfg.numCores = kCores;
    cfg.wordsPerModule = kWords;
    cfg.colocated = false;
    vn::VnMachine m(cfg);
    for (std::uint32_t c = 0; c < kCores; ++c) {
        workloads::TraceConfig tc;
        tc.coreId = c;
        tc.numCores = kCores;
        tc.wordsPerModule = kWords;
        tc.references = 200;
        tc.computePerRef = 3;
        tc.remoteFraction = 1.0;
        tc.seed = 7 + c;
        m.core(c).attachTrace(workloads::makeUniformTrace(tc));
    }
    return m;
}

RunResult
runTraced(const vn::VnMachineConfig &cfg)
{
    vn::VnMachine m = tracedMachine(cfg);
    RunResult r;
    r.cycles = m.run();
    r.deadlocked = m.deadlocked();
    std::ostringstream js;
    m.dumpStatsJson(js);
    r.statsJson = js.str();
    return r;
}

/** The same run on two fresh machines must be bit-identical. */
RunResult
expectDeterministic(const vn::VnMachineConfig &cfg)
{
    const RunResult base = runTraced(cfg);
    const RunResult r = runTraced(cfg);
    EXPECT_EQ(r.cycles, base.cycles);
    EXPECT_EQ(r.deadlocked, base.deadlocked);
    EXPECT_EQ(r.statsJson, base.statsJson);
    return base;
}

vn::VnMachineConfig
lossyConfig(double drop_rate)
{
    vn::VnMachineConfig cfg;
    cfg.topology = vn::VnMachineConfig::Topology::Ideal;
    cfg.netLatency = 8;
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

TEST(VnFaults, BareMachineStrandsAndIsClassifiedAsLoss)
{
    // 5% drop, every reference remote: some request or response dies,
    // its core parks in WaitingMem forever, and the run must end as a
    // classified deadlock rather than spin.
    vn::VnMachine m = tracedMachine(lossyConfig(0.05));
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

TEST(VnFaults, BareLossyRunIsDeterministic)
{
    const RunResult r = expectDeterministic(lossyConfig(0.05));
    EXPECT_TRUE(r.deadlocked);
}

TEST(VnFaults, ReliableNetCompletesUnderLossBitIdentically)
{
    vn::VnMachineConfig clean;
    clean.topology = vn::VnMachineConfig::Topology::Ideal;
    clean.netLatency = 8;
    const RunResult truth = runTraced(clean);
    ASSERT_FALSE(truth.deadlocked);

    vn::VnMachineConfig cfg = lossyConfig(0.05);
    cfg.reliableNet = true;
    const RunResult r = expectDeterministic(cfg);
    EXPECT_FALSE(r.deadlocked);
    // Retransmissions cost cycles; the reliable lossy run is slower
    // than the clean one, never faster.
    EXPECT_GT(r.cycles, truth.cycles);
}

TEST(VnFaults, MemStallWindowDelaysCompletionDeterministically)
{
    vn::VnMachineConfig clean;
    clean.topology = vn::VnMachineConfig::Topology::Ideal;
    clean.netLatency = 8;
    const RunResult truth = runTraced(clean);

    // Freeze modules 0 and 1 for a long window mid-run: no loss, so
    // completion is guaranteed — just later, and identically on every
    // replay.
    vn::VnMachineConfig cfg = clean;
    cfg.faults = sim::fault::FaultPlan::parse(
        "memstall@100-600:0,memstall@300-900:1");
    const RunResult r = expectDeterministic(cfg);
    EXPECT_FALSE(r.deadlocked);
    EXPECT_GT(r.cycles, truth.cycles);
}

TEST(VnFaults, LossyReliableRunWritesTheMetaAndFaultsKeys)
{
    vn::VnMachineConfig cfg = lossyConfig(0.05);
    cfg.reliableNet = true;
    const RunResult r = runTraced(cfg);
    EXPECT_EQ(groupKeys(r.statsJson, "meta"),
              (std::set<std::string>{"faultSeed", "reliable", "seed"}));
    EXPECT_EQ(groupKeys(r.statsJson, "faults"),
              (std::set<std::string>{
                  "abandoned", "acksSent", "corrupts", "decisions",
                  "delays", "destroyed", "drops", "dupsSuppressed",
                  "duplicates", "envelopesSent", "linkDownDrops",
                  "retransmits", "rxDuplicates", "staleAcks",
                  "staleResponses"}));
}

TEST(VnFaults, PlanThatDestroysNothingReadsAsTrueDeadlock)
{
    // Delay spikes lose no packet, so whatever the run does, the
    // report must not blame the fabric.
    vn::VnMachineConfig cfg = lossyConfig(0.0);
    cfg.faults.delayRate = 0.05;
    vn::VnMachine m = tracedMachine(cfg);
    m.run();
    ASSERT_NE(m.faultInjector(), nullptr);
    EXPECT_GT(m.faultInjector()->stats().delays, 0u);
    EXPECT_EQ(m.faultInjector()->stats().destroyed(), 0u);
    const std::string report = m.deadlockReport();
    EXPECT_NE(report.find("classification: true deadlock — no packets "
                          "were lost\n"),
              std::string::npos)
        << report;
}

TEST(VnFaults, ReliableRunThatGivesUpNamesItsAbandonedSends)
{
    // Every link is down for the whole run and each send gets two
    // attempts: the protocol abandons sends, and the report says how
    // many and after how many attempts.
    vn::VnMachineConfig cfg;
    cfg.netLatency = 8;
    cfg.faults = sim::fault::FaultPlan::parse("linkdown@0-1000000");
    cfg.reliableNet = true;
    cfg.retry.maxAttempts = 2;
    vn::VnMachine m = tracedMachine(cfg);
    m.run();
    ASSERT_TRUE(m.deadlocked());
    ASSERT_NE(m.relStats(), nullptr);
    const std::uint64_t abandoned = m.relStats()->abandoned.value();
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
