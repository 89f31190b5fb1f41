/**
 * @file
 * Fault injection on the von Neumann machine: bare machines strand
 * under loss with the forensics blaming the fabric, reliable machines
 * complete and replay bit-identically, and scheduled
 * memory-stall windows delay completion deterministically.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

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

/** Trace-driven cores, all traffic remote so every reference crosses
 *  the (possibly lossy) fabric. */
RunResult
runTraced(vn::VnMachineConfig cfg)
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

TEST(VnFaults, BareMachineStrandsAndIsClassifiedAsLoss)
{
    // 5% drop, every reference remote: some request or response dies,
    // its core parks in WaitingMem forever, and the run must end as a
    // classified deadlock rather than spin.
    vn::VnMachineConfig cfg = lossyConfig(0.05);
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

} // namespace
