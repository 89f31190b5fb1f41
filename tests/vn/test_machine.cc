/**
 * @file
 * Tests of the von Neumann multiprocessor: end-to-end memory
 * round-trips over each topology, Cm*-style local/remote asymmetry,
 * utilization collapse with remote references, and FETCH-AND-ADD.
 */

#include <gtest/gtest.h>

#include "../net/topology_name.hh"
#include "vn/machine.hh"
#include "workloads/vn_programs.hh"

namespace
{

vn::VnMachineConfig
baseConfig(std::uint32_t cores)
{
    vn::VnMachineConfig cfg;
    cfg.numCores = cores;
    cfg.topology = vn::VnMachineConfig::Topology::Ideal;
    cfg.memLatency = 2;
    cfg.wordsPerModule = 1024;
    return cfg;
}

TEST(VnMachine, LoadStoreRoundTripLocal)
{
    auto cfg = baseConfig(2);
    vn::VnMachine m(cfg);
    vn::VnAsm a;
    a.li(2, 5);        // local address on core 0's module
    a.li(3, 1234);
    a.store(2, 0, 3);
    a.load(4, 2, 0);
    a.halt();
    auto prog = a.assemble();
    m.core(0).attachProgram(&prog);
    // Keep core 1 trivially halted.
    vn::VnAsm b;
    b.halt();
    auto prog1 = b.assemble();
    m.core(1).attachProgram(&prog1);
    m.run();
    EXPECT_EQ(mem::toInt(m.core(0).reg(0, 4)), 1234);
    EXPECT_EQ(mem::toInt(m.peek(5)), 1234);
}

TEST(VnMachine, RemoteLoadCrossesNetwork)
{
    auto cfg = baseConfig(2);
    vn::VnMachine m(cfg);
    m.poke(1024 + 7, mem::fromInt(77)); // word on module 1

    vn::VnAsm a;
    a.li(2, 1024 + 7);
    a.load(3, 2, 0);
    a.halt();
    auto prog = a.assemble();
    m.core(0).attachProgram(&prog);
    vn::VnAsm b;
    b.halt();
    auto prog1 = b.assemble();
    m.core(1).attachProgram(&prog1);
    m.run();
    EXPECT_EQ(mem::toInt(m.core(0).reg(0, 3)), 77);
    EXPECT_GE(m.netStats().sent.value(), 2u); // request + response
}

class VnTopologySweep : public ::testing::TestWithParam<net::Topology>
{
};

TEST_P(VnTopologySweep, AllCoresSumRemoteVectors)
{
    // Each of 4 cores sums 8 words owned by the *next* module; checks
    // data integrity through every fabric.
    auto cfg = baseConfig(4);
    cfg.topology = GetParam();
    vn::VnMachine m(cfg);
    for (std::uint64_t w = 0; w < 4 * 1024; ++w)
        m.poke(w, mem::fromInt(static_cast<std::int64_t>(w % 10)));

    // r1 = core id (preset by attachProgram), base = ((id+1)%4)*1024.
    vn::VnAsm a;
    a.addi(2, 1, 1);       // id+1
    a.li(3, 4);
    a.li(4, 0);            // accumulator
    a.li(5, 0);            // i
    a.li(6, 8);            // count
    // base = ((id+1) % 4) * 1024  -> since no MOD op: base = (id+1<4 ?
    // id+1 : 0) * 1024
    a.slt(7, 2, 3);
    a.bnez(7, "keep");
    a.li(2, 0);
    a.label("keep");
    a.li(8, 1024);
    a.mul(2, 2, 8);        // base address
    a.label("loop");
    a.slt(7, 5, 6);
    a.beqz(7, "done");
    a.add(9, 2, 5);
    a.load(10, 9, 0);
    a.add(4, 4, 10);
    a.addi(5, 5, 1);
    a.jmp("loop");
    a.label("done");
    a.halt();
    auto prog = a.assemble();
    for (std::uint32_t c = 0; c < 4; ++c) {
        m.core(c).attachProgram(&prog);
        m.core(c).setReg(0, 1, mem::fromInt(c)); // core id, ctx 0
    }
    m.run();
    for (std::uint32_t c = 0; c < 4; ++c) {
        const std::uint64_t base = ((c + 1) % 4) * 1024;
        std::int64_t expect = 0;
        for (std::uint64_t w = 0; w < 8; ++w)
            expect += static_cast<std::int64_t>((base + w) % 10);
        EXPECT_EQ(mem::toInt(m.core(c).reg(0, 4)), expect)
            << "core " << c;
    }
}

// The vn machine's four topologies: the cube is the TTDA's alone.
INSTANTIATE_TEST_SUITE_P(
    Fabrics, VnTopologySweep,
    ::testing::Values(net::Topology::Ideal, net::Topology::Crossbar,
                      net::Topology::Omega, net::Topology::Hierarchical));

TEST(VnMachine, RefusesTheHypercube)
{
    // The machines share one topology list; the cube is the TTDA's
    // alone, so a vn machine on it is a configuration error.
    auto cfg = baseConfig(4);
    cfg.topology = vn::VnMachineConfig::Topology::Hypercube;
    EXPECT_DEATH(vn::VnMachine{cfg}, "no hypercube fabric");
}

TEST(VnMachine, FetchAndAddThroughMemory)
{
    auto cfg = baseConfig(4);
    vn::VnMachine m(cfg);
    // All four cores FAA(+1) the same word 10 times each.
    vn::VnAsm a;
    a.li(2, 3);   // shared counter address (module 0)
    a.li(3, 1);   // increment
    a.li(5, 0);   // i
    a.li(6, 10);
    a.label("loop");
    a.slt(7, 5, 6);
    a.beqz(7, "done");
    a.faa(4, 2, 0, 3);
    a.addi(5, 5, 1);
    a.jmp("loop");
    a.label("done");
    a.halt();
    auto prog = a.assemble();
    for (std::uint32_t c = 0; c < 4; ++c)
        m.core(c).attachProgram(&prog);
    m.run();
    EXPECT_EQ(mem::toInt(m.peek(3)), 40);
}

TEST(VnMachine, CmStarRemoteFractionKillsUtilization)
{
    // The paper's Cm* observation (E6 in miniature): as the nonlocal
    // fraction rises on a hierarchical machine with blocking cores,
    // utilization collapses.
    auto run_with = [&](double remote) {
        vn::VnMachineConfig cfg = baseConfig(8);
        cfg.topology = vn::VnMachineConfig::Topology::Hierarchical;
        cfg.clusterSize = 4;
        cfg.localLatency = 2;
        cfg.globalLatency = 8;
        vn::VnMachine m(cfg);
        for (std::uint32_t c = 0; c < 8; ++c) {
            workloads::TraceConfig tc;
            tc.coreId = c;
            tc.numCores = 8;
            tc.wordsPerModule = 1024;
            tc.references = 300;
            tc.computePerRef = 3;
            tc.remoteFraction = remote;
            tc.seed = 5;
            m.core(c).attachTrace(workloads::makeUniformTrace(tc));
        }
        m.run();
        return m.meanUtilization();
    };
    const double u_local = run_with(0.0);
    const double u_half = run_with(0.5);
    const double u_all = run_with(1.0);
    EXPECT_GT(u_local, u_half);
    EXPECT_GT(u_half, u_all);
    EXPECT_LT(u_all, 0.5);
}

TEST(VnMachine, ContextsRecoverUtilization)
{
    // The HEP mitigation on a full machine: 8 contexts recover most of
    // the utilization a blocking core loses to remote references.
    auto run_with = [&](std::uint32_t contexts) {
        vn::VnMachineConfig cfg = baseConfig(4);
        cfg.topology = vn::VnMachineConfig::Topology::Ideal;
        cfg.netLatency = 10;
        cfg.core.numContexts = contexts;
        vn::VnMachine m(cfg);
        for (std::uint32_t c = 0; c < 4; ++c) {
            workloads::TraceConfig tc;
            tc.coreId = c;
            tc.numCores = 4;
            tc.wordsPerModule = 1024;
            tc.references = 200;
            tc.computePerRef = 2;
            tc.remoteFraction = 1.0;
            m.core(c).attachTrace(workloads::makeUniformTrace(tc));
        }
        m.run();
        return m.meanUtilization();
    };
    EXPECT_GT(run_with(8), run_with(1) * 2.0);
}

TEST(VnMachine, InterleavedAddressing)
{
    auto cfg = baseConfig(4);
    cfg.blockedAddressing = false;
    cfg.colocated = false;
    vn::VnMachine m(cfg);
    m.poke(5, mem::fromInt(55)); // module 5 % 4 = 1
    EXPECT_EQ(m.moduleOf(5), 1u);
    EXPECT_EQ(m.offsetOf(5), 1u);
    EXPECT_EQ(mem::toInt(m.peek(5)), 55);
}

} // namespace
