/**
 * @file
 * Tests for machine configuration knobs: per-opcode ALU latencies,
 * bounded waiting-matching store, output bandwidth, and local bypass —
 * results must be invariant, only timing may change.
 */

#include <gtest/gtest.h>

#include "graph/builder.hh"
#include "id/codegen.hh"
#include "ttda/machine.hh"
#include "workloads/id_sources.hh"

namespace
{

using graph::Value;

struct Run
{
    double value = 0;
    sim::Cycle cycles = 0;
};

Run
runTrap(ttda::MachineConfig cfg)
{
    static const id::Compiled c =
        id::compile(workloads::src::trapezoid);
    ttda::Machine m(c.program, cfg);
    m.input(c.startCb, 0, Value{0.0});
    m.input(c.startCb, 1, Value{2.0});
    m.input(c.startCb, 2, Value{std::int64_t{32}});
    auto out = m.run();
    EXPECT_EQ(out.size(), 1u);
    EXPECT_FALSE(m.deadlocked());
    return Run{out.at(0).value.asReal(), m.cycles()};
}

TEST(MachineConfig, PerOpcodeLatencySlowsButStaysCorrect)
{
    ttda::MachineConfig base;
    base.numPEs = 4;
    auto fast = runTrap(base);

    ttda::MachineConfig slow_div = base;
    slow_div.opLatency[graph::Opcode::Div] = 16;
    slow_div.opLatency[graph::Opcode::Apply] = 4;
    auto slow = runTrap(slow_div);

    EXPECT_DOUBLE_EQ(fast.value, slow.value);
    EXPECT_GT(slow.cycles, fast.cycles);
}

TEST(MachineConfig, OutputBandwidthOneStillCorrect)
{
    ttda::MachineConfig cfg;
    cfg.numPEs = 4;
    cfg.outputBandwidth = 1;
    auto narrow = runTrap(cfg);
    cfg.outputBandwidth = 8;
    auto wide = runTrap(cfg);
    EXPECT_DOUBLE_EQ(narrow.value, wide.value);
    EXPECT_GE(narrow.cycles, wide.cycles);
}

TEST(MachineConfig, NoBypassStillCorrect)
{
    ttda::MachineConfig cfg;
    cfg.numPEs = 4;
    cfg.localBypass = false;
    auto no_bypass = runTrap(cfg);
    cfg.localBypass = true;
    auto bypass = runTrap(cfg);
    EXPECT_DOUBLE_EQ(no_bypass.value, bypass.value);
}

TEST(MachineConfig, MultiCycleMatchStillCorrect)
{
    ttda::MachineConfig cfg;
    cfg.numPEs = 4;
    cfg.matchCycles = 3;
    cfg.fetchCycles = 2;
    cfg.aluCycles = 2;
    cfg.isWriteCycles = 4;
    auto slow = runTrap(cfg);
    ttda::MachineConfig fast_cfg;
    fast_cfg.numPEs = 4;
    auto fast = runTrap(fast_cfg);
    EXPECT_DOUBLE_EQ(slow.value, fast.value);
    EXPECT_GT(slow.cycles, fast.cycles);
}

TEST(MachineConfig, HypercubeRequiresPow2)
{
    graph::Program p;
    graph::BlockBuilder b(p, "main", 1);
    const auto out = b.add(graph::Opcode::Output, 1);
    b.to(0, out, 0);
    b.build();
    ttda::MachineConfig cfg;
    cfg.numPEs = 6;
    cfg.topology = ttda::MachineConfig::Topology::Hypercube;
    EXPECT_DEATH(ttda::Machine(p, cfg), "2");
}

TEST(MachineConfig, MoreThanOneThreadIsRejected)
{
    // The machine runs on the calling thread; threads 0 and 1 both
    // select that engine, and anything else is a configuration error.
    graph::Program p;
    graph::BlockBuilder b(p, "main", 1);
    const auto out = b.add(graph::Opcode::Output, 1);
    b.to(0, out, 0);
    b.build();
    ttda::MachineConfig cfg;
    cfg.numPEs = 4;
    for (const std::uint32_t t : {0u, 1u}) {
        cfg.threads = t;
        ttda::Machine m(p, cfg);
        m.input(0, 0, graph::Value{std::int64_t{7}});
        const auto outputs = m.run();
        ASSERT_EQ(outputs.size(), 1u) << "threads=" << t;
        EXPECT_EQ(outputs[0].value.asInt(), 7) << "threads=" << t;
    }
    cfg.threads = 2;
    EXPECT_DEATH(ttda::Machine(p, cfg), "one host thread");
}

} // namespace
