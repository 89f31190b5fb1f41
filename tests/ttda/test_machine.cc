/**
 * @file
 * Tests of the cycle-level tagged-token machine: correctness across
 * PE counts / topologies / mapping policies, agreement with the
 * emulator (the Figure 3-1 duality), latency tolerance, and stage
 * statistics.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "../net/topology_name.hh"
#include "graph/builder.hh"
#include "ttda/emulator.hh"
#include "ttda/machine.hh"
#include "workloads/dfg_programs.hh"

namespace ttda
{

/** The mapping sweep's ctest names print the parameter, as the
 *  topology sweep's do through net::PrintTo. */
void
PrintTo(MachineConfig::Mapping m, std::ostream *os)
{
    switch (m) {
      case MachineConfig::Mapping::HashTag: *os << "HashTag"; return;
      case MachineConfig::Mapping::ByContext: *os << "ByContext"; return;
      case MachineConfig::Mapping::ByIteration: *os << "ByIteration"; return;
      case MachineConfig::Mapping::SinglePe: *os << "SinglePe"; return;
    }
    *os << "Unknown";
}

} // namespace ttda

namespace
{

using graph::Value;

ttda::MachineConfig
baseConfig(std::uint32_t pes)
{
    ttda::MachineConfig cfg;
    cfg.numPEs = pes;
    cfg.topology = ttda::MachineConfig::Topology::Ideal;
    cfg.netLatency = 2;
    return cfg;
}

TEST(Machine, TrapezoidOnOnePe)
{
    graph::Program program;
    const auto main_cb = workloads::buildTrapezoid(program);
    ttda::Machine m(program, baseConfig(1));
    m.input(main_cb, 0, Value{0.0});
    m.input(main_cb, 1, Value{2.0});
    m.input(main_cb, 2, Value{std::int64_t{32}});
    auto out = m.run();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FALSE(m.deadlocked());
    EXPECT_NEAR(out[0].value.asReal(),
                workloads::trapezoidReference(0.0, 2.0, 32), 1e-9);
}

class MachinePeSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(MachinePeSweep, TrapezoidResultIndependentOfPeCount)
{
    graph::Program program;
    const auto main_cb = workloads::buildTrapezoid(program);
    ttda::Machine m(program, baseConfig(GetParam()));
    m.input(main_cb, 0, Value{1.0});
    m.input(main_cb, 1, Value{3.0});
    m.input(main_cb, 2, Value{std::int64_t{40}});
    auto out = m.run();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FALSE(m.deadlocked());
    EXPECT_NEAR(out[0].value.asReal(),
                workloads::trapezoidReference(1.0, 3.0, 40), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Pes, MachinePeSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 16u));

class MachineTopologySweep
    : public ::testing::TestWithParam<ttda::MachineConfig::Topology>
{
};

TEST_P(MachineTopologySweep, ProducerConsumerCorrectOnEveryFabric)
{
    graph::Program program;
    const auto main_cb = workloads::buildProducerConsumer(program);
    auto cfg = baseConfig(8);
    cfg.topology = GetParam();
    ttda::Machine m(program, cfg);
    const std::int64_t n = 24;
    m.input(main_cb, 0, Value{n});
    auto out = m.run();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FALSE(m.deadlocked());
    EXPECT_NEAR(out[0].value.asReal(),
                static_cast<double>(n * (n - 1)), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, MachineTopologySweep,
    ::testing::Values(ttda::MachineConfig::Topology::Ideal,
                      ttda::MachineConfig::Topology::Crossbar,
                      ttda::MachineConfig::Topology::Hypercube,
                      ttda::MachineConfig::Topology::Omega,
                      ttda::MachineConfig::Topology::Hierarchical));

class MachineMappingSweep
    : public ::testing::TestWithParam<ttda::MachineConfig::Mapping>
{
};

TEST_P(MachineMappingSweep, FibCorrectUnderEveryMapping)
{
    graph::Program program;
    const auto main_cb = workloads::buildFib(program);
    auto cfg = baseConfig(4);
    cfg.mapping = GetParam();
    ttda::Machine m(program, cfg);
    m.input(main_cb, 0, Value{std::int64_t{10}});
    auto out = m.run();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].value.asInt(), 55);
}

INSTANTIATE_TEST_SUITE_P(
    Mappings, MachineMappingSweep,
    ::testing::Values(ttda::MachineConfig::Mapping::HashTag,
                      ttda::MachineConfig::Mapping::ByIteration,
                      ttda::MachineConfig::Mapping::SinglePe));

TEST(Machine, AgreesWithEmulatorOperationForOperation)
{
    // The Figure 3-1 duality: detailed simulation and fast emulation
    // interpret the same graphs; results and activity counts agree.
    graph::Program program;
    const auto main_cb = workloads::buildTrapezoid(program);

    ttda::Emulator emu(program);
    emu.input(main_cb, 0, Value{0.5});
    emu.input(main_cb, 1, Value{2.5});
    emu.input(main_cb, 2, Value{std::int64_t{25}});
    auto emu_out = emu.run();

    ttda::Machine m(program, baseConfig(4));
    m.input(main_cb, 0, Value{0.5});
    m.input(main_cb, 1, Value{2.5});
    m.input(main_cb, 2, Value{std::int64_t{25}});
    auto sim_out = m.run();

    ASSERT_EQ(emu_out.size(), 1u);
    ASSERT_EQ(sim_out.size(), 1u);
    EXPECT_DOUBLE_EQ(emu_out[0].value.asReal(),
                     sim_out[0].value.asReal());
    EXPECT_EQ(emu.stats().fired, m.totalFired());
}

TEST(Machine, OutOfOrderResponsesTolerated)
{
    // Heavy network jitter reorders tokens arbitrarily; tagging makes
    // the result immune (Issue 1's requirement).
    graph::Program program;
    const auto main_cb = workloads::buildProducerConsumer(program);
    auto cfg = baseConfig(8);
    cfg.netJitter = 37;
    cfg.seed = 99;
    ttda::Machine m(program, cfg);
    const std::int64_t n = 20;
    m.input(main_cb, 0, Value{n});
    auto out = m.run();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NEAR(out[0].value.asReal(),
                static_cast<double>(n * (n - 1)), 1e-9);
}

TEST(Machine, LatencyToleranceMoreLatencySameWork)
{
    // Doubling network latency must not change the work done, and for
    // a sufficiently parallel program the completion time grows far
    // less than proportionally (the dataflow claim of Section 2.3).
    graph::Program program;
    const auto main_cb = workloads::buildProducerConsumer(program);

    auto run_with = [&](sim::Cycle latency) {
        auto cfg = baseConfig(4);
        cfg.netLatency = latency;
        ttda::Machine m(program, cfg);
        m.input(main_cb, 0, Value{std::int64_t{64}});
        auto out = m.run();
        EXPECT_EQ(out.size(), 1u);
        return std::pair<sim::Cycle, std::uint64_t>{m.cycles(),
                                                    m.totalFired()};
    };

    auto [t1, w1] = run_with(1);
    auto [t8, w8] = run_with(8);
    EXPECT_EQ(w1, w8); // identical work
    // Latency grew 8x; completion time must grow much less.
    EXPECT_LT(static_cast<double>(t8),
              static_cast<double>(t1) * 4.0);
}

TEST(Machine, DeadlockDetectedOnMissingWrite)
{
    graph::Program program;
    graph::BlockBuilder main(program, "main", 1);
    const auto alloc = main.add(graph::Opcode::Alloc, 1);
    main.to(0, alloc, 0);
    const auto fetch = main.add(graph::Opcode::IFetch, 1);
    main.constant(fetch, Value{std::int64_t{0}});
    main.to(alloc, fetch, 0);
    const auto out_i = main.add(graph::Opcode::Output, 1);
    main.to(fetch, out_i, 0);
    const auto main_cb = main.build();

    ttda::Machine m(program, baseConfig(2));
    m.input(main_cb, 0, Value{std::int64_t{4}});
    auto out = m.run();
    EXPECT_TRUE(out.empty());
    EXPECT_TRUE(m.deadlocked());
    EXPECT_EQ(m.outstandingReads(), 1u);
}

TEST(Machine, StageStatisticspopulated)
{
    graph::Program program;
    const auto main_cb = workloads::buildTrapezoid(program);
    ttda::Machine m(program, baseConfig(2));
    m.input(main_cb, 0, Value{0.0});
    m.input(main_cb, 1, Value{1.0});
    m.input(main_cb, 2, Value{std::int64_t{16}});
    m.run();

    std::uint64_t in_total = 0, fired = 0, match_busy = 0;
    for (std::uint32_t p = 0; p < 2; ++p) {
        in_total += m.peStats(p).tokensIn.value();
        fired += m.peStats(p).fired.value();
        match_busy += m.peStats(p).matchBusyCycles.value();
    }
    EXPECT_GT(in_total, 0u);
    EXPECT_EQ(fired, m.totalFired());
    EXPECT_GT(match_busy, 0u); // dyadic ops exist
    EXPECT_GT(m.aluUtilization(), 0.0);
    EXPECT_LE(m.aluUtilization(), 1.0);
    EXPECT_GT(m.opsPerCycle(), 0.0);
}

TEST(Machine, MorePesFasterOnParallelWork)
{
    // Scalability: 8 PEs complete a producer/consumer run in fewer
    // cycles than 1 PE (same answers, same work).
    graph::Program program;
    const auto main_cb = workloads::buildProducerConsumer(program);

    auto run_with = [&](std::uint32_t pes) {
        ttda::Machine m(program, baseConfig(pes));
        m.input(main_cb, 0, Value{std::int64_t{96}});
        auto out = m.run();
        EXPECT_EQ(out.size(), 1u);
        return m.cycles();
    };
    const auto t1 = run_with(1);
    const auto t8 = run_with(8);
    EXPECT_LT(t8, t1);
}

} // namespace
