/**
 * @file
 * Tests of the von Neumann serving counterpart: the trace-mode Idle
 * operation and the VnServeDriver request multiplexer.
 */

#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "vn/machine.hh"
#include "workloads/arrivals.hh"
#include "workloads/vn_serve.hh"

namespace
{

vn::VnMachineConfig
serveConfig(std::uint32_t cores = 2, std::uint32_t contexts = 2)
{
    vn::VnMachineConfig cfg;
    cfg.numCores = cores;
    cfg.topology = vn::VnMachineConfig::Topology::Ideal;
    cfg.netLatency = 4;
    cfg.core.numContexts = contexts;
    cfg.wordsPerModule = 1024;
    return cfg;
}

std::vector<workloads::VnRequest>
makeRequests(const std::vector<sim::Cycle> &arrivals,
             const vn::VnMachineConfig &cfg)
{
    std::vector<workloads::VnRequest> reqs;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        workloads::VnRequest r;
        r.arrival = arrivals[i];
        r.loads = 2;
        r.computePerLoad = 3;
        r.addr = (i * 13) % (cfg.numCores * cfg.wordsPerModule);
        r.stride = cfg.wordsPerModule + 1;
        r.addrSpace = cfg.numCores * cfg.wordsPerModule;
        reqs.push_back(r);
    }
    return reqs;
}

TEST(VnIdle, ParkedContextWakesAtDeadline)
{
    // One core, one context: a trace that idles until cycle 50, does
    // one compute, and ends. The machine must run past the deadline
    // and the op must retire exactly once.
    vn::VnMachineConfig cfg = serveConfig(1, 1);
    vn::VnMachine m(cfg);
    int phase = 0;
    m.core(0).attachTrace(
        [&phase](std::uint32_t) -> std::optional<vn::TraceOp> {
            vn::TraceOp op;
            if (phase == 0) {
                ++phase;
                op.kind = vn::TraceOp::Kind::Idle;
                op.addr = 50;
                return op;
            }
            if (phase == 1) {
                ++phase;
                op.kind = vn::TraceOp::Kind::Compute;
                op.cycles = 1;
                return op;
            }
            return std::nullopt;
        });
    m.run();
    EXPECT_GE(m.cycles(), 50u);
    EXPECT_EQ(m.core(0).stats().instructions.value(), 1u);
}

TEST(VnIdle, IdleContextDoesNotBlockSiblings)
{
    // Context 0 idles far into the future; context 1 has immediate
    // compute work. The busy context must keep the core going and the
    // parked one must still finish its op after the deadline.
    vn::VnMachineConfig cfg = serveConfig(1, 2);
    vn::VnMachine m(cfg);
    std::vector<int> phase(2, 0);
    m.core(0).attachTrace(
        [&phase](std::uint32_t ctx) -> std::optional<vn::TraceOp> {
            vn::TraceOp op;
            if (ctx == 0) {
                if (phase[0] == 0) {
                    ++phase[0];
                    op.kind = vn::TraceOp::Kind::Idle;
                    op.addr = 200;
                    return op;
                }
                if (phase[0] == 1) {
                    ++phase[0];
                    op.kind = vn::TraceOp::Kind::Compute;
                    return op;
                }
                return std::nullopt;
            }
            if (phase[1] < 20) {
                ++phase[1];
                op.kind = vn::TraceOp::Kind::Compute;
                op.cycles = 2;
                return op;
            }
            return std::nullopt;
        });
    m.run();
    EXPECT_GE(m.cycles(), 200u);
    // 20 computes from ctx 1 plus the one parked op from ctx 0.
    EXPECT_EQ(m.core(0).stats().instructions.value(), 21u);
}

TEST(VnServe, CompletesEveryRequestAndMeasuresLatency)
{
    vn::VnMachineConfig cfg = serveConfig();
    workloads::ArrivalConfig ac;
    ac.meanGap = 40.0;
    ac.seed = 5;
    const auto arrivals = workloads::arrivalSchedule(ac, 32);
    vn::VnMachine m(cfg);
    workloads::VnServeDriver drv(m, makeRequests(arrivals, cfg));
    drv.attach();
    m.run();

    EXPECT_EQ(drv.completed(), 32u);
    const auto lat = drv.latency();
    EXPECT_EQ(lat.summary().count(), 32u);
    // Every request does two blocking loads; its latency can never be
    // smaller than the compute alone.
    EXPECT_GE(lat.summary().min(), 2.0 * 3.0);
    EXPECT_LE(lat.summary().max(), static_cast<double>(m.cycles()));
}

TEST(VnServe, RepeatRunIsBitIdentical)
{
    workloads::ArrivalConfig ac;
    ac.meanGap = 24.0;
    ac.seed = 21;
    const auto arrivals = workloads::arrivalSchedule(ac, 48);

    // One host thread: a serving run on a second fresh machine must
    // replay the first bit for bit.
    std::vector<sim::Cycle> cycles;
    std::vector<double> p99;
    for (int run = 0; run < 2; ++run) {
        const vn::VnMachineConfig cfg = serveConfig(4, 2);
        vn::VnMachine m(cfg);
        workloads::VnServeDriver drv(m, makeRequests(arrivals, cfg));
        drv.attach();
        m.run();
        EXPECT_EQ(drv.completed(), 48u);
        cycles.push_back(m.cycles());
        p99.push_back(drv.latency().quantile(0.99));
    }
    EXPECT_EQ(cycles[1], cycles[0]);
    EXPECT_EQ(p99[1], p99[0]);
}

TEST(VnServe, QueuedRequestsAccrueLatency)
{
    // Far more simultaneous requests than hardware contexts: the
    // fixed context pool is the admission bottleneck, so the tail
    // latency must exceed the service time by the queueing delay.
    vn::VnMachineConfig cfg = serveConfig(1, 2);
    std::vector<sim::Cycle> arrivals(16, 0);
    vn::VnMachine m(cfg);
    workloads::VnServeDriver drv(m, makeRequests(arrivals, cfg));
    drv.attach();
    m.run();
    EXPECT_EQ(drv.completed(), 16u);
    const auto lat = drv.latency();
    // The last requests on each context waited behind seven others.
    EXPECT_GT(lat.quantile(0.99), 4.0 * lat.quantile(0.1));
}

} // namespace
