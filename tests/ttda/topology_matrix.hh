/**
 * @file
 * The topology matrix shared by the reset and checkpoint suites: every
 * MachineConfig::Topology, bare or wrapped in ReliableNet over a lossy
 * fabric (5% drop, 2% duplicate), on an 8-PE machine serving fib
 * requests. Reset and snapshot bugs tend to hide in one topology's
 * queues, so each contract is checked on all ten configurations.
 */

#ifndef TTDA_TESTS_TTDA_TOPOLOGY_MATRIX_HH
#define TTDA_TESTS_TTDA_TOPOLOGY_MATRIX_HH

#include <cstdint>
#include <ostream>
#include <vector>

#include "../net/topology_name.hh"
#include "ttda/machine.hh"
#include "workloads/arrivals.hh"

namespace matrix
{

using Topology = ttda::MachineConfig::Topology;

inline constexpr Topology kTopologies[] = {
    Topology::Ideal, Topology::Crossbar, Topology::Hypercube,
    Topology::Omega, Topology::Hierarchical};

struct Case
{
    Topology topology = Topology::Ideal;
    bool lossy = false; //!< ReliableNet over a dropping, duplicating fabric
};

inline ttda::MachineConfig
config(const Case &c)
{
    ttda::MachineConfig cfg;
    cfg.numPEs = 8;
    cfg.topology = c.topology;
    cfg.clusterSize = 4;
    cfg.latencyStats = true; // seq/born stamps and latency histograms
    if (c.lossy) {
        cfg.reliableNet = true;
        cfg.faults.seed = 13;
        cfg.faults.dropRate = 0.05;
        cfg.faults.dupRate = 0.02;
    }
    return cfg;
}

inline std::vector<Case>
allCases()
{
    std::vector<Case> out;
    for (const Topology t : kTopologies) {
        out.push_back({t, false});
        out.push_back({t, true});
    }
    return out;
}

/** gtest prints parameters into the ctest names: keep them readable
 *  (and free of struct padding bytes). */
inline void
PrintTo(const Case &c, std::ostream *os)
{
    *os << net::topologyName(c.topology) << (c.lossy ? "Lossy" : "Bare");
}

/** Queue `n` fib requests (fib(4)..fib(8), cycling) on a seeded
 *  Poisson schedule. */
inline void
submitFibs(ttda::Machine &m, std::uint16_t cb, std::size_t n,
           std::uint64_t seed)
{
    workloads::ArrivalConfig ac;
    ac.meanGap = 40.0;
    ac.seed = seed;
    const auto arrivals = workloads::arrivalSchedule(ac, n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t arg = 4 + static_cast<std::int64_t>(i % 5);
        m.submit(cb, {graph::Value{arg}}, arrivals[i]);
    }
}

} // namespace matrix

#endif // TTDA_TESTS_TTDA_TOPOLOGY_MATRIX_HH
