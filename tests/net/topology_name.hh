/**
 * @file
 * The fabric topologies' names in test output. gtest prints a
 * value-parameterised case's parameter into its ctest name; an enum
 * without a PrintTo prints as its bytes, so renumbering the enum would
 * silently move names between cases. The TTDA and vn suites share
 * this one list.
 */

#ifndef TTDA_TESTS_NET_TOPOLOGY_NAME_HH
#define TTDA_TESTS_NET_TOPOLOGY_NAME_HH

#include <ostream>
#include <string>

#include "net/fabric.hh"

namespace net
{

inline std::string
topologyName(Topology t)
{
    switch (t) {
      case Topology::Ideal: return "Ideal";
      case Topology::Crossbar: return "Crossbar";
      case Topology::Hypercube: return "Hypercube";
      case Topology::Omega: return "Omega";
      case Topology::Hierarchical: return "Hierarchical";
    }
    return "Unknown";
}

/** gtest finds PrintTo by argument-dependent lookup, so it sits in
 *  Topology's namespace. */
inline void
PrintTo(Topology t, std::ostream *os)
{
    *os << topologyName(t);
}

} // namespace net

#endif // TTDA_TESTS_NET_TOPOLOGY_NAME_HH
