/**
 * @file
 * The programs the workloads run and the closed forms their outputs
 * are checked against. Every program is an existing one: the mini-ID
 * sources of workloads::src and the hand-built graphs of
 * workloads::build*.
 */

#ifndef PERFBENCH_PROGRAMS_HH
#define PERFBENCH_PROGRAMS_HH

#include <cstdint>

#include "graph/value.hh"

namespace pb
{

std::int64_t matmulRef(std::int64_t n);   //!< sum(A*B), id_sources.hh
std::int64_t wavefrontRef(std::int64_t n); //!< C(2(n-1), n-1)
std::int64_t mergesortRef(std::int64_t n); //!< sum, zero disorder
std::int64_t fibRef(std::int64_t n);
std::int64_t takRef(std::int64_t x, std::int64_t y, std::int64_t z);
std::int64_t vectorSumRef(std::int64_t n);    //!< n(n-1)/2
std::int64_t producerConsumerRef(std::int64_t n); //!< n(n-1)

/** Whether `got` is `want`: exact when both are integers, otherwise
 *  numerically within a relative 1e-9 (the closed form and the
 *  dataflow sum round differently). */
bool sameValue(const graph::Value &got, const graph::Value &want);

/** Stable 64-bit image of a value, folded into run digests. */
std::uint64_t valueBits(const graph::Value &v);

inline graph::Value
ival(std::int64_t v)
{
    return graph::Value{v};
}

inline graph::Value
rval(double v)
{
    return graph::Value{v};
}

} // namespace pb

#endif // PERFBENCH_PROGRAMS_HH
