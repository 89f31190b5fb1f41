/**
 * @file
 * Open-loop request serving on the von Neumann machine — the tier the
 * dataflow serving fast path (ttda::Machine::serve()) is compared
 * against.
 *
 * Requests are statically assigned round-robin to the machine's
 * hardware contexts; each context works through its own arrival-ordered
 * list via a trace source. A context with no request due emits an Idle
 * op (parking itself until the next arrival without blocking the
 * core's other contexts); a request that arrives while its context is
 * still busy queues, and its latency includes the queueing delay.
 *
 * This *is* the paper's contrast with the dataflow machine's admission
 * path: the von Neumann tier's concurrency is bounded by the fixed
 * hardware context pool, so excess load queues behind busy contexts,
 * while the TTDA injects every request as a fresh top-level context
 * and lets the waiting-matching watermark — a resource measure, not a
 * hardware slot count — throttle admission.
 *
 * Determinism: each context's pulls depend only on its own
 * pre-partitioned list and the machine's cycle counter, which is fixed
 * during the core-step phase — so serving runs replay bit-identically.
 */

#ifndef TTDA_WORKLOADS_VN_SERVE_HH
#define TTDA_WORKLOADS_VN_SERVE_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "vn/machine.hh"

namespace workloads
{

/** One serving request for the von Neumann tier. */
struct VnRequest
{
    sim::Cycle arrival = 0;
    /** Blocking memory references the request issues. Must be >= 1. */
    std::uint32_t loads = 4;
    /** Busy cycles after each load (the request's compute). */
    std::uint32_t computePerLoad = 8;
    std::uint64_t addr = 0;   //!< first referenced word
    std::uint64_t stride = 1; //!< address step between loads
    /** Wrap referenced addresses modulo this (0 = no wrap); set it to
     *  the machine's total words so strided walks stay in bounds. */
    std::uint64_t addrSpace = 0;
};

/**
 * Request-multiplexing driver: owns the request queue and feeds it to
 * the machine's cores as trace ops. Construct, attach(), run the
 * machine, then read latency()/completed().
 */
class VnServeDriver
{
  public:
    /** `requests` must be sorted by arrival (the order the open-loop
     *  generators produce). The driver must outlive the machine run. */
    VnServeDriver(vn::VnMachine &machine,
                  std::vector<VnRequest> requests);

    /** Install a trace source on every core; call before run(). */
    void attach();

    /** Per-request submit-to-completion latency in cycles (completion
     *  is dated at the issue of the request's final operation). Merged
     *  across contexts in context-index order — deterministic. */
    sim::Histogram latency() const;

    std::uint64_t completed() const;
    std::uint64_t submitted() const { return requests_.size(); }

  private:
    struct CtxState
    {
        std::vector<std::uint32_t> assigned; //!< request ids, in order
        std::size_t pos = 0;                 //!< next/current request
        std::uint32_t opIndex = 0;           //!< op within the request
        bool active = false;
        sim::Histogram lat{16.0, 4096};
        std::uint64_t done = 0;
    };

    std::optional<vn::TraceOp> pull(std::uint32_t core,
                                    std::uint32_t ctx);

    vn::VnMachine &machine_;
    std::vector<VnRequest> requests_;
    std::vector<CtxState> ctxs_;
    std::uint32_t ctxsPerCore_;
};

} // namespace workloads

#endif // TTDA_WORKLOADS_VN_SERVE_HH
