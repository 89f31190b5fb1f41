/**
 * @file
 * VnMachine: a von Neumann shared-memory multiprocessor assembled
 * from VnCore processors, MemoryModule banks, and one of the network
 * models — the abstract multiprocessor of the paper's Figure 1-1,
 * configurable to approximate the surveyed machines:
 *
 *  - C.mmp:  Crossbar topology, blocking single-context cores;
 *  - Cm*:    Hierarchical topology, colocated memory, blocking cores —
 *            nonlocal references idle the processor;
 *  - HEP-ish: numContexts > 1 with low-level context switching;
 *  - dance-hall Ultracomputer-style: Omega topology, interleaved
 *    addressing (FETCH-AND-ADD combining itself is modelled separately
 *    by net::CombiningOmega).
 *
 * Memory module i is colocated with core i on network port i. A
 * reference to a word owned by the local module bypasses the network
 * (Cm*'s fast local path) when `colocated` is set.
 */

#ifndef TTDA_VN_MACHINE_HH
#define TTDA_VN_MACHINE_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fault.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "mem/memory.hh"
#include "net/fabric.hh"
#include "vn/core.hh"

namespace vn
{

/** Machine configuration; the fabric's fields (topology and its
 *  latencies, seed, fault plan, ReliableNet) are inherited. Any
 *  topology but Hypercube, which the constructor refuses. */
struct VnMachineConfig : net::FabricConfig
{
    std::uint32_t numCores = 4;

    VnCoreConfig core;              //!< per-core configuration

    std::size_t wordsPerModule = 1u << 16;
    sim::Cycle memLatency = 2;
    std::uint32_t banksPerModule = 1;

    /** true: word g lives on module (g div wordsPerModule) — blocked,
     *  Cm*-style locality. false: module (g mod numCores) —
     *  interleaved, dance-hall style. */
    bool blockedAddressing = true;

    /** Local references bypass the network. */
    bool colocated = true;

    std::uint64_t maxCycles = 50'000'000;

    /** When set, core/memory/network lifecycle events are emitted as
     *  Chrome trace-event JSON: one process per core (tid 0 = cpu,
     *  tid 1 = the colocated memory module) plus one for the network.
     *  Must be open()ed/attach()ed before run(). */
    sim::Tracer *tracer = nullptr;

    /** When set, run() samples a time-series row (per-core busy and
     *  instruction counters, network occupancy) into this recorder at
     *  its interval, after step(). Null = no sampling. */
    sim::MetricsRecorder *metrics = nullptr;
};

/** The multiprocessor. */
class VnMachine
{
  public:
    explicit VnMachine(VnMachineConfig cfg);
    VnMachine(VnMachine &&) noexcept;
    VnMachine &operator=(VnMachine &&) noexcept;
    ~VnMachine();

    VnCore &core(std::uint32_t i);
    const VnCore &core(std::uint32_t i) const;
    std::uint32_t numCores() const { return cfg_.numCores; }

    /** Untimed memory access for workload setup / result checks. */
    mem::Word peek(std::uint64_t addr) const;
    void poke(std::uint64_t addr, mem::Word value);

    /** Run until every core halts (or maxCycles). @return cycles. */
    sim::Cycle run();

    /** Advance exactly one cycle (for interleaved test driving). */
    void step();

    sim::Cycle cycles() const { return now_; }
    bool allHalted() const;

    /**
     * True when run() returned because the machine went quiescent with
     * cores still blocked on memory: nothing in flight anywhere, but
     * not every core halted. Only possible under fault injection —
     * lost requests or responses strand their issuing contexts.
     */
    bool deadlocked() const { return deadlocked_; }

    /** Forensics for a deadlocked() run: which cores/contexts are
     *  stranded, and whether destroyed traffic explains it. */
    std::string deadlockReport() const;

    /** The active fault injector (null when cfg.faults is empty). */
    const sim::fault::FaultInjector *
    faultInjector() const
    {
        return fabric_.faults();
    }

    /** Reliability-protocol counters (null unless cfg.reliableNet). */
    const net::RelStats *relStats() const;

    /** Mean core utilization (busy / total non-halted time). */
    double meanUtilization() const;

    const net::NetStats &netStats() const;
    const mem::MemoryModule::Stats &memStats(std::uint32_t module) const;
    const VnMachineConfig &config() const { return cfg_; }

    /** gem5-style statistics listing (machine and per-core groups). */
    void dumpStats(std::ostream &os) const;

    /** The same statistics as one machine-readable JSON document:
     *  each group keyed by name, plus per-core blocking-reference
     *  latency histograms. */
    void dumpStatsJson(std::ostream &os) const;

    /** The module owning a word under the configured addressing. */
    std::uint32_t moduleOf(std::uint64_t addr) const;
    /** Word offset within its module. */
    std::uint64_t offsetOf(std::uint64_t addr) const;

  private:
    /** Payload moved through the network. */
    struct NetMsg
    {
        bool isResponse = false;
        MemAccess access;
    };

    void issue(std::uint32_t core_id, MemAccess acc);
    void respond(std::uint32_t module, const mem::MemResponse &rsp);
    /** Complete a response at its core, discarding stale duplicates
     *  (a lossy fabric can replay a response the context no longer
     *  expects). */
    void deliverResponse(const MemAccess &acc);
    std::vector<sim::StatGroup> statGroups() const;

    /** Register the machine's metrics series and cache their ids. */
    void initMetrics();
    /** Stage series values and record one row stamped now_. */
    void sampleMetrics();

    /** Event-driven skip used by run(): when every core is halted or
     *  blocked on memory, jump now_ to the next network delivery or
     *  memory completion, batch-accounting the cores' stall cycles. */
    void skipAhead();

    VnMachineConfig cfg_;
    std::vector<std::unique_ptr<VnCore>> cores_;
    std::vector<std::unique_ptr<mem::MemoryModule>> modules_;
    net::Fabric<NetMsg> fabric_;
    sim::Cycle now_ = 0;
    bool deadlocked_ = false;

    /** Next MemAccess::seq; stamped on every networked request when
     *  faults are active so modules and cores can deduplicate. */
    std::uint64_t memSeq_ = 0;
    /** (core << 32 | ctx) -> seq of the response the context awaits;
     *  anything else arriving for it is a stale replay. */
    std::unordered_map<std::uint64_t, std::uint64_t> awaiting_;
    sim::Counter staleResponses_;

    sim::MetricsRecorder *metrics_ = nullptr;
    struct MetricsIds
    {
        std::vector<sim::MetricsRecorder::SeriesId> coreBusy;
        std::vector<sim::MetricsRecorder::SeriesId> coreInstrs;
        sim::MetricsRecorder::SeriesId netQueued = 0;
        sim::MetricsRecorder::SeriesId netInFlight = 0;
        sim::MetricsRecorder::SeriesId relPending = 0;
    };
    MetricsIds mIds_;
};

} // namespace vn

#endif // TTDA_VN_MACHINE_HH
