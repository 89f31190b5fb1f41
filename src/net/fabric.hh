/**
 * @file
 * The fabric a machine runs on: the configured topology carrying
 * payload P, wrapped in net::ReliableNet when the configuration asks
 * for it, with the fault injector attached at its delivery point.
 *
 * ttda::Machine and vn::VnMachine each hold one, so what the two
 * machines share about their interconnect is written once, here: the
 * topology switch, the ReliableNet wrap and the injector set-up, the
 * checkpoint dispatch over the concrete topology, the "meta" stats
 * group, the injector and ReliableNet entries of the "faults" group,
 * the deadlock report's loss classification, and the network's trace
 * tracks. A new topology is one case in build() and one in
 * visitTopology(), and both machines pick it up.
 *
 * The per-cycle path calls net(), the network object itself: the
 * fabric adds no indirection to a send, step or receive.
 */

#ifndef TTDA_NET_FABRIC_HH
#define TTDA_NET_FABRIC_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "common/fault.hh"
#include "common/format.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "net/crossbar.hh"
#include "net/hierarchical.hh"
#include "net/hypercube.hh"
#include "net/ideal.hh"
#include "net/network.hh"
#include "net/omega.hh"
#include "net/reliable.hh"

namespace net
{

/** The topologies a machine is built on. TTDA snapshot and daemon
 *  checkpoint fingerprints write these values. */
enum class Topology
{
    Ideal,        //!< fixed latency + jitter, no contention
    Crossbar,     //!< C.mmp-style n x n switch
    Hypercube,    //!< emulation-facility cube (2^d ports)
    Omega,        //!< multistage shuffle (2^k ports)
    Hierarchical, //!< Cm*-style clusters
};

/** What a machine configures of its fabric. Both machine configs
 *  derive from it; the port count, and the TTDA's Hypercube hop
 *  latency, are the machine's own. */
struct FabricConfig
{
    using Topology = net::Topology;
    Topology topology = Topology::Ideal;

    sim::Cycle netLatency = 2;     //!< Ideal/Crossbar: transit latency
    sim::Cycle netJitter = 0;      //!< Ideal: extra uniform random delay
    std::uint32_t clusterSize = 4; //!< Hierarchical
    sim::Cycle localLatency = 2;   //!< Hierarchical cluster bus
    sim::Cycle globalLatency = 8;  //!< Hierarchical intercluster bus

    std::uint64_t seed = 1; //!< the machine's root seed

    /** Fault-injection plan (see sim::fault). An empty plan (the
     *  default) leaves every fault hook compiled in but disabled: the
     *  machine is bit-identical to one built before the subsystem
     *  existed. FaultPlan::seed == 0 derives the injector seed from
     *  `seed` above, so replaying a run needs only the machine seed. */
    sim::fault::FaultPlan faults;

    /** Wrap the network in net::ReliableNet: sequence-numbered
     *  envelopes, ACKs, timeout retransmission and receive-side
     *  dedup. The fault injector then acts on the envelope fabric and
     *  the machine survives loss (until retries are exhausted). */
    bool reliableNet = false;
    RetryConfig retry; //!< retransmission policy when reliableNet
};

/** A machine's interconnect: network, ReliableNet and fault injector. */
template <typename P>
class Fabric
{
  public:
    /** Build the fabric `cfg` configures for `ports` nodes.
     *  `hopLatency` is the Hypercube's per-link latency, a topology
     *  only the TTDA offers. */
    Fabric(const FabricConfig &cfg, std::uint32_t ports,
           sim::Cycle hopLatency = 1)
        : topology_(cfg.topology), seed_(cfg.seed)
    {
        SIM_ASSERT_MSG(ports >= 1, "machine needs at least one node");
        if (cfg.reliableNet) {
            auto rel = std::make_unique<ReliableNet<P>>(
                build<Envelope<P>>(cfg, ports, hopLatency), cfg.retry);
            rel_ = rel.get();
            net_ = std::move(rel);
        } else {
            net_ = build<P>(cfg, ports, hopLatency);
        }
        setFaultPlan(cfg.faults);
    }

    /** The network the machine sends into, steps and receives from. */
    Network<P> &net() const { return *net_; }

    /** The fault injector, or null when the plan is empty. */
    sim::fault::FaultInjector *faults() const { return faults_.get(); }

    /** The ReliableNet wrapper, or null when reliableNet is off. */
    ReliableNet<P> *rel() const { return rel_; }

    /** Replace the fault plan: an enabled plan gets a fresh injector,
     *  seed 0 deriving from the machine seed, and an empty one removes
     *  injection. */
    void
    setFaultPlan(const sim::fault::FaultPlan &plan)
    {
        faults_ = sim::fault::makeInjector(plan, seed_);
        net_->setFaultInjector(faults_.get());
    }

    /** Emit `net` trace events into `t`: the process after the
     *  machine's last node is the network, one thread per port. */
    void
    trace(sim::Tracer &t)
    {
        const std::uint32_t pid = net_->numPorts();
        t.processName(pid, "network");
        for (std::uint32_t p = 0; p < pid; ++p)
            t.threadName(pid, p, sim::format("port{}", p));
        net_->setTracer(&t, pid);
    }

    /** The "meta" stats group: the replay header, everything needed to
     *  reproduce the run. */
    sim::StatGroup
    metaStats() const
    {
        sim::StatGroup meta("meta");
        meta.set("seed", static_cast<double>(seed_));
        if (faults_)
            meta.set("faultSeed",
                     static_cast<double>(faults_->plan().seed));
        meta.set("reliable", rel_ ? 1.0 : 0.0);
        return meta;
    }

    /** Append the "faults" stats group, unless the fabric has neither
     *  an injector nor ReliableNet: the injector's and ReliableNet's
     *  entries, and where an injector runs, those `machineEntries`
     *  adds, the machine's own duplicate counters. */
    template <class F>
    void
    faultStats(std::vector<sim::StatGroup> &groups,
               F &&machineEntries) const
    {
        if (!faults_ && !rel_)
            return;
        sim::StatGroup f("faults");
        if (faults_) {
            const auto &fs = faults_->stats();
            f.set("decisions", static_cast<double>(fs.decisions));
            f.set("drops", static_cast<double>(fs.drops));
            f.set("duplicates", static_cast<double>(fs.duplicates));
            f.set("corrupts", static_cast<double>(fs.corrupts));
            f.set("delays", static_cast<double>(fs.delays));
            f.set("linkDownDrops", static_cast<double>(fs.linkDownDrops));
            f.set("destroyed", static_cast<double>(fs.destroyed()));
            machineEntries(f);
        }
        if (rel_) {
            const auto &rs = rel_->relStats();
            f.set("retransmits", static_cast<double>(rs.retransmits.value()));
            f.set("abandoned", static_cast<double>(rs.abandoned.value()));
            f.set("rxDuplicates",
                  static_cast<double>(rs.rxDuplicates.value()));
            f.set("acksSent", static_cast<double>(rs.acksSent.value()));
            f.set("staleAcks", static_cast<double>(rs.staleAcks.value()));
            f.set("envelopesSent",
                  static_cast<double>(rel_->innerStats().sent.value()));
        }
        groups.push_back(std::move(f));
    }

    /** The deadlock report's classification line, where an injector
     *  ran: a run that lost no packet deadlocked on its own merits. */
    void
    classifyLoss(std::ostream &os) const
    {
        if (!faults_)
            return;
        const std::uint64_t destroyed = faults_->stats().destroyed();
        const std::uint64_t abandoned =
            rel_ ? rel_->relStats().abandoned.value() : 0;
        if (destroyed == 0 && abandoned == 0) {
            os << "  classification: true deadlock — no packets were "
                  "lost\n";
            return;
        }
        os << "  classification: stranded by loss — " << destroyed
           << " packet(s) destroyed by fault injection";
        if (rel_) {
            os << ", " << abandoned << " send(s) abandoned after "
               << rel_->retry().maxAttempts << " attempts";
        }
        os << "\n";
    }

    /** The injector's stream, the ReliableNet protocol state, then the
     *  concrete topology's run state. */
    template <class V>
    void
    visitState(V &v)
    {
        if (faults_)
            v(*faults_);
        if (rel_) {
            v(*rel_);
            visitTopology(v, rel_->inner());
        } else {
            visitTopology(v, *net_);
        }
    }

  private:
    /** The configured topology carrying payload Q: P itself, or
     *  Envelope<P> inside a ReliableNet. */
    template <typename Q>
    static std::unique_ptr<Network<Q>>
    build(const FabricConfig &cfg, std::uint32_t ports,
          sim::Cycle hopLatency)
    {
        switch (cfg.topology) {
          case Topology::Ideal:
            return std::make_unique<IdealNetwork<Q>>(
                ports, cfg.netLatency, cfg.netJitter, cfg.seed);
          case Topology::Crossbar:
            return std::make_unique<Crossbar<Q>>(ports, cfg.netLatency);
          case Topology::Hypercube:
            SIM_ASSERT_MSG(detail::isPow2(ports) && ports >= 2,
                           "hypercube machine needs 2^d >= 2 nodes, got {}",
                           ports);
            return std::make_unique<Hypercube<Q>>(detail::log2(ports),
                                                  hopLatency);
          case Topology::Omega:
            return std::make_unique<OmegaNet<Q>>(ports);
          case Topology::Hierarchical:
            return std::make_unique<HierarchicalNet<Q>>(
                ports, cfg.clusterSize, cfg.localLatency,
                cfg.globalLatency);
        }
        sim::panic("unknown topology");
    }

    /** Visit the concrete topology behind `n`. The visitors are
     *  templates and Network is virtual, so this one dispatch stays:
     *  the fabric knows the concrete type from its configuration. */
    template <class V, typename Q>
    void
    visitTopology(V &v, Network<Q> &n) const
    {
        switch (topology_) {
          case Topology::Ideal:
            v(static_cast<IdealNetwork<Q> &>(n));
            return;
          case Topology::Crossbar:
            v(static_cast<Crossbar<Q> &>(n));
            return;
          case Topology::Hypercube:
            v(static_cast<Hypercube<Q> &>(n));
            return;
          case Topology::Omega:
            v(static_cast<OmegaNet<Q> &>(n));
            return;
          case Topology::Hierarchical:
            v(static_cast<HierarchicalNet<Q> &>(n));
            return;
        }
        sim::panic("unknown topology");
    }

    Topology topology_;
    std::uint64_t seed_; //!< the machine seed: jitter and fault streams
    std::unique_ptr<sim::fault::FaultInjector> faults_;
    std::unique_ptr<Network<P>> net_;
    ReliableNet<P> *rel_ = nullptr; //!< net_ when wrapped
};

} // namespace net

#endif // TTDA_NET_FABRIC_HH
