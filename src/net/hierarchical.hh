/**
 * @file
 * HierarchicalNet: the Cm*-style two-level cluster interconnect
 * (paper Section 1.2.2).
 *
 * Nodes are grouped into clusters. Each cluster owns a local bus (the
 * "Map bus") serving one packet per cycle; clusters are joined by one
 * shared intercluster bus (the Kmap fabric), also one packet per cycle.
 *
 *  - intra-cluster packet:  src -> cluster bus -> dst
 *  - inter-cluster packet:  src -> cluster bus -> intercluster bus ->
 *                           destination cluster bus -> dst
 *
 * Greater interprocessor distance therefore translates directly into
 * longer reference times — the property the paper says capped Cm*'s
 * useful processor count.
 */

#ifndef TTDA_NET_HIERARCHICAL_HH
#define TTDA_NET_HIERARCHICAL_HH

#include <utility>
#include <vector>

#include "common/eventheap.hh"
#include "common/logging.hh"
#include "net/network.hh"

namespace net
{

/** Two-level cluster network: local buses plus one intercluster bus. */
template <typename Payload>
class HierarchicalNet : public Network<Payload>
{
  public:
    /**
     * @param ports         total number of nodes
     * @param cluster_size  nodes per cluster (ports must divide evenly)
     * @param local_latency   transit cycles across a cluster bus (>= 1)
     * @param global_latency  transit cycles across the intercluster
     *                        bus (>= 1); Cm* remote references were
     *                        several times slower than local ones
     */
    HierarchicalNet(sim::NodeId ports, sim::NodeId cluster_size,
                    sim::Cycle local_latency = 2,
                    sim::Cycle global_latency = 8)
        : Network<Payload>(clusteredPorts(ports, cluster_size)),
          clusterSize_(cluster_size), localLatency_(local_latency),
          globalLatency_(global_latency),
          clusterQueues_(ports / cluster_size)
    {
        SIM_ASSERT(local_latency >= 1 && global_latency >= 1);
    }

    sim::NodeId numClusters() const { return this->ports_ / clusterSize_; }
    sim::NodeId clusterOf(sim::NodeId node) const
    {
        return node / clusterSize_;
    }

    void
    send(sim::NodeId src, sim::NodeId dst, Payload payload) override
    {
        Transit t;
        t.pkt = this->stamp(src, dst, std::move(payload));
        clusterQueues_[clusterOf(src)].push_back(std::move(t));
    }

    void
    step(sim::Cycle now) override
    {
        this->now_ = now + 1;

        // Each cluster bus serves one packet per cycle.
        for (auto &q : clusterQueues_) {
            if (q.empty()) {
                continue;
            }
            Transit t = std::move(q.front());
            q.pop_front();
            t.pkt.hops += 1;
            t.readyAt = this->now_ + localLatency_ - 1;
            busTransit_.push(t.readyAt, std::move(t));
            this->stats_.blockedCycles.inc(q.size());
        }

        // The intercluster bus serves one packet per cycle.
        if (!globalQueue_.empty()) {
            Transit t = std::move(globalQueue_.front());
            globalQueue_.pop_front();
            t.pkt.hops += 1;
            t.leg = Leg::DestBus;
            t.readyAt = this->now_ + globalLatency_ - 1;
            busTransit_.push(t.readyAt, std::move(t));
            this->stats_.blockedCycles.inc(globalQueue_.size());
        }

        // Retire bus traversals that complete this cycle.
        while (!busTransit_.empty() && busTransit_.minKey() <= this->now_) {
            Transit t = busTransit_.pop();
            switch (t.leg) {
              case Leg::SourceBus:
                if (clusterOf(t.pkt.src) == clusterOf(t.pkt.dst)) {
                    this->deliver(std::move(t.pkt));
                } else {
                    t.leg = Leg::GlobalBus;
                    globalQueue_.push_back(std::move(t));
                }
                break;
              case Leg::GlobalBus:
                // Set in the service loop above; not reachable here.
                sim::panic("hierarchical net: packet completed a bus "
                           "traversal while still marked GlobalBus");
              case Leg::DestBus:
                // Completed the intercluster hop: needs the destination
                // cluster bus next, then arrives.
                if (t.enteredDestBus) {
                    this->deliver(std::move(t.pkt));
                } else {
                    t.enteredDestBus = true;
                    clusterQueues_[clusterOf(t.pkt.dst)]
                        .push_back(std::move(t));
                }
                break;
            }
        }
        this->flushFaultDelayed();
    }

    sim::Cycle
    nextDelivery() const override
    {
        // Bus queues arbitrate (and accrue blockedCycles) every cycle.
        for (const auto &q : clusterQueues_)
            if (!q.empty())
                return this->now_;
        if (!globalQueue_.empty())
            return this->now_;
        return this->nextDeliveryFrom(busTransit_.empty()
                                          ? sim::neverCycle
                                          : busTransit_.minKey() - 1);
    }

    NetOccupancy
    occupancy() const override
    {
        std::size_t queued = globalQueue_.size();
        for (const auto &q : clusterQueues_)
            queued += q.size();
        return this->occupancyFrom(queued, busTransit_.size());
    }

    void reset() override { sim::state::reset(*this); }

    /** Run state; configuration is rebuilt by the owner. The
     *  bus-transit heap keeps its storage order, so its FIFO
     *  tie-breaks replay exactly. */
    template <class V>
    void
    visitState(V &v)
    {
        Network<Payload>::visitState(v);
        v(this->now_, sim::state::fixed(clusterQueues_), globalQueue_,
          busTransit_, this->arrivals_);
    }

  private:
    /** `ports`, checked to split into clusters of `cluster_size`. It
     *  is the base's argument, so it runs before any initializer
     *  divides by the cluster size. */
    static sim::NodeId
    clusteredPorts(sim::NodeId ports, sim::NodeId cluster_size)
    {
        SIM_ASSERT_MSG(cluster_size > 0,
                       "hierarchical net needs a cluster size >= 1");
        SIM_ASSERT_MSG(ports % cluster_size == 0,
                       "ports {} not a multiple of cluster size {}",
                       ports, cluster_size);
        return ports;
    }

    enum class Leg : std::uint8_t { SourceBus, GlobalBus, DestBus };

    struct Transit
    {
        Packet<Payload> pkt;
        Leg leg = Leg::SourceBus;
        bool enteredDestBus = false;
        sim::Cycle readyAt = 0;

        template <class V>
        void
        visitState(V &v)
        {
            v(pkt,
              sim::state::bounded(leg, Leg::DestBus,
                                  "bad hierarchical-net transit leg"),
              enteredDestBus, readyAt);
        }
    };

    sim::NodeId clusterSize_;
    sim::Cycle localLatency_;
    sim::Cycle globalLatency_;
    std::vector<sim::RingQueue<Transit>> clusterQueues_;
    sim::RingQueue<Transit> globalQueue_;
    sim::EventHeap<Transit> busTransit_;
};

} // namespace net

#endif // TTDA_NET_HIERARCHICAL_HH
