/**
 * @file
 * Hypercube: d-dimensional binary cube with packet-switched, one-packet
 * -per-link-per-cycle links.
 *
 * This models both the Connection Machine's hypercube message fabric
 * (paper Section 1.2.5: "in the absence of conflicts, a message will
 * reach its destination in at most 14 steps; but, because of conflicts,
 * some messages will take significantly more") and the 7-dimensional
 * hypercube of the paper's emulation facility (Section 3), including
 * its two distinguishing features: a table-based routing indirection so
 * emulated topologies can be mapped onto the cube, and tolerance of
 * failed links by adaptive minimal routing with bounded misrouting.
 */

#ifndef TTDA_NET_HYPERCUBE_HH
#define TTDA_NET_HYPERCUBE_HH

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "net/network.hh"
#include "net/omega.hh" // detail::isPow2 / detail::log2

namespace net
{

/** d-dimensional hypercube with adaptive minimal routing. */
template <typename Payload>
class Hypercube : public Network<Payload>
{
  public:
    /**
     * @param dim          cube dimension (ports = 2^dim)
     * @param hop_latency  cycles per link traversal (>= 1)
     */
    explicit Hypercube(std::uint32_t dim, sim::Cycle hop_latency = 1)
        : Network<Payload>(cubePorts(dim)), dim_(dim),
          hopLatency_(hop_latency)
    {
        SIM_ASSERT(hop_latency >= 1);
        linkQueues_.resize(static_cast<std::size_t>(ports_) * dim_);
        routingTable_.resize(ports_);
        for (sim::NodeId i = 0; i < ports_; ++i)
            routingTable_[i] = i;
    }

    std::uint32_t dimension() const { return dim_; }

    /**
     * Install a routing translation table mapping logical destination
     * addresses to physical cube nodes (the paper's "table-based
     * routing", used for emulated topologies and static partitioning).
     */
    void
    setRoutingTable(std::vector<sim::NodeId> table)
    {
        SIM_ASSERT(table.size() == ports_);
        for (sim::NodeId phys : table)
            SIM_ASSERT(phys < ports_);
        routingTable_ = std::move(table);
    }

    /** Mark the link leaving `node` along `dim` (both directions) as
     *  failed; routing adapts around it. */
    void
    failLink(sim::NodeId node, std::uint32_t dim)
    {
        SIM_ASSERT(node < ports_ && dim < dim_);
        deadLinks_.insert({node, dim});
        deadLinks_.insert({node ^ (1u << dim), dim});
        tablesDirty_ = true;
    }

    /** Whether the link leaving `node` along `dim` has failed. */
    bool
    linkFailed(sim::NodeId node, std::uint32_t dim) const
    {
        return !linkAlive(node, dim);
    }

    void
    send(sim::NodeId src, sim::NodeId dst, Payload payload) override
    {
        SIM_ASSERT(dst < ports_);
        route(src, this->stamp(src, routingTable_[dst], std::move(payload)),
              /*misroutes=*/0);
    }

    void
    step(sim::Cycle now) override
    {
        this->now_ = now + 1;

        // Each link transmits at most one packet per cycle.
        for (sim::NodeId node = 0; node < ports_; ++node) {
            for (std::uint32_t d = 0; d < dim_; ++d) {
                auto &q = linkQueues_[linkIndex(node, d)];
                if (q.empty())
                    continue;
                InFlight f = std::move(q.front());
                q.pop_front();
                f.readyAt = this->now_ + hopLatency_ - 1;
                f.nextNode = node ^ (1u << d);
                transiting_.push_back(std::move(f));
                this->stats_.blockedCycles.inc(q.size());
            }
        }

        // Land packets whose hop completes this cycle.
        std::vector<InFlight> still;
        still.reserve(transiting_.size());
        for (auto &f : transiting_) {
            if (f.readyAt > this->now_) {
                still.push_back(std::move(f));
                continue;
            }
            f.pkt.hops += 1;
            if (f.nextNode == f.pkt.dst) {
                this->deliver(std::move(f.pkt));
            } else {
                route(f.nextNode, std::move(f.pkt), f.misroutes);
            }
        }
        transiting_ = std::move(still);
        this->flushFaultDelayed();
    }

    sim::Cycle
    nextDelivery() const override
    {
        // A queued packet contends for its link every cycle, so the
        // model must not skip while any link queue is live.
        for (const auto &q : linkQueues_)
            if (!q.empty())
                return this->now_;
        sim::Cycle next = sim::neverCycle;
        for (const auto &f : transiting_)
            next = std::min(next, f.readyAt - 1);
        return this->nextDeliveryFrom(next);
    }

    NetOccupancy
    occupancy() const override
    {
        std::size_t queued = 0;
        for (const auto &q : linkQueues_)
            queued += q.size();
        return this->occupancyFrom(queued, transiting_.size());
    }

    void reset() override { sim::state::reset(*this); }

    /** Run state. Failed links, routing tables and the fault next-hop
     *  cache are configuration, rebuilt by the owner. */
    template <class V>
    void
    visitState(V &v)
    {
        Network<Payload>::visitState(v);
        v(this->now_, sim::state::fixed(linkQueues_), transiting_,
          this->arrivals_);
    }

  private:
    /** 2^dim, once dim is in range: the base's argument, so the check
     *  runs before the shift. */
    static sim::NodeId
    cubePorts(std::uint32_t dim)
    {
        SIM_ASSERT_MSG(dim >= 1 && dim <= 20,
                       "hypercube dimension must be in [1, 20], got {}",
                       dim);
        return sim::NodeId{1} << dim;
    }

    struct InFlight
    {
        Packet<Payload> pkt;
        sim::NodeId nextNode = 0;
        sim::Cycle readyAt = 0;
        std::uint32_t misroutes = 0;

        template <class V>
        void
        visitState(V &v)
        {
            v(pkt, nextNode, readyAt, misroutes);
        }
    };

    std::size_t
    linkIndex(sim::NodeId node, std::uint32_t d) const
    {
        return static_cast<std::size_t>(node) * dim_ + d;
    }

    bool
    linkAlive(sim::NodeId node, std::uint32_t d) const
    {
        return deadLinks_.empty() ||
               !deadLinks_.contains({node, d});
    }

    /**
     * Choose an output link at `node` and enqueue the packet on it.
     *
     * Fault-free cubes use e-cube (lowest productive dimension)
     * routing. With failed links, the switch modules fall back to the
     * paper's table-based routing: a per-destination next-hop table
     * computed over the live topology (shortest path), rebuilt when
     * the fault set changes. A destination with no live path is a
     * configuration fault.
     */
    void
    route(sim::NodeId node, Packet<Payload> pkt, std::uint32_t misroutes)
    {
        if (node == pkt.dst) {
            this->deliver(std::move(pkt));
            return;
        }
        if (deadLinks_.empty()) {
            const std::uint32_t diff = node ^ pkt.dst;
            for (std::uint32_t d = 0; d < dim_; ++d) {
                if (diff >> d & 1u) {
                    enqueue(node, d, std::move(pkt), misroutes);
                    return;
                }
            }
        }
        if (tablesDirty_)
            rebuildFaultTables();
        const std::uint8_t hop =
            faultNext_[static_cast<std::size_t>(pkt.dst) * ports_ +
                       node];
        SIM_ASSERT_MSG(hop != 0,
                       "hypercube: node {} cannot reach {} (cube "
                       "partitioned by failed links)", node, pkt.dst);
        enqueue(node, hop - 1u, std::move(pkt), misroutes);
    }

    /** BFS from every destination over live links, recording the
     *  dimension of the first hop toward it (0 = unreachable). */
    void
    rebuildFaultTables()
    {
        SIM_ASSERT_MSG(dim_ <= 12,
                       "fault routing tables limited to dim <= 12 "
                       "({} requested)", dim_);
        faultNext_.assign(static_cast<std::size_t>(ports_) * ports_,
                          0);
        std::vector<sim::NodeId> queue;
        std::vector<std::int32_t> dist(ports_);
        for (sim::NodeId dst = 0; dst < ports_; ++dst) {
            std::fill(dist.begin(), dist.end(), -1);
            queue.clear();
            queue.push_back(dst);
            dist[dst] = 0;
            for (std::size_t head = 0; head < queue.size(); ++head) {
                const sim::NodeId v = queue[head];
                for (std::uint32_t d = 0; d < dim_; ++d) {
                    const sim::NodeId w = v ^ (1u << d);
                    if (!linkAlive(v, d) || dist[w] != -1)
                        continue;
                    dist[w] = dist[v] + 1;
                    // First hop from w toward dst is back along d.
                    faultNext_[static_cast<std::size_t>(dst) *
                               ports_ + w] =
                        static_cast<std::uint8_t>(d + 1);
                    queue.push_back(w);
                }
            }
        }
        tablesDirty_ = false;
    }

    void
    enqueue(sim::NodeId node, std::uint32_t d, Packet<Payload> pkt,
            std::uint32_t misroutes)
    {
        InFlight f;
        f.pkt = std::move(pkt);
        f.misroutes = misroutes;
        linkQueues_[linkIndex(node, d)].push_back(std::move(f));
    }

    using Network<Payload>::ports_;

    std::uint32_t dim_;
    sim::Cycle hopLatency_;
    bool tablesDirty_ = false;
    std::vector<std::uint8_t> faultNext_; //!< [dst*ports + node]
    std::vector<sim::RingQueue<InFlight>> linkQueues_;
    std::vector<InFlight> transiting_;
    std::set<std::pair<sim::NodeId, std::uint32_t>> deadLinks_;
    std::vector<sim::NodeId> routingTable_;
};

} // namespace net

#endif // TTDA_NET_HYPERCUBE_HH
