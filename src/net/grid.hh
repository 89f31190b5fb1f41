/**
 * @file
 * GridNet: the Illiac-IV-style k x k end-around (torus) grid
 * (paper Section 1.2.5).
 *
 * Each node connects to its four neighbours; a packet moves one grid
 * step per cycle per link, links carry one packet per cycle, and
 * routing is X-then-Y over the shorter torus direction. With k = 8 this
 * reproduces the Illiac IV property that any node reaches any other in
 * at most 7 shift steps.
 */

#ifndef TTDA_NET_GRID_HH
#define TTDA_NET_GRID_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "net/network.hh"

namespace net
{

/** k x k torus with X-then-Y shortest-direction routing. */
template <typename Payload>
class GridNet : public Network<Payload>
{
  public:
    /** @param side grid side length k (ports = k*k) */
    explicit GridNet(std::uint32_t side, sim::Cycle hop_latency = 1)
        : Network<Payload>(side * side), side_(side),
          hopLatency_(hop_latency)
    {
        SIM_ASSERT(side >= 2);
        SIM_ASSERT(hop_latency >= 1);
        linkQueues_.resize(static_cast<std::size_t>(this->ports_) * 4);
    }

    std::uint32_t side() const { return side_; }

    /** Maximum number of hops between any pair of nodes. */
    std::uint32_t
    diameter() const
    {
        return 2 * (side_ / 2);
    }

    void
    send(sim::NodeId src, sim::NodeId dst, Payload payload) override
    {
        route(src, this->stamp(src, dst, std::move(payload)));
    }

    void
    step(sim::Cycle now) override
    {
        this->now_ = now + 1;
        for (sim::NodeId node = 0; node < this->ports_; ++node) {
            for (std::uint32_t d = 0; d < 4; ++d) {
                auto &q = linkQueues_[node * 4 + d];
                if (q.empty())
                    continue;
                Packet<Payload> pkt = std::move(q.front());
                q.pop_front();
                Transit t;
                t.pkt = std::move(pkt);
                t.nextNode = neighbour(node, d);
                t.readyAt = this->now_ + hopLatency_ - 1;
                transiting_.push_back(std::move(t));
                this->stats_.blockedCycles.inc(q.size());
            }
        }
        std::vector<Transit> still;
        still.reserve(transiting_.size());
        for (auto &t : transiting_) {
            if (t.readyAt > this->now_) {
                still.push_back(std::move(t));
                continue;
            }
            t.pkt.hops += 1;
            if (t.nextNode == t.pkt.dst)
                this->deliver(std::move(t.pkt));
            else
                route(t.nextNode, std::move(t.pkt));
        }
        transiting_ = std::move(still);
        this->flushFaultDelayed();
    }

    sim::Cycle
    nextDelivery() const override
    {
        for (const auto &q : linkQueues_)
            if (!q.empty())
                return this->now_;
        sim::Cycle next = sim::neverCycle;
        for (const auto &t : transiting_)
            next = std::min(next, t.readyAt - 1);
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

    /** Run state; configuration is rebuilt by the owner. */
    template <class V>
    void
    visitState(V &v)
    {
        Network<Payload>::visitState(v);
        v(this->now_, sim::state::fixed(linkQueues_), transiting_,
          this->arrivals_);
    }

  private:
    struct Transit
    {
        Packet<Payload> pkt;
        sim::NodeId nextNode = 0;
        sim::Cycle readyAt = 0;

        template <class V>
        void
        visitState(V &v)
        {
            v(pkt, nextNode, readyAt);
        }
    };

    // Directions: 0 = east, 1 = west, 2 = south, 3 = north.
    sim::NodeId
    neighbour(sim::NodeId node, std::uint32_t d) const
    {
        const std::uint32_t x = node % side_;
        const std::uint32_t y = node / side_;
        switch (d) {
          case 0: return y * side_ + (x + 1) % side_;
          case 1: return y * side_ + (x + side_ - 1) % side_;
          case 2: return ((y + 1) % side_) * side_ + x;
          default: return ((y + side_ - 1) % side_) * side_ + x;
        }
    }

    void
    route(sim::NodeId node, Packet<Payload> pkt)
    {
        if (node == pkt.dst) {
            this->deliver(std::move(pkt));
            return;
        }
        const std::uint32_t x = node % side_, dx = pkt.dst % side_;
        const std::uint32_t y = node / side_, dy = pkt.dst / side_;
        std::uint32_t dir;
        if (x != dx) {
            const std::uint32_t east = (dx + side_ - x) % side_;
            dir = east <= side_ - east ? 0 : 1;
        } else {
            const std::uint32_t south = (dy + side_ - y) % side_;
            dir = south <= side_ - south ? 2 : 3;
        }
        linkQueues_[node * 4 + dir].push_back(std::move(pkt));
    }

    std::uint32_t side_;
    sim::Cycle hopLatency_;
    std::vector<sim::RingQueue<Packet<Payload>>> linkQueues_;
    std::vector<Transit> transiting_;
};

} // namespace net

#endif // TTDA_NET_GRID_HH
