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
        : side_(side), ports_(side * side), hopLatency_(hop_latency),
          arrivals_(ports_)
    {
        SIM_ASSERT(side >= 2);
        SIM_ASSERT(hop_latency >= 1);
        linkQueues_.resize(static_cast<std::size_t>(ports_) * 4);
    }

    sim::NodeId numPorts() const override { return ports_; }
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
        SIM_ASSERT(src < ports_ && dst < ports_);
        Packet<Payload> pkt;
        pkt.src = src;
        pkt.dst = dst;
        pkt.issued = now_;
        pkt.payload = std::move(payload);
        this->noteSend(pkt);
        route(src, std::move(pkt));
    }

    void
    step(sim::Cycle now) override
    {
        now_ = now + 1;
        for (sim::NodeId node = 0; node < ports_; ++node) {
            for (std::uint32_t d = 0; d < 4; ++d) {
                auto &q = linkQueues_[node * 4 + d];
                if (q.empty())
                    continue;
                Packet<Payload> pkt = std::move(q.front());
                q.pop_front();
                Transit t;
                t.pkt = std::move(pkt);
                t.nextNode = neighbour(node, d);
                t.readyAt = now_ + hopLatency_ - 1;
                transiting_.push_back(std::move(t));
                this->stats_.blockedCycles.inc(q.size());
            }
        }
        std::vector<Transit> still;
        still.reserve(transiting_.size());
        for (auto &t : transiting_) {
            if (t.readyAt > now_) {
                still.push_back(std::move(t));
                continue;
            }
            t.pkt.hops += 1;
            if (t.nextNode == t.pkt.dst)
                this->deliver(arrivals_, std::move(t.pkt), now_);
            else
                route(t.nextNode, std::move(t.pkt));
        }
        transiting_ = std::move(still);
        this->flushFaultDelayed(arrivals_, now_);
    }

    std::optional<Payload>
    receive(sim::NodeId dst) override
    {
        auto pkt = arrivals_.pop(dst);
        if (!pkt)
            return std::nullopt;
        this->noteDeliver(*pkt, now_);
        return std::move(pkt->payload);
    }

    bool
    idle() const override
    {
        for (const auto &q : linkQueues_)
            if (!q.empty())
                return false;
        return transiting_.empty() && arrivals_.empty() &&
               this->faultIdle();
    }

    sim::Cycle
    nextDelivery() const override
    {
        for (const auto &q : linkQueues_)
            if (!q.empty())
                return now_;
        if (!arrivals_.empty())
            return now_;
        sim::Cycle next = sim::neverCycle;
        for (const auto &t : transiting_)
            next = std::min(next, t.readyAt - 1);
        return this->faultClamp(next);
    }

    NetOccupancy
    occupancy() const override
    {
        NetOccupancy occ;
        for (const auto &q : linkQueues_)
            occ.queued += q.size();
        occ.queued += arrivals_.totalQueued();
        occ.inFlight = transiting_.size() + this->faultDelayedCount();
        return occ;
    }

    void reset() override { sim::state::reset(*this); }

    /** Run state; configuration is rebuilt by the owner. */
    template <class V>
    void
    visitState(V &v)
    {
        Network<Payload>::visitState(v);
        v(now_, sim::state::fixed(linkQueues_), transiting_, arrivals_);
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
            this->deliver(arrivals_, std::move(pkt), now_);
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
    sim::NodeId ports_;
    sim::Cycle hopLatency_;
    sim::Cycle now_ = 0;
    std::vector<sim::RingQueue<Packet<Payload>>> linkQueues_;
    std::vector<Transit> transiting_;
    detail::ArrivalQueues<Payload> arrivals_;
};

} // namespace net

#endif // TTDA_NET_GRID_HH
