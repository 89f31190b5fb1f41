/**
 * @file
 * Crossbar: the C.mmp-style n x n switch (paper Section 1.2.1).
 *
 * Every source has a private queue; each cycle, each *output* port
 * accepts at most one packet (round-robin arbitration among contending
 * sources), and delivers it after a fixed switch latency. The model also
 * reports the crosspoint count — the paper's observation that crossbar
 * cost "grows at least quadratically" — for experiment E11.
 */

#ifndef TTDA_NET_CROSSBAR_HH
#define TTDA_NET_CROSSBAR_HH

#include <utility>
#include <vector>

#include "common/eventheap.hh"
#include "common/logging.hh"
#include "net/network.hh"

namespace net
{

/** n x n crossbar with per-output arbitration. */
template <typename Payload>
class Crossbar : public Network<Payload>
{
  public:
    /**
     * @param ports    number of input/output ports
     * @param latency  switch transit latency once a packet wins
     *                 arbitration (>= 1)
     */
    Crossbar(sim::NodeId ports, sim::Cycle latency = 1)
        : ports_(ports), latency_(latency), inputQueues_(ports),
          rrPointer_(ports, 0), arrivals_(ports)
    {
        SIM_ASSERT(ports > 0);
        SIM_ASSERT(latency >= 1);
    }

    sim::NodeId numPorts() const override { return ports_; }

    /** Crosspoint count: the quadratically growing hardware cost. */
    std::uint64_t
    crosspoints() const
    {
        return static_cast<std::uint64_t>(ports_) * ports_;
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
        inputQueues_[src].push_back(std::move(pkt));
    }

    void
    step(sim::Cycle now) override
    {
        now_ = now + 1;

        // Arbitrate: each output accepts one packet this cycle. We scan
        // inputs starting from a per-output round-robin pointer so a hot
        // output is shared fairly.
        std::vector<bool> output_granted(ports_, false);
        for (sim::NodeId out = 0; out < ports_; ++out) {
            for (sim::NodeId k = 0; k < ports_; ++k) {
                const sim::NodeId in = (rrPointer_[out] + k) % ports_;
                auto &q = inputQueues_[in];
                if (q.empty() || q.front().dst != out)
                    continue;
                Packet<Payload> pkt = std::move(q.front());
                q.pop_front();
                pkt.hops = 1;
                inFlight_.push(now_ + latency_ - 1, std::move(pkt));
                output_granted[out] = true;
                rrPointer_[out] = (in + 1) % ports_;
                break;
            }
        }

        // Packets still queued are blocked (head-of-line or lost
        // arbitration): account the contention.
        for (const auto &q : inputQueues_)
            this->stats_.blockedCycles.inc(q.size());

        while (!inFlight_.empty() && inFlight_.minKey() <= now_) {
            Packet<Payload> pkt = inFlight_.pop();
            this->deliver(arrivals_, std::move(pkt), now_);
        }
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
        for (const auto &q : inputQueues_)
            if (!q.empty())
                return false;
        return inFlight_.empty() && arrivals_.empty() &&
               this->faultIdle();
    }

    sim::Cycle
    nextDelivery() const override
    {
        // Queued packets need per-cycle arbitration (and accrue
        // blockedCycles), so no skipping while any input queue is live.
        for (const auto &q : inputQueues_)
            if (!q.empty())
                return now_;
        if (!arrivals_.empty())
            return now_;
        sim::Cycle next = sim::neverCycle;
        if (!inFlight_.empty())
            next = inFlight_.minKey() - 1;
        return this->faultClamp(next);
    }

    NetOccupancy
    occupancy() const override
    {
        NetOccupancy occ;
        for (const auto &q : inputQueues_)
            occ.queued += q.size();
        occ.queued += arrivals_.totalQueued();
        occ.inFlight = inFlight_.size() + this->faultDelayedCount();
        return occ;
    }

    void reset() override { sim::state::reset(*this); }

    /** Run state; configuration is rebuilt by the owner. */
    template <class V>
    void
    visitState(V &v)
    {
        Network<Payload>::visitState(v);
        v(now_, sim::state::fixed(inputQueues_),
          sim::state::fixed(rrPointer_), inFlight_, arrivals_);
    }

  private:
    sim::NodeId ports_;
    sim::Cycle latency_;
    sim::Cycle now_ = 0;
    std::vector<sim::RingQueue<Packet<Payload>>> inputQueues_;
    std::vector<sim::NodeId> rrPointer_;
    sim::EventHeap<Packet<Payload>> inFlight_;
    detail::ArrivalQueues<Payload> arrivals_;
};

} // namespace net

#endif // TTDA_NET_CROSSBAR_HH
