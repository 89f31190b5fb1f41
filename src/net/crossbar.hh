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
        : Network<Payload>(ports), latency_(latency), inputQueues_(ports),
          rrPointer_(ports, 0)
    {
        SIM_ASSERT(latency >= 1);
    }

    /** Crosspoint count: the quadratically growing hardware cost. */
    std::uint64_t
    crosspoints() const
    {
        return static_cast<std::uint64_t>(this->ports_) * this->ports_;
    }

    void
    send(sim::NodeId src, sim::NodeId dst, Payload payload) override
    {
        inputQueues_[src].push_back(
            this->stamp(src, dst, std::move(payload)));
    }

    void
    step(sim::Cycle now) override
    {
        this->now_ = now + 1;
        const sim::NodeId ports = this->ports_;

        // Arbitrate: each output accepts one packet this cycle. We scan
        // inputs starting from a per-output round-robin pointer so a hot
        // output is shared fairly.
        for (sim::NodeId out = 0; out < ports; ++out) {
            for (sim::NodeId k = 0; k < ports; ++k) {
                const sim::NodeId in = (rrPointer_[out] + k) % ports;
                auto &q = inputQueues_[in];
                if (q.empty() || q.front().dst != out)
                    continue;
                Packet<Payload> pkt = std::move(q.front());
                q.pop_front();
                pkt.hops = 1;
                inFlight_.push(this->now_ + latency_ - 1, std::move(pkt));
                rrPointer_[out] = (in + 1) % ports;
                break;
            }
        }

        // Packets still queued are blocked (head-of-line or lost
        // arbitration): account the contention.
        for (const auto &q : inputQueues_)
            this->stats_.blockedCycles.inc(q.size());

        while (!inFlight_.empty() && inFlight_.minKey() <= this->now_)
            this->deliver(inFlight_.pop());
        this->flushFaultDelayed();
    }

    sim::Cycle
    nextDelivery() const override
    {
        // Queued packets need per-cycle arbitration (and accrue
        // blockedCycles), so no skipping while any input queue is live.
        for (const auto &q : inputQueues_)
            if (!q.empty())
                return this->now_;
        return this->nextDeliveryFrom(
            inFlight_.empty() ? sim::neverCycle : inFlight_.minKey() - 1);
    }

    NetOccupancy
    occupancy() const override
    {
        std::size_t queued = 0;
        for (const auto &q : inputQueues_)
            queued += q.size();
        return this->occupancyFrom(queued, inFlight_.size());
    }

    void reset() override { sim::state::reset(*this); }

    /** Run state; configuration is rebuilt by the owner. */
    template <class V>
    void
    visitState(V &v)
    {
        Network<Payload>::visitState(v);
        v(this->now_, sim::state::fixed(inputQueues_),
          sim::state::fixed(rrPointer_), inFlight_, this->arrivals_);
    }

  private:
    sim::Cycle latency_;
    std::vector<sim::RingQueue<Packet<Payload>>> inputQueues_;
    std::vector<sim::NodeId> rrPointer_;
    sim::EventHeap<Packet<Payload>> inFlight_;
};

} // namespace net

#endif // TTDA_NET_CROSSBAR_HH
