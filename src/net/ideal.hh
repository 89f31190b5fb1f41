/**
 * @file
 * IdealNetwork: constant-latency, contention-free interconnect.
 *
 * The control case for every experiment: infinite bandwidth inside the
 * fabric (arrival queues still drain one packet per port per cycle),
 * fixed or uniformly jittered latency. With jitter enabled, responses
 * arrive out of order — the property the paper says a scalable processor
 * must tolerate (Issue 1).
 */

#ifndef TTDA_NET_IDEAL_HH
#define TTDA_NET_IDEAL_HH

#include <utility>
#include <vector>

#include "common/eventheap.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "net/network.hh"

namespace net
{

/** Constant-latency (optionally jittered) contention-free network. */
template <typename Payload>
class IdealNetwork : public Network<Payload>
{
  public:
    /**
     * @param ports       number of attached nodes
     * @param latency     fixed transit latency in cycles (>= 1)
     * @param jitter      extra uniform random delay in [0, jitter]
     * @param seed        RNG seed for the jitter stream
     */
    IdealNetwork(sim::NodeId ports, sim::Cycle latency,
                 sim::Cycle jitter = 0, std::uint64_t seed = 1)
        : ports_(ports), latency_(latency), jitter_(jitter), rng_(seed),
          arrivals_(ports)
    {
        SIM_ASSERT(ports > 0);
        SIM_ASSERT(latency >= 1);
    }

    sim::NodeId numPorts() const override { return ports_; }

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
        const sim::Cycle delay =
            latency_ + (jitter_ ? rng_.delay(0, jitter_) : 0);
        inFlight_.push(now_ + delay, std::move(pkt));
    }

    void
    step(sim::Cycle now) override
    {
        now_ = now + 1;
        while (!inFlight_.empty() && inFlight_.minKey() <= now_) {
            Packet<Payload> pkt = inFlight_.pop();
            pkt.hops = 1;
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
        return inFlight_.empty() && arrivals_.empty() &&
               this->faultIdle();
    }

    sim::Cycle
    nextDelivery() const override
    {
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
        occ.queued = arrivals_.totalQueued();
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
        v(now_, rng_, inFlight_, arrivals_);
    }

  private:
    sim::NodeId ports_;
    sim::Cycle latency_;
    sim::Cycle jitter_;
    sim::Rng rng_; //!< jitter stream; reset replays it from the seed
    sim::Cycle now_ = 0;
    sim::EventHeap<Packet<Payload>> inFlight_;
    detail::ArrivalQueues<Payload> arrivals_;
};

} // namespace net

#endif // TTDA_NET_IDEAL_HH
