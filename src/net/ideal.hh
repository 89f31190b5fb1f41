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
        : Network<Payload>(ports), latency_(latency), jitter_(jitter),
          rng_(seed)
    {
        SIM_ASSERT(latency >= 1);
    }

    void
    send(sim::NodeId src, sim::NodeId dst, Payload payload) override
    {
        Packet<Payload> pkt = this->stamp(src, dst, std::move(payload));
        const sim::Cycle delay =
            latency_ + (jitter_ ? rng_.delay(0, jitter_) : 0);
        inFlight_.push(this->now_ + delay, std::move(pkt));
    }

    void
    step(sim::Cycle now) override
    {
        this->now_ = now + 1;
        while (!inFlight_.empty() && inFlight_.minKey() <= this->now_) {
            Packet<Payload> pkt = inFlight_.pop();
            pkt.hops = 1;
            this->deliver(std::move(pkt));
        }
        this->flushFaultDelayed();
    }

    sim::Cycle
    nextDelivery() const override
    {
        return this->nextDeliveryFrom(
            inFlight_.empty() ? sim::neverCycle : inFlight_.minKey() - 1);
    }

    NetOccupancy
    occupancy() const override
    {
        return this->occupancyFrom(0, inFlight_.size());
    }

    void reset() override { sim::state::reset(*this); }

    /** Run state; configuration is rebuilt by the owner. */
    template <class V>
    void
    visitState(V &v)
    {
        Network<Payload>::visitState(v);
        v(this->now_, rng_, inFlight_, this->arrivals_);
    }

  private:
    sim::Cycle latency_;
    sim::Cycle jitter_;
    sim::Rng rng_; //!< jitter stream; reset replays it from the seed
    sim::EventHeap<Packet<Payload>> inFlight_;
};

} // namespace net

#endif // TTDA_NET_IDEAL_HH
