/**
 * @file
 * IdealNetwork: constant-latency, contention-free interconnect.
 *
 * The control case for every experiment: infinite bandwidth inside the
 * fabric (arrival queues still drain one packet per port per cycle),
 * fixed or uniformly jittered latency. With jitter enabled, responses
 * arrive out of order — the property the paper says a scalable processor
 * must tolerate (Issue 1).
 *
 * Without jitter, packets leave in the order they were sent, so they
 * wait in a FIFO; only jitter needs the heap.
 */

#ifndef TTDA_NET_IDEAL_HH
#define TTDA_NET_IDEAL_HH

#include <algorithm>
#include <utility>

#include "common/eventheap.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/ringqueue.hh"
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
        if (jitter_ == 0) {
            inOrder_.push_back(Timed{this->now_ + latency_,
                                     this->stamp(src, dst,
                                                 std::move(payload))});
            return;
        }
        Packet<Payload> pkt = this->stamp(src, dst, std::move(payload));
        const sim::Cycle delay = latency_ + rng_.delay(0, jitter_);
        inFlight_.push(this->now_ + delay, std::move(pkt));
    }

    void
    step(sim::Cycle now) override
    {
        this->now_ = now + 1;
        while (!inOrder_.empty() && inOrder_.front().ready <= this->now_) {
            Packet<Payload> pkt = std::move(inOrder_.front().pkt);
            inOrder_.pop_front();
            pkt.hops = 1;
            this->deliver(std::move(pkt));
        }
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
        sim::Cycle ready = sim::neverCycle;
        if (!inOrder_.empty())
            ready = inOrder_.front().ready;
        if (!inFlight_.empty())
            ready = std::min(ready, inFlight_.minKey());
        return this->nextDeliveryFrom(
            ready == sim::neverCycle ? ready : ready - 1);
    }

    NetOccupancy
    occupancy() const override
    {
        return this->occupancyFrom(0, inOrder_.size() + inFlight_.size());
    }

    void reset() override { sim::state::reset(*this); }

    /** Run state; configuration is rebuilt by the owner. */
    template <class V>
    void
    visitState(V &v)
    {
        Network<Payload>::visitState(v);
        v(this->now_, rng_, inFlight_, inOrder_, this->arrivals_);
    }

  private:
    /** A packet in transit and the cycle it arrives. */
    struct Timed
    {
        sim::Cycle ready = 0;
        Packet<Payload> pkt;

        template <class V>
        void
        visitState(V &v)
        {
            v(ready, pkt);
        }
    };

    sim::Cycle latency_;
    sim::Cycle jitter_;
    sim::Rng rng_; //!< jitter stream; reset replays it from the seed
    sim::EventHeap<Packet<Payload>> inFlight_; //!< jitter > 0
    sim::RingQueue<Timed> inOrder_;            //!< jitter == 0, send order
};

} // namespace net

#endif // TTDA_NET_IDEAL_HH
