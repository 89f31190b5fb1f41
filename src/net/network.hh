/**
 * @file
 * Abstract interconnection network interface (the "communication
 * elements" of the paper's Figure 1-1).
 *
 * All topologies are cycle-stepped and model two properties the paper's
 * argument rests on:
 *
 *  - bounded port bandwidth: at most one packet is injected per source
 *    port per cycle, and at most one packet is delivered per destination
 *    port per cycle (receive() pops one arrival);
 *  - latency that grows with machine size and contention, so memory
 *    responses can return out of order.
 *
 * The base class owns what every topology shares: the port count, the
 * cycle clock, the per-port arrival queues and receive(), packet
 * stamping for send(), the fault-injection choke point deliver() with
 * its delay holds, and an idle() derived from occupancy(). A topology
 * keeps only its routing, its service queues and its transit schedule:
 * it writes send(), step(), nextDelivery(), occupancy(), reset() and
 * visitState().
 *
 * Networks are templated on the payload type so the same topology model
 * carries dataflow tokens, von Neumann memory transactions, or plain
 * test payloads.
 */

#ifndef TTDA_NET_NETWORK_HH
#define TTDA_NET_NETWORK_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/eventheap.hh"
#include "common/fault.hh"
#include "common/format.hh"
#include "common/logging.hh"
#include "common/ringqueue.hh"
#include "common/state.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"

namespace net
{

namespace detail
{
template <typename Payload>
class ArrivalQueues;
} // namespace detail

/** Aggregate traffic statistics kept by every network model. */
struct NetStats
{
    sim::Counter sent;          //!< packets injected
    sim::Counter delivered;     //!< packets handed to receive()
    sim::Accumulator latency;   //!< cycles from send to arrival
    sim::Accumulator hops;      //!< switch hops traversed
    sim::Counter blockedCycles; //!< packet-cycles spent queued on links

    template <class V>
    void
    visitState(V &v)
    {
        v(sent, delivered, latency, hops, blockedCycles);
    }
};

/**
 * Instantaneous occupancy snapshot of a network, for time-series
 * metrics. `queued` counts packets sitting in any internal service
 * queue or undrained arrival queue; `inFlight` counts packets in
 * timed transit between switches (including fault-delayed holds).
 */
struct NetOccupancy
{
    std::size_t queued = 0;
    std::size_t inFlight = 0;
};

/**
 * A packet in flight: payload plus the bookkeeping the timing models
 * need. The network never inspects the payload.
 */
template <typename Payload>
struct Packet
{
    sim::NodeId src = sim::invalidNode;
    sim::NodeId dst = sim::invalidNode;
    sim::Cycle issued = 0;  //!< cycle the packet entered the network
    std::uint32_t hops = 0; //!< switch traversals so far
    Payload payload{};

    template <class V>
    void
    visitState(V &v)
    {
        v(src, dst, issued, hops, payload);
    }
};

/**
 * Interface shared by every topology model, and the state they all
 * keep.
 *
 * Usage per simulated cycle: any number of send() calls (the models
 * queue excess injections), then one step(), then receive() per port to
 * drain that port's single-arrival budget.
 */
template <typename Payload>
class Network
{
  public:
    virtual ~Network() = default;

    /** Number of ports (== number of attached nodes). */
    sim::NodeId numPorts() const { return ports_; }

    /** Inject a packet at port src bound for port dst. */
    virtual void send(sim::NodeId src, sim::NodeId dst, Payload payload) = 0;

    /**
     * Advance the network by one cycle. @param now the current cycle.
     * A topology sets `now_ = now + 1`, moves its packets, hands those
     * that reach their port to deliver(), then calls
     * flushFaultDelayed().
     */
    virtual void step(sim::Cycle now) = 0;

    /** Pop one packet that has arrived at dst, if any. */
    virtual std::optional<Payload>
    receive(sim::NodeId dst)
    {
        Packet<Payload> *pkt = arrivals_.front(dst);
        if (pkt == nullptr)
            return std::nullopt;
        noteDeliver(pkt->src, pkt->dst, pkt->issued, pkt->hops, now_);
        std::optional<Payload> payload(std::move(pkt->payload));
        arrivals_.popFront(dst);
        return payload;
    }

    /** True when no packets are queued or in flight anywhere. */
    virtual bool
    idle() const
    {
        const NetOccupancy occ = occupancy();
        return occ.queued == 0 && occ.inFlight == 0;
    }

    /**
     * Earliest cycle at which step() must next be called so no packet
     * movement is missed — the hook that lets an event-driven scheduler
     * skip dead cycles.
     *
     * Contract (where `now` is the machine cycle about to execute, i.e.
     * the argument the machine would pass to the next step() call):
     *
     *  - returns `now` when any internal service/arbitration queue or
     *    undrained arrival backlog exists (the network needs every
     *    cycle to arbitrate — no skipping);
     *  - otherwise returns (min in-flight ready key) - 1, because a
     *    packet scheduled to materialise at cycle key is retired by
     *    step(key - 1) and consumed by the machine at cycle key;
     *  - returns sim::neverCycle when completely idle.
     *
     * Skipping straight to the returned cycle and calling step() there
     * is guaranteed to produce bit-identical deliveries and statistics
     * to stepping every intervening cycle. A topology returns `now_`
     * while a service queue is live, and otherwise
     * nextDeliveryFrom() of its transit schedule.
     */
    virtual sim::Cycle nextDelivery() const = 0;

    /** Instantaneous queue depth and in-flight packet count; a cheap
     *  O(ports) walk at most, safe to call every metrics sample. A
     *  topology returns occupancyFrom() of its own queues. */
    virtual NetOccupancy occupancy() const = 0;

    const NetStats &stats() const { return stats_; }

    /**
     * Return the network to its just-constructed run state: every
     * queue, in-flight schedule and traffic statistic cleared, while
     * configuration (topology wiring, latency parameters, dead links,
     * attached tracer/fault injector) survives. The serving fast path
     * relies on this to reuse a machine's fabric across epochs instead
     * of reconstructing it. Every topology implements it as
     * `sim::state::reset(*this)` over its visitState field list.
     */
    virtual void reset() = 0;

    /**
     * The run state shared by every topology: the traffic statistics
     * and the fault-delayed packet heap. A topology's own visitState
     * visits this first, and visits `now_` and `arrivals_` itself,
     * where its snapshot layout has them. Not virtual: the visitors
     * are templates, and a virtual would force payload codecs to
     * exist for every instantiated payload type, so a snapshot owner
     * dispatches on the concrete topology instead.
     */
    template <class V>
    void
    visitState(V &v)
    {
        v(stats_, faultDelayed_);
    }

    /** Enable `net` trace events. `pid` is the Chrome-trace process
     *  the network's tracks live under; ports become its threads.
     *  Virtual so decorators (ReliableNet) can forward it inward. */
    virtual void
    setTracer(sim::Tracer *tracer, std::uint32_t pid)
    {
        tracer_ = tracer;
        tracePid_ = pid;
    }

    /** Attach (or detach, with nullptr) a fault injector; every packet
     *  reaching this network's delivery point is then submitted to it.
     *  Virtual so decorators can choose which layer suffers faults. */
    virtual void
    setFaultInjector(sim::fault::FaultInjector *faults)
    {
        faults_ = faults;
    }

  protected:
    explicit Network(sim::NodeId ports) : ports_(ports), arrivals_(ports)
    {
        SIM_ASSERT(ports > 0);
    }

    /**
     * A packet entering at src for dst this cycle, counted as sent:
     * every topology's send() builds its packet here, so the `sent`
     * counter and the `inj` trace event are emitted uniformly.
     */
    Packet<Payload>
    stamp(sim::NodeId src, sim::NodeId dst, Payload payload)
    {
        SIM_ASSERT(src < ports_ && dst < ports_);
        noteSend(src, dst, now_);
        return Packet<Payload>{src, dst, now_, 0, std::move(payload)};
    }

    /** Count a packet from src to dst issued at `issued` as sent and
     *  emit its `inj` trace event. */
    void
    noteSend(sim::NodeId src, sim::NodeId dst, sim::Cycle issued)
    {
        stats_.sent.inc();
        SIM_TRACE(tracer_, Net, instant, tracePid_, src, "inj", issued,
                  sim::format("\"dst\":{}", dst));
    }

    /**
     * Count a packet as delivered at `now`: the delivered/latency/hops
     * statistics and the `dlv` trace event, for receive().
     */
    void
    noteDeliver(sim::NodeId src, sim::NodeId dst, sim::Cycle issued,
                std::uint32_t hops, sim::Cycle now)
    {
        stats_.delivered.inc();
        stats_.latency.sample(static_cast<double>(now - issued));
        stats_.hops.sample(static_cast<double>(hops));
        SIM_TRACE(tracer_, Net, instant, tracePid_, dst, "dlv", now,
                  sim::format("\"src\":{},\"lat\":{},\"hops\":{}",
                              src, now - issued, hops));
    }

    /**
     * Shared delivery hook: every topology pushes a completed packet
     * into the arrival queues through here, which is therefore the one
     * place fault injection acts. Without an injector this is exactly
     * the old direct push (one null check). With one, the packet's
     * fate is drawn from the injector's deterministic stream: dropped
     * and detected-corrupt packets vanish (counted by the injector),
     * duplicates are enqueued twice, and delay-spiked packets park in
     * faultDelayed_ until flushFaultDelayed() releases them. A packet
     * is judged exactly once — redelivery after a delay spike is not
     * re-submitted.
     */
    void
    deliver(Packet<Payload> &&pkt)
    {
        if (!faults_) {
            arrivals_.push(pkt.dst, std::move(pkt));
            return;
        }
        const sim::fault::PacketFate fate =
            faults_->onPacket(now_, pkt.src, pkt.dst);
        using Action = sim::fault::PacketFate::Action;
        switch (fate.action) {
          case Action::Deliver:
            arrivals_.push(pkt.dst, std::move(pkt));
            break;
          case Action::Drop:
            SIM_TRACE(tracer_, Net, instant, tracePid_, pkt.dst,
                      fate.scheduled ? "flinkdown" : "fdrop", now_,
                      sim::format("\"src\":{}", pkt.src));
            break;
          case Action::Duplicate: {
            SIM_TRACE(tracer_, Net, instant, tracePid_, pkt.dst,
                      "fdup", now_, sim::format("\"src\":{}", pkt.src));
            Packet<Payload> copy = pkt;
            arrivals_.push(pkt.dst, std::move(copy));
            arrivals_.push(pkt.dst, std::move(pkt));
            break;
          }
          case Action::Corrupt:
            SIM_TRACE(tracer_, Net, instant, tracePid_, pkt.dst,
                      "fcorrupt", now_,
                      sim::format("\"src\":{}", pkt.src));
            break;
          case Action::Delay:
            SIM_TRACE(tracer_, Net, instant, tracePid_, pkt.dst,
                      "fdelay", now_,
                      sim::format("\"src\":{},\"extra\":{}", pkt.src,
                                  fate.extraDelay));
            faultDelayed_.push(now_ + fate.extraDelay, std::move(pkt));
            break;
        }
    }

    /** Release delay-spiked packets whose hold expired; topologies
     *  call this from step() after their own arrival processing. */
    void
    flushFaultDelayed()
    {
        while (!faultDelayed_.empty() && faultDelayed_.minKey() <= now_)
        {
            Packet<Payload> pkt = faultDelayed_.pop();
            arrivals_.push(pkt.dst, std::move(pkt));
        }
    }

    /**
     * nextDelivery() once the topology's service queues are empty and
     * `transit` is its earliest in-flight ready key minus one
     * (sim::neverCycle when nothing is in transit): `now_` while an
     * arrival waits to be received, else `transit` clamped to the
     * earliest delay-hold release (flushed by step(key - 1)).
     */
    sim::Cycle
    nextDeliveryFrom(sim::Cycle transit) const
    {
        if (!arrivals_.empty())
            return now_;
        if (faultDelayed_.empty())
            return transit;
        return std::min(transit, faultDelayed_.minKey() - 1);
    }

    /** occupancy() of a topology with `queued` packets in its service
     *  queues and `inFlight` in timed transit, plus the undrained
     *  arrivals (queued) and the delay holds (in flight). */
    NetOccupancy
    occupancyFrom(std::size_t queued, std::size_t inFlight) const
    {
        return {queued + arrivals_.totalQueued(),
                inFlight + faultDelayed_.size()};
    }

    sim::NodeId ports_;
    sim::Cycle now_ = 0; //!< cycle of the next step(); stamps sends
    detail::ArrivalQueues<Payload> arrivals_;
    NetStats stats_;
    sim::Tracer *tracer_ = nullptr;
    std::uint32_t tracePid_ = 0;
    sim::fault::FaultInjector *faults_ = nullptr;
    sim::EventHeap<Packet<Payload>> faultDelayed_;
};

namespace detail
{

/** FIFO of arrived packets per destination port, drained 1/cycle. */
template <typename Payload>
class ArrivalQueues
{
  public:
    explicit ArrivalQueues(std::size_t ports) : queues_(ports) {}

    void
    push(sim::NodeId dst, Packet<Payload> pkt)
    {
        queues_[dst].push_back(std::move(pkt));
    }

    /** The oldest packet waiting at dst, or null. */
    Packet<Payload> *
    front(sim::NodeId dst)
    {
        auto &q = queues_[dst];
        return q.empty() ? nullptr : &q.front();
    }

    void popFront(sim::NodeId dst) { queues_[dst].pop_front(); }

    bool
    empty() const
    {
        for (const auto &q : queues_)
            if (!q.empty())
                return false;
        return true;
    }

    std::size_t
    totalQueued() const
    {
        std::size_t n = 0;
        for (const auto &q : queues_)
            n += q.size();
        return n;
    }

    /** One FIFO per port, in port order. */
    template <class V>
    void
    visitState(V &v)
    {
        v(sim::state::fixed(queues_));
    }

  private:
    std::vector<sim::RingQueue<Packet<Payload>>> queues_;
};

} // namespace detail

} // namespace net

#endif // TTDA_NET_NETWORK_HH
