/**
 * @file
 * End-to-end reliability decorator for lossy fabrics.
 *
 * ReliableNet wraps any Network<Envelope<Payload>> and presents the
 * plain Network<Payload> interface, adding the protocol a machine
 * needs to survive the sim::fault injector:
 *
 *  - every logical send becomes a sequence-numbered Data envelope on a
 *    per-(src,dst) stream;
 *  - the receiver acknowledges every Data envelope (including
 *    duplicates, so a lost ACK cannot strand the sender) and delivers
 *    each sequence number at most once, tolerating reordering via a
 *    watermark, a 64-seq bitmap above it, and an ordered set for seqs
 *    beyond the bitmap (RxWindow);
 *  - the sender retransmits unacknowledged envelopes after a timeout
 *    with bounded exponential backoff, giving up (and counting the
 *    abandonment) after maxAttempts — the hook deadlock forensics use
 *    to tell "stranded by loss" from a genuine protocol deadlock.
 *
 * The protocol state is dense: one Stream per (src,dst) pair, indexed
 * src * ports + dst, each holding a ring of its unacknowledged sends
 * and its receive window.
 *
 * The fault injector is attached to the *inner* network, so Data and
 * Ack envelopes are equally at risk; the wrapper is the recovery layer
 * the paper's transaction-style memory requests (Section 2.3) assume.
 *
 * Determinism: the protocol consumes no randomness. Retransmit order
 * is fixed by the (deadline, insertion-order) key over its two timer
 * queues, a FIFO of first-send deadlines and a heap of backed-off
 * ones, and the machines call it in a fixed order within the tick, so
 * runs replay bit-identically.
 */

#ifndef TTDA_NET_RELIABLE_HH
#define TTDA_NET_RELIABLE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/eventheap.hh"
#include "common/logging.hh"
#include "common/ringqueue.hh"
#include "common/state.hh"
#include "net/network.hh"

namespace net
{

/** Retransmission policy for ReliableNet. */
struct RetryConfig
{
    sim::Cycle timeout = 64;       //!< cycles before first retransmit
    std::uint32_t maxAttempts = 10; //!< total transmissions before giving up
    std::uint32_t backoffCap = 5;  //!< max doublings of the timeout
};

/** Backoff before the next retransmit once `attempts` transmissions
 *  of an envelope have been made: timeout << min(attempts-1, cap). */
sim::Cycle backoffDelay(const RetryConfig &cfg, std::uint32_t attempts);

/** Protocol-level counters kept by ReliableNet. */
struct RelStats
{
    sim::Counter retransmits;  //!< Data envelopes resent on timeout
    sim::Counter abandoned;    //!< sends given up after maxAttempts
    sim::Counter rxDuplicates; //!< Data envelopes deduplicated at rx
    sim::Counter acksSent;
    sim::Counter staleAcks;    //!< ACKs for already-completed sends

    template <class V>
    void
    visitState(V &v)
    {
        v(retransmits, abandoned, rxDuplicates, acksSent, staleAcks);
    }
};

/** The wire format: a payload plus the protocol header. */
template <typename Payload>
struct Envelope
{
    enum class Kind : std::uint8_t { Data, Ack };

    Kind kind = Kind::Data;
    sim::NodeId origin = sim::invalidNode; //!< sender of this envelope
    sim::NodeId target = sim::invalidNode;
    std::uint64_t seq = 0;  //!< per-(src,dst)-stream sequence number
    sim::Cycle issued = 0;  //!< original logical send cycle
    Payload payload{};

    template <class V>
    void
    visitState(V &v)
    {
        v(sim::state::bounded(kind, Kind::Ack, "bad envelope kind"),
          origin, target, seq, issued, payload);
    }
};

/**
 * The receive side of one stream: which sequence numbers have been
 * delivered. Every seq below the watermark has been; of the seqs above
 * it, the next 64 are a bitmap and the rest, present only after a gap
 * of more than 64, an ordered set.
 */
class RxWindow
{
  public:
    /** True the first time `seq` is offered, false for a duplicate. */
    bool
    accept(std::uint64_t seq)
    {
        const std::uint64_t w = watermark();
        if (seq < w)
            return false;
        if (seq > w) {
            const std::uint64_t ahead = seq - w - 1;
            if (ahead >= 64)
                return far_.insert(seq).second;
            const std::uint64_t bit = std::uint64_t{1} << ahead;
            if (bits_ & bit)
                return false;
            bits_ |= bit;
            return true;
        }
        // The watermark itself: it and the seen run right above it
        // drop below the new watermark, which the far set may name.
        do {
            const int run = std::countr_one(bits_);
            below_ += 1 + static_cast<std::uint64_t>(run);
            bits_ = run >= 63 ? 0 : bits_ >> (run + 1);
        } while (pullFar());
        return true;
    }

    /** The lowest seq not yet delivered; seqs start at 1. */
    std::uint64_t watermark() const { return below_ + 1; }

    /** Nothing delivered and nothing seen. */
    bool
    fresh() const
    {
        return below_ == 0 && bits_ == 0 && far_.empty();
    }

    /** The far set holds only seqs beyond the bitmap; false for loaded
     *  bytes that break this. */
    bool
    consistent() const
    {
        return far_.empty() || *far_.begin() > watermark() + 64;
    }

    template <class V>
    void
    visitState(V &v)
    {
        v(below_, bits_, far_);
    }

  private:
    /** Move the far seqs the bitmap now covers into it. True when one
     *  of them is the watermark, which must then slide again. */
    bool
    pullFar()
    {
        bool atWatermark = false;
        while (!far_.empty() && *far_.begin() <= watermark() + 64) {
            const std::uint64_t seq = *far_.begin();
            far_.erase(far_.begin());
            if (seq == watermark())
                atWatermark = true;
            else
                bits_ |= std::uint64_t{1} << (seq - watermark() - 1);
        }
        return atWatermark;
    }

    std::uint64_t below_ = 0; //!< every seq <= below_ was delivered
    std::uint64_t bits_ = 0;  //!< bit i: seq watermark() + 1 + i seen
    std::set<std::uint64_t> far_; //!< seen seqs > watermark() + 64
};

/** Reliability decorator: at-most-once delivery with retransmission. */
template <typename Payload>
class ReliableNet : public Network<Payload>
{
    static_assert(std::is_copy_constructible_v<Payload>,
                  "ReliableNet keeps a copy of each unacknowledged "
                  "payload for retransmission");

  public:
    using Env = Envelope<Payload>;

    explicit ReliableNet(std::unique_ptr<Network<Env>> inner,
                         RetryConfig cfg = {})
        : Network<Payload>(portsOf(inner)), inner_(std::move(inner)),
          cfg_(cfg), proto_(this->ports_)
    {
        SIM_ASSERT(cfg_.timeout >= 1);
        SIM_ASSERT(cfg_.maxAttempts >= 1);
    }

    void
    send(sim::NodeId src, sim::NodeId dst, Payload payload) override
    {
        const std::uint32_t s = streamOf(src, dst);
        Stream &st = proto_.streams[s];
        const std::uint64_t seq = ++st.sent;
        this->noteSend(src, dst, this->now_);

        const sim::Cycle deadline = this->now_ + cfg_.timeout;
        // The slot keeps a retransmission copy of the payload.
        st.slots.push_back(Slot{payload, this->now_, deadline, 1, true});
        proto_.firstTimers.push_back(
            Timer{deadline, proto_.timerOrder++, s, seq});
        ++proto_.pending;

        inner_->send(src, dst,
                     Env{Env::Kind::Data, src, dst, seq, this->now_,
                         std::move(payload)});
    }

    void
    step(sim::Cycle now) override
    {
        this->now_ = now + 1;
        inner_->step(now);
        // Fire expired retransmission timers. A timer whose send was
        // acknowledged, abandoned or rescheduled since is stale and
        // dropped here.
        Timer t;
        while (proto_.popDue(this->now_, t)) {
            Slot *p = proto_.find(t.stream, t.seq);
            if (p == nullptr || !p->live || p->deadline != t.deadline)
                continue;
            if (p->attempts >= cfg_.maxAttempts) {
                relStats_.abandoned.inc();
                proto_.settle(t.stream, *p);
                continue;
            }
            p->attempts += 1;
            relStats_.retransmits.inc();
            p->deadline = this->now_ + backoffDelay(cfg_, p->attempts);
            proto_.retryTimers.push(
                p->deadline,
                Timer{p->deadline, proto_.timerOrder++, t.stream, t.seq});

            // Send a copy: the send may need to go again.
            const sim::NodeId src = t.stream / this->ports_;
            const sim::NodeId dst = t.stream % this->ports_;
            inner_->send(src, dst,
                         Env{Env::Kind::Data, src, dst, t.seq, p->issued,
                             p->payload});
        }
    }

    std::optional<Payload>
    receive(sim::NodeId dst) override
    {
        // ACKs and duplicates are protocol overhead, not deliveries:
        // consume them without charging the port's one-arrival budget
        // and hand the machine the first fresh Data payload.
        for (;;) {
            std::optional<Env> env = inner_->receive(dst);
            if (!env)
                return std::nullopt;
            if (env->kind == Env::Kind::Ack) {
                // The ACK's origin is the data receiver, so the acked
                // stream is (dst -> origin).
                const std::uint32_t s = streamOf(dst, env->origin);
                Slot *p = proto_.find(s, env->seq);
                if (p != nullptr && p->live)
                    proto_.settle(s, *p);
                else
                    relStats_.staleAcks.inc();
                continue;
            }
            // Data on stream (origin -> dst). Acknowledge every copy:
            // a duplicate usually means our previous ACK was lost.
            inner_->send(dst, env->origin,
                         Env{Env::Kind::Ack, dst, env->origin, env->seq,
                             this->now_, Payload{}});
            relStats_.acksSent.inc();

            RxWindow &rx = proto_.streams[streamOf(env->origin, dst)].rx;
            if (!rx.accept(env->seq)) {
                relStats_.rxDuplicates.inc();
                continue;
            }
            this->noteDeliver(env->origin, dst, env->issued, 0, this->now_);
            return std::move(env->payload);
        }
    }

    /** Pending sends first: the inner idle() walks every queue. */
    bool
    idle() const override
    {
        return proto_.pending == 0 && inner_->idle();
    }

    sim::Cycle
    nextDelivery() const override
    {
        sim::Cycle next = inner_->nextDelivery();
        // Stale timers can only wake the machine early (step() drops
        // them), never late, so the earliest deadline is a safe bound.
        const sim::Cycle due = proto_.nextDeadline();
        if (proto_.pending != 0 && due != sim::neverCycle)
            next = std::min(next, due - 1);
        return next;
    }

    /** Occupancy of the wrapped fabric, in envelopes (Data + Ack).
     *  Unacked sends awaiting retransmission are a protocol-level
     *  quantity, reported separately via pendingCount(). */
    NetOccupancy
    occupancy() const override
    {
        return inner_->occupancy();
    }

    void
    setTracer(sim::Tracer *tracer, std::uint32_t pid) override
    {
        Network<Payload>::setTracer(tracer, pid);
        inner_->setTracer(tracer, pid);
    }

    /** Faults are injected on the inner fabric so both Data and Ack
     *  envelopes are exposed; this wrapper is the recovery layer. */
    void
    setFaultInjector(sim::fault::FaultInjector *faults) override
    {
        inner_->setFaultInjector(faults);
    }

    /** The protocol state and this decorator's own base slice, then
     *  the wrapped fabric. */
    void
    reset() override
    {
        sim::state::reset(*this);
        inner_->reset();
    }

    const RelStats &relStats() const { return relStats_; }
    const RetryConfig &retry() const { return cfg_; }
    /** Envelope-level traffic statistics of the wrapped fabric. */
    const NetStats &innerStats() const { return inner_->stats(); }
    /** Sends still awaiting acknowledgement (forensics hook). */
    std::size_t pendingCount() const { return proto_.pending; }

    /** The wrapped fabric, for checkpointing: its run state is not in
     *  visitState, so the owner, who knows the concrete topology,
     *  visits it separately. */
    Network<Env> &inner() { return *inner_; }

    /** The protocol run state (every stream's sends and receive
     *  window, the retransmit timers, the counters) and this
     *  decorator's traffic statistics and clock. It never calls
     *  deliver(), so the base's delay holds are not visited. */
    template <class V>
    void
    visitState(V &v)
    {
        v(this->stats_, this->now_, proto_, relStats_);
    }

  private:
    /** An unacknowledged send, kept for retransmission. */
    struct Slot
    {
        Payload payload{};
        sim::Cycle issued = 0;
        sim::Cycle deadline = 0;
        std::uint32_t attempts = 0;
        bool live = false; //!< false once acknowledged or abandoned

        template <class V>
        void
        visitState(V &v)
        {
            v(payload, issued, deadline, attempts, live);
        }
    };

    /** One src -> dst stream: the sender's unsettled sends and the
     *  receiver's window. */
    struct Stream
    {
        std::uint64_t sent = 0;  //!< seqs 1..sent have been sent
        std::uint64_t acked = 0; //!< every seq <= acked is settled
        /** Seqs acked+1..sent; seq's slot is at seq - acked - 1. */
        sim::RingQueue<Slot> slots{0};
        RxWindow rx;

        bool fresh() const { return sent == 0 && rx.fresh(); }

        template <class V>
        void
        visitState(V &v)
        {
            v(sent, acked, slots, rx);
        }
    };

    /** A retransmit deadline for one send. `order` is the insertion
     *  order across both timer queues, the tie-break among equal
     *  deadlines. */
    struct Timer
    {
        sim::Cycle deadline = 0;
        std::uint64_t order = 0;
        std::uint32_t stream = 0;
        std::uint64_t seq = 0;

        bool
        before(const Timer &o) const
        {
            return deadline != o.deadline ? deadline < o.deadline
                                          : order < o.order;
        }

        template <class V>
        void
        visitState(V &v)
        {
            v(deadline, order, stream, seq);
        }
    };

    /**
     * The protocol state, indexed by stream src * ports + dst. A first
     * transmission's deadline is now + timeout, which never decreases,
     * so those timers queue in a FIFO; only backed-off retransmits need
     * the heap. step() pops the earlier of the two fronts by (deadline,
     * order), the order a single heap of both would pop.
     *
     * Its checkpoint codec writes the streams that differ from fresh as
     * (index, stream) pairs in ascending index order, then the timers,
     * and checks on load every bound the indexing relies on. The
     * pending count is not written: loading recounts the live slots.
     */
    struct Protocol
    {
        explicit Protocol(sim::NodeId ports)
            : streams(static_cast<std::size_t>(ports) * ports)
        {
        }

        /** The slot of `seq` on `stream`, or null when seq is at or
         *  below the stream's acked mark or was never sent. A slot
         *  found may already be settled. */
        Slot *
        find(std::uint32_t stream, std::uint64_t seq)
        {
            Stream &st = streams[stream];
            if (seq <= st.acked || seq > st.sent)
                return nullptr;
            return &st.slots.at(seq - st.acked - 1);
        }

        /** Acknowledged or abandoned: the send leaves the pending set,
         *  and settled slots at the front of its stream are released. */
        void
        settle(std::uint32_t stream, Slot &slot)
        {
            slot.live = false;
            --pending;
            Stream &st = streams[stream];
            while (!st.slots.empty() && !st.slots.front().live) {
                st.slots.pop_front();
                ++st.acked;
            }
        }

        /** Pop into `out` the earliest timer due by `now`, if any. */
        bool
        popDue(sim::Cycle now, Timer &out)
        {
            const bool first = !firstTimers.empty() &&
                               firstTimers.front().deadline <= now;
            const bool retry =
                !retryTimers.empty() && retryTimers.minKey() <= now;
            if (first &&
                (!retry || firstTimers.front().before(retryTimers.top()))) {
                out = firstTimers.front();
                firstTimers.pop_front();
                return true;
            }
            if (retry) {
                out = retryTimers.pop();
                return true;
            }
            return false;
        }

        /** The earliest timer deadline, stale ones included. */
        sim::Cycle
        nextDeadline() const
        {
            sim::Cycle next = sim::neverCycle;
            if (!firstTimers.empty())
                next = firstTimers.front().deadline;
            if (!retryTimers.empty())
                next = std::min(next, retryTimers.minKey());
            return next;
        }

        /** Every stream fresh, keeping each slot ring's storage. */
        void
        reset()
        {
            for (Stream &st : streams)
                sim::state::reset(st);
            sim::state::reset(firstTimers);
            sim::state::reset(retryTimers);
            timerOrder = 0;
            pending = 0;
        }

        template <class W>
        friend void
        snapSave(W &w, const Protocol &p)
        {
            std::uint64_t used = 0;
            for (const Stream &st : p.streams)
                used += st.fresh() ? 0 : 1;
            w.u64(used);
            for (std::size_t i = 0; i < p.streams.size(); ++i) {
                if (p.streams[i].fresh())
                    continue;
                w.u32(static_cast<std::uint32_t>(i));
                sim::state::save(w, p.streams[i]);
            }
            sim::state::save(w, p.firstTimers);
            sim::state::save(w, p.retryTimers);
            w.u64(p.timerOrder);
        }

        template <class R>
        friend void
        snapLoad(R &r, Protocol &p)
        {
            p.reset();
            const std::uint64_t used = r.u64();
            std::uint64_t next = 0; // lowest index the next may take
            for (std::uint64_t k = 0; k < used; ++k) {
                const std::uint32_t i = r.u32();
                if (i >= p.streams.size())
                    r.fail("reliable stream index beyond ports squared");
                if (i < next)
                    r.fail("reliable streams out of order");
                next = std::uint64_t{i} + 1;
                Stream &st = p.streams[i];
                sim::state::load(r, st);
                if (st.acked > st.sent ||
                    st.slots.size() != st.sent - st.acked)
                    r.fail("reliable slot count is not sent - acked");
                if (!st.rx.consistent())
                    r.fail("reliable receive window overlaps its far set");
                for (std::size_t j = 0; j < st.slots.size(); ++j)
                    p.pending += st.slots.at(j).live ? 1 : 0;
            }
            sim::state::load(r, p.firstTimers);
            sim::state::load(r, p.retryTimers);
            p.timerOrder = r.u64();
            sim::Cycle last = 0;
            for (std::size_t j = 0; j < p.firstTimers.size(); ++j) {
                const Timer &t = p.firstTimers.at(j);
                if (t.stream >= p.streams.size())
                    r.fail("reliable timer names a stream out of range");
                if (t.deadline < last)
                    r.fail("reliable first-send timers out of order");
                last = t.deadline;
            }
            bool retryInRange = true;
            p.retryTimers.forEachNode(
                [&](sim::Cycle, std::uint64_t, const Timer &t) {
                    retryInRange &= t.stream < p.streams.size();
                });
            if (!retryInRange)
                r.fail("reliable timer names a stream out of range");
        }

        std::vector<Stream> streams;
        sim::RingQueue<Timer> firstTimers{0};
        sim::EventHeap<Timer> retryTimers;
        std::uint64_t timerOrder = 0; //!< next Timer::order
        std::size_t pending = 0;      //!< live slots over all streams
    };

    static sim::NodeId
    portsOf(const std::unique_ptr<Network<Env>> &inner)
    {
        SIM_ASSERT(inner != nullptr);
        return inner->numPorts();
    }

    std::uint32_t
    streamOf(sim::NodeId src, sim::NodeId dst) const
    {
        SIM_ASSERT(src < this->ports_ && dst < this->ports_);
        return src * this->ports_ + dst;
    }

    std::unique_ptr<Network<Env>> inner_;
    RetryConfig cfg_;
    Protocol proto_;
    RelStats relStats_;
};

} // namespace net

#endif // TTDA_NET_RELIABLE_HH
