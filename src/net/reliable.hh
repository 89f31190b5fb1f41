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
 *    low-watermark + seen-set window;
 *  - the sender retransmits unacknowledged envelopes after a timeout
 *    with bounded exponential backoff, giving up (and counting the
 *    abandonment) after maxAttempts — the hook deadlock forensics use
 *    to tell "stranded by loss" from a genuine protocol deadlock.
 *
 * The fault injector is attached to the *inner* network, so Data and
 * Ack envelopes are equally at risk; the wrapper is the recovery layer
 * the paper's transaction-style memory requests (Section 2.3) assume.
 *
 * Determinism: the protocol consumes no randomness. Retransmit order
 * is fixed by the timer heap's (deadline, insertion-order) key, and
 * the machines call it in a fixed order within the tick, so runs
 * replay bit-identically.
 */

#ifndef TTDA_NET_RELIABLE_HH
#define TTDA_NET_RELIABLE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <type_traits>
#include <utility>

#include "common/eventheap.hh"
#include "common/logging.hh"
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
          cfg_(cfg)
    {
        SIM_ASSERT(cfg_.timeout >= 1);
        SIM_ASSERT(cfg_.maxAttempts >= 1);
    }

    void
    send(sim::NodeId src, sim::NodeId dst, Payload payload) override
    {
        const std::uint64_t seq = ++txSeq_[streamKey(src, dst)];
        Packet<Payload> logical;
        logical.src = src;
        logical.dst = dst;
        logical.issued = this->now_;
        this->noteSend(logical);

        PendingTx p;
        p.payload = payload; // retransmission copy
        p.issued = this->now_;
        p.attempts = 1;
        p.deadline = this->now_ + cfg_.timeout;
        const Key key{src, dst, seq};
        pending_.emplace(key, std::move(p));
        timers_.push(this->now_ + cfg_.timeout, key);

        Env env;
        env.kind = Env::Kind::Data;
        env.origin = src;
        env.target = dst;
        env.seq = seq;
        env.issued = this->now_;
        env.payload = std::move(payload);
        inner_->send(src, dst, std::move(env));
    }

    void
    step(sim::Cycle now) override
    {
        this->now_ = now + 1;
        inner_->step(now);
        // Fire expired retransmission timers. Each reschedule pushes a
        // fresh heap entry; entries whose deadline no longer matches
        // the pending record (acked or already rescheduled) are stale
        // and purged here.
        while (!timers_.empty() && timers_.minKey() <= this->now_) {
            const sim::Cycle due = timers_.minKey();
            const Key key = timers_.pop();
            auto it = pending_.find(key);
            if (it == pending_.end() || it->second.deadline != due)
                continue;
            PendingTx &p = it->second;
            if (p.attempts >= cfg_.maxAttempts) {
                relStats_.abandoned.inc();
                pending_.erase(it);
                continue;
            }
            p.attempts += 1;
            relStats_.retransmits.inc();
            p.deadline = this->now_ + backoffDelay(cfg_, p.attempts);
            timers_.push(p.deadline, key);

            Env env;
            env.kind = Env::Kind::Data;
            env.origin = key.src;
            env.target = key.dst;
            env.seq = key.seq;
            env.issued = p.issued;
            env.payload = p.payload; // copy; may need to resend again
            inner_->send(key.src, key.dst, std::move(env));
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
                auto it = pending_.find(Key{dst, env->origin, env->seq});
                if (it != pending_.end())
                    pending_.erase(it);
                else
                    relStats_.staleAcks.inc();
                continue;
            }
            // Data on stream (origin -> dst). Acknowledge every copy:
            // a duplicate usually means our previous ACK was lost.
            Env ack;
            ack.kind = Env::Kind::Ack;
            ack.origin = dst;
            ack.target = env->origin;
            ack.seq = env->seq;
            ack.issued = this->now_;
            inner_->send(dst, env->origin, std::move(ack));
            relStats_.acksSent.inc();

            RxStream &rx = rxStreams_[streamKey(env->origin, dst)];
            if (!rx.accept(env->seq)) {
                relStats_.rxDuplicates.inc();
                continue;
            }
            Packet<Payload> logical;
            logical.src = env->origin;
            logical.dst = dst;
            logical.issued = env->issued;
            this->noteDeliver(logical, this->now_);
            return std::move(env->payload);
        }
    }

    /** Pending sends first: the inner idle() walks every queue. */
    bool
    idle() const override
    {
        return pending_.empty() && inner_->idle();
    }

    sim::Cycle
    nextDelivery() const override
    {
        sim::Cycle next = inner_->nextDelivery();
        // Stale timer entries can only wake the machine early (step()
        // purges them), never late, so minKey() is a safe bound.
        if (!pending_.empty() && !timers_.empty())
            next = std::min(next, timers_.minKey() - 1);
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
    /** Envelope-level traffic statistics of the wrapped fabric. */
    const NetStats &innerStats() const { return inner_->stats(); }
    /** Sends still awaiting acknowledgement (forensics hook). */
    std::size_t pendingCount() const { return pending_.size(); }

    /** The wrapped fabric, for checkpointing: its run state is not in
     *  visitState, so the owner, who knows the concrete topology,
     *  visits it separately. */
    Network<Env> &inner() { return *inner_; }

    /** The protocol run state — per-stream tx sequence numbers, rx
     *  dedup windows, unacknowledged sends, retransmit timers,
     *  counters — plus this decorator's own base slice. */
    template <class V>
    void
    visitState(V &v)
    {
        Network<Payload>::visitState(v);
        v(this->now_, txSeq_, rxStreams_, pending_, timers_, relStats_);
    }

  private:
    struct Key
    {
        sim::NodeId src;
        sim::NodeId dst;
        std::uint64_t seq;

        bool
        operator<(const Key &o) const
        {
            if (src != o.src)
                return src < o.src;
            if (dst != o.dst)
                return dst < o.dst;
            return seq < o.seq;
        }

        template <class V>
        void
        visitState(V &v)
        {
            v(src, dst, seq);
        }
    };

    struct PendingTx
    {
        Payload payload{};
        sim::Cycle issued = 0;
        sim::Cycle deadline = 0;
        std::uint32_t attempts = 0;

        template <class V>
        void
        visitState(V &v)
        {
            v(payload, issued, deadline, attempts);
        }
    };

    /** Delivered-at-most-once window: every seq below the watermark is
     *  done; out-of-order fresh arrivals wait in `seen` until the gap
     *  below them closes. */
    struct RxStream
    {
        std::uint64_t watermark = 1; //!< seqs start at 1
        std::set<std::uint64_t> seen;

        bool
        accept(std::uint64_t seq)
        {
            if (seq < watermark || seen.count(seq))
                return false;
            seen.insert(seq);
            while (!seen.empty() && *seen.begin() == watermark) {
                seen.erase(seen.begin());
                ++watermark;
            }
            return true;
        }

        template <class V>
        void
        visitState(V &v)
        {
            v(watermark, seen);
        }
    };

    static sim::NodeId
    portsOf(const std::unique_ptr<Network<Env>> &inner)
    {
        SIM_ASSERT(inner != nullptr);
        return inner->numPorts();
    }

    static std::uint64_t
    streamKey(sim::NodeId src, sim::NodeId dst)
    {
        return (static_cast<std::uint64_t>(src) << 32) | dst;
    }

    std::unique_ptr<Network<Env>> inner_;
    RetryConfig cfg_;
    std::map<std::uint64_t, std::uint64_t> txSeq_;
    std::map<std::uint64_t, RxStream> rxStreams_;
    std::map<Key, PendingTx> pending_;
    sim::EventHeap<Key> timers_;
    RelStats relStats_;
};

} // namespace net

#endif // TTDA_NET_RELIABLE_HH
