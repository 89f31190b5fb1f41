/**
 * @file
 * OmegaNet: the NYU-Ultracomputer-style multistage shuffle-exchange
 * network (paper Section 1.2.3).
 *
 * n ports (power of two) connected through log2(n) stages of 2x2
 * switches. Each stage adds one cycle of latency, so the uncontended
 * transit time grows as log2(n) — precisely the latency-scaling the
 * paper's Issue 1 is about. Each switch output forwards one packet per
 * cycle; contending packets queue inside the switch.
 *
 * Combining of FETCH-AND-ADD packets is modelled separately by
 * CombiningOmega (combining_omega.hh), which reuses this routing.
 */

#ifndef TTDA_NET_OMEGA_HH
#define TTDA_NET_OMEGA_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "net/network.hh"

namespace net
{

namespace detail
{

/** True iff v is a nonzero power of two. */
constexpr bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Integer log2 of a power of two. */
constexpr std::uint32_t
log2(std::uint64_t v)
{
    std::uint32_t k = 0;
    while (v > 1) {
        v >>= 1;
        ++k;
    }
    return k;
}

/** Perfect-shuffle of an n-line bundle: rotate the k-bit line number
 *  left by one. */
constexpr std::uint32_t
shuffle(std::uint32_t line, std::uint32_t k)
{
    const std::uint32_t mask = (1u << k) - 1;
    return ((line << 1) | (line >> (k - 1))) & mask;
}

/**
 * The line a packet occupies after traversing stage `stage` of an omega
 * network with 2^k lines, given the destination port.
 *
 * At stage s the switch replaces the (shuffled) line's low bit with bit
 * (k-1-s) of the destination, which steers the packet to dst after the
 * final stage.
 */
constexpr std::uint32_t
omegaNextLine(std::uint32_t line, std::uint32_t stage, std::uint32_t k,
              std::uint32_t dst)
{
    const std::uint32_t shuffled = shuffle(line, k);
    const std::uint32_t bit = (dst >> (k - 1 - stage)) & 1u;
    return (shuffled & ~1u) | bit;
}

} // namespace detail

/** log2(n)-stage shuffle-exchange network of 2x2 switches. */
template <typename Payload>
class OmegaNet : public Network<Payload>
{
  public:
    /**
     * @param ports  number of ports; must be a power of two, >= 2
     */
    explicit OmegaNet(sim::NodeId ports)
        : Network<Payload>(ports), k_(detail::log2(ports))
    {
        SIM_ASSERT_MSG(detail::isPow2(ports) && ports >= 2,
                       "omega network needs a power-of-two port count, "
                       "got {}", ports);
        // stageQueues_[s][line]: packets waiting on `line` at the input
        // of stage s (line numbering is pre-shuffle for that stage).
        stageQueues_.assign(
            k_, std::vector<sim::RingQueue<Packet<Payload>>>(ports));
        rr_.assign(k_, std::vector<std::uint8_t>(ports / 2, 0));
    }

    std::uint32_t numStages() const { return k_; }

    void
    send(sim::NodeId src, sim::NodeId dst, Payload payload) override
    {
        stageQueues_[0][src].push_back(
            this->stamp(src, dst, std::move(payload)));
    }

    void
    step(sim::Cycle now) override
    {
        this->now_ = now + 1;

        // Process the last stage first so a packet advances at most one
        // stage per cycle.
        for (std::uint32_t s = k_; s-- > 0;) {
            auto &lines = stageQueues_[s];
            for (std::uint32_t sw = 0; sw < this->ports_ / 2; ++sw) {
                serveSwitch(s, sw, lines);
            }
            for (const auto &q : lines)
                this->stats_.blockedCycles.inc(q.size());
        }
        this->flushFaultDelayed();
    }

    sim::Cycle
    nextDelivery() const override
    {
        // Packets advance exactly one stage per step(), so any queued
        // packet means the network needs every cycle.
        for (const auto &stage : stageQueues_)
            for (const auto &q : stage)
                if (!q.empty())
                    return this->now_;
        return this->nextDeliveryFrom(sim::neverCycle);
    }

    NetOccupancy
    occupancy() const override
    {
        // Stage queues are the in-flight population here: a packet in
        // stage s has left its source and advances one stage per cycle.
        std::size_t inFlight = 0;
        for (const auto &stage : stageQueues_)
            for (const auto &q : stage)
                inFlight += q.size();
        return this->occupancyFrom(0, inFlight);
    }

    void reset() override { sim::state::reset(*this); }

    /** Run state; configuration is rebuilt by the owner. */
    template <class V>
    void
    visitState(V &v)
    {
        Network<Payload>::visitState(v);
        v(this->now_, sim::state::fixed(stageQueues_),
          sim::state::fixed(rr_), this->arrivals_);
    }

  private:
    /** The two input lines of switch sw at a stage are the pre-shuffle
     *  lines that shuffle onto lines 2*sw and 2*sw + 1. */
    std::uint32_t
    inputLine(std::uint32_t sw, std::uint32_t half) const
    {
        // Invert the shuffle: rotate right.
        const std::uint32_t post = 2 * sw + half;
        const std::uint32_t mask = (1u << k_) - 1;
        return ((post >> 1) | (post << (k_ - 1))) & mask;
    }

    void
    serveSwitch(std::uint32_t s, std::uint32_t sw,
                std::vector<sim::RingQueue<Packet<Payload>>> &lines)
    {
        const std::uint32_t in0 = inputLine(sw, 0);
        const std::uint32_t in1 = inputLine(sw, 1);
        // For each output bit, at most one packet advances.
        for (std::uint32_t bit = 0; bit < 2; ++bit) {
            auto wants = [&](std::uint32_t line) {
                if (lines[line].empty())
                    return false;
                const auto &pkt = lines[line].front();
                return ((pkt.dst >> (k_ - 1 - s)) & 1u) == bit;
            };
            const bool w0 = wants(in0);
            const bool w1 = wants(in1);
            if (!w0 && !w1)
                continue;
            std::uint32_t pick;
            if (w0 && w1) {
                pick = rr_[s][sw] ? in1 : in0;
                rr_[s][sw] ^= 1;
            } else {
                pick = w0 ? in0 : in1;
            }
            Packet<Payload> pkt = std::move(lines[pick].front());
            lines[pick].pop_front();
            pkt.hops += 1;
            const std::uint32_t out = 2 * sw + bit;
            if (s + 1 == k_) {
                SIM_ASSERT(out == pkt.dst);
                this->deliver(std::move(pkt));
            } else {
                stageQueues_[s + 1][out].push_back(std::move(pkt));
            }
        }
    }

    std::uint32_t k_;
    // stageQueues_[s][line]: queue at the input side of stage s.
    std::vector<std::vector<sim::RingQueue<Packet<Payload>>>>
        stageQueues_;
    std::vector<std::vector<std::uint8_t>> rr_;
};

} // namespace net

#endif // TTDA_NET_OMEGA_HH
