/**
 * @file
 * Deterministic fault injection (the `sim::fault` subsystem).
 *
 * The paper's Issue 1 argues a scalable machine must tolerate long,
 * *unpredictable* memory/network latencies. Every fabric model in this
 * repository is perfectly reliable, so that claim was only ever
 * demonstrated under benign delay. This layer injects loss,
 * duplication, corruption, delay spikes, link-down windows, PE stalls
 * and memory-module timeouts — deterministically, so a faulty run is
 * exactly replayable.
 *
 * Determinism contract
 * --------------------
 * All probabilistic decisions are drawn from one xoshiro256** stream
 * owned by the FaultInjector, advanced exactly once per packet that
 * reaches a network's delivery point (Network::deliver). Packet
 * delivery order is a deterministic function of the simulated machine
 * (the tick injects and delivers packets in PE-index order), so the
 * nth decision always applies
 * to the same packet: decisions are effectively keyed on the
 * (cycle, delivery-sequence) pair without storing either. Scheduled
 * events (link-down / PE-stall / memory-timeout windows) are keyed on
 * the cycle alone and consume no randomness.
 *
 * A FaultPlan is a value: copy it into a MachineConfig, or parse one
 * from the compact `--fault-plan` spec string (see FaultPlan::parse).
 */

#ifndef TTDA_COMMON_FAULT_HH
#define TTDA_COMMON_FAULT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"

namespace sim
{
namespace fault
{

/** The one range rule for a per-packet rate: a probability in [0, 1].
 *  Infinities and NaN fail it. */
constexpr bool
isRate(double rate)
{
    return rate >= 0.0 && rate <= 1.0;
}

/** A scheduled (non-probabilistic) fault event. */
struct Event
{
    enum class Kind : std::uint8_t
    {
        LinkDown,  //!< packets src->dst are destroyed in [from, to]
        PeStall,   //!< PE `a` starts no new stage work in [from, to]
        MemStall,  //!< memory module `a` serves no bank in [from, to]
        DropSpike, //!< drop rate boosted to a/1e6 in [from, to]
    };

    /** Wildcard for LinkDown endpoints: matches any node. */
    static constexpr std::uint32_t kAny = 0xffffffffu;

    Kind kind = Kind::LinkDown;
    sim::Cycle from = 0; //!< first affected cycle (inclusive)
    sim::Cycle to = 0;   //!< last affected cycle (inclusive)
    /** LinkDown: src; PeStall: PE; MemStall: module;
     *  DropSpike: rate scaled by 1e6 (0.05 -> 50000). */
    std::uint32_t a = kAny;
    std::uint32_t b = kAny; //!< LinkDown: dst
};

/**
 * The complete, seeded description of every fault a run will suffer.
 * Fully value-typed and comparable by field so configs can embed it.
 */
struct FaultPlan
{
    /** Seed for the probabilistic stream. 0 means "derive from the
     *  machine's root seed" (makeInjector mixes cfg.seed). */
    std::uint64_t seed = 0;

    // Per-packet probabilities, applied at the delivery point.
    double dropRate = 0.0;    //!< packet silently destroyed
    double dupRate = 0.0;     //!< packet delivered twice
    double corruptRate = 0.0; //!< detected-corrupt: CRC fails, dropped
    double delayRate = 0.0;   //!< packet held back `delaySpike` cycles

    sim::Cycle delaySpike = 16; //!< extra delay for delayed packets

    std::vector<Event> events; //!< scheduled windows

    /** The field name of the first per-packet rate that fails
     *  isRate(), or nullptr when all four are rates. Plans built field
     *  by field (the daemon's job specs) are checked with this; parse()
     *  applies the same rule to each rate it reads. */
    const char *badRate() const;

    /** True when the plan injects anything at all. */
    bool
    enabled() const
    {
        return dropRate > 0.0 || dupRate > 0.0 || corruptRate > 0.0 ||
               delayRate > 0.0 || !events.empty();
    }

    /** A canonical lossy plan for `--fault-seed` without an explicit
     *  `--fault-plan`: 1% drop, 0.5% duplicate, 0.1% corrupt, 1%
     *  delay-spike. */
    static FaultPlan defaultLossy(std::uint64_t seed);

    /**
     * Parse the compact comma-separated spec, e.g.
     *
     *   "seed=7,drop=0.01,dup=0.005,corrupt=0.001,delay=0.01,spike=16,
     *    linkdown@100-200:0>3,pestall@50-90:2,memstall@10-40:1"
     *
     * Window forms: `linkdown@FROM-TO[:SRC>DST]` (either endpoint may
     * be `*`), `pestall@FROM-TO:PE`, `memstall@FROM-TO:MODULE`,
     * `dropspike@FROM-TO:RATE` (drop rate boosted to RATE inside the
     * window — a brownout). Panics with a message on malformed input.
     */
    static FaultPlan parse(const std::string &spec);

    /** The plan rendered back as a parseable spec string. */
    std::string summary() const;
};

/** The verdict for one packet reaching a delivery point. */
struct PacketFate
{
    enum class Action : std::uint8_t
    {
        Deliver,   //!< untouched
        Drop,      //!< destroyed (probabilistic drop or link-down)
        Duplicate, //!< delivered twice
        Corrupt,   //!< corruption detected at the receiver; discarded
        Delay,     //!< held back extraDelay cycles, then delivered
    };

    Action action = Action::Deliver;
    sim::Cycle extraDelay = 0;
    bool scheduled = false; //!< Drop caused by a link-down window
};

/**
 * Executes a FaultPlan. One injector is shared by a machine and every
 * network/module it owns; all queries are made from the serial phase
 * of the simulation loop (sends, deliveries, skip-ahead scans), so no
 * synchronization is needed and the RNG stream order is deterministic.
 */
class FaultInjector
{
  public:
    /** Monotonic totals for the stats/forensics stack. */
    struct Stats
    {
        std::uint64_t decisions = 0;     //!< onPacket calls (RNG draws)
        std::uint64_t drops = 0;         //!< probabilistic drops
        std::uint64_t duplicates = 0;
        std::uint64_t corrupts = 0;
        std::uint64_t delays = 0;
        std::uint64_t linkDownDrops = 0; //!< scheduled window drops

        /** Packets destroyed outright — the quantity that converts a
         *  quiescent-but-unfinished run from "bug" to "loss". */
        std::uint64_t
        destroyed() const
        {
            return drops + corrupts + linkDownDrops;
        }

        template <class V>
        void
        visitState(V &v)
        {
            v(decisions, drops, duplicates, corrupts, delays,
              linkDownDrops);
        }
    };

    explicit FaultInjector(const FaultPlan &plan);

    /** Decide the fate of one packet at its delivery point. Advances
     *  the probabilistic stream exactly once per call (when any rate
     *  is configured). */
    PacketFate onPacket(sim::Cycle now, sim::NodeId src,
                        sim::NodeId dst);

    /** True when PE `pe` must not start new stage work in cycle `c`. */
    bool peStalled(sim::Cycle c, std::uint32_t pe) const;

    /** First cycle >= c at which PE `pe` is not stalled. */
    sim::Cycle peResume(sim::Cycle c, std::uint32_t pe) const;

    /** True when memory module `m` must not serve banks in cycle `c`. */
    bool memStalled(sim::Cycle c, std::uint32_t m) const;

    /** First cycle >= c at which module `m` is not stalled. */
    sim::Cycle memResume(sim::Cycle c, std::uint32_t m) const;

    /** The plan has at least one PeStall / MemStall window. */
    bool hasPeStalls() const { return !peStalls_.empty(); }
    bool hasMemStalls() const { return !memStalls_.empty(); }

    const FaultPlan &plan() const { return plan_; }
    const Stats &stats() const { return stats_; }

    /** Run state: the probabilistic stream mid-sequence and the
     *  totals, so a restored machine replays the remainder of the
     *  fault sequence exactly, and a reset one (stream rewound to the
     *  plan's seed, totals zeroed) replays the whole sequence. The
     *  plan and its event tables are configuration. */
    template <class V>
    void
    visitState(V &v)
    {
        v(rng_, stats_);
    }

  private:
    bool linkDown(sim::Cycle c, sim::NodeId src, sim::NodeId dst) const;
    double effectiveDropRate(sim::Cycle c) const;

    FaultPlan plan_;
    bool anyRate_ = false;
    sim::Rng rng_;
    std::vector<Event> linkDowns_;
    std::vector<Event> peStalls_;
    std::vector<Event> memStalls_;
    std::vector<Event> dropSpikes_;
    Stats stats_;
};

/**
 * The injector a machine with root seed `root` runs `plan` under, or
 * null when the plan injects nothing. A plan seed of 0 derives the
 * fault stream's seed from `root` (SplitMix64 finalizer), so a run
 * replays from the two seeds.
 */
std::unique_ptr<FaultInjector> makeInjector(const FaultPlan &plan,
                                            std::uint64_t root);

} // namespace fault
} // namespace sim

#endif // TTDA_COMMON_FAULT_HH
