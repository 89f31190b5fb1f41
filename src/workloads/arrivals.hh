/**
 * @file
 * Deterministic open-loop arrival schedules for the serving fast path.
 *
 * An arrival schedule is a sorted vector of absolute cycles at which
 * independent requests reach the machine. The generators are pure
 * functions of (config, n): one SplitMix64-seeded stream drives every
 * shape, exactly one draw is consumed per request, and nothing depends
 * on the machine or the host — so a schedule is bit-reproducible
 * across runs, fleet worker counts, and the two machine tiers, and two shapes with the same seed see the same underlying
 * randomness (paired comparisons isolate the shape, not the stream).
 *
 * Shapes:
 *  - Poisson: memoryless arrivals at rate 1/meanGap — the classic
 *    open-loop serving assumption;
 *  - Bursty: alternating hot bursts (gaps scaled down) and lulls
 *    (one long gap) — stresses admission control and queueing;
 *  - Diurnal: Poisson with the instantaneous rate modulated by a
 *    sinusoid — a slow load swing across the run.
 */

#ifndef TTDA_WORKLOADS_ARRIVALS_HH
#define TTDA_WORKLOADS_ARRIVALS_HH

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/types.hh"

namespace workloads
{

/** Arrival-process shape. */
enum class ArrivalKind : std::uint8_t { Poisson, Bursty, Diurnal };

/** Arrival-schedule parameters. */
struct ArrivalConfig
{
    ArrivalKind kind = ArrivalKind::Poisson;
    /** Mean inter-arrival gap in cycles (the offered load is one
     *  request per meanGap cycles for every shape). */
    double meanGap = 256.0;
    std::uint64_t seed = 1;
    /** First arrival is drawn starting from this cycle. */
    sim::Cycle start = 0;

    // Bursty shape: requests come in bursts of burstLen with gaps
    // scaled by burstScale, separated by one lull gap sized so the
    // long-run mean gap stays meanGap.
    std::uint32_t burstLen = 8;
    double burstScale = 0.125; //!< in-burst gap multiplier, in (0, 1]

    // Diurnal shape: instantaneous rate = (1/meanGap) *
    // (1 + depth * sin(2*pi * t / period)).
    double diurnalPeriod = 1 << 16; //!< cycles per "day"
    double diurnalDepth = 0.75;     //!< rate swing, in [0, 1)
};

/** The first parameter bound `cfg` violates, as a message such as
 *  "burstLen must be >= 1", or null when every parameter is in range.
 *  The one list of the bounds: arrivalSchedule() asserts on it, and
 *  callers taking untrusted specs reject with it. */
const char *arrivalConfigError(const ArrivalConfig &cfg);

/**
 * Generate the first `n` arrival cycles of the configured process.
 * Sorted, non-decreasing (simultaneous arrivals are legal and the
 * serving path admits them in submission order). `cfg` must pass
 * arrivalConfigError().
 */
std::vector<sim::Cycle> arrivalSchedule(const ArrivalConfig &cfg,
                                        std::size_t n);

/** Shape name for reports ("poisson"/"bursty"/"diurnal"). */
const char *arrivalKindName(ArrivalKind kind);

/** The shape arrivalKindName() gives `name`; none for an unknown
 *  name. */
std::optional<ArrivalKind> parseArrivalKind(std::string_view name);

} // namespace workloads

#endif // TTDA_WORKLOADS_ARRIVALS_HH
