#include "workloads/arrivals.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"

namespace workloads
{

namespace
{

/** Exponential gap with the given mean from one uniform draw.
 *  uniform() returns [0, 1), so log(1 - u) is always finite. */
double
expGap(double mean, double u)
{
    return -mean * std::log(1.0 - u);
}

} // namespace

const char *
arrivalConfigError(const ArrivalConfig &cfg)
{
    // Written as negated in-range tests so a NaN fails every bound.
    if (!(cfg.meanGap > 0.0))
        return "meanGap must be > 0";
    if (cfg.burstLen < 1)
        return "burstLen must be >= 1";
    if (!(cfg.burstScale > 0.0 && cfg.burstScale <= 1.0))
        return "burstScale must be in (0, 1]";
    if (!(cfg.diurnalDepth >= 0.0 && cfg.diurnalDepth < 1.0))
        return "diurnalDepth must be in [0, 1)";
    if (!(cfg.diurnalPeriod > 0.0))
        return "diurnalPeriod must be > 0";
    return nullptr;
}

std::vector<sim::Cycle>
arrivalSchedule(const ArrivalConfig &cfg, std::size_t n)
{
    const char *bad = arrivalConfigError(cfg);
    SIM_ASSERT_MSG(bad == nullptr, "arrival config: {}", bad);

    // One stream, one draw per request, whatever the shape: schedules
    // with equal seeds consume identical randomness, so changing the
    // shape (or the machine under test) never perturbs the stream.
    sim::Rng rng(cfg.seed);
    std::vector<sim::Cycle> arrivals;
    arrivals.reserve(n);

    // The lull gap's mean is sized so the bursty shape's long-run rate
    // matches the plain Poisson shape: a burst of L requests spans
    // (L-1) short gaps plus one lull, totalling L * meanGap.
    const double lullMean =
        cfg.meanGap *
        (static_cast<double>(cfg.burstLen) -
         static_cast<double>(cfg.burstLen - 1) * cfg.burstScale);

    double t = static_cast<double>(cfg.start);
    for (std::size_t i = 0; i < n; ++i) {
        const double u = rng.uniform();
        double gap = 0.0;
        switch (cfg.kind) {
          case ArrivalKind::Poisson:
            gap = expGap(cfg.meanGap, u);
            break;
          case ArrivalKind::Bursty:
            // The gap *before* request i: a lull when i starts a new
            // burst (except the very first), a short gap inside one.
            if (i != 0 && i % cfg.burstLen == 0)
                gap = expGap(lullMean, u);
            else
                gap = expGap(cfg.meanGap * cfg.burstScale, u);
            break;
          case ArrivalKind::Diurnal: {
            // Rate-modulated exponential gap: the instantaneous rate
            // at the previous arrival scales the draw. A single-draw
            // approximation of a nonhomogeneous Poisson process —
            // exact would thin with a variable number of draws, which
            // would break the one-draw-per-request stream discipline.
            const double phase =
                2.0 * 3.14159265358979323846 * t / cfg.diurnalPeriod;
            const double rate = 1.0 + cfg.diurnalDepth * std::sin(phase);
            gap = expGap(cfg.meanGap / rate, u);
            break;
          }
        }
        t += gap;
        arrivals.push_back(static_cast<sim::Cycle>(t));
    }
    return arrivals;
}

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson: return "poisson";
      case ArrivalKind::Bursty:  return "bursty";
      case ArrivalKind::Diurnal: return "diurnal";
    }
    return "?";
}

std::optional<ArrivalKind>
parseArrivalKind(std::string_view name)
{
    for (const auto kind : {ArrivalKind::Poisson, ArrivalKind::Bursty,
                            ArrivalKind::Diurnal})
        if (name == arrivalKindName(kind))
            return kind;
    return std::nullopt;
}

} // namespace workloads
