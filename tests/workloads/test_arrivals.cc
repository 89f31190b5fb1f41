/**
 * @file
 * Tests of the open-loop arrival-schedule generators: determinism,
 * stream discipline, and the statistical shape of each process.
 */

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "workloads/arrivals.hh"

namespace
{

using workloads::ArrivalConfig;
using workloads::ArrivalKind;
using workloads::arrivalSchedule;

TEST(Arrivals, DeterministicAndSeedSensitive)
{
    ArrivalConfig cfg;
    cfg.meanGap = 100.0;
    cfg.seed = 7;
    const auto a = arrivalSchedule(cfg, 200);
    const auto b = arrivalSchedule(cfg, 200);
    EXPECT_EQ(a, b); // bit-reproducible

    cfg.seed = 8;
    const auto c = arrivalSchedule(cfg, 200);
    EXPECT_NE(a, c); // the seed matters
}

TEST(Arrivals, SortedAndPrefixStable)
{
    // Every shape must produce a non-decreasing schedule, and asking
    // for fewer requests must yield a prefix of the longer schedule
    // (the stream consumes exactly one draw per request).
    for (const auto kind : {ArrivalKind::Poisson, ArrivalKind::Bursty,
                            ArrivalKind::Diurnal}) {
        ArrivalConfig cfg;
        cfg.kind = kind;
        cfg.meanGap = 50.0;
        cfg.seed = 13;
        const auto full = arrivalSchedule(cfg, 300);
        for (std::size_t i = 1; i < full.size(); ++i)
            EXPECT_LE(full[i - 1], full[i])
                << workloads::arrivalKindName(kind);
        const auto prefix = arrivalSchedule(cfg, 100);
        for (std::size_t i = 0; i < prefix.size(); ++i)
            EXPECT_EQ(prefix[i], full[i])
                << workloads::arrivalKindName(kind);
    }
}

TEST(Arrivals, MeanGapIsRespected)
{
    // Long-run rate of every shape tracks 1/meanGap (the bursty
    // lull is sized to compensate for its hot phases).
    for (const auto kind : {ArrivalKind::Poisson, ArrivalKind::Bursty,
                            ArrivalKind::Diurnal}) {
        ArrivalConfig cfg;
        cfg.kind = kind;
        cfg.meanGap = 64.0;
        cfg.seed = 99;
        const std::size_t n = 4000;
        const auto sched = arrivalSchedule(cfg, n);
        const double measured =
            static_cast<double>(sched.back()) /
            static_cast<double>(n - 1);
        EXPECT_NEAR(measured, cfg.meanGap, cfg.meanGap * 0.25)
            << workloads::arrivalKindName(kind);
    }
}

TEST(Arrivals, BurstyIsBurstier)
{
    // Coefficient-of-variation of inter-arrival gaps: the bursty
    // shape must be more dispersed than plain Poisson at equal rate.
    auto cov = [](const std::vector<sim::Cycle> &sched) {
        double sum = 0.0, sq = 0.0;
        const std::size_t n = sched.size() - 1;
        for (std::size_t i = 1; i < sched.size(); ++i) {
            const double g =
                static_cast<double>(sched[i] - sched[i - 1]);
            sum += g;
            sq += g * g;
        }
        const double mean = sum / static_cast<double>(n);
        const double var =
            sq / static_cast<double>(n) - mean * mean;
        return var > 0.0 ? std::sqrt(var) / mean : 0.0;
    };
    ArrivalConfig cfg;
    cfg.meanGap = 80.0;
    cfg.seed = 3;
    const auto poisson = arrivalSchedule(cfg, 2000);
    cfg.kind = ArrivalKind::Bursty;
    const auto bursty = arrivalSchedule(cfg, 2000);
    EXPECT_GT(cov(bursty), cov(poisson));
}

TEST(Arrivals, DiurnalRateSwings)
{
    // Count arrivals in the first and second half-period: the rate
    // modulation must make the rising half-period denser.
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Diurnal;
    cfg.meanGap = 32.0;
    cfg.diurnalPeriod = 1 << 14;
    cfg.diurnalDepth = 0.9;
    cfg.seed = 31;
    const auto sched = arrivalSchedule(cfg, 1000);
    const auto half = static_cast<sim::Cycle>(cfg.diurnalPeriod / 2);
    std::size_t first = 0, second = 0;
    for (const sim::Cycle t : sched) {
        if (t < half)
            ++first;
        else if (t < 2 * half)
            ++second;
    }
    // sin is positive (rate boosted) in the first half-period and
    // negative (rate suppressed) in the second.
    EXPECT_GT(first, second * 2);
}

TEST(Arrivals, ParseAndNameRoundTrip)
{
    for (const auto kind : {ArrivalKind::Poisson, ArrivalKind::Bursty,
                            ArrivalKind::Diurnal})
        EXPECT_EQ(workloads::parseArrivalKind(
                      workloads::arrivalKindName(kind)),
                  kind);
    EXPECT_FALSE(workloads::parseArrivalKind("weekly"));
    EXPECT_FALSE(workloads::parseArrivalKind(""));
}

TEST(Arrivals, ConfigErrorNamesEachViolatedBound)
{
    EXPECT_EQ(workloads::arrivalConfigError(ArrivalConfig{}), nullptr);
    const auto errorOf = [](auto mutate) {
        ArrivalConfig cfg;
        mutate(cfg);
        const char *err = workloads::arrivalConfigError(cfg);
        return std::string(err ? err : "");
    };
    EXPECT_EQ(errorOf([](ArrivalConfig &c) { c.meanGap = 0.0; }),
              "meanGap must be > 0");
    EXPECT_EQ(errorOf([](ArrivalConfig &c) { c.meanGap = NAN; }),
              "meanGap must be > 0");
    EXPECT_EQ(errorOf([](ArrivalConfig &c) { c.burstLen = 0; }),
              "burstLen must be >= 1");
    EXPECT_EQ(errorOf([](ArrivalConfig &c) { c.burstScale = 2.0; }),
              "burstScale must be in (0, 1]");
    EXPECT_EQ(errorOf([](ArrivalConfig &c) { c.burstScale = 0.0; }),
              "burstScale must be in (0, 1]");
    EXPECT_EQ(errorOf([](ArrivalConfig &c) { c.diurnalDepth = 1.0; }),
              "diurnalDepth must be in [0, 1)");
    EXPECT_EQ(errorOf([](ArrivalConfig &c) { c.diurnalDepth = -0.1; }),
              "diurnalDepth must be in [0, 1)");
    EXPECT_EQ(errorOf([](ArrivalConfig &c) { c.diurnalPeriod = 0.0; }),
              "diurnalPeriod must be > 0");
    // In-range edges are accepted.
    EXPECT_EQ(errorOf([](ArrivalConfig &c) {
                  c.burstScale = 1.0;
                  c.diurnalDepth = 0.0;
              }),
              "");

    ArrivalConfig bad;
    bad.burstLen = 0;
    EXPECT_DEATH(arrivalSchedule(bad, 4), "burstLen must be >= 1");
}

TEST(Arrivals, StartOffsetsTheSchedule)
{
    ArrivalConfig cfg;
    cfg.meanGap = 20.0;
    cfg.seed = 1;
    const auto base = arrivalSchedule(cfg, 50);
    cfg.start = 1000;
    const auto shifted = arrivalSchedule(cfg, 50);
    for (std::size_t i = 0; i < base.size(); ++i)
        EXPECT_EQ(shifted[i], base[i] + 1000);
}

} // namespace
