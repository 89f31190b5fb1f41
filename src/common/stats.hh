/**
 * @file
 * Lightweight statistics primitives for the machine models.
 *
 * Three kinds of statistic cover everything the experiments need:
 *
 *  - Counter:   a monotonically increasing event count.
 *  - Accumulator: tracks sum / min / max / mean of a sampled quantity.
 *  - Histogram: bucketed distribution with fixed-width bins.
 *
 * A StatGroup gathers named statistics belonging to one modelled unit so
 * benchmarks and tests can dump them uniformly.
 */

#ifndef TTDA_COMMON_STATS_HH
#define TTDA_COMMON_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace sim
{

namespace detail
{

/** Write a double as a JSON number: full round-trip precision,
 *  non-finite values as null (JSON has no NaN/Infinity). */
inline void
jsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
}

/** Conventional percentile key for a quantile: 0.5 -> "p50",
 *  0.99 -> "p99", 0.999 -> "p999" (tenths fold into the digits). */
inline std::string
quantileKey(double q)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "%g", q * 100.0);
    std::string key = "p";
    for (const char *c = buf; *c; ++c)
        if (*c != '.')
            key += *c;
    return key;
}

} // namespace detail

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Tracks sum, count, min, max, and mean of a sampled quantity. */
class Accumulator
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        count_ += 1;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    /**
     * Record `n` identical samples of `v` in one call (the event-driven
     * schedulers batch the samples of skipped cycles). For the
     * integer-valued quantities the machines sample, the result is
     * bit-identical to calling sample(v) n times.
     */
    void
    sample(double v, std::uint64_t n)
    {
        if (n == 0)
            return;
        sum_ += v * static_cast<double>(n);
        count_ += n;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    /** Fold another accumulator's samples into this one. Exact for the
     *  integer-valued quantities the machines sample (sums stay below
     *  2^53), so merging partial accumulators (one per fleet job, say)
     *  in any order matches sequential sampling bit-for-bit. */
    void
    merge(const Accumulator &other)
    {
        sum_ += other.sum_;
        count_ += other.count_;
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }

    double sum() const { return sum_; }
    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

    /** Reinstate a checkpointed accumulator from its public getters.
     *  An empty accumulator (count == 0) restores to the pristine
     *  state, reinstating the min/max sentinels the getters hide. */
    void
    restore(double sum, std::uint64_t count, double min, double max)
    {
        reset();
        if (count == 0)
            return;
        sum_ = sum;
        count_ = count;
        min_ = min;
        max_ = max;
    }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Fixed-bin-width histogram; samples beyond the last bin saturate. */
class Histogram
{
  public:
    /**
     * @param bin_width width of each bin (must be > 0)
     * @param num_bins  number of bins; values >= bin_width*num_bins
     *                  land in the final bin
     */
    explicit Histogram(double bin_width = 1.0, std::size_t num_bins = 64)
        : binWidth_(bin_width), invBinWidth_(1.0 / bin_width),
          bins_(num_bins, 0)
    {
        SIM_ASSERT(bin_width > 0.0);
        SIM_ASSERT(num_bins > 0);
    }

    void
    sample(double v)
    {
        sample(v, 1);
    }

    /** Record `n` identical samples of `v` (batched skip-ahead).
     *  Negative samples are counted as underflow, not folded into
     *  bin 0 (they would silently distort the distribution). They
     *  still contribute to summary(). */
    void
    sample(double v, std::uint64_t n)
    {
        if (n == 0)
            return;
        acc_.sample(v, n);
        if (v < 0.0) {
            underflow_ += n;
            return;
        }
        // Multiply by the precomputed reciprocal: sample() sits on the
        // machines' per-fire path and a divide would dominate it.
        std::size_t idx = static_cast<std::size_t>(v * invBinWidth_);
        if (idx >= bins_.size()) {
            // Saturating into the last bin keeps the bin array and the
            // quantile estimate unchanged, but the saturation count is
            // tracked so merges and dumps never silently launder
            // out-of-range mass into an ordinary bin.
            idx = bins_.size() - 1;
            overflow_ += n;
        }
        bins_[idx] += n;
    }

    /** Fold another histogram into this one; used to combine per-job
     *  latency histograms across a fleet. An empty `other` merges as a
     *  no-op whatever its geometry; merging real mass into an empty
     *  histogram adopts the source geometry (a default-constructed
     *  accumulator must not assert away — or drop — the
     *  underflow/overflow counts of the populated side). */
    void
    merge(const Histogram &other)
    {
        if (other.acc_.count() == 0)
            return;
        if (acc_.count() == 0 &&
            (other.bins_.size() != bins_.size() ||
             other.binWidth_ != binWidth_))
        {
            binWidth_ = other.binWidth_;
            invBinWidth_ = other.invBinWidth_;
            bins_.assign(other.bins_.size(), 0);
        }
        SIM_ASSERT_MSG(other.bins_.size() == bins_.size() &&
                           other.binWidth_ == binWidth_,
                       "merging histograms with different geometry");
        for (std::size_t i = 0; i < bins_.size(); ++i)
            bins_[i] += other.bins_[i];
        underflow_ += other.underflow_;
        overflow_ += other.overflow_;
        acc_.merge(other.acc_);
    }

    const std::vector<std::uint64_t> &bins() const { return bins_; }
    /** Samples below 0, kept out of the bins. */
    std::uint64_t underflow() const { return underflow_; }
    /** Samples at/beyond the last bin edge (folded into the last bin
     *  for the quantile estimate, but counted here). */
    std::uint64_t overflow() const { return overflow_; }
    double binWidth() const { return binWidth_; }
    const Accumulator &summary() const { return acc_; }

    /** Smallest sample value at or below which fraction q of samples
     *  fall, estimated from bin boundaries. */
    double
    quantile(double q) const
    {
        SIM_ASSERT(q >= 0.0 && q <= 1.0);
        const std::uint64_t total = acc_.count();
        if (total == 0)
            return 0.0;
        const double target = q * static_cast<double>(total);
        // Underflow samples are the lowest-valued mass; they count
        // toward the target before bin 0 is reached.
        double running = static_cast<double>(underflow_);
        if (running >= target)
            return 0.0;
        for (std::size_t i = 0; i < bins_.size(); ++i) {
            running += static_cast<double>(bins_[i]);
            if (running >= target)
                return static_cast<double>(i + 1) * binWidth_;
        }
        return static_cast<double>(bins_.size()) * binWidth_;
    }

    /** The quantiles dumpJson reports (tail-latency set by default).
     *  Values must lie in [0, 1]; the keys follow the percentile
     *  convention (0.999 -> "p999"). */
    static constexpr double kDefaultQuantiles[] = {0.5, 0.9, 0.99,
                                                   0.999};

    /** One JSON object: bin array, underflow, summary moments, and
     *  one "pNN" key per requested quantile. */
    void
    dumpJson(std::ostream &os,
             const std::vector<double> &quantiles = {
                 std::begin(kDefaultQuantiles),
                 std::end(kDefaultQuantiles)}) const
    {
        os << "{\"binWidth\":";
        detail::jsonNumber(os, binWidth_);
        os << ",\"underflow\":" << underflow_
           << ",\"overflow\":" << overflow_ << ",\"count\":"
           << acc_.count() << ",\"mean\":";
        detail::jsonNumber(os, acc_.mean());
        os << ",\"min\":";
        detail::jsonNumber(os, acc_.min());
        os << ",\"max\":";
        detail::jsonNumber(os, acc_.max());
        for (const double q : quantiles) {
            os << ",\"" << detail::quantileKey(q) << "\":";
            detail::jsonNumber(os, quantile(q));
        }
        os << ",\"bins\":[";
        for (std::size_t i = 0; i < bins_.size(); ++i)
            os << (i ? "," : "") << bins_[i];
        os << "]}";
    }

    /** Drop all recorded samples, keeping the bin geometry (and the
     *  bin array's storage) so a reused machine re-records into the
     *  same shape it was constructed with. */
    void
    reset()
    {
        std::fill(bins_.begin(), bins_.end(), 0);
        underflow_ = 0;
        overflow_ = 0;
        acc_.reset();
    }

    /** Reinstate a checkpointed histogram. The geometry comes from
     *  the constructor (it is configuration, not run state), so the
     *  restored bin array must match the constructed shape — callers
     *  validate counts read from untrusted bytes before this. */
    void
    restore(const std::vector<std::uint64_t> &bins,
            std::uint64_t underflow, std::uint64_t overflow,
            const Accumulator &acc)
    {
        SIM_ASSERT_MSG(bins.size() == bins_.size(),
                       "histogram restore with mismatched geometry");
        bins_ = bins;
        underflow_ = underflow;
        overflow_ = overflow;
        acc_ = acc;
    }

  private:
    double binWidth_;
    double invBinWidth_;
    std::vector<std::uint64_t> bins_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    Accumulator acc_;
};

/** A named bag of scalar statistics, dumpable for reports. */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    void set(const std::string &key, double v) { scalars_[key] = v; }

    /** Whether a statistic named `key` has been set. */
    bool
    has(const std::string &key) const
    {
        return scalars_.find(key) != scalars_.end();
    }

    /** Value of an existing statistic. Asking for a key that was never
     *  set is a report bug (most often a typo) and panics with the
     *  offending name rather than silently reading 0. */
    double
    get(const std::string &key) const
    {
        auto it = scalars_.find(key);
        SIM_ASSERT_MSG(it != scalars_.end(),
                       "stat group '{}' has no statistic named '{}'",
                       name_, key);
        return it->second;
    }

    const std::string &name() const { return name_; }
    const std::map<std::string, double> &scalars() const { return scalars_; }

    void
    dump(std::ostream &os) const
    {
        for (const auto &[key, value] : scalars_)
            os << name_ << "." << key << " = " << value << "\n";
    }

    /** One JSON object mapping each statistic name to its value. */
    void
    dumpJson(std::ostream &os) const
    {
        os << '{';
        bool first = true;
        for (const auto &[key, value] : scalars_) {
            os << (first ? "" : ",") << '"' << key << "\":";
            detail::jsonNumber(os, value);
            first = false;
        }
        os << '}';
    }

  private:
    std::string name_;
    std::map<std::string, double> scalars_;
};

} // namespace sim

#endif // TTDA_COMMON_STATS_HH
