/**
 * @file
 * MetricsRecorder: a deterministic, cycle-driven time-series sampler.
 *
 * The stats primitives (stats.hh) export end-of-run aggregates; the
 * tracer (trace.hh) exports per-event streams. This sits between the
 * two: named scalar *series* sampled every N simulated cycles, so a
 * run's dynamics — occupancy ramps, throughput plateaus, backlog
 * spikes under faults — are visible over time without drowning in
 * per-token events.
 *
 * Determinism: the machines sample at the end of the tick (after
 * network receive), a fixed point of a deterministic run, so the
 * recorded series — timestamps and values — replay bit-identically.
 *
 * Bounded memory: when the row store reaches its capacity, every
 * odd-indexed row is dropped and the sampling interval doubles
 * (power-of-two decimation). The first row always survives, the
 * final row is appended by finalize(), and samplesRecorded() keeps
 * the exact pre-decimation count, so long runs degrade resolution
 * rather than growing without bound.
 *
 * Two series kinds:
 *  - gauge: an instantaneous level (queue depth, WM occupancy);
 *  - rate:  a cumulative counter; exporters derive per-cycle rates
 *    from row deltas. Storing the cumulative value keeps decimation
 *    exact: the counter reading at a surviving timestamp is still
 *    the true reading, whatever rows were dropped between.
 */

#ifndef TTDA_COMMON_METRICS_HH
#define TTDA_COMMON_METRICS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"

namespace sim
{

class Tracer;

class MetricsRecorder
{
  public:
    using SeriesId = std::uint32_t;

    enum class Kind : std::uint8_t
    {
        Gauge, //!< instantaneous level
        Rate,  //!< cumulative counter (exporters emit deltas)
    };

    /**
     * @param interval sampling period in simulated cycles (>= 1)
     * @param capacity max retained rows (>= 2); reaching it halves
     *                 the rows and doubles the effective interval
     */
    explicit MetricsRecorder(Cycle interval = 1024,
                             std::size_t capacity = 4096);

    /** Register (or look up) a gauge series. Idempotent by name; the
     *  kind of an existing series is not changed. */
    SeriesId gauge(std::string_view name);

    /** Register (or look up) a cumulative-counter series. */
    SeriesId rate(std::string_view name);

    /** Stage the current value of one series; the next record() call
     *  snapshots every staged value into a row. */
    void
    set(SeriesId id, double v)
    {
        series_[id].current = v;
    }

    /** True when the cycle about to be committed crosses the next
     *  sample boundary. The hot-loop test: one compare. */
    bool due(Cycle now) const { return now >= nextDue_; }

    /** Append one row stamped `now` (the caller checked due(); an
     *  early row is legal — timestamps are explicit). Rows must be
     *  appended in nondecreasing cycle order. */
    void record(Cycle now);

    /** Append a final row stamped `now` unless the last row already
     *  carries that stamp; call once when the run quiesces so the
     *  series always ends at the run's end state. */
    void finalize(Cycle now);

    /** Drop all rows (series registrations survive) and rewind the
     *  interval/decimation state; lets one recorder serve several
     *  runs in sequence. */
    void reset();

    // ---- accessors --------------------------------------------------
    std::size_t numSeries() const { return series_.size(); }
    std::size_t numRows() const { return times_.size(); }
    /** Exact number of rows ever recorded, including decimated ones. */
    std::uint64_t samplesRecorded() const { return samplesRecorded_; }
    Cycle interval() const { return interval_; }
    /** Current period after decimation doublings. */
    Cycle effectiveInterval() const { return effInterval_; }
    Cycle rowCycle(std::size_t row) const { return times_[row]; }
    double
    value(SeriesId id, std::size_t row) const
    {
        return series_[id].values[row];
    }
    const std::string &name(SeriesId id) const
    {
        return series_[id].name;
    }
    Kind kind(SeriesId id) const { return series_[id].kind; }

    // ---- exporters --------------------------------------------------

    /** One JSON document: sampling parameters, the cycle axis, and
     *  every series with its kind and raw row values. */
    void dumpJson(std::ostream &os) const;

    /** Spreadsheet-style CSV: a `cycle` column then one column per
     *  series (raw values; rates stay cumulative). */
    void dumpCsv(std::ostream &os) const;

    /** Emit every row as Perfetto counter-track samples under
     *  process `pid` (category `sched`). Gauges emit their level;
     *  rates emit the per-cycle rate over the preceding row gap, so
     *  the track reads as throughput rather than a ramp. */
    void exportCounters(Tracer &tracer, std::uint32_t pid) const;

  private:
    struct Series
    {
        std::string name;
        Kind kind = Kind::Gauge;
        double current = 0.0;
        std::vector<double> values; //!< one per retained row
    };

    SeriesId registerSeries(std::string_view name, Kind kind);

    /** Drop odd-indexed rows, double the effective interval. */
    void decimate();

    /** Per-cycle rate of series `s` over the gap ending at `row`. */
    double rateAt(const Series &s, std::size_t row) const;

    Cycle interval_;
    Cycle effInterval_;
    std::size_t capacity_;
    Cycle nextDue_ = 0;
    std::uint64_t samplesRecorded_ = 0;
    std::vector<Cycle> times_;
    std::vector<Series> series_;
};

} // namespace sim

#endif // TTDA_COMMON_METRICS_HH
