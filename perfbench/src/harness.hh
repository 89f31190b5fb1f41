/**
 * @file
 * The benchmark harness shared by every workload: options, the seeded
 * input generator, the span recorder of the traced run, per-layer
 * metric slots, and the timed-pass bookkeeping that the end-to-end
 * metrics are computed from.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pb
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock (spans and op latencies). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

inline double
msSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-6;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string simd = "ttda_simd"; //!< daemon binary (daemon_closed)
    std::string traceOut;           //!< span dump path (traced run)
};

/** SplitMix64: the only source of workload randomness. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }

    /** Fisher-Yates shuffle. */
    template <class T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t s_;
};

/**
 * The op schedule of a run: `blocks` repetitions of a fixed list of
 * `perBlock` op templates, each block in its own seeded order. Every
 * seed therefore runs the same multiset of ops — the seed decides the
 * order and the per-op input values drawn from each template's range —
 * so run-to-run spread measures the host and the program, not a
 * lucky draw of large inputs.
 */
std::vector<std::size_t> blockSchedule(Rng &rng, std::size_t perBlock,
                                       std::size_t blocks);

/** How many blocks of `perBlock` ops make `opsPerSecond * seconds`
 *  ops (at least one block). */
std::size_t blocksFor(double opsPerSecond, double seconds,
                      std::size_t perBlock);

// ---- tracing -------------------------------------------------------

/** Layers the benchmark times from outside, one per module it calls. */
enum class Layer : std::uint8_t
{
    Op,     //!< the benchmark's own op span (root of every op)
    Check,  //!< output checking and input generation
    Id,     //!< src/id compiler
    Ttda,   //!< ttda::Machine public calls
    Serve,  //!< serve::TtdaFleet::run (replica reuse + fleet queue)
    Fleet,  //!< sim::Fleet::run outside the job bodies
    Emul,   //!< emul::CompiledProgram run/execute
    Daemon, //!< socket round trips to ttda_simd
};
inline constexpr std::size_t kLayers = 8;
const char *layerName(Layer l);

struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = none
    std::uint64_t op = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
    const char *call = "";
    Layer layer = Layer::Op;
};

/**
 * In-memory span store. One buffer per recording thread (fleet
 * workers record into their own slot, so recording takes no lock);
 * ids are unique across slots. Written out once, when the run ends.
 */
class Tracer
{
  public:
    explicit Tracer(unsigned slots);

    /** Open a span; returns its id. */
    std::uint64_t
    begin(unsigned slot, Layer layer, const char *call,
          std::uint64_t parent, std::uint64_t op)
    {
        Buf &b = bufs_[slot];
        Span s;
        s.id = (static_cast<std::uint64_t>(slot) << 40) | ++b.next;
        s.parent = parent;
        s.op = op;
        s.call = call;
        s.layer = layer;
        s.start = nowNs();
        b.spans.push_back(s);
        return s.id;
    }

    /** Close the most recently opened, still-open span of `slot`
     *  with id `id`. */
    void end(unsigned slot, std::uint64_t id);

    /** All spans, slot by slot. */
    std::vector<Span> spans() const;

    /** Write one JSON object per span. */
    bool write(const std::string &path) const;

  private:
    struct Buf
    {
        std::vector<Span> spans;
        std::uint64_t next = 0;
    };
    std::vector<Buf> bufs_;
};

/** RAII span; a null tracer records nothing. */
class Scope
{
  public:
    Scope(Tracer *t, unsigned slot, Layer layer, const char *call,
          std::uint64_t parent, std::uint64_t op)
        : t_(t), slot_(slot)
    {
        if (t_)
            id_ = t_->begin(slot, layer, call, parent, op);
    }
    ~Scope()
    {
        if (t_)
            t_->end(slot_, id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Tracer *t_;
    unsigned slot_;
    std::uint64_t id_ = 0;
};

/** Self time per layer (ms), coverage of op spans by layer spans. */
struct TraceSummary
{
    double selfMs[kLayers] = {};
    double coverage = 0.0;
};
TraceSummary summarize(const std::vector<Span> &spans);

// ---- results -------------------------------------------------------

/** One timed pass over the fixed op schedule. */
struct PassResult
{
    std::int64_t startNs = nowNs();
    std::vector<double> opMs;         //!< latency of every attempted op
    std::vector<std::int64_t> opEnd;  //!< completion time of each op
    std::vector<double> opWork;       //!< work each op completed
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double work = 0.0;    //!< fires (or jobs) completed correctly
    double elapsedS = 0.0;
    std::uint64_t digest = 0; //!< hash of every checked output

    /** Record one op that started at `t0` and just ended; `work`
     *  counts only when the op's outputs checked out. */
    void
    op(std::int64_t t0, bool ok, double opWorkDone)
    {
        const std::int64_t now = nowNs();
        opMs.push_back(static_cast<double>(now - t0) * 1e-6);
        opEnd.push_back(now);
        opWork.push_back(ok ? opWorkDone : 0.0);
        ++attempted;
        if (ok)
            work += opWorkDone;
        else
            ++failed;
    }

    void finish() { elapsedS = static_cast<double>(nowNs() - startNs) * 1e-9; }

    /** Add one op's output hash. A sum, so the digest does not depend
     *  on the host order in which concurrent ops finish. */
    void addOp(std::uint64_t h) { digest += Rng(h).next(); }
};

/** The end-to-end timing figures of one pass. */
struct PassSummary
{
    double throughput = 0.0; //!< work per host second
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    std::size_t ops = 0; //!< op latencies the quantiles are taken over
};

/**
 * Split a pass, by completion time, into consecutive windows of
 * `window` ops and keep the slower half of them. A window holds whole
 * blocks of the schedule, so every window does the same work.
 * Throughput is the median rate of the kept windows (the run's lower
 * quartile); p50/p99 are taken over the ops of the kept windows.
 *
 * Shared hosts run a program in phases about 30% apart, each lasting
 * from one to tens of seconds; a run's median moves with the share of
 * fast phases it happened to get. The slower half is the steady state
 * unless three quarters of a run are fast, so run-to-run spread
 * measures the program rather than the neighbours.
 */
PassSummary summarizePass(const PassResult &r, std::size_t window);

/** Fold one checked value into an op's output hash. */
inline std::uint64_t
hashAdd(std::uint64_t h, std::uint64_t v)
{
    return (h ^ v) * 0x100000001b3ULL;
}

/** Per-layer metric values of the traced run, keyed by name. */
using LayerValues = std::map<std::string, double>;

/** The per-layer metric catalogue (name, unit), in output order. */
struct LayerMetric
{
    const char *name;
    const char *unit;
};
const std::vector<LayerMetric> &layerCatalogue();

/** A workload: set up, then run its fixed schedule (optionally
 *  traced, filling per-layer values). */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** The benchmark's own reference values (expected activity
     *  counts); computed once, not part of set-up time. */
    virtual void prepare() {}
    /** Everything before the first timed op: compilation, machine or
     *  fleet construction or daemon spawn, and a fixed warm-up pass. */
    virtual void setup() = 0;
    /** Release what setup() built, so it can run again. */
    virtual void teardown() = 0;
    /** One timed pass. `tracer` is null for the end-to-end run. */
    virtual PassResult pass(Tracer *tracer, LayerValues &layers) = 0;
    /** RSS high-water mark (MB) of the process doing the work. */
    virtual double peakRssMb() const;
    /** Recording slots the traced pass needs (threads). */
    virtual unsigned traceSlots() const { return 1; }
    /** Ops per throughput window: whole blocks, 0.15-0.4 s. */
    virtual std::size_t windowOps() const = 0;
};

std::unique_ptr<Workload> makeSimDense(const Options &o);
std::unique_ptr<Workload> makeFleetLossy(const Options &o);
std::unique_ptr<Workload> makeDaemonClosed(const Options &o);
std::unique_ptr<Workload> makeEmulFleet(const Options &o);

/** A failed check: logged to stderr with the op it belongs to. */
void reportFailure(const std::string &workload, std::uint64_t op,
                   const std::string &what);

/** VmHWM of a process in MB (pid 0 = self); negative when unreadable. */
double vmHwmMb(int pid = 0);
/** VmRSS of a process in kB (pid 0 = self). */
double vmRssKb(int pid = 0);

/** Median of a sample (0 for an empty one). */
double median(std::vector<double> v);
/** Linear-interpolated quantile q in [0, 1]. */
double quantile(std::vector<double> v, double q);

/** Wall-clock deadline after which no new op starts, so a run always
 *  ends inside the benchmark's time limit even on a slowed program. */
bool pastDeadline();

} // namespace pb

#endif // PERFBENCH_HARNESS_HH
