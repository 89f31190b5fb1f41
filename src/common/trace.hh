/**
 * @file
 * Event tracing for the machine models: a streaming Chrome
 * trace-event JSON writer behind a per-category enable bitmask.
 *
 * The emitted file is the Trace Event Format consumed by Perfetto
 * (https://ui.perfetto.dev) and chrome://tracing: one JSON object with
 * a `traceEvents` array. Tracks are addressed by (pid, tid) pairs —
 * the machines name a process per PE / core and a thread per pipeline
 * stage, so a trace opens as one swim-lane per stage. Timestamps are
 * microseconds in the format; we map one simulated cycle to one
 * microsecond, so Perfetto's time axis reads directly in cycles.
 *
 * Cost model: every emission site is wrapped in SIM_TRACE(...), which
 * tests a raw pointer before evaluating any argument — with tracing
 * disabled (the default: MachineConfig::tracer == nullptr) the whole
 * site is one branch on a null pointer and no argument formatting.
 */

#ifndef TTDA_COMMON_TRACE_HH
#define TTDA_COMMON_TRACE_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>

#include "common/types.hh"

namespace sim
{

/** Streaming Chrome-trace-event writer with category filtering. */
class Tracer
{
  public:
    /** Event categories, one bit each; combine with |. */
    enum Category : std::uint32_t
    {
        Wm = 1u << 0,    //!< waiting-matching enqueue / match
        Fire = 1u << 1,  //!< instruction fetch / ALU fire
        Net = 1u << 2,   //!< network inject / deliver
        Mem = 1u << 3,   //!< memory module request service
        Istr = 1u << 4,  //!< I-structure read/write/defer/serve
        Sched = 1u << 5, //!< output section, context switches, results
        All = (1u << 6) - 1,
    };

    Tracer() = default;
    ~Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Start writing to `path`; fatal() if the file cannot be opened. */
    void open(const std::string &path, std::uint32_t mask = All);

    /** Start writing to a caller-owned stream (tests). */
    void attach(std::ostream &os, std::uint32_t mask = All);

    /** Write the JSON footer and stop. Idempotent; the destructor
     *  calls it, so traces are valid even on early exits. */
    void close();

    bool active() const { return sink_ != nullptr; }

    /** True when any of `cats` is enabled; false when closed. This is
     *  the only check on the hot path — mask_ is 0 while inactive. */
    bool wants(std::uint32_t cats) const { return (mask_ & cats) != 0; }

    std::uint32_t mask() const { return mask_; }
    std::uint64_t eventCount() const { return events_; }

    /** Parse "wm,fire,istr" / "all" into a category mask; empty means
     *  All. Unknown names are a fatal() configuration error. */
    static std::uint32_t parseCategories(std::string_view spec);

    static const char *categoryName(Category cat);

    // ---- track naming (metadata events; ignore the category mask) --
    void processName(std::uint32_t pid, std::string_view name);
    void threadName(std::uint32_t pid, std::uint32_t tid,
                    std::string_view name);

    // ---- event emitters --------------------------------------------
    // `args`, when non-empty, must be a well-formed JSON object body
    // ("\"k\":1,\"t\":\"x\"" — no surrounding braces); it is emitted
    // verbatim. Call through SIM_TRACE so the argument strings are
    // only built when the category is enabled.

    /** A span of `dur` cycles starting at `ts` (ph "X"). */
    void complete(Category cat, std::uint32_t pid, std::uint32_t tid,
                  std::string_view name, Cycle ts, Cycle dur,
                  std::string_view args = {});

    /** A zero-duration marker at `ts` (ph "i", thread scope). */
    void instant(Category cat, std::uint32_t pid, std::uint32_t tid,
                 std::string_view name, Cycle ts,
                 std::string_view args = {});

    /** A sampled counter track value at `ts` (ph "C"). */
    void counter(Category cat, std::uint32_t pid, std::string_view name,
                 Cycle ts, double value);

  private:
    void begin(std::ostream &os, std::uint32_t mask);
    void commit(); //!< write buf_ as the next traceEvents element

    std::ostream *sink_ = nullptr;
    std::unique_ptr<std::ofstream> file_; //!< owned sink for open()
    std::uint32_t mask_ = 0;
    bool first_ = true;
    std::uint64_t events_ = 0;
    std::string buf_; //!< reused per-event line buffer
};

/**
 * Guarded trace emission: `tracer` is a sim::Tracer*, `category` a
 * bare Category name (Wm, Fire, ...),
 * `method` one of the emitters (complete, instant, counter), and the
 * remaining arguments everything after the leading Category parameter.
 * The variadic arguments — including any sim::format(...) building the
 * args string — are not evaluated unless the tracer is non-null and
 * the category enabled.
 */
#define SIM_TRACE(tracer, category, method, ...)                        \
    do {                                                                \
        auto *simTraceT_ = (tracer);                                    \
        if (simTraceT_ &&                                               \
            simTraceT_->wants(::sim::Tracer::category)) {               \
            simTraceT_->method(::sim::Tracer::category, __VA_ARGS__);   \
        }                                                               \
    } while (0)

} // namespace sim

#endif // TTDA_COMMON_TRACE_HH
