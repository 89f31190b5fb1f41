/**
 * @file
 * Shared helpers for the experiment binaries. Each experiment (E1-E11
 * in DESIGN.md) prints one or more tables reproducing a figure or
 * claim from the paper; EXPERIMENTS.md records paper-vs-measured.
 */

#ifndef TTDA_BENCH_BENCH_UTIL_HH
#define TTDA_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fault.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/table.hh"
#include "common/trace.hh"
#include "graph/profile.hh"
#include "emul/compile.hh"
#include "emul/vm.hh"
#include "id/codegen.hh"
#include "ttda/machine.hh"
#include "vn/machine.hh"
#include "workloads/vn_programs.hh"

namespace bench
{

/** Which emulation tier an experiment should exercise (--emul=). */
enum class EmulMode
{
    Interp,   //!< token-at-a-time ttda::Emulator
    Compiled, //!< threaded-code scalar VM (src/emul)
    Lanes,    //!< threaded-code lane-batched VM
};

inline const char *
emulModeName(EmulMode m)
{
    switch (m) {
      case EmulMode::Interp: return "interp";
      case EmulMode::Compiled: return "compiled";
      case EmulMode::Lanes: return "lanes";
    }
    return "?";
}

/**
 * Observability flags shared by every experiment and example binary:
 *
 *   --trace=FILE        write a Chrome trace-event JSON trace of the
 *                       run (open in Perfetto / chrome://tracing)
 *   --trace-cats=LIST   comma-separated categories to record
 *                       (wm,fire,net,mem,istr,sched; default all)
 *   --stats-json=FILE   write the machine's statistics as one JSON
 *                       document
 *   --seed=N            machine root seed (stats JSON records it in
 *                       the "meta" group, so any run is replayable)
 *   --fault-seed=N      enable fault injection with the canonical
 *                       lossy plan (FaultPlan::defaultLossy) under
 *                       seed N
 *   --fault-plan=SPEC   enable fault injection with a full plan spec
 *                       (see sim::fault::FaultPlan::parse); combines
 *                       with --fault-seed, which overrides the spec's
 *                       seed
 *   --reliable          wrap the fabric in net::ReliableNet (timeout
 *                       retransmission + dedup) so the machine
 *                       finishes despite injected loss
 *   --emul=MODE         emulation tier for experiments that run the
 *                       fast (untimed) side: interp (token-at-a-time
 *                       interpreter), compiled (threaded-code scalar
 *                       VM), or lanes (lane-batched VM); benches that
 *                       compare tiers run all three unless this
 *                       restricts them
 *   --metrics[=N]       sample a deterministic time series (per-PE /
 *                       per-core activity, queue depths, backlogs)
 *                       every N sim-cycles (default 1024)
 *   --metrics-json=FILE write the time series as JSON (default:
 *                       stdout when --metrics is given without a file)
 *   --metrics-csv=FILE  also write the time series as CSV
 *   --profile[=N]       attribute fires and cycles to source
 *                       instructions and print the top N (default 20)
 *                       hottest after the run
 *   --profile-folded=FILE
 *                       write the profile as collapsed stacks
 *                       (flamegraph.pl / speedscope input), folding
 *                       the static-call chain
 *   --reps=N            timed repetitions per configuration in
 *                       host-time benches (default: the bench's own,
 *                       see RepTimer; the best rep is reported — min
 *                       is robust to scheduler noise)
 *   --warmup=N          untimed warmup repetitions before the timed
 *                       ones (default: the bench's own)
 *
 * Recognised flags are consumed; everything else (argv[0] first) stays
 * in `args`, so a binary's positional-argument parsing is unchanged.
 * Unknown `--flags` are rejected with a fatal diagnostic — a typo'd
 * option must not silently become a positional argument.
 */
class SimOptions
{
  public:
    SimOptions(int argc, char **argv)
    {
        std::uint32_t mask = sim::Tracer::All;
        if (argc > 0)
            args.push_back(argv[0]);
        for (int i = 1; i < argc; ++i) {
            const std::string_view arg = argv[i];
            if (arg.rfind("--trace=", 0) == 0) {
                tracePath_ = std::string(arg.substr(8));
            } else if (arg.rfind("--trace-cats=", 0) == 0) {
                mask = sim::Tracer::parseCategories(
                    std::string(arg.substr(13)));
            } else if (arg.rfind("--stats-json=", 0) == 0) {
                statsPath_ = std::string(arg.substr(13));
            } else if (arg.rfind("--seed=", 0) == 0) {
                seed_ = std::stoull(std::string(arg.substr(7)));
                seedSet_ = true;
            } else if (arg.rfind("--fault-seed=", 0) == 0) {
                faultSeed_ = std::stoull(std::string(arg.substr(13)));
                faultSeedSet_ = true;
            } else if (arg.rfind("--fault-plan=", 0) == 0) {
                faults_ = sim::fault::FaultPlan::parse(
                    std::string(arg.substr(13)));
                faultPlanSet_ = true;
            } else if (arg == "--reliable") {
                reliable_ = true;
            } else if (arg.rfind("--emul=", 0) == 0) {
                const std::string_view mode = arg.substr(7);
                if (mode == "interp")
                    emulMode_ = EmulMode::Interp;
                else if (mode == "compiled")
                    emulMode_ = EmulMode::Compiled;
                else if (mode == "lanes")
                    emulMode_ = EmulMode::Lanes;
                else
                    sim::fatal("--emul must be interp, compiled, or "
                               "lanes (got '{}')",
                               std::string(mode));
                emulModeSet_ = true;
            } else if (arg == "--metrics") {
                metricsEnabled_ = true;
            } else if (arg.rfind("--metrics=", 0) == 0) {
                metricsEnabled_ = true;
                metricsInterval_ = static_cast<sim::Cycle>(
                    std::stoull(std::string(arg.substr(10))));
                if (metricsInterval_ == 0)
                    sim::fatal("--metrics interval must be >= 1");
            } else if (arg.rfind("--metrics-json=", 0) == 0) {
                metricsEnabled_ = true;
                metricsJsonPath_ = std::string(arg.substr(15));
            } else if (arg.rfind("--metrics-csv=", 0) == 0) {
                metricsEnabled_ = true;
                metricsCsvPath_ = std::string(arg.substr(14));
            } else if (arg == "--profile") {
                profile_ = true;
            } else if (arg.rfind("--profile=", 0) == 0) {
                profile_ = true;
                profileTopN_ = static_cast<std::size_t>(
                    std::stoull(std::string(arg.substr(10))));
            } else if (arg.rfind("--profile-folded=", 0) == 0) {
                profile_ = true;
                profileFoldedPath_ = std::string(arg.substr(17));
            } else if (arg.rfind("--reps=", 0) == 0) {
                reps_ = static_cast<std::uint32_t>(
                    std::stoul(std::string(arg.substr(7))));
                if (reps_ == 0)
                    sim::fatal("--reps must be >= 1");
                repsSet_ = true;
            } else if (arg.rfind("--warmup=", 0) == 0) {
                warmup_ = static_cast<std::uint32_t>(
                    std::stoul(std::string(arg.substr(9))));
                warmupSet_ = true;
            } else if (arg.size() > 2 && arg.rfind("--", 0) == 0) {
                sim::fatal("unknown flag '{}' (shared flags: --trace, "
                           "--trace-cats, --stats-json, "
                           "--seed, --fault-seed, --fault-plan, "
                           "--reliable, --emul, --metrics, "
                           "--metrics-json, --metrics-csv, --profile, "
                           "--profile-folded, --reps, --warmup)",
                           std::string(arg));
            } else {
                args.push_back(argv[i]);
            }
        }
        if (!tracePath_.empty())
            tracer.open(tracePath_, mask);
        if (metricsEnabled_)
            metrics_.emplace(metricsInterval_);
    }

    /** Hand the tracer to a machine about to be constructed. */
    void
    apply(ttda::MachineConfig &cfg)
    {
        if (tracer.active())
            cfg.tracer = &tracer;
        // A stats dump should include the latency histograms even
        // when no trace file was requested.
        if (!statsPath_.empty())
            cfg.latencyStats = true;
        if (metrics_)
            cfg.metrics = &*metrics_;
        if (profile_)
            cfg.profile = true;
        applyCommon(cfg);
    }

    void
    apply(vn::VnMachineConfig &cfg)
    {
        if (tracer.active())
            cfg.tracer = &tracer;
        if (metrics_)
            cfg.metrics = &*metrics_;
        applyCommon(cfg);
    }

    bool faultsRequested() const { return faultPlanSet_ || faultSeedSet_; }
    bool reliable() const { return reliable_; }
    EmulMode emulMode() const { return emulMode_; }
    bool emulModeSet() const { return emulModeSet_; }

    bool metricsEnabled() const { return metrics_.has_value(); }
    /** The recorder behind --metrics (null when not requested). */
    sim::MetricsRecorder *
    metrics()
    {
        return metrics_ ? &*metrics_ : nullptr;
    }
    bool profileRequested() const { return profile_; }
    std::size_t profileTopN() const { return profileTopN_; }

    /** Timed repetitions a hot-loop bench should run per configuration
     *  (host-time measurements report the best rep). */
    std::uint32_t reps() const { return reps_; }
    /** Untimed warmup repetitions before the timed ones — fills
     *  allocator pools, page-faults the working set, and (for a
     *  reset()-reused machine) warms its hash stores. */
    std::uint32_t warmup() const { return warmup_; }
    /** Whether --reps / --warmup were given explicitly (harnesses
     *  with their own repetition machinery, e.g. google-benchmark,
     *  forward them only when the user asked). */
    bool repsSet() const { return repsSet_; }
    bool warmupSet() const { return warmupSet_; }

    /** The tiers a comparison bench should run: the selected one, or
     *  all three when --emul was not given. */
    std::vector<EmulMode>
    emulModes() const
    {
        if (emulModeSet_)
            return {emulMode_};
        return {EmulMode::Interp, EmulMode::Compiled, EmulMode::Lanes};
    }

    /** Write the machine's statistics to --stats-json, if given. */
    template <typename MachineT>
    void
    writeStatsJson(const MachineT &machine)
    {
        if (statsPath_.empty())
            return;
        std::ofstream os(statsPath_);
        if (!os)
            sim::fatal("cannot open stats output '{}'", statsPath_);
        machine.dumpStatsJson(os);
    }

    /** Dedicated Perfetto process for exportCounters tracks — far
     *  above any per-PE/per-core pid a machine allocates. */
    static constexpr std::uint32_t kMetricsPid = 9990;

    /**
     * Export the recorded time series: JSON to --metrics-json (stdout
     * when --metrics was given without a file), CSV to --metrics-csv,
     * and counter tracks into the active tracer; then reset the
     * recorder so the next run in the same binary starts a fresh
     * series. A multi-run bench writing to files should pass distinct
     * paths or accept last-run-wins. No-op without --metrics.
     */
    void
    writeMetrics(std::string_view runName = {})
    {
        if (!metrics_)
            return;
        if (!metricsJsonPath_.empty()) {
            std::ofstream os(metricsJsonPath_);
            if (!os)
                sim::fatal("cannot open metrics output '{}'",
                           metricsJsonPath_);
            metrics_->dumpJson(os);
        } else {
            if (!runName.empty())
                std::cout << "metrics (" << runName << "):\n";
            metrics_->dumpJson(std::cout);
        }
        if (!metricsCsvPath_.empty()) {
            std::ofstream os(metricsCsvPath_);
            if (!os)
                sim::fatal("cannot open metrics output '{}'",
                           metricsCsvPath_);
            metrics_->dumpCsv(os);
        }
        if (tracer.active()) {
            tracer.processName(kMetricsPid, "metrics");
            metrics_->exportCounters(tracer, kMetricsPid);
        }
        metrics_->reset();
    }

    /** Print the hot-instruction report and write the folded
     *  (flamegraph) file for a machine run. No-op without --profile. */
    void
    writeProfile(const ttda::Machine &m)
    {
        if (!profile_)
            return;
        m.dumpProfile(std::cout, profileTopN_);
        if (!profileFoldedPath_.empty()) {
            std::ofstream os(profileFoldedPath_);
            if (!os)
                sim::fatal("cannot open profile output '{}'",
                           profileFoldedPath_);
            m.dumpFolded(os);
        }
    }

    /** The same reports for an emulation tier's per-source fire
     *  counts (see emul::toProfile). */
    void
    writeProfile(const graph::Program &program,
                 const graph::InstrProfile &profile)
    {
        if (!profile_)
            return;
        graph::writeTopN(std::cout, program, profile, profileTopN_);
        if (!profileFoldedPath_.empty()) {
            std::ofstream os(profileFoldedPath_);
            if (!os)
                sim::fatal("cannot open profile output '{}'",
                           profileFoldedPath_);
            graph::writeFolded(os, program, profile);
        }
    }

    sim::Tracer tracer;
    std::vector<char *> args; //!< argv[0] plus unconsumed arguments

  private:
    /** The config fields that exist (with the same names) in both
     *  machine configs. */
    template <typename Config>
    void
    applyCommon(Config &cfg)
    {
        if (seedSet_)
            cfg.seed = seed_;
        if (faultPlanSet_) {
            cfg.faults = faults_;
            if (faultSeedSet_)
                cfg.faults.seed = faultSeed_;
        } else if (faultSeedSet_) {
            cfg.faults = sim::fault::FaultPlan::defaultLossy(faultSeed_);
        }
        if (reliable_)
            cfg.reliableNet = true;
    }

    std::string tracePath_;
    std::string statsPath_;
    std::uint64_t seed_ = 0;
    bool seedSet_ = false;
    std::uint64_t faultSeed_ = 0;
    bool faultSeedSet_ = false;
    sim::fault::FaultPlan faults_;
    bool faultPlanSet_ = false;
    bool reliable_ = false;
    EmulMode emulMode_ = EmulMode::Interp;
    bool emulModeSet_ = false;
    bool metricsEnabled_ = false;
    sim::Cycle metricsInterval_ = 1024;
    std::string metricsJsonPath_;
    std::string metricsCsvPath_;
    std::optional<sim::MetricsRecorder> metrics_;
    bool profile_ = false;
    std::size_t profileTopN_ = 20;
    std::string profileFoldedPath_;
    std::uint32_t reps_ = 3;
    std::uint32_t warmup_ = 1;
    bool repsSet_ = false;
    bool warmupSet_ = false;
};

/** Wall-clock milliseconds of one run of `body`. */
template <typename F>
double
timeMs(F &&body)
{
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/**
 * Best-of-N host timing: `warmup` untimed runs, then `reps` timed
 * ones. --reps and --warmup override the bench's own defaults, so
 * every row a bench times uses one count, and its BENCH file's note
 * says which (describe()).
 */
class RepTimer
{
  public:
    RepTimer(const SimOptions &opts, std::uint32_t reps = 3,
             std::uint32_t warmup = 1)
        : reps_(opts.repsSet() ? opts.reps() : reps),
          warmup_(opts.warmupSet() ? opts.warmup() : warmup)
    {}

    /** The best wall-clock milliseconds of `body` (min is robust to
     *  host noise). */
    template <typename F>
    double
    bestMs(F &&body) const
    {
        return bestOf([&body] { return timeMs(body); });
    }

    /** The best of the milliseconds `rep` returns, for a rep that
     *  prepares and checks its run untimed and times only the span
     *  it measures. */
    template <typename F>
    double
    bestOf(F &&rep) const
    {
        for (std::uint32_t r = 0; r < warmup_; ++r)
            rep();
        double best = 0.0;
        for (std::uint32_t r = 0; r < reps_; ++r) {
            const double ms = rep();
            if (r == 0 || ms < best)
                best = ms;
        }
        return best;
    }

    /** "best of 3 runs after 1 warm-up", for notes and titles. */
    std::string
    describe() const
    {
        return sim::format("best of {} runs after {} warm-up", reps_,
                           warmup_);
    }

  private:
    std::uint32_t reps_;
    std::uint32_t warmup_;
};

// ttda_add_bench defines both from CMake, as perfbench does.
#ifndef TTDA_BENCH_COMPILER
#define TTDA_BENCH_COMPILER "unknown"
#endif
#ifndef TTDA_BENCH_BUILD_TYPE
#define TTDA_BENCH_BUILD_TYPE "unknown"
#endif

/**
 * One row of a BENCH_*.json file: its name, the fields the bench
 * measured in the order they are set, and last its "gate", which
 * tells scripts/bench_guard.sh how to compare the row with its
 * committed twin. {"field": F, "better": "lower"} fails when F rises
 * above the baseline by more than the threshold, "higher" when it
 * falls below by more, and "info" reports the row without gating it.
 * The bench that times a row sets its gate.
 */
class BenchRow
{
  public:
    explicit BenchRow(std::string name)
    {
        row_.set("name", sim::json::Value::str(std::move(name)));
    }

    /** Add a field; integers are written exactly. */
    template <typename T>
    BenchRow &
    set(std::string key, const T &v)
    {
        using sim::json::Value;
        if constexpr (std::is_same_v<T, bool>)
            row_.set(std::move(key), Value::boolean(v));
        else if constexpr (std::is_integral_v<T>)
            row_.set(std::move(key), Value::intNum(v));
        else if constexpr (std::is_floating_point_v<T>)
            row_.set(std::move(key), Value::num(v));
        else
            row_.set(std::move(key), Value::str(std::string(v)));
        return *this;
    }

    BenchRow &lower(const char *field) { return gate(field, "lower"); }
    BenchRow &higher(const char *field) { return gate(field, "higher"); }
    BenchRow &
    info()
    {
        gate_ = sim::json::Value::str("info");
        return *this;
    }

    /** Field access for a bench's own table. */
    const sim::json::Value &
    operator[](std::string_view key) const
    {
        return row_.opt(key);
    }

    /** The row as written: its fields, then its gate, which every
     *  row must have. */
    sim::json::Value
    json() const
    {
        SIM_ASSERT_MSG(gate_.isStr() ||
                           (gate_.isObj() &&
                            row_.has(gate_.get("field").asStr())),
                       "bench row {} has no gate, or gates on a field "
                       "it lacks",
                       row_.get("name").asStr());
        sim::json::Value v = row_;
        v.set("gate", gate_);
        return v;
    }

  private:
    BenchRow &
    gate(const char *field, const char *better)
    {
        gate_ = sim::json::Value::obj();
        gate_.set("field", sim::json::Value::str(field));
        gate_.set("better", sim::json::Value::str(better));
        return *this;
    }

    sim::json::Value row_ = sim::json::Value::obj();
    sim::json::Value gate_; //!< null until lower/higher/info
};

/**
 * Write a BENCH_*.json file, one row per line:
 * {"benchmark", "note", "host", "runs"}. `note` says how the rows
 * were timed; "host" records nproc, the compiler and the build type.
 * Returns false, with a message, when the file cannot be written.
 */
inline bool
writeBench(const std::string &path, const std::string &benchmark,
           const std::string &note, const std::vector<BenchRow> &rows)
{
    using sim::json::Value;
    Value host = Value::obj();
    host.set("nproc", Value::intNum(std::thread::hardware_concurrency()));
    host.set("compiler", Value::str(TTDA_BENCH_COMPILER));
    host.set("build_type", Value::str(TTDA_BENCH_BUILD_TYPE));
    std::ofstream os(path);
    os << "{\n  \"benchmark\": " << Value::str(benchmark).dump()
       << ",\n  \"note\": " << Value::str(note).dump()
       << ",\n  \"host\": " << host.dump() << ",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i)
        os << "    " << rows[i].json().dump()
           << (i + 1 < rows.size() ? ",\n" : "\n");
    os << "  ]\n}\n";
    if (!os) {
        std::cerr << benchmark << ": cannot write " << path << "\n";
        return false;
    }
    std::cout << "wrote " << path << "\n";
    return true;
}

/**
 * One-line replay header mirroring the stats JSON "meta" group, for
 * the human-readable output path (the JSON-only placement meant a
 * table reader had no way to reproduce a run without re-running with
 * --stats-json).
 */
template <typename MachineT>
std::string
metaSummary(const MachineT &machine)
{
    std::string s =
        sim::format("meta: seed={}", machine.config().seed);
    if (machine.faultInjector())
        s += sim::format(" faultSeed={}",
                         machine.faultInjector()->plan().seed);
    s += sim::format(" reliable={}",
                     machine.reliableNet() ? "yes" : "no");
    return s;
}

/** Summary of one fast-tier (untimed) run. */
struct EmulTierRun
{
    std::vector<graph::Value> outputs; //!< one context's OUTPUTs
    std::uint64_t fired = 0;           //!< firings of one context
    double seconds = 0.0;              //!< host time per context
    bool supported = true; //!< lanes mode on a non-laneable program?
};

/**
 * Run `compiled`'s program through one emulation tier. Lanes mode
 * runs `batch` identical contexts and reports per-context time and
 * firings (falls back to supported=false when the program has
 * residual calls). When `opts` is given, --profile prints the tier's
 * per-source fire attribution (cycles are zero — these tiers are
 * untimed) and --metrics samples lane occupancy in lanes mode.
 */
inline EmulTierRun
runEmulTier(const id::Compiled &compiled, EmulMode mode,
            const std::vector<graph::Value> &inputs,
            std::size_t batch = 64, SimOptions *opts = nullptr)
{
    using Clock = std::chrono::steady_clock;
    const bool profiling = opts && opts->profileRequested();
    EmulTierRun r;
    if (mode == EmulMode::Interp) {
        const auto t0 = Clock::now();
        ttda::Emulator emu(compiled.program);
        if (profiling)
            emu.enableFireCounts();
        for (std::size_t p = 0; p < inputs.size(); ++p)
            emu.input(compiled.startCb,
                      static_cast<std::uint16_t>(p), inputs[p]);
        for (const auto &rec : emu.run())
            r.outputs.push_back(rec.value);
        r.fired = emu.stats().fired;
        r.seconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (profiling)
            opts->writeProfile(compiled.program,
                               emul::toProfile(emu.fireCounts()));
        return r;
    }

    const auto prog =
        emul::compile(compiled.program, compiled.startCb);
    if (mode == EmulMode::Lanes && !prog.laneable()) {
        r.supported = false;
        return r;
    }
    emul::RunOptions ropts;
    ropts.countFires = profiling;
    const auto t0 = Clock::now();
    if (mode == EmulMode::Compiled) {
        auto rr = emul::run(prog, inputs, ropts);
        r.outputs = std::move(rr.outputs);
        r.fired = rr.fired;
        r.seconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (profiling)
            opts->writeProfile(compiled.program,
                               emul::toProfile(
                                   std::move(rr.fireCounts)));
    } else {
        if (opts)
            ropts.metrics = opts->metrics();
        auto br = prog.execute(batch, inputs, {}, ropts);
        r.outputs = std::move(br.outputs.at(0));
        r.fired = br.fired / batch;
        r.seconds =
            std::chrono::duration<double>(Clock::now() - t0).count() /
            static_cast<double>(batch);
        if (profiling)
            opts->writeProfile(compiled.program,
                               emul::toProfile(
                                   std::move(br.fireCounts)));
        if (opts)
            opts->writeMetrics(
                sim::format("lanes x{}", batch));
    }
    return r;
}

/** Summary of one tagged-token machine run. */
struct TtdaRun
{
    double value = 0.0;
    sim::Cycle cycles = 0;
    std::uint64_t fired = 0;
    double opsPerCycle = 0.0;
    double aluUtil = 0.0;
    std::uint64_t deferred = 0;
    bool deadlocked = false;
};

/** Compile-once cache is the caller's job; this runs one config.
 *  When `opts` is given, its tracer / --stats-json settings apply. */
inline TtdaRun
runTtda(const id::Compiled &compiled, ttda::MachineConfig cfg,
        const std::vector<graph::Value> &inputs,
        SimOptions *opts = nullptr)
{
    if (opts)
        opts->apply(cfg);
    ttda::Machine m(compiled.program, cfg);
    for (std::size_t p = 0; p < inputs.size(); ++p)
        m.input(compiled.startCb, static_cast<std::uint16_t>(p),
                inputs[p]);
    auto out = m.run();
    if (opts) {
        opts->writeStatsJson(m);
        opts->writeProfile(m);
        opts->writeMetrics();
    }
    TtdaRun r;
    if (!out.empty())
        r.value = out[0].value.isReal() ? out[0].value.asReal()
                                        : static_cast<double>(
                                              out[0].value.asInt());
    r.cycles = m.cycles();
    r.fired = m.totalFired();
    r.opsPerCycle = m.opsPerCycle();
    r.aluUtil = m.aluUtilization();
    r.deferred = m.istructureTotals().fetchesDeferred.value();
    r.deadlocked = m.deadlocked();
    return r;
}

/** Run a synthetic-trace von Neumann machine; returns the machine so
 *  callers can read any statistic. */
inline vn::VnMachine
runVnTrace(vn::VnMachineConfig cfg, std::uint64_t references,
           std::uint32_t compute_per_ref, double remote_fraction,
           std::uint64_t seed = 7)
{
    vn::VnMachine m(cfg);
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        workloads::TraceConfig tc;
        tc.coreId = c;
        tc.numCores = cfg.numCores;
        tc.wordsPerModule = cfg.wordsPerModule;
        tc.references = references;
        tc.computePerRef = compute_per_ref;
        tc.remoteFraction = remote_fraction;
        tc.seed = seed;
        m.core(c).attachTrace(workloads::makeUniformTrace(tc));
    }
    m.run();
    return m;
}

} // namespace bench

#endif // TTDA_BENCH_BENCH_UTIL_HH
