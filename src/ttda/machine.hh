/**
 * @file
 * The cycle-level Tagged-Token Dataflow Machine (paper Figures 2-3 and
 * 2-4).
 *
 * The machine is a set of processing elements joined by a packet
 * network. Each PE is the pipeline of Figure 2-4:
 *
 *   input -> [classify] -> waiting-matching -> instruction fetch
 *         -> ALU -> output section -> network
 *
 * with an I-structure controller beside it servicing d=1 tokens
 * against the PE's partition of structure storage, and a PE controller
 * absorbing d=2 (OUTPUT) tokens. Every stage accepts at most one item
 * per cycle, with configurable per-stage latencies, so stage occupancy
 * statistics (experiment E8) fall directly out of the model.
 *
 * Idealizations (documented in DESIGN.md):
 *  - context interning and structure-storage allocation are shared
 *    constant-time services charged as ordinary ALU work;
 *  - queues are unbounded (the real machine asserts back-pressure).
 *
 * Global I-structure addresses interleave across PEs: word g lives on
 * PE (g mod numPEs) at local offset (g div numPEs).
 *
 * The machine runs on the calling thread: each simulated cycle steps
 * every PE in index order, then the network. Host parallelism lives
 * at job grain instead (serve::TtdaFleet, the daemon's workers); see
 * docs/ARCHITECTURE.md, "One host thread per machine", for why.
 */

#ifndef TTDA_TTDA_MACHINE_HH
#define TTDA_TTDA_MACHINE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "common/flatmap.hh"
#include "common/metrics.hh"
#include "common/ringqueue.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "graph/context.hh"
#include "graph/exec.hh"
#include "graph/profile.hh"
#include "graph/program.hh"
#include "graph/token.hh"
#include "mem/istructure.hh"
#include "net/fabric.hh"
#include "ttda/emulator.hh" // OutputRecord

namespace ttda
{

/** Machine-level configuration; the fabric's fields (topology and
 *  its latencies, seed, fault plan, ReliableNet) are inherited. */
struct MachineConfig : net::FabricConfig
{
    std::uint32_t numPEs = 4;
    sim::Cycle hopLatency = 1; //!< Hypercube per-link

    // PE stage service times (cycles per item).
    sim::Cycle matchCycles = 1;  //!< waiting-matching per token
    sim::Cycle fetchCycles = 1;  //!< instruction fetch
    sim::Cycle aluCycles = 1;    //!< ALU per operation (default)

    /** Per-opcode ALU latency overrides (e.g. multi-cycle divide). */
    std::map<graph::Opcode, sim::Cycle> opLatency;
    std::uint32_t outputBandwidth = 2; //!< tokens the output section
                                       //!< can emit per cycle

    /** Capacity of the waiting-matching associative store (entries);
     *  0 = unbounded. Beyond it, inserts spill to slow overflow
     *  memory, costing matchOverflowPenalty extra cycles each — the
     *  finite-associative-store pressure the real TTDA faced. */
    std::uint32_t matchCapacity = 0;
    sim::Cycle matchOverflowPenalty = 10;

    /** Admission control for the serving fast path (serve()): stop
     *  injecting queued requests once total waiting-matching occupancy
     *  reaches the high watermark, and resume once it drains back to
     *  the low watermark (0 = high/2). high == 0 disables the gate:
     *  every request is injected the cycle it arrives. */
    std::uint32_t wmHighWatermark = 0;
    std::uint32_t wmLowWatermark = 0;

    // I-structure controller.
    sim::Cycle isReadCycles = 1;
    sim::Cycle isWriteCycles = 2;
    std::size_t isWordsPerPe = 1u << 18;

    /** How activities are spread over PEs. */
    enum class Mapping
    {
        HashTag,     //!< hash of the full tag (default)
        ByContext,   //!< hash of the context: one code-block
                     //!< invocation stays on one PE, so loop control
                     //!< never crosses the network (the real TTDA's
                     //!< work-distribution unit)
        ByIteration, //!< (ctx + iter) mod n: keeps an iteration local
        SinglePe,    //!< everything on PE 0 (sequential baseline)
    };
    Mapping mapping = Mapping::HashTag;

    bool localBypass = true; //!< same-PE tokens skip the network

    std::uint64_t maxCycles = 50'000'000;

    /** Retired: the machine always runs on the calling thread, and
     *  the constructor rejects any value but 0 or 1. The field stays
     *  only because the perfbench harness (perfbench/src/sim_dense.cc
     *  and fleet_lossy.cc) still assigns it 1. */
    std::uint32_t threads = 1;

    /** When set, one line per machine event (token classified,
     *  activity fired, output) is written here — the simulator's debug
     *  trace. Like an active tracer it implies latencyStats; a run
     *  without it pays nothing for it. */
    std::ostream *trace = nullptr;

    /** When set, token-lifecycle events (waiting-matching, fires,
     *  network transit, I-structure traffic) are emitted as Chrome
     *  trace-event JSON: one process per PE plus one for the network,
     *  one thread per pipeline stage. Must be open()ed/attach()ed by
     *  the caller before run(). Hot path cost when null is a single
     *  branch per SIM_TRACE site. */
    sim::Tracer *tracer = nullptr;

    /** Stamp tokens with seq/birth-cycle and sample the birth-to-fire
     *  and read-latency histograms. Implied by an active tracer or a
     *  text trace; enabled by --stats-json. Off by default so the per-fire path
     *  pays nothing for lifecycle accounting nobody will read. */
    bool latencyStats = false;

    /** When set, the machine samples a time-series row into this
     *  recorder every recorder-interval cycles, at the end of the
     *  tick (after network receive). The machine registers its
     *  series in the ctor; null = no sampling (and no cost). */
    sim::MetricsRecorder *metrics = nullptr;

    /** Attribute fires and ALU cycles to source instructions over the
     *  dense Program::instrIndexOffsets index space (the cross-tier
     *  hot-spot profiler). Rides the Obs path: off = zero cost. */
    bool profile = false;
};

/** Per-PE statistics (stage occupancy for experiment E8). */
struct PeStats
{
    sim::Counter tokensIn;        //!< tokens classified
    sim::Counter fired;           //!< activities executed
    sim::Counter matchBusyCycles; //!< waiting-matching occupied
    sim::Counter aluBusyCycles;   //!< ALU occupied
    sim::Counter isBusyCycles;    //!< I-structure controller occupied
    sim::Counter outputTokens;    //!< tokens through the output section
    sim::Counter bypassTokens;    //!< tokens short-circuited locally
    sim::Counter matchOverflows;  //!< inserts beyond the WM capacity
    sim::Counter dupTokensDropped; //!< duplicate operands discarded at
                                   //!< the waiting-matching section
                                   //!< (fault injection only)
    sim::Counter dupStoresSuppressed; //!< repeated writes of the same
                                      //!< structure cell absorbed
                                      //!< idempotently (faults only)
    std::uint64_t waitStorePeak = 0; //!< peak waiting-matching entries

    template <class V>
    void
    visitState(V &v)
    {
        v(tokensIn, fired, matchBusyCycles, aluBusyCycles, isBusyCycles,
          outputTokens, bypassTokens, matchOverflows, dupTokensDropped,
          dupStoresSuppressed, waitStorePeak);
    }
};

/** The multi-PE cycle-level machine. */
class Machine
{
  public:
    Machine(const graph::Program &program, MachineConfig config);
    ~Machine();

    /** Inject an input value into `param` of code block `cb` before
     *  run() (root context, iteration 1). */
    void input(std::uint16_t cb, std::uint16_t param, graph::Value v);

    /** Pre-populate I-structure storage with a fully written array
     *  (workload setup); returns the pointer to pass as an input. */
    graph::IPtr preload(const std::vector<graph::Value> &values);

    /** Run to quiescence (or deadlock / maxCycles). */
    std::vector<OutputRecord> run();

    /**
     * Run until quiescence or until the simulated clock reaches
     * `stopAt`, whichever comes first. @return true when the run
     * paused at `stopAt` (resume with another runUntil/run call),
     * false when it reached quiescence. The pause point is checked at
     * the top of the tick — a paused machine holds no mid-tick state,
     * so it can be snapshotted — and the landing cycle depends only
     * on (program, config, stopAt). Latency histograms and profiles
     * are complete at every pause; deadlock detection and metrics
     * finalization run only when the run completes.
     */
    bool runUntil(sim::Cycle stopAt);

    /** Whether the last runUntil/serveUntil paused at its stop cycle
     *  rather than reaching quiescence. */
    bool paused() const { return paused_; }

    /** Output records accumulated so far (complete after run()/serve()
     *  return; partial while paused). */
    const std::vector<OutputRecord> &outputs() const { return outputs_; }

    // ---- steady-state serving fast path ----------------------------

    /** Queue one request for serve(): a fresh root application of code
     *  block `cb` with args[i] bound to parameter i, arriving
     *  (open-loop) at cycle `arrival`. Requests must be submitted in
     *  non-decreasing arrival order. @return the request id; tokens of
     *  request r run in the root context with iter == r + 1, so its
     *  OUTPUT records (and stranded activities in deadlockReport())
     *  are attributable to it. */
    std::uint32_t submit(std::uint16_t cb,
                         std::vector<graph::Value> args,
                         sim::Cycle arrival);

    /** Run the machine as a server: inject every submitted request
     *  into the running machine at its arrival cycle (subject to the
     *  admission watermark), run to quiescence, and record each
     *  request's arrival-to-completion latency into requestLatency().
     *  Injection happens at the top of the tick. */
    std::vector<OutputRecord> serve();

    /** serve() with a pause point: run the serving loop until
     *  quiescence (all requests drained) or cycle `stopAt`. Unlike
     *  serve() this is resumable — call it again (or on a machine
     *  restored from a mid-serve snapshot) to continue the same
     *  serving run. @return true when paused. */
    bool serveUntil(sim::Cycle stopAt);

    // ---- checkpoint / restore --------------------------------------

    /**
     * Serialize the complete run state — every field in visitState,
     * which is exactly what reset() clears: pipeline queues,
     * waiting-matching stores, structure storage, contexts, network
     * (including ReliableNet protocol state), fault-injector RNG,
     * statistics, histograms, serving queue — into the versioned
     * snapshot envelope (common/snapshot.hh). Call only
     * while the machine is quiescent or paused (runUntil/serveUntil);
     * never mid-run. Restore-then-run is bit-identical to the
     * uninterrupted run.
     */
    void saveSnapshot(std::ostream &os) const;

    /**
     * Restore a snapshot written by saveSnapshot onto this machine.
     * The machine must have been constructed with the same program
     * and an equivalent MachineConfig (numPEs, seed, topology,
     * mapping, reliableNet, structure-store size and fault plan are
     * fingerprinted and verified; stage latencies and the rest are
     * trusted). Throws
     * sim::snapshot::Error on a truncated, corrupt, or mismatched
     * snapshot, leaving the machine reset.
     */
    void restoreSnapshot(std::istream &is);

    /** Return the machine to its freshly-constructed state while
     *  keeping every warmed allocation: the waiting-matching stores
     *  keep their table capacity, structure storage its materialized
     *  chunks, network queues and heaps their buffers, and the
     *  operand-slot pool its vectors. A reset-then-run is bit-identical to a fresh
     *  machine's run (cycle count, outputs, statistics). The external
     *  MetricsRecorder, if any, is not rewound — reuse across resets
     *  needs a fresh recorder per run. */
    void reset();

    /**
     * The run-state field list from which reset(), saveSnapshot() and
     * restoreSnapshot() are derived (common/state.hh). Defined, and
     * instantiated, in ttda/snapshot.cc. Left out, deliberately: the
     * configuration, the occupancy counters the run loop maintains
     * incrementally (recountOccupancy() rebuilds them), scratch
     * buffers, and the pause bookkeeping.
     */
    template <class V>
    void visitState(V &v);

    /**
     * Replace the fault plan between runs (fleet replicas: each job
     * carries its own plan). An enabled plan builds a fresh injector —
     * seed 0 derives from the machine seed, as at construction — and
     * an empty plan removes injection entirely. Call only while the
     * machine is quiescent (typically right after reset()); a
     * reset-then-setFaultPlan-then-run is bit-identical to a fresh
     * machine constructed with that plan.
     */
    void setFaultPlan(const sim::fault::FaultPlan &plan);

    /** Arrival-to-completion latency (cycles), one sample per
     *  completed request; includes admission queueing delay. */
    const sim::Histogram &requestLatency() const { return reqLatency_; }
    std::uint64_t requestsSubmitted() const { return requests_.size(); }
    std::uint64_t requestsCompleted() const { return reqCompleted_; }
    /** Admission-gate closures: open -> blocked transitions at the
     *  high watermark while serving. */
    std::uint64_t watermarkHits() const { return watermarkHits_; }

    sim::Cycle cycles() const { return now_; }
    bool deadlocked() const { return deadlocked_; }

    /** Reads parked on deferred lists when the machine went idle. */
    std::size_t outstandingReads() const;

    std::uint64_t totalFired() const;
    double aluUtilization() const; //!< busy ALU cycles / (cycles*PEs)
    double opsPerCycle() const;    //!< fired / cycles

    const PeStats &peStats(std::uint32_t pe) const;
    const net::NetStats &netStats() const;
    const MachineConfig &config() const { return cfg_; }
    graph::ContextManager &contexts() { return contexts_; }

    /** The fault injector driving this run, or null when the plan is
     *  empty. */
    const sim::fault::FaultInjector *faultInjector() const
    {
        return fabric_.faults();
    }

    /** The reliability wrapper, or null when reliableNet is off. */
    const net::ReliableNet<graph::Token> *reliableNet() const
    {
        return fabric_.rel();
    }

    /** Aggregated I-structure statistics across all controllers. */
    mem::IStructureStats istructureTotals() const;

    /** Distribution of total waiting-matching residency, sampled
     *  every cycle (experiment E8). */
    const sim::Histogram &waitStoreResidency() const
    {
        return wmResidency_;
    }

    /** Cycles from a token's creation to the fire of the activity it
     *  enabled (token-lifecycle latency; one sample per fire).
     *  Populated only when MachineConfig::latencyStats is set, a
     *  tracer is active or the text trace is set. */
    const sim::Histogram &birthToFireLatency() const
    {
        return birthToFire_;
    }

    /** Cycles from an I-structure FETCH's issue to its response being
     *  emitted by the controller (includes deferral time). */
    const sim::Histogram &readLatency() const { return readLatency_; }

    /** Per-source-instruction fire/cycle attribution (populated when
     *  MachineConfig::profile). */
    const graph::InstrProfile &profile() const { return profile_; }

    /** Ranked hot-instruction report (MachineConfig::profile). */
    void
    dumpProfile(std::ostream &os, std::size_t topN) const
    {
        graph::writeTopN(os, program_, profile_, topN);
    }

    /** Collapsed-stack (flamegraph) export of the profile. */
    void
    dumpFolded(std::ostream &os) const
    {
        graph::writeFolded(os, program_, profile_);
    }

    /** gem5-style statistics listing (machine and per-PE groups). */
    void dumpStats(std::ostream &os) const;

    /** The same statistics as one machine-readable JSON document:
     *  each group keyed by name, plus a "histograms" object with the
     *  wm-residency / birth-to-fire / read-latency distributions. */
    void dumpStatsJson(std::ostream &os) const;

    /** Structured diagnosis after a deadlocked run: every stranded
     *  waiting-matching entry (tag, filled-port bitmask, missing
     *  ports), every I-structure cell with parked readers (and who
     *  the readers are), and any packets still inside the network. */
    std::string deadlockReport() const;

  private:
    struct Waiting
    {
        std::vector<graph::Value> slots;
        std::uint64_t filled = 0; //!< bitmask of ports already arrived
        std::uint8_t arrived = 0;
        std::uint8_t expected = 0;

        template <class V>
        void
        visitState(V &v)
        {
            v(filled, arrived, expected, slots);
        }
    };

    struct ReadyOp
    {
        graph::EnabledInstruction enabled;
        sim::Cycle readyAt = 0;
        std::uint32_t born = 0; //!< birth of the enabling (last) token

        template <class V>
        void
        visitState(V &v)
        {
            v(enabled, readyAt, born);
        }
    };

    /** One queued serving request: a root application injected into
     *  the running machine when its arrival cycle is due and the
     *  admission gate is open. */
    struct ServeRequest
    {
        std::uint16_t cb = 0;
        std::vector<graph::Value> args; //!< moved out on injection
        sim::Cycle arrival = 0;
        bool done = false; //!< first OUTPUT seen; latency recorded

        template <class V>
        void
        visitState(V &v)
        {
            v(cb, args, arrival, done);
        }
    };

    struct Pe
    {
        explicit Pe(std::size_t is_words) : isStore(is_words) {}

        sim::RingQueue<graph::Token> inQ;
        /** The waiting-matching associative store: flat
         *  open-addressed, keyed on the full tag (hashed through its
         *  stable 64-bit packing), tombstone-free erases, one-pass
         *  growth — see docs/ARCHITECTURE.md, "The flat
         *  waiting-matching store". */
        sim::FlatHashMap<graph::Tag, Waiting, graph::TagHash> waitStore;
        sim::Cycle matchBusy = 0;
        sim::RingQueue<ReadyOp> fetchQ;
        sim::Cycle aluBusy = 0;
        sim::RingQueue<graph::Token> outQ;
        sim::RingQueue<graph::Token> isQ;
        sim::Cycle isBusy = 0;
        mem::IStructure<graph::IsCont, graph::Value> isStore;
        PeStats stats;

        template <class V>
        void
        visitState(V &v)
        {
            v(inQ, waitStore, matchBusy, fetchQ, aluBusy, outQ, isQ, isBusy,
              isStore, stats);
        }
    };

    sim::NodeId mapTag(const graph::Tag &tag) const;
    sim::NodeId mapToken(const graph::Token &t) const;
    std::uint64_t allocateGlobal(std::uint64_t n);
    void route(sim::NodeId src, graph::Token t);

    /** All tokens enter a PE's input queue through here: keeps the
     *  pipeline item count right. */
    void
    pushInQ(Pe &pe, graph::Token &&t)
    {
        pe.inQ.push_back(std::move(t));
        ++activeItems_;
    }

    // Chrome-trace track layout: process = PE (or numPEs for the
    // network), thread = pipeline stage within the PE.
    enum TraceTid : std::uint32_t
    {
        kTidWm = 0,     //!< waiting-matching section
        kTidFetch = 1,  //!< instruction fetch
        kTidAlu = 2,    //!< ALU
        kTidOutput = 3, //!< output section
        kTidIstr = 4,   //!< I-structure controller
    };
    std::vector<sim::StatGroup> statGroups() const;

    /** Register this machine's metrics series (ctor, when
     *  cfg_.metrics is set) and cache their ids. */
    void initMetrics();

    /** Stage every series' current value and record one row stamped
     *  now_. Called at the serial sample point of the run loops. */
    void sampleMetrics();

    // Stage steps, one call per PE per cycle in PE-index order.
    //
    // The whole step/emit path is templated on Obs — whether the
    // machine is observing token lifecycles (latencyStats, an active
    // tracer or a text trace). The Obs=false instantiation compiles out
    // every seq/born stamp, histogram sample, SIM_TRACE site and
    // text-trace line, so runs without observability pay literally
    // nothing for it; run() selects the instantiation once.
    template <bool Obs>
    void stepInput(Pe &pe, sim::NodeId id);
    template <bool Obs>
    void stepAlu(Pe &pe, sim::NodeId id);
    template <bool Obs>
    void stepIs(Pe &pe, sim::NodeId id);
    template <bool Obs>
    void stepOutput(Pe &pe, sim::NodeId id);

    /** Stamp a freshly created token and queue it for the output
     *  section. */
    template <bool Obs>
    void emitNew(Pe &pe, graph::Token &&t);

    /** Turn an I-structure controller's served continuations into
     *  response/store tokens. */
    template <bool Obs>
    void serveDeferred(
        Pe &pe, sim::NodeId id, graph::TokenKind cause,
        std::vector<std::pair<graph::IsCont, graph::Value>> &served);

    /** ALLOC/APPEND effects: global allocation, copy traffic, reply. */
    template <bool Obs>
    void applyAllocAppend(Pe &pe, sim::NodeId id, graph::Token tok);

    bool idle() const;

    /** Rebuild activeItems_, busyStages_ and wmEntries_ from the
     *  queues and stores they summarize (after a reset or restore). */
    void recountOccupancy();

    // ---- steady-state serving --------------------------------------
    // All four run at the top of the run-loop iteration or, for
    // noteRequestOutput, where the PE controller absorbs an OUTPUT.

    /** Inject request `rid` as a fresh top-level context: one token
     *  per parameter, tagged <root, cb, param, rid + 1>. */
    void injectRequest(std::uint32_t rid);

    /** Admission step: refresh the watermark gate and inject every
     *  due request it admits — plus one forced through when the
     *  machine is quiescent and the gate is wedged shut by stranded
     *  waiting-matching entries (the gate cannot reopen on its own). */
    void serveAdmit();

    /** Hysteresis on wmEntries_: block at >= high, reopen at <= low. */
    void updateAdmissionGate();

    /** Jump a quiescent machine to the next arrival and admit there.
     *  @return false when no requests remain to inject. */
    bool serveAdvance();

    /** The first OUTPUT carrying a request's initiation number
     *  completes it (latency sample, completion count). */
    void noteRequestOutput(const graph::Tag &tag);

    // ---- event-driven scheduler ------------------------------------
    // The run() loop skips stretches of cycles in which no stage can
    // make progress; these helpers keep the counters that make the
    // skip decision O(1)-ish and the batch accounting exact (see
    // docs/ARCHITECTURE.md, "Event-driven core").

    /** Jump now_ to the next cycle at which any stage or the network
     *  can act, batch-accounting busy counters and wm residency. */
    void skipAhead();

    /** Earliest cycle at which any PE's pipeline stage can act. */
    sim::Cycle nextPeEvent() const;

    /** Load a stage's busy countdown (cycles *beyond* the current
     *  one), maintaining the busy-stage count. */
    void
    setBusy(sim::Cycle &slot, sim::Cycle extra)
    {
        if (extra > 0 && slot == 0)
            ++busyStages_;
        slot = extra;
    }

    /** One-cycle busy decrement at the top of a stage step. @return
     *  true when the stage spent this cycle draining its countdown. */
    bool
    tickBusy(sim::Cycle &slot, sim::Counter &counter)
    {
        if (slot == 0)
            return false;
        counter.inc();
        if (--slot == 0)
            --busyStages_;
        return true;
    }

    /** One cycle of a fault-stalled PE: no stage starts new work, but
     *  in-flight operations (busy countdowns) keep draining — a stall
     *  freezes issue, not completion. */
    void
    tickStalled(Pe &pe)
    {
        tickBusy(pe.matchBusy, pe.stats.matchBusyCycles);
        tickBusy(pe.aluBusy, pe.stats.aluBusyCycles);
        tickBusy(pe.isBusy, pe.stats.isBusyCycles);
    }

    /** Batch-account `delta` skipped cycles against one busy slot. */
    void
    batchBusy(sim::Cycle &slot, sim::Counter &counter, sim::Cycle delta)
    {
        if (slot == 0)
            return;
        const sim::Cycle n = std::min(slot, delta);
        counter.inc(n);
        slot -= n;
        if (slot == 0)
            --busyStages_;
    }

    // ---- zero-allocation fire path ---------------------------------

    /** Operand vector of n default values, reusing pooled storage. */
    std::vector<graph::Value>
    takeSlots(std::size_t n)
    {
        if (slotPool_.empty())
            return std::vector<graph::Value>(n);
        std::vector<graph::Value> v = std::move(slotPool_.back());
        slotPool_.pop_back();
        v.clear();
        v.resize(n);
        return v;
    }

    /** Return an operand vector's storage to the pool. */
    void
    recycleSlots(std::vector<graph::Value> &&v)
    {
        if (slotPool_.size() < 1024)
            slotPool_.push_back(std::move(v));
    }

    /** The tick loop behind runUntil(). */
    template <bool Obs>
    void runLoop();

    const graph::Program &program_;
    MachineConfig cfg_;
    graph::ContextManager contexts_;
    graph::Executor exec_; //!< the firing engine (uses contexts_)
    net::Fabric<graph::Token> fabric_;
    std::vector<std::unique_ptr<Pe>> pes_;
    std::vector<OutputRecord> outputs_;
    std::uint64_t allocPtr_ = 0;
    sim::Cycle now_ = 0;
    bool deadlocked_ = false;
    sim::Histogram wmResidency_{4.0, 128};
    sim::Histogram birthToFire_{4.0, 128};
    sim::Histogram readLatency_{4.0, 128};
    std::uint32_t tokenSeq_ = 0; //!< next Token::seq to hand out
    bool observing_ = false; //!< latencyStats, tracing (either kind),
                             //!< metrics, or profiling requested
    sim::Tracer *trc_ = nullptr; //!< cfg_.tracer when active, else null

    // Incrementally maintained occupancy: going idle, skip-ahead and
    // the admission gate read these instead of sweeping every PE.
    std::uint64_t activeItems_ = 0; //!< items in pipeline queues
    std::uint32_t busyStages_ = 0;  //!< stages with a busy countdown
    std::uint64_t wmEntries_ = 0;   //!< waiting-matching entries

    /** Reused output buffer for Executor::execute (fire path). */
    std::vector<graph::Token> fireBuf_;
    /** Free list recycling Waiting::slots / operand storage. */
    std::vector<std::vector<graph::Value>> slotPool_;

    // ---- pause points (runUntil / serveUntil) ----------------------
    sim::Cycle stopAt_ = sim::neverCycle; //!< current runUntil bound
    bool paused_ = false; //!< last run stopped at stopAt_, not idle

    // ---- time-series metrics (cfg_.metrics) ------------------------
    sim::MetricsRecorder *metrics_ = nullptr;
    struct MetricsIds
    {
        std::vector<sim::MetricsRecorder::SeriesId> peFired;
        std::vector<sim::MetricsRecorder::SeriesId> peAluBusy;
        sim::MetricsRecorder::SeriesId wmEntries = 0;
        sim::MetricsRecorder::SeriesId activeItems = 0;
        sim::MetricsRecorder::SeriesId netQueued = 0;
        sim::MetricsRecorder::SeriesId netInFlight = 0;
        sim::MetricsRecorder::SeriesId isDeferred = 0;
        sim::MetricsRecorder::SeriesId faultsDestroyed = 0;
        sim::MetricsRecorder::SeriesId relRetransmits = 0;
        sim::MetricsRecorder::SeriesId relPending = 0;
        sim::MetricsRecorder::SeriesId srvInFlight = 0;
        sim::MetricsRecorder::SeriesId srvAdmitQueue = 0;
        sim::MetricsRecorder::SeriesId srvWatermarkHits = 0;
    };
    MetricsIds mIds_;

    // ---- steady-state serving (serve()) ----------------------------
    std::vector<ServeRequest> requests_;
    std::size_t nextAdmit_ = 0; //!< first request not yet injected
    std::uint64_t reqCompleted_ = 0;
    std::uint64_t watermarkHits_ = 0;
    bool admitBlocked_ = false; //!< admission gate currently shut
    bool serving_ = false;      //!< inside serve()
    sim::Histogram reqLatency_{16.0, 4096};

    // ---- hot-spot profiler (cfg_.profile) --------------------------
    graph::InstrProfile profile_;
    /** Global index of (cb, stmt) is instrOffsets_[cb] + stmt. */
    std::vector<std::size_t> instrOffsets_;

    /** ALU service time per opcode (cfg.aluCycles with cfg.opLatency
     *  overrides), resolved once so the fire path is a table load. */
    std::array<sim::Cycle, graph::numOpcodes> aluLatency_{};
};

} // namespace ttda

#endif // TTDA_TTDA_MACHINE_HH
