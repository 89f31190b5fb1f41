/**
 * @file
 * Machine fleets: warm simulator replicas serving independent jobs.
 *
 * The generic engine (sim::Fleet) knows nothing about machines; this
 * layer binds it to the tiers:
 *
 *  - TtdaFleet — W warm ttda::Machine replicas (TtdaReplica),
 *    constructed once and recycled per job through Machine::reset().
 *    A job is a seeded (workload, args, fault-plan) tuple: one serving
 *    epoch — submit every request, serve() to quiescence, harvest
 *    outputs, counters, the latency histogram, and (optionally) the
 *    stats JSON. Because reset()-then-run is bit-identical to a fresh
 *    machine and every replica is constructed from the same config,
 *    *which* replica serves a job cannot affect its result — the
 *    fleet's determinism contract reduces to the machine's reset
 *    contract plus per-job seed derivation (resolveJobFaults: fault
 *    plans with seed 0 get their injector seed from (machine seed, job
 *    id), never from the worker).
 *
 *  - VnFleet — the von Neumann tier has no reset() fast path, so each
 *    job constructs a fresh vn::VnMachine inside the worker
 *    (runVnJob). Still deterministic: construction is pure, jobs are
 *    independent.
 *
 * TtdaReplica::run and runVnJob are the one per-job body of each tier.
 * The fleets call them from sim::Fleet's workers, which claim a
 * batch's jobs from one shared cursor; the daemon (src/daemon) calls
 * them from its own worker threads, which wait on its job FIFO
 * (docs/ARCHITECTURE.md §16 says why the two loops stay apart).
 *
 * Results come back in job-index order; merged views (aggregate
 * latency) fold per-job histograms in that order, so aggregates are
 * as bit-identical as the per-job rows.
 */

#ifndef TTDA_SERVE_FLEET_HH
#define TTDA_SERVE_FLEET_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fleet.hh"
#include "common/stats.hh"
#include "ttda/machine.hh"
#include "vn/machine.hh"
#include "workloads/vn_serve.hh"

namespace serve
{

/** Shared fleet knobs (both tiers). */
struct FleetConfig
{
    /** Workers, including the calling thread. */
    unsigned workers = 1;
    /** Capture each job's dumpStatsJson() into the result (TtdaFleet
     *  only) — the bit-identity witness; costs a serialization per
     *  job. */
    bool captureStatsJson = false;
};

/** One open-loop request inside a job. */
struct FleetRequest
{
    std::vector<graph::Value> args;
    sim::Cycle arrival = 0;
};

/** One fleet job: a whole serving epoch for one machine replica. */
struct FleetJob
{
    std::uint16_t cb = 0; //!< code block every request applies
    std::vector<FleetRequest> requests; //!< arrival-sorted
    /** Per-job fault plan. Empty = faultless. seed == 0 derives the
     *  injector seed from (machine seed, job index) — per job id,
     *  never per worker. */
    sim::fault::FaultPlan faults;
};

/** Everything a job's epoch produced, in deterministic form. */
struct FleetJobResult
{
    std::vector<ttda::OutputRecord> outputs;
    sim::Cycle cycles = 0;
    bool deadlocked = false;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t watermarkHits = 0;
    sim::Histogram latency{16.0, 4096}; //!< Machine::requestLatency
    std::string statsJson; //!< when captureStatsJson is on
    /** Which worker served the job — host-order observability, never
     *  part of the deterministic result fields above. */
    unsigned worker = 0;

    /** Every field, as a daemon checkpoint records it. */
    template <class V>
    void
    visitState(V &v)
    {
        v(outputs, cycles, deadlocked, submitted, completed, watermarkHits,
          latency, statsJson, worker);
    }
};

/** A job's fault plan as it runs: seed 0 becomes
 *  sim::deriveJobSeed(machineSeed, jobId), so two jobs with the same
 *  plan shape draw independent fault streams, and the stream is
 *  stable whatever worker picks the job up. Plans with a nonzero seed
 *  (and disabled plans) pass through unchanged, so resolving twice is
 *  harmless. */
sim::fault::FaultPlan resolveJobFaults(const sim::fault::FaultPlan &plan,
                                       std::uint64_t machineSeed,
                                       std::uint64_t jobId);

/**
 * One warm ttda::Machine serving jobs one epoch at a time.
 *
 * Built once from (program, config) with its observability sinks
 * (trace, tracer, metrics) forced off — several replicas interleaving
 * events into one sink would be host-ordered — and recycled per job
 * through reset(). Not thread-safe: one worker owns a replica.
 */
class TtdaReplica
{
  public:
    TtdaReplica(const graph::Program &program, ttda::MachineConfig machine,
                bool captureStatsJson);

    /** Serve `job` as job `jobId`: reset → setFaultPlan (seed 0
     *  resolved against jobId) → submit → serve → harvest. The result
     *  is bit-identical to a fresh machine's; its `worker` field is
     *  left 0 for the caller. */
    FleetJobResult run(const FleetJob &job, std::uint64_t jobId);

  private:
    std::unique_ptr<ttda::Machine> machine_;
    bool captureStatsJson_;
};

/**
 * A pool of warm TtdaReplicas behind a sim::Fleet: one replica per
 * worker, reused across jobs and across run() batches.
 */
class TtdaFleet
{
  public:
    TtdaFleet(const graph::Program &program,
              const ttda::MachineConfig &machine,
              const FleetConfig &cfg = {});

    /** Serve every job; results[j] belongs to jobs[j]. Bit-identical
     *  for any worker count and claim order. */
    std::vector<FleetJobResult> run(const std::vector<FleetJob> &jobs);

    /** Host-order observability from the last run() (informational;
     *  steals() is always 0). */
    std::uint64_t steals() const { return fleet_.steals(); }
    const std::vector<std::uint64_t> &jobsPerWorker() const
    {
        return fleet_.jobsPerWorker();
    }

    /** Fold the per-job latency histograms in job-index order: the
     *  fleet-wide distribution, deterministic like its inputs. */
    static sim::Histogram
    mergedLatency(const std::vector<FleetJobResult> &results);

  private:
    sim::Fleet fleet_;
    std::vector<TtdaReplica> replicas_;
};

/** One von Neumann fleet job: a request list for a fresh machine. */
struct VnFleetJob
{
    std::vector<workloads::VnRequest> requests; //!< arrival-sorted
};

/** A von Neumann epoch's deterministic result. */
struct VnFleetJobResult
{
    sim::Cycle cycles = 0;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    sim::Histogram latency{16.0, 4096}; //!< VnServeDriver::latency

    template <class V>
    void
    visitState(V &v)
    {
        v(cycles, submitted, completed, latency);
    }
};

/** Serve one von Neumann job on a fresh machine built from `machine`
 *  (metrics sink forced off, like TtdaReplica's sinks). */
VnFleetJobResult runVnJob(vn::VnMachineConfig machine,
                          const VnFleetJob &job);

/**
 * The von Neumann tier's fleet: same engine, fresh machine per job
 * (vn::VnMachine has no warm-reset path — the contrast is part of the
 * experiment: the dataflow tier's reset() is what makes warm replica
 * reuse cheap).
 */
class VnFleet
{
  public:
    VnFleet(const vn::VnMachineConfig &machine,
            const FleetConfig &cfg = {});

    std::vector<VnFleetJobResult>
    run(const std::vector<VnFleetJob> &jobs);

  private:
    sim::Fleet fleet_;
    vn::VnMachineConfig machineCfg_;
};

} // namespace serve

#endif // TTDA_SERVE_FLEET_HH
