/**
 * @file
 * Simulation-as-a-service: a persistent daemon serving simulation jobs
 * over a newline-delimited JSON protocol on a local TCP socket.
 *
 * One process runs W worker threads beside a poll()-based network
 * loop. Each worker owns one warm serve::TtdaReplica (constructed
 * once, recycled per job through Machine::reset()), takes one queued
 * job at a time, and publishes that job's result and watch frame as
 * soon as it finishes; a von Neumann job runs in the same worker on a
 * fresh machine (serve::runVnJob). Nothing waits for a batch: a job
 * starts as soon as a worker is free, and status/result queries stay
 * responsive while jobs run.
 *
 * Protocol (one JSON object per line, one reply per line):
 *
 *   {"op":"submit","workload":"fib","args":[7],"requests":8,
 *    "seed":1,"arrival":{"kind":"poisson","meanGap":64},
 *    "faults":{"dropRate":0.01},"tier":"ttda"}   -> {"ok":true,"id":1}
 *   {"op":"status"}                  -> srv.* gauges + fleet tallies
 *   {"op":"result","id":1}           -> job state / full result
 *   {"op":"watch"}                   -> subscribe to job-event frames
 *   {"op":"checkpoint","path":"x.snap"} -> persist the job table
 *   {"op":"restore","path":"x.snap"}    -> load a checkpoint (idle only)
 *   {"op":"shutdown"}                -> drain everything, then exit
 *
 * Determinism: a job's result is a pure function of its spec and the
 * daemon's machine configuration. Fault plans with seed 0 are resolved
 * against the *daemon-global job id* at admission (never the worker or
 * the dispatch order), so re-running a checkpointed pending job — in
 * this process or a restored one, on any worker count — reproduces
 * the original result bit-for-bit. Checkpoints store completed results
 * verbatim and pending specs for deterministic re-execution; the
 * checkpoint file uses the same versioned envelope (common/snapshot.hh)
 * as machine snapshots, so truncation/corruption/version skew is
 * rejected with a clear error.
 *
 * Shutdown paths:
 *  - {"op":"shutdown"}: stop admitting, run every queued job, exit.
 *  - SIGINT/SIGTERM (self-pipe): stop admitting, let each worker
 *    finish at most its one in-flight job, auto-checkpoint still-queued
 *    jobs to cfg.autosavePath.
 */

#ifndef TTDA_DAEMON_DAEMON_HH
#define TTDA_DAEMON_DAEMON_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/fault.hh"
#include "common/json.hh"
#include "common/state.hh"
#include "serve/fleet.hh"
#include "ttda/machine.hh"
#include "vn/machine.hh"
#include "workloads/arrivals.hh"

namespace srv
{

/** Which machine tier a job runs on. */
enum class Tier : std::uint8_t { Ttda = 0, Vn = 1 };

/** A submitted job: one serving epoch, reproducible from this alone. */
struct JobSpec
{
    Tier tier = Tier::Ttda;
    std::string workload = "fib"; //!< ttda tier: workload name
    std::vector<graph::Value> args; //!< per-request arguments (ttda)
    std::uint64_t requests = 1;
    workloads::ArrivalConfig arrival; //!< seed lives here
    sim::fault::FaultPlan faults;     //!< resolved at admission

    // von Neumann request shape (vn tier only).
    std::uint32_t vnLoads = 4;
    std::uint32_t vnComputePerLoad = 8;
    std::uint64_t vnStride = 1;

    /** The fields a checkpoint records: of the fault plan, its seed,
     *  four rates and delay spike, never its scheduled events. */
    template <class V>
    void
    visitState(V &v)
    {
        using sim::state::bounded;
        v(bounded(tier, Tier::Vn, "unknown job tier"), workload, args,
          requests,
          bounded(arrival.kind, workloads::ArrivalKind::Diurnal,
                  "unknown arrival kind"),
          arrival.meanGap, arrival.seed, arrival.start, arrival.burstLen,
          arrival.burstScale, arrival.diurnalPeriod, arrival.diurnalDepth,
          faults.seed, faults.dropRate, faults.dupRate, faults.corruptRate,
          faults.delayRate, faults.delaySpike, vnLoads, vnComputePerLoad,
          vnStride);
    }
};

enum class JobState : std::uint8_t
{
    Queued = 0,
    Running = 1,
    Done = 2,
    Failed = 3
};

/** A finished job's result: the alternative of the job's own tier
 *  (monostate until Done). */
using JobResult = std::variant<std::monostate, serve::FleetJobResult,
                               serve::VnFleetJobResult>;

/** One row of the daemon's job table. */
struct JobRecord
{
    std::uint64_t id = 0;
    JobSpec spec;
    JobState state = JobState::Queued;
    JobResult result;  //!< when Done
    std::string error; //!< when Failed
};

/** Daemon construction parameters. */
struct DaemonConfig
{
    /** TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back
     *  from Daemon::port()). */
    std::uint16_t port = 0;
    ttda::MachineConfig machine;    //!< replica configuration
    vn::VnMachineConfig vnMachine;  //!< vn tier configuration
    /** Worker threads, each owning one warm ttda replica (vn jobs run
     *  on a fresh machine in the same worker). Clamped below by 1. */
    unsigned workers = 1;
    /** Capture each ttda job's dumpStatsJson() into its result — the
     *  bit-identity witness; costs a serialization per job. */
    bool captureStatsJson = false;
    /** Admission control: at most this many jobs Queued at once. */
    std::size_t maxQueuedJobs = 64;
    /** Admission control: per-job request-count cap. */
    std::uint64_t maxRequestsPerJob = 4096;
    /** Where SIGINT/SIGTERM auto-checkpoints unfinished jobs
     *  (empty = don't). */
    std::string autosavePath;
};

/**
 * The daemon. Usage: construct, start() (binds the socket and spawns
 * the workers; port() is valid after), then serve() on the thread
 * that should block in the network loop. requestShutdown() is the
 * programmatic SIGTERM — signal handlers call signalFd() writes.
 */
class Daemon
{
  public:
    explicit Daemon(const DaemonConfig &cfg);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Bind + listen + build the replicas + spawn the workers. Throws
     *  std::runtime_error on socket failure. */
    void start();

    /** The bound port (valid after start()). */
    std::uint16_t port() const { return port_; }

    /** Run the poll() loop; returns when the daemon has shut down and
     *  its workers have been joined. */
    void serve();

    /** Trigger the signal-path shutdown (finish in-flight jobs,
     *  auto-checkpoint queued jobs). Async-signal-safe. */
    void requestShutdown();

    /** Write end of the self-pipe, for sigaction handlers: a one-byte
     *  write() here triggers graceful shutdown. */
    int signalFd() const { return sigPipe_[1]; }

    /** Persist the job table (snapshot envelope). Throws
     *  sim::snapshot::Error / std::runtime_error on failure. */
    void saveCheckpoint(const std::string &path);

    /** Load a checkpoint into an idle daemon (call before serve(), or
     *  via the restore op while the job table is empty). Returns the
     *  number of jobs it left pending (not Done or Failed), counted
     *  when the table was installed — workers may start on them at
     *  once. */
    std::uint64_t loadCheckpoint(const std::string &path);

  private:
    struct Conn
    {
        int fd = -1;
        std::string inbox;  //!< bytes received, not yet line-split
        std::string outbox; //!< bytes queued for send
        bool watching = false;
        bool closing = false; //!< close once outbox drains
    };

    enum class Stop : std::uint8_t
    {
        None = 0,
        Drain = 1,    //!< shutdown op: run every queued job first
        Immediate = 2 //!< signal: finish in-flight jobs only
    };

    void workerLoop(unsigned worker);
    JobResult runJob(unsigned worker, std::uint64_t id,
                     const JobSpec &spec);
    /** Why `spec` would trip an assertion when it runs (an unknown
     *  workload, an argument count the workload does not take, a vn
     *  job with no loads, an argument the workload cannot take or
     *  whose arrays overflow the replica's structure store, an arrival
     *  parameter or fault rate out of range, duplicates on a bare TTDA
     *  fabric), or empty when it is runnable. Submit and restore both
     *  check it. */
    std::string specError(const JobSpec &spec) const;
    void stopWorkers(); //!< Stop::Immediate unless already stopping
    void joinWorkers();
    void wakeLoop();

    // Request handling (network thread; lock taken inside).
    std::string handleLine(Conn &conn, const std::string &line);
    sim::json::Value opSubmit(const sim::json::Value &req);
    sim::json::Value opStatus();
    sim::json::Value opResult(const sim::json::Value &req);
    sim::json::Value opCheckpoint(const sim::json::Value &req);
    sim::json::Value opRestore(const sim::json::Value &req);
    sim::json::Value opShutdown();

    void pushFrame(const sim::json::Value &frame); //!< callers hold mu_
    void deliverFrames();
    void closeAll();

    DaemonConfig cfg_;
    graph::Program program_; //!< all named workloads, built once
    /** What one argument of a workload's main() may be. */
    enum class Param : std::uint8_t {
        Number, //!< an integer or a real
        Count,  //!< an integer >= 1
        Size,   //!< an integer >= 0 that sizes one array per request
    };

    /** A named TTDA workload: its code block and its parameters. */
    struct Workload
    {
        std::uint16_t cb = 0;
        std::vector<Param> params;
    };

    std::map<std::string, Workload> workloads_;
    /** One per worker; built in start() before any worker runs. */
    std::vector<serve::TtdaReplica> replicas_;

    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    int sigPipe_[2] = {-1, -1};  //!< signal self-pipe
    int wakePipe_[2] = {-1, -1}; //!< workers -> network loop
    std::vector<Conn> conns_;

    // Shared state; everything below is guarded by mu_.
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::map<std::uint64_t, JobRecord> jobs_;
    std::deque<std::uint64_t> queue_; //!< Queued job ids, FIFO
    std::uint64_t nextId_ = 1;
    Stop stop_ = Stop::None;
    bool draining_ = false;  //!< no further admissions
    std::size_t liveWorkers_ = 0; //!< workers not yet out of their loop
    std::uint64_t admitted_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t requestsCompleted_ = 0;
    std::uint64_t dispatches_ = 0; //!< jobs handed to a worker
    std::vector<std::uint64_t> jobsPerWorker_; //!< both tiers
    std::vector<std::string> pendingFrames_;

    /** Declared last: they use everything above. */
    std::vector<std::thread> workers_;
};

} // namespace srv

#endif // TTDA_DAEMON_DAEMON_HH
