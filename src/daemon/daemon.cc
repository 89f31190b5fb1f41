#include "daemon/daemon.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/state.hh"
#include "graph/snapcodec.hh"
#include "workloads/dfg_programs.hh"

namespace srv
{

namespace
{

/** Daemon-checkpoint payload revision (inside the common envelope). */
constexpr std::uint32_t kCheckpointVersion = 1;

/** A line longer than this is a protocol violation, not a request. */
constexpr std::size_t kMaxLineBytes = 1u << 20;

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        throw std::runtime_error("fcntl(O_NONBLOCK) failed");
}

void
closeIf(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

sim::json::Value
jerr(const std::string &what)
{
    auto v = sim::json::Value::obj();
    v.set("ok", sim::json::Value::boolean(false));
    v.set("error", sim::json::Value::str(what));
    return v;
}

sim::json::Value
jok()
{
    auto v = sim::json::Value::obj();
    v.set("ok", sim::json::Value::boolean(true));
    return v;
}

sim::json::Value
jnum(std::uint64_t n)
{
    return sim::json::Value::intNum(n);
}

/** Latency digest every result/status consumer wants. */
sim::json::Value
latencyJson(const sim::Histogram &h)
{
    auto v = sim::json::Value::obj();
    v.set("count", jnum(h.summary().count()));
    v.set("mean", sim::json::Value::num(h.summary().mean()));
    v.set("p50", sim::json::Value::num(h.quantile(0.5)));
    v.set("p99", sim::json::Value::num(h.quantile(0.99)));
    return v;
}

sim::json::Value
valueJson(const graph::Value &v)
{
    using sim::json::Value;
    if (v.isBool())
        return Value::boolean(v.asBool());
    if (v.isInt()) {
        const std::int64_t i = v.asInt();
        return i < 0 ? Value::intNum(
                           static_cast<std::uint64_t>(-(i + 1)) + 1, true)
                     : Value::intNum(static_cast<std::uint64_t>(i));
    }
    if (v.isReal())
        return Value::num(v.asReal());
    return Value::str(v.toString());
}

graph::Value
valueFromJson(const sim::json::Value &v)
{
    using sim::json::Value;
    switch (v.kind()) {
    case Value::Kind::Bool:
        return graph::Value{v.asBool()};
    case Value::Kind::Int:
        return graph::Value{v.asI64()};
    case Value::Kind::Num:
        return graph::Value{v.asDouble()};
    default:
        throw sim::json::Error("json: argument is not a number");
    }
}

const char *
stateName(JobState s)
{
    switch (s) {
    case JobState::Queued:
        return "queued";
    case JobState::Running:
        return "running";
    case JobState::Done:
        return "done";
    case JobState::Failed:
        return "failed";
    }
    return "?";
}

/** A submit request's job spec, before the range checks of
 *  Daemon::specError; throws sim::json::Error on a field of the wrong
 *  type, an unknown tier or an unknown arrival kind. */
JobSpec
specFromJson(const sim::json::Value &req)
{
    JobSpec spec;
    if (req.has("tier")) {
        const std::string tier = req.get("tier").asStr();
        if (tier == "ttda")
            spec.tier = Tier::Ttda;
        else if (tier == "vn")
            spec.tier = Tier::Vn;
        else
            throw sim::json::Error("unknown tier \"" + tier + "\"");
    }
    if (req.has("workload"))
        spec.workload = req.get("workload").asStr();
    if (req.has("args")) {
        const auto &args = req.get("args");
        for (std::size_t i = 0; i < args.size(); ++i)
            spec.args.push_back(valueFromJson(args.at(i)));
    }
    if (req.has("requests"))
        spec.requests = req.get("requests").asU64();
    if (req.has("seed"))
        spec.arrival.seed = req.get("seed").asU64();
    if (req.has("arrival")) {
        const auto &a = req.get("arrival");
        if (a.has("kind")) {
            const std::string &name = a.get("kind").asStr();
            const auto kind = workloads::parseArrivalKind(name);
            if (!kind)
                throw sim::json::Error("json: unknown arrival kind \"" +
                                       name + "\"");
            spec.arrival.kind = *kind;
        }
        if (a.has("meanGap"))
            spec.arrival.meanGap = a.get("meanGap").asDouble();
        if (a.has("start"))
            spec.arrival.start = a.get("start").asU64();
        if (a.has("burstLen"))
            spec.arrival.burstLen =
                static_cast<std::uint32_t>(a.get("burstLen").asU64());
        if (a.has("burstScale"))
            spec.arrival.burstScale = a.get("burstScale").asDouble();
        if (a.has("diurnalPeriod"))
            spec.arrival.diurnalPeriod =
                a.get("diurnalPeriod").asDouble();
        if (a.has("diurnalDepth"))
            spec.arrival.diurnalDepth =
                a.get("diurnalDepth").asDouble();
    }
    if (req.has("faults")) {
        const auto &f = req.get("faults");
        if (f.has("seed"))
            spec.faults.seed = f.get("seed").asU64();
        if (f.has("dropRate"))
            spec.faults.dropRate = f.get("dropRate").asDouble();
        if (f.has("dupRate"))
            spec.faults.dupRate = f.get("dupRate").asDouble();
        if (f.has("corruptRate"))
            spec.faults.corruptRate = f.get("corruptRate").asDouble();
        if (f.has("delayRate"))
            spec.faults.delayRate = f.get("delayRate").asDouble();
        if (f.has("delaySpike"))
            spec.faults.delaySpike = f.get("delaySpike").asU64();
    }
    if (req.has("loads"))
        spec.vnLoads =
            static_cast<std::uint32_t>(req.get("loads").asU64());
    if (req.has("computePerLoad"))
        spec.vnComputePerLoad = static_cast<std::uint32_t>(
            req.get("computePerLoad").asU64());
    if (req.has("stride"))
        spec.vnStride = req.get("stride").asU64();
    return spec;
}

/** Not yet Done or Failed: what a checkpoint saves as pending. */
bool
isPending(const JobRecord &rec)
{
    return rec.state != JobState::Done && rec.state != JobState::Failed;
}

/** (cycles, completed) of a Done job, whichever tier ran it. */
std::pair<sim::Cycle, std::uint64_t>
resultTotals(const JobResult &result)
{
    if (const auto *vn = std::get_if<serve::VnFleetJobResult>(&result))
        return {vn->cycles, vn->completed};
    const auto &ttda = std::get<serve::FleetJobResult>(result);
    return {ttda.cycles, ttda.completed};
}

} // namespace

Daemon::Daemon(const DaemonConfig &cfg) : cfg_(cfg)
{
    using P = Param;
    workloads_["trapezoid"] = {workloads::buildTrapezoid(program_),
                               {P::Number, P::Number, P::Count}};
    workloads_["producer-consumer"] = {
        workloads::buildProducerConsumer(program_), {P::Size}};
    workloads_["fib"] = {workloads::buildFib(program_), {P::Number}};
    workloads_["vector-sum"] = {workloads::buildVectorSum(program_),
                                {P::Size}};
    for (const auto &[name, w] : workloads_)
        SIM_ASSERT_MSG(w.params.size() ==
                           program_.codeBlock(w.cb).numParams,
                       "workload {} parameter list", name);
}

Daemon::~Daemon()
{
    stopWorkers();
    joinWorkers();
    closeAll();
}

void
Daemon::start()
{
    if (::pipe(sigPipe_) < 0 || ::pipe(wakePipe_) < 0)
        throw std::runtime_error("pipe() failed");
    setNonBlocking(sigPipe_[0]);
    setNonBlocking(wakePipe_[0]);
    setNonBlocking(wakePipe_[1]);

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throw std::runtime_error("socket() failed");
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(cfg_.port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) < 0)
        throw std::runtime_error(std::string("bind() failed: ") +
                                 std::strerror(errno));
    if (::listen(listenFd_, 64) < 0)
        throw std::runtime_error("listen() failed");
    socklen_t len = sizeof addr;
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) < 0)
        throw std::runtime_error("getsockname() failed");
    port_ = ntohs(addr.sin_port);
    setNonBlocking(listenFd_);

    // Warm replicas: built once, reused for every job.
    const unsigned workers = std::max(1u, cfg_.workers);
    replicas_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        replicas_.emplace_back(program_, cfg_.machine,
                               cfg_.captureStatsJson);
    {
        std::lock_guard<std::mutex> lk(mu_);
        jobsPerWorker_.assign(workers, 0);
        liveWorkers_ = workers;
    }
    workers_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

void
Daemon::requestShutdown()
{
    const char byte = '!';
    [[maybe_unused]] const ssize_t n = ::write(sigPipe_[1], &byte, 1);
}

void
Daemon::wakeLoop()
{
    const char byte = 'w';
    [[maybe_unused]] const ssize_t n = ::write(wakePipe_[1], &byte, 1);
}

void
Daemon::stopWorkers()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        draining_ = true;
        stop_ = Stop::Immediate;
    }
    cv_.notify_all();
}

void
Daemon::joinWorkers()
{
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
}

// ---- workers -------------------------------------------------------

void
Daemon::workerLoop(unsigned worker)
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        cv_.wait(lk, [this] {
            return stop_ != Stop::None || !queue_.empty();
        });
        // Immediate leaves the queue for the autosave; Drain runs it dry.
        if (stop_ == Stop::Immediate || queue_.empty())
            break;
        const std::uint64_t id = queue_.front();
        queue_.pop_front();
        // Map nodes are stable and never erased, and restore needs an
        // empty table, so `rec` outlives the unlocked run; its spec is
        // immutable once admitted.
        JobRecord &rec = jobs_.at(id);
        rec.state = JobState::Running;
        ++dispatches_;
        ++jobsPerWorker_[worker];

        lk.unlock();
        JobResult result = runJob(worker, id, rec.spec);
        lk.lock();

        rec.result = std::move(result);
        rec.state = JobState::Done;
        const auto [cycles, completed] = resultTotals(rec.result);
        requestsCompleted_ += completed;
        auto frame = sim::json::Value::obj();
        frame.set("frame", sim::json::Value::str("job"));
        frame.set("id", jnum(id));
        frame.set("state", sim::json::Value::str("done"));
        frame.set("cycles", jnum(cycles));
        frame.set("completed", jnum(completed));
        pushFrame(frame);
        wakeLoop();
    }
    --liveWorkers_;
    lk.unlock();
    wakeLoop();
}

JobResult
Daemon::runJob(unsigned worker, std::uint64_t id, const JobSpec &spec)
{
    const auto arrivals = workloads::arrivalSchedule(
        spec.arrival, static_cast<std::size_t>(spec.requests));
    if (spec.tier == Tier::Vn) {
        serve::VnFleetJob job;
        job.requests.reserve(arrivals.size());
        for (std::size_t i = 0; i < arrivals.size(); ++i) {
            workloads::VnRequest req;
            req.arrival = arrivals[i];
            req.loads = spec.vnLoads;
            req.computePerLoad = spec.vnComputePerLoad;
            req.addr = i * spec.vnStride;
            req.stride = spec.vnStride;
            req.addrSpace =
                cfg_.vnMachine.wordsPerModule * cfg_.vnMachine.numCores;
            job.requests.push_back(req);
        }
        return serve::runVnJob(cfg_.vnMachine, job);
    }
    serve::FleetJob job;
    job.cb = workloads_.at(spec.workload).cb;
    job.faults = spec.faults; // already resolved at admission
    job.requests.reserve(arrivals.size());
    for (const sim::Cycle at : arrivals)
        job.requests.push_back({spec.args, at});
    serve::FleetJobResult r = replicas_[worker].run(job, id);
    r.worker = worker;
    return r;
}

std::string
Daemon::specError(const JobSpec &spec) const
{
    if (spec.requests == 0)
        return "requests must be >= 1";
    if (spec.tier == Tier::Ttda) {
        const auto it = workloads_.find(spec.workload);
        if (it == workloads_.end())
            return "unknown workload \"" + spec.workload + "\"";
        const std::vector<Param> &params = it->second.params;
        if (spec.args.size() != params.size())
            return sim::format("workload \"{}\" takes {} args, got {}",
                               spec.workload, params.size(),
                               spec.args.size());
        // Every request of the job allocates its Size arguments' arrays
        // on the one replica that runs it.
        const std::uint64_t store =
            static_cast<std::uint64_t>(cfg_.machine.numPEs) *
            cfg_.machine.isWordsPerPe;
        for (std::size_t i = 0; i < params.size(); ++i) {
            const graph::Value &arg = spec.args[i];
            if (params[i] == Param::Number) {
                if (!arg.isNumeric())
                    return sim::format("workload \"{}\" arg {} must be "
                                       "a number",
                                       spec.workload, i);
                continue;
            }
            if (!arg.isInt())
                return sim::format("workload \"{}\" arg {} must be an "
                                   "integer",
                                   spec.workload, i);
            const std::int64_t n = arg.asInt();
            if (params[i] == Param::Count && n < 1)
                return sim::format("workload \"{}\" arg {} must be >= 1",
                                   spec.workload, i);
            if (params[i] == Param::Size && n < 0)
                return sim::format("workload \"{}\" arg {} is a "
                                   "negative size",
                                   spec.workload, i);
            if (params[i] == Param::Size &&
                static_cast<std::uint64_t>(n) > store / spec.requests)
                return sim::format(
                    "workload \"{}\": {} requests of size {} exceed the "
                    "{}-word structure store",
                    spec.workload, spec.requests, n, store);
        }
    } else if (spec.vnLoads == 0) {
        return "loads must be >= 1";
    }
    if (const char *bad = workloads::arrivalConfigError(spec.arrival))
        return std::string("arrival ") + bad;
    if (const char *bad = spec.faults.badRate())
        return sim::format("faults.{} must be a rate in [0,1]", bad);
    // Without ReliableNet's dedup, a duplicated token fires again into
    // a context its first copy already retired, and the worker panics.
    if (spec.tier == Tier::Ttda && spec.faults.dupRate > 0.0 &&
        !cfg_.machine.reliableNet)
        return "faults.dupRate needs a daemon run with --reliable-net";
    return {};
}

// ---- request handling ----------------------------------------------

sim::json::Value
Daemon::opSubmit(const sim::json::Value &req)
{
    // Every refused submit counts as a rejection in the srv.* gauges,
    // a field of the wrong type as much as a value out of range.
    const auto reject = [this](const std::string &what) {
        std::lock_guard<std::mutex> lk(mu_);
        ++rejected_;
        return jerr(what);
    };
    JobSpec spec;
    try {
        spec = specFromJson(req);
    } catch (const sim::json::Error &e) {
        return reject(e.what());
    }
    if (spec.requests > cfg_.maxRequestsPerJob)
        return reject(
            sim::format("requests exceed the per-job cap ({} > {})",
                        spec.requests, cfg_.maxRequestsPerJob));
    if (const std::string err = specError(spec); !err.empty())
        return reject(err);

    std::lock_guard<std::mutex> lk(mu_);
    if (draining_) {
        ++rejected_;
        return jerr("daemon is draining; not admitting jobs");
    }
    if (queue_.size() >= cfg_.maxQueuedJobs) {
        ++rejected_;
        return jerr(sim::format("admission queue full ({} queued)",
                                queue_.size()));
    }
    const std::uint64_t id = nextId_++;
    // Resolve seed-0 fault plans against the daemon-global job id so
    // re-running this job (now, or from a restored checkpoint) draws
    // the identical fault stream whichever worker runs it.
    spec.faults =
        serve::resolveJobFaults(spec.faults, cfg_.machine.seed, id);
    JobRecord rec;
    rec.id = id;
    rec.spec = std::move(spec);
    jobs_.emplace(id, std::move(rec));
    queue_.push_back(id);
    ++admitted_;
    cv_.notify_one();

    auto resp = jok();
    resp.set("id", jnum(id));
    return resp;
}

sim::json::Value
Daemon::opStatus()
{
    std::lock_guard<std::mutex> lk(mu_);
    std::uint64_t queued = 0, running = 0, done = 0, failed = 0;
    for (const auto &[id, rec] : jobs_) {
        switch (rec.state) {
        case JobState::Queued:
            ++queued;
            break;
        case JobState::Running:
            ++running;
            break;
        case JobState::Done:
            ++done;
            break;
        case JobState::Failed:
            ++failed;
            break;
        }
    }
    auto resp = jok();
    resp.set("draining", sim::json::Value::boolean(draining_));
    auto srvGauges = sim::json::Value::obj();
    srvGauges.set("queued", jnum(queued));
    srvGauges.set("running", jnum(running));
    srvGauges.set("done", jnum(done));
    srvGauges.set("failed", jnum(failed));
    srvGauges.set("admitted", jnum(admitted_));
    srvGauges.set("rejected", jnum(rejected_));
    srvGauges.set("requestsCompleted", jnum(requestsCompleted_));
    // Kept under its historical name: one per job dispatched.
    srvGauges.set("batches", jnum(dispatches_));
    resp.set("srv", std::move(srvGauges));
    auto fleet = sim::json::Value::obj();
    fleet.set("workers", jnum(jobsPerWorker_.size()));
    auto perWorker = sim::json::Value::arr();
    for (const std::uint64_t n : jobsPerWorker_)
        perWorker.push(jnum(n));
    fleet.set("jobsPerWorker", std::move(perWorker));
    resp.set("fleet", std::move(fleet));
    return resp;
}

sim::json::Value
Daemon::opResult(const sim::json::Value &req)
{
    const std::uint64_t id = req.get("id").asU64();
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return jerr(sim::format("no such job {}", id));
    const JobRecord &rec = it->second;
    auto resp = jok();
    resp.set("id", jnum(id));
    resp.set("state", sim::json::Value::str(stateName(rec.state)));
    resp.set("tier", sim::json::Value::str(
                         rec.spec.tier == Tier::Vn ? "vn" : "ttda"));
    if (rec.state == JobState::Failed)
        resp.set("error", sim::json::Value::str(rec.error));
    if (rec.state != JobState::Done)
        return resp;

    if (const auto *vn = std::get_if<serve::VnFleetJobResult>(&rec.result)) {
        resp.set("cycles", jnum(vn->cycles));
        resp.set("submitted", jnum(vn->submitted));
        resp.set("completed", jnum(vn->completed));
        resp.set("latency", latencyJson(vn->latency));
        return resp;
    }
    const auto &r = std::get<serve::FleetJobResult>(rec.result);
    resp.set("cycles", jnum(r.cycles));
    resp.set("deadlocked", sim::json::Value::boolean(r.deadlocked));
    resp.set("submitted", jnum(r.submitted));
    resp.set("completed", jnum(r.completed));
    resp.set("watermarkHits", jnum(r.watermarkHits));
    resp.set("worker", jnum(r.worker));
    resp.set("latency", latencyJson(r.latency));
    auto outputs = sim::json::Value::arr();
    for (const ttda::OutputRecord &out : r.outputs) {
        auto o = sim::json::Value::obj();
        o.set("ctx", jnum(out.tag.ctx));
        o.set("cb", jnum(out.tag.codeBlock));
        o.set("stmt", jnum(out.tag.stmt));
        o.set("iter", jnum(out.tag.iter));
        o.set("value", valueJson(out.value));
        outputs.push(std::move(o));
    }
    resp.set("outputs", std::move(outputs));
    if (!r.statsJson.empty())
        resp.set("statsJson", sim::json::Value::str(r.statsJson));
    return resp;
}

sim::json::Value
Daemon::opCheckpoint(const sim::json::Value &req)
{
    const std::string path = req.get("path").asStr();
    saveCheckpoint(path);
    std::lock_guard<std::mutex> lk(mu_);
    std::uint64_t pending = 0;
    for (const auto &[id, rec] : jobs_)
        pending += isPending(rec);
    auto resp = jok();
    resp.set("path", sim::json::Value::str(path));
    resp.set("jobs", jnum(jobs_.size()));
    resp.set("pending", jnum(pending));
    return resp;
}

sim::json::Value
Daemon::opRestore(const sim::json::Value &req)
{
    const std::string path = req.get("path").asStr();
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!jobs_.empty())
            return jerr("restore requires an empty job table");
        if (draining_)
            return jerr("daemon is draining");
    }
    const std::uint64_t pending = loadCheckpoint(path);
    std::lock_guard<std::mutex> lk(mu_);
    auto resp = jok();
    resp.set("jobs", jnum(jobs_.size()));
    resp.set("pending", jnum(pending));
    return resp;
}

sim::json::Value
Daemon::opShutdown()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        draining_ = true;
        if (stop_ == Stop::None)
            stop_ = Stop::Drain;
    }
    cv_.notify_all();
    auto resp = jok();
    resp.set("draining", sim::json::Value::boolean(true));
    return resp;
}

std::string
Daemon::handleLine(Conn &conn, const std::string &line)
{
    sim::json::Value resp;
    try {
        const auto req = sim::json::parse(line);
        const std::string op = req.get("op").asStr();
        if (op == "submit")
            resp = opSubmit(req);
        else if (op == "status")
            resp = opStatus();
        else if (op == "result")
            resp = opResult(req);
        else if (op == "watch") {
            conn.watching = true;
            resp = jok();
            resp.set("watching", sim::json::Value::boolean(true));
        } else if (op == "checkpoint")
            resp = opCheckpoint(req);
        else if (op == "restore")
            resp = opRestore(req);
        else if (op == "shutdown")
            resp = opShutdown();
        else
            resp = jerr("unknown op \"" + op + "\"");
    } catch (const std::exception &e) {
        resp = jerr(e.what());
    }
    return resp.dump() + "\n";
}

// ---- frames --------------------------------------------------------

void
Daemon::pushFrame(const sim::json::Value &frame)
{
    pendingFrames_.push_back(frame.dump() + "\n");
}

void
Daemon::deliverFrames()
{
    std::vector<std::string> frames;
    {
        std::lock_guard<std::mutex> lk(mu_);
        frames.swap(pendingFrames_);
    }
    if (frames.empty())
        return;
    for (Conn &conn : conns_)
        if (conn.watching && !conn.closing)
            for (const std::string &f : frames)
                conn.outbox += f;
}

// ---- network loop --------------------------------------------------

void
Daemon::serve()
{
    bool stopping = false;
    Stop stopMode = Stop::None;
    int graceTicks = 0;
    std::vector<pollfd> pfds;

    for (;;) {
        pfds.clear();
        pfds.push_back({listenFd_, POLLIN, 0});
        pfds.push_back({sigPipe_[0], POLLIN, 0});
        pfds.push_back({wakePipe_[0], POLLIN, 0});
        for (const Conn &conn : conns_) {
            short ev = POLLIN;
            if (!conn.outbox.empty())
                ev |= POLLOUT;
            pfds.push_back({conn.fd, ev, 0});
        }

        const int timeout = stopping ? 50 : -1;
        const int nready =
            ::poll(pfds.data(), pfds.size(), timeout);
        if (nready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }

        if (pfds[1].revents & POLLIN) { // signal self-pipe
            char buf[64];
            while (::read(sigPipe_[0], buf, sizeof buf) > 0) {
            }
            stopWorkers(); // finish in-flight jobs only
        }
        if (pfds[2].revents & POLLIN) { // worker wakeup
            char buf[64];
            while (::read(wakePipe_[0], buf, sizeof buf) > 0) {
            }
        }
        deliverFrames();

        if (pfds[0].revents & POLLIN) {
            for (;;) {
                const int fd = ::accept(listenFd_, nullptr, nullptr);
                if (fd < 0)
                    break;
                setNonBlocking(fd);
                Conn conn;
                conn.fd = fd;
                conns_.push_back(std::move(conn));
            }
        }

        // pfds[3..] track conns_ by index at build time; conns_ only
        // grows (accept) after the snapshot, so index math holds.
        const std::size_t tracked = pfds.size() - 3;
        for (std::size_t i = 0; i < tracked; ++i) {
            Conn &conn = conns_[i];
            const short rev = pfds[3 + i].revents;
            if (rev & (POLLERR | POLLHUP | POLLNVAL)) {
                conn.closing = true;
                conn.outbox.clear();
                continue;
            }
            if (rev & POLLIN) {
                char buf[4096];
                for (;;) {
                    const ssize_t n =
                        ::recv(conn.fd, buf, sizeof buf, 0);
                    if (n > 0) {
                        conn.inbox.append(buf, n);
                        if (conn.inbox.size() > kMaxLineBytes) {
                            conn.outbox +=
                                jerr("request line too long")
                                    .dump() +
                                "\n";
                            conn.closing = true;
                            conn.inbox.clear();
                            break;
                        }
                    } else if (n == 0) {
                        conn.closing = true;
                        break;
                    } else {
                        break; // EAGAIN or error; poll again
                    }
                }
                std::size_t nl;
                while ((nl = conn.inbox.find('\n')) !=
                       std::string::npos) {
                    std::string line = conn.inbox.substr(0, nl);
                    conn.inbox.erase(0, nl + 1);
                    if (!line.empty() && line.back() == '\r')
                        line.pop_back();
                    if (line.empty())
                        continue;
                    conn.outbox += handleLine(conn, line);
                }
                deliverFrames(); // a submit may have raced a frame
            }
            if (!conn.outbox.empty()) {
                const ssize_t n =
                    ::send(conn.fd, conn.outbox.data(),
                           conn.outbox.size(), MSG_NOSIGNAL);
                if (n > 0)
                    conn.outbox.erase(0, static_cast<std::size_t>(n));
                else if (n < 0 && errno != EAGAIN &&
                         errno != EWOULDBLOCK)
                    conn.closing = true;
            }
        }

        conns_.erase(
            std::remove_if(conns_.begin(), conns_.end(),
                           [](Conn &conn) {
                               if (conn.closing &&
                                   conn.outbox.empty()) {
                                   closeIf(conn.fd);
                                   return true;
                               }
                               return false;
                           }),
            conns_.end());

        {
            std::lock_guard<std::mutex> lk(mu_);
            if (!stopping && stop_ != Stop::None && liveWorkers_ == 0) {
                stopping = true;
                stopMode = stop_;
            }
        }
        if (stopping) {
            deliverFrames();
            const bool flushed = std::all_of(
                conns_.begin(), conns_.end(),
                [](const Conn &c) { return c.outbox.empty(); });
            if (flushed || ++graceTicks > 40) // ~2s of 50ms ticks
                break;
        }
    }

    // Workers write the wake pipe until they exit: join them before
    // closeAll() closes it (and before a poll() failure leaves them
    // waiting).
    stopWorkers();
    joinWorkers();

    // Signal-path exit: still-queued jobs were never started; persist
    // them so a restored daemon can re-run them deterministically.
    if (stopMode == Stop::Immediate && !cfg_.autosavePath.empty()) {
        bool pending = false;
        {
            std::lock_guard<std::mutex> lk(mu_);
            pending = !queue_.empty();
        }
        if (pending) {
            try {
                saveCheckpoint(cfg_.autosavePath);
            } catch (const std::exception &e) {
                sim::warn("autosave failed: {}", e.what());
            }
        }
    }
    closeAll();
}

void
Daemon::closeAll()
{
    for (Conn &conn : conns_)
        closeIf(conn.fd);
    conns_.clear();
    closeIf(listenFd_);
    closeIf(sigPipe_[0]);
    closeIf(sigPipe_[1]);
    closeIf(wakePipe_[0]);
    closeIf(wakePipe_[1]);
}

// ---- checkpoint ----------------------------------------------------

namespace
{

/** The daemon configuration a checkpoint is valid for: results are
 *  only reproducible on a daemon with the same machines. Written ahead
 *  of the job table, and compared value by value on restore. */
template <class F>
void
fingerprint(const DaemonConfig &cfg, F &&f)
{
    f(cfg.machine.numPEs, "numPEs");
    f(cfg.machine.seed, "seed");
    f(static_cast<std::uint8_t>(cfg.machine.topology), "topology");
    f(cfg.machine.reliableNet, "reliableNet");
    f(cfg.vnMachine.numCores, "vn numCores");
    f(cfg.vnMachine.seed, "vn seed");
}

} // namespace

void
Daemon::saveCheckpoint(const std::string &path)
{
    sim::snapshot::Writer w;
    std::lock_guard<std::mutex> lk(mu_);
    w.u32(kCheckpointVersion);
    fingerprint(cfg_, [&w](auto value, const char *) {
        sim::state::save(w, value);
    });

    w.u64(nextId_);
    w.u64(admitted_);
    w.u64(rejected_);
    w.u64(requestsCompleted_);
    w.u64(jobs_.size());
    for (const auto &[id, rec] : jobs_) {
        w.u64(id);
        sim::state::save(w, rec.spec);
        // Running jobs persist as Queued: their results are not in the
        // table yet, and re-running them is deterministic.
        const JobState state = rec.state == JobState::Running
                                   ? JobState::Queued
                                   : rec.state;
        w.u8(static_cast<std::uint8_t>(state));
        if (state == JobState::Failed)
            w.str(rec.error);
        if (state != JobState::Done)
            continue;
        if (const auto *vn =
                std::get_if<serve::VnFleetJobResult>(&rec.result))
            sim::state::save(w, *vn);
        else
            sim::state::save(w, std::get<serve::FleetJobResult>(rec.result));
    }

    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        throw std::runtime_error("cannot open \"" + path +
                                 "\" for writing");
    w.finish(os);
    os.flush();
    if (!os)
        throw std::runtime_error("short write to \"" + path + "\"");
}

std::uint64_t
Daemon::loadCheckpoint(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("cannot open \"" + path + "\"");
    sim::snapshot::Reader r(is);

    if (r.u32() != kCheckpointVersion)
        r.fail("unsupported daemon checkpoint version");
    fingerprint(cfg_, [&r](auto want, const char *what) {
        decltype(want) got{};
        sim::state::load(r, got);
        if (got != want) {
            const std::string msg =
                std::string("checkpoint machine mismatch (") + what + ")";
            r.fail(msg.c_str());
        }
    });

    std::map<std::uint64_t, JobRecord> jobs;
    std::deque<std::uint64_t> queue;
    const std::uint64_t nextId = r.u64();
    const std::uint64_t admitted = r.u64();
    const std::uint64_t rejected = r.u64();
    const std::uint64_t requestsCompleted = r.u64();
    const std::uint64_t njobs = r.u64();
    for (std::uint64_t i = 0; i < njobs; ++i) {
        JobRecord rec;
        rec.id = r.u64();
        if (rec.id >= nextId)
            r.fail("job id past the id counter");
        sim::state::load(r, rec.spec);
        if (const std::string err = specError(rec.spec); !err.empty())
            r.fail(("checkpoint job: " + err).c_str());
        const std::uint8_t state = r.u8();
        if (state > static_cast<std::uint8_t>(JobState::Failed) ||
            state == static_cast<std::uint8_t>(JobState::Running))
            r.fail("invalid job state");
        rec.state = static_cast<JobState>(state);
        if (rec.state == JobState::Failed)
            rec.error = r.str();
        if (rec.state == JobState::Done) {
            if (rec.spec.tier == Tier::Vn)
                sim::state::load(
                    r, rec.result.emplace<serve::VnFleetJobResult>());
            else
                sim::state::load(
                    r, rec.result.emplace<serve::FleetJobResult>());
        }
        const std::uint64_t id = rec.id;
        if (!jobs.emplace(id, std::move(rec)).second)
            r.fail("duplicate job id");
        if (jobs.at(id).state == JobState::Queued)
            queue.push_back(id);
    }
    r.expectEnd();

    std::uint64_t pending = 0;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!jobs_.empty())
            throw std::runtime_error(
                "restore requires an empty job table");
        jobs_ = std::move(jobs);
        queue_ = std::move(queue);
        nextId_ = nextId;
        admitted_ = admitted;
        rejected_ = rejected;
        requestsCompleted_ = requestsCompleted;
        // Counted here: once the lock drops, workers may start (and
        // finish) the queued jobs.
        for (const auto &[id, rec] : jobs_)
            pending += isPending(rec);
        cv_.notify_all();
    }
    if (wakePipe_[1] >= 0)
        wakeLoop();
    return pending;
}

} // namespace srv
