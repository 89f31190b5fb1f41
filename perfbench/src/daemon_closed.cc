/**
 * @file
 * daemon_closed: the submit -> result span against a live ttda_simd.
 *
 * The daemon runs as a child process with its defaults (2 fleet
 * workers, 8-PE replicas, stats capture on) on an ephemeral loopback
 * port. One thread drives it: two closed-loop client connections and
 * one `watch` connection. An op is submit -> the job's done frame on
 * the watch connection -> `result` reply received and checked; a
 * client sends its next submit only after its previous op ends, so a
 * slower daemon receives less load and throughput measures the daemon,
 * not the generator. Every kStatusEvery jobs the first client sends a
 * `status` poll instead.
 *
 * The jobs are small — a few requests of the daemon's four named ttda
 * workloads plus vn-tier jobs — so parse, admission, the job table,
 * the result/statsJson encode and the socket dominate. The daemon's
 * job table keeps every result, so its memory grows with the job
 * count; the count is fixed per run, which keeps peak_rss_mb
 * independent of speed.
 */

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/json.hh"
#include "harness.hh"
#include "programs.hh"
#include "workloads/dfg_programs.hh"

extern char **environ;

namespace pb
{

namespace
{

/** Jobs per second of --seconds on the reference host. */
constexpr double kJobsPerSecond = 100.0;
constexpr std::size_t kClients = 2;
constexpr std::size_t kStatusEvery = 64;
constexpr std::size_t kWarmupBlocks = 2;
constexpr std::uint64_t kRequestsPerJob = 16;
/** No reply, frame or exit for this long means the daemon hung. */
constexpr int kStallMs = 15000;

// ---- the child process ---------------------------------------------

/** ttda_simd as a child: spawned on an ephemeral port, stopped with
 *  the `shutdown` op, killed if it does not exit; always reaped. */
class DaemonChild
{
  public:
    explicit DaemonChild(const std::string &path)
    {
        int out[2];
        if (::pipe(out) < 0)
            throw std::runtime_error("pipe() failed");
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, out[1], STDOUT_FILENO);
        posix_spawn_file_actions_addclose(&fa, out[0]);
        posix_spawn_file_actions_addclose(&fa, out[1]);
        std::string port = "0";
        char *argv[] = {const_cast<char *>(path.c_str()),
                        const_cast<char *>("--port"), port.data(), nullptr};
        const int rc =
            ::posix_spawn(&pid_, path.c_str(), &fa, nullptr, argv, environ);
        posix_spawn_file_actions_destroy(&fa);
        ::close(out[1]);
        if (rc != 0) {
            ::close(out[0]);
            pid_ = -1;
            throw std::runtime_error("cannot spawn " + path + ": " +
                                     std::strerror(rc));
        }
        out_ = out[0];
        try {
            awaitListening();
        } catch (...) {
            kill();
            throw;
        }
    }

    ~DaemonChild() { kill(); }

    DaemonChild(const DaemonChild &) = delete;
    DaemonChild &operator=(const DaemonChild &) = delete;

    int pid() const { return pid_; }
    std::uint16_t port() const { return port_; }

    /** Throws when the child has exited. */
    void
    checkAlive()
    {
        if (pid_ < 0)
            throw std::runtime_error("ttda_simd is not running");
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw std::runtime_error(
                "ttda_simd exited unexpectedly (status " +
                std::to_string(status) + ")");
        }
    }

    /** Wait up to `ms` for the child to exit after a shutdown op;
     *  kill it if it does not. @return true on a clean exit. */
    bool
    reap(int ms)
    {
        for (int waited = 0; pid_ >= 0 && waited < ms; waited += 10) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                closeOut();
                return WIFEXITED(status) && WEXITSTATUS(status) == 0;
            }
            ::usleep(10000);
        }
        kill();
        return false;
    }

  private:
    void
    awaitListening()
    {
        std::string buf;
        const std::int64_t deadline = nowNs() + 30'000'000'000LL;
        while (nowNs() < deadline) {
            pollfd p{out_, POLLIN, 0};
            if (::poll(&p, 1, 100) > 0) {
                char tmp[256];
                const ssize_t n = ::read(out_, tmp, sizeof tmp);
                if (n <= 0)
                    throw std::runtime_error(
                        "ttda_simd closed stdout before LISTENING");
                buf.append(tmp, static_cast<std::size_t>(n));
                const auto nl = buf.find('\n');
                if (nl != std::string::npos) {
                    unsigned port = 0;
                    if (std::sscanf(buf.c_str(), "LISTENING %u", &port) != 1)
                        throw std::runtime_error(
                            "unexpected ttda_simd output: " +
                            buf.substr(0, nl));
                    port_ = static_cast<std::uint16_t>(port);
                    return;
                }
            }
            checkAlive();
        }
        throw std::runtime_error("ttda_simd did not print LISTENING in 30 s");
    }

    void
    closeOut()
    {
        if (out_ >= 0) {
            ::close(out_);
            out_ = -1;
        }
    }

    void
    kill()
    {
        if (pid_ >= 0) {
            ::kill(pid_, SIGKILL);
            int status = 0;
            ::waitpid(pid_, &status, 0);
            pid_ = -1;
        }
        closeOut();
    }

    pid_t pid_ = -1;
    int out_ = -1;
    std::uint16_t port_ = 0;
};

// ---- line-oriented loopback connection -----------------------------

class LineConn
{
  public:
    explicit LineConn(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            throw std::runtime_error("socket() failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) < 0) {
            ::close(fd_);
            throw std::runtime_error(std::string("connect() failed: ") +
                                     std::strerror(errno));
        }
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
    }
    ~LineConn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    LineConn(const LineConn &) = delete;
    LineConn &operator=(const LineConn &) = delete;

    int fd() const { return fd_; }

    void
    send(const std::string &line)
    {
        std::size_t off = 0;
        while (off < line.size()) {
            const ssize_t n = ::send(fd_, line.data() + off,
                                     line.size() - off, MSG_NOSIGNAL);
            if (n > 0) {
                off += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)
                throw std::runtime_error("send() to ttda_simd failed");
            pollfd p{fd_, POLLOUT, 0};
            if (::poll(&p, 1, kStallMs) <= 0)
                throw std::runtime_error("ttda_simd stopped reading");
        }
    }

    /** Drain readable bytes into complete lines. Throws on EOF when
     *  no complete line is left to hand out. */
    void
    readLines(std::deque<std::string> &lines)
    {
        char buf[65536];
        bool eof = false;
        for (;;) {
            const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
            if (n > 0) {
                in_.append(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0) {
                eof = true;
                break;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            throw std::runtime_error("recv() from ttda_simd failed");
        }
        const std::size_t before = lines.size();
        std::size_t start = 0, nl;
        while ((nl = in_.find('\n', start)) != std::string::npos) {
            lines.push_back(in_.substr(start, nl - start));
            start = nl + 1;
        }
        in_.erase(0, start);
        if (eof && lines.size() == before)
            throw std::runtime_error("ttda_simd closed a connection");
    }

    /** Block until one line arrives (set-up handshakes). */
    std::string
    awaitLine(DaemonChild &child)
    {
        std::deque<std::string> lines;
        const std::int64_t deadline =
            nowNs() + static_cast<std::int64_t>(kStallMs) * 1'000'000;
        while (lines.empty()) {
            if (nowNs() > deadline)
                throw std::runtime_error("ttda_simd did not reply");
            pollfd p{fd_, POLLIN, 0};
            if (::poll(&p, 1, 100) > 0)
                readLines(lines);
            else
                child.checkAlive();
        }
        return lines.front();
    }

  private:
    int fd_ = -1;
    std::string in_;
};

// ---- the job mix ---------------------------------------------------

struct JobTemplate
{
    const char *workload; //!< ttda workload name, or nullptr for vn
    std::int64_t size;
};

const JobTemplate kTemplates[] = {
    {"fib", 9},
    {"fib", 10},
    {"vector-sum", 32},
    {"vector-sum", 48},
    {"producer-consumer", 32},
    {"producer-consumer", 48},
    {"trapezoid", 32},
    {"trapezoid", 48},
    {nullptr, 16},
    {nullptr, 24},
    {nullptr, 32},
    {"fib", 12},
};
/** One block of the schedule, as template indices: the first eleven
 *  twice, the large fib(12) job once. An op's latency includes waiting
 *  behind the other client's job, so the slowest 1% would otherwise be
 *  a few unlucky pairings; with the large job (4% of ops, several times
 *  the others) p99 falls among the large jobs and the ops queued behind
 *  them. */
const std::size_t kBlock[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0,
                              1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
constexpr std::size_t kPerBlock = sizeof kBlock / sizeof kBlock[0];

struct Job
{
    std::string submit; //!< the request line
    std::string label;  //!< "workload/size", names the op's span
    bool vn = false;
    graph::Value want;  //!< every request's output (ttda)
};

std::string
realJson(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    std::string s = buf;
    if (s.find_first_of(".e") == std::string::npos)
        s += ".0";
    return s;
}

Job
makeJob(const JobTemplate &t, Rng &rng)
{
    Job j;
    j.label = std::string(t.workload ? t.workload : "vn") + "/" +
              std::to_string(t.size);
    const std::string seed = std::to_string(rng.next() >> 12);
    std::string line = "{\"op\":\"submit\",\"requests\":" +
                       std::to_string(kRequestsPerJob) + ",\"seed\":" +
                       seed +
                       ",\"arrival\":{\"kind\":\"poisson\",\"meanGap\":64}";
    if (!t.workload) {
        j.vn = true;
        line += ",\"tier\":\"vn\",\"loads\":" + std::to_string(t.size) +
                ",\"computePerLoad\":16";
    } else {
        const std::string w = t.workload;
        const std::int64_t n = t.size;
        std::string args = std::to_string(n);
        if (w == "fib") {
            j.want = ival(fibRef(n));
        } else if (w == "vector-sum") {
            j.want = ival(vectorSumRef(n));
        } else if (w == "producer-consumer") {
            j.want = ival(producerConsumerRef(n));
        } else {
            const double a = 0.25 + rng.unit();
            args = realJson(a) + "," + realJson(a + 2.0) + "," + args;
            j.want = rval(workloads::trapezoidReference(a, a + 2.0, n));
        }
        line += ",\"tier\":\"ttda\",\"workload\":\"" + w +
                "\",\"args\":[" + args + "]";
    }
    j.submit = line + "}\n";
    return j;
}

graph::Value
jsonValue(const sim::json::Value &v)
{
    if (v.kind() == sim::json::Value::Kind::Int)
        return ival(v.asI64());
    return rval(v.asDouble());
}

// ---- the workload --------------------------------------------------

class DaemonClosed : public Workload
{
  public:
    explicit DaemonClosed(const Options &o) : opts_(o) {}

    ~DaemonClosed() override { stop(); }

    void teardown() override { stop(); }

    void
    setup() override
    {
        // No CPU pinning: the daemon's idle fleet workers yield-spin, and
        // confining them to three CPUs beside its executor and network
        // threads made runs both slower and about twice as noisy as
        // leaving the scheduler all four.
        child_ = std::make_unique<DaemonChild>(opts_.simd);
        for (auto &c : clients_)
            c.conn = std::make_unique<LineConn>(child_->port());
        watch_ = std::make_unique<LineConn>(child_->port());
        watch_->send("{\"op\":\"watch\"}\n");
        const auto ack = sim::json::parse(watch_->awaitLine(*child_));
        if (!ack.opt("ok").isBool() || !ack.get("ok").asBool())
            throw std::runtime_error("watch was refused");

        Rng rng(opts_.seed);
        jobs_.clear();
        const std::size_t blocks =
            blocksFor(kJobsPerSecond, opts_.seconds, kPerBlock);
        for (const std::size_t t : blockSchedule(rng, kPerBlock, blocks))
            jobs_.push_back(makeJob(kTemplates[kBlock[t]], rng));
        std::vector<Job> warm;
        for (const std::size_t t :
             blockSchedule(rng, kPerBlock, kWarmupBlocks))
            warm.push_back(makeJob(kTemplates[kBlock[t]], rng));
        LayerValues unused;
        const PassResult w = loop(warm, nullptr, unused);
        if (w.failed)
            throw std::runtime_error("warm-up jobs failed");
    }

    std::size_t windowOps() const override { return 2 * kPerBlock; }

    PassResult
    pass(Tracer *tr, LayerValues &lv) override
    {
        return loop(jobs_, tr, lv);
    }

    double
    peakRssMb() const override
    {
        return child_ ? vmHwmMb(child_->pid()) : -1.0;
    }

  private:
    enum class State { Idle, Ack, Done, Result, Status };

    struct Client
    {
        std::unique_ptr<LineConn> conn;
        State state = State::Idle;
        std::size_t job = 0;
        std::uint64_t id = 0;
        std::int64_t t0 = 0, tAck = 0, tDone = 0, tResult = 0;
        std::uint64_t opSpan = 0, phaseSpan = 0;
        std::deque<std::string> lines;
    };

    struct Tally
    {
        std::vector<double> submitMs, waitMs, resultMs, statusMs;
        double resultBytes = 0, vnCycles = 0;
        std::uint64_t results = 0;
        std::vector<std::pair<double, double>> status; //!< admitted, batches
    };

    void
    stop()
    {
        if (!child_)
            return;
        bool clean = false;
        try {
            LineConn c(child_->port());
            c.send("{\"op\":\"shutdown\"}\n");
            c.awaitLine(*child_);
            clean = child_->reap(10000);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: daemon shutdown: %s\n",
                         e.what());
        }
        if (!clean)
            std::fprintf(stderr, "perfbench: ttda_simd did not exit "
                                 "cleanly; killed\n");
        clients_[0].conn.reset();
        clients_[1].conn.reset();
        watch_.reset();
        child_.reset();
    }

    void
    openSpan(Tracer *tr, Client &c, const char *call, Layer layer)
    {
        if (tr) {
            if (c.phaseSpan)
                tr->end(0, c.phaseSpan);
            c.phaseSpan = tr->begin(0, layer, call, c.opSpan, c.job + 1);
        }
    }

    void
    closeSpans(Tracer *tr, Client &c)
    {
        if (tr) {
            if (c.phaseSpan)
                tr->end(0, c.phaseSpan);
            if (c.opSpan)
                tr->end(0, c.opSpan);
        }
        c.phaseSpan = c.opSpan = 0;
    }

    void
    requestResult(Tracer *tr, Client &c)
    {
        c.tDone = nowNs();
        openSpan(tr, c, "result", Layer::Daemon);
        c.conn->send("{\"op\":\"result\",\"id\":" + std::to_string(c.id) +
                     "}\n");
        c.state = State::Result;
    }

    /** Check a result reply; folds it into the digest. */
    bool
    checkResult(const Job &job, const std::string &line, PassResult &r,
                Tally &t, std::string &why)
    {
        const auto v = sim::json::parse(line);
        if (!v.get("ok").asBool()) {
            why = "daemon error: " + v.opt("error").dump();
            return false;
        }
        if (v.get("state").asStr() != "done") {
            why = "state " + v.get("state").asStr();
            return false;
        }
        if (v.get("completed").asU64() != kRequestsPerJob) {
            why = "completed " + v.get("completed").dump();
            return false;
        }
        const std::uint64_t cycles = v.get("cycles").asU64();
        std::uint64_t h = cycles;
        if (job.vn) {
            t.vnCycles += static_cast<double>(cycles);
        } else {
            if (v.get("deadlocked").asBool()) {
                why = "deadlocked";
                return false;
            }
            const auto &outs = v.get("outputs");
            if (outs.size() != kRequestsPerJob) {
                why = "outputs " + std::to_string(outs.size());
                return false;
            }
            for (std::size_t i = 0; i < outs.size(); ++i) {
                const graph::Value got = jsonValue(outs.at(i).get("value"));
                if (!sameValue(got, job.want)) {
                    why = "got " + got.toString() + ", want " +
                          job.want.toString();
                    return false;
                }
                h = hashAdd(h, valueBits(got));
            }
        }
        r.addOp(h);
        return true;
    }

    PassResult
    loop(const std::vector<Job> &jobs, Tracer *tr, LayerValues &lv)
    {
        Tally t;
        std::unordered_set<std::uint64_t> doneIds;
        std::deque<std::string> frames;
        std::size_t next = 0, sinceStatus = 0;
        const double rss0 = vmRssKb(child_->pid());
        PassResult r;

        auto finishOp = [&](Client &c, bool ok, const std::string &why) {
            closeSpans(tr, c);
            r.op(c.t0, ok, 1.0);
            if (!ok)
                reportFailure("daemon_closed", c.job, why);
            c.state = State::Idle;
        };

        for (;;) {
            // Issue: every idle client sends its next request.
            for (std::size_t k = 0; k < kClients; ++k) {
                Client &c = clients_[k];
                if (c.state != State::Idle)
                    continue;
                if (k == 0 && sinceStatus >= kStatusEvery) {
                    sinceStatus = 0;
                    c.t0 = nowNs();
                    c.conn->send("{\"op\":\"status\"}\n");
                    c.state = State::Status;
                    continue;
                }
                if (next >= jobs.size() || pastDeadline())
                    continue;
                c.job = next++;
                c.t0 = nowNs();
                if (tr) {
                    c.opSpan = tr->begin(0, Layer::Op,
                                         jobs[c.job].label.c_str(), 0,
                                         c.job + 1);
                    c.phaseSpan = 0;
                }
                openSpan(tr, c, "submit", Layer::Daemon);
                c.conn->send(jobs[c.job].submit);
                c.state = State::Ack;
            }
            bool busy = false;
            for (const Client &c : clients_)
                busy = busy || c.state != State::Idle;
            if (!busy)
                break;

            pollfd pf[kClients + 1];
            for (std::size_t k = 0; k < kClients; ++k)
                pf[k] = {clients_[k].conn->fd(), POLLIN, 0};
            pf[kClients] = {watch_->fd(), POLLIN, 0};
            const int n = ::poll(pf, kClients + 1, kStallMs);
            if (n == 0) {
                child_->checkAlive();
                throw std::runtime_error("ttda_simd stalled for 15 s");
            }
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                throw std::runtime_error("poll() failed");
            }

            if (pf[kClients].revents) {
                watch_->readLines(frames);
                for (; !frames.empty(); frames.pop_front()) {
                    const auto f = sim::json::parse(frames.front());
                    if (!f.has("frame"))
                        continue;
                    const std::uint64_t id = f.get("id").asU64();
                    bool claimed = false;
                    for (Client &c : clients_)
                        if (c.state == State::Done && c.id == id) {
                            requestResult(tr, c);
                            claimed = true;
                        }
                    if (!claimed)
                        doneIds.insert(id);
                }
            }

            for (std::size_t k = 0; k < kClients; ++k) {
                Client &c = clients_[k];
                if (!pf[k].revents)
                    continue;
                c.conn->readLines(c.lines);
                for (; !c.lines.empty(); c.lines.pop_front()) {
                    const std::string &line = c.lines.front();
                    switch (c.state) {
                    case State::Ack: {
                        const auto v = sim::json::parse(line);
                        c.tAck = nowNs();
                        t.submitMs.push_back(
                            static_cast<double>(c.tAck - c.t0) * 1e-6);
                        if (!v.get("ok").asBool()) {
                            finishOp(c, false,
                                     "submit rejected: " +
                                         v.opt("error").dump());
                            break;
                        }
                        ++sinceStatus;
                        c.id = v.get("id").asU64();
                        if (doneIds.erase(c.id)) {
                            requestResult(tr, c);
                        } else {
                            openSpan(tr, c, "wait", Layer::Daemon);
                            c.state = State::Done;
                        }
                        break;
                    }
                    case State::Result: {
                        const std::int64_t now = nowNs();
                        t.waitMs.push_back(
                            static_cast<double>(c.tDone - c.tAck) * 1e-6);
                        t.resultMs.push_back(
                            static_cast<double>(now - c.tDone) * 1e-6);
                        t.resultBytes += static_cast<double>(line.size());
                        ++t.results;
                        openSpan(tr, c, "check", Layer::Check);
                        std::string why;
                        const bool ok =
                            checkResult(jobs[c.job], line, r, t, why);
                        finishOp(c, ok, why);
                        break;
                    }
                    case State::Status: {
                        t.statusMs.push_back(
                            static_cast<double>(nowNs() - c.t0) * 1e-6);
                        const auto v = sim::json::parse(line);
                        const auto &g = v.get("srv");
                        t.status.push_back(
                            {g.get("admitted").asDouble(),
                             g.get("batches").asDouble()});
                        c.state = State::Idle;
                        break;
                    }
                    default:
                        throw std::runtime_error(
                            "unexpected line from ttda_simd: " + line);
                    }
                }
            }
        }
        r.finish();

        if (tr) {
            lv["daemon.submit_ms"] = median(t.submitMs);
            lv["daemon.wait_ms"] = median(t.waitMs);
            lv["daemon.result_ms"] = median(t.resultMs);
            lv["daemon.result_bytes"] =
                t.results ? t.resultBytes / static_cast<double>(t.results)
                          : 0.0;
            lv["daemon.status_ms"] = median(t.statusMs);
            if (t.status.size() >= 2) {
                const auto &a = t.status.front(), &b = t.status.back();
                lv["daemon.jobs_per_batch"] =
                    b.second > a.second
                        ? (b.first - a.first) / (b.second - a.second)
                        : 0.0;
            }
            lv["daemon.rss_kb_per_job"] =
                r.attempted ? (vmRssKb(child_->pid()) - rss0) /
                                  static_cast<double>(r.attempted)
                            : 0.0;
            lv["vn.sim_cycles"] = t.vnCycles;
        }
        return r;
    }

    Options opts_;
    std::unique_ptr<DaemonChild> child_;
    Client clients_[kClients];
    std::unique_ptr<LineConn> watch_;
    std::vector<Job> jobs_;
};

} // namespace

std::unique_ptr<Workload>
makeDaemonClosed(const Options &o)
{
    return std::make_unique<DaemonClosed>(o);
}

} // namespace pb
