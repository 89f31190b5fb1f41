/**
 * @file
 * End-to-end tests of the simulation daemon: the JSON protocol over a
 * real loopback socket, deterministic job results (for any worker
 * count), admission control, checkpoint/restore identity, the
 * graceful-signal autosave path, and idle workers that sleep.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "daemon/daemon.hh"

namespace
{

using sim::json::Value;

/** Blocking line-oriented client for the daemon protocol. */
class Client
{
  public:
    explicit Client(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        timeval tv{};
        tv.tv_sec = 120; // generous: single-core CI under sanitizers
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                            sizeof addr),
                  0);
    }

    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    /** Send one request line, read one reply line. */
    Value
    request(const Value &req)
    {
        const std::string line = req.dump() + "\n";
        EXPECT_EQ(::send(fd_, line.data(), line.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(line.size()));
        return sim::json::parse(readLine());
    }

    std::string
    readLine()
    {
        std::size_t nl;
        while ((nl = buf_.find('\n')) == std::string::npos) {
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n <= 0) {
                ADD_FAILURE() << "daemon closed or timed out";
                return "null";
            }
            buf_.append(chunk, n);
        }
        const std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
    }

    int fd() const { return fd_; }

  private:
    int fd_ = -1;
    std::string buf_;
};

srv::DaemonConfig
testConfig()
{
    srv::DaemonConfig cfg;
    cfg.machine.numPEs = 4;
    cfg.machine.latencyStats = true;
    // Jobs inject drops; ReliableNet is what lets epochs complete.
    cfg.machine.reliableNet = true;
    cfg.workers = 2;
    cfg.captureStatsJson = true;
    return cfg;
}

Value
fibSubmit(std::int64_t n, std::uint64_t requests, std::uint64_t seed)
{
    auto req = Value::obj();
    req.set("op", Value::str("submit"));
    req.set("workload", Value::str("fib"));
    auto args = Value::arr();
    args.push(Value::intNum(static_cast<std::uint64_t>(n)));
    req.set("args", std::move(args));
    req.set("requests", Value::intNum(requests));
    req.set("seed", Value::intNum(seed));
    auto arrival = Value::obj();
    arrival.set("kind", Value::str("poisson"));
    arrival.set("meanGap", Value::num(32.0));
    req.set("arrival", std::move(arrival));
    auto faults = Value::obj();
    faults.set("dropRate", Value::num(0.02));
    // Explicit fault seed: seed-0 plans derive per daemon job id (so
    // equal specs draw independent streams); pinning it makes two
    // identical submissions bit-identical.
    faults.set("seed", Value::intNum(seed + 1000));
    req.set("faults", std::move(faults));
    return req;
}

/** Poll result until the job leaves the queue/run states. */
Value
awaitDone(Client &c, std::uint64_t id)
{
    for (int spins = 0; spins < 6000; ++spins) {
        auto req = Value::obj();
        req.set("op", Value::str("result"));
        req.set("id", Value::intNum(id));
        Value resp = c.request(req);
        if (!resp.get("ok").asBool())
            return resp;
        const std::string state = resp.get("state").asStr();
        if (state == "done" || state == "failed")
            return resp;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "job " << id << " never finished";
    return Value::null();
}

/** The deterministic identity of a ttda job result. */
std::string
resultKey(const Value &resp)
{
    auto key = Value::obj();
    key.set("cycles", resp.get("cycles"));
    key.set("completed", resp.get("completed"));
    key.set("outputs", resp.get("outputs"));
    key.set("statsJson", resp.get("statsJson"));
    return key.dump();
}

/** A daemon running on its own serve() thread. */
class DaemonHarness
{
  public:
    explicit DaemonHarness(const srv::DaemonConfig &cfg) : daemon_(cfg)
    {
        daemon_.start();
        thread_ = std::thread([this] { daemon_.serve(); });
    }

    ~DaemonHarness() { stop(); }

    srv::Daemon &daemon() { return daemon_; }

    void
    stop()
    {
        if (thread_.joinable()) {
            daemon_.requestShutdown();
            thread_.join();
        }
    }

    /** Graceful drain via the protocol, then join serve(). */
    void
    shutdownAndJoin(Client &c)
    {
        auto req = Value::obj();
        req.set("op", Value::str("shutdown"));
        const Value resp = c.request(req);
        EXPECT_TRUE(resp.get("ok").asBool());
        thread_.join();
    }

  private:
    srv::Daemon daemon_;
    std::thread thread_;
};

std::string
tempPath(const char *stem)
{
    return testing::TempDir() + stem;
}

TEST(Daemon, SubmitStatusResultShutdown)
{
    DaemonHarness h(testConfig());
    Client c(h.daemon().port());

    // Two identical specs must produce bit-identical results, and a
    // distinct seed must (in general) produce a different epoch.
    const Value r1 = c.request(fibSubmit(7, 6, 11));
    ASSERT_TRUE(r1.get("ok").asBool()) << r1.dump();
    const Value r2 = c.request(fibSubmit(7, 6, 11));
    const Value r3 = c.request(fibSubmit(7, 6, 12));
    const std::uint64_t id1 = r1.get("id").asU64();
    const std::uint64_t id2 = r2.get("id").asU64();
    const std::uint64_t id3 = r3.get("id").asU64();
    EXPECT_NE(id1, id2);

    const Value d1 = awaitDone(c, id1);
    const Value d2 = awaitDone(c, id2);
    const Value d3 = awaitDone(c, id3);
    ASSERT_EQ(d1.get("state").asStr(), "done") << d1.dump();
    EXPECT_FALSE(d1.get("deadlocked").asBool());
    EXPECT_EQ(d1.get("completed").asU64(), 6u);
    EXPECT_GT(d1.get("outputs").size(), 0u);
    EXPECT_EQ(resultKey(d1), resultKey(d2));
    EXPECT_NE(d3.get("cycles").asU64(), 0u);

    // Status surfaces the srv.* gauges and per-worker tallies.
    auto statusReq = Value::obj();
    statusReq.set("op", Value::str("status"));
    const Value st = c.request(statusReq);
    ASSERT_TRUE(st.get("ok").asBool());
    EXPECT_EQ(st.get("srv").get("admitted").asU64(), 3u);
    EXPECT_EQ(st.get("srv").get("done").asU64(), 3u);
    EXPECT_EQ(st.get("srv").get("requestsCompleted").asU64(), 18u);
    const Value &fleet = st.get("fleet");
    EXPECT_EQ(fleet.get("workers").asU64(), 2u);
    std::uint64_t dispatched = 0;
    for (std::size_t w = 0; w < fleet.get("jobsPerWorker").size(); ++w)
        dispatched += fleet.get("jobsPerWorker").at(w).asU64();
    EXPECT_EQ(dispatched, 3u);

    h.shutdownAndJoin(c);
}

/** The deterministic identity of a vn job result. */
std::string
vnResultKey(const Value &resp)
{
    auto key = Value::obj();
    key.set("cycles", resp.get("cycles"));
    key.set("completed", resp.get("completed"));
    key.set("latency", resp.get("latency"));
    return key.dump();
}

/** Submit a fixed mix of ttda and vn jobs (some with seed-0 fault
 *  plans, resolved against the daemon job id) on a fresh daemon with
 *  `workers` workers; return each job's deterministic result key. */
std::vector<std::string>
mixedJobKeys(unsigned workers)
{
    auto cfg = testConfig();
    cfg.workers = workers;
    DaemonHarness h(cfg);
    Client c(h.daemon().port());

    std::vector<Value> specs;
    for (std::uint64_t s = 1; s <= 4; ++s) {
        Value req = fibSubmit(6 + static_cast<std::int64_t>(s % 3), 4, s);
        if (s % 2 == 0) {
            auto faults = Value::obj();
            faults.set("dropRate", Value::num(0.02));
            req.set("faults", std::move(faults)); // seed 0
        }
        specs.push_back(std::move(req));

        auto vn = Value::obj();
        vn.set("op", Value::str("submit"));
        vn.set("tier", Value::str("vn"));
        vn.set("requests", Value::intNum(3));
        vn.set("seed", Value::intNum(s));
        vn.set("loads", Value::intNum(s + 1));
        specs.push_back(std::move(vn));
    }

    std::vector<std::uint64_t> ids;
    for (const Value &spec : specs) {
        const Value sub = c.request(spec);
        EXPECT_TRUE(sub.get("ok").asBool()) << sub.dump();
        ids.push_back(sub.get("id").asU64());
    }
    std::vector<std::string> keys;
    for (const std::uint64_t id : ids) {
        const Value done = awaitDone(c, id);
        EXPECT_EQ(done.get("state").asStr(), "done") << done.dump();
        keys.push_back(done.get("tier").asStr() == "vn" ? vnResultKey(done)
                                                        : resultKey(done));
    }

    // One dispatch per job, and the per-worker tally counts both tiers.
    auto statusReq = Value::obj();
    statusReq.set("op", Value::str("status"));
    const Value st = c.request(statusReq);
    EXPECT_EQ(st.get("srv").get("batches").asU64(), specs.size());
    const Value &perWorker = st.get("fleet").get("jobsPerWorker");
    EXPECT_EQ(perWorker.size(), workers);
    std::uint64_t dispatched = 0;
    for (std::size_t w = 0; w < perWorker.size(); ++w)
        dispatched += perWorker.at(w).asU64();
    EXPECT_EQ(dispatched, specs.size());

    h.shutdownAndJoin(c);
    return keys;
}

TEST(Daemon, ResultsIndependentOfWorkerCount)
{
    const std::vector<std::string> one = mixedJobKeys(1);
    const std::vector<std::string> three = mixedJobKeys(3);
    ASSERT_EQ(one.size(), three.size());
    for (std::size_t j = 0; j < one.size(); ++j)
        EXPECT_EQ(one[j], three[j]) << "job " << j + 1;
}

double
processCpuMs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
}

TEST(Daemon, IdleWorkersSleep)
{
    DaemonHarness h(testConfig());
    const double before = processCpuMs();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const double used = processCpuMs() - before;
    EXPECT_LT(used, 100.0) << "an idle daemon burned " << used
                           << " ms of CPU in 500 ms";

    Client c(h.daemon().port());
    h.shutdownAndJoin(c);
}

TEST(Daemon, VnTierJobs)
{
    DaemonHarness h(testConfig());
    Client c(h.daemon().port());

    auto req = Value::obj();
    req.set("op", Value::str("submit"));
    req.set("tier", Value::str("vn"));
    req.set("requests", Value::intNum(4));
    req.set("seed", Value::intNum(3));
    req.set("loads", Value::intNum(2));
    const Value sub = c.request(req);
    ASSERT_TRUE(sub.get("ok").asBool()) << sub.dump();
    const Value done = awaitDone(c, sub.get("id").asU64());
    ASSERT_EQ(done.get("state").asStr(), "done") << done.dump();
    EXPECT_EQ(done.get("tier").asStr(), "vn");
    EXPECT_EQ(done.get("completed").asU64(), 4u);
    EXPECT_GT(done.get("cycles").asU64(), 0u);

    h.shutdownAndJoin(c);
}

TEST(Daemon, AdmissionControlAndProtocolErrors)
{
    auto cfg = testConfig();
    cfg.maxRequestsPerJob = 8;
    DaemonHarness h(cfg);
    Client c(h.daemon().port());

    const Value overCap = c.request(fibSubmit(7, 9, 1));
    EXPECT_FALSE(overCap.get("ok").asBool());

    auto unknown = fibSubmit(7, 2, 1);
    unknown.set("workload", Value::str("nonesuch"));
    EXPECT_FALSE(c.request(unknown).get("ok").asBool());

    // Specs that would trip an assertion in a worker are refused at
    // admission, and the daemon keeps serving afterwards.
    std::vector<Value> malformed;
    {
        auto twoArgs = fibSubmit(7, 2, 1); // fib takes one argument
        auto args = Value::arr();
        args.push(Value::intNum(7));
        args.push(Value::intNum(8));
        twoArgs.set("args", std::move(args));
        malformed.push_back(std::move(twoArgs));
    }
    {
        auto noLoads = Value::obj();
        noLoads.set("op", Value::str("submit"));
        noLoads.set("tier", Value::str("vn"));
        noLoads.set("requests", Value::intNum(2));
        noLoads.set("loads", Value::intNum(0));
        malformed.push_back(std::move(noLoads));
    }
    const auto withArrival = [](const char *kind, const char *key,
                                Value v) {
        auto req = fibSubmit(7, 2, 1);
        auto arrival = Value::obj();
        arrival.set("kind", Value::str(kind));
        arrival.set(key, std::move(v));
        req.set("arrival", std::move(arrival));
        return req;
    };
    malformed.push_back(withArrival("weekly", "meanGap", Value::num(8.0)));
    malformed.push_back(withArrival("bursty", "burstLen", Value::intNum(0)));
    malformed.push_back(withArrival("bursty", "burstScale", Value::num(2.0)));
    malformed.push_back(
        withArrival("diurnal", "diurnalDepth", Value::num(1.0)));
    // Arguments a workload cannot take: wrong types, negative sizes,
    // arrays that overflow the replica's structure store, and a
    // trapezoid over zero intervals (an integer division by zero).
    const auto withArgs = [](const char *workload,
                             std::vector<Value> args) {
        auto req = fibSubmit(7, 2, 1);
        req.set("workload", Value::str(workload));
        auto arr = Value::arr();
        for (Value &a : args)
            arr.push(std::move(a));
        req.set("args", std::move(arr));
        return req;
    };
    malformed.push_back(withArgs("vector-sum", {Value::intNum(1, true)}));
    malformed.push_back(
        withArgs("vector-sum", {Value::intNum(5000000000ULL)}));
    malformed.push_back(withArgs("vector-sum", {Value::num(2.5)}));
    malformed.push_back(withArgs("vector-sum", {Value::boolean(true)}));
    malformed.push_back(
        withArgs("producer-consumer", {Value::intNum(2, true)}));
    malformed.push_back(withArgs("fib", {Value::boolean(true)}));
    malformed.push_back(withArgs(
        "trapezoid", {Value::boolean(true), Value::num(2.5),
                      Value::intNum(4)}));
    malformed.push_back(withArgs(
        "trapezoid", {Value::intNum(0), Value::intNum(1),
                      Value::intNum(0)}));
    // Fields of the wrong type are refused, and counted, like values
    // out of range.
    malformed.push_back(withArgs("fib", {Value::str("x")}));
    {
        auto req = fibSubmit(7, 2, 1);
        req.set("requests", Value::str("two"));
        malformed.push_back(std::move(req));
    }
    for (const Value &spec : malformed) {
        const Value resp = c.request(spec);
        EXPECT_FALSE(resp.get("ok").asBool()) << spec.dump();
    }

    auto badOp = Value::obj();
    badOp.set("op", Value::str("frobnicate"));
    EXPECT_FALSE(c.request(badOp).get("ok").asBool());

    auto noSuchJob = Value::obj();
    noSuchJob.set("op", Value::str("result"));
    noSuchJob.set("id", Value::intNum(999));
    EXPECT_FALSE(c.request(noSuchJob).get("ok").asBool());

    // Malformed JSON gets an error reply, not a dropped connection.
    EXPECT_EQ(
        ::send(c.fd(), "this is not json\n", 17, MSG_NOSIGNAL), 17);
    const Value parseErr = sim::json::parse(c.readLine());
    EXPECT_FALSE(parseErr.get("ok").asBool());

    // Every refused submit was tallied (overCap, unknown and the
    // malformed list; a bad op or bad JSON is no submit), nothing was
    // admitted.
    auto statusReq = Value::obj();
    statusReq.set("op", Value::str("status"));
    const Value st = c.request(statusReq);
    EXPECT_EQ(st.get("srv").get("admitted").asU64(), 0u);
    EXPECT_EQ(st.get("srv").get("rejected").asU64(), 2 + malformed.size());

    h.shutdownAndJoin(c);

    // A client's fault plan must not be able to abort the daemon: on a
    // bare fabric (no --reliable-net) a duplicated token re-fires into
    // a retired context, so a TTDA job asking for duplicates is
    // refused, as is any rate outside [0,1].
    auto bareCfg = testConfig();
    bareCfg.machine.reliableNet = false;
    DaemonHarness bare(bareCfg);
    Client b(bare.daemon().port());
    auto clean = fibSubmit(7, 2, 1);
    clean.set("faults", Value::obj());
    const Value ok = b.request(clean);
    ASSERT_TRUE(ok.get("ok").asBool()) << ok.dump();
    awaitDone(b, ok.get("id").asU64());
    const auto withFault = [](const char *key, double rate) {
        auto req = fibSubmit(12, 8, 3);
        auto faults = Value::obj();
        faults.set(key, Value::num(rate));
        faults.set("seed", Value::intNum(3));
        req.set("faults", std::move(faults));
        return req;
    };
    for (const Value &spec :
         {withFault("dupRate", 0.05), withFault("dropRate", 1.5),
          withFault("corruptRate", -0.25), withFault("delayRate", 2.0)})
    {
        const Value resp = b.request(spec);
        EXPECT_FALSE(resp.get("ok").asBool()) << spec.dump();
    }
    // An overflowing literal parses to infinity: not a rate either.
    const std::string inf =
        R"({"op":"submit","workload":"fib","args":[12],"requests":8,)"
        R"("faults":{"dropRate":1e999}})" "\n";
    EXPECT_EQ(::send(b.fd(), inf.data(), inf.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(inf.size()));
    EXPECT_FALSE(sim::json::parse(b.readLine()).get("ok").asBool());

    const Value bareSt = b.request(statusReq);
    EXPECT_EQ(bareSt.get("srv").get("admitted").asU64(), 1u);
    EXPECT_EQ(bareSt.get("srv").get("rejected").asU64(), 5u);
    bare.shutdownAndJoin(b);
}

TEST(Daemon, WatchStreamsJobFrames)
{
    DaemonHarness h(testConfig());
    Client watcher(h.daemon().port());
    Client submitter(h.daemon().port());

    auto watchReq = Value::obj();
    watchReq.set("op", Value::str("watch"));
    ASSERT_TRUE(watcher.request(watchReq).get("ok").asBool());

    const Value sub = submitter.request(fibSubmit(6, 2, 5));
    ASSERT_TRUE(sub.get("ok").asBool());
    const std::uint64_t id = sub.get("id").asU64();

    // The watcher's next line is the completion frame for the job.
    const Value frame = sim::json::parse(watcher.readLine());
    EXPECT_EQ(frame.get("frame").asStr(), "job");
    EXPECT_EQ(frame.get("id").asU64(), id);
    EXPECT_EQ(frame.get("state").asStr(), "done");
    EXPECT_GT(frame.get("cycles").asU64(), 0u);

    h.shutdownAndJoin(submitter);
}

/** A checkpoint or restore request for `path`. */
Value
snapshotOp(const char *op, const std::string &path)
{
    auto req = Value::obj();
    req.set("op", Value::str(op));
    req.set("path", Value::str(path));
    return req;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

TEST(Daemon, CheckpointRestoreReproducesResults)
{
    const std::string snap = tempPath("daemon_roundtrip.snap");
    const std::string done = tempPath("daemon_done.snap");
    const std::string again = tempPath("daemon_done_again.snap");

    // Four fib epochs, two vn-tier epochs, and a fib epoch with a
    // bursty arrival process and every fault rate set.
    std::vector<Value> specs;
    for (std::uint64_t s = 1; s <= 4; ++s)
        specs.push_back(fibSubmit(7, 4, s));
    for (std::uint64_t s = 5; s <= 6; ++s) {
        auto vn = Value::obj();
        vn.set("op", Value::str("submit"));
        vn.set("tier", Value::str("vn"));
        vn.set("requests", Value::intNum(3));
        vn.set("seed", Value::intNum(s));
        vn.set("loads", Value::intNum(s - 3));
        vn.set("stride", Value::intNum(2));
        specs.push_back(std::move(vn));
    }
    Value bursty = fibSubmit(6, 6, 9);
    auto arrival = Value::obj();
    arrival.set("kind", Value::str("bursty"));
    arrival.set("meanGap", Value::num(48.0));
    arrival.set("burstLen", Value::intNum(3));
    arrival.set("burstScale", Value::num(0.25));
    bursty.set("arrival", std::move(arrival));
    auto faults = Value::obj();
    faults.set("seed", Value::intNum(1009));
    faults.set("dropRate", Value::num(0.02));
    faults.set("dupRate", Value::num(0.01));
    faults.set("corruptRate", Value::num(0.005));
    faults.set("delayRate", Value::num(0.02));
    faults.set("delaySpike", Value::intNum(24));
    bursty.set("faults", std::move(faults));
    specs.push_back(std::move(bursty));
    const auto key = [](const Value &resp) {
        return resp.get("tier").asStr() == "vn" ? vnResultKey(resp)
                                                : resultKey(resp);
    };

    // Reference: run every job to completion, remember its result,
    // and checkpoint the finished table.
    std::vector<std::string> refKeys;
    {
        DaemonHarness h(testConfig());
        Client c(h.daemon().port());
        std::vector<std::uint64_t> ids;
        for (const Value &spec : specs)
            ids.push_back(c.request(spec).get("id").asU64());
        for (const std::uint64_t id : ids) {
            const Value resp = awaitDone(c, id);
            EXPECT_EQ(resp.get("state").asStr(), "done") << resp.dump();
            refKeys.push_back(key(resp));
        }
        const Value saved = c.request(snapshotOp("checkpoint", done));
        ASSERT_TRUE(saved.get("ok").asBool()) << saved.dump();
        h.shutdownAndJoin(c);
    }

    // Same submissions, checkpointed right away: the snapshot holds a
    // mix of done-verbatim and pending specs depending on timing —
    // restore must converge to identical results either way.
    {
        DaemonHarness h(testConfig());
        Client c(h.daemon().port());
        for (const Value &spec : specs)
            c.request(spec);
        const Value saved = c.request(snapshotOp("checkpoint", snap));
        ASSERT_TRUE(saved.get("ok").asBool()) << saved.dump();
        EXPECT_EQ(saved.get("jobs").asU64(), specs.size());
        h.stop(); // hard stop, like a crash after the checkpoint
    }

    // Restore into a fresh daemon; pending jobs re-run.
    {
        DaemonHarness h(testConfig());
        Client c(h.daemon().port());
        const Value loaded = c.request(snapshotOp("restore", snap));
        ASSERT_TRUE(loaded.get("ok").asBool()) << loaded.dump();
        EXPECT_EQ(loaded.get("jobs").asU64(), specs.size());
        for (std::uint64_t id = 1; id <= specs.size(); ++id)
            EXPECT_EQ(key(awaitDone(c, id)), refKeys[id - 1])
                << "job " << id;
        h.shutdownAndJoin(c);
    }

    // A finished table restores verbatim: checkpointing it again
    // writes the same bytes.
    {
        DaemonHarness h(testConfig());
        Client c(h.daemon().port());
        const Value loaded = c.request(snapshotOp("restore", done));
        ASSERT_TRUE(loaded.get("ok").asBool()) << loaded.dump();
        EXPECT_EQ(loaded.get("pending").asU64(), 0u) << loaded.dump();
        const Value saved = c.request(snapshotOp("checkpoint", again));
        ASSERT_TRUE(saved.get("ok").asBool()) << saved.dump();
        h.shutdownAndJoin(c);
    }
    const std::string doneBytes = fileBytes(done);
    EXPECT_FALSE(doneBytes.empty());
    EXPECT_TRUE(doneBytes == fileBytes(again));
    std::remove(snap.c_str());
    std::remove(done.c_str());
    std::remove(again.c_str());
}

TEST(Daemon, RestoreRejectsGarbageAndMismatch)
{
    const std::string junk = tempPath("daemon_junk.snap");
    {
        std::ofstream os(junk, std::ios::binary);
        os << "this is not a snapshot";
    }
    auto cfg = testConfig();
    DaemonHarness h(cfg);
    Client c(h.daemon().port());
    auto rest = Value::obj();
    rest.set("op", Value::str("restore"));
    rest.set("path", Value::str(junk));
    EXPECT_FALSE(c.request(rest).get("ok").asBool());

    // A checkpoint from a differently-configured daemon is refused.
    const std::string other = tempPath("daemon_other.snap");
    {
        auto otherCfg = testConfig();
        otherCfg.machine.numPEs = 8;
        srv::Daemon d(otherCfg);
        d.saveCheckpoint(other);
    }
    rest.set("path", Value::str(other));
    const Value mism = c.request(rest);
    EXPECT_FALSE(mism.get("ok").asBool());

    // The daemon survives both rejections.
    const Value sub = c.request(fibSubmit(6, 1, 1));
    ASSERT_TRUE(sub.get("ok").asBool());
    EXPECT_EQ(awaitDone(c, sub.get("id").asU64()).get("state").asStr(),
              "done");
    h.shutdownAndJoin(c);
    std::remove(junk.c_str());
    std::remove(other.c_str());
}

TEST(Daemon, SignalDrainsAndAutosavesUnfinishedJobs)
{
    const std::string autosave = tempPath("daemon_autosave.snap");
    std::remove(autosave.c_str());

    std::vector<std::string> refKeys;
    std::uint64_t doneBeforeSignal = 0;
    {
        // Reference results for the five specs.
        DaemonHarness h(testConfig());
        Client c(h.daemon().port());
        std::vector<std::uint64_t> ids;
        for (std::uint64_t s = 1; s <= 5; ++s)
            ids.push_back(
                c.request(fibSubmit(7, 6, s)).get("id").asU64());
        for (const std::uint64_t id : ids)
            refKeys.push_back(resultKey(awaitDone(c, id)));
        h.shutdownAndJoin(c);
    }
    {
        auto cfg = testConfig();
        cfg.autosavePath = autosave;
        DaemonHarness h(cfg);
        Client c(h.daemon().port());
        for (std::uint64_t s = 1; s <= 5; ++s)
            c.request(fibSubmit(7, 6, s));
        // Signal immediately: the in-flight batch finishes, the rest
        // must be checkpointed, never dropped.
        h.stop();

        auto cfg2 = testConfig();
        DaemonHarness h2(cfg2);
        Client c2(h2.daemon().port());
        std::ifstream probe(autosave, std::ios::binary);
        if (probe.good()) {
            auto rest = Value::obj();
            rest.set("op", Value::str("restore"));
            rest.set("path", Value::str(autosave));
            const Value loaded = c2.request(rest);
            ASSERT_TRUE(loaded.get("ok").asBool()) << loaded.dump();
            EXPECT_GT(loaded.get("pending").asU64(), 0u);
            doneBeforeSignal =
                loaded.get("jobs").asU64() -
                loaded.get("pending").asU64();
            for (std::uint64_t id = 1; id <= 5; ++id)
                EXPECT_EQ(resultKey(awaitDone(c2, id)),
                          refKeys[id - 1])
                    << "job " << id;
        } else {
            // All five finished before the signal landed — legal on a
            // fast host; nothing was lost, so nothing was saved.
            doneBeforeSignal = 5;
        }
        EXPECT_LE(doneBeforeSignal, 5u);
        h2.shutdownAndJoin(c2);
    }
    std::remove(autosave.c_str());
}

} // namespace
