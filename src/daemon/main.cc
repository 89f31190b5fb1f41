/**
 * @file
 * ttda_simd — the simulation-as-a-service daemon binary.
 *
 * Binds 127.0.0.1:<port> (ephemeral by default), prints
 * "LISTENING <port>" once ready, and serves the newline-delimited JSON
 * protocol until a shutdown op or SIGINT/SIGTERM. See daemon.hh for
 * the protocol and scripts/simctl.py for the client.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "common/logging.hh"
#include "daemon/daemon.hh"

namespace
{

int gSignalFd = -1;

extern "C" void
onSignal(int)
{
    if (gSignalFd >= 0) {
        const char byte = '!';
        [[maybe_unused]] const ssize_t n =
            ::write(gSignalFd, &byte, 1);
    }
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --port N          TCP port on 127.0.0.1 (default 0 = "
        "ephemeral)\n"
        "  --workers N       worker threads, one warm replica each "
        "(default 2)\n"
        "  --pes N           ttda PEs per replica (default 8)\n"
        "  --threads N       host threads per replica (default 1)\n"
        "  --seed N          machine seed (default 1)\n"
        "  --reliable-net    wrap the fabric in ReliableNet\n"
        "  --vn-cores N      von Neumann cores (default 4)\n"
        "  --max-queue N     admission queue bound (default 64)\n"
        "  --max-requests N  per-job request cap (default 4096)\n"
        "  --autosave PATH   checkpoint unfinished jobs here on "
        "SIGINT/SIGTERM\n"
        "  --restore PATH    load a checkpoint before serving\n",
        argv0);
}

std::uint64_t
numArg(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        sim::fatal("missing value for {}", argv[i]);
    return std::strtoull(argv[++i], nullptr, 0);
}

const char *
strArg(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        sim::fatal("missing value for {}", argv[i]);
    return argv[++i];
}

} // namespace

int
main(int argc, char **argv)
{
    srv::DaemonConfig cfg;
    cfg.machine.numPEs = 8;
    cfg.machine.threads = 1;
    cfg.machine.latencyStats = true; // per-request latency histograms
    cfg.workers = 2;
    cfg.captureStatsJson = true; // the bit-identity witness
    std::string restorePath;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--port")
            cfg.port = static_cast<std::uint16_t>(numArg(argc, argv, i));
        else if (a == "--workers")
            cfg.workers = static_cast<unsigned>(numArg(argc, argv, i));
        else if (a == "--pes")
            cfg.machine.numPEs =
                static_cast<std::uint32_t>(numArg(argc, argv, i));
        else if (a == "--threads")
            cfg.machine.threads =
                static_cast<std::uint32_t>(numArg(argc, argv, i));
        else if (a == "--seed") {
            cfg.machine.seed = numArg(argc, argv, i);
            cfg.vnMachine.seed = cfg.machine.seed;
        } else if (a == "--reliable-net")
            cfg.machine.reliableNet = true;
        else if (a == "--vn-cores")
            cfg.vnMachine.numCores =
                static_cast<std::uint32_t>(numArg(argc, argv, i));
        else if (a == "--max-queue")
            cfg.maxQueuedJobs =
                static_cast<std::size_t>(numArg(argc, argv, i));
        else if (a == "--max-requests")
            cfg.maxRequestsPerJob = numArg(argc, argv, i);
        else if (a == "--autosave")
            cfg.autosavePath = strArg(argc, argv, i);
        else if (a == "--restore")
            restorePath = strArg(argc, argv, i);
        else if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            sim::fatal("unknown option {}", a);
        }
    }

    srv::Daemon daemon(cfg);
    daemon.start();
    if (!restorePath.empty())
        daemon.loadCheckpoint(restorePath);

    gSignalFd = daemon.signalFd();
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = onSignal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    std::printf("LISTENING %u\n", daemon.port());
    std::fflush(stdout);

    daemon.serve();
    return 0;
}
