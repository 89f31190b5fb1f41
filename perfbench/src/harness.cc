#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <unordered_map>

namespace pb
{

namespace
{

/** No op starts later than this after process start. */
constexpr double kDeadlineS = 140.0;

const std::int64_t kStartNs = nowNs();

/** Total length of the union of [start, end) intervals clipped to
 *  [lo, hi). */
double
unionNs(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
        std::int64_t lo, std::int64_t hi)
{
    std::sort(iv.begin(), iv.end());
    double total = 0.0;
    std::int64_t curS = 0, curE = 0;
    bool open = false;
    for (auto [s, e] : iv) {
        s = std::max(s, lo);
        e = std::min(e, hi);
        if (e <= s)
            continue;
        if (open && s <= curE) {
            curE = std::max(curE, e);
            continue;
        }
        if (open)
            total += static_cast<double>(curE - curS);
        curS = s;
        curE = e;
        open = true;
    }
    if (open)
        total += static_cast<double>(curE - curS);
    return total;
}

double
procStatusField(int pid, const char *field)
{
    const std::string path =
        pid == 0 ? "/proc/self/status"
                 : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream is(path);
    std::string line;
    const std::string key = std::string(field) + ":";
    while (std::getline(is, line))
        if (line.compare(0, key.size(), key) == 0)
            return std::strtod(line.c_str() + key.size(), nullptr);
    return -1.0;
}

} // namespace

std::vector<std::size_t>
blockSchedule(Rng &rng, std::size_t perBlock, std::size_t blocks)
{
    std::vector<std::size_t> order;
    order.reserve(perBlock * blocks);
    std::vector<std::size_t> block(perBlock);
    for (std::size_t b = 0; b < blocks; ++b) {
        for (std::size_t i = 0; i < perBlock; ++i)
            block[i] = i;
        rng.shuffle(block);
        order.insert(order.end(), block.begin(), block.end());
    }
    return order;
}

std::size_t
blocksFor(double opsPerSecond, double seconds, std::size_t perBlock)
{
    const double ops = opsPerSecond * seconds;
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(ops / static_cast<double>(perBlock))));
}

const char *
layerName(Layer l)
{
    switch (l) {
    case Layer::Op:
        return "op";
    case Layer::Check:
        return "check";
    case Layer::Id:
        return "id";
    case Layer::Ttda:
        return "ttda";
    case Layer::Serve:
        return "serve";
    case Layer::Fleet:
        return "fleet";
    case Layer::Emul:
        return "emul";
    case Layer::Daemon:
        return "daemon";
    }
    return "?";
}

Tracer::Tracer(unsigned slots) : bufs_(std::max(1u, slots))
{
    for (Buf &b : bufs_)
        b.spans.reserve(1 << 14);
}

void
Tracer::end(unsigned slot, std::uint64_t id)
{
    const std::int64_t t = nowNs();
    auto &spans = bufs_[slot].spans;
    for (auto it = spans.rbegin(); it != spans.rend(); ++it)
        if (it->id == id) {
            it->end = t;
            return;
        }
}

std::vector<Span>
Tracer::spans() const
{
    std::vector<Span> all;
    for (const Buf &b : bufs_)
        all.insert(all.end(), b.spans.begin(), b.spans.end());
    return all;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        return false;
    for (const Buf &b : bufs_)
        for (const Span &s : b.spans)
            os << "{\"id\":" << s.id << ",\"parent\":" << s.parent
               << ",\"op\":" << s.op << ",\"layer\":\""
               << layerName(s.layer) << "\",\"call\":\"" << s.call
               << "\",\"start_ns\":" << s.start - kStartNs
               << ",\"end_ns\":" << s.end - kStartNs << "}\n";
    return static_cast<bool>(os);
}

TraceSummary
summarize(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<std::int64_t, std::int64_t>>>
        children;
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].push_back({s.start, s.end});

    TraceSummary out;
    double opNs = 0.0, coveredNs = 0.0;
    for (const Span &s : spans) {
        const auto it = children.find(s.id);
        const double kids =
            it == children.end() ? 0.0
                                 : unionNs(it->second, s.start, s.end);
        const double dur = static_cast<double>(s.end - s.start);
        out.selfMs[static_cast<std::size_t>(s.layer)] +=
            (dur - kids) * 1e-6;
        if (s.layer == Layer::Op) {
            opNs += dur;
            coveredNs += kids;
        }
    }
    out.coverage = opNs > 0.0 ? coveredNs / opNs : 0.0;
    return out;
}

const std::vector<LayerMetric> &
layerCatalogue()
{
    static const std::vector<LayerMetric> cat = {
        {"id.compile_ms", "ms"},
        {"ttda.construct_ms", "ms"},
        {"ttda.run_ms", "ms"},
        {"ttda.fires", "count"},
        {"ttda.sim_cycles", "count"},
        {"ttda.ns_per_fire", "ns"},
        {"ttda.ns_per_sim_cycle", "ns"},
        {"ttda.reset_ms", "ms"},
        {"ttda.set_fault_plan_ms", "ms"},
        {"ttda.serve_ms", "ms"},
        {"ttda.stats_json_ms", "ms"},
        {"net.sent", "count"},
        {"net.delivered", "count"},
        {"net.blocked_cycles", "count"},
        {"net.retransmits", "count"},
        {"net.acks_sent", "count"},
        {"net.rx_duplicates", "count"},
        {"net.abandoned", "count"},
        {"fault.destroyed", "count"},
        {"net.useful_ratio", "ratio"},
        {"mem.is_fetches", "count"},
        {"mem.is_deferred", "count"},
        {"mem.deferred_ratio", "ratio"},
        {"serve.batch_ms", "ms"},
        {"fleet.steals", "count"},
        {"fleet.worker_imbalance", "ratio"},
        {"fleet.busy_frac", "ratio"},
        {"emul.compile_ms", "ms"},
        {"emul.execute_ms", "ms"},
        {"emul.execute_w1_ms", "ms"},
        {"emul.fires", "count"},
        {"emul.ns_per_fire", "ns"},
        {"daemon.submit_ms", "ms"},
        {"daemon.wait_ms", "ms"},
        {"daemon.result_ms", "ms"},
        {"daemon.result_bytes", "bytes"},
        {"daemon.status_ms", "ms"},
        {"daemon.jobs_per_batch", "ratio"},
        {"daemon.rss_kb_per_job", "kB"},
        {"vn.sim_cycles", "count"},
        {"self.op_ms", "ms"},
        {"self.check_ms", "ms"},
        {"self.id_ms", "ms"},
        {"self.ttda_ms", "ms"},
        {"self.serve_ms", "ms"},
        {"self.fleet_ms", "ms"},
        {"self.emul_ms", "ms"},
        {"self.daemon_ms", "ms"},
        {"trace.coverage", "ratio"},
        {"trace.overhead", "ratio"},
    };
    return cat;
}

double
Workload::peakRssMb() const
{
    return vmHwmMb(0);
}

void
reportFailure(const std::string &workload, std::uint64_t op,
              const std::string &what)
{
    std::cerr << "perfbench: " << workload << " op " << op
              << " failed: " << what << "\n";
}

double
vmHwmMb(int pid)
{
    const double kb = procStatusField(pid, "VmHWM");
    return kb < 0 ? kb : kb / 1024.0;
}

double
vmRssKb(int pid)
{
    return procStatusField(pid, "VmRSS");
}

PassSummary
summarizePass(const PassResult &r, std::size_t window)
{
    const std::vector<std::int64_t> &end = r.opEnd;
    std::vector<std::size_t> order(end.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return end[a] < end[b];
    });

    struct Window
    {
        double rate;
        std::size_t first; //!< into `order`
    };
    std::vector<Window> windows;
    std::int64_t from = r.startNs;
    for (std::size_t w = 0; (w + 1) * window <= order.size(); ++w) {
        double work = 0.0;
        for (std::size_t i = w * window; i < (w + 1) * window; ++i)
            work += r.opWork[order[i]];
        const std::int64_t to = end[order[(w + 1) * window - 1]];
        if (to > from)
            windows.push_back(
                {work / (static_cast<double>(to - from) * 1e-9), w * window});
        from = to;
    }

    PassSummary s;
    std::vector<double> lat;
    if (windows.size() < 4) {
        s.throughput = r.elapsedS > 0 ? r.work / r.elapsedS : 0.0;
        lat = r.opMs;
    } else {
        std::sort(windows.begin(), windows.end(),
                  [](const Window &a, const Window &b) {
                      return a.rate < b.rate;
                  });
        windows.resize((windows.size() + 1) / 2);
        std::vector<double> rates;
        for (const Window &w : windows) {
            rates.push_back(w.rate);
            for (std::size_t i = w.first; i < w.first + window; ++i)
                lat.push_back(r.opMs[order[i]]);
        }
        s.throughput = median(std::move(rates));
    }
    s.ops = lat.size();
    s.p50Ms = quantile(lat, 0.50);
    s.p99Ms = quantile(std::move(lat), 0.99);
    return s;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

bool
pastDeadline()
{
    return static_cast<double>(nowNs() - kStartNs) * 1e-9 > kDeadlineS;
}

} // namespace pb
