#include "vn/machine.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "net/crossbar.hh"
#include "net/hierarchical.hh"
#include "net/ideal.hh"
#include "net/omega.hh"

namespace vn
{

namespace
{

/** Pack the requester identity into a memory cookie. */
std::uint64_t
packCookie(const MemAccess &acc)
{
    return (static_cast<std::uint64_t>(acc.core) << 32) |
           (static_cast<std::uint64_t>(acc.ctx) << 16) |
           (static_cast<std::uint64_t>(acc.reg) << 8) |
           static_cast<std::uint64_t>(acc.kind);
}

MemAccess
unpackCookie(std::uint64_t cookie, std::uint64_t addr, mem::Word data)
{
    MemAccess acc;
    acc.core = static_cast<std::uint32_t>(cookie >> 32);
    acc.ctx = static_cast<std::uint32_t>((cookie >> 16) & 0xffff);
    acc.reg = static_cast<Reg>((cookie >> 8) & 0xff);
    acc.kind = static_cast<MemAccess::Kind>(cookie & 0xff);
    acc.addr = addr;
    acc.data = data;
    return acc;
}

mem::MemRequest::Kind
toMemKind(MemAccess::Kind k)
{
    switch (k) {
      case MemAccess::Kind::Load: return mem::MemRequest::Kind::Read;
      case MemAccess::Kind::Store: return mem::MemRequest::Kind::Write;
      case MemAccess::Kind::Faa:
        return mem::MemRequest::Kind::FetchAndAdd;
    }
    sim::panic("unknown access kind");
}

/** The context-identity key of the awaiting_ map. */
std::uint64_t
awaitKey(std::uint32_t core, std::uint32_t ctx)
{
    return (static_cast<std::uint64_t>(core) << 32) | ctx;
}

/** Build the configured fabric carrying payload P — the plain message
 *  for a bare machine, net::Envelope<NetMsg> under ReliableNet. */
template <typename P>
std::unique_ptr<net::Network<P>>
makeVnNetwork(const VnMachineConfig &cfg)
{
    using Topology = VnMachineConfig::Topology;
    switch (cfg.topology) {
      case Topology::Ideal:
        return std::make_unique<net::IdealNetwork<P>>(
            cfg.numCores, cfg.netLatency, cfg.netJitter, cfg.seed);
      case Topology::Crossbar:
        return std::make_unique<net::Crossbar<P>>(cfg.numCores,
                                                  cfg.netLatency);
      case Topology::Omega:
        return std::make_unique<net::OmegaNet<P>>(cfg.numCores);
      case Topology::Hierarchical:
        return std::make_unique<net::HierarchicalNet<P>>(
            cfg.numCores, cfg.clusterSize, cfg.localLatency,
            cfg.globalLatency);
    }
    sim::panic("unknown topology");
}

} // namespace

VnMachine::VnMachine(VnMachineConfig cfg) : cfg_(cfg)
{
    SIM_ASSERT_MSG(cfg_.numCores >= 1, "machine needs at least 1 core");
    faults_ = sim::fault::makeInjector(cfg_.faults, cfg_.seed);
    if (cfg_.reliableNet) {
        auto rel = std::make_unique<net::ReliableNet<NetMsg>>(
            makeVnNetwork<net::Envelope<NetMsg>>(cfg_), cfg_.retry);
        rel_ = rel.get();
        net_ = std::move(rel);
    } else {
        net_ = makeVnNetwork<NetMsg>(cfg_);
    }
    if (faults_)
        net_->setFaultInjector(faults_.get());
    for (std::uint32_t c = 0; c < cfg_.numCores; ++c) {
        cores_.push_back(std::make_unique<VnCore>(c, cfg_.core));
        modules_.push_back(std::make_unique<mem::MemoryModule>(
            cfg_.wordsPerModule, cfg_.memLatency, cfg_.banksPerModule));
        if (faults_) {
            modules_[c]->setFaultInjector(faults_.get(), c);
            modules_[c]->enableDedup();
        }
    }

    if (cfg_.tracer && cfg_.tracer->active()) {
        sim::Tracer &t = *cfg_.tracer;
        for (std::uint32_t c = 0; c < cfg_.numCores; ++c) {
            t.processName(c, sim::format("core{}", c));
            t.threadName(c, 0, "cpu");
            t.threadName(c, 1, "mem");
            cores_[c]->setTracer(&t);
            modules_[c]->setTracer(&t, c, 1);
        }
        t.processName(cfg_.numCores, "network");
        for (std::uint32_t c = 0; c < cfg_.numCores; ++c)
            t.threadName(cfg_.numCores, c, sim::format("port{}", c));
        net_->setTracer(&t, cfg_.numCores);
    }

    metrics_ = cfg_.metrics;
    if (metrics_)
        initMetrics();
}

VnMachine::VnMachine(VnMachine &&) noexcept = default;
VnMachine &VnMachine::operator=(VnMachine &&) noexcept = default;
VnMachine::~VnMachine() = default;

void
VnMachine::initMetrics()
{
    sim::MetricsRecorder &m = *metrics_;
    mIds_.coreBusy.reserve(cfg_.numCores);
    mIds_.coreInstrs.reserve(cfg_.numCores);
    for (std::uint32_t c = 0; c < cfg_.numCores; ++c) {
        mIds_.coreBusy.push_back(
            m.rate(sim::format("core{}.busyCycles", c)));
        mIds_.coreInstrs.push_back(
            m.rate(sim::format("core{}.instructions", c)));
    }
    mIds_.netQueued = m.gauge("net.queued");
    mIds_.netInFlight = m.gauge("net.inFlight");
    if (rel_)
        mIds_.relPending = m.gauge("rel.pending");
}

void
VnMachine::sampleMetrics()
{
    sim::MetricsRecorder &m = *metrics_;
    for (std::uint32_t c = 0; c < cfg_.numCores; ++c) {
        const VnCore::Stats &st = cores_[c]->stats();
        m.set(mIds_.coreBusy[c],
              static_cast<double>(st.busyCycles.value()));
        m.set(mIds_.coreInstrs[c],
              static_cast<double>(st.instructions.value()));
    }
    const net::NetOccupancy occ = net_->occupancy();
    m.set(mIds_.netQueued, static_cast<double>(occ.queued));
    m.set(mIds_.netInFlight, static_cast<double>(occ.inFlight));
    if (rel_)
        m.set(mIds_.relPending,
              static_cast<double>(rel_->pendingCount()));
    m.record(now_);
}

VnCore &
VnMachine::core(std::uint32_t i)
{
    SIM_ASSERT(i < cores_.size());
    return *cores_[i];
}

const VnCore &
VnMachine::core(std::uint32_t i) const
{
    SIM_ASSERT(i < cores_.size());
    return *cores_[i];
}

std::uint32_t
VnMachine::moduleOf(std::uint64_t addr) const
{
    const std::uint32_t m = cfg_.blockedAddressing
        ? static_cast<std::uint32_t>(addr / cfg_.wordsPerModule)
        : static_cast<std::uint32_t>(addr % cfg_.numCores);
    SIM_ASSERT_MSG(m < cfg_.numCores,
                   "address {} beyond the machine's memory", addr);
    return m;
}

std::uint64_t
VnMachine::offsetOf(std::uint64_t addr) const
{
    return cfg_.blockedAddressing ? addr % cfg_.wordsPerModule
                                  : addr / cfg_.numCores;
}

mem::Word
VnMachine::peek(std::uint64_t addr) const
{
    return modules_[moduleOf(addr)]->peek(offsetOf(addr));
}

void
VnMachine::poke(std::uint64_t addr, mem::Word value)
{
    modules_[moduleOf(addr)]->poke(offsetOf(addr), value);
}

void
VnMachine::issue(std::uint32_t core_id, MemAccess acc)
{
    const std::uint32_t module = moduleOf(acc.addr);
    if (cfg_.colocated && module == core_id) {
        // The local fast path never touches the fabric, so it needs no
        // duplicate-detection sequencing (seq stays 0).
        mem::MemRequest req;
        req.kind = toMemKind(acc.kind);
        req.addr = offsetOf(acc.addr);
        req.data = acc.data;
        req.cookie = packCookie(acc);
        modules_[module]->request(req);
    } else {
        if (faults_) {
            acc.seq = ++memSeq_;
            if (acc.kind != MemAccess::Kind::Store)
                awaiting_[awaitKey(acc.core, acc.ctx)] = acc.seq;
        }
        net_->send(core_id, module, NetMsg{false, acc});
    }
}

void
VnMachine::respond(std::uint32_t module, const mem::MemResponse &rsp)
{
    if (rsp.kind == mem::MemRequest::Kind::Write)
        return; // stores are fire-and-forget
    MemAccess acc = unpackCookie(rsp.cookie, rsp.addr, rsp.data);
    acc.seq = rsp.seq;
    if (cfg_.colocated && acc.core == module) {
        cores_[acc.core]->complete(acc);
    } else {
        net_->send(module, acc.core, NetMsg{true, acc});
    }
}

void
VnMachine::deliverResponse(const MemAccess &acc)
{
    if (acc.seq != 0) {
        // Sequenced (fault-era) response: the context accepts exactly
        // the response it is waiting for. A duplicated request or a
        // duplicated response NetMsg both surface here as a second
        // copy after the first already unblocked the context.
        const auto it = awaiting_.find(awaitKey(acc.core, acc.ctx));
        if (it == awaiting_.end() || it->second != acc.seq ||
            !cores_[acc.core]->waitingOnMem(acc.ctx))
        {
            staleResponses_.inc();
            return;
        }
        awaiting_.erase(it);
    }
    cores_[acc.core]->complete(acc);
}

void
VnMachine::step()
{
    for (std::uint32_t c = 0; c < cfg_.numCores; ++c) {
        if (auto acc = cores_[c]->step(now_))
            issue(c, *acc);
    }

    net_->step(now_);
    for (std::uint32_t p = 0; p < cfg_.numCores; ++p) {
        if (auto msg = net_->receive(p)) {
            if (msg->isResponse) {
                deliverResponse(msg->access);
            } else {
                mem::MemRequest req;
                req.kind = toMemKind(msg->access.kind);
                req.addr = offsetOf(msg->access.addr);
                req.data = msg->access.data;
                req.cookie = packCookie(msg->access);
                req.seq = msg->access.seq;
                modules_[p]->request(req);
            }
        }
    }

    for (std::uint32_t m = 0; m < cfg_.numCores; ++m) {
        modules_[m]->step(now_);
        while (auto rsp = modules_[m]->pollResponse())
            respond(m, *rsp);
    }
    ++now_;
}

bool
VnMachine::allHalted() const
{
    for (const auto &core : cores_)
        if (!core->halted())
            return false;
    return true;
}

void
VnMachine::skipAhead()
{
    // Skippable only when no core can retire work this cycle: each is
    // either halted or has every context parked on a memory response.
    for (const auto &core : cores_)
        if (!core->halted() && !core->stalledOnMemory())
            return;

    sim::Cycle next = net_->nextDelivery();
    for (const auto &m : modules_)
        next = std::min(next, m->nextEvent());
    // neverCycle with stalled cores is a deadlock; fall back to
    // per-cycle stepping so the maxCycles diagnostics fire unchanged.
    if (next == sim::neverCycle || next <= now_)
        return;

    const sim::Cycle delta = next - now_;
    for (const auto &core : cores_)
        if (!core->halted())
            core->addStallCycles(delta);
    // Resynchronize internal clocks (no-op steps by construction: the
    // next*() contracts guarantee nothing retires before `next`).
    net_->step(next - 1);
    for (const auto &m : modules_)
        m->step(next - 1);
    now_ = next;
    SIM_ASSERT_MSG(now_ < cfg_.maxCycles,
                   "vn machine exceeded {} cycles; livelock?",
                   cfg_.maxCycles);
}

sim::Cycle
VnMachine::run()
{
    auto drained = [&] {
        if (!net_->idle())
            return false;
        for (const auto &m : modules_)
            if (!m->idle())
                return false;
        return true;
    };
    auto stranded = [&] {
        // Quiescent-but-unfinished: nothing in flight anywhere (for a
        // ReliableNet that includes unacknowledged sends, so this only
        // becomes true after retransmission gives up) and every
        // non-halted core has all contexts parked on a memory response
        // that can no longer arrive.
        if (!drained())
            return false;
        for (const auto &core : cores_)
            if (!core->halted() && !core->stalledOnMemory())
                return false;
        return true;
    };
    while (!(allHalted() && drained())) {
        if (faults_ && stranded()) {
            deadlocked_ = true;
            break;
        }
        skipAhead();
        step();
        // Serial sample point: after the cycle's issue/network/memory
        // phases all committed, so the row is thread-count invariant.
        if (metrics_ && metrics_->due(now_))
            sampleMetrics();
        SIM_ASSERT_MSG(now_ < cfg_.maxCycles,
                       "vn machine exceeded {} cycles; livelock?",
                       cfg_.maxCycles);
    }
    if (metrics_)
        metrics_->finalize(now_);
    return now_;
}

std::string
VnMachine::deadlockReport() const
{
    constexpr std::size_t kMaxPerSection = 16;

    std::uint64_t blocked = 0;
    for (std::uint32_t c = 0; c < cfg_.numCores; ++c)
        for (std::uint32_t x = 0; x < cfg_.core.numContexts; ++x)
            if (!cores_[c]->halted() && cores_[c]->waitingOnMem(x))
                ++blocked;

    std::ostringstream os;
    os << "vn deadlock report: " << blocked
       << " context(s) blocked on memory at cycle " << now_ << "\n";

    if (faults_) {
        const auto &fs = faults_->stats();
        const std::uint64_t abandoned =
            rel_ ? rel_->relStats().abandoned.value() : 0;
        if (fs.destroyed() > 0 || abandoned > 0) {
            os << "  classification: stranded by loss — "
               << fs.destroyed()
               << " packet(s) destroyed by fault injection";
            if (rel_) {
                os << ", " << abandoned
                   << " send(s) abandoned after "
                   << cfg_.retry.maxAttempts << " attempts";
            }
            os << "\n";
        } else {
            os << "  classification: true deadlock — no packets were "
                  "lost\n";
        }
    }

    std::size_t shown = 0;
    for (std::uint32_t c = 0; c < cfg_.numCores && shown <= kMaxPerSection;
         ++c)
    {
        if (cores_[c]->halted())
            continue;
        for (std::uint32_t x = 0; x < cfg_.core.numContexts; ++x) {
            if (!cores_[c]->waitingOnMem(x))
                continue;
            if (++shown > kMaxPerSection) {
                os << "  ... " << blocked - kMaxPerSection << " more\n";
                break;
            }
            os << "  core " << c << " ctx " << x
               << " blocked on memory";
            const auto it = awaiting_.find(awaitKey(c, x));
            if (it != awaiting_.end())
                os << " (awaiting request seq " << it->second << ")";
            os << "\n";
        }
    }
    const auto &ns = rel_ ? rel_->innerStats() : net_->stats();
    os << "  fabric traffic: " << ns.sent.value() << " sent, "
       << ns.delivered.value() << " delivered";
    if (faults_)
        os << ", " << faults_->stats().destroyed() << " destroyed, "
           << faults_->stats().duplicates << " duplicated";
    if (rel_)
        os << "; " << rel_->relStats().retransmits.value()
           << " retransmit(s), " << rel_->pendingCount()
           << " send(s) still pending";
    os << "\n";
    return os.str();
}

const net::RelStats *
VnMachine::relStats() const
{
    return rel_ ? &rel_->relStats() : nullptr;
}

double
VnMachine::meanUtilization() const
{
    double sum = 0.0;
    for (const auto &core : cores_)
        sum += core->utilization();
    return cores_.empty() ? 0.0 : sum / cores_.size();
}

std::vector<sim::StatGroup>
VnMachine::statGroups() const
{
    std::vector<sim::StatGroup> groups;
    // Replay header: everything needed to reproduce this run.
    sim::StatGroup meta("meta");
    meta.set("seed", static_cast<double>(cfg_.seed));
    if (faults_)
        meta.set("faultSeed",
                 static_cast<double>(faults_->plan().seed));
    meta.set("reliable", rel_ ? 1.0 : 0.0);
    groups.push_back(std::move(meta));

    sim::StatGroup machine("vnmachine");
    machine.set("cycles", static_cast<double>(now_));
    machine.set("meanUtilization", meanUtilization());
    machine.set("netPacketsSent",
                static_cast<double>(net_->stats().sent.value()));
    machine.set("netMeanLatency", net_->stats().latency.mean());
    machine.set("deadlocked", deadlocked_ ? 1.0 : 0.0);
    groups.push_back(std::move(machine));

    if (faults_ || rel_) {
        sim::StatGroup f("faults");
        if (faults_) {
            const auto &fs = faults_->stats();
            f.set("decisions", static_cast<double>(fs.decisions));
            f.set("drops", static_cast<double>(fs.drops));
            f.set("duplicates", static_cast<double>(fs.duplicates));
            f.set("corrupts", static_cast<double>(fs.corrupts));
            f.set("delays", static_cast<double>(fs.delays));
            f.set("linkDownDrops",
                  static_cast<double>(fs.linkDownDrops));
            f.set("destroyed", static_cast<double>(fs.destroyed()));
            std::uint64_t dups = 0;
            for (const auto &m : modules_)
                dups += m->stats().dupsSuppressed.value();
            f.set("dupsSuppressed", static_cast<double>(dups));
            f.set("staleResponses",
                  static_cast<double>(staleResponses_.value()));
        }
        if (rel_) {
            const auto &rs = rel_->relStats();
            f.set("retransmits",
                  static_cast<double>(rs.retransmits.value()));
            f.set("abandoned",
                  static_cast<double>(rs.abandoned.value()));
            f.set("rxDuplicates",
                  static_cast<double>(rs.rxDuplicates.value()));
            f.set("acksSent",
                  static_cast<double>(rs.acksSent.value()));
            f.set("staleAcks",
                  static_cast<double>(rs.staleAcks.value()));
            f.set("envelopesSent",
                  static_cast<double>(rel_->innerStats().sent.value()));
        }
        groups.push_back(std::move(f));
    }
    for (std::uint32_t c = 0; c < cfg_.numCores; ++c) {
        const auto &st = cores_[c]->stats();
        sim::StatGroup core(sim::format("core{}", c));
        core.set("instructions",
                 static_cast<double>(st.instructions.value()));
        core.set("busyCycles",
                 static_cast<double>(st.busyCycles.value()));
        core.set("stallCycles",
                 static_cast<double>(st.stallCycles.value()));
        core.set("switchCycles",
                 static_cast<double>(st.switchCycles.value()));
        core.set("loads", static_cast<double>(st.loads.value()));
        core.set("stores", static_cast<double>(st.stores.value()));
        core.set("utilization", cores_[c]->utilization());
        core.set("memLatencyMean", st.memLatency.summary().mean());
        groups.push_back(std::move(core));
    }
    return groups;
}

void
VnMachine::dumpStats(std::ostream &os) const
{
    for (const auto &group : statGroups())
        group.dump(os);
}

void
VnMachine::dumpStatsJson(std::ostream &os) const
{
    os << '{';
    for (const auto &group : statGroups()) {
        os << '"' << group.name() << "\":";
        group.dumpJson(os);
        os << ',';
    }
    os << "\"histograms\":{\"memLatency\":[";
    for (std::uint32_t c = 0; c < cfg_.numCores; ++c) {
        if (c)
            os << ',';
        cores_[c]->stats().memLatency.dumpJson(os);
    }
    os << "]}}\n";
}

const net::NetStats &
VnMachine::netStats() const
{
    return net_->stats();
}

const mem::MemoryModule::Stats &
VnMachine::memStats(std::uint32_t module) const
{
    SIM_ASSERT(module < modules_.size());
    return modules_[module]->stats();
}

} // namespace vn
