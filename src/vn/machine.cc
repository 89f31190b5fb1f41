#include "vn/machine.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

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

} // namespace

VnMachine::VnMachine(VnMachineConfig cfg)
    : cfg_(cfg), fabric_(cfg_, cfg_.numCores)
{
    SIM_ASSERT_MSG(cfg_.topology != net::Topology::Hypercube,
                   "the vn machine has no hypercube fabric");
    for (std::uint32_t c = 0; c < cfg_.numCores; ++c) {
        cores_.push_back(std::make_unique<VnCore>(c, cfg_.core));
        modules_.push_back(std::make_unique<mem::MemoryModule>(
            cfg_.wordsPerModule, cfg_.memLatency, cfg_.banksPerModule));
        if (fabric_.faults()) {
            modules_[c]->setFaultInjector(fabric_.faults(), c);
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
        fabric_.trace(t);
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
    if (fabric_.rel())
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
    const net::NetOccupancy occ = fabric_.net().occupancy();
    m.set(mIds_.netQueued, static_cast<double>(occ.queued));
    m.set(mIds_.netInFlight, static_cast<double>(occ.inFlight));
    if (const auto *rel = fabric_.rel())
        m.set(mIds_.relPending, static_cast<double>(rel->pendingCount()));
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
        if (fabric_.faults()) {
            acc.seq = ++memSeq_;
            if (acc.kind != MemAccess::Kind::Store)
                awaiting_[awaitKey(acc.core, acc.ctx)] = acc.seq;
        }
        fabric_.net().send(core_id, module, NetMsg{false, acc});
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
        fabric_.net().send(module, acc.core, NetMsg{true, acc});
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

    fabric_.net().step(now_);
    for (std::uint32_t p = 0; p < cfg_.numCores; ++p) {
        if (auto msg = fabric_.net().receive(p)) {
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

    sim::Cycle next = fabric_.net().nextDelivery();
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
    fabric_.net().step(next - 1);
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
        if (!fabric_.net().idle())
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
        if (fabric_.faults() && stranded()) {
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

    fabric_.classifyLoss(os);

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
    const auto *rel = fabric_.rel();
    const auto *faults = fabric_.faults();
    const auto &ns = rel ? rel->innerStats() : fabric_.net().stats();
    os << "  fabric traffic: " << ns.sent.value() << " sent, "
       << ns.delivered.value() << " delivered";
    if (faults)
        os << ", " << faults->stats().destroyed() << " destroyed, "
           << faults->stats().duplicates << " duplicated";
    if (rel)
        os << "; " << rel->relStats().retransmits.value()
           << " retransmit(s), " << rel->pendingCount()
           << " send(s) still pending";
    os << "\n";
    return os.str();
}

const net::RelStats *
VnMachine::relStats() const
{
    return fabric_.rel() ? &fabric_.rel()->relStats() : nullptr;
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
    groups.push_back(fabric_.metaStats());

    sim::StatGroup machine("vnmachine");
    machine.set("cycles", static_cast<double>(now_));
    machine.set("meanUtilization", meanUtilization());
    machine.set("netPacketsSent",
                static_cast<double>(netStats().sent.value()));
    machine.set("netMeanLatency", netStats().latency.mean());
    machine.set("deadlocked", deadlocked_ ? 1.0 : 0.0);
    groups.push_back(std::move(machine));

    fabric_.faultStats(groups, [&](sim::StatGroup &f) {
        std::uint64_t dups = 0;
        for (const auto &m : modules_)
            dups += m->stats().dupsSuppressed.value();
        f.set("dupsSuppressed", static_cast<double>(dups));
        f.set("staleResponses",
              static_cast<double>(staleResponses_.value()));
    });
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
    return fabric_.net().stats();
}

const mem::MemoryModule::Stats &
VnMachine::memStats(std::uint32_t module) const
{
    SIM_ASSERT(module < modules_.size());
    return modules_[module]->stats();
}

} // namespace vn
