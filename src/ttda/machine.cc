#include "ttda/machine.hh"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <tuple>

#include "common/format.hh"
#include "common/logging.hh"

namespace ttda
{

namespace
{

/** Token::born keeps only the low 32 bits of the cycle; deltas
 *  computed in 32-bit arithmetic stay exact for any latency < 2^32
 *  cycles even across a wrap. */
std::uint32_t
stamp(sim::Cycle c)
{
    return static_cast<std::uint32_t>(c);
}

std::uint32_t
sinceStamp(sim::Cycle now, std::uint32_t born)
{
    return static_cast<std::uint32_t>(now) - born;
}

} // namespace

Machine::Machine(const graph::Program &program, MachineConfig config)
    : program_(program), cfg_(config), exec_(program_, contexts_),
      fabric_(cfg_, cfg_.numPEs, cfg_.hopLatency)
{
    SIM_ASSERT_MSG(cfg_.threads <= 1,
                   "MachineConfig::threads is retired: the machine runs "
                   "on one host thread (got {})",
                   cfg_.threads);
    program_.validate();
    pes_.reserve(cfg_.numPEs);
    for (std::uint32_t p = 0; p < cfg_.numPEs; ++p)
        pes_.push_back(std::make_unique<Pe>(cfg_.isWordsPerPe));

    // Resolve the per-opcode ALU latency map into a flat table once;
    // the fire path then never touches the std::map.
    SIM_ASSERT_MSG(cfg_.aluCycles >= 1, "aluCycles must be >= 1");
    aluLatency_.fill(cfg_.aluCycles);
    for (const auto &[op, latency] : cfg_.opLatency) {
        SIM_ASSERT_MSG(latency >= 1, "opLatency[{}] must be >= 1",
                       graph::opcodeName(op));
        aluLatency_[static_cast<std::size_t>(op)] = latency;
    }

    observing_ = cfg_.latencyStats || cfg_.trace != nullptr;
    if (cfg_.tracer && cfg_.tracer->active()) {
        observing_ = true;
        trc_ = cfg_.tracer;
        for (std::uint32_t p = 0; p < cfg_.numPEs; ++p) {
            trc_->processName(p, sim::format("pe{}", p));
            trc_->threadName(p, kTidWm, "wait-match");
            trc_->threadName(p, kTidFetch, "fetch");
            trc_->threadName(p, kTidAlu, "alu");
            trc_->threadName(p, kTidOutput, "output");
            trc_->threadName(p, kTidIstr, "istructure");
        }
        fabric_.trace(*trc_);
    }
    metrics_ = cfg_.metrics;
    if (metrics_) {
        observing_ = true;
        initMetrics();
    }
    if (cfg_.profile) {
        observing_ = true;
        instrOffsets_ = program_.instrIndexOffsets();
        profile_.resize(program_.totalInstructions());
    }
}

Machine::~Machine() = default;

void
Machine::initMetrics()
{
    sim::MetricsRecorder &m = *metrics_;
    mIds_.peFired.reserve(cfg_.numPEs);
    mIds_.peAluBusy.reserve(cfg_.numPEs);
    for (std::uint32_t p = 0; p < cfg_.numPEs; ++p) {
        mIds_.peFired.push_back(m.rate(sim::format("pe{}.fired", p)));
        mIds_.peAluBusy.push_back(
            m.rate(sim::format("pe{}.aluBusyCycles", p)));
    }
    mIds_.wmEntries = m.gauge("wm.entries");
    mIds_.activeItems = m.gauge("pipeline.activeItems");
    mIds_.netQueued = m.gauge("net.queued");
    mIds_.netInFlight = m.gauge("net.inFlight");
    mIds_.isDeferred = m.gauge("is.deferredBacklog");
    if (fabric_.faults())
        mIds_.faultsDestroyed = m.rate("faults.destroyed");
    if (fabric_.rel()) {
        mIds_.relRetransmits = m.rate("rel.retransmits");
        mIds_.relPending = m.gauge("rel.pending");
    }
    // Serving gauges are registered unconditionally (serve() may be
    // called on any machine): every series then has one value per
    // recorded row, and ragged rows can never reach the CSV writer.
    mIds_.srvInFlight = m.gauge("srv.inFlight");
    mIds_.srvAdmitQueue = m.gauge("srv.admitQueue");
    mIds_.srvWatermarkHits = m.gauge("srv.watermarkHits");
}

void
Machine::sampleMetrics()
{
    sim::MetricsRecorder &m = *metrics_;
    for (std::uint32_t p = 0; p < cfg_.numPEs; ++p) {
        const PeStats &st = pes_[p]->stats;
        m.set(mIds_.peFired[p],
              static_cast<double>(st.fired.value()));
        m.set(mIds_.peAluBusy[p],
              static_cast<double>(st.aluBusyCycles.value()));
    }
    m.set(mIds_.wmEntries, static_cast<double>(wmEntries_));
    m.set(mIds_.activeItems, static_cast<double>(activeItems_));
    const net::NetOccupancy occ = fabric_.net().occupancy();
    m.set(mIds_.netQueued, static_cast<double>(occ.queued));
    m.set(mIds_.netInFlight, static_cast<double>(occ.inFlight));
    // Deferred-read backlog from the cumulative controller counters:
    // O(numPEs), unlike walking the structure store's chunks.
    const mem::IStructureStats is = istructureTotals();
    m.set(mIds_.isDeferred,
          static_cast<double>(is.fetchesDeferred.value() -
                              is.deferredServed.value()));
    if (const auto *faults = fabric_.faults())
        m.set(mIds_.faultsDestroyed,
              static_cast<double>(faults->stats().destroyed()));
    if (const auto *rel = fabric_.rel()) {
        m.set(mIds_.relRetransmits,
              static_cast<double>(rel->relStats().retransmits.value()));
        m.set(mIds_.relPending, static_cast<double>(rel->pendingCount()));
    }
    m.set(mIds_.srvInFlight,
          static_cast<double>(nextAdmit_ - reqCompleted_));
    std::uint64_t due = 0;
    for (std::size_t r = nextAdmit_; r < requests_.size(); ++r) {
        if (requests_[r].arrival > now_)
            break;
        ++due;
    }
    m.set(mIds_.srvAdmitQueue, static_cast<double>(due));
    m.set(mIds_.srvWatermarkHits,
          static_cast<double>(watermarkHits_));
    m.record(now_);
}

sim::NodeId
Machine::mapTag(const graph::Tag &tag) const
{
    switch (cfg_.mapping) {
      case MachineConfig::Mapping::HashTag:
        return static_cast<sim::NodeId>(graph::TagHash{}(tag) %
                                        cfg_.numPEs);
      case MachineConfig::Mapping::ByContext: {
        std::uint64_t z = tag.ctx + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        return static_cast<sim::NodeId>(z % cfg_.numPEs);
      }
      case MachineConfig::Mapping::ByIteration:
        return static_cast<sim::NodeId>(
            (static_cast<std::uint64_t>(tag.ctx) * 31 + tag.iter) %
            cfg_.numPEs);
      case MachineConfig::Mapping::SinglePe:
        return 0;
    }
    sim::panic("unknown mapping policy");
}

sim::NodeId
Machine::mapToken(const graph::Token &t) const
{
    switch (t.kind) {
      case graph::TokenKind::Normal:
        return mapTag(t.tag);
      case graph::TokenKind::IsFetch:
      case graph::TokenKind::IsStore:
        return static_cast<sim::NodeId>(t.addr % cfg_.numPEs);
      case graph::TokenKind::IsAlloc:
      case graph::TokenKind::IsAppend:
        // Serviced by any controller; keep it where the request's
        // reply will be needed to save a network trip.
        return mapTag(t.reply.tag);
      case graph::TokenKind::Output:
        return 0; // the host's PE controller
    }
    sim::panic("unknown token kind");
}

std::uint64_t
Machine::allocateGlobal(std::uint64_t n)
{
    const std::uint64_t capacity =
        static_cast<std::uint64_t>(cfg_.isWordsPerPe) * cfg_.numPEs;
    SIM_ASSERT_MSG(allocPtr_ + n <= capacity,
                   "i-structure storage exhausted: {} + {} > {}",
                   allocPtr_, n, capacity);
    const std::uint64_t base = allocPtr_;
    allocPtr_ += n;
    return base;
}

void
Machine::route(sim::NodeId src, graph::Token t)
{
    const sim::NodeId dst = mapToken(t);
    t.pe = dst;
    if (cfg_.localBypass && dst == src) {
        pes_[src]->stats.bypassTokens.inc();
        pushInQ(*pes_[src], std::move(t));
    } else {
        fabric_.net().send(src, dst, std::move(t));
    }
}

void
Machine::input(std::uint16_t cb, std::uint16_t param, graph::Value v)
{
    const graph::CodeBlock &block = program_.codeBlock(cb);
    SIM_ASSERT_MSG(param < block.numParams,
                   "input param {} beyond the {} params of '{}'", param,
                   block.numParams, block.name);
    graph::Token t;
    t.kind = graph::TokenKind::Normal;
    t.tag = graph::Tag{graph::rootContext, cb, param, 1};
    t.port = 0;
    t.nt = block.at(param).nt;
    t.data = std::move(v);
    if (observing_)
        t.seq = tokenSeq_++;
    const sim::NodeId dst = mapToken(t);
    t.pe = dst;
    pushInQ(*pes_[dst], std::move(t));
}

std::uint32_t
Machine::submit(std::uint16_t cb, std::vector<graph::Value> args,
                sim::Cycle arrival)
{
    const graph::CodeBlock &block = program_.codeBlock(cb);
    SIM_ASSERT_MSG(args.size() == block.numParams,
                   "request for '{}' carries {} args; the block takes "
                   "{}", block.name, args.size(), block.numParams);
    SIM_ASSERT_MSG(requests_.empty() ||
                       arrival >= requests_.back().arrival,
                   "requests must be submitted in arrival order");
    const auto rid = static_cast<std::uint32_t>(requests_.size());
    requests_.push_back(
        ServeRequest{cb, std::move(args), arrival, false});
    return rid;
}

void
Machine::injectRequest(std::uint32_t rid)
{
    // Mirrors input(), except the initiation number carries the
    // request id: all of request r's root-context activity runs with
    // iter == r + 1, which is what completion detection and deadlock
    // attribution key on.
    ServeRequest &r = requests_[rid];
    const graph::CodeBlock &block = program_.codeBlock(r.cb);
    for (std::uint16_t param = 0; param < r.args.size(); ++param) {
        graph::Token t;
        t.kind = graph::TokenKind::Normal;
        t.tag = graph::Tag{graph::rootContext, r.cb, param, rid + 1};
        t.port = 0;
        t.nt = block.at(param).nt;
        t.data = std::move(r.args[param]);
        if (observing_)
            t.seq = tokenSeq_++;
        const sim::NodeId dst = mapToken(t);
        t.pe = dst;
        pushInQ(*pes_[dst], std::move(t));
    }
    r.args.clear();
}

void
Machine::updateAdmissionGate()
{
    if (cfg_.wmHighWatermark == 0)
        return; // admission control off: the gate never closes
    if (!admitBlocked_) {
        if (wmEntries_ >= cfg_.wmHighWatermark) {
            admitBlocked_ = true;
            ++watermarkHits_;
        }
    } else {
        const std::uint64_t low =
            cfg_.wmLowWatermark != 0 ? cfg_.wmLowWatermark
                                     : cfg_.wmHighWatermark / 2;
        if (wmEntries_ <= low)
            admitBlocked_ = false;
    }
}

void
Machine::serveAdmit()
{
    updateAdmissionGate();
    while (nextAdmit_ < requests_.size() &&
           requests_[nextAdmit_].arrival <= now_)
    {
        if (admitBlocked_) {
            // A quiescent machine can never drain the waiting-matching
            // store any further, so a shut gate would hold its due
            // requests forever: force exactly one through (the next
            // iteration sees a non-quiescent machine and stops).
            if (!idle())
                break;
        }
        injectRequest(static_cast<std::uint32_t>(nextAdmit_++));
        updateAdmissionGate();
    }
}

bool
Machine::serveAdvance()
{
    if (nextAdmit_ >= requests_.size())
        return false;
    const sim::Cycle arrival = requests_[nextAdmit_].arrival;
    if (arrival > now_) {
        // Quiescent between arrivals: jump straight to the next one,
        // with the same batch accounting and fabric-clock resync as
        // skipAhead (nothing can retire before `arrival` — the
        // machine is idle — so one step() covers the gap).
        wmResidency_.sample(static_cast<double>(wmEntries_),
                            arrival - now_);
        fabric_.net().step(arrival - 1);
        now_ = arrival;
        SIM_ASSERT_MSG(now_ < cfg_.maxCycles,
                       "machine exceeded {} cycles; livelock?",
                       cfg_.maxCycles);
    }
    serveAdmit();
    return true;
}

void
Machine::noteRequestOutput(const graph::Tag &tag)
{
    // Serving outputs normally fire in the root context carrying the
    // request's initiation number directly; an OUTPUT inside a callee
    // context is attributed through the caller chain (0 = a released
    // context somewhere along it: unattributable, and ignored).
    const std::uint32_t iter = tag.ctx == graph::rootContext
                                   ? tag.iter
                                   : contexts_.rootIter(tag.ctx);
    if (iter == 0 || iter > requests_.size())
        return;
    ServeRequest &r = requests_[iter - 1];
    if (r.done)
        return;
    r.done = true;
    ++reqCompleted_;
    reqLatency_.sample(static_cast<double>(now_ - r.arrival));
}

std::vector<OutputRecord>
Machine::serve()
{
    SIM_ASSERT_MSG(!serving_, "serve() is not reentrant");
    serveUntil(sim::neverCycle);
    return outputs_;
}

bool
Machine::serveUntil(sim::Cycle stopAt)
{
    // No reentrancy assert: a machine restored from a mid-serve
    // snapshot resumes with serving_ already set.
    serving_ = true;
    const bool paused = runUntil(stopAt);
    if (!paused)
        serving_ = false;
    return paused;
}

graph::IPtr
Machine::preload(const std::vector<graph::Value> &values)
{
    const std::uint64_t base = allocateGlobal(values.size());
    std::vector<std::pair<graph::IsCont, graph::Value>> no_wake;
    for (std::size_t k = 0; k < values.size(); ++k) {
        const std::uint64_t addr = base + k;
        pes_[addr % cfg_.numPEs]->isStore.store(addr / cfg_.numPEs,
                                                values[k], no_wake);
    }
    SIM_ASSERT(no_wake.empty());
    return graph::IPtr{base, static_cast<std::uint32_t>(values.size())};
}

template <bool Obs>
void
Machine::stepInput(Pe &pe, sim::NodeId id)
{
    // The waiting-matching section accepts one token per cycle; a
    // multi-cycle match holds the stage busy.
    if (tickBusy(pe.matchBusy, pe.stats.matchBusyCycles))
        return;
    if (pe.inQ.empty())
        return;
    graph::Token tok = std::move(pe.inQ.front());
    pe.inQ.pop_front();
    --activeItems_;
    pe.stats.tokensIn.inc();
    if constexpr (Obs) {
        if (cfg_.trace)
            *cfg_.trace << now_ << " pe" << tok.pe << " in    " << tok
                        << "\n";
    }

    using graph::TokenKind;
    switch (tok.kind) {
      case TokenKind::Normal: {
        if (tok.nt == 1) {
            // Monadic tokens go straight to instruction fetch.
            if constexpr (Obs) {
                SIM_TRACE(trc_, Fire, complete, id, kTidFetch,
                          "fetch", now_, cfg_.fetchCycles,
                          sim::format("\"tag\":\"{}\",\"seq\":{}",
                                      tok.tag, tok.seq));
            }
            std::vector<graph::Value> ops = takeSlots(1);
            ops[0] = std::move(tok.data);
            pe.fetchQ.push_back(ReadyOp{
                graph::EnabledInstruction{tok.tag, std::move(ops)},
                now_ + cfg_.fetchCycles, tok.born});
            ++activeItems_;
            break;
        }
        pe.stats.matchBusyCycles.inc();
        sim::Cycle busy = cfg_.matchCycles - 1;
        auto [wp, inserted] = pe.waitStore.insert(tok.tag);
        if (inserted) {
            ++wmEntries_;
            if (cfg_.matchCapacity != 0 &&
                pe.waitStore.size() > cfg_.matchCapacity)
            {
                // Associative store full: the entry spills to overflow
                // memory; the section stalls for the slow access.
                pe.stats.matchOverflows.inc();
                busy += cfg_.matchOverflowPenalty;
            }
        }
        setBusy(pe.matchBusy, busy);
        Waiting &w = *wp;
        if (w.expected == 0) {
            SIM_ASSERT_MSG(tok.nt <= 64,
                           "instruction with {} input ports exceeds "
                           "the matching bitmask", tok.nt);
            w.expected = tok.nt;
            w.slots = takeSlots(tok.nt);
            w.filled = 0;
        }
        SIM_ASSERT_MSG(tok.port < w.expected,
                       "token port {} out of range (nt {})", tok.port,
                       w.expected);
        if (w.filled >> tok.port & 1u) {
            // An already-filled slot is a graph bug on a reliable
            // fabric; under fault injection it is a duplicated packet
            // and the section discards it idempotently.
            SIM_ASSERT_MSG(fabric_.faults() != nullptr,
                           "duplicate token for activity {} port {}: "
                           "slot already filled (non-deterministic "
                           "graph?)", tok.tag, tok.port);
            pe.stats.dupTokensDropped.inc();
            if constexpr (Obs) {
                SIM_TRACE(trc_, Wm, instant, id, kTidWm, "fdupdrop",
                          now_,
                          sim::format("\"tag\":\"{}\",\"port\":{}",
                                      tok.tag,
                                      static_cast<unsigned>(tok.port)));
            }
            break;
        }
        w.filled |= std::uint64_t{1} << tok.port;
        w.slots[tok.port] = std::move(tok.data);
        w.arrived += 1;
        pe.stats.waitStorePeak = std::max<std::uint64_t>(
            pe.stats.waitStorePeak, pe.waitStore.size());
        if (w.arrived == w.expected) {
            if constexpr (Obs) {
                SIM_TRACE(trc_, Wm, complete, id, kTidWm, "match",
                          now_, busy + 1,
                          sim::format("\"tag\":\"{}\",\"seq\":{}",
                                      tok.tag, tok.seq));
                SIM_TRACE(trc_, Fire, complete, id, kTidFetch,
                          "fetch", now_, cfg_.fetchCycles,
                          sim::format("\"tag\":\"{}\"", tok.tag));
            }
            // Move the operand set out, then release the entry; the
            // backward-shift erase may relocate other entries but
            // never touches the moved-from vector.
            std::vector<graph::Value> ops = std::move(w.slots);
            pe.waitStore.erase(tok.tag);
            --wmEntries_;
            pe.fetchQ.push_back(ReadyOp{
                graph::EnabledInstruction{tok.tag, std::move(ops)},
                now_ + cfg_.fetchCycles, tok.born});
            ++activeItems_;
        } else {
            if constexpr (Obs) {
                SIM_TRACE(
                    trc_, Wm, instant, id, kTidWm, "enq", now_,
                    sim::format("\"tag\":\"{}\",\"port\":{},"
                                "\"arrived\":{},\"expected\":{}",
                                tok.tag,
                                static_cast<unsigned>(tok.port),
                                static_cast<unsigned>(w.arrived),
                                static_cast<unsigned>(w.expected)));
            }
        }
        break;
      }

      case TokenKind::IsFetch:
      case TokenKind::IsStore:
      case TokenKind::IsAlloc:
      case TokenKind::IsAppend:
        pe.isQ.push_back(std::move(tok));
        ++activeItems_;
        break;

      case TokenKind::Output:
        if constexpr (Obs) {
            if (cfg_.trace)
                *cfg_.trace << now_ << " OUTPUT " << tok.data << "\n";
            SIM_TRACE(trc_, Sched, instant, id, kTidWm, "result",
                      now_,
                      sim::format("\"value\":\"{}\",\"seq\":{}",
                                  tok.data, tok.seq));
        }
        if (serving_)
            noteRequestOutput(tok.tag);
        outputs_.push_back(OutputRecord{tok.tag, std::move(tok.data)});
        break;
    }
}

template <bool Obs>
void
Machine::emitNew(Pe &pe, graph::Token &&t)
{
    if constexpr (Obs) {
        t.born = stamp(now_);
        t.seq = tokenSeq_++;
    }
    pe.outQ.push_back(std::move(t));
    ++activeItems_;
}

template <bool Obs>
void
Machine::stepAlu(Pe &pe, sim::NodeId id)
{
    if (tickBusy(pe.aluBusy, pe.stats.aluBusyCycles))
        return;
    if (pe.fetchQ.empty() || pe.fetchQ.front().readyAt > now_)
        return;
    ReadyOp op = std::move(pe.fetchQ.front());
    pe.fetchQ.pop_front();
    --activeItems_;

    // Append the compile-time constant, if any, as the last operand.
    const graph::Instruction &in = program_.instruction(
        op.enabled.tag.codeBlock, op.enabled.tag.stmt);
    if (in.constant)
        op.enabled.operands.push_back(*in.constant);

    const sim::Cycle lat = aluLatency_[static_cast<std::size_t>(in.op)];
    if constexpr (Obs) {
        if (cfg_.trace)
            *cfg_.trace << now_ << " fire  " << op.enabled.tag << " "
                        << graph::opcodeName(in.op) << "\n";
        if (!profile_.empty()) {
            const std::size_t g =
                instrOffsets_[op.enabled.tag.codeBlock] +
                op.enabled.tag.stmt;
            ++profile_.fires[g];
            profile_.cycles[g] += lat;
        }
        birthToFire_.sample(sinceStamp(now_, op.born));
        SIM_TRACE(trc_, Fire, complete, id, kTidAlu,
                  graph::opcodeName(in.op), now_, lat,
                  sim::format("\"tag\":\"{}\",\"wait\":{}",
                              op.enabled.tag,
                              sinceStamp(now_, op.born)));
    }
    pe.stats.fired.inc();
    pe.stats.aluBusyCycles.inc();
    setBusy(pe.aluBusy, lat - 1);

    fireBuf_.clear();
    exec_.execute(op.enabled, fireBuf_);
    recycleSlots(std::move(op.enabled.operands));
    for (auto &t : fireBuf_)
        emitNew<Obs>(pe, std::move(t));
}

template <bool Obs>
void
Machine::serveDeferred(
    Pe &pe, sim::NodeId id, graph::TokenKind cause,
    std::vector<std::pair<graph::IsCont, graph::Value>> &served)
{
    using graph::TokenKind;
    for (auto &[cont, value] : served) {
        graph::Token t;
        if (cont.toCell) {
            // A copy target: forward the datum as a store to the new
            // structure's cell (routed to its controller).
            t.kind = TokenKind::IsStore;
            t.addr = cont.cellAddr;
            t.data = value;
        } else {
            t.kind = TokenKind::Normal;
            t.tag = cont.cont.tag;
            t.port = cont.cont.port;
            t.nt = cont.cont.nt;
            t.data = value;
            // Read-issue-to-response latency; a response emitted by a
            // STORE (or a copy's write) is a read that sat deferred.
            if constexpr (Obs) {
                readLatency_.sample(sinceStamp(now_, cont.born));
                if (cause != TokenKind::IsFetch) {
                    SIM_TRACE(
                        trc_, Istr, instant, id, kTidIstr, "serve",
                        now_,
                        sim::format("\"reader\":\"{}\",\"lat\":{}",
                                    cont.cont.tag,
                                    sinceStamp(now_, cont.born)));
                }
            }
        }
        emitNew<Obs>(pe, std::move(t));
    }
}

template <bool Obs>
void
Machine::applyAllocAppend(Pe &pe, sim::NodeId id, graph::Token tok)
{
    std::vector<std::pair<graph::IsCont, graph::Value>> served;
    using graph::TokenKind;
    if (tok.kind == TokenKind::IsAlloc) {
        const auto n = static_cast<std::uint64_t>(tok.data.asInt());
        const std::uint64_t base = allocateGlobal(n);
        if constexpr (Obs) {
            SIM_TRACE(trc_, Istr, complete, id, kTidIstr, "alloc",
                      now_, cfg_.isReadCycles,
                      sim::format("\"base\":{},\"words\":{}", base,
                                  n));
        }
        graph::Token reply;
        reply.kind = TokenKind::Normal;
        reply.tag = tok.reply.tag;
        reply.port = tok.reply.port;
        reply.nt = tok.reply.nt;
        reply.data = graph::Value{
            graph::IPtr{base, static_cast<std::uint32_t>(n)}};
        emitNew<Obs>(pe, std::move(reply));
    } else {
        // Functional update: allocate and copy. The copy touches
        // cells on every PE; it is modelled as a block operation of
        // this controller charged read+write time per element (the
        // real machine would stream per-cell requests). A source cell
        // not yet written is copied non-strictly: a deferred read is
        // parked on it whose continuation stores into the new cell
        // when the producer's write lands.
        const auto len = static_cast<std::uint32_t>(tok.aux >> 32);
        const std::uint64_t idx = tok.aux & 0xffffffffu;
        const sim::Cycle appendCost =
            len > 0 ? static_cast<sim::Cycle>(len) *
                          (cfg_.isReadCycles + cfg_.isWriteCycles)
                    : cfg_.isReadCycles;
        const std::uint64_t base = allocateGlobal(len);
        if constexpr (Obs) {
            SIM_TRACE(trc_, Istr, complete, id, kTidIstr, "append",
                      now_, appendCost,
                      sim::format("\"src\":{},\"dst\":{},\"len\":{}",
                                  tok.addr, base, len));
        }
        for (std::uint32_t k = 0; k < len; ++k) {
            const std::uint64_t dst = base + k;
            if (k == idx) {
                pes_[dst % cfg_.numPEs]->isStore.store(
                    dst / cfg_.numPEs, tok.data, served);
                continue;
            }
            const std::uint64_t src = tok.addr + k;
            // The parked continuation lives on the *source* cell's
            // controller; its wake-up is emitted from that PE.
            std::vector<std::pair<graph::IsCont, graph::Value>> now;
            pes_[src % cfg_.numPEs]->isStore.fetch(
                src / cfg_.numPEs,
                graph::IsCont{.toCell = true, .cellAddr = dst}, now);
            for (auto &[cont, value] : now) {
                pes_[dst % cfg_.numPEs]->isStore.store(
                    dst / cfg_.numPEs, value, served);
            }
        }
        graph::Token reply;
        reply.kind = TokenKind::Normal;
        reply.tag = tok.reply.tag;
        reply.port = tok.reply.port;
        reply.nt = tok.reply.nt;
        reply.data = graph::Value{graph::IPtr{base, len}};
        emitNew<Obs>(pe, std::move(reply));
    }
    serveDeferred<Obs>(pe, id, tok.kind, served);
}

template <bool Obs>
void
Machine::stepIs(Pe &pe, sim::NodeId id)
{
    if (tickBusy(pe.isBusy, pe.stats.isBusyCycles))
        return;
    if (pe.isQ.empty())
        return;
    graph::Token tok = std::move(pe.isQ.front());
    pe.isQ.pop_front();
    --activeItems_;
    pe.stats.isBusyCycles.inc();

    std::vector<std::pair<graph::IsCont, graph::Value>> served;
    using graph::TokenKind;
    switch (tok.kind) {
      case TokenKind::IsFetch: {
        SIM_ASSERT_MSG(tok.addr % cfg_.numPEs == id,
                       "i-structure fetch for word {} misrouted to PE "
                       "{}", tok.addr, id);
        setBusy(pe.isBusy, cfg_.isReadCycles - 1);
        if constexpr (Obs) {
            SIM_TRACE(trc_, Istr, complete, id, kTidIstr, "read",
                      now_, cfg_.isReadCycles,
                      sim::format("\"addr\":{}", tok.addr));
        }
        // Without lifecycle stamping the token's born field is 0; use
        // the controller arrival cycle so the deadlock report still
        // dates parked reads.
        if (!pe.isStore.fetch(tok.addr / cfg_.numPEs,
                              graph::IsCont{.born = Obs
                                                ? tok.born
                                                : stamp(now_),
                                            .cont = tok.reply},
                              served))
        {
            if constexpr (Obs) {
                SIM_TRACE(trc_, Istr, instant, id, kTidIstr,
                          "defer", now_,
                          sim::format("\"addr\":{},\"reader\":\"{}\"",
                                      tok.addr, tok.reply.tag));
            }
        }
        break;
      }
      case TokenKind::IsStore: {
        SIM_ASSERT_MSG(tok.addr % cfg_.numPEs == id,
                       "i-structure store for word {} misrouted to PE "
                       "{}", tok.addr, id);
        setBusy(pe.isBusy, cfg_.isWriteCycles - 1);
        if constexpr (Obs) {
            SIM_TRACE(trc_, Istr, complete, id, kTidIstr, "write",
                      now_, cfg_.isWriteCycles,
                      sim::format("\"addr\":{}", tok.addr));
        }
        if (!pe.isStore.store(tok.addr / cfg_.numPEs, tok.data,
                              served))
        {
            // Single-assignment violation — unless fault injection is
            // duplicating packets and this is a replayed STORE of the
            // value already present, which is absorbed idempotently.
            if (fabric_.faults() &&
                pe.isStore.peek(tok.addr / cfg_.numPEs) == tok.data)
            {
                pe.stats.dupStoresSuppressed.inc();
                if constexpr (Obs) {
                    SIM_TRACE(trc_, Istr, instant, id, kTidIstr,
                              "fdupstore", now_,
                              sim::format("\"addr\":{}", tok.addr));
                }
            } else {
                sim::warn(
                    "machine: multiple write to i-structure cell {}",
                    tok.addr);
            }
        }
        break;
      }
      case TokenKind::IsAlloc: {
        setBusy(pe.isBusy, cfg_.isReadCycles - 1);
        applyAllocAppend<Obs>(pe, id, std::move(tok));
        return;
      }
      case TokenKind::IsAppend: {
        const auto len = static_cast<std::uint32_t>(tok.aux >> 32);
        const sim::Cycle appendCost =
            len > 0 ? static_cast<sim::Cycle>(len) *
                          (cfg_.isReadCycles + cfg_.isWriteCycles)
                    : cfg_.isReadCycles;
        setBusy(pe.isBusy, appendCost - 1);
        applyAllocAppend<Obs>(pe, id, std::move(tok));
        return;
      }
      default:
        sim::panic("non-structure token in i-structure queue");
    }

    serveDeferred<Obs>(pe, id, tok.kind, served);
}

template <bool Obs>
void
Machine::stepOutput(Pe &pe, sim::NodeId id)
{
    for (std::uint32_t k = 0;
         k < cfg_.outputBandwidth && !pe.outQ.empty(); ++k)
    {
        graph::Token t = std::move(pe.outQ.front());
        pe.outQ.pop_front();
        --activeItems_;
        pe.stats.outputTokens.inc();
        if constexpr (Obs) {
            SIM_TRACE(trc_, Sched, instant, id, kTidOutput, "out",
                      now_, sim::format("\"seq\":{}", t.seq));
        }
        route(id, std::move(t));
    }
}

bool
Machine::idle() const
{
    // Occupancy is maintained incrementally at every queue push/pop
    // and busy-countdown transition, so going idle is O(1) instead of
    // an O(numPEs) sweep.
    return activeItems_ == 0 && busyStages_ == 0 && fabric_.net().idle();
}

sim::Cycle
Machine::nextPeEvent() const
{
    // Earliest cycle at which any pipeline stage can act. A stage
    // draining a busy countdown next acts when the countdown expires;
    // a non-empty queue behind an idle stage acts now; the fetch
    // pipeline also waits for the head's readyAt.
    //
    // Under a PE-stall window, candidates that would *start* work
    // (i.e. the stage has queued input) are pushed past the window's
    // end — but pure busy-countdown expiries are not: a stalled PE's
    // in-flight work keeps draining, and deferring those wakeups
    // would move the machine's quiescence cycle relative to the
    // per-cycle engine.
    const bool stallable = fabric_.faults() && fabric_.faults()->hasPeStalls();
    sim::Cycle next = sim::neverCycle;
    for (std::uint32_t p = 0; p < cfg_.numPEs; ++p) {
        const Pe &pe = *pes_[p];
        sim::Cycle start = sim::neverCycle; //!< needs the PE unstalled
        sim::Cycle drain = sim::neverCycle; //!< busy expiry only
        if (pe.matchBusy > 0 || !pe.inQ.empty()) {
            if (!pe.inQ.empty())
                start = std::min(start, now_ + pe.matchBusy);
            else
                drain = std::min(drain, now_ + pe.matchBusy);
        }
        if (pe.aluBusy > 0 || !pe.fetchQ.empty()) {
            sim::Cycle c = now_ + pe.aluBusy;
            if (!pe.fetchQ.empty()) {
                c = std::max(c, pe.fetchQ.front().readyAt);
                start = std::min(start, c);
            } else {
                drain = std::min(drain, c);
            }
        }
        if (pe.isBusy > 0 || !pe.isQ.empty()) {
            if (!pe.isQ.empty())
                start = std::min(start, now_ + pe.isBusy);
            else
                drain = std::min(drain, now_ + pe.isBusy);
        }
        if (!pe.outQ.empty())
            start = std::min(start, now_);
        if (stallable && start != sim::neverCycle)
            start = fabric_.faults()->peResume(start, p);
        next = std::min(next, std::min(start, drain));
        if (next <= now_)
            break; // something is due this very cycle
    }
    return next;
}

void
Machine::skipAhead()
{
    sim::Cycle next = std::min(nextPeEvent(), fabric_.net().nextDelivery());
    // Serving: never jump past the next admissible arrival (a shut
    // gate cannot reopen without machine progress, which the scan
    // already tracks, so blocked arrivals don't cap the jump).
    if (serving_ && !admitBlocked_ && nextAdmit_ < requests_.size())
        next = std::min(next, requests_[nextAdmit_].arrival);
    if (next <= now_)
        return;
    SIM_ASSERT_MSG(next != sim::neverCycle,
                   "skip-ahead with no pending event (idle() bug)");

    // Jump. Batch-account what the skipped cycles would have done one
    // by one: drain busy countdowns into their busy-cycle counters and
    // take one wm-residency sample per skipped cycle (the residency
    // cannot change while every matching section is stalled or empty).
    const sim::Cycle delta = next - now_;
    for (const auto &pe_ptr : pes_) {
        Pe &pe = *pe_ptr;
        batchBusy(pe.matchBusy, pe.stats.matchBusyCycles, delta);
        batchBusy(pe.aluBusy, pe.stats.aluBusyCycles, delta);
        batchBusy(pe.isBusy, pe.stats.isBusyCycles, delta);
    }
    wmResidency_.sample(static_cast<double>(wmEntries_), delta);
    // Resynchronize the network's internal clock so tokens sent in the
    // first iteration after the jump get the correct issue stamp. By
    // the nextDelivery() contract nothing can retire before `next`, so
    // one step() call reproduces the skipped cycles' no-op steps.
    fabric_.net().step(next - 1);
    now_ = next;
    SIM_ASSERT_MSG(now_ < cfg_.maxCycles,
                   "machine exceeded {} cycles; livelock?",
                   cfg_.maxCycles);
}

template <bool Obs>
void
Machine::runLoop()
{
    const bool peStalls = fabric_.faults() && fabric_.faults()->hasPeStalls();
    for (;;) {
        // Pause point: checked at the top of the tick, before any
        // admission or stage work, so a paused machine holds no
        // mid-tick state. A skip/arrival jump may land past stopAt_;
        // the landing cycle is a pure function of (program, config,
        // stopAt), so the pause is deterministic.
        if (now_ >= stopAt_) {
            paused_ = true;
            break;
        }
        // Serving: admit due requests at the top of the tick.
        if (serving_)
            serveAdmit();
        if (idle()) {
            // Quiescent — done, unless the server still holds queued
            // requests: jump to the next arrival and carry on.
            if (!serving_ || !serveAdvance())
                break;
            if (idle())
                continue;
        }
        // Jump over cycles in which nothing can happen. The jump may
        // drain the last busy countdowns and reach quiescence exactly
        // where the naive per-cycle loop would have stopped.
        skipAhead();
        // A skip clamped to an arrival lands exactly on it: admit
        // before stepping that cycle.
        if (serving_)
            serveAdmit();
        if (idle()) {
            if (!serving_ || !serveAdvance())
                break;
            if (idle())
                continue;
        }
        for (std::uint32_t p = 0; p < cfg_.numPEs; ++p) {
            Pe &pe = *pes_[p];
            if (peStalls && fabric_.faults()->peStalled(now_, p)) {
                tickStalled(pe);
                continue;
            }
            stepInput<Obs>(pe, p);
            stepAlu<Obs>(pe, p);
            stepIs<Obs>(pe, p);
            stepOutput<Obs>(pe, p);
        }
        fabric_.net().step(now_);
        ++now_;
        for (std::uint32_t p = 0; p < cfg_.numPEs; ++p) {
            if (auto tok = fabric_.net().receive(p))
                pushInQ(*pes_[p], std::move(*tok));
        }
        wmResidency_.sample(static_cast<double>(wmEntries_));
        if constexpr (Obs) {
            if (metrics_ && metrics_->due(now_))
                sampleMetrics();
        }
        SIM_ASSERT_MSG(now_ < cfg_.maxCycles,
                       "machine exceeded {} cycles; livelock?",
                       cfg_.maxCycles);
    }
}

bool
Machine::runUntil(sim::Cycle stopAt)
{
    stopAt_ = stopAt;
    paused_ = false;
    // Select the observability instantiation once: the Obs=false
    // bodies contain no stamping, sampling, or trace code at all.
    observing_ ? runLoop<true>() : runLoop<false>();
    stopAt_ = sim::neverCycle;
    if (paused_)
        return true;
    if (metrics_)
        metrics_->finalize(now_);

    // Quiescent. Unmatched partners or parked reads mean deadlock.
    deadlocked_ = outstandingReads() > 0;
    for (const auto &pe : pes_)
        if (!pe->waitStore.empty())
            deadlocked_ = true;
    return false;
}

std::vector<OutputRecord>
Machine::run()
{
    runUntil(sim::neverCycle);
    return outputs_;
}

void
Machine::setFaultPlan(const sim::fault::FaultPlan &plan)
{
    cfg_.faults = plan;
    fabric_.setFaultPlan(plan);
}

std::string
Machine::deadlockReport() const
{
    // Per-section caps keep a pathological run's report readable.
    constexpr std::size_t kMaxPerSection = 16;

    std::size_t stranded = 0;
    for (const auto &pe : pes_)
        stranded += pe->waitStore.size();

    std::ostringstream os;
    os << "deadlock report: " << outstandingReads()
       << " parked reads, " << stranded
       << " stranded activities\n";

    // 0. When fault injection was active, say whether the quiescence
    // can be blamed on destroyed traffic at all.
    fabric_.classifyLoss(os);

    // 0b. Serving runs: attribute stranded activities to the requests
    // that spawned them (root-context tags carry the request's
    // initiation number directly; nested contexts resolve through the
    // caller chain), so a brownout report names the lost requests.
    if (!requests_.empty()) {
        std::map<std::uint32_t, std::size_t> byRequest;
        std::size_t unattributed = 0;
        for (const auto &pe : pes_) {
            pe->waitStore.forEach(
                [&](const graph::Tag &tag, const Waiting &) {
                    const std::uint32_t iter =
                        tag.ctx == graph::rootContext
                            ? tag.iter
                            : contexts_.rootIter(tag.ctx);
                    if (iter == 0 || iter > requests_.size())
                        ++unattributed;
                    else
                        byRequest[iter - 1] += 1;
                });
        }
        os << "  serving: " << nextAdmit_ << "/" << requests_.size()
           << " requests injected, " << reqCompleted_
           << " completed\n";
        if (!byRequest.empty() || unattributed > 0) {
            os << "  stranded activities by request:";
            std::size_t shown = 0;
            for (const auto &[rid, n] : byRequest) {
                if (++shown > kMaxPerSection) {
                    os << " ... "
                       << byRequest.size() - kMaxPerSection
                       << " more request(s)";
                    break;
                }
                os << " r" << rid << ":" << n;
            }
            if (unattributed > 0)
                os << " (+" << unattributed << " unattributed)";
            os << "\n";
        }
    }

    // 1. I-structure cells that were never written, and who waits.
    for (std::uint32_t p = 0; p < cfg_.numPEs; ++p) {
        const auto &store = pes_[p]->isStore;
        for (auto local : store.deferredAddresses(kMaxPerSection)) {
            const auto &readers = store.deferredList(local);
            os << "  i-structure cell " << local * cfg_.numPEs + p
               << " (PE " << p << ", local " << local
               << ") was never written; " << readers.size()
               << " parked reader(s):\n";
            std::size_t shown = 0;
            for (const auto &cont : readers) {
                if (++shown > kMaxPerSection) {
                    os << "    ... " << readers.size() - kMaxPerSection
                       << " more\n";
                    break;
                }
                if (cont.toCell) {
                    os << "    copy into cell " << cont.cellAddr
                       << " (APPEND in progress)\n";
                } else {
                    os << "    reader " << cont.cont.tag << " port "
                       << static_cast<unsigned>(cont.cont.port)
                       << " (read issued cycle " << cont.born << ")\n";
                }
            }
        }
    }

    // 2. Waiting-matching entries still holding partial operand sets,
    // smallest tags first, so the report does not depend on the
    // store's slot layout.
    for (std::uint32_t p = 0; p < cfg_.numPEs; ++p) {
        const auto &ws = pes_[p]->waitStore;
        if (ws.empty())
            continue;
        os << "  PE " << p << ": " << ws.size()
           << " activities still waiting for partner tokens:\n";
        std::vector<std::pair<const graph::Tag *, const Waiting *>> held;
        ws.forEach([&](const graph::Tag &tag, const Waiting &w) {
            held.emplace_back(&tag, &w);
        });
        const auto order = [](const graph::Tag &t) {
            return std::tie(t.ctx, t.codeBlock, t.stmt, t.iter);
        };
        std::sort(held.begin(), held.end(),
                  [&](const auto &a, const auto &b) {
                      return order(*a.first) < order(*b.first);
                  });
        std::size_t shown = 0;
        for (const auto &[tag, w] : held) {
            if (++shown > kMaxPerSection) {
                os << "    ... " << ws.size() - kMaxPerSection
                   << " more\n";
                break;
            }
            os << "    " << *tag << ": "
               << static_cast<unsigned>(w->arrived) << "/"
               << static_cast<unsigned>(w->expected)
               << " ports filled (mask 0x" << std::hex << w->filled
               << std::dec << "), missing port(s)";
            for (std::uint8_t port = 0; port < w->expected; ++port) {
                if (!(w->filled >> port & 1u))
                    os << " " << static_cast<unsigned>(port);
            }
            os << "\n";
        }
    }

    // 3. Packets the network accepted but never delivered (should be
    // zero at quiescence; nonzero means the run stopped mid-flight).
    // Under fault injection the conservation identity is
    //   sent + duplicates = delivered + destroyed + stillInside,
    // and with the reliability wrapper each abandoned send is a
    // payload that left the books without being delivered.
    const auto &ns = fabric_.net().stats();
    const auto *rel = fabric_.rel();
    const auto *faults = fabric_.faults();
    std::uint64_t credits = ns.sent.value();
    std::uint64_t debits = ns.delivered.value();
    if (rel) {
        debits += rel->relStats().abandoned.value();
    } else if (faults) {
        credits += faults->stats().duplicates;
        debits += faults->stats().destroyed();
    }
    if (credits != debits) {
        os << "  network: " << credits - debits
           << " packet(s) in flight (" << ns.sent.value() << " sent, "
           << ns.delivered.value() << " delivered";
        if (rel) {
            os << ", " << rel->relStats().abandoned.value()
               << " abandoned";
        } else if (faults) {
            os << ", " << faults->stats().duplicates << " duplicated, "
               << faults->stats().destroyed() << " destroyed";
        }
        os << ")\n";
    }
    return os.str();
}

std::size_t
Machine::outstandingReads() const
{
    std::size_t n = 0;
    for (const auto &pe : pes_)
        n += pe->isStore.outstandingReads();
    return n;
}

std::uint64_t
Machine::totalFired() const
{
    std::uint64_t n = 0;
    for (const auto &pe : pes_)
        n += pe->stats.fired.value();
    return n;
}

double
Machine::aluUtilization() const
{
    if (now_ == 0)
        return 0.0;
    std::uint64_t busy = 0;
    for (const auto &pe : pes_)
        busy += pe->stats.aluBusyCycles.value();
    return static_cast<double>(busy) /
           (static_cast<double>(now_) * cfg_.numPEs);
}

double
Machine::opsPerCycle() const
{
    return now_ ? static_cast<double>(totalFired()) / now_ : 0.0;
}

const PeStats &
Machine::peStats(std::uint32_t pe) const
{
    SIM_ASSERT(pe < pes_.size());
    return pes_[pe]->stats;
}

const net::NetStats &
Machine::netStats() const
{
    return fabric_.net().stats();
}

std::vector<sim::StatGroup>
Machine::statGroups() const
{
    std::vector<sim::StatGroup> groups;
    groups.push_back(fabric_.metaStats());

    sim::StatGroup machine("machine");
    machine.set("cycles", static_cast<double>(now_));
    machine.set("activities", static_cast<double>(totalFired()));
    machine.set("opsPerCycle", opsPerCycle());
    machine.set("aluUtilization", aluUtilization());
    machine.set("contextsCreated",
                static_cast<double>(contexts_.totalCreated()));
    machine.set("netPacketsSent",
                static_cast<double>(netStats().sent.value()));
    machine.set("netMeanLatency", netStats().latency.mean());
    const auto is = istructureTotals();
    machine.set("isFetches", static_cast<double>(is.fetches.value()));
    machine.set("isFetchesDeferred",
                static_cast<double>(is.fetchesDeferred.value()));
    machine.set("isStores", static_cast<double>(is.stores.value()));
    groups.push_back(std::move(machine));

    fabric_.faultStats(groups, [&](sim::StatGroup &f) {
        std::uint64_t dupTok = 0, dupStore = 0;
        for (const auto &pe : pes_) {
            dupTok += pe->stats.dupTokensDropped.value();
            dupStore += pe->stats.dupStoresSuppressed.value();
        }
        f.set("dupTokensDropped", static_cast<double>(dupTok));
        f.set("dupStoresSuppressed", static_cast<double>(dupStore));
    });

    if (!requests_.empty()) {
        sim::StatGroup srv("serve");
        srv.set("submitted", static_cast<double>(requests_.size()));
        srv.set("injected", static_cast<double>(nextAdmit_));
        srv.set("completed", static_cast<double>(reqCompleted_));
        srv.set("watermarkHits",
                static_cast<double>(watermarkHits_));
        srv.set("latencyMean", reqLatency_.summary().mean());
        srv.set("latencyP50", reqLatency_.quantile(0.5));
        srv.set("latencyP99", reqLatency_.quantile(0.99));
        srv.set("latencyP999", reqLatency_.quantile(0.999));
        groups.push_back(std::move(srv));
    }

    for (std::uint32_t p = 0; p < cfg_.numPEs; ++p) {
        const PeStats &st = pes_[p]->stats;
        sim::StatGroup pe(sim::format("pe{}", p));
        pe.set("tokensIn", static_cast<double>(st.tokensIn.value()));
        pe.set("fired", static_cast<double>(st.fired.value()));
        pe.set("matchBusyCycles",
               static_cast<double>(st.matchBusyCycles.value()));
        pe.set("aluBusyCycles",
               static_cast<double>(st.aluBusyCycles.value()));
        pe.set("isBusyCycles",
               static_cast<double>(st.isBusyCycles.value()));
        pe.set("outputTokens",
               static_cast<double>(st.outputTokens.value()));
        pe.set("bypassTokens",
               static_cast<double>(st.bypassTokens.value()));
        pe.set("matchOverflows",
               static_cast<double>(st.matchOverflows.value()));
        pe.set("waitStorePeak", static_cast<double>(st.waitStorePeak));
        groups.push_back(std::move(pe));
    }
    return groups;
}

void
Machine::dumpStats(std::ostream &os) const
{
    for (const auto &group : statGroups())
        group.dump(os);
}

void
Machine::dumpStatsJson(std::ostream &os) const
{
    os << '{';
    for (const auto &group : statGroups()) {
        os << '"' << group.name() << "\":";
        group.dumpJson(os);
        os << ',';
    }
    os << "\"histograms\":{\"wmResidency\":";
    wmResidency_.dumpJson(os);
    os << ",\"birthToFire\":";
    birthToFire_.dumpJson(os);
    os << ",\"readLatency\":";
    readLatency_.dumpJson(os);
    os << "}}\n";
}

mem::IStructureStats
Machine::istructureTotals() const
{
    mem::IStructureStats total;
    for (const auto &pe : pes_) {
        const auto &s = pe->isStore.stats();
        total.fetches.inc(s.fetches.value());
        total.fetchesDeferred.inc(s.fetchesDeferred.value());
        total.stores.inc(s.stores.value());
        total.deferredServed.inc(s.deferredServed.value());
        total.multipleWrites.inc(s.multipleWrites.value());
    }
    return total;
}

} // namespace ttda
