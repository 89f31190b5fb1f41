/**
 * @file
 * Machine checkpoint/restore: serialize the complete run state of a
 * quiescent or paused Machine into the versioned snapshot envelope
 * (common/snapshot.hh), and restore it onto a freshly-reset machine
 * built from the same program and configuration.
 *
 * What is serialized is exactly the state reset() clears — pipeline
 * queues, waiting-matching stores, structure storage, contexts, the
 * network (ReliableNet protocol state included), fault-injector RNG,
 * statistics, histograms and the serving queue. Everything resolved
 * at construction (wiring, latency tables, routing tables) is
 * configuration and is re-derived by the restoring machine; the
 * occupancy counters the run loop maintains incrementally are derived
 * state and are recomputed from the restored queues.
 */

#include "ttda/machine.hh"

#include <array>
#include <cstdint>
#include <istream>
#include <ostream>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/snapshot.hh"
#include "graph/snapcodec.hh"
#include "net/crossbar.hh"
#include "net/hierarchical.hh"
#include "net/hypercube.hh"
#include "net/ideal.hh"
#include "net/omega.hh"

namespace ttda
{

namespace
{

using sim::snapshot::Error;
using sim::snapshot::Reader;
using sim::snapshot::Writer;

/** Static dispatch over the configured topology: the network classes
 *  expose non-virtual templated saveState/loadState (a virtual would
 *  force payload codecs into every instantiation), and the machine
 *  knows the concrete type from cfg_.topology. */
template <typename P>
void
saveTopology(Writer &w, const net::Network<P> &n,
             MachineConfig::Topology t)
{
    using T = MachineConfig::Topology;
    switch (t) {
      case T::Ideal:
        static_cast<const net::IdealNetwork<P> &>(n).saveState(w);
        return;
      case T::Crossbar:
        static_cast<const net::Crossbar<P> &>(n).saveState(w);
        return;
      case T::Hypercube:
        static_cast<const net::Hypercube<P> &>(n).saveState(w);
        return;
      case T::Omega:
        static_cast<const net::OmegaNet<P> &>(n).saveState(w);
        return;
      case T::Hierarchical:
        static_cast<const net::HierarchicalNet<P> &>(n).saveState(w);
        return;
    }
    sim::panic("unknown topology");
}

template <typename P>
void
loadTopology(Reader &r, net::Network<P> &n, MachineConfig::Topology t)
{
    using T = MachineConfig::Topology;
    switch (t) {
      case T::Ideal:
        static_cast<net::IdealNetwork<P> &>(n).loadState(r);
        return;
      case T::Crossbar:
        static_cast<net::Crossbar<P> &>(n).loadState(r);
        return;
      case T::Hypercube:
        static_cast<net::Hypercube<P> &>(n).loadState(r);
        return;
      case T::Omega:
        static_cast<net::OmegaNet<P> &>(n).loadState(r);
        return;
      case T::Hierarchical:
        static_cast<net::HierarchicalNet<P> &>(n).loadState(r);
        return;
    }
    sim::panic("unknown topology");
}

void
saveRng(Writer &w, const sim::Rng &rng)
{
    for (std::uint64_t word : rng.state())
        w.u64(word);
}

std::array<std::uint64_t, 4>
loadRngState(Reader &r)
{
    std::array<std::uint64_t, 4> s{};
    for (std::uint64_t &word : s)
        word = r.u64();
    return s;
}

} // namespace

void
Machine::saveSnapshot(std::ostream &os) const
{
    Writer w;

    // ---- fingerprint: what the restoring machine must match --------
    w.u32(cfg_.numPEs);
    w.u64(cfg_.seed);
    w.u8(static_cast<std::uint8_t>(cfg_.topology));
    w.u8(static_cast<std::uint8_t>(cfg_.mapping));
    w.b(cfg_.reliableNet);
    w.u64(cfg_.isWordsPerPe);
    w.b(faults_ != nullptr);
    w.b(cfg_.profile);
    w.u64(program_.numCodeBlocks());
    w.u64(program_.totalInstructions());

    // ---- core scalars ----------------------------------------------
    w.u64(now_);
    w.u64(allocPtr_);
    w.b(deadlocked_);
    w.u32(tokenSeq_);

    // ---- outputs ---------------------------------------------------
    w.u64(outputs_.size());
    for (const OutputRecord &rec : outputs_) {
        snapSave(w, rec.tag);
        snapSave(w, rec.value);
    }

    // ---- per-PE pipeline state -------------------------------------
    for (const auto &pe_ptr : pes_) {
        const Pe &pe = *pe_ptr;
        snapSave(w, pe.inQ);
        w.u64(pe.waitStore.size());
        pe.waitStore.forEach(
            [&w](const graph::Tag &tag, const Waiting &wt) {
                snapSave(w, tag);
                w.u64(wt.filled);
                w.u8(wt.arrived);
                w.u8(wt.expected);
                w.u64(wt.slots.size());
                for (const graph::Value &v : wt.slots)
                    snapSave(w, v);
            });
        w.u64(pe.matchBusy);
        // ReadyOp is private to Machine, so the fetch queue is encoded
        // inline rather than through the generic ring-queue codec.
        w.u64(pe.fetchQ.size());
        for (std::size_t i = 0; i < pe.fetchQ.size(); ++i) {
            const ReadyOp &op = pe.fetchQ.at(i);
            snapSave(w, op.enabled);
            w.u64(op.readyAt);
            w.u32(op.born);
        }
        w.u64(pe.aluBusy);
        snapSave(w, pe.outQ);
        snapSave(w, pe.isQ);
        w.u64(pe.isBusy);
        pe.isStore.save(w);
        snapSave(w, pe.stats.tokensIn);
        snapSave(w, pe.stats.fired);
        snapSave(w, pe.stats.matchBusyCycles);
        snapSave(w, pe.stats.aluBusyCycles);
        snapSave(w, pe.stats.isBusyCycles);
        snapSave(w, pe.stats.outputTokens);
        snapSave(w, pe.stats.bypassTokens);
        snapSave(w, pe.stats.matchOverflows);
        snapSave(w, pe.stats.dupTokensDropped);
        snapSave(w, pe.stats.dupStoresSuppressed);
        w.u64(pe.stats.waitStorePeak);
    }

    // ---- shared services -------------------------------------------
    contexts_.save(w);
    if (faults_) {
        saveRng(w, faults_->rng());
        const sim::fault::FaultInjector::Stats &fs = faults_->stats();
        w.u64(fs.decisions);
        w.u64(fs.drops);
        w.u64(fs.duplicates);
        w.u64(fs.corrupts);
        w.u64(fs.delays);
        w.u64(fs.linkDownDrops);
    }

    // ---- network ---------------------------------------------------
    if (rel_) {
        rel_->saveState(w);
        saveTopology<net::Envelope<graph::Token>>(w, rel_->inner(),
                                                  cfg_.topology);
    } else {
        saveTopology<graph::Token>(w, *net_, cfg_.topology);
    }

    // ---- machine-level histograms ----------------------------------
    snapSave(w, wmResidency_);
    snapSave(w, birthToFire_);
    snapSave(w, readLatency_);
    snapSave(w, reqLatency_);

    // ---- steady-state serving --------------------------------------
    w.b(serving_);
    w.b(admitBlocked_);
    w.u64(nextAdmit_);
    w.u64(reqCompleted_);
    w.u64(watermarkHits_);
    w.u64(requests_.size());
    for (const ServeRequest &req : requests_) {
        w.u16(req.cb);
        w.u64(req.args.size());
        for (const graph::Value &v : req.args)
            snapSave(w, v);
        w.u64(req.arrival);
        w.b(req.done);
    }

    // ---- hot-spot profile ------------------------------------------
    if (cfg_.profile) {
        w.u64(profile_.fires.size());
        for (std::uint64_t f : profile_.fires)
            w.u64(f);
        for (std::uint64_t c : profile_.cycles)
            w.u64(c);
    }

    w.finish(os);
}

void
Machine::restoreSnapshot(std::istream &is)
{
    // Restore onto a reset machine: warmed allocations survive, and a
    // restore that throws partway leaves the machine reset again (the
    // catch below), never half-restored.
    reset();
    Reader r(is);
    try {
        // ---- fingerprint -------------------------------------------
        auto check = [](bool ok, const char *what) {
            if (!ok)
                throw Error(std::string("snapshot: machine mismatch "
                                        "(") +
                            what + ")");
        };
        check(r.u32() == cfg_.numPEs, "numPEs");
        check(r.u64() == cfg_.seed, "seed");
        check(r.u8() == static_cast<std::uint8_t>(cfg_.topology),
              "topology");
        check(r.u8() == static_cast<std::uint8_t>(cfg_.mapping),
              "mapping");
        check(r.b() == cfg_.reliableNet, "reliableNet");
        check(r.u64() == cfg_.isWordsPerPe, "isWordsPerPe");
        check(r.b() == (faults_ != nullptr), "fault plan");
        check(r.b() == cfg_.profile, "profile");
        check(r.u64() == program_.numCodeBlocks(), "program shape");
        check(r.u64() == program_.totalInstructions(),
              "program shape");

        // ---- core scalars ------------------------------------------
        now_ = r.u64();
        allocPtr_ = r.u64();
        deadlocked_ = r.b();
        tokenSeq_ = r.u32();

        // ---- outputs -----------------------------------------------
        const std::uint64_t nOut = r.u64();
        for (std::uint64_t i = 0; i < nOut; ++i) {
            OutputRecord rec;
            snapLoad(r, rec.tag);
            snapLoad(r, rec.value);
            outputs_.push_back(std::move(rec));
        }

        // ---- per-PE pipeline state ---------------------------------
        for (auto &pe_ptr : pes_) {
            Pe &pe = *pe_ptr;
            snapLoad(r, pe.inQ);
            const std::uint64_t nWm = r.u64();
            for (std::uint64_t i = 0; i < nWm; ++i) {
                graph::Tag tag;
                snapLoad(r, tag);
                auto [wp, inserted] = pe.waitStore.insert(tag);
                if (!inserted)
                    r.fail("duplicate waiting-matching tag");
                Waiting &wt = *wp;
                wt.filled = r.u64();
                wt.arrived = r.u8();
                wt.expected = r.u8();
                const std::uint64_t nSlots = r.u64();
                wt.slots.clear();
                for (std::uint64_t k = 0; k < nSlots; ++k) {
                    graph::Value v;
                    snapLoad(r, v);
                    wt.slots.push_back(std::move(v));
                }
            }
            pe.matchBusy = r.u64();
            pe.fetchQ.clear();
            const std::uint64_t nFetch = r.u64();
            for (std::uint64_t i = 0; i < nFetch; ++i) {
                ReadyOp op;
                snapLoad(r, op.enabled);
                op.readyAt = r.u64();
                op.born = r.u32();
                pe.fetchQ.push_back(std::move(op));
            }
            pe.aluBusy = r.u64();
            snapLoad(r, pe.outQ);
            snapLoad(r, pe.isQ);
            pe.isBusy = r.u64();
            pe.isStore.load(r);
            snapLoad(r, pe.stats.tokensIn);
            snapLoad(r, pe.stats.fired);
            snapLoad(r, pe.stats.matchBusyCycles);
            snapLoad(r, pe.stats.aluBusyCycles);
            snapLoad(r, pe.stats.isBusyCycles);
            snapLoad(r, pe.stats.outputTokens);
            snapLoad(r, pe.stats.bypassTokens);
            snapLoad(r, pe.stats.matchOverflows);
            snapLoad(r, pe.stats.dupTokensDropped);
            snapLoad(r, pe.stats.dupStoresSuppressed);
            pe.stats.waitStorePeak = r.u64();
        }

        // ---- shared services ---------------------------------------
        contexts_.load(r);
        if (faults_) {
            const auto rngState = loadRngState(r);
            sim::fault::FaultInjector::Stats fs;
            fs.decisions = r.u64();
            fs.drops = r.u64();
            fs.duplicates = r.u64();
            fs.corrupts = r.u64();
            fs.delays = r.u64();
            fs.linkDownDrops = r.u64();
            faults_->restore(rngState, fs);
        }

        // ---- network -----------------------------------------------
        if (rel_) {
            rel_->loadState(r);
            loadTopology<net::Envelope<graph::Token>>(r, rel_->inner(),
                                                      cfg_.topology);
        } else {
            loadTopology<graph::Token>(r, *net_, cfg_.topology);
        }

        // ---- machine-level histograms ------------------------------
        snapLoad(r, wmResidency_);
        snapLoad(r, birthToFire_);
        snapLoad(r, readLatency_);
        snapLoad(r, reqLatency_);

        // ---- steady-state serving ----------------------------------
        serving_ = r.b();
        admitBlocked_ = r.b();
        nextAdmit_ = r.u64();
        reqCompleted_ = r.u64();
        watermarkHits_ = r.u64();
        const std::uint64_t nReq = r.u64();
        for (std::uint64_t i = 0; i < nReq; ++i) {
            ServeRequest req;
            req.cb = r.u16();
            const std::uint64_t nArgs = r.u64();
            for (std::uint64_t k = 0; k < nArgs; ++k) {
                graph::Value v;
                snapLoad(r, v);
                req.args.push_back(std::move(v));
            }
            req.arrival = r.u64();
            req.done = r.b();
            requests_.push_back(std::move(req));
        }
        if (nextAdmit_ > requests_.size())
            r.fail("admission cursor past the request queue");

        // ---- hot-spot profile --------------------------------------
        if (cfg_.profile) {
            const std::uint64_t n = r.u64();
            if (n != profile_.fires.size())
                r.fail("profile size does not match the program");
            for (std::uint64_t &f : profile_.fires)
                f = r.u64();
            for (std::uint64_t &c : profile_.cycles)
                c = r.u64();
        }

        r.expectEnd();
    } catch (...) {
        reset();
        throw;
    }

    // Recompute the occupancy counters: derived state, maintained
    // incrementally during a run and never serialized.
    activeItems_ = 0;
    busyStages_ = 0;
    wmEntries_ = 0;
    for (const auto &pe_ptr : pes_) {
        const Pe &pe = *pe_ptr;
        activeItems_ += pe.inQ.size() + pe.fetchQ.size() +
                        pe.outQ.size() + pe.isQ.size();
        busyStages_ += static_cast<std::uint32_t>(pe.matchBusy > 0) +
                       static_cast<std::uint32_t>(pe.aluBusy > 0) +
                       static_cast<std::uint32_t>(pe.isBusy > 0);
        wmEntries_ += pe.waitStore.size();
    }
}

} // namespace ttda
