/**
 * @file
 * The machine's run state in one place: the visitState field list and
 * the three operations derived from it (common/state.hh) — reset(),
 * saveSnapshot() into the versioned envelope (common/snapshot.hh), and
 * restoreSnapshot() onto a machine built from the same program and
 * configuration.
 *
 * "Serialized = exactly what reset() clears" holds by construction:
 * both walk the one field list, which covers pipeline queues,
 * waiting-matching stores, structure storage, contexts, the network
 * (ReliableNet protocol state included), the fault-injector stream,
 * statistics, histograms and the serving queue. Everything resolved at
 * construction (wiring, latency tables, routing tables) is
 * configuration: the restoring machine re-derives it, and a fingerprint
 * of the parts that must match precedes the run state. The occupancy
 * counters the run loop maintains incrementally are derived state,
 * recomputed from the restored queues.
 */

#include "ttda/machine.hh"

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

#include "common/snapshot.hh"
#include "common/state.hh"
#include "graph/snapcodec.hh"

namespace ttda
{

namespace
{

using sim::snapshot::Error;
using sim::snapshot::Reader;
using sim::snapshot::Writer;

/** The configuration a snapshot is valid for: written ahead of the run
 *  state, and compared value by value on restore. */
template <class F>
void
fingerprint(const MachineConfig &cfg, const graph::Program &program,
            bool faults, F &&f)
{
    f(cfg.numPEs, "numPEs");
    f(cfg.seed, "seed");
    f(static_cast<std::uint8_t>(cfg.topology), "topology");
    f(static_cast<std::uint8_t>(cfg.mapping), "mapping");
    f(cfg.reliableNet, "reliableNet");
    f(static_cast<std::uint64_t>(cfg.isWordsPerPe), "isWordsPerPe");
    f(faults, "fault plan");
    f(cfg.profile, "profile");
    f(static_cast<std::uint64_t>(program.numCodeBlocks()),
      "program shape");
    f(static_cast<std::uint64_t>(program.totalInstructions()),
      "program shape");
}

} // namespace

template <class V>
void
Machine::visitState(V &v)
{
    v(now_, allocPtr_, deadlocked_, tokenSeq_, outputs_);
    for (auto &pe : pes_)
        v(*pe);
    v(contexts_, fabric_);
    v(wmResidency_, birthToFire_, readLatency_, reqLatency_, serving_,
      admitBlocked_, nextAdmit_, reqCompleted_, watermarkHits_,
      requests_);
    if (cfg_.profile) {
        v(sim::state::sized(profile_.fires,
                            "profile size does not match the program"),
          sim::state::fixed(profile_.cycles));
    }
}

void
Machine::reset()
{
    // Run state only. Configuration survives, as do all the warmed
    // allocations (hash-table capacity, ring buffers, structure
    // chunks, the operand-slot pool): that reuse is the point of
    // resetting over reconstructing.
    sim::state::reset(*this);
    recountOccupancy();
    stopAt_ = sim::neverCycle;
    paused_ = false;
}

void
Machine::recountOccupancy()
{
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

void
Machine::saveSnapshot(std::ostream &os) const
{
    Writer w;
    fingerprint(cfg_, program_, fabric_.faults() != nullptr,
                [&w](auto value, const char *) {
                    sim::state::save(w, value);
                });
    sim::state::save(w, *this);
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
        fingerprint(cfg_, program_, fabric_.faults() != nullptr,
                    [&r](auto want, const char *what) {
                        decltype(want) got{};
                        sim::state::load(r, got);
                        if (got != want)
                            throw Error(std::string("snapshot: machine "
                                                    "mismatch (") +
                                        what + ")");
                    });
        sim::state::load(r, *this);
        if (nextAdmit_ > requests_.size())
            r.fail("admission cursor past the request queue");
        r.expectEnd();
    } catch (...) {
        reset();
        throw;
    }
    recountOccupancy();
}

} // namespace ttda
