/**
 * @file
 * Tests for I-structure storage semantics (paper Section 2.1,
 * Figure 2-1): presence bits, deferred read lists, single assignment,
 * and the controller's read/write cost model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "common/snapshot.hh"
#include "common/state.hh"
#include "mem/istructure.hh"

namespace
{

using Cont = int; // tests use integer continuations
using Out = std::vector<std::pair<Cont, mem::Word>>;

TEST(IStructure, ReadAfterWriteIsImmediate)
{
    mem::IStructure<Cont> is(16);
    Out out;
    EXPECT_TRUE(is.store(3, 42, out));
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(is.presence(3), mem::Presence::Present);
    EXPECT_TRUE(is.fetch(3, 7, out));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].first, 7);
    EXPECT_EQ(out[0].second, 42u);
}

TEST(IStructure, ReadBeforeWriteIsDeferredThenServed)
{
    // The paper's Figure 2-1 scenario: the read request is put aside
    // and the location marked; the write forwards the newly arrived
    // datum to the waiting instruction.
    mem::IStructure<Cont> is(16);
    Out out;
    EXPECT_FALSE(is.fetch(5, 100, out));
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(is.presence(5), mem::Presence::Deferred);
    EXPECT_EQ(is.outstandingReads(), 1u);

    EXPECT_TRUE(is.store(5, 9, out));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].first, 100);
    EXPECT_EQ(out[0].second, 9u);
    EXPECT_EQ(is.presence(5), mem::Presence::Present);
    EXPECT_EQ(is.outstandingReads(), 0u);
}

TEST(IStructure, MultipleDeferredReadsAllServed)
{
    // "The memory module must maintain a list of deferred read
    // requests as there may be more than one read of a particular
    // address before the corresponding write."
    mem::IStructure<Cont> is(16);
    Out out;
    for (int c = 0; c < 5; ++c)
        EXPECT_FALSE(is.fetch(2, c, out));
    EXPECT_EQ(is.outstandingReads(), 5u);
    is.store(2, 77, out);
    ASSERT_EQ(out.size(), 5u);
    for (int c = 0; c < 5; ++c) {
        EXPECT_EQ(out[c].first, c); // FIFO service order
        EXPECT_EQ(out[c].second, 77u);
    }
    EXPECT_EQ(is.stats().deferredServed.value(), 5u);
}

TEST(IStructure, SecondWriteIsRejected)
{
    mem::IStructure<Cont> is(8);
    Out out;
    EXPECT_TRUE(is.store(0, 1, out));
    EXPECT_FALSE(is.store(0, 2, out)); // single-assignment violation
    EXPECT_EQ(is.peek(0), 1u);         // original value preserved
    EXPECT_EQ(is.stats().multipleWrites.value(), 1u);
}

TEST(IStructure, AllocateBumpsAndChecksCapacity)
{
    mem::IStructure<Cont> is(10);
    EXPECT_EQ(is.allocate(4), 0u);
    EXPECT_EQ(is.allocate(4), 4u);
    EXPECT_EQ(is.freeWords(), 2u);
    EXPECT_EQ(is.allocate(4), ~std::uint64_t{0}); // exhausted
    EXPECT_EQ(is.allocate(2), 8u);
}

TEST(IStructure, ClearResetsCells)
{
    mem::IStructure<Cont> is(8);
    Out out;
    is.store(1, 5, out);
    is.fetch(2, 9, out); // deferred on cell 2
    is.clear(0, 8);
    EXPECT_EQ(is.presence(1), mem::Presence::Empty);
    EXPECT_EQ(is.presence(2), mem::Presence::Empty);
    EXPECT_EQ(is.outstandingReads(), 0u);
}

TEST(IStructure, OutOfRangePanics)
{
    mem::IStructure<Cont> is(4);
    Out out;
    EXPECT_DEATH(is.fetch(4, 0, out), "beyond");
}

TEST(IStructure, DeferredListLengthStat)
{
    mem::IStructure<Cont> is(8);
    Out out;
    is.fetch(0, 1, out);
    is.fetch(0, 2, out);
    is.fetch(0, 3, out);
    is.store(0, 1, out);
    is.store(1, 1, out); // no waiters
    EXPECT_DOUBLE_EQ(is.stats().deferredListLen.max(), 3.0);
    EXPECT_DOUBLE_EQ(is.stats().deferredListLen.min(), 0.0);
}

// ---------------------------------------------------------------------
// Controller timing.

TEST(IStructureController, ReadCostOneWriteCostTwo)
{
    // Paper: "A read operation is as efficient as in a traditional
    // memory. Write operations take twice as long."
    mem::IStructureController<Cont> ctl(16, 1, 2);
    Out served;

    // Preload a value, then time a read.
    ctl.request({mem::IStructureRequest<Cont>::Kind::Store, 0, 11, 0});
    sim::Cycle cycle = 0;
    while (!ctl.idle()) {
        ctl.step(cycle);
        ++cycle;
        while (auto r = ctl.pollResponse())
            served.push_back(*r);
    }
    const sim::Cycle write_time = cycle;
    EXPECT_EQ(write_time, 2u);

    ctl.request({mem::IStructureRequest<Cont>::Kind::Fetch, 0, 0, 42});
    sim::Cycle read_start = cycle;
    while (!ctl.idle()) {
        ctl.step(cycle);
        ++cycle;
        while (auto r = ctl.pollResponse())
            served.push_back(*r);
    }
    EXPECT_EQ(cycle - read_start, 1u);
    ASSERT_EQ(served.size(), 1u);
    EXPECT_EQ(served[0].first, 42);
    EXPECT_EQ(served[0].second, 11u);
}

TEST(IStructureController, DeferredReadParksWithoutBlockingQueue)
{
    // A deferred read must not stall the controller: later requests to
    // other cells are still served (no busy-waiting, unlike the HEP).
    mem::IStructureController<Cont> ctl(16);
    Out served;
    ctl.request({mem::IStructureRequest<Cont>::Kind::Fetch, 0, 0, 1});
    ctl.request({mem::IStructureRequest<Cont>::Kind::Store, 1, 50, 0});
    ctl.request({mem::IStructureRequest<Cont>::Kind::Fetch, 1, 0, 2});
    sim::Cycle cycle = 0;
    while (!ctl.idle() && cycle < 100) {
        ctl.step(cycle);
        ++cycle;
        while (auto r = ctl.pollResponse())
            served.push_back(*r);
    }
    // The read of cell 1 completed even though cell 0's read waits.
    ASSERT_EQ(served.size(), 1u);
    EXPECT_EQ(served[0].first, 2);
    EXPECT_EQ(served[0].second, 50u);
    EXPECT_EQ(ctl.storage().outstandingReads(), 1u);

    // The write to cell 0 releases the parked reader.
    ctl.request({mem::IStructureRequest<Cont>::Kind::Store, 0, 60, 0});
    while (!ctl.idle() && cycle < 200) {
        ctl.step(cycle);
        ++cycle;
        while (auto r = ctl.pollResponse())
            served.push_back(*r);
    }
    ASSERT_EQ(served.size(), 2u);
    EXPECT_EQ(served[1].first, 1);
    EXPECT_EQ(served[1].second, 60u);
}

TEST(IStructureController, DedupAbsorbsReplayedIdenticalStore)
{
    // With a lossy fabric the same STORE can arrive twice (a retry
    // whose original survived). Re-storing the *same* value into a
    // Present cell is a replay, not a single-assignment violation —
    // but only when dedup is on, and only for an identical value.
    auto drain = [](mem::IStructureController<Cont> &ctl, Out &served) {
        sim::Cycle cycle = 0;
        while (!ctl.idle() && cycle < 100) {
            ctl.step(cycle);
            ++cycle;
            while (auto r = ctl.pollResponse())
                served.push_back(*r);
        }
    };

    mem::IStructureController<Cont> ctl(16);
    ctl.enableDedup();
    Out served;
    ctl.request({mem::IStructureRequest<Cont>::Kind::Store, 0, 11, 0});
    ctl.request({mem::IStructureRequest<Cont>::Kind::Store, 0, 11, 0});
    drain(ctl, served);
    EXPECT_EQ(ctl.dupStores(), 1u);
    EXPECT_EQ(ctl.storage().stats().multipleWrites.value(), 0u);
    EXPECT_EQ(ctl.storage().peek(0), 11u);

    // A *different* value is still a real violation.
    ctl.request({mem::IStructureRequest<Cont>::Kind::Store, 0, 12, 0});
    drain(ctl, served);
    EXPECT_EQ(ctl.dupStores(), 1u);
    EXPECT_EQ(ctl.storage().stats().multipleWrites.value(), 1u);
    EXPECT_EQ(ctl.storage().peek(0), 11u);

    // Without dedup, even an identical re-store counts as a violation
    // (the fault-free semantics are unchanged).
    mem::IStructureController<Cont> bare(16);
    Out served2;
    bare.request({mem::IStructureRequest<Cont>::Kind::Store, 0, 11, 0});
    bare.request({mem::IStructureRequest<Cont>::Kind::Store, 0, 11, 0});
    drain(bare, served2);
    EXPECT_EQ(bare.dupStores(), 0u);
    EXPECT_EQ(bare.storage().stats().multipleWrites.value(), 1u);
}

/** A store's run state as snapshot bytes, for an exact compare. */
template <class Store>
std::string
snapshotBytes(const Store &store)
{
    sim::snapshot::Writer w;
    sim::state::save(w, store);
    std::ostringstream os;
    w.finish(os);
    return os.str();
}

TEST(IStructure, TouchedWalksMatchEveryCell)
{
    // Seeded fetch/store/clear traffic over three address clusters:
    // the first chunk, the third (the second is never materialized)
    // and the last. After every operation the parked-read count must
    // equal the deferred lists summed over every address; after a
    // reset the store must snapshot like a fresh one, and replaying
    // the traffic must match a fresh store's replay byte for byte.
    using Store = mem::IStructure<std::uint64_t>;
    constexpr std::size_t kWords = 3 * 4096 + 100;
    const std::uint64_t bases[] = {0, 2 * 4096 + 7, kWords - 40};
    auto traffic = [&](Store &is, std::uint64_t seed) {
        sim::Rng rng(seed);
        std::vector<std::pair<std::uint64_t, mem::Word>> out;
        for (std::uint64_t op = 0; op < 500; ++op) {
            const std::uint64_t addr = bases[rng.below(3)] + rng.below(40);
            switch (rng.below(8)) {
              case 0:
                is.clear(addr, std::min<std::size_t>(1 + rng.below(16),
                                                     kWords - addr));
                break;
              case 1:
              case 2:
              case 3:
                is.store(addr, op, out);
                break;
              default:
                is.fetch(addr, op, out);
                break;
            }
            std::size_t parked = 0;
            for (std::uint64_t a = 0; a < kWords; ++a)
                parked += is.deferredList(a).size();
            ASSERT_EQ(is.outstandingReads(), parked) << "op " << op;
        }
    };
    for (const std::uint64_t seed : {3, 17, 29, 101}) {
        SCOPED_TRACE(seed);
        Store used(kWords);
        traffic(used, seed);
        ASSERT_GT(used.outstandingReads(), 0u);
        sim::state::reset(used);
        const Store fresh(kWords);
        EXPECT_EQ(used.outstandingReads(), 0u);
        EXPECT_TRUE(used.deferredAddresses().empty());
        EXPECT_EQ(snapshotBytes(used), snapshotBytes(fresh));

        Store replay(kWords);
        traffic(used, seed + 1);
        traffic(replay, seed + 1);
        EXPECT_EQ(snapshotBytes(used), snapshotBytes(replay));
        EXPECT_EQ(used.deferredAddresses(), replay.deferredAddresses());
    }
}

} // namespace
