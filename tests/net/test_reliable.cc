/**
 * @file
 * net::ReliableNet: the end-to-end reliability decorator. Exactly-once
 * delivery over a lossy fabric, retransmission with bounded backoff,
 * abandonment after maxAttempts, and zero protocol overhead besides
 * ACKs when nothing is lost.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.hh"
#include "common/random.hh"
#include "common/snapshot.hh"
#include "common/state.hh"
#include "net/ideal.hh"
#include "net/reliable.hh"

namespace
{

using net::Envelope;
using net::ReliableNet;
using net::RetryConfig;

std::unique_ptr<ReliableNet<int>>
makeReliable(std::uint32_t ports, RetryConfig cfg = {})
{
    return std::make_unique<ReliableNet<int>>(
        std::make_unique<net::IdealNetwork<Envelope<int>>>(
            ports, /*latency=*/2, /*jitter=*/0, /*seed=*/1),
        cfg);
}

/** Step `rel` until idle (or `maxCycles`), draining every port into
 *  per-port delivery logs. */
std::vector<std::vector<int>>
drain(ReliableNet<int> &rel, std::uint32_t ports,
      sim::Cycle maxCycles = 100000)
{
    std::vector<std::vector<int>> got(ports);
    for (sim::Cycle c = 0; c < maxCycles; ++c) {
        rel.step(c);
        for (std::uint32_t p = 0; p < ports; ++p)
            while (auto v = rel.receive(p))
                got[p].push_back(*v);
        if (rel.idle())
            break;
    }
    return got;
}

TEST(ReliableNet, LosslessDeliversInOrderWithoutRetransmits)
{
    auto rel = makeReliable(2);
    for (int i = 0; i < 20; ++i)
        rel->send(0, 1, i);
    const auto got = drain(*rel, 2);
    ASSERT_EQ(got[1].size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(got[1][i], i);
    EXPECT_TRUE(got[0].empty()); // ACKs are consumed, not delivered
    EXPECT_EQ(rel->relStats().retransmits.value(), 0u);
    EXPECT_EQ(rel->relStats().abandoned.value(), 0u);
    EXPECT_EQ(rel->relStats().acksSent.value(), 20u);
    EXPECT_TRUE(rel->idle());
}

TEST(ReliableNet, TakesItsPortCountFromTheInnerFabric)
{
    EXPECT_EQ(makeReliable(6)->numPorts(), 6u);
    // Checked before the inner fabric is asked for its port count.
    EXPECT_DEATH(ReliableNet<int>(nullptr), "inner != nullptr");
}

TEST(ReliableNet, BackoffDoublesUpToCap)
{
    RetryConfig cfg;
    cfg.timeout = 8;
    cfg.backoffCap = 3;
    EXPECT_EQ(net::backoffDelay(cfg, 1), 8u);
    EXPECT_EQ(net::backoffDelay(cfg, 2), 16u);
    EXPECT_EQ(net::backoffDelay(cfg, 3), 32u);
    EXPECT_EQ(net::backoffDelay(cfg, 4), 64u);
    EXPECT_EQ(net::backoffDelay(cfg, 5), 64u); // capped
    EXPECT_EQ(net::backoffDelay(cfg, 100), 64u);
}

TEST(ReliableNet, RecoversEveryPayloadFromHeavyLoss)
{
    // 30% drop + duplicates + delay spikes on the inner fabric: every
    // payload must still arrive exactly once. Order may differ — the
    // wrapper is at-most-once, not in-order.
    sim::fault::FaultPlan plan;
    plan.seed = 99;
    plan.dropRate = 0.3;
    plan.dupRate = 0.1;
    plan.delayRate = 0.1;
    plan.delaySpike = 8;
    sim::fault::FaultInjector inj(plan);

    RetryConfig cfg;
    cfg.timeout = 16;
    cfg.maxAttempts = 20;
    auto rel = makeReliable(4, cfg);
    rel->setFaultInjector(&inj);

    const int n = 100;
    for (int i = 0; i < n; ++i)
        rel->send(0, 1 + (i % 3), i);
    const auto got = drain(*rel, 4);

    std::map<int, int> seen;
    for (std::uint32_t p = 1; p < 4; ++p)
        for (int v : got[p])
            ++seen[v];
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(n));
    for (const auto &[v, count] : seen)
        EXPECT_EQ(count, 1) << "payload " << v;
    EXPECT_EQ(rel->relStats().abandoned.value(), 0u);
    EXPECT_GT(rel->relStats().retransmits.value(), 0u);
    EXPECT_GT(inj.stats().drops, 0u);
    EXPECT_TRUE(rel->idle());
    EXPECT_EQ(rel->pendingCount(), 0u);
}

TEST(ReliableNet, DeterministicUnderSamePlan)
{
    auto run = [] {
        sim::fault::FaultPlan plan;
        plan.seed = 7;
        plan.dropRate = 0.25;
        plan.dupRate = 0.05;
        sim::fault::FaultInjector inj(plan);
        RetryConfig cfg;
        cfg.timeout = 16;
        auto rel = makeReliable(2, cfg);
        rel->setFaultInjector(&inj);
        for (int i = 0; i < 50; ++i)
            rel->send(0, 1, i);
        const auto got = drain(*rel, 2);
        return std::make_tuple(got[1],
                               rel->relStats().retransmits.value(),
                               inj.stats().decisions);
    };
    EXPECT_EQ(run(), run());
}

TEST(ReliableNet, AbandonsAfterMaxAttempts)
{
    // A link-down window longer than every retry: all Data envelopes
    // 0->1 die, ACKs never exist, and the sender must eventually give
    // up rather than retry (or block idle()) forever.
    sim::fault::FaultPlan plan;
    plan.events.push_back(
        {sim::fault::Event::Kind::LinkDown, 0, 1000000, 0, 1});
    sim::fault::FaultInjector inj(plan);

    RetryConfig cfg;
    cfg.timeout = 8;
    cfg.maxAttempts = 4;
    cfg.backoffCap = 2;
    auto rel = makeReliable(2, cfg);
    rel->setFaultInjector(&inj);

    for (int i = 0; i < 5; ++i)
        rel->send(0, 1, i);
    const auto got = drain(*rel, 2);
    EXPECT_TRUE(got[1].empty());
    EXPECT_TRUE(rel->idle());
    EXPECT_EQ(rel->relStats().abandoned.value(), 5u);
    // Each send was transmitted maxAttempts times in total.
    EXPECT_EQ(rel->relStats().retransmits.value(),
              5u * (cfg.maxAttempts - 1));
    EXPECT_EQ(inj.stats().linkDownDrops,
              5u * cfg.maxAttempts);
    EXPECT_EQ(rel->pendingCount(), 0u);
}

/** The receive window ReliableNet kept before RxWindow: a watermark
 *  and the set of seqs seen above it. The reference RxWindow must
 *  agree with on every offer. */
struct SetWindow
{
    std::uint64_t watermark = 1;
    std::set<std::uint64_t> seen;

    bool
    accept(std::uint64_t seq)
    {
        if (seq < watermark || seen.count(seq))
            return false;
        seen.insert(seq);
        while (!seen.empty() && *seen.begin() == watermark) {
            seen.erase(seen.begin());
            ++watermark;
        }
        return true;
    }
};

/** Offer `seqs` to an RxWindow and the reference; after every offer
 *  both must give the same answer and the same watermark. */
void
expectSameAsSetWindow(const std::vector<std::uint64_t> &seqs)
{
    net::RxWindow got;
    SetWindow want;
    for (std::size_t i = 0; i < seqs.size(); ++i) {
        ASSERT_EQ(got.accept(seqs[i]), want.accept(seqs[i]))
            << "offer " << i << " of seq " << seqs[i];
        ASSERT_EQ(got.watermark(), want.watermark)
            << "offer " << i << " of seq " << seqs[i];
        ASSERT_TRUE(got.consistent()) << "offer " << i;
    }
}

TEST(RxWindow, SlideOntoAFarSeqKeepsSliding)
{
    // 66 lies beyond the bitmap when it arrives, 2..65 fill the
    // bitmap, and 1 slides the watermark over all 64 bits onto 66,
    // which the far set holds: the watermark must pass it too, and a
    // second copy of 66 is a duplicate.
    std::vector<std::uint64_t> seqs{66};
    for (std::uint64_t seq = 2; seq <= 65; ++seq)
        seqs.push_back(seq);
    seqs.push_back(1);
    seqs.push_back(66);
    seqs.push_back(68);
    seqs.push_back(67);
    expectSameAsSetWindow(seqs);

    net::RxWindow w;
    for (const std::uint64_t seq : seqs)
        w.accept(seq);
    EXPECT_EQ(w.watermark(), 69u);
}

/** Seqs 1..3000 as a lossy, reordering fabric offers them: each one
 *  delayed by up to `depth` places, one in a hundred held back 300 to
 *  2300 places, and one offer in eight followed by a copy of an
 *  earlier one. */
std::vector<std::uint64_t>
offerSequence(std::uint64_t seed, std::uint64_t depth)
{
    sim::Rng rng(seed);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> keyed;
    for (std::uint64_t seq = 1; seq <= 3000; ++seq) {
        std::uint64_t key = seq + rng.below(depth + 1);
        if (rng.below(100) == 0)
            key += 300 + rng.below(2000);
        keyed.emplace_back(key, seq);
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::vector<std::uint64_t> out;
    for (const auto &[key, seq] : keyed) {
        out.push_back(seq);
        if (rng.below(8) == 0)
            out.push_back(out[rng.below(out.size())]);
    }
    return out;
}

TEST(RxWindow, MatchesTheSetWindowOnSeededOffers)
{
    for (const std::uint64_t depth : {0, 1, 8, 63, 64, 65, 100, 256}) {
        for (const std::uint64_t seed : {1, 2, 3}) {
            SCOPED_TRACE(testing::Message()
                         << "depth " << depth << " seed " << seed);
            expectSameAsSetWindow(offerSequence(seed * 977 + depth, depth));
        }
    }
}

using Rel64 = ReliableNet<std::uint64_t>;

std::unique_ptr<Rel64>
makeRel64()
{
    return std::make_unique<Rel64>(
        std::make_unique<net::IdealNetwork<Envelope<std::uint64_t>>>(2, 2));
}

/** `rel`'s run state as a bare snapshot payload. */
std::string
savePayload(Rel64 &rel)
{
    sim::snapshot::Writer w;
    sim::state::save(w, rel);
    std::ostringstream os;
    w.finish(os);
    const std::string bytes = os.str();
    constexpr std::size_t kHeader = 22, kCrc = 4;
    return bytes.substr(kHeader, bytes.size() - kHeader - kCrc);
}

/** Load a bare payload into `rel` through a fresh envelope. */
void
loadPayload(Rel64 &rel, const std::string &payload)
{
    sim::snapshot::Writer w;
    for (const char c : payload)
        w.u8(static_cast<std::uint8_t>(c));
    std::ostringstream os;
    w.finish(os);
    std::istringstream is(os.str());
    sim::snapshot::Reader r(is);
    sim::state::load(r, rel);
    r.expectEnd();
}

TEST(ReliableNet, SnapshotLoadChecksTheStreamIndexing)
{
    // Three sends on stream 0->1 (index 1) and one on 1->0 (index 2),
    // none stepped: two used streams and four first-send timers.
    auto src = makeRel64();
    for (std::uint64_t i = 0; i < 3; ++i)
        src->send(0, 1, 10 + i);
    src->send(1, 0, 20);
    const std::string payload = savePayload(*src);
    {
        auto copy = makeRel64();
        loadPayload(*copy, payload);
        EXPECT_EQ(copy->pendingCount(), 4u);
        EXPECT_EQ(savePayload(*copy), payload);
    }

    // The layout: the traffic statistics and the clock, then the
    // used-stream count and the first stream's index, sent and acked
    // seqs; at the end, the protocol counters (five), the timer order,
    // the empty retry heap (count, next seq), and before them the
    // first-send timers (deadline, order, stream, seq) in a FIFO.
    sim::snapshot::Writer stats;
    sim::state::save(stats, net::NetStats{});
    const std::size_t firstIndex = stats.size() + 8 + 8;
    const std::size_t firstSent = firstIndex + 4;
    const std::size_t firstAcked = firstSent + 8;
    constexpr std::size_t kTimer = 8 + 8 + 4 + 8;
    const std::size_t timers = payload.size() - 5 * 8 - 8 - 16 - 4 * kTimer;
    const std::size_t lastTimerStream = timers + 3 * kTimer + 16;

    auto expectRejected = [&](std::size_t at, std::uint64_t value,
                              int bytes, const std::string &what) {
        SCOPED_TRACE(what);
        std::string edited = payload;
        for (int i = 0; i < bytes; ++i)
            edited[at + i] = static_cast<char>(value >> (8 * i));
        ASSERT_NE(edited, payload);
        auto rel = makeRel64();
        try {
            loadPayload(*rel, edited);
            ADD_FAILURE() << "the edited payload loaded";
        } catch (const sim::snapshot::Error &e) {
            EXPECT_EQ(std::string(e.what()), "snapshot: " + what);
        }
    };
    expectRejected(firstIndex, 4, 4,
                   "reliable stream index beyond ports squared");
    expectRejected(firstIndex, 3, 4, "reliable streams out of order");
    expectRejected(firstSent, 4, 8, "reliable slot count is not sent - acked");
    expectRejected(firstAcked, 1, 8,
                   "reliable slot count is not sent - acked");
    expectRejected(firstAcked, 4, 8,
                   "reliable slot count is not sent - acked");
    expectRejected(lastTimerStream, 4, 4,
                   "reliable timer names a stream out of range");
    expectRejected(timers, 1000, 8,
                   "reliable first-send timers out of order");

    // The pending count is not in the payload: loading recounts the
    // live slots, so it matches them by construction.
    const std::size_t firstLive =
        firstAcked + 8 + 8 + (8 + 8 + 8 + 4 + 1) - 1;
    ASSERT_EQ(payload[firstLive], 1);
    std::string settled = payload;
    settled[firstLive] = 0;
    auto rel = makeRel64();
    loadPayload(*rel, settled);
    EXPECT_EQ(rel->pendingCount(), 3u);
}

} // namespace
