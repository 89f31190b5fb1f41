/**
 * @file
 * ContextManager: maps the unbounded activity-name space onto finite
 * runtime context ids (paper Section 2.2.2: "Activity names define an
 * unbounded namespace. Names in this space are mapped dynamically into
 * a finite namespace.").
 *
 * A context is created when a code block is invoked:
 *  - APPLY interns a child context for (caller activity, call site)
 *    and records where the callee's RETURN must send results;
 *  - every L operator of one loop invocation interns the *same* child
 *    context, keyed by (caller ctx, caller iter, loop site), so the
 *    circulating tokens can find their partners inside the loop block.
 *
 * The manager is modelled as a single shared service; the real machine
 * distributes these tables across PEs. The simplification is documented
 * in DESIGN.md — context operations are charged as ordinary instruction
 * execution time.
 */

#ifndef TTDA_GRAPH_CONTEXT_HH
#define TTDA_GRAPH_CONTEXT_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "graph/program.hh"
#include "graph/tag.hh"

namespace graph
{

/** What the machine remembers about one code block invocation. */
struct ContextInfo
{
    Tag caller;                    //!< activity that created the context
    std::uint16_t targetCb = 0;    //!< block executing in this context
    std::vector<Dest> resultDests; //!< where RETURN/L⁻¹ results go
    //! Loop contexts: LoopExit firings still expected before the
    //! context id can be reclaimed (0 = never reclaimed).
    std::uint16_t remainingExits = 0;

    template <class V>
    void
    visitState(V &v)
    {
        v(caller, targetCb, resultDests, remainingExits);
    }
};

/** Shared runtime table of live contexts. */
class ContextManager
{
  public:
    ContextManager();

    /**
     * Find or create the child context for an invocation.
     *
     * @param caller       the invoking activity (its ctx/cb/iter
     *                     identify the invocation; stmt is ignored for
     *                     loops so sibling L operators agree)
     * @param site         call/loop site id, unique within the caller
     * @param target_cb    the block the child executes
     * @param result_dests destinations (in the caller's block) for the
     *                     child's results; recorded on first intern
     */
    ContextId intern(const Tag &caller, std::uint32_t site,
                     std::uint16_t target_cb,
                     const std::vector<Dest> &result_dests,
                     std::uint16_t expected_exits = 0);

    /** Look up a live context. Fatal if the id is unknown. */
    const ContextInfo &info(ContextId id) const;

    /** Release a context (RETURN). The id is never reused within a
     *  run, so stale tokens are detected rather than misrouted. */
    void release(ContextId id);

    /** Record one LoopExit firing; reclaims the context after the
     *  last expected exit. */
    void noteExit(ContextId id);

    std::uint64_t totalReleased() const { return released_.value(); }

    std::size_t liveContexts() const { return live_.size(); }
    std::uint64_t peakContexts() const { return peak_; }
    std::uint64_t totalCreated() const { return created_.value(); }

    /**
     * The root-level initiation number a context descends from: walk
     * the caller chain to the activity that runs directly in the root
     * context and return its iter field. The serving fast path injects
     * request r with iter r+1, so this attributes any context — however
     * deeply nested its invocation — to the request that spawned it.
     * Returns 0 when a context along the chain has been released.
     */
    std::uint32_t rootIter(ContextId id) const;

    /** The whole table; a reset drops everything except the root
     *  context. Hash-map iteration order is rebuilt on load, not
     *  preserved — nothing behavioural reads it (lookups are by key;
     *  only forensics iterate). */
    template <class V>
    void
    visitState(V &v)
    {
        v(interned_, live_, next_, peak_, created_, released_);
    }

    /** The non-zero part of a fresh table: the live root context. */
    void onReset();

  private:
    struct Key
    {
        ContextId ctx;
        std::uint32_t iter;
        std::uint32_t site;

        bool operator==(const Key &) const = default;

        template <class V>
        void
        visitState(V &v)
        {
            v(ctx, iter, site);
        }
    };

    struct KeyHash
    {
        std::size_t
        operator()(const Key &k) const
        {
            std::uint64_t z = (static_cast<std::uint64_t>(k.ctx) << 32) ^
                              (static_cast<std::uint64_t>(k.iter) << 8) ^
                              k.site;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            return static_cast<std::size_t>(z ^ (z >> 31));
        }
    };

    std::unordered_map<Key, ContextId, KeyHash> interned_;
    std::unordered_map<ContextId, ContextInfo> live_;
    ContextId next_ = 0;
    std::uint64_t peak_ = 0;
    sim::Counter created_;
    sim::Counter released_;
};

} // namespace graph

#endif // TTDA_GRAPH_CONTEXT_HH
