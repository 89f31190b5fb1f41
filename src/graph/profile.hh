/**
 * @file
 * Cross-tier hot-spot profiler over the dense source-instruction
 * index space.
 *
 * Every execution tier — the cycle-level Machine, the direct
 * emulator, and the compiled scalar/lane VMs — can attribute its
 * activity to the *source* dataflow instruction that caused it, using
 * the shared global index `Program::instrIndexOffsets()[cb] + stmt`.
 * An InstrProfile is the common container for that attribution:
 * per-instruction fire counts plus (for the cycle-level tiers)
 * latency-weighted cycle counts. Because all tiers index the same
 * space, profiles are directly comparable across tiers — the basis of
 * the profiler-parity tests.
 *
 * Two report writers:
 *  - writeTopN: a ranked hot-instruction table (by attributed cycles,
 *    falling back to fires when no cycle attribution exists);
 *  - writeFolded: collapsed-stack ("flamegraph") lines, folding each
 *    code block into its static caller chain recovered from
 *    LoopEntry/Apply target links.
 */

#ifndef TTDA_GRAPH_PROFILE_HH
#define TTDA_GRAPH_PROFILE_HH

#include <cstdint>
#include <ostream>
#include <vector>

namespace graph
{

class Program;

/** Per-source-instruction activity attribution, indexed by the dense
 *  global instruction index (Program::instrIndexOffsets). */
struct InstrProfile
{
    std::vector<std::uint64_t> fires;  //!< source-level firings
    std::vector<std::uint64_t> cycles; //!< attributed busy cycles

    /** Size both arrays for a program's index space (zero-filled). */
    void
    resize(std::size_t n)
    {
        fires.assign(n, 0);
        cycles.assign(n, 0);
    }

    bool empty() const { return fires.empty(); }

    /** True when no activity was attributed at all. */
    bool
    allZero() const
    {
        for (std::uint64_t f : fires)
            if (f)
                return false;
        for (std::uint64_t c : cycles)
            if (c)
                return false;
        return true;
    }

    /** Fold another profile into this one (element-wise sums). */
    void merge(const InstrProfile &other);
};

/** Human-readable table of the `topN` hottest instructions, ranked by
 *  attributed cycles (fires break ties; pure-fire profiles from the
 *  emulation tiers rank by fires). Labels read `cbName:stmt opcode`. */
void writeTopN(std::ostream &os, const Program &program,
               const InstrProfile &prof, std::size_t topN);

/**
 * Collapsed-stack export (one `frame;frame;leaf weight` line per
 * instruction with activity), consumable by standard flamegraph
 * tooling. The stack is the *static* call chain: each code block is
 * folded under the block containing the LoopEntry/Apply that targets
 * it, when that caller is unique; blocks with zero or multiple static
 * callers root their own stack. Recursive chains are cut at the
 * repeat. Weight is attributed cycles when any exist, else fires.
 */
void writeFolded(std::ostream &os, const Program &program,
                 const InstrProfile &prof);

} // namespace graph

#endif // TTDA_GRAPH_PROFILE_HH
