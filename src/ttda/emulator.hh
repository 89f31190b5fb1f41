/**
 * @file
 * Emulator: the fast, untimed execution engine (the right-hand prong
 * of the paper's Figure 3-1 development plan).
 *
 * Like the MIT emulation facility, it interprets the same compiled
 * graphs as the detailed simulator but abstracts away internal machine
 * timing: tokens are processed in breadth-first *waves*, where wave
 * k+1 holds exactly the tokens produced by wave k. Wave boundaries
 * therefore measure the program's inherent dataflow depth, and the
 * number of instructions fired per wave is the program's ideal
 * parallelism profile — with unbounded PEs and unit latency, wave
 * count is the critical-path length.
 *
 * The firing rules, context management, and I-structure semantics are
 * the same graph::Executor / mem::IStructure code the detailed machine
 * uses, so the two engines can be cross-checked operation-for-
 * operation (experiment E10).
 */

#ifndef TTDA_TTDA_EMULATOR_HH
#define TTDA_TTDA_EMULATOR_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "graph/context.hh"
#include "graph/exec.hh"
#include "graph/program.hh"
#include "graph/token.hh"
#include "mem/istructure.hh"

namespace ttda
{

/** A value delivered by an OUTPUT instruction. */
struct OutputRecord
{
    graph::Tag tag;
    graph::Value value;

    template <class V>
    void
    visitState(V &v)
    {
        v(tag, value);
    }
};

/** Untimed wave-based interpreter for tagged-token dataflow graphs. */
class Emulator
{
  public:
    struct Stats
    {
        std::uint64_t fired = 0;       //!< activities executed
        std::uint64_t tokens = 0;      //!< tokens produced
        std::uint64_t waves = 0;       //!< dataflow depth executed
        std::uint64_t maxWaveWidth = 0; //!< peak ideal parallelism
        double avgParallelism = 0.0;   //!< fired / waves
        std::vector<std::uint64_t> profile; //!< fired per wave
    };

    /**
     * @param program   the compiled graphs (must outlive the emulator)
     * @param is_words  I-structure storage capacity
     */
    explicit Emulator(const graph::Program &program,
                      std::size_t is_words = 1u << 20);

    /** Inject an input value into `param` of code block `cb` (root
     *  context, iteration 1). Call before run(). */
    void input(std::uint16_t cb, std::uint16_t param, graph::Value v);

    /**
     * Run to quiescence. @return the OUTPUT records, in the order they
     * were produced. Fatal if max_fired activities execute without
     * quiescing (runaway program).
     */
    std::vector<OutputRecord> run(std::uint64_t max_fired = 100'000'000);

    const Stats &stats() const { return stats_; }

    /** Opt into per-instruction activity counting: fireCounts()[i]
     *  then holds the number of times the instruction with global
     *  index i (see Program::instrIndexOffsets) fired. Off by default
     *  (the counters cost a vector indexing per activity). Call
     *  before run(). */
    void enableFireCounts();

    /** Per-instruction activity counts (empty unless enabled). */
    const std::vector<std::uint64_t> &fireCounts() const
    {
        return fireCounts_;
    }

    /** Deferred reads still parked after run(): nonzero means the
     *  program deadlocked on a never-written I-structure cell. */
    std::size_t outstandingReads() const
    {
        return istructure_.outstandingReads();
    }

    const mem::IStructureStats &
    istructureStats() const
    {
        return istructure_.stats();
    }

    graph::ContextManager &contexts() { return contexts_; }

    /** Direct I-structure access for workload setup/inspection. */
    mem::IStructure<graph::IsCont, graph::Value> &
    istructureRaw()
    {
        return istructure_;
    }

  private:
    /** Deliver one token: match, fire, and collect produced tokens. */
    void deliver(graph::Token tok, std::deque<graph::Token> &next);

    /** Fire an activity whose operands are complete. */
    void fire(const graph::Tag &tag, std::vector<graph::Value> operands,
              std::deque<graph::Token> &next);

    struct Waiting
    {
        std::vector<graph::Value> slots;
        std::uint8_t arrived = 0;
        std::uint8_t expected = 0;
    };

    const graph::Program &program_;
    graph::ContextManager contexts_;
    graph::Executor executor_;
    mem::IStructure<graph::IsCont, graph::Value> istructure_;
    std::unordered_map<graph::Tag, Waiting, graph::TagHash> waiting_;
    std::deque<graph::Token> wave_;
    std::vector<OutputRecord> outputs_;
    Stats stats_;
    std::vector<std::uint64_t> fireCounts_;
    std::vector<std::size_t> instrOffsets_;
};

} // namespace ttda

#endif // TTDA_TTDA_EMULATOR_HH
