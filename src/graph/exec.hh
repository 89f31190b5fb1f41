/**
 * @file
 * Firing semantics shared by the detailed machine and the fast
 * emulator (the paper's Figure 3-1 duality).
 *
 * execute() takes one enabled instruction — opcode plus the matched
 * operand set — and produces the output tokens. It performs no timing,
 * no PE mapping and no I-structure access: structure operations come
 * back as d=1 tokens for the caller's I-structure controller to
 * service, so both engines share identical semantics and can be
 * checked against each other instruction-for-instruction (experiment
 * E10).
 */

#ifndef TTDA_GRAPH_EXEC_HH
#define TTDA_GRAPH_EXEC_HH

#include <span>
#include <vector>

#include "graph/context.hh"
#include "graph/program.hh"
#include "graph/token.hh"

namespace graph
{

/** An enabled instruction: everything the ALU needs (paper: "no other
 *  information is needed to carry out the operation save that which is
 *  in this enabled instruction packet"). */
struct EnabledInstruction
{
    Tag tag;                     //!< the firing activity
    std::vector<Value> operands; //!< by port, constants appended
};

/** Executes enabled instructions against a program + context table. */
class Executor
{
  public:
    Executor(const Program &program, ContextManager &contexts)
        : program_(program), contexts_(contexts)
    {
    }

    /**
     * Fire one activity, appending the produced tokens to `out`
     * (Normal tokens have pe unset; the caller's output section
     * assigns it). `out` is not cleared, so a caller on the hot path
     * can reuse one buffer across fires without reallocating.
     */
    void execute(const EnabledInstruction &enabled,
                 std::vector<Token> &out);

    /** Convenience wrapper that returns a fresh token vector. */
    std::vector<Token>
    execute(const EnabledInstruction &enabled)
    {
        std::vector<Token> out;
        execute(enabled, out);
        return out;
    }

    const Program &program() const { return program_; }
    ContextManager &contexts() { return contexts_; }

  private:
    /** Build the Normal token for edge `d` of the firing instruction,
     *  staying in `tag`'s context. */
    Token makeToken(const Tag &tag, std::uint16_t cb, const Dest &d,
                    const Value &v) const;

    const Program &program_;
    ContextManager &contexts_;
};

} // namespace graph

#endif // TTDA_GRAPH_EXEC_HH
