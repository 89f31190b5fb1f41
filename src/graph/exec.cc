#include "graph/exec.hh"

#include "common/logging.hh"
#include "graph/arith.hh"

namespace graph
{

namespace
{

/** Apply-site ids live above the builder-assigned loop-site range so
 *  the two can never collide in the context intern table. */
constexpr std::uint32_t applySiteBase = 0x10000;

} // namespace

Token
Executor::makeToken(const Tag &tag, std::uint16_t cb, const Dest &d,
                    const Value &v) const
{
    Token t;
    t.kind = TokenKind::Normal;
    t.tag = Tag{tag.ctx, cb, d.stmt, tag.iter};
    t.port = d.port;
    t.nt = program_.instruction(cb, d.stmt).nt;
    t.data = v;
    return t;
}

void
Executor::execute(const EnabledInstruction &enabled,
                  std::vector<Token> &out)
{
    const Tag &tag = enabled.tag;
    const Instruction &in = program_.instruction(tag.codeBlock, tag.stmt);
    const auto &ops = enabled.operands;
    const std::size_t expected = in.nt + (in.constant ? 1u : 0u);
    SIM_ASSERT_MSG(ops.size() == expected,
                   "{}:{} {} fired with {} operands, expected {}",
                   tag.codeBlock, tag.stmt, opcodeName(in.op),
                   ops.size(), expected);

    auto emit_all = [&](const std::vector<Dest> &dests, const Value &v) {
        for (const Dest &d : dests)
            out.push_back(makeToken(tag, tag.codeBlock, d, v));
    };

    switch (in.op) {
      case Opcode::Ident:
        emit_all(in.dests, ops[0]);
        break;

      case Opcode::Lit:
        // The token operand is only a trigger; the constant (appended
        // as the final operand) is the result.
        emit_all(in.dests, ops.back());
        break;

      case Opcode::Output: {
        Token t;
        t.kind = TokenKind::Output;
        t.tag = tag;
        t.data = ops[0];
        out.push_back(std::move(t));
        break;
      }

      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Div:
      case Opcode::Mod:
        emit_all(in.dests, arithValue(in.op, ops[0], ops[1]));
        break;

      case Opcode::Neg:
        emit_all(in.dests, negValue(ops[0]));
        break;

      case Opcode::Lt:
      case Opcode::Le:
      case Opcode::Gt:
      case Opcode::Ge:
      case Opcode::Eq:
      case Opcode::Ne:
        emit_all(in.dests, compareValue(in.op, ops[0], ops[1]));
        break;

      case Opcode::And:
        emit_all(in.dests, Value{ops[0].asBool() && ops[1].asBool()});
        break;
      case Opcode::Or:
        emit_all(in.dests, Value{ops[0].asBool() || ops[1].asBool()});
        break;
      case Opcode::Not:
        emit_all(in.dests, Value{!ops[0].asBool()});
        break;

      case Opcode::Switch:
        // Port 0 = datum, port 1 = control.
        emit_all(ops[1].asBool() ? in.dests : in.falseDests, ops[0]);
        break;

      case Opcode::LoopEntry: {
        // L: move the value into a fresh context for the loop block,
        // iteration 1. Sibling Ls of this loop invocation intern the
        // same child context.
        const ContextId child = contexts_.intern(
            tag, in.site, in.targetCb, {},
            program_.codeBlock(in.targetCb).numExits);
        for (const Dest &d : in.dests) {
            Token t = makeToken(Tag{child, in.targetCb, 0, 1},
                                in.targetCb, d, ops[0]);
            out.push_back(std::move(t));
        }
        break;
      }

      case Opcode::LoopNext: // D: i := i + 1
        for (const Dest &d : in.dests) {
            Token t = makeToken(tag, tag.codeBlock, d, ops[0]);
            t.tag.iter = tag.iter + 1;
            out.push_back(std::move(t));
        }
        break;

      case Opcode::LoopReset: // D⁻¹: i := 1
        for (const Dest &d : in.dests) {
            Token t = makeToken(tag, tag.codeBlock, d, ops[0]);
            t.tag.iter = 1;
            out.push_back(std::move(t));
        }
        break;

      case Opcode::LoopExit: { // L⁻¹: restore the caller's tag fields
        const ContextInfo &info = contexts_.info(tag.ctx);
        const Tag caller = info.caller;
        for (const Dest &d : in.dests)
            out.push_back(makeToken(caller, caller.codeBlock, d,
                                    ops[0]));
        // Every LoopExit fires exactly once per invocation; the last
        // one reclaims the loop's context id.
        contexts_.noteExit(tag.ctx);
        break;
      }

      case Opcode::Apply: {
        // Two forms: dynamic apply takes the function on port 0;
        // static apply carries it as the instruction constant (which
        // fire() appended as the *last* operand).
        const bool is_static = in.constant && in.constant->isFn();
        const FnRef fn =
            is_static ? ops.back().asFn() : ops[0].asFn();
        const std::size_t arg_begin = is_static ? 0 : 1;
        const std::size_t arg_end = is_static ? ops.size() - 1
                                              : ops.size();
        const CodeBlock &callee = program_.codeBlock(fn.codeBlock);
        const std::size_t nargs = arg_end - arg_begin;
        SIM_ASSERT_MSG(nargs == callee.numParams,
                       "APPLY of '{}' with {} args, expected {}",
                       callee.name, nargs, callee.numParams);
        const ContextId child = contexts_.intern(
            tag, applySiteBase + tag.stmt, fn.codeBlock, in.dests);
        for (std::size_t j = 0; j < nargs; ++j) {
            out.push_back(makeToken(
                Tag{child, fn.codeBlock, 0, 1}, fn.codeBlock,
                Dest{static_cast<std::uint16_t>(j), 0},
                ops[arg_begin + j]));
        }
        break;
      }

      case Opcode::Return: {
        const ContextInfo &info = contexts_.info(tag.ctx);
        const Tag caller = info.caller;
        for (const Dest &d : info.resultDests)
            out.push_back(makeToken(caller, caller.codeBlock, d,
                                    ops[0]));
        contexts_.release(tag.ctx);
        break;
      }

      case Opcode::Alloc: {
        SIM_ASSERT_MSG(in.dests.size() == 1,
                       "ALLOC needs exactly one destination (insert an "
                       "IDENT fan-out)");
        const std::int64_t n = ops[0].asInt();
        SIM_ASSERT_MSG(n >= 0, "ALLOC of negative size {}", n);
        Token t;
        t.kind = TokenKind::IsAlloc;
        t.data = Value{n};
        const Dest &d = in.dests[0];
        t.reply = Continuation{
            Tag{tag.ctx, tag.codeBlock, d.stmt, tag.iter}, d.port,
            program_.instruction(tag.codeBlock, d.stmt).nt};
        out.push_back(std::move(t));
        break;
      }

      case Opcode::IFetch: {
        SIM_ASSERT_MSG(in.dests.size() == 1,
                       "I-FETCH needs exactly one destination (insert "
                       "an IDENT fan-out)");
        const IPtr ptr = ops[0].asPtr();
        const std::int64_t idx = ops[1].asInt();
        SIM_ASSERT_MSG(idx >= 0 && idx < ptr.length,
                       "I-FETCH index {} out of bounds [0,{})", idx,
                       ptr.length);
        Token t;
        t.kind = TokenKind::IsFetch;
        t.addr = ptr.base + static_cast<std::uint64_t>(idx);
        const Dest &d = in.dests[0];
        t.reply = Continuation{
            Tag{tag.ctx, tag.codeBlock, d.stmt, tag.iter}, d.port,
            program_.instruction(tag.codeBlock, d.stmt).nt};
        out.push_back(std::move(t));
        break;
      }

      case Opcode::IStore: {
        const IPtr ptr = ops[0].asPtr();
        const std::int64_t idx = ops[1].asInt();
        SIM_ASSERT_MSG(idx >= 0 && idx < ptr.length,
                       "I-STORE index {} out of bounds [0,{})", idx,
                       ptr.length);
        Token t;
        t.kind = TokenKind::IsStore;
        t.addr = ptr.base + static_cast<std::uint64_t>(idx);
        t.data = ops[2];
        out.push_back(std::move(t));
        break;
      }

      case Opcode::Append: {
        SIM_ASSERT_MSG(in.dests.size() == 1,
                       "APPEND needs exactly one destination (insert "
                       "an IDENT fan-out)");
        const IPtr ptr = ops[0].asPtr();
        const std::int64_t idx = ops[1].asInt();
        SIM_ASSERT_MSG(idx >= 0 && idx < ptr.length,
                       "APPEND index {} out of bounds [0,{})", idx,
                       ptr.length);
        Token t;
        t.kind = TokenKind::IsAppend;
        t.addr = ptr.base;
        t.aux = (static_cast<std::uint64_t>(ptr.length) << 32) |
                static_cast<std::uint64_t>(idx);
        t.data = ops[2];
        const Dest &d = in.dests[0];
        t.reply = Continuation{
            Tag{tag.ctx, tag.codeBlock, d.stmt, tag.iter}, d.port,
            program_.instruction(tag.codeBlock, d.stmt).nt};
        out.push_back(std::move(t));
        break;
      }
    }
}

} // namespace graph
