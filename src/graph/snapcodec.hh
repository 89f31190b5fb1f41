/**
 * @file
 * Field lists (see common/state.hh) for the graph-layer types that
 * appear inside machine run state: tags, continuations, destination
 * records, tokens, I-structure continuations and enabled
 * instructions; plus the one custom codec, for dynamically typed
 * values.
 *
 * The field lists are free functions found by argument-dependent
 * lookup, so the hot-path headers that define the types stay free of
 * checkpoint concerns. Include this header wherever a machine's state
 * is saved or loaded.
 */

#ifndef TTDA_GRAPH_SNAPCODEC_HH
#define TTDA_GRAPH_SNAPCODEC_HH

#include <cstdint>

#include "common/state.hh"
#include "graph/exec.hh"
#include "graph/program.hh"
#include "graph/tag.hh"
#include "graph/token.hh"
#include "graph/value.hh"

namespace graph
{

template <class V>
void
visitState(V &v, Tag &t)
{
    v(t.ctx, t.codeBlock, t.stmt, t.iter);
}

template <class V>
void
visitState(V &v, Continuation &c)
{
    v(c.tag, c.port, c.nt);
}

template <class V>
void
visitState(V &v, Dest &d)
{
    v(d.stmt, d.port);
}

template <class V>
void
visitState(V &v, Token &t)
{
    v(sim::state::bounded(t.kind, TokenKind::Output, "bad token kind"),
      t.pe, t.tag, t.port, t.nt, t.data, t.addr, t.aux, t.reply, t.seq,
      t.born);
}

template <class V>
void
visitState(V &v, IsCont &c)
{
    v(c.toCell, c.born, c.cont, c.cellAddr);
}

template <class V>
void
visitState(V &v, EnabledInstruction &e)
{
    v(e.tag, e.operands);
}

/** Values encode as the variant alternative index plus the payload of
 *  that alternative. Reals round-trip as raw bit patterns. */
template <typename W>
void
snapSave(W &w, const Value &v)
{
    w.u8(static_cast<std::uint8_t>(v.rep().index()));
    if (v.isBool()) {
        w.b(v.asBool());
    } else if (v.isInt()) {
        w.i64(v.asInt());
    } else if (v.isReal()) {
        w.f64(std::get<double>(v.rep()));
    } else if (v.isFn()) {
        w.u16(v.asFn().codeBlock);
    } else if (v.isPtr()) {
        w.u64(v.asPtr().base);
        w.u32(v.asPtr().length);
    }
}

template <typename R>
void
snapLoad(R &r, Value &v)
{
    switch (r.u8()) {
      case 0:
        v = Value{};
        break;
      case 1:
        v = Value{r.b()};
        break;
      case 2:
        v = Value{r.i64()};
        break;
      case 3:
        v = Value{r.f64()};
        break;
      case 4:
        v = Value{FnRef{r.u16()}};
        break;
      case 5: {
        IPtr p;
        p.base = r.u64();
        p.length = r.u32();
        v = Value{p};
        break;
      }
      default:
        r.fail("bad value alternative");
    }
}

} // namespace graph

#endif // TTDA_GRAPH_SNAPCODEC_HH
