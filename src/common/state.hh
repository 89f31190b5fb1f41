/**
 * @file
 * One field list per stateful component: reset, snapshot save and
 * snapshot load derived from a single `visitState`.
 *
 * A component names its run-state fields once,
 *
 *     template <class V>
 *     void
 *     visitState(V &v)
 *     {
 *         v(now_, queue_, stats_);
 *     }
 *
 * (a plain struct may instead have a free `visitState(V &, T &)` that
 * argument-dependent lookup finds), and three visitors derive from that
 * one list the operations that used to be written out per component:
 *
 *  - reset(x):   every field back to its just-constructed value;
 *  - save(w, x): every field appended to a snapshot writer, in list
 *                order;
 *  - load(r, x): the same fields read back from a snapshot reader.
 *
 * A field left out of the list is neither reset nor checkpointed, and a
 * field in it is both, so "serialized = exactly what reset() clears"
 * holds by construction. Configuration (wiring, latencies, routing
 * tables) stays out of the list: it survives reset and the restoring
 * owner rebuilds it.
 *
 * What each visitor does with a field follows from the field's type:
 *
 *   field type                     reset               encoding
 *   -----------------------------  ------------------  ----------------
 *   has visitState                 each field, then    each field
 *                                  x.onReset() if any
 *   bool                           false               one byte, 0 or 1
 *   unsigned / int64 / double      zero                LE, own width
 *   std::string                    emptied             byte count, bytes
 *   Counter/Accumulator/Histogram  reset()             value; moments;
 *                                                      moments + bins
 *   Rng                            rewind to its seed  four state words
 *   vector, RingQueue, set, map,   emptied (capacity   count, then each
 *   unordered_map, FlatHashMap     kept)               element / pair
 *   EventHeap                      emptied             count, (key, seq,
 *                                                      value) in storage
 *                                                      order, next seq
 *   anything else (graph::Value,   reset() if it has   its own ADL
 *   the I-structure cell store)    one, else T{}       snapSave/snapLoad
 *
 * Three wrappers say what the type alone cannot:
 *
 *  - fixed(c): a vector, or nested vectors, whose shape is
 *    configuration (one queue per port, one pointer per switch). Each
 *    element is reset, saved and loaded in place; no count is written.
 *  - sized(c, what): like fixed, but the element count is written, and
 *    a count that differs from the configured one fails the load.
 *  - bounded(x, max, what): an enum or integer whose loaded value must
 *    not exceed `max`. Enum fields must use it, so none is ever decoded
 *    unchecked.
 *
 * Reset zeroes, whatever a field's default member initializer says. A
 * component whose fresh state is not all zero re-establishes it in an
 * `onReset()` member, which reset calls after zeroing the fields.
 *
 * The writer and reader are template parameters (common/snapshot.hh
 * provides the real ones), so this header does not depend on the
 * snapshot format. Loading never lets a count read from the payload
 * size an allocation: elements are decoded one at a time, and a lying
 * count runs into the reader's bounds check.
 */

#ifndef TTDA_COMMON_STATE_HH
#define TTDA_COMMON_STATE_HH

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/eventheap.hh"
#include "common/flatmap.hh"
#include "common/random.hh"
#include "common/ringqueue.hh"
#include "common/stats.hh"

namespace sim::state
{

/** A container whose shape is configuration; see the file comment. */
template <class C>
struct Fixed
{
    C &c;
};

template <class C>
Fixed<C>
fixed(C &c)
{
    return {c};
}

/** A fixed-shape vector whose element count is checked on load. */
template <class C>
struct Sized
{
    C &c;
    const char *what; //!< load error when the count differs
};

template <class C>
Sized<C>
sized(C &c, const char *what)
{
    return {c, what};
}

/** An enum or integer field with an upper bound checked on load. */
template <class T>
struct Bounded
{
    T &x;
    T max;
    const char *what; //!< load error when the value exceeds max
};

template <class T>
Bounded<T>
bounded(T &x, std::type_identity_t<T> max, const char *what)
{
    return {x, max, what};
}

namespace detail
{

template <class>
inline constexpr bool kAlwaysFalse = false;

template <class T>
struct IsVector : std::false_type
{
};

template <class T, class A>
struct IsVector<std::vector<T, A>> : std::true_type
{
};

/** The integer a Bounded field is encoded as. */
template <class T>
using BoundedRep = typename std::conditional_t<
    std::is_enum_v<T>, std::underlying_type<T>,
    std::type_identity<T>>::type;

} // namespace detail

/** Returns every field to its just-constructed value. */
struct Reset
{
    template <class... Ts>
    void
    operator()(Ts &&...xs)
    {
        (one(xs), ...);
    }

    template <class T>
    void
    one(T &x)
    {
        if constexpr (requires { x.visitState(*this); }) {
            x.visitState(*this);
            if constexpr (requires { x.onReset(); })
                x.onReset();
        } else if constexpr (requires { visitState(*this, x); }) {
            visitState(*this, x);
        } else if constexpr (std::is_arithmetic_v<T> ||
                             std::is_enum_v<T>) {
            x = T{};
        } else if constexpr (requires { x.reset(); }) {
            x.reset();
        } else if constexpr (requires { x.clear(); }) {
            x.clear();
        } else {
            x = T{};
        }
    }

    void one(Rng &rng) { rng.rewind(); }

    template <class C>
    void
    one(Fixed<C> &f)
    {
        for (auto &e : f.c)
            inPlace(e);
    }

    template <class C>
    void
    one(Sized<C> &s)
    {
        for (auto &e : s.c)
            inPlace(e);
    }

    template <class T>
    void
    one(Bounded<T> &b)
    {
        b.x = T{};
    }

  private:
    /** Elements of a fixed-shape container: nested vectors keep their
     *  shape too. */
    template <class T>
    void
    inPlace(T &e)
    {
        if constexpr (detail::IsVector<T>::value) {
            for (auto &inner : e)
                inPlace(inner);
        } else {
            one(e);
        }
    }
};

/** Appends every field to a snapshot writer. */
template <class W>
struct Save
{
    W &w;

    template <class... Ts>
    void
    operator()(const Ts &...xs)
    {
        (one(xs), ...);
    }

    // Saving only reads, but the field list is one non-const member
    // shared with reset and load.
    template <class T>
    void
    one(const T &x)
    {
        if constexpr (requires(T &m) { m.visitState(*this); }) {
            const_cast<T &>(x).visitState(*this);
        } else if constexpr (requires(T &m) { visitState(*this, m); }) {
            visitState(*this, const_cast<T &>(x));
        } else if constexpr (std::is_enum_v<T>) {
            static_assert(detail::kAlwaysFalse<T>,
                          "enum fields go through state::bounded()");
        } else if constexpr (std::is_arithmetic_v<T>) {
            prim(x);
        } else {
            snapSave(w, x);
        }
    }

    void one(const Counter &c) { w.u64(c.value()); }

    void one(const std::string &s) { w.str(s); }

    void
    one(const Accumulator &a)
    {
        w.f64(a.sum());
        w.u64(a.count());
        w.f64(a.min());
        w.f64(a.max());
    }

    void
    one(const Histogram &h)
    {
        one(h.summary());
        w.u64(h.underflow());
        w.u64(h.overflow());
        sequence(h.bins());
    }

    void
    one(const Rng &rng)
    {
        for (const std::uint64_t word : rng.state())
            w.u64(word);
    }

    template <class T, class A>
    void
    one(const std::vector<T, A> &v)
    {
        sequence(v);
    }

    template <class T>
    void
    one(const std::set<T> &s)
    {
        sequence(s);
    }

    template <class T>
    void
    one(const RingQueue<T> &q)
    {
        w.u64(q.size());
        for (std::size_t i = 0; i < q.size(); ++i)
            one(q.at(i));
    }

    template <class T>
    void
    one(const EventHeap<T> &h)
    {
        w.u64(h.size());
        h.forEachNode([this](Cycle key, std::uint64_t seq, const T &val) {
            w.u64(key);
            w.u64(seq);
            one(val);
        });
        w.u64(h.nextSeq());
    }

    template <class K, class V>
    void
    one(const std::map<K, V> &m)
    {
        pairs(m);
    }

    template <class K, class V, class H>
    void
    one(const std::unordered_map<K, V, H> &m)
    {
        pairs(m);
    }

    template <class K, class V, class H>
    void
    one(const FlatHashMap<K, V, H> &m)
    {
        w.u64(m.size());
        m.forEach([this](const K &k, const V &v) {
            one(k);
            one(v);
        });
    }

    template <class C>
    void
    one(const Fixed<C> &f)
    {
        for (const auto &e : f.c)
            inPlace(e);
    }

    template <class C>
    void
    one(const Sized<C> &s)
    {
        w.u64(s.c.size());
        for (const auto &e : s.c)
            inPlace(e);
    }

    template <class T>
    void
    one(const Bounded<T> &b)
    {
        prim(static_cast<detail::BoundedRep<T>>(b.x));
    }

  private:
    template <class T>
    void
    prim(T v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            w.b(v);
        } else if constexpr (std::is_floating_point_v<T>) {
            w.f64(v);
        } else if constexpr (std::is_signed_v<T>) {
            static_assert(sizeof(T) == 8, "signed fields are 64-bit");
            w.i64(v);
        } else if constexpr (sizeof(T) == 1) {
            w.u8(v);
        } else if constexpr (sizeof(T) == 2) {
            w.u16(v);
        } else if constexpr (sizeof(T) == 4) {
            w.u32(v);
        } else {
            w.u64(v);
        }
    }

    template <class C>
    void
    sequence(const C &c)
    {
        w.u64(c.size());
        for (const auto &e : c)
            one(e);
    }

    template <class M>
    void
    pairs(const M &m)
    {
        w.u64(m.size());
        for (const auto &[k, v] : m) {
            one(k);
            one(v);
        }
    }

    template <class T>
    void
    inPlace(const T &e)
    {
        if constexpr (detail::IsVector<T>::value) {
            for (const auto &inner : e)
                inPlace(inner);
        } else {
            one(e);
        }
    }
};

/** Reads every field back from a snapshot reader, replacing what the
 *  field held. */
template <class R>
struct Load
{
    R &r;

    template <class... Ts>
    void
    operator()(Ts &&...xs)
    {
        (one(xs), ...);
    }

    template <class T>
    void
    one(T &x)
    {
        if constexpr (requires { x.visitState(*this); }) {
            x.visitState(*this);
        } else if constexpr (requires { visitState(*this, x); }) {
            visitState(*this, x);
        } else if constexpr (std::is_enum_v<T>) {
            static_assert(detail::kAlwaysFalse<T>,
                          "enum fields go through state::bounded()");
        } else if constexpr (std::is_arithmetic_v<T>) {
            x = prim<T>();
        } else {
            snapLoad(r, x);
        }
    }

    void
    one(Counter &c)
    {
        c.reset();
        c.inc(r.u64());
    }

    void one(std::string &s) { s = r.str(); }

    void
    one(Accumulator &a)
    {
        const double sum = r.f64();
        const std::uint64_t count = r.u64();
        const double mn = r.f64();
        const double mx = r.f64();
        a.restore(sum, count, mn, mx);
    }

    void
    one(Histogram &h)
    {
        Accumulator acc;
        one(acc);
        const std::uint64_t underflow = r.u64();
        const std::uint64_t overflow = r.u64();
        if (r.u64() != h.bins().size())
            r.fail("histogram bin count does not match configuration");
        std::vector<std::uint64_t> bins(h.bins().size());
        for (std::uint64_t &b : bins)
            b = r.u64();
        h.restore(bins, underflow, overflow, acc);
    }

    void
    one(Rng &rng)
    {
        std::array<std::uint64_t, 4> st;
        for (std::uint64_t &word : st)
            word = r.u64();
        rng.setState(st);
    }

    template <class T, class A>
    void
    one(std::vector<T, A> &v)
    {
        v.clear();
        each<T>([&v](T &&e) { v.push_back(std::move(e)); });
    }

    template <class T>
    void
    one(std::set<T> &s)
    {
        s.clear();
        each<T>([&s](T &&e) { s.insert(std::move(e)); });
    }

    template <class T>
    void
    one(RingQueue<T> &q)
    {
        q.clear();
        each<T>([&q](T &&e) { q.push_back(std::move(e)); });
    }

    template <class T>
    void
    one(EventHeap<T> &h)
    {
        h.clear();
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            const Cycle key = r.u64();
            const std::uint64_t seq = r.u64();
            T val{};
            one(val);
            h.restoreNode(key, seq, std::move(val));
        }
        h.setNextSeq(r.u64());
    }

    template <class K, class V>
    void
    one(std::map<K, V> &m)
    {
        pairs(m);
    }

    template <class K, class V, class H>
    void
    one(std::unordered_map<K, V, H> &m)
    {
        pairs(m);
    }

    template <class K, class V, class H>
    void
    one(FlatHashMap<K, V, H> &m)
    {
        m.clear();
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            K k{};
            one(k);
            auto [v, inserted] = m.insert(k);
            if (!inserted)
                r.fail("duplicate hash-map key");
            one(*v);
        }
    }

    template <class C>
    void
    one(Fixed<C> &f)
    {
        for (auto &e : f.c)
            inPlace(e);
    }

    template <class C>
    void
    one(Sized<C> &s)
    {
        if (r.u64() != s.c.size())
            r.fail(s.what);
        for (auto &e : s.c)
            inPlace(e);
    }

    template <class T>
    void
    one(Bounded<T> &b)
    {
        const auto v = prim<detail::BoundedRep<T>>();
        if (v > static_cast<detail::BoundedRep<T>>(b.max))
            r.fail(b.what);
        b.x = static_cast<T>(v);
    }

  private:
    template <class T>
    T
    prim()
    {
        if constexpr (std::is_same_v<T, bool>) {
            return r.b();
        } else if constexpr (std::is_floating_point_v<T>) {
            return r.f64();
        } else if constexpr (std::is_signed_v<T>) {
            static_assert(sizeof(T) == 8, "signed fields are 64-bit");
            return r.i64();
        } else if constexpr (sizeof(T) == 1) {
            return r.u8();
        } else if constexpr (sizeof(T) == 2) {
            return r.u16();
        } else if constexpr (sizeof(T) == 4) {
            return r.u32();
        } else {
            return r.u64();
        }
    }

    /** Decode a count, then that many elements one at a time. */
    template <class T, class F>
    void
    each(F &&put)
    {
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            T e{};
            one(e);
            put(std::move(e));
        }
    }

    template <class M>
    void
    pairs(M &m)
    {
        m.clear();
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            typename M::key_type k{};
            one(k);
            typename M::mapped_type v{};
            one(v);
            m.emplace(std::move(k), std::move(v));
        }
    }

    template <class T>
    void
    inPlace(T &e)
    {
        if constexpr (detail::IsVector<T>::value) {
            for (auto &inner : e)
                inPlace(inner);
        } else {
            one(e);
        }
    }
};

/** Return `x` to its just-constructed run state. */
template <class T>
void
reset(T &x)
{
    Reset v;
    v(x);
}

/** Append `x`'s run state to snapshot writer `w`. */
template <class W, class T>
void
save(W &w, const T &x)
{
    Save<W> v{w};
    v(x);
}

/** Replace `x`'s run state with the next one in snapshot reader `r`. */
template <class R, class T>
void
load(R &r, T &x)
{
    Load<R> v{r};
    v(x);
}

} // namespace sim::state

#endif // TTDA_COMMON_STATE_HH
