/**
 * @file
 * Minimal JSON tree: parser and writer for the daemon's newline-
 * delimited protocol (src/daemon) and its checkpoint manifests.
 *
 * Deliberately small — objects, arrays, strings, numbers, booleans,
 * null — with two properties the daemon needs that a generic library
 * would not guarantee:
 *
 *  - integers round-trip exactly: a number token with no '.', 'e' or
 *    leading '-' that fits a uint64 is kept as one (seeds are 64-bit;
 *    a double would quietly corrupt anything above 2^53);
 *  - object keys keep insertion order, so dumped documents are
 *    byte-stable across runs (the smoke gate diffs them).
 *
 * Parse errors throw json::Error with a byte offset. It is also the
 * repository's one JSON validator: the tests check emitted documents
 * (traces, stats, metrics) by parsing them.
 */

#ifndef TTDA_COMMON_JSON_HH
#define TTDA_COMMON_JSON_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sim::json
{

/** Malformed document (parse) or wrong-shape access (as* helpers). */
class Error : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One JSON value; a tree of these is a document. */
class Value
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Int,  //!< exact unsigned/negative-integer token
        Num,  //!< any other number (double)
        Str,
        Arr,
        Obj,
    };

    Value() = default;
    static Value null() { return Value{}; }
    static Value boolean(bool b);
    static Value intNum(std::uint64_t v, bool negative = false);
    static Value num(double d);
    static Value str(std::string s);
    static Value arr();
    static Value obj();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObj() const { return kind_ == Kind::Obj; }
    bool isArr() const { return kind_ == Kind::Arr; }
    bool isStr() const { return kind_ == Kind::Str; }
    bool isNumber() const
    {
        return kind_ == Kind::Int || kind_ == Kind::Num;
    }
    bool isBool() const { return kind_ == Kind::Bool; }

    bool asBool() const;
    /** Any number as double (Int converts; may round above 2^53). */
    double asDouble() const;
    /** Exact non-negative integer; throws on negatives, doubles with
     *  a fractional part, or non-numbers. */
    std::uint64_t asU64() const;
    std::int64_t asI64() const;
    const std::string &asStr() const;

    /** Int-kind introspection (used by the writer). */
    bool intIsNegative() const { return kind_ == Kind::Int && neg_; }
    std::uint64_t intMagnitude() const { return i_; }

    // ---- arrays ----------------------------------------------------
    std::size_t size() const;
    const Value &at(std::size_t i) const;
    void push(Value v);

    // ---- objects ---------------------------------------------------
    bool has(std::string_view key) const;
    /** Member access; throws Error when absent or not an object. */
    const Value &get(std::string_view key) const;
    /** Member access; null-kind sentinel when absent. */
    const Value &opt(std::string_view key) const;
    void set(std::string key, Value v);
    const std::vector<std::pair<std::string, Value>> &members() const;

    /** Serialize (no whitespace; keys in insertion order). */
    std::string dump() const;

  private:
    Kind kind_ = Kind::Null;
    bool b_ = false;
    bool neg_ = false;        //!< Int: token had a leading '-'
    std::uint64_t i_ = 0;     //!< Int magnitude
    double d_ = 0.0;          //!< Num
    std::string s_;           //!< Str
    std::vector<Value> arr_;  //!< Arr
    std::vector<std::pair<std::string, Value>> obj_; //!< Obj, ordered
};

/** Parse one complete document; trailing garbage is an error. */
Value parse(std::string_view text);

/** Escape a string for embedding in a JSON document (no quotes). */
std::string escape(std::string_view s);

} // namespace sim::json

#endif // TTDA_COMMON_JSON_HH
