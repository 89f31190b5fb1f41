#include "common/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/format.hh"

namespace sim::json
{

// ---- construction ---------------------------------------------------

Value
Value::boolean(bool b)
{
    Value v;
    v.kind_ = Kind::Bool;
    v.b_ = b;
    return v;
}

Value
Value::intNum(std::uint64_t n, bool negative)
{
    Value v;
    v.kind_ = Kind::Int;
    v.i_ = n;
    v.neg_ = negative && n != 0;
    return v;
}

Value
Value::num(double d)
{
    Value v;
    v.kind_ = Kind::Num;
    v.d_ = d;
    return v;
}

Value
Value::str(std::string s)
{
    Value v;
    v.kind_ = Kind::Str;
    v.s_ = std::move(s);
    return v;
}

Value
Value::arr()
{
    Value v;
    v.kind_ = Kind::Arr;
    return v;
}

Value
Value::obj()
{
    Value v;
    v.kind_ = Kind::Obj;
    return v;
}

// ---- accessors ------------------------------------------------------

namespace
{

[[noreturn]] void
wrongKind(const char *want)
{
    throw Error(std::string("json: value is not ") + want);
}

const Value &
nullSentinel()
{
    static const Value v;
    return v;
}

} // namespace

bool
Value::asBool() const
{
    if (kind_ != Kind::Bool)
        wrongKind("a boolean");
    return b_;
}

double
Value::asDouble() const
{
    if (kind_ == Kind::Num)
        return d_;
    if (kind_ == Kind::Int) {
        const double m = static_cast<double>(i_);
        return neg_ ? -m : m;
    }
    wrongKind("a number");
}

std::uint64_t
Value::asU64() const
{
    if (kind_ == Kind::Int) {
        if (neg_)
            wrongKind("a non-negative integer");
        return i_;
    }
    if (kind_ == Kind::Num) {
        if (d_ < 0 || d_ != std::floor(d_) ||
            d_ >= 18446744073709551616.0)
            wrongKind("a non-negative integer");
        return static_cast<std::uint64_t>(d_);
    }
    wrongKind("a non-negative integer");
}

std::int64_t
Value::asI64() const
{
    if (kind_ == Kind::Int) {
        if (!neg_) {
            if (i_ > 9223372036854775807ULL)
                wrongKind("an int64");
            return static_cast<std::int64_t>(i_);
        }
        if (i_ > 9223372036854775808ULL)
            wrongKind("an int64");
        return static_cast<std::int64_t>(0 - i_);
    }
    if (kind_ == Kind::Num) {
        if (d_ != std::floor(d_))
            wrongKind("an integer");
        return static_cast<std::int64_t>(d_);
    }
    wrongKind("an integer");
}

const std::string &
Value::asStr() const
{
    if (kind_ != Kind::Str)
        wrongKind("a string");
    return s_;
}

std::size_t
Value::size() const
{
    if (kind_ == Kind::Arr)
        return arr_.size();
    if (kind_ == Kind::Obj)
        return obj_.size();
    wrongKind("an array or object");
}

const Value &
Value::at(std::size_t i) const
{
    if (kind_ != Kind::Arr)
        wrongKind("an array");
    if (i >= arr_.size())
        throw Error("json: array index out of range");
    return arr_[i];
}

void
Value::push(Value v)
{
    if (kind_ != Kind::Arr)
        wrongKind("an array");
    arr_.push_back(std::move(v));
}

bool
Value::has(std::string_view key) const
{
    if (kind_ != Kind::Obj)
        return false;
    for (const auto &[k, v] : obj_)
        if (k == key)
            return true;
    return false;
}

const Value &
Value::get(std::string_view key) const
{
    if (kind_ != Kind::Obj)
        wrongKind("an object");
    for (const auto &[k, v] : obj_)
        if (k == key)
            return v;
    throw Error(std::string("json: missing member \"") +
                std::string(key) + "\"");
}

const Value &
Value::opt(std::string_view key) const
{
    if (kind_ == Kind::Obj)
        for (const auto &[k, v] : obj_)
            if (k == key)
                return v;
    return nullSentinel();
}

void
Value::set(std::string key, Value v)
{
    if (kind_ != Kind::Obj)
        wrongKind("an object");
    for (auto &[k, old] : obj_) {
        if (k == key) {
            old = std::move(v);
            return;
        }
    }
    obj_.emplace_back(std::move(key), std::move(v));
}

const std::vector<std::pair<std::string, Value>> &
Value::members() const
{
    if (kind_ != Kind::Obj)
        wrongKind("an object");
    return obj_;
}

// ---- writer ---------------------------------------------------------

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace
{

void
dumpTo(const Value &v, std::string &out)
{
    switch (v.kind()) {
      case Value::Kind::Null:
        out += "null";
        return;
      case Value::Kind::Bool:
        out += v.asBool() ? "true" : "false";
        return;
      case Value::Kind::Int: {
        char buf[24];
        auto [p, ec] =
            std::to_chars(buf, buf + sizeof buf, v.intMagnitude());
        (void)ec;
        if (v.intIsNegative())
            out += '-';
        out.append(buf, p);
        return;
      }
      case Value::Kind::Num: {
        // %.17g round-trips any finite double exactly.
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v.asDouble());
        out += buf;
        return;
      }
      case Value::Kind::Str:
        out += '"';
        out += escape(v.asStr());
        out += '"';
        return;
      case Value::Kind::Arr: {
        out += '[';
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i)
                out += ',';
            dumpTo(v.at(i), out);
        }
        out += ']';
        return;
      }
      case Value::Kind::Obj: {
        out += '{';
        bool first = true;
        for (const auto &[k, m] : v.members()) {
            if (!first)
                out += ',';
            first = false;
            out += '"';
            out += escape(k);
            out += "\":";
            dumpTo(m, out);
        }
        out += '}';
        return;
      }
    }
}

} // namespace

std::string
Value::dump() const
{
    std::string out;
    dumpTo(*this, out);
    return out;
}

// ---- parser ---------------------------------------------------------

namespace
{

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Value
    document()
    {
        Value v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *what) const
    {
        throw Error(sim::format("json: {} at byte {}", what, pos_));
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    expect(char c, const char *what)
    {
        if (!consume(c))
            fail(what);
    }

    void
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (text_.size() - pos_ < n ||
            text_.compare(pos_, n, word) != 0)
            fail("bad literal");
        pos_ += n;
    }

    Value
    value()
    {
        skipWs();
        switch (peek()) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return Value::str(string());
          case 't':
            literal("true");
            return Value::boolean(true);
          case 'f':
            literal("false");
            return Value::boolean(false);
          case 'n':
            literal("null");
            return Value::null();
          default:
            return number();
        }
    }

    Value
    object()
    {
        expect('{', "expected '{'");
        Value v = Value::obj();
        skipWs();
        if (consume('}'))
            return v;
        for (;;) {
            skipWs();
            std::string key = string();
            skipWs();
            expect(':', "expected ':'");
            v.set(std::move(key), value());
            skipWs();
            if (consume(','))
                continue;
            expect('}', "expected ',' or '}'");
            return v;
        }
    }

    Value
    array()
    {
        expect('[', "expected '['");
        Value v = Value::arr();
        skipWs();
        if (consume(']'))
            return v;
        for (;;) {
            v.push(value());
            skipWs();
            if (consume(','))
                continue;
            expect(']', "expected ',' or ']'");
            return v;
        }
    }

    std::string
    string()
    {
        expect('"', "expected '\"'");
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                out += unicodeEscape();
                break;
              }
              default:
                fail("bad escape");
            }
        }
    }

    /** \uXXXX -> UTF-8 (BMP only; surrogate pairs combine). */
    std::string
    unicodeEscape()
    {
        const std::uint32_t hi = hex4();
        std::uint32_t cp = hi;
        if (hi >= 0xd800 && hi <= 0xdbff) {
            if (!consume('\\') || !consume('u'))
                fail("unpaired surrogate");
            const std::uint32_t lo = hex4();
            if (lo < 0xdc00 || lo > 0xdfff)
                fail("bad low surrogate");
            cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
        } else if (hi >= 0xdc00 && hi <= 0xdfff) {
            fail("unpaired surrogate");
        }
        std::string out;
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
        return out;
    }

    std::uint32_t
    hex4()
    {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size())
                fail("unterminated \\u escape");
            const char c = text_[pos_++];
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<std::uint32_t>(c - 'A' + 10);
            else
                fail("bad hex digit in \\u escape");
        }
        return v;
    }

    Value
    number()
    {
        const std::size_t start = pos_;
        const bool negative = consume('-');
        if (pos_ >= text_.size() || !std::isdigit(
                static_cast<unsigned char>(text_[pos_])))
            fail("bad number");
        // RFC 8259: an integer part that starts with 0 is just "0".
        if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
            std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))
            fail("leading zero in number");
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        bool integral = true;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            integral = false;
            ++pos_;
            if (pos_ >= text_.size() || !std::isdigit(
                    static_cast<unsigned char>(text_[pos_])))
                fail("bad number");
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            integral = false;
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size() || !std::isdigit(
                    static_cast<unsigned char>(text_[pos_])))
                fail("bad number");
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        const std::string_view tok =
            text_.substr(start, pos_ - start);
        if (integral) {
            // Exact 64-bit round-trip for integer tokens.
            std::uint64_t mag = 0;
            const std::string_view digits =
                negative ? tok.substr(1) : tok;
            const auto [p, ec] = std::from_chars(
                digits.data(), digits.data() + digits.size(), mag);
            if (ec == std::errc() && p == digits.data() + digits.size())
                return Value::intNum(mag, negative);
            // Overflows uint64: fall through to double.
        }
        double d = 0.0;
        const std::string owned(tok);
        d = std::strtod(owned.c_str(), nullptr);
        return Value::num(d);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

} // namespace

Value
parse(std::string_view text)
{
    return Parser(text).document();
}

} // namespace sim::json
