#include "common/trace.hh"

#include <cstdio>

#include "common/logging.hh"

namespace sim
{

namespace
{

/** Append `s` to `out` with JSON string escaping. */
void
appendEscaped(std::string &out, std::string_view s)
{
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char esc[8];
                std::snprintf(esc, sizeof esc, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += esc;
            } else {
                out.push_back(c);
            }
        }
    }
}

void
appendField(std::string &out, const char *key, std::uint64_t v)
{
    out += ",\"";
    out += key;
    out += "\":";
    out += std::to_string(v);
}

void
appendStringField(std::string &out, const char *key, std::string_view v)
{
    out += ",\"";
    out += key;
    out += "\":\"";
    appendEscaped(out, v);
    out += '"';
}

/** Close an event object, with its `args` body when non-empty. */
void
appendArgs(std::string &out, std::string_view args)
{
    if (!args.empty()) {
        out += ",\"args\":{";
        out += args;
        out += '}';
    }
    out += '}';
}

} // namespace

Tracer::~Tracer()
{
    close();
}

void
Tracer::open(const std::string &path, std::uint32_t mask)
{
    SIM_ASSERT_MSG(!active(), "tracer is already writing a trace");
    auto file = std::make_unique<std::ofstream>(path);
    if (!*file)
        fatal("cannot open trace file '{}' for writing", path);
    file_ = std::move(file);
    begin(*file_, mask);
}

void
Tracer::attach(std::ostream &os, std::uint32_t mask)
{
    SIM_ASSERT_MSG(!active(), "tracer is already writing a trace");
    begin(os, mask);
}

void
Tracer::begin(std::ostream &os, std::uint32_t mask)
{
    sink_ = &os;
    mask_ = mask;
    first_ = true;
    events_ = 0;
    os << "{\"traceEvents\":[";
}

void
Tracer::close()
{
    if (!sink_)
        return;
    *sink_ << "\n]}\n";
    sink_->flush();
    sink_ = nullptr;
    mask_ = 0;
    file_.reset();
}

void
Tracer::commit()
{
    *sink_ << (first_ ? "\n" : ",\n") << buf_;
    first_ = false;
    ++events_;
}

std::uint32_t
Tracer::parseCategories(std::string_view spec)
{
    if (spec.empty())
        return All;
    std::uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string_view::npos)
            comma = spec.size();
        const std::string_view name = spec.substr(pos, comma - pos);
        if (name == "wm") {
            mask |= Wm;
        } else if (name == "fire") {
            mask |= Fire;
        } else if (name == "net") {
            mask |= Net;
        } else if (name == "mem") {
            mask |= Mem;
        } else if (name == "istr") {
            mask |= Istr;
        } else if (name == "sched") {
            mask |= Sched;
        } else if (name == "all") {
            mask |= All;
        } else {
            fatal("unknown trace category '{}' (expected "
                  "wm|fire|net|mem|istr|sched|all)", name);
        }
        pos = comma + 1;
    }
    return mask;
}

const char *
Tracer::categoryName(Category cat)
{
    switch (cat) {
      case Wm: return "wm";
      case Fire: return "fire";
      case Net: return "net";
      case Mem: return "mem";
      case Istr: return "istr";
      case Sched: return "sched";
      case All: break;
    }
    return "misc";
}

void
Tracer::processName(std::uint32_t pid, std::string_view name)
{
    if (!active())
        return;
    buf_ = "{\"ph\":\"M\",\"name\":\"process_name\"";
    appendField(buf_, "pid", pid);
    buf_ += ",\"args\":{\"name\":\"";
    appendEscaped(buf_, name);
    buf_ += "\"}}";
    commit();
}

void
Tracer::threadName(std::uint32_t pid, std::uint32_t tid,
                   std::string_view name)
{
    if (!active())
        return;
    buf_ = "{\"ph\":\"M\",\"name\":\"thread_name\"";
    appendField(buf_, "pid", pid);
    appendField(buf_, "tid", tid);
    buf_ += ",\"args\":{\"name\":\"";
    appendEscaped(buf_, name);
    buf_ += "\"}}";
    commit();
}

void
Tracer::complete(Category cat, std::uint32_t pid, std::uint32_t tid,
                 std::string_view name, Cycle ts, Cycle dur,
                 std::string_view args)
{
    if (!wants(cat))
        return;
    buf_ = "{\"ph\":\"X\"";
    appendStringField(buf_, "name", name);
    appendStringField(buf_, "cat", categoryName(cat));
    appendField(buf_, "pid", pid);
    appendField(buf_, "tid", tid);
    appendField(buf_, "ts", ts);
    appendField(buf_, "dur", dur);
    appendArgs(buf_, args);
    commit();
}

void
Tracer::instant(Category cat, std::uint32_t pid, std::uint32_t tid,
                std::string_view name, Cycle ts, std::string_view args)
{
    if (!wants(cat))
        return;
    buf_ = "{\"ph\":\"i\",\"s\":\"t\"";
    appendStringField(buf_, "name", name);
    appendStringField(buf_, "cat", categoryName(cat));
    appendField(buf_, "pid", pid);
    appendField(buf_, "tid", tid);
    appendField(buf_, "ts", ts);
    appendArgs(buf_, args);
    commit();
}

void
Tracer::counter(Category cat, std::uint32_t pid, std::string_view name,
                Cycle ts, double value)
{
    if (!wants(cat))
        return;
    buf_ = "{\"ph\":\"C\"";
    appendStringField(buf_, "name", name);
    appendStringField(buf_, "cat", categoryName(cat));
    appendField(buf_, "pid", pid);
    appendField(buf_, "ts", ts);
    char num[40];
    std::snprintf(num, sizeof num, "%.17g", value);
    buf_ += ",\"args\":{\"value\":";
    buf_ += num;
    buf_ += "}}";
    commit();
}

} // namespace sim
