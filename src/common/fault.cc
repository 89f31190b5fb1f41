#include "common/fault.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/format.hh"
#include "common/logging.hh"

namespace sim
{
namespace fault
{

namespace
{

/** "drop=0.01" -> ("drop", "0.01"); panics when '=' is missing. */
std::pair<std::string, std::string>
splitKeyValue(const std::string &item)
{
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0)
        sim::panic("fault plan: expected key=value, got '{}'", item);
    return {item.substr(0, eq), item.substr(eq + 1)};
}

double
parseRate(const std::string &key, const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !isRate(v))
        sim::panic("fault plan: {}= wants a rate in [0,1], got '{}'",
                   key, text);
    return v;
}

std::uint64_t
parseNumber(const std::string &key, const std::string &text)
{
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0')
        sim::panic("fault plan: {} wants an integer, got '{}'", key,
                   text);
    return v;
}

std::uint32_t
parseNode(const std::string &key, const std::string &text)
{
    if (text == "*")
        return Event::kAny;
    return static_cast<std::uint32_t>(parseNumber(key, text));
}

/** "linkdown@FROM-TO[:SRC>DST]" / "pestall@FROM-TO:PE" /
 *  "memstall@FROM-TO:MODULE" / "dropspike@FROM-TO:RATE" after the
 *  '@'. */
Event
parseWindow(Event::Kind kind, const std::string &key,
            const std::string &text)
{
    Event ev;
    ev.kind = kind;
    std::string window = text;
    std::string target;
    const std::size_t colon = text.find(':');
    if (colon != std::string::npos) {
        window = text.substr(0, colon);
        target = text.substr(colon + 1);
    }
    const std::size_t dash = window.find('-');
    if (dash == std::string::npos)
        sim::panic("fault plan: {}@ wants FROM-TO, got '{}'", key,
                   text);
    ev.from = parseNumber(key, window.substr(0, dash));
    ev.to = parseNumber(key, window.substr(dash + 1));
    if (ev.to < ev.from)
        sim::panic("fault plan: {}@{}-{} window ends before it starts",
                   key, ev.from, ev.to);
    if (kind == Event::Kind::LinkDown) {
        if (!target.empty()) {
            const std::size_t gt = target.find('>');
            if (gt == std::string::npos)
                sim::panic("fault plan: linkdown target wants SRC>DST, "
                           "got '{}'", target);
            ev.a = parseNode(key, target.substr(0, gt));
            ev.b = parseNode(key, target.substr(gt + 1));
        }
    } else if (kind == Event::Kind::DropSpike) {
        if (target.empty())
            sim::panic("fault plan: {}@ needs a :RATE", key);
        // The rate rides in the integer payload field, scaled by 1e6
        // (micro-probability) so Event stays a plain value type.
        ev.a = static_cast<std::uint32_t>(
            parseRate(key, target) * 1e6 + 0.5);
    } else {
        if (target.empty())
            sim::panic("fault plan: {}@ needs a :TARGET", key);
        ev.a = parseNode(key, target);
    }
    return ev;
}

bool
covers(const Event &ev, sim::Cycle c)
{
    return c >= ev.from && c <= ev.to;
}

} // namespace

FaultPlan
FaultPlan::defaultLossy(std::uint64_t seed)
{
    FaultPlan plan;
    plan.seed = seed;
    plan.dropRate = 0.01;
    plan.dupRate = 0.005;
    plan.corruptRate = 0.001;
    plan.delayRate = 0.01;
    plan.delaySpike = 16;
    return plan;
}

const char *
FaultPlan::badRate() const
{
    const std::pair<const char *, double> rates[] = {
        {"dropRate", dropRate},
        {"dupRate", dupRate},
        {"corruptRate", corruptRate},
        {"delayRate", delayRate}};
    for (const auto &[name, rate] : rates)
        if (!isRate(rate))
            return name;
    return nullptr;
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    std::stringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        const std::size_t at = item.find('@');
        if (at != std::string::npos) {
            const std::string key = item.substr(0, at);
            const std::string rest = item.substr(at + 1);
            if (key == "linkdown")
                plan.events.push_back(
                    parseWindow(Event::Kind::LinkDown, key, rest));
            else if (key == "pestall")
                plan.events.push_back(
                    parseWindow(Event::Kind::PeStall, key, rest));
            else if (key == "memstall")
                plan.events.push_back(
                    parseWindow(Event::Kind::MemStall, key, rest));
            else if (key == "dropspike")
                plan.events.push_back(
                    parseWindow(Event::Kind::DropSpike, key, rest));
            else
                sim::panic("fault plan: unknown event '{}'", key);
            continue;
        }
        auto [key, value] = splitKeyValue(item);
        if (key == "seed")
            plan.seed = parseNumber(key, value);
        else if (key == "drop")
            plan.dropRate = parseRate(key, value);
        else if (key == "dup")
            plan.dupRate = parseRate(key, value);
        else if (key == "corrupt")
            plan.corruptRate = parseRate(key, value);
        else if (key == "delay")
            plan.delayRate = parseRate(key, value);
        else if (key == "spike")
            plan.delaySpike = parseNumber(key, value);
        else
            sim::panic("fault plan: unknown key '{}'", key);
    }
    return plan;
}

std::string
FaultPlan::summary() const
{
    std::ostringstream os;
    os << "seed=" << seed;
    if (dropRate > 0.0)
        os << ",drop=" << dropRate;
    if (dupRate > 0.0)
        os << ",dup=" << dupRate;
    if (corruptRate > 0.0)
        os << ",corrupt=" << corruptRate;
    if (delayRate > 0.0)
        os << ",delay=" << delayRate << ",spike=" << delaySpike;
    for (const Event &ev : events) {
        switch (ev.kind) {
          case Event::Kind::LinkDown:
            os << ",linkdown@" << ev.from << "-" << ev.to;
            if (ev.a != Event::kAny || ev.b != Event::kAny) {
                os << ":";
                if (ev.a == Event::kAny)
                    os << "*";
                else
                    os << ev.a;
                os << ">";
                if (ev.b == Event::kAny)
                    os << "*";
                else
                    os << ev.b;
            }
            break;
          case Event::Kind::PeStall:
            os << ",pestall@" << ev.from << "-" << ev.to << ":"
               << ev.a;
            break;
          case Event::Kind::MemStall:
            os << ",memstall@" << ev.from << "-" << ev.to << ":"
               << ev.a;
            break;
          case Event::Kind::DropSpike:
            os << ",dropspike@" << ev.from << "-" << ev.to << ":"
               << ev.a / 1e6;
            break;
        }
    }
    return os.str();
}

std::unique_ptr<FaultInjector>
makeInjector(const FaultPlan &plan, std::uint64_t root)
{
    if (!plan.enabled())
        return nullptr;
    FaultPlan seeded = plan;
    if (seeded.seed == 0) {
        std::uint64_t z = root + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        seeded.seed = z ^ (z >> 31);
    }
    return std::make_unique<FaultInjector>(seeded);
}

FaultInjector::FaultInjector(const FaultPlan &plan)
    : plan_(plan), rng_(plan.seed)
{
    for (const Event &ev : plan_.events) {
        switch (ev.kind) {
          case Event::Kind::LinkDown:
            linkDowns_.push_back(ev);
            break;
          case Event::Kind::PeStall:
            peStalls_.push_back(ev);
            break;
          case Event::Kind::MemStall:
            memStalls_.push_back(ev);
            break;
          case Event::Kind::DropSpike:
            dropSpikes_.push_back(ev);
            break;
        }
    }
    // A drop-spike window counts as a configured rate: the stream must
    // advance once per packet even outside the window, or entering it
    // would shift every later decision (the determinism contract).
    anyRate_ = plan_.dropRate > 0.0 || plan_.dupRate > 0.0 ||
               plan_.corruptRate > 0.0 || plan_.delayRate > 0.0 ||
               !dropSpikes_.empty();
}

double
FaultInjector::effectiveDropRate(sim::Cycle c) const
{
    double rate = plan_.dropRate;
    for (const Event &ev : dropSpikes_)
        if (covers(ev, c))
            rate = std::max(rate, ev.a / 1e6);
    return rate;
}

bool
FaultInjector::linkDown(sim::Cycle c, sim::NodeId src,
                        sim::NodeId dst) const
{
    for (const Event &ev : linkDowns_) {
        if (!covers(ev, c))
            continue;
        if (ev.a != Event::kAny && ev.a != src)
            continue;
        if (ev.b != Event::kAny && ev.b != dst)
            continue;
        return true;
    }
    return false;
}

PacketFate
FaultInjector::onPacket(sim::Cycle now, sim::NodeId src,
                        sim::NodeId dst)
{
    PacketFate fate;
    if (linkDown(now, src, dst)) {
        fate.action = PacketFate::Action::Drop;
        fate.scheduled = true;
        ++stats_.linkDownDrops;
        return fate;
    }
    if (!anyRate_)
        return fate;
    // One draw per packet: the nth delivery always sees the nth value
    // of the stream, independent of which fault classes are enabled
    // elsewhere in the window (the determinism contract).
    ++stats_.decisions;
    const double u = rng_.uniform();
    double threshold = effectiveDropRate(now);
    if (u < threshold) {
        fate.action = PacketFate::Action::Drop;
        ++stats_.drops;
        return fate;
    }
    threshold += plan_.dupRate;
    if (u < threshold) {
        fate.action = PacketFate::Action::Duplicate;
        ++stats_.duplicates;
        return fate;
    }
    threshold += plan_.corruptRate;
    if (u < threshold) {
        fate.action = PacketFate::Action::Corrupt;
        ++stats_.corrupts;
        return fate;
    }
    threshold += plan_.delayRate;
    if (u < threshold) {
        fate.action = PacketFate::Action::Delay;
        fate.extraDelay = plan_.delaySpike;
        ++stats_.delays;
        return fate;
    }
    return fate;
}

bool
FaultInjector::peStalled(sim::Cycle c, std::uint32_t pe) const
{
    for (const Event &ev : peStalls_)
        if (covers(ev, c) && (ev.a == Event::kAny || ev.a == pe))
            return true;
    return false;
}

sim::Cycle
FaultInjector::peResume(sim::Cycle c, std::uint32_t pe) const
{
    // Windows may abut or overlap; chase the end of every window that
    // covers the candidate until none does.
    bool moved = true;
    while (moved) {
        moved = false;
        for (const Event &ev : peStalls_) {
            if (covers(ev, c) && (ev.a == Event::kAny || ev.a == pe)) {
                c = ev.to + 1;
                moved = true;
            }
        }
    }
    return c;
}

bool
FaultInjector::memStalled(sim::Cycle c, std::uint32_t m) const
{
    for (const Event &ev : memStalls_)
        if (covers(ev, c) && (ev.a == Event::kAny || ev.a == m))
            return true;
    return false;
}

sim::Cycle
FaultInjector::memResume(sim::Cycle c, std::uint32_t m) const
{
    bool moved = true;
    while (moved) {
        moved = false;
        for (const Event &ev : memStalls_) {
            if (covers(ev, c) && (ev.a == Event::kAny || ev.a == m)) {
                c = ev.to + 1;
                moved = true;
            }
        }
    }
    return c;
}

} // namespace fault
} // namespace sim
