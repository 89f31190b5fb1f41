/**
 * @file
 * Unit tests for the Chrome-trace-event writer and its category mask.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/json.hh"
#include "common/trace.hh"

namespace
{

TEST(Tracer, InactiveByDefault)
{
    sim::Tracer t;
    EXPECT_FALSE(t.active());
    EXPECT_FALSE(t.wants(sim::Tracer::All));
    EXPECT_EQ(t.eventCount(), 0u);
}

TEST(Tracer, EmitsWellFormedJson)
{
    std::ostringstream os;
    {
        sim::Tracer t;
        t.attach(os);
        t.processName(0, "pe0");
        t.threadName(0, 2, "alu");
        t.complete(sim::Tracer::Fire, 0, 2, "ADD", 10, 1,
                   "\"tag\":\"<u0,c1,s3,i1>\"");
        t.instant(sim::Tracer::Wm, 0, 0, "enq", 7);
        t.counter(sim::Tracer::Sched, 0, "waitStore", 12, 3.5);
        t.close();
    }
    const std::string json = os.str();
    EXPECT_NO_THROW(sim::json::parse(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST(Tracer, CloseIsIdempotentAndDestructorCloses)
{
    std::ostringstream os;
    {
        sim::Tracer t;
        t.attach(os);
        t.instant(sim::Tracer::Net, 1, 0, "inj", 0);
        t.close();
        t.close(); // second close must not append a second footer
        // Destructor runs here; it must not write again either.
    }
    EXPECT_NO_THROW(sim::json::parse(os.str())) << os.str();
}

TEST(Tracer, CategoryMaskFiltersEvents)
{
    std::ostringstream os;
    sim::Tracer t;
    t.attach(os, sim::Tracer::Wm | sim::Tracer::Istr);

    EXPECT_TRUE(t.wants(sim::Tracer::Wm));
    EXPECT_TRUE(t.wants(sim::Tracer::Istr));
    EXPECT_FALSE(t.wants(sim::Tracer::Fire));
    EXPECT_FALSE(t.wants(sim::Tracer::Net));

    t.instant(sim::Tracer::Wm, 0, 0, "enq", 1);
    t.instant(sim::Tracer::Fire, 0, 2, "dropped", 2);
    t.instant(sim::Tracer::Istr, 0, 4, "defer", 3);
    EXPECT_EQ(t.eventCount(), 2u);

    // Track-naming metadata ignores the mask — a trace restricted to
    // one category still labels every swim-lane.
    t.processName(0, "pe0");
    t.close();

    const std::string json = os.str();
    EXPECT_NO_THROW(sim::json::parse(json)) << json;
    EXPECT_NE(json.find("\"enq\""), std::string::npos);
    EXPECT_NE(json.find("\"defer\""), std::string::npos);
    EXPECT_EQ(json.find("\"dropped\""), std::string::npos);
    EXPECT_NE(json.find("\"pe0\""), std::string::npos);
}

TEST(Tracer, SimTraceMacroIsNullSafeAndLazy)
{
    // Null tracer: the macro must not crash and must not evaluate
    // its argument expressions.
    sim::Tracer *none = nullptr;
    int evaluations = 0;
    auto argBuilder = [&evaluations]() {
        ++evaluations;
        return std::string("\"k\":1");
    };
    SIM_TRACE(none, Fire, instant, 0, 0, "x", 0, argBuilder());
    EXPECT_EQ(evaluations, 0);

    // Active tracer, disabled category: still lazy.
    std::ostringstream os;
    sim::Tracer t;
    t.attach(os, sim::Tracer::Wm);
    SIM_TRACE(&t, Fire, instant, 0, 0, "x", 0, argBuilder());
    EXPECT_EQ(evaluations, 0);
    EXPECT_EQ(t.eventCount(), 0u);

    // Enabled category: evaluated exactly once and emitted.
    SIM_TRACE(&t, Wm, instant, 0, 0, "x", 0, argBuilder());
    EXPECT_EQ(evaluations, 1);
    EXPECT_EQ(t.eventCount(), 1u);
    t.close();
    EXPECT_NO_THROW(sim::json::parse(os.str())) << os.str();
}

TEST(Tracer, ParseCategories)
{
    EXPECT_EQ(sim::Tracer::parseCategories(""), sim::Tracer::All);
    EXPECT_EQ(sim::Tracer::parseCategories("all"), sim::Tracer::All);
    EXPECT_EQ(sim::Tracer::parseCategories("wm"), sim::Tracer::Wm);
    EXPECT_EQ(sim::Tracer::parseCategories("wm,fire"),
              sim::Tracer::Wm | sim::Tracer::Fire);
    EXPECT_EQ(sim::Tracer::parseCategories("net,mem,istr,sched"),
              sim::Tracer::Net | sim::Tracer::Mem | sim::Tracer::Istr |
                  sim::Tracer::Sched);
}

TEST(TracerDeathTest, ParseCategoriesRejectsUnknownNames)
{
    EXPECT_DEATH(sim::Tracer::parseCategories("wm,bogus"), "bogus");
}

TEST(Tracer, CategoryNames)
{
    EXPECT_STREQ(sim::Tracer::categoryName(sim::Tracer::Wm), "wm");
    EXPECT_STREQ(sim::Tracer::categoryName(sim::Tracer::Fire), "fire");
    EXPECT_STREQ(sim::Tracer::categoryName(sim::Tracer::Net), "net");
    EXPECT_STREQ(sim::Tracer::categoryName(sim::Tracer::Mem), "mem");
    EXPECT_STREQ(sim::Tracer::categoryName(sim::Tracer::Istr), "istr");
    EXPECT_STREQ(sim::Tracer::categoryName(sim::Tracer::Sched), "sched");
}

TEST(Tracer, EscapesEventNames)
{
    // Names and args strings come from opcode tables and format()
    // calls; a stray quote or backslash must not corrupt the JSON.
    std::ostringstream os;
    sim::Tracer t;
    t.attach(os);
    t.instant(sim::Tracer::Sched, 0, 0, "we\"ird\\name", 1);
    t.close();
    EXPECT_NO_THROW(sim::json::parse(os.str())) << os.str();
}

} // namespace
