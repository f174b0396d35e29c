/** @file Tests for the statistics package. */

#include <gtest/gtest.h>

#include <sstream>

#include "common/json.hh"
#include "common/stats.hh"

namespace ladder
{
namespace
{

TEST(StatScalar, AccumulateAndReset)
{
    StatScalar s;
    EXPECT_EQ(s.value(), 0.0);
    s += 2.5;
    ++s;
    EXPECT_EQ(s.value(), 3.5);
    s.reset();
    EXPECT_EQ(s.value(), 0.0);
    s.set(7.0);
    EXPECT_EQ(s.value(), 7.0);
}

TEST(StatAverage, Moments)
{
    StatAverage a;
    EXPECT_EQ(a.mean(), 0.0);
    a.sample(1.0);
    a.sample(2.0);
    a.sample(6.0);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 6.0);
    EXPECT_DOUBLE_EQ(a.sum(), 9.0);
    EXPECT_EQ(a.count(), 3u);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.mean(), 0.0);
}

TEST(StatAverage, AllNegativeSamples)
{
    // Regression: min/max must be seeded from the first sample, not
    // from 0.0, or an all-negative set reports min() == 0.
    StatAverage a;
    a.sample(-5.0);
    a.sample(-2.0);
    a.sample(-9.0);
    EXPECT_DOUBLE_EQ(a.min(), -9.0);
    EXPECT_DOUBLE_EQ(a.max(), -2.0);
    a.reset();
    a.sample(-1.5);
    EXPECT_DOUBLE_EQ(a.min(), -1.5);
    EXPECT_DOUBLE_EQ(a.max(), -1.5);
}

TEST(StatAverage, EmptyMinMaxAreZero)
{
    StatAverage a;
    EXPECT_EQ(a.min(), 0.0);
    EXPECT_EQ(a.max(), 0.0);
}

TEST(StatHistogram, Buckets)
{
    StatHistogram h(0.0, 10.0, 5);
    h.sample(-1.0); // underflow
    h.sample(0.0);  // bucket 0
    h.sample(1.9);  // bucket 0
    h.sample(5.0);  // bucket 2
    h.sample(9.99); // bucket 4
    h.sample(10.0); // overflow
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
    EXPECT_EQ(h.totalSamples(), 6u);
    EXPECT_DOUBLE_EQ(h.bucketLo(1), 2.0);
}

TEST(StatGroup, DumpContainsEntries)
{
    StatGroup group("sys");
    StatScalar s;
    StatAverage a;
    s += 5;
    a.sample(2.0);
    group.regScalar("reads", &s, "demand reads");
    group.regAverage("latency", &a);

    StatGroup child("child");
    StatScalar c;
    c += 1;
    child.regScalar("inner", &c);
    group.addChild(&child);

    std::ostringstream os;
    group.dump(os);
    std::string text = os.str();
    EXPECT_NE(text.find("sys.reads"), std::string::npos);
    EXPECT_NE(text.find("demand reads"), std::string::npos);
    EXPECT_NE(text.find("sys.latency.mean"), std::string::npos);
    EXPECT_NE(text.find("child.inner"), std::string::npos);
}

TEST(StatGroup, HistogramTextDump)
{
    StatGroup group("ctrl");
    StatHistogram h(0.0, 10.0, 2);
    h.sample(1.0);
    h.sample(6.0);
    h.sample(42.0);
    group.regHistogram("lat", &h, "latency buckets");
    std::ostringstream os;
    group.dump(os);
    std::string text = os.str();
    EXPECT_NE(text.find("ctrl.lat.samples"), std::string::npos);
    EXPECT_NE(text.find("ctrl.lat.overflow"), std::string::npos);
    EXPECT_NE(text.find("latency buckets"), std::string::npos);
}

TEST(StatGroup, JsonRoundTrip)
{
    StatGroup group("sys");
    StatScalar reads;
    reads += 17;
    StatAverage lat;
    lat.sample(1.5);
    lat.sample(4.5);
    StatHistogram hist(0.0, 8.0, 4);
    hist.sample(1.0);
    hist.sample(7.5);
    hist.sample(-3.0);
    group.regScalar("reads", &reads);
    group.regAverage("lat", &lat);
    group.regHistogram("hist", &hist);

    StatGroup child("child");
    StatScalar inner;
    inner += 2;
    child.regScalar("inner", &inner);
    group.addChild(&child);

    std::ostringstream os;
    JsonWriter w(os);
    group.dumpJson(w);
    ASSERT_TRUE(w.balanced());

    JsonValue v = parseJson(os.str());
    EXPECT_EQ(v.at("name").string, "sys");
    EXPECT_DOUBLE_EQ(v.at("scalars").at("reads").number, 17.0);
    const JsonValue &latJson = v.at("averages").at("lat");
    EXPECT_DOUBLE_EQ(latJson.at("mean").number, 3.0);
    EXPECT_DOUBLE_EQ(latJson.at("min").number, 1.5);
    EXPECT_DOUBLE_EQ(latJson.at("max").number, 4.5);
    EXPECT_DOUBLE_EQ(latJson.at("sum").number, 6.0);
    EXPECT_DOUBLE_EQ(latJson.at("count").number, 2.0);
    const JsonValue &histJson = v.at("histograms").at("hist");
    EXPECT_DOUBLE_EQ(histJson.at("lo").number, 0.0);
    EXPECT_DOUBLE_EQ(histJson.at("hi").number, 8.0);
    EXPECT_DOUBLE_EQ(histJson.at("samples").number, 3.0);
    EXPECT_DOUBLE_EQ(histJson.at("underflow").number, 1.0);
    ASSERT_EQ(histJson.at("counts").array.size(), 4u);
    EXPECT_DOUBLE_EQ(histJson.at("counts").array[0].number, 1.0);
    EXPECT_DOUBLE_EQ(histJson.at("counts").array[3].number, 1.0);
    ASSERT_EQ(v.at("children").array.size(), 1u);
    EXPECT_DOUBLE_EQ(
        v.at("children").array[0].at("scalars").at("inner").number,
        2.0);
}

TEST(StatGroup, VisitFlattensLeaves)
{
    StatGroup group("g");
    StatScalar s;
    s += 3;
    StatAverage a;
    a.sample(2.0);
    a.sample(4.0);
    group.regScalar("s", &s);
    group.regAverage("a", &a);
    std::map<std::string, double> seen;
    group.visit([&](const std::string &name, double v) {
        seen[name] = v;
    });
    EXPECT_DOUBLE_EQ(seen.at("g.s"), 3.0);
    EXPECT_DOUBLE_EQ(seen.at("g.a.sum"), 6.0);
    EXPECT_DOUBLE_EQ(seen.at("g.a.count"), 2.0);
}

TEST(StatGroup, AppendValuesMatchesVisitOrder)
{
    StatGroup group("g");
    StatScalar s;
    s += 3;
    StatAverage a;
    a.sample(2.0);
    a.sample(5.0);
    group.regScalar("s", &s);
    group.regAverage("a", &a);
    StatGroup child("c");
    StatScalar cs;
    cs += 7;
    child.regScalar("cs", &cs);
    group.addChild(&child);
    std::vector<double> visited;
    group.visit([&](const std::string &, double v) {
        visited.push_back(v);
    });
    std::vector<double> appended{-1.0};
    group.appendValues(appended);
    appended.erase(appended.begin()); // appends, keeping what was there
    EXPECT_EQ(appended, visited);
    EXPECT_EQ(appended, (std::vector<double>{3.0, 7.0, 2.0, 7.0}));
}

TEST(StatGroup, ResetAllRecurses)
{
    StatGroup group("g");
    StatScalar s;
    s += 3;
    group.regScalar("s", &s);
    StatGroup child("c");
    StatScalar cs;
    cs += 4;
    child.regScalar("cs", &cs);
    group.addChild(&child);
    group.resetAll();
    EXPECT_EQ(s.value(), 0.0);
    EXPECT_EQ(cs.value(), 0.0);
}

} // namespace
} // namespace ladder
