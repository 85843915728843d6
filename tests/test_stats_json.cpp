/**
 * @file
 * Tests for the machine-readable statistics export: the JSON
 * writer/parser pair, the stats registry serialisation (schema
 * uldma-stats-v1), and a golden check that the DMA-initiation counters
 * the registry reports for the Table-1 methods agree with the
 * per-method access counts the paper (and initiationAccessCount())
 * declare.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <streambuf>

#include "core/experiment.hh"
#include "sim/json.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace uldma {
namespace {

// --------------------------------------------------------------------
// json::escape / writer / parser
// --------------------------------------------------------------------

TEST(JsonEscape, SpecialCharacters)
{
    EXPECT_EQ(json::escape("plain"), "plain");
    EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(json::escape("line\nfeed"), "line\\nfeed");
    EXPECT_EQ(json::escape("tab\there"), "tab\\there");
    EXPECT_EQ(json::escape("cr\rlf"), "cr\\rlf");
    EXPECT_EQ(json::escape(std::string("nul\0byte", 8)),
              "nul\\u0000byte");
    EXPECT_EQ(json::escape("\x01\x1f"), "\\u0001\\u001f");
}

TEST(JsonEscape, RoundTripsThroughParser)
{
    const std::string nasty =
        std::string("quote\" slash\\ newline\n tab\t ctrl\x02 nul") +
        std::string(1, '\0') + "end";
    std::ostringstream os;
    {
        json::Writer w(os, false);
        w.beginObject();
        w.member("s", nasty);
        w.endObject();
    }
    ASSERT_TRUE(json::valid(os.str())) << os.str();
    const json::Value v = json::parse(os.str());
    EXPECT_EQ(v["s"].asString(), nasty);
}

TEST(JsonNumber, FormattingIsRoundTripSafe)
{
    for (double d : {0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 1e-300, 1e300,
                     123456789.123456789, 2.5e-8}) {
        const std::string s = json::formatNumber(d);
        EXPECT_EQ(std::stod(s), d) << s;
    }
    // Integral values render without an exponent or decimal point.
    EXPECT_EQ(json::formatNumber(42.0), "42");
    EXPECT_EQ(json::formatNumber(-7.0), "-7");
}

// Reference implementations: the snprintf/strtod number formatter and
// the snprintf-built escapes that wrote every committed export.
// json::formatNumber and json::escape must match them byte for byte.

std::string
referenceFormatNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return buf;
    }
    for (int prec = 15; prec <= 17; ++prec) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            return buf;
    }
    return "null";
}

std::string
referenceEscape(const std::string &s)
{
    std::string out;
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

/** 1.4 M values (1 M bit patterns) in four shards, so ctest -j runs
 *  them side by side. */
class RandomDoubles : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomDoubles, MatchPrintfReference)
{
    std::mt19937_64 rng(20240917 + GetParam());
    std::size_t checked = 0, mismatches = 0;
    const auto check = [&](double d) {
        ++checked;
        const std::string got = json::formatNumber(d);
        const std::string want = referenceFormatNumber(d);
        if (got != want && ++mismatches <= 10)
            ADD_FAILURE() << "formatNumber(" << want << ") gave " << got;
    };
    // Uniform over every bit pattern: all exponents, subnormals, NaNs.
    for (int i = 0; i < 250000; ++i) {
        const std::uint64_t bits = rng();
        double d;
        std::memcpy(&d, &bits, sizeof d);
        check(d);
    }
    // What the exporters print: tick counts converted to microseconds,
    // and ratios of them.
    for (int i = 0; i < 50000; ++i) {
        const Tick t = rng() >> (rng() % 64);
        check(ticksToUs(t));
        check(ticksToUs(t) / static_cast<double>(1 + rng() % 1000));
    }
    EXPECT_EQ(mismatches, 0u) << "of " << checked;
}

INSTANTIATE_TEST_SUITE_P(JsonNumber, RandomDoubles,
                         ::testing::Range(0, 4));

TEST(JsonNumber, MatchesPrintfReferenceOnEdgeCases)
{
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> cases = {
        0.0, -0.0, 1e-5, -1e-5, 0.1, 0.5, 1e15, -1e15, 1e16, 1e17,
        999999999999999.0, -999999999999999.0, 999999999999999.5,
        9007199254740993.0, DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        DBL_MIN - std::numeric_limits<double>::denorm_min(), 1e-310,
        DBL_EPSILON, 1.0 + DBL_EPSILON, inf, -inf,
        std::numeric_limits<double>::quiet_NaN()};
    for (double edge : {1e15, -1e15, 1e-5, DBL_MIN, DBL_MAX, 1.0}) {
        double up = edge, down = edge;
        for (int i = 0; i < 4; ++i) {
            up = std::nextafter(up, inf);
            down = std::nextafter(down, -inf);
            cases.push_back(up);
            cases.push_back(down);
        }
    }
    for (double d : cases)
        EXPECT_EQ(json::formatNumber(d), referenceFormatNumber(d))
            << "value " << referenceFormatNumber(d);

    EXPECT_EQ(json::formatNumber(-0.0), "-0");
    EXPECT_EQ(json::formatNumber(1e15), "1e+15");
    EXPECT_EQ(json::formatNumber(999999999999999.0), "999999999999999");
    EXPECT_EQ(json::formatNumber(1e-5), "1e-05");
    EXPECT_EQ(json::formatNumber(inf), "null");
    EXPECT_EQ(json::formatNumber(-inf), "null");
    EXPECT_EQ(json::formatNumber(std::nan("")), "null");
}

TEST(JsonNumber, MicrosecondDecimalsMatchPrintfReference)
{
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> cases;
    // The ends of the six-decimal range, four neighbours either way.
    for (double edge : {1e-4, 1e9}) {
        double up = edge, down = edge;
        cases.push_back(edge);
        for (int i = 0; i < 4; ++i) {
            up = std::nextafter(up, inf);
            down = std::nextafter(down, -inf);
            cases.push_back(up);
            cases.push_back(down);
        }
    }
    // t = m * 10^k: one to fifteen digits, some below 1e-4 us.
    for (Tick m : {1, 3, 5, 7, 37, 99, 125, 999}) {
        Tick t = m;
        for (int k = 0; k <= 14; ++k, t *= 10)
            cases.push_back(ticksToUs(t));
    }
    std::mt19937_64 rng(20261018);
    for (int i = 0; i < 20000; ++i) {
        const Tick fifteen_digits = 100000000000000 + rng() % 900000000000000;
        cases.push_back(ticksToUs(fifteen_digits));
        // One ulp off a six-decimal value: not t / 1e6 for any t.
        const double d = ticksToUs(rng() % 1000000000000000);
        cases.push_back(std::nextafter(d, inf));
        cases.push_back(std::nextafter(d, -inf));
    }
    // Past 1e9: from about 4e9 up, an ulp nears 1e-6 and t / 1e6
    // rounded is often not the decimal "%.16g" prints.
    for (int i = 0; i < 5000; ++i) {
        const Tick sixteen_digits =
            1000000000000000 + rng() % 9000000000000000;
        cases.push_back(ticksToUs(sixteen_digits));
    }
    // What the exporters print.
    for (int i = 0; i < 100000; ++i)
        cases.push_back(ticksToUs(rng() >> 14));

    std::size_t mismatches = 0;
    for (double v : cases) {
        for (double d : {v, -v}) {
            const std::string got = json::formatNumber(d);
            const std::string want = referenceFormatNumber(d);
            if (got != want && ++mismatches <= 10)
                ADD_FAILURE() << "formatNumber(" << want << ") gave " << got;
        }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << 2 * cases.size();
}

std::string
render(const std::function<void(json::Writer &)> &body, bool pretty = false)
{
    std::ostringstream os;
    {
        json::Writer w(os, pretty);
        body(w);
    }
    return os.str();
}

TEST(JsonWriter, IntegerExtremes)
{
    EXPECT_EQ(render([](json::Writer &w) {
                  w.beginArray();
                  w.value(std::numeric_limits<std::int64_t>::min());
                  w.value(std::numeric_limits<std::int64_t>::max());
                  w.value(std::numeric_limits<std::uint64_t>::max());
                  w.value(std::uint64_t{0});
                  w.endArray();
              }),
              "[-9223372036854775808,9223372036854775807,"
              "18446744073709551615,0]");
}

TEST(JsonWriter, EscapesEveryControlByteQuoteAndBackslash)
{
    std::vector<unsigned char> bytes = {'"', '\\'};
    for (unsigned char c = 0; c < 0x20; ++c)
        bytes.push_back(c);
    for (unsigned char c : bytes) {
        const std::string k = std::string("k") + char(c) + "k";
        const std::string v = std::string(1, char(c)) + "v" + char(c);
        EXPECT_EQ(json::escape(v), referenceEscape(v)) << int(c);
        const std::string doc = render([&](json::Writer &w) {
            w.beginObject();
            w.member(k, v);
            w.key(v);
            w.value(k);
            w.endObject();
        });
        EXPECT_EQ(doc, "{\"" + referenceEscape(k) + "\":\"" +
                           referenceEscape(v) + "\",\"" +
                           referenceEscape(v) + "\":\"" +
                           referenceEscape(k) + "\"}")
            << int(c);
        const json::Value parsed = json::parse(doc);
        EXPECT_EQ(parsed[k].asString(), v) << int(c);
        EXPECT_EQ(parsed[v].asString(), k) << int(c);
    }
}

TEST(JsonWriter, PrettyNestingDeeperThanAnyIndentBuffer)
{
    constexpr int depth = 60;
    const std::string doc = render(
        [](json::Writer &w) {
            for (int d = 0; d < depth; ++d)
                w.beginArray();
            w.value(std::int64_t{1});
            for (int d = 0; d < depth; ++d)
                w.endArray();
        },
        /*pretty=*/true);
    std::string want;
    for (int d = 0; d < depth; ++d)
        want += (d ? "\n" + std::string(2 * d, ' ') : "") + "[";
    want += "\n" + std::string(2 * depth, ' ') + "1";
    for (int d = depth - 1; d >= 0; --d)
        want += "\n" + std::string(2 * d, ' ') + "]";
    EXPECT_EQ(doc, want + "\n");
}

TEST(JsonWriter, DirectStreamWritesLandInDocumentOrder)
{
    std::ostringstream os;
    {
        json::Writer w(os, /*pretty=*/false);
        w.beginObject();
        w.member("a", 1.5);
        w.endObject();
        os << "\ntrailer";
    }
    EXPECT_EQ(os.str(), "{\"a\":1.5}\ntrailer");

    std::ostringstream pretty;
    {
        json::Writer w(pretty, /*pretty=*/true);
        w.beginArray();
        w.value(true);
        w.endArray();
        pretty << '#';
    }
    EXPECT_EQ(pretty.str(), "[\n  true\n]#\n");
}

/** Write a document of @p n rows; leave the root open unless
 *  @p close. */
void
writeRows(json::Writer &w, int n, bool close = true)
{
    w.beginObject();
    w.key("rows");
    w.beginArray();
    for (int i = 0; i < n; ++i) {
        w.beginObject();
        w.member("i", static_cast<std::int64_t>(i));
        w.member("us", i + 0.25);
        w.member("tag", "row\n" + std::to_string(i));
        w.endObject();
    }
    if (!close)
        return;
    w.endArray();
    w.key("end");
    w.valueNull();
    w.endObject();
}

/** What writeRows() writes, assembled by hand (no trailing newline). */
std::string
expectedRows(int n, bool pretty, bool close = true)
{
    const auto nl = [pretty](int depth) {
        return pretty ? "\n" + std::string(2 * depth, ' ') : std::string();
    };
    const std::string colon = pretty ? "\": " : "\":";
    std::string doc = "{" + nl(1) + "\"rows" + colon + "[";
    for (int i = 0; i < n; ++i) {
        const std::string num = std::to_string(i);
        doc += (i ? "," : "") + nl(2) + "{" + nl(3) + "\"i" + colon + num +
               "," + nl(3) + "\"us" + colon + num + ".25," + nl(3) +
               "\"tag" + colon + "\"row\\n" + num + "\"" + nl(2) + "}";
    }
    if (close)
        doc += nl(1) + "]," + nl(1) + "\"end" + colon + "null" + nl(0) + "}";
    return doc;
}

constexpr int manyRows = 2000;

TEST(JsonWriter, DocumentsSeveralBuffersLongMatchHandAssembled)
{
    for (bool pretty : {false, true}) {
        const std::string want = expectedRows(manyRows, pretty);
        ASSERT_GT(want.size(), 3 * json::Writer::bufferSize);
        std::ostringstream os;
        {
            json::Writer w(os, pretty);
            writeRows(w, manyRows);
            // The root has closed, so every byte is in the stream.
            EXPECT_EQ(os.str(), want) << "pretty " << pretty;
        }
        EXPECT_EQ(os.str(), pretty ? want + "\n" : want);
    }
}

TEST(JsonWriter, DestroyedBeforeRootClosesLeavesTheFormattedBytes)
{
    for (bool pretty : {false, true}) {
        for (int rows : {3, manyRows}) {
            std::ostringstream os;
            {
                json::Writer w(os, pretty);
                writeRows(w, rows, /*close=*/false);
                EXPECT_FALSE(w.complete());
            }
            EXPECT_EQ(os.str(), expectedRows(rows, pretty, /*close=*/false))
                << "pretty " << pretty << ", rows " << rows;
        }
    }
}

/** Accepts the first @p budget bytes, then refuses every write. */
class BudgetBuf : public std::streambuf
{
  public:
    explicit BudgetBuf(std::size_t budget) : budget_(budget) {}

    std::string taken;

  protected:
    int_type
    overflow(int_type c) override
    {
        if (traits_type::eq_int_type(c, traits_type::eof()))
            return traits_type::not_eof(c);
        if (taken.size() >= budget_)
            return traits_type::eof();
        taken += traits_type::to_char_type(c);
        return c;
    }

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        const auto room = static_cast<std::streamsize>(budget_ - taken.size());
        const std::streamsize k = std::min(n, room);
        taken.append(s, static_cast<std::size_t>(k));
        return k;
    }

  private:
    std::size_t budget_;
};

TEST(JsonWriter, RefusedWriteSetsBadbit)
{
    const auto body = [](json::Writer &w) {
        w.beginObject();
        w.member("key", "value");
        w.member("n", std::uint64_t{12345});
        w.member("x", 0.25);
        w.endObject();
    };
    const std::string full = render(body, /*pretty=*/true);
    for (std::size_t budget : {0ul, 1ul, 5ul, 17ul}) {
        BudgetBuf buf(budget);
        std::ostream os(&buf);
        {
            json::Writer w(os, /*pretty=*/true);
            body(w);
        }
        EXPECT_TRUE(os.bad()) << budget;
        EXPECT_EQ(buf.taken, full.substr(0, budget));
    }
    BudgetBuf roomy(full.size());
    std::ostream os(&roomy);
    {
        json::Writer w(os, /*pretty=*/true);
        body(w);
    }
    EXPECT_TRUE(os.good());
    EXPECT_EQ(roomy.taken, full);

    // A multi-byte token cut short.
    BudgetBuf two(2);
    std::ostream cut(&two);
    {
        json::Writer w(cut, /*pretty=*/false);
        w.value(std::uint64_t{12345});
    }
    EXPECT_TRUE(cut.bad());
    EXPECT_EQ(two.taken, "12");

    // Budgets around and past the flushes of a document over two
    // buffers long: the stream keeps the exact prefix.
    const std::string big = expectedRows(manyRows, /*pretty=*/true) + "\n";
    const std::size_t size = json::Writer::bufferSize;
    ASSERT_GT(big.size(), 2 * size);
    for (std::size_t budget : {size - 1, size, size + 1, 2 * size + 7,
                               big.size() - 1}) {
        BudgetBuf sink(budget);
        std::ostream out(&sink);
        {
            json::Writer w(out, /*pretty=*/true);
            writeRows(w, manyRows);
        }
        EXPECT_TRUE(out.bad()) << budget;
        EXPECT_EQ(sink.taken, big.substr(0, budget)) << budget;
    }

    // As with operator<<, a stream that has already failed gets nothing.
    BudgetBuf untouched(full.size());
    std::ostream failed(&untouched);
    failed.setstate(std::ios::failbit);
    {
        json::Writer w(failed, /*pretty=*/true);
        body(w);
    }
    EXPECT_EQ(untouched.taken, "");
}

TEST(JsonParser, RejectsMalformedDocuments)
{
    EXPECT_FALSE(json::valid(""));
    EXPECT_FALSE(json::valid("{"));
    EXPECT_FALSE(json::valid("{\"a\":}"));
    EXPECT_FALSE(json::valid("[1,]"));
    EXPECT_FALSE(json::valid("{\"a\":1} trailing"));
    EXPECT_FALSE(json::valid("'single'"));
    EXPECT_TRUE(json::valid("{\"a\": [1, 2.5, null, true, \"x\"]}"));
}

// --------------------------------------------------------------------
// Registry serialisation
// --------------------------------------------------------------------

TEST(StatsJson, EmptyRegistry)
{
    stats::Registry registry;
    std::ostringstream os;
    registry.dumpJson(os);

    ASSERT_TRUE(json::valid(os.str())) << os.str();
    const json::Value root = json::parse(os.str());
    EXPECT_EQ(root["schema"].asString(), "uldma-stats-v1");
    ASSERT_TRUE(root["groups"].isArray());
    EXPECT_EQ(root["groups"].size(), 0u);
}

TEST(StatsJson, HistogramUnderflowOverflowRoundTrip)
{
    stats::Histogram hist(10.0, 20.0, 4);
    hist.sample(5.0);    // underflow
    hist.sample(9.999);  // underflow
    hist.sample(10.0);   // bucket 0
    hist.sample(12.5);   // bucket 1
    hist.sample(19.9);   // bucket 3
    hist.sample(20.0);   // overflow (range is [lo, hi))
    hist.sample(1e9);    // overflow

    stats::Scalar counter;
    ++counter;
    counter += 41;

    stats::Average avg;
    avg.sample(1.0);
    avg.sample(3.0);

    stats::Group group("unit.test");
    group.addScalar("counter", &counter, "test counter");
    group.addAverage("avg", &avg, "test average");
    group.addHistogram("latency", &hist, "test histogram");

    stats::Registry registry;
    registry.add(&group);
    std::ostringstream os;
    registry.dumpJson(os);

    ASSERT_TRUE(json::valid(os.str())) << os.str();
    const json::Value root = json::parse(os.str());
    ASSERT_EQ(root["groups"].size(), 1u);
    const json::Value &g = root["groups"][0];
    EXPECT_EQ(g["name"].asString(), "unit.test");
    EXPECT_EQ(g["scalars"]["counter"].asNumber(), 42.0);
    EXPECT_EQ(g["averages"]["avg"]["count"].asNumber(), 2.0);
    EXPECT_EQ(g["averages"]["avg"]["mean"].asNumber(), 2.0);

    const json::Value &h = g["histograms"]["latency"];
    EXPECT_EQ(h["lo"].asNumber(), 10.0);
    EXPECT_EQ(h["hi"].asNumber(), 20.0);
    EXPECT_EQ(h["underflow"].asNumber(), 2.0);
    EXPECT_EQ(h["overflow"].asNumber(), 2.0);
    EXPECT_EQ(h["total"].asNumber(), 7.0);
    ASSERT_EQ(h["buckets"].size(), 4u);
    EXPECT_EQ(h["buckets"][0].asNumber(), 1.0);
    EXPECT_EQ(h["buckets"][1].asNumber(), 1.0);
    EXPECT_EQ(h["buckets"][2].asNumber(), 0.0);
    EXPECT_EQ(h["buckets"][3].asNumber(), 1.0);
}

// --------------------------------------------------------------------
// Percentiles: sorted-sample interpolation, histogram cumulative mass,
// and human/machine parity.
// --------------------------------------------------------------------

TEST(StatsPercentile, SortedSamplesUseLinearInterpolation)
{
    EXPECT_EQ(stats::percentileOfSorted({}, 50.0), 0.0);
    EXPECT_EQ(stats::percentileOfSorted({7.0}, 0.0), 7.0);
    EXPECT_EQ(stats::percentileOfSorted({7.0}, 99.0), 7.0);

    // numpy-default "linear" method: rank = p/100 * (n-1).
    const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
    EXPECT_EQ(stats::percentileOfSorted(v, 0.0), 1.0);
    EXPECT_EQ(stats::percentileOfSorted(v, 25.0), 1.75);
    EXPECT_EQ(stats::percentileOfSorted(v, 50.0), 2.5);
    EXPECT_EQ(stats::percentileOfSorted(v, 100.0), 4.0);
}

TEST(StatsPercentile, HistogramInterpolatesInsideBuckets)
{
    // All mass in bucket [0, 10): assuming uniform spread inside the
    // bucket, percentile(p) walks linearly across it.
    stats::Histogram uniform(0.0, 100.0, 10);
    for (int i = 0; i < 100; ++i)
        uniform.sample(5.0);
    EXPECT_DOUBLE_EQ(uniform.percentile(50.0), 5.0);
    EXPECT_DOUBLE_EQ(uniform.percentile(10.0), 1.0);

    // Mass split across buckets: p50's target rank (2 of 4) lands at
    // the end of the second occupied bucket.
    stats::Histogram split(0.0, 10.0, 10);
    split.sample(1.5);
    split.sample(2.5);
    split.sample(9.5);
    split.sample(9.5);
    EXPECT_DOUBLE_EQ(split.percentile(50.0), 3.0);

    // Out-of-range mass collapses to the histogram edges: the export
    // does not know where under/overflow samples actually fell.
    stats::Histogram low(10.0, 20.0, 4);
    low.sample(5.0);
    EXPECT_EQ(low.percentile(50.0), 10.0);
    stats::Histogram high(10.0, 20.0, 4);
    high.sample(25.0);
    EXPECT_EQ(high.percentile(50.0), 20.0);

    stats::Histogram empty(0.0, 1.0, 2);
    EXPECT_EQ(empty.percentile(50.0), 0.0);
}

TEST(StatsPercentile, DegenerateDistributionsStayInRange)
{
    // All-equal sorted samples: every percentile is that value, and
    // interpolation between equal neighbours must not drift.
    const std::vector<double> flat{3.0, 3.0, 3.0, 3.0, 3.0};
    for (double p : {0.0, 12.5, 50.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(stats::percentileOfSorted(flat, p), 3.0);

    // Single histogram sample: the whole mass sits in one bucket, so
    // every percentile interpolates within that bucket's bounds.
    stats::Histogram one(0.0, 100.0, 10);
    one.sample(42.0);
    for (double p : {1.0, 50.0, 99.0}) {
        const double v = one.percentile(p);
        EXPECT_GE(v, 40.0);
        EXPECT_LE(v, 50.0);
    }

    // All samples equal: same single-bucket containment, and the
    // percentile curve is monotone.
    stats::Histogram same(0.0, 10.0, 10);
    for (int i = 0; i < 1000; ++i)
        same.sample(7.5);
    double prev = same.percentile(0.0);
    for (double p = 5.0; p <= 100.0; p += 5.0) {
        const double v = same.percentile(p);
        EXPECT_GE(v, 7.0);
        EXPECT_LE(v, 8.0);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST(StatsPercentile, TextDumpAndJsonExportAgree)
{
    stats::Histogram hist(0.0, 50.0, 25);
    for (double v : {1.0, 3.0, 3.5, 7.0, 12.0, 12.5, 31.0, 49.0})
        hist.sample(v);
    stats::Average avg;
    avg.sample(2.0);
    avg.sample(4.0);
    avg.sample(9.0);

    stats::Group group("unit.parity");
    group.addAverage("avg", &avg, "parity average");
    group.addHistogram("lat", &hist, "parity histogram");
    stats::Registry registry;
    registry.add(&group);

    std::ostringstream text_os;
    registry.dump(text_os);
    const std::string text = text_os.str();
    std::ostringstream json_os;
    registry.dumpJson(json_os);
    const json::Value root = json::parse(json_os.str());
    const json::Value &h = root["groups"][0]["histograms"]["lat"];
    const json::Value &a = root["groups"][0]["averages"]["avg"];

    // The text dump renders the *same* percentile/stddev values the
    // JSON export carries, %.4g-formatted.
    const auto rendered = [&](const char *tag, double value) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%s%.4g", tag, value);
        return text.find(buf) != std::string::npos;
    };
    EXPECT_TRUE(rendered("p50=", h["p50"].asNumber())) << text;
    EXPECT_TRUE(rendered("p90=", h["p90"].asNumber())) << text;
    EXPECT_TRUE(rendered("p99=", h["p99"].asNumber())) << text;
    EXPECT_TRUE(rendered("stddev=", a["stddev"].asNumber())) << text;

    // And the JSON percentiles are Histogram::percentile() itself.
    EXPECT_EQ(h["p50"].asNumber(), hist.percentile(50.0));
    EXPECT_EQ(h["p99"].asNumber(), hist.percentile(99.0));
}

TEST(StatsJson, MachineExportContainsEveryComponent)
{
    MachineConfig config;
    configureNode(config.node, DmaMethod::ExtShadow);
    Machine machine(config);

    std::ostringstream os;
    machine.dumpStatsJson(os);
    ASSERT_TRUE(json::valid(os.str())) << os.str();

    const json::Value root = json::parse(os.str());
    std::vector<std::string> names;
    for (const json::Value &g : root["groups"].asArray())
        names.push_back(g["name"].asString());

    for (const char *expect :
         {"node0.bus", "node0.cpu", "node0.kernel", "node0.dma",
          "node0.nic", "node0.cpu.tlb"}) {
        bool found = false;
        for (const std::string &n : names)
            found = found || n == expect;
        EXPECT_TRUE(found) << "missing group " << expect;
    }
}

// --------------------------------------------------------------------
// Golden check: Table-1 initiation counters vs the declared access
// counts.
// --------------------------------------------------------------------

namespace {

/** Run @p n initiations of @p method and return the stats JSON. */
json::Value
statsAfterInitiations(DmaMethod method, unsigned n)
{
    MachineConfig config;
    configureNode(config.node, method);
    Machine machine(config);
    prepareMachine(machine, method);
    Kernel &kernel = machine.node(0).kernel();
    Process &p = kernel.createProcess("p");
    EXPECT_TRUE(prepareProcess(kernel, p, method));
    // One page pair per initiation — distinct addresses, so the merge
    // buffer cannot collapse consecutive initiations into one.
    const Addr src = kernel.allocate(p, n * pageSize, Rights::ReadWrite);
    const Addr dst = kernel.allocate(p, n * pageSize, Rights::ReadWrite);
    kernel.createShadowMappings(p, src, n * pageSize);
    kernel.createShadowMappings(p, dst, n * pageSize);

    Program prog;
    for (unsigned i = 0; i < n; ++i)
        emitInitiation(prog, kernel, p, method, src + i * pageSize,
                       dst + i * pageSize, 64);
    prog.exit();
    kernel.launch(p, std::move(prog));
    machine.start();
    EXPECT_TRUE(machine.run(60 * tickPerSec));

    std::ostringstream os;
    machine.dumpStatsJson(os);
    EXPECT_TRUE(json::valid(os.str()));
    return json::parse(os.str());
}

const json::Value &
groupNamed(const json::Value &root, const std::string &name)
{
    static const json::Value null_value;
    for (const json::Value &g : root["groups"].asArray()) {
        if (g["name"].asString() == name)
            return g;
    }
    return null_value;
}

} // namespace

TEST(StatsJson, GoldenTable1InitiationCounters)
{
    constexpr unsigned kInitiations = 8;
    for (DmaMethod method : table1Methods) {
        SCOPED_TRACE(toString(method));
        const json::Value root =
            statsAfterInitiations(method, kInitiations);

        // Every initiation reached the engine.
        const json::Value &dma = groupNamed(root, "node0.dma");
        ASSERT_TRUE(dma.isObject());
        EXPECT_EQ(dma["scalars"]["initiations"].asNumber(),
                  static_cast<double>(kInitiations));
        EXPECT_EQ(dma["scalars"]["rejections"].asNumber(), 0.0);

        // For the user-level methods the uncached device/shadow
        // accesses per initiation equal the per-method count the
        // paper's Table 1 declares (initiationAccessCount()).
        if (isUserLevel(method)) {
            const json::Value &cpu = groupNamed(root, "node0.cpu");
            ASSERT_TRUE(cpu.isObject());
            const double uncached =
                cpu["scalars"]["uncached_loads"].asNumber() +
                cpu["scalars"]["uncached_stores"].asNumber();
            EXPECT_EQ(uncached,
                      static_cast<double>(kInitiations *
                                          initiationAccessCount(method)));
        }
    }
}

} // namespace
} // namespace uldma
