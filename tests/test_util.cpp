/**
 * @file
 * Unit tests for the util module: bitfields, integer math, FNV-1a,
 * RNG, string helpers, option parsing.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "util/bitfield.hh"
#include "util/fnv.hh"
#include "util/options.hh"
#include "util/random.hh"
#include "util/strutil.hh"

namespace uldma {
namespace {

// ---------------------------------------------------------------------
// bitfield.hh
// ---------------------------------------------------------------------

TEST(Bitfield, MaskWidths)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(1), 1u);
    EXPECT_EQ(mask(8), 0xFFu);
    EXPECT_EQ(mask(63), 0x7FFF'FFFF'FFFF'FFFFull);
    EXPECT_EQ(mask(64), ~std::uint64_t(0));
    EXPECT_EQ(mask(100), ~std::uint64_t(0));
}

TEST(Bitfield, BitsExtraction)
{
    const std::uint64_t v = 0xDEAD'BEEF'1234'5678ull;
    EXPECT_EQ(bits(v, 7, 0), 0x78u);
    EXPECT_EQ(bits(v, 15, 8), 0x56u);
    EXPECT_EQ(bits(v, 63, 56), 0xDEu);
    EXPECT_EQ(bits(v, 0), 0u);
    EXPECT_EQ(bits(v, 3), 1u);
}

TEST(Bitfield, InsertBits)
{
    EXPECT_EQ(insertBits(0, 7, 0, 0xAB), 0xABu);
    EXPECT_EQ(insertBits(0xFF00, 7, 0, 0xAB), 0xFFABu);
    EXPECT_EQ(insertBits(0xFFFF, 11, 4, 0), 0xF00Fu);
    // Field wider than range is truncated.
    EXPECT_EQ(insertBits(0, 3, 0, 0xFF), 0xFu);
}

TEST(Bitfield, PowerOfTwoPredicates)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

TEST(Bitfield, Logarithms)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(1023), 9u);
    EXPECT_EQ(floorLog2(1024), 10u);
}

TEST(Bitfield, DivCeilAndRounding)
{
    EXPECT_EQ(divCeil(0, 8), 0u);
    EXPECT_EQ(divCeil(1, 8), 1u);
    EXPECT_EQ(divCeil(8, 8), 1u);
    EXPECT_EQ(divCeil(9, 8), 2u);
    EXPECT_EQ(roundUp(0, 8192), 0u);
    EXPECT_EQ(roundUp(1, 8192), 8192u);
    EXPECT_EQ(roundUp(8192, 8192), 8192u);
    EXPECT_EQ(roundDown(8191, 8192), 0u);
    EXPECT_EQ(roundDown(8193, 8192), 8192u);
}

// ---------------------------------------------------------------------
// random.hh
// ---------------------------------------------------------------------

TEST(Random, DeterministicForSameSeed)
{
    Random a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Random, DifferentSeedsDiffer)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next64() == b.next64())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Random, BelowStaysInRange)
{
    Random rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Random, BelowCoversRange)
{
    Random rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Random, InRangeInclusive)
{
    Random rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = rng.inRange(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        saw_lo |= v == 5;
        saw_hi |= v == 9;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Random, DoubleInUnitInterval)
{
    Random rng(99);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    // Mean should be near 0.5.
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Random, ReseedReproduces)
{
    Random rng(5);
    const std::uint64_t first = rng.next64();
    rng.next64();
    rng.reseed(5);
    EXPECT_EQ(rng.next64(), first);
}

// ---------------------------------------------------------------------
// fnv.hh
// ---------------------------------------------------------------------

/** The plain byte-wise FNV-1a step that Fnv1a::mix must reproduce. */
std::uint64_t
referenceMix(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST(Fnv1a, MixMatchesTheByteWiseLoop)
{
    Fnv1a f;
    std::uint64_t ref = 0xcbf29ce484222325ULL;
    ASSERT_EQ(f.h, ref);
    const auto both = [&](std::uint64_t v) {
        f.mix(v);
        ref = referenceMix(ref, v);
        return f.h == ref;
    };
    for (const std::uint64_t v :
         {0x0ULL, 0x1ULL, 0xffULL, 0x100ULL, 0xff00ULL, 1ULL << 56,
          0x0100000000000001ULL, 0x00ff00000000ff00ULL,
          0x8000000000000000ULL, ~0ULL}) {
        ASSERT_TRUE(both(v)) << std::hex << v;
    }
    // Random values shifted right by 0-64 bits, so every count of
    // leading zero bytes is common.
    Random rng(15);
    for (int i = 0; i < 1000000; ++i) {
        const unsigned shift = static_cast<unsigned>(rng.below(65));
        const std::uint64_t v = shift == 64 ? 0 : rng.next64() >> shift;
        ASSERT_TRUE(both(v)) << "value " << i << ": " << std::hex << v;
    }
}

TEST(Fnv1a, PinnedDigest)
{
    Fnv1a f;
    for (const std::uint64_t v :
         {0x0ULL, 0x1ULL, 0xffULL, 0x100ULL, 0xdeadbeefULL, 1ULL << 56,
          0x0100000000000001ULL, ~0ULL}) {
        f.mix(v);
    }
    EXPECT_EQ(f.h, 0x81fdc247c56d8f43ULL);
}

TEST(Fnv1a, StringFormHashesEachByte)
{
    const auto digest = [](const std::string &s) {
        Fnv1a f;
        f.mixBytes(s);
        return f.h;
    };
    // The published FNV-1a 64-bit test vectors.
    EXPECT_EQ(digest(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(digest("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(digest("foobar"), 0x85944171f73967e8ULL);

    // mix(v) is mixBytes over v's eight little-endian bytes.
    const std::uint64_t v = 0x0000001200340056ULL;
    std::string bytes;
    for (int i = 0; i < 8; ++i)
        bytes.push_back(static_cast<char>((v >> (i * 8)) & 0xff));
    Fnv1a f;
    f.mix(v);
    EXPECT_EQ(digest(bytes), f.h);
}

TEST(Fnv1a, MixZerosMatchesZeroMixes)
{
    std::vector<std::uint64_t> counts;
    for (std::uint64_t n = 0; n <= 200; ++n)
        counts.push_back(n);
    for (unsigned k = 1; k <= 20; ++k) {
        counts.push_back((1ULL << k) - 1);
        counts.push_back(1ULL << k);
        counts.push_back((1ULL << k) + 1);
    }
    Random rng(24);
    for (const std::uint64_t n : counts) {
        // An arbitrary prefix, so the fold starts from any state.
        Fnv1a folded;
        const std::uint64_t prefix = rng.below(8);
        for (std::uint64_t i = 0; i < prefix; ++i)
            folded.mix(rng.next64() >> rng.below(64));
        Fnv1a looped = folded;
        folded.mixZeros(n);
        for (std::uint64_t i = 0; i < n; ++i)
            looped.mix(0);
        ASSERT_EQ(folded.h, looped.h) << "n = " << n;
    }
}

// ---------------------------------------------------------------------
// strutil.hh
// ---------------------------------------------------------------------

TEST(Strutil, Csprintf)
{
    EXPECT_EQ(csprintf("plain"), "plain");
    EXPECT_EQ(csprintf("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
    EXPECT_EQ(csprintf("%-4s|", "ab"), "ab  |");
    EXPECT_EQ(csprintf("%.2f", 1.005), "1.00");
}

TEST(Strutil, FormatBytes)
{
    EXPECT_EQ(formatBytes(0), "0 B");
    EXPECT_EQ(formatBytes(1023), "1023 B");
    EXPECT_EQ(formatBytes(1024), "1.0 KiB");
    EXPECT_EQ(formatBytes(8 * 1024), "8.0 KiB");
    EXPECT_EQ(formatBytes(3 * 1024 * 1024 / 2), "1.5 MiB");
}

TEST(Strutil, FormatTime)
{
    EXPECT_EQ(formatTime(500), "500 ps");
    EXPECT_EQ(formatTime(80'000), "80.00 ns");
    EXPECT_EQ(formatTime(18'600'000), "18.60 us");
    EXPECT_EQ(formatTime(2'000'000'000), "2.00 ms");
}

TEST(Strutil, Split)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
    EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Strutil, TrimAndStartsWith)
{
    EXPECT_EQ(trim("  x  "), "x");
    EXPECT_EQ(trim("\t\n"), "");
    EXPECT_EQ(trim("abc"), "abc");
    EXPECT_TRUE(startsWith("shadow(vaddr)", "shadow"));
    EXPECT_FALSE(startsWith("sh", "shadow"));
}

// ---------------------------------------------------------------------
// options.hh
// ---------------------------------------------------------------------

TEST(Options, DefaultsAndParsing)
{
    Options opts("test");
    opts.addInt("iterations", 1000, "how many");
    opts.addString("method", "ext-shadow", "which method");
    opts.addFlag("verbose", false, "chatty");

    const char *argv[] = {"prog", "--iterations=250", "--verbose",
                          "positional"};
    ASSERT_TRUE(opts.parse(4, const_cast<char **>(argv)));
    EXPECT_EQ(opts.getInt("iterations"), 250);
    EXPECT_EQ(opts.getString("method"), "ext-shadow");
    EXPECT_TRUE(opts.getFlag("verbose"));
    ASSERT_EQ(opts.positional().size(), 1u);
    EXPECT_EQ(opts.positional()[0], "positional");
}

TEST(Options, SeparateValueForm)
{
    Options opts("test");
    opts.addInt("n", 1, "n");
    const char *argv[] = {"prog", "--n", "77"};
    ASSERT_TRUE(opts.parse(3, const_cast<char **>(argv)));
    EXPECT_EQ(opts.getInt("n"), 77);
}

TEST(Options, HelpReturnsFalse)
{
    Options opts("test");
    opts.addInt("n", 1, "n");
    const char *argv[] = {"prog", "--help"};
    EXPECT_FALSE(opts.parse(2, const_cast<char **>(argv)));
}

TEST(Options, UsageMentionsOptionsAndDefaults)
{
    Options opts("my tool");
    opts.addInt("count", 42, "the count");
    const std::string usage = opts.usage("prog");
    EXPECT_NE(usage.find("count"), std::string::npos);
    EXPECT_NE(usage.find("42"), std::string::npos);
    EXPECT_NE(usage.find("my tool"), std::string::npos);
}

} // namespace
} // namespace uldma
