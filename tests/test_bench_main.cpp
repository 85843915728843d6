/**
 * @file
 * Tests for the bench binaries' shared main(): an exhibit whose claim
 * about its own numbers fails makes the bench exit 1, and the --json
 * report is still written so the numbers behind the failure survive.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "../bench/bench_common.hh"

namespace uldma::benchutil {
namespace {

int
runBench(void (*exhibit)(Reporter &), const std::string &json_path)
{
    std::string name = "bench_test";
    std::string option = "--json=" + json_path;
    char *argv[] = {name.data(), option.data()};
    return benchMain(2, argv, exhibit);
}

void
claimHolds(Reporter &reporter)
{
    reporter.record("test/point").metric("value_us", 1.0);
    reporter.claim(true, "the point exists");
}

void
claimFails(Reporter &reporter)
{
    reporter.record("test/point").metric("value_us", 1.0);
    reporter.claim(false, "the point is free");
}

TEST(BenchMain, FailedClaimExitsOneAfterWritingTheReport)
{
    const std::string path = ::testing::TempDir() + "bench_main_claim.json";
    std::remove(path.c_str());
    EXPECT_EQ(runBench(claimFails, path), 1);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"test/point\""), std::string::npos) << text;

    EXPECT_EQ(runBench(claimHolds, path), 0);
    std::remove(path.c_str());
}

} // namespace
} // namespace uldma::benchutil
