/**
 * @file
 * The workload engine end to end: strict scenario parsing (typos and
 * engine-mode conflicts are errors, not defaults), distribution
 * sampling, seed-derivation independence, byte-determinism of the
 * uldma-workload-v1 report, seed sensitivity, per-protocol calibration
 * of an uncontended Table-1 mix, adversarial interference, and the
 * §3.2 kernel fallback when contexts run out.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/experiment.hh"
#include "core/machine.hh"
#include "sim/json.hh"
#include "workload/driver.hh"
#include "workload/generator.hh"
#include "workload/prng.hh"
#include "workload/report.hh"
#include "workload/scenario.hh"

namespace uldma::workload {
namespace {

// ---------------------------------------------------------------------
// Scenario parsing
// ---------------------------------------------------------------------

std::string
minimalScenario(const std::string &streams)
{
    return R"({"schema": "uldma-scenario-v1", "name": "t",
               "streams": [)" + streams + "]}";
}

constexpr const char *oneStream =
    R"({"name": "s", "protocol": "ext-shadow", "initiations": 3})";

TEST(ScenarioParse, MinimalDocumentGetsDefaults)
{
    Scenario s;
    std::string error;
    ASSERT_TRUE(parseScenario(minimalScenario(oneStream), s, &error))
        << error;
    EXPECT_EQ(s.name, "t");
    EXPECT_EQ(s.nodes, 1u);
    EXPECT_EQ(s.bus, "tc");
    EXPECT_EQ(s.cpuMhz, 150u);
    ASSERT_EQ(s.streams.size(), 1u);
    EXPECT_EQ(s.streams[0].method, DmaMethod::ExtShadow);
    EXPECT_EQ(s.streams[0].initiations, 3u);
    EXPECT_EQ(s.streams[0].count, 1u);
    EXPECT_EQ(s.streams[0].pacing.kind, Pacing::Kind::Closed);
    EXPECT_EQ(s.streams[0].size.kind, SizeDist::Kind::Fixed);
    EXPECT_EQ(s.streams[0].size.fixedBytes, 8u);
}

TEST(ScenarioParse, UnknownMembersAreErrors)
{
    Scenario s;
    std::string error;
    // Root-level typo.
    EXPECT_FALSE(parseScenario(
        R"({"schema": "uldma-scenario-v1", "name": "t", "nodez": 2,
            "streams": [)" + std::string(oneStream) + "]}",
        s, &error));
    EXPECT_NE(error.find("nodez"), std::string::npos) << error;

    // Stream-level typo.
    EXPECT_FALSE(parseScenario(
        minimalScenario(R"({"name": "s", "protocol": "ext-shadow",
                            "initiations": 3, "sized": 1})"),
        s, &error));
    EXPECT_NE(error.find("sized"), std::string::npos) << error;

    // A translation fault always aborts: no fault policy to pick.
    EXPECT_FALSE(parseScenario(
        R"({"schema": "uldma-scenario-v1", "name": "t",
            "iotlb": {"fault": "trap"},
            "streams": [)" + std::string(oneStream) + "]}",
        s, &error));
    EXPECT_NE(error.find("fault"), std::string::npos) << error;
}

TEST(ScenarioParse, SchemaAndProtocolAreChecked)
{
    Scenario s;
    std::string error;
    EXPECT_FALSE(parseScenario(
        R"({"schema": "uldma-scenario-v2", "name": "t", "streams": []})",
        s, &error));
    EXPECT_FALSE(parseScenario(
        minimalScenario(
            R"({"name": "s", "protocol": "warp-drive",
                "initiations": 1})"),
        s, &error));
    EXPECT_NE(error.find("warp-drive"), std::string::npos) << error;
}

TEST(ScenarioParse, EngineModeConflictOnOneNodeIsRejected)
{
    Scenario s;
    std::string error;
    // key-based and ext-shadow need different engine modes.
    EXPECT_FALSE(parseScenario(
        minimalScenario(
            R"({"name": "a", "protocol": "key-based", "initiations": 1},
               {"name": "b", "protocol": "ext-shadow",
                "initiations": 1})"),
        s, &error));
    EXPECT_NE(error.find("engine mode"), std::string::npos) << error;

    // The kernel channel coexists with anything.
    EXPECT_TRUE(parseScenario(
        minimalScenario(
            R"({"name": "a", "protocol": "key-based", "initiations": 1},
               {"name": "b", "protocol": "kernel", "initiations": 1})"),
        s, &error))
        << error;
}

TEST(ScenarioParse, CapMembersAreValidated)
{
    Scenario s;
    std::string error;
    // rate_class is a capability-arbiter knob: meaningless (and so an
    // error) on any other protocol's stream.
    EXPECT_FALSE(parseScenario(
        minimalScenario(
            R"({"name": "s", "protocol": "key-based", "initiations": 1,
                "rate_class": 1})"),
        s, &error));
    EXPECT_NE(error.find("rate_class"), std::string::npos) << error;

    // The class must exist in the scenario's arbiter geometry.
    EXPECT_FALSE(parseScenario(
        R"({"schema": "uldma-scenario-v1", "name": "t",
            "capability": {"rate_classes": 2},
            "streams": [{"name": "s", "protocol": "cap",
                         "initiations": 1, "rate_class": 2}]})",
        s, &error));
    EXPECT_NE(error.find("rate_class must be < 2"), std::string::npos)
        << error;

    // The capability block is strictly checked like everything else.
    EXPECT_FALSE(parseScenario(
        R"({"schema": "uldma-scenario-v1", "name": "t",
            "capability": {"slotz": 16},
            "streams": [{"name": "s", "protocol": "cap",
                         "initiations": 1}]})",
        s, &error));
    EXPECT_NE(error.find("slotz"), std::string::npos) << error;
    EXPECT_FALSE(parseScenario(
        R"({"schema": "uldma-scenario-v1", "name": "t",
            "capability": {"slots": 1000},
            "streams": [{"name": "s", "protocol": "cap",
                         "initiations": 1}]})",
        s, &error));
    EXPECT_NE(error.find("slots must be in [1, 256]"),
              std::string::npos)
        << error;

    // A valid cap scenario: geometry lands, classes default to 4.
    ASSERT_TRUE(parseScenario(
        R"({"schema": "uldma-scenario-v1", "name": "t",
            "capability": {"slots": 16, "rate_classes": 3},
            "streams": [{"name": "s", "protocol": "cap",
                         "initiations": 1, "rate_class": 2}]})",
        s, &error))
        << error;
    EXPECT_TRUE(s.cap.enabled);
    EXPECT_EQ(s.cap.slots, 16u);
    EXPECT_EQ(s.cap.rateClasses, 3u);
    EXPECT_EQ(s.streams[0].rateClass, 2u);
}

TEST(ScenarioParse, CountsPast32BitsAreRejected)
{
    Scenario s;
    std::string error;
    // 2^32 + 1 and 2^32 would wrap to 1 and 0 initiations.
    for (const char *count : {"4294967297", "4294967296"}) {
        EXPECT_FALSE(parseScenario(
            minimalScenario(std::string(R"({"name": "s", "protocol": )"
                                        R"("ext-shadow", "initiations": )") +
                            count + "}"),
            s, &error));
        EXPECT_NE(error.find("initiations must be in [1, 4294967295]"),
                  std::string::npos)
            << error;
    }
    EXPECT_FALSE(parseScenario(
        minimalScenario(R"({"name": "a", "protocol": "ext-shadow",
                            "adversarial": true, "ops": 4294967296})"),
        s, &error));
    EXPECT_NE(error.find("ops must be in [1, 4294967295]"),
              std::string::npos)
        << error;

    // The largest count fits the stream's unsigned field, but asks
    // for more than a scenario may build (maxScenarioWork).
    EXPECT_FALSE(parseScenario(
        minimalScenario(R"({"name": "s", "protocol": "ext-shadow",
                            "initiations": 4294967295},
                           {"name": "a", "protocol": "ext-shadow",
                            "adversarial": true, "ops": 4294967295})"),
        s, &error));
    EXPECT_NE(error.find("streams[0].initiations"), std::string::npos)
        << error;
}

TEST(ScenarioParse, TotalWorkIsBounded)
{
    Scenario s;
    std::string error;
    // count x initiations plus count x ops, summed over the streams:
    // exactly the bound parses, one more is refused at the stream
    // that crosses it.
    const std::string workers =
        R"({"name": "w", "count": 64, "protocol": "ext-shadow",
            "initiations": 16383})";
    ASSERT_TRUE(parseScenario(
        minimalScenario(workers + R"(, {"name": "a", "count": 2,
                        "protocol": "ext-shadow", "adversarial": true,
                        "ops": 32})"),
        s, &error))
        << error;
    EXPECT_EQ(64u * 16383 + 2 * 32, maxScenarioWork);
    EXPECT_FALSE(parseScenario(
        minimalScenario(workers + R"(, {"name": "a", "count": 1,
                        "protocol": "ext-shadow", "adversarial": true,
                        "ops": 65})"),
        s, &error));
    EXPECT_NE(error.find("streams[1].ops"), std::string::npos) << error;
    EXPECT_NE(error.find("1048577"), std::string::npos) << error;
}

TEST(ScenarioParse, CpuClockMustHaveATickPeriod)
{
    // A clock period is tickPerUs / MHz ticks: past tickPerUs MHz it
    // rounds to 0 and the machine build would abort.
    Scenario s;
    std::string error;
    const auto withMhz = [](std::uint64_t mhz) {
        return R"({"schema": "uldma-scenario-v1", "name": "t",
                   "cpu_mhz": )" +
               std::to_string(mhz) + ", \"streams\": [" + oneStream +
               "]}";
    };
    ASSERT_TRUE(parseScenario(withMhz(tickPerUs), s, &error)) << error;
    EXPECT_EQ(s.cpuMhz, tickPerUs);
    for (std::uint64_t mhz : {std::uint64_t(0), tickPerUs + 1,
                              std::uint64_t(2000000)}) {
        EXPECT_FALSE(parseScenario(withMhz(mhz), s, &error)) << mhz;
        EXPECT_NE(error.find("cpu_mhz must be in [1, 1000000]"),
                  std::string::npos)
            << error;
    }
}

TEST(ScenarioParse, NodeFramesAreBounded)
{
    // 32 replicas x (64 + 64) pages is 4,096 frames: two such streams
    // ask for 8,192 of a node's 8,176 free 8 KiB frames, and the
    // refusal names the node.  framesPerNode counts a remote
    // destination on its own node, so the same streams fit once one
    // of them sends to a second node.
    const std::string big =
        R"({"name": "%", "count": 32, "node": 0, "protocol": "kernel",
            "initiations": 1, "slots": 64})";
    auto named = [&](const char *name, const char *extra) {
        std::string stream = big;
        stream.replace(stream.find('%'), 1, name);
        return stream.substr(0, stream.size() - 1) + extra + "}";
    };
    Scenario s;
    std::string error;
    EXPECT_FALSE(parseScenario(
        minimalScenario(named("a", "") + ", " + named("b", "")), s,
        &error));
    EXPECT_NE(error.find("node 0: the streams take 8192 frames, more "
                         "than the 8176"),
              std::string::npos)
        << error;

    const std::string two_nodes =
        R"({"schema": "uldma-scenario-v1", "name": "t", "nodes": 2,
            "streams": [)" +
        named("a", "") + ", " + named("b", R"(, "remote_node": 1)") + "]}";
    ASSERT_TRUE(parseScenario(two_nodes, s, &error)) << error;
    EXPECT_EQ(framesPerNode(s), (std::vector<Addr>{4096 + 2048, 2048}));
}

TEST(ScenarioParse, MethodNamesRoundTrip)
{
    for (DmaMethod method : allMethods) {
        DmaMethod parsed;
        ASSERT_TRUE(parseMethodName(methodName(method), parsed))
            << methodName(method);
        EXPECT_EQ(parsed, method);
    }
}

// ---------------------------------------------------------------------
// Seed derivation and sampling
// ---------------------------------------------------------------------

TEST(WorkloadPrng, StreamSeedsAreIndependent)
{
    // Distinct (seed, stream, purpose) triples give distinct seeds.
    std::vector<std::uint64_t> seen;
    for (std::uint64_t seed : {0ull, 1ull, 7ull}) {
        for (std::uint64_t stream = 0; stream < 4; ++stream) {
            for (SeedPurpose purpose :
                 {SeedPurpose::Sizes, SeedPurpose::Pacing,
                  SeedPurpose::Adversarial, SeedPurpose::Scheduler}) {
                seen.push_back(streamSeed(seed, stream, purpose));
            }
        }
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
        << "derived seeds collide";
}

TEST(WorkloadPrng, SampleSizeRespectsDistributions)
{
    Random rng(42);

    SizeDist fixed;
    EXPECT_EQ(sampleSize(fixed, rng), 8u);

    SizeDist uniform;
    uniform.kind = SizeDist::Kind::Uniform;
    uniform.minBytes = 16;
    uniform.maxBytes = 64;
    for (int i = 0; i < 200; ++i) {
        const Addr v = sampleSize(uniform, rng);
        EXPECT_GE(v, 16u);
        EXPECT_LE(v, 64u);
    }

    SizeDist zipf;
    zipf.kind = SizeDist::Kind::Zipf;
    zipf.zipfSizes = {8, 512, 4096};
    zipf.zipfExponent = 1.0;
    unsigned counts[3] = {0, 0, 0};
    for (int i = 0; i < 3000; ++i) {
        const Addr v = sampleSize(zipf, rng);
        if (v == 8)
            ++counts[0];
        else if (v == 512)
            ++counts[1];
        else if (v == 4096)
            ++counts[2];
        else
            FAIL() << "sampled a size outside the buckets: " << v;
    }
    // Rank-0 dominates (weight 1 vs 1/2 vs 1/3).
    EXPECT_GT(counts[0], counts[1]);
    EXPECT_GT(counts[1], counts[2]);
    // Mean matches the closed form.
    EXPECT_NEAR(meanSize(zipf),
                (1.0 * 8 + 0.5 * 512 + (1.0 / 3) * 4096) /
                    (1.0 + 0.5 + 1.0 / 3),
                1e-9);
}

/** The per-call Zipf loops SizeSampler's table replaced: the
 *  references its draws and mean must equal. */
double
perCallZipfMean(const SizeDist &dist)
{
    double total = 0.0, weighted = 0.0;
    for (std::size_t k = 0; k < dist.zipfSizes.size(); ++k) {
        const double w = 1.0 / std::pow(double(k + 1), dist.zipfExponent);
        total += w;
        weighted += w * double(dist.zipfSizes[k]);
    }
    return weighted / total;
}

Addr
perDrawZipf(const SizeDist &dist, Random &rng)
{
    double total = 0.0;
    for (std::size_t k = 0; k < dist.zipfSizes.size(); ++k)
        total += 1.0 / std::pow(double(k + 1), dist.zipfExponent);
    double u = rng.nextDouble() * total;
    for (std::size_t k = 0; k < dist.zipfSizes.size(); ++k) {
        u -= 1.0 / std::pow(double(k + 1), dist.zipfExponent);
        if (u < 0.0)
            return dist.zipfSizes[k];
    }
    return dist.zipfSizes.back();
}

TEST(WorkloadPrng, ZipfTableMatchesThePerCallLoops)
{
    SizeDist zipf;
    zipf.kind = SizeDist::Kind::Zipf;
    zipf.zipfSizes = {8, 64, 256, 512, 1024, 2048, 4096, 16, 32, 128};
    for (double exponent : {0.0, 0.5, 1.0, 1.3, 2.7}) {
        zipf.zipfExponent = exponent;
        const SizeSampler sampler(zipf);
        EXPECT_EQ(sampler.mean(), perCallZipfMean(zipf))
            << "exponent " << exponent;
        Random table_rng(1997), loop_rng(1997);
        for (int i = 0; i < 100000; ++i) {
            ASSERT_EQ(sampler.sample(table_rng), perDrawZipf(zipf, loop_rng))
                << "exponent " << exponent << ", draw " << i;
        }
    }
}

// ---------------------------------------------------------------------
// End-to-end determinism
// ---------------------------------------------------------------------

/** A small but heterogeneous scenario touching most engine features. */
Scenario
mixedScenario()
{
    const std::string text = R"({
      "schema": "uldma-scenario-v1",
      "name": "mixed",
      "nodes": 2,
      "streams": [
        {"name": "keyed", "count": 2, "node": 0,
         "protocol": "key-based", "initiations": 30,
         "size": {"kind": "uniform", "min": 8, "max": 1024},
         "pacing": {"kind": "closed", "think_us": 3}},
        {"name": "open-ext", "node": 1, "protocol": "ext-shadow",
         "initiations": 25,
         "size": {"kind": "zipf", "sizes": [16, 256, 2048]},
         "pacing": {"kind": "open",
                    "interval": {"kind": "uniform",
                                 "min_us": 2, "max_us": 20}}},
        {"name": "remote", "node": 1, "protocol": "kernel",
         "initiations": 10, "remote_node": 0,
         "size": {"kind": "fixed", "bytes": 256}}
      ]
    })";
    Scenario s;
    std::string error;
    EXPECT_TRUE(parseScenario(text, s, &error)) << error;
    return s;
}

std::string
reportFor(const Scenario &scenario, std::uint64_t seed)
{
    const WorkloadResult result = runWorkload(scenario, seed);
    std::ostringstream os;
    writeWorkloadReport(os, scenario, result);
    return os.str();
}

TEST(WorkloadEngine, ReportIsByteIdenticalForOneSeed)
{
    const Scenario scenario = mixedScenario();
    const std::string a = reportFor(scenario, 7);
    const std::string b = reportFor(scenario, 7);
    EXPECT_EQ(a, b) << "same (scenario, seed) must serialise to the "
                       "same bytes";
    EXPECT_TRUE(json::valid(a));
}

TEST(WorkloadEngine, DifferentSeedsProduceDifferentTraffic)
{
    const Scenario scenario = mixedScenario();
    // The seed feeds size and pacing draws, so two seeds must differ
    // somewhere in the report (offered bytes make it visible even if
    // timings happened to coincide).
    EXPECT_NE(reportFor(scenario, 7), reportFor(scenario, 8));
}

TEST(WorkloadEngine, MixedScenarioCompletesItsOfferedLoad)
{
    const Scenario scenario = mixedScenario();
    const WorkloadResult result = runWorkload(scenario, 7);
    EXPECT_TRUE(result.finished);
    std::uint64_t offered = 0, failures = 0;
    for (const StreamRuntime &stream : result.streams) {
        offered += stream.issued;
        failures += stream.failures;
    }
    EXPECT_EQ(offered, 2u * 30 + 25 + 10);
    EXPECT_EQ(failures, 0u);
    std::uint64_t completed = 0;
    for (const ProtocolStats &row : result.protocols)
        completed += row.completed;
    EXPECT_EQ(completed, offered);
}

TEST(WorkloadEngine, CapTenantsCompleteTheirOfferedLoad)
{
    // Multi-tenant capability traffic in two rate classes: every
    // presentation must validate and complete (no rejects — each
    // tenant stays inside its own grant), deterministically.
    const std::string text = R"({
      "schema": "uldma-scenario-v1",
      "name": "cap-mix",
      "capability": {"slots": 16, "rate_classes": 4},
      "streams": [
        {"name": "bronze", "count": 3, "protocol": "cap",
         "initiations": 12, "rate_class": 0,
         "size": {"kind": "fixed", "bytes": 256}},
        {"name": "gold", "count": 2, "protocol": "cap",
         "initiations": 12, "rate_class": 3,
         "size": {"kind": "uniform", "min": 64, "max": 2048}}
      ]
    })";
    Scenario scenario;
    std::string error;
    ASSERT_TRUE(parseScenario(text, scenario, &error)) << error;

    const WorkloadResult result = runWorkload(scenario, 11);
    EXPECT_TRUE(result.finished);
    std::uint64_t offered = 0, failures = 0;
    for (const StreamRuntime &stream : result.streams) {
        offered += stream.issued;
        failures += stream.failures;
    }
    EXPECT_EQ(offered, 3u * 12 + 2u * 12);
    EXPECT_EQ(failures, 0u);

    const ProtocolStats *cap_row = nullptr;
    for (const ProtocolStats &row : result.protocols) {
        if (row.protocol == "cap")
            cap_row = &row;
    }
    ASSERT_NE(cap_row, nullptr) << "no 'cap' protocol row";
    EXPECT_EQ(cap_row->completed, offered);
    EXPECT_EQ(cap_row->rejected, 0u);

    EXPECT_EQ(reportFor(scenario, 11), reportFor(scenario, 11));
}

// ---------------------------------------------------------------------
// Calibration: uncontended Table-1 mix
// ---------------------------------------------------------------------

TEST(WorkloadEngine, UncontendedTable1MixMatchesPaperCalibration)
{
    // One worker per Table-1 protocol, each alone on its node at the
    // calibration point — per-protocol e2e p50 must sit in the same
    // [0.3x, 2.0x] band test_span pins for the single-process run.
    const std::string text = R"({
      "schema": "uldma-scenario-v1",
      "name": "table1",
      "nodes": 4,
      "streams": [
        {"name": "kernel", "node": 0, "protocol": "kernel",
         "initiations": 20, "size": {"kind": "fixed", "bytes": 8}},
        {"name": "ext-shadow", "node": 1, "protocol": "ext-shadow",
         "initiations": 20, "size": {"kind": "fixed", "bytes": 8}},
        {"name": "repeated5", "node": 2, "protocol": "repeated5",
         "initiations": 20, "size": {"kind": "fixed", "bytes": 8}},
        {"name": "key-based", "node": 3, "protocol": "key-based",
         "initiations": 20, "size": {"kind": "fixed", "bytes": 8}}
      ]
    })";
    Scenario scenario;
    std::string error;
    ASSERT_TRUE(parseScenario(text, scenario, &error)) << error;

    const WorkloadResult result = runWorkload(scenario, 1);
    ASSERT_TRUE(result.finished);

    for (DmaMethod method : table1Methods) {
        SCOPED_TRACE(toString(method));
        const std::string protocol = spanProtocolFor(method);
        const ProtocolStats *row = nullptr;
        for (const ProtocolStats &cand : result.protocols) {
            if (cand.protocol == protocol)
                row = &cand;
        }
        ASSERT_NE(row, nullptr) << "no protocol row for " << protocol;
        EXPECT_EQ(row->completed, 20u);
        ASSERT_FALSE(row->e2eUs.empty());
        const double p50 = row->e2eUs[row->e2eUs.size() / 2];
        const double paper = paperTable1Us(method);
        EXPECT_GE(p50, 0.3 * paper) << "p50 " << p50 << "us";
        EXPECT_LE(p50, 2.0 * paper) << "p50 " << p50 << "us";
    }
}

// ---------------------------------------------------------------------
// Interference and fallback
// ---------------------------------------------------------------------

TEST(WorkloadEngine, AdversarialStreamsInterfereWithoutCorruption)
{
    const std::string text = R"({
      "schema": "uldma-scenario-v1",
      "name": "storm",
      "scheduler": {"kind": "random", "max_slice": 3},
      "streams": [
        {"name": "victim", "protocol": "repeated5", "initiations": 40,
         "size": {"kind": "fixed", "bytes": 64}},
        {"name": "attackers", "count": 3, "protocol": "repeated5",
         "adversarial": true, "ops": 60}
      ]
    })";
    Scenario scenario;
    std::string error;
    ASSERT_TRUE(parseScenario(text, scenario, &error)) << error;

    const WorkloadResult result = runWorkload(scenario, 5);
    EXPECT_TRUE(result.finished);

    ASSERT_EQ(result.protocols.size(), 1u);
    const ProtocolStats &row = result.protocols[0];
    EXPECT_EQ(row.protocol, "repeated-5");
    // The engine saw more activity than the victim offered: the
    // adversaries' shadow accesses open (and lose) sequences too.
    EXPECT_GT(row.opened, row.offeredInitiations);
    // Interference shows up as aborted/rejected sequences under the
    // random preemption, never as data loss: the victim's retry loop
    // (§3.3.1) still lands its transfers.
    EXPECT_GT(row.aborted + row.rejected, 0u);
    EXPECT_GT(row.completed, 0u);

    // Adversarial streams contribute no offered load.
    EXPECT_EQ(result.streams[1].issued, 0u);
    EXPECT_EQ(result.streams[1].adversarialOps, 3u * 60);
}

TEST(WorkloadEngine, WorkerProgramSharesOneFailureHook)
{
    // The unsafe repeated-4 recognizer under hijacking adversaries and
    // two-op slices: some victim initiations end in the failure status.
    const std::string text = R"({
      "schema": "uldma-scenario-v1",
      "name": "failing-victim",
      "scheduler": {"kind": "random", "max_slice": 2},
      "streams": [
        {"name": "victim", "protocol": "repeated4", "initiations": 100,
         "size": {"kind": "fixed", "bytes": 64}},
        {"name": "attackers", "count": 3, "protocol": "repeated4",
         "adversarial": true, "ops": 80}
      ]
    })";
    Scenario scenario;
    std::string error;
    ASSERT_TRUE(parseScenario(text, scenario, &error)) << error;

    std::size_t hooks = 0;
    WorkloadOptions options;
    options.inspectMachine = [&](Machine &machine) {
        for (const auto &proc : machine.node(0).kernel().processes()) {
            if (proc->name() == "victim")
                hooks = proc->context().program().numHooks();
        }
    };
    const WorkloadResult result = runWorkload(scenario, 0, options);
    EXPECT_TRUE(result.finished);
    EXPECT_EQ(hooks, 1u);
    // The count a fresh hook per initiation gave.
    EXPECT_EQ(result.streams[0].failures, 9u);

    // One Callback op per initiation, over the blocks the victim's
    // source emits.
    std::vector<StreamRuntime> streams;
    const std::unique_ptr<Machine> machine =
        spawnScenario(scenario, 0, streams);
    ExecContext &victim =
        machine->node(0).kernel().processes().front()->context();
    ASSERT_EQ(victim.name(), "victim");
    std::size_t callbacks = 0;
    do {
        for (std::size_t i = 0; i < victim.program().size(); ++i)
            callbacks += victim.program().at(i).kind == OpKind::Callback;
    } while (victim.refill());
    EXPECT_EQ(callbacks, 100u);
}

TEST(WorkloadEngine, WorkerProgramHoldsOneBlockAtATime)
{
    // A cap, a ring (three descriptors per doorbell) and a key-based
    // worker share one node.  After every op, so at every refill, a
    // live worker's program is one block: one initiation (a ring's
    // batch) with its one failure check, exit() last if at all.
    const std::string text = R"({
      "schema": "uldma-scenario-v1",
      "name": "one-block",
      "scheduler": {"kind": "round-robin", "quantum_us": 20},
      "streams": [
        {"name": "cap", "protocol": "cap", "initiations": 12,
         "size": {"kind": "uniform", "min": 64, "max": 4096}},
        {"name": "ring", "protocol": "ring", "queue_depth": 3,
         "initiations": 12, "size": {"kind": "fixed", "bytes": 512},
         "pacing": {"kind": "open",
                    "interval": {"kind": "uniform", "min_us": 0,
                                 "max_us": 4}}},
        {"name": "keyed", "protocol": "key-based", "initiations": 12,
         "size": {"kind": "fixed", "bytes": 256},
         "pacing": {"kind": "closed", "think_us": 2}}
      ]
    })";
    Scenario scenario;
    std::string error;
    ASSERT_TRUE(parseScenario(text, scenario, &error)) << error;

    std::vector<StreamRuntime> streams;
    const std::unique_ptr<Machine> machine =
        spawnScenario(scenario, 3, streams);
    const auto &procs = machine->node(0).kernel().processes();
    ASSERT_EQ(procs.size(), 3u);
    // Refills seen per worker: a fresh block starts at pc 0 with more
    // instructions retired than at the last one seen.
    std::vector<unsigned> refills(procs.size(), 0);
    std::vector<std::uint64_t> retired_at(procs.size(), 0);
    machine->setRunHook([&](Tick) {
        for (std::size_t w = 0; w < procs.size(); ++w) {
            const ExecContext &ctx = procs[w]->context();
            if (procs[w]->finished())
                continue;
            const Program &prog = ctx.program();
            std::size_t callbacks = 0;
            for (std::size_t i = 0; i < prog.size(); ++i) {
                const OpKind kind = prog.at(i).kind;
                callbacks += kind == OpKind::Callback;
                EXPECT_TRUE(kind != OpKind::Exit || i + 1 == prog.size());
            }
            EXPECT_EQ(callbacks, 1u) << ctx.name();
            if (ctx.pc() == 0 &&
                ctx.instructionsRetired() > retired_at[w]) {
                ++refills[w];
                retired_at[w] = ctx.instructionsRetired();
            }
        }
        return true;
    });
    machine->start();
    EXPECT_TRUE(machine->run(Tick(scenario.limitUs) * tickPerUs));
    // 12 one-initiation blocks for cap and key-based, 4 ring batches.
    EXPECT_EQ(refills, (std::vector<unsigned>{11, 3, 11}));
    for (const StreamRuntime &stream : streams) {
        EXPECT_EQ(stream.failures, 0u);
        EXPECT_EQ(stream.kernelFallbacks, 0u);
    }
}

TEST(WorkloadEngine, RemoteScatterGatherWindowIsAllAllocated)
{
    // A ring stream with 4-page buffers whose destinations live on
    // node 1: the window spans slots x sg_buffer pages, and all of
    // them must be frames node 1 handed out, not just one per slot.
    const std::string text = R"({
      "schema": "uldma-scenario-v1",
      "name": "remote-sg",
      "nodes": 2,
      "iotlb": {},
      "streams": [
        {"name": "sg", "node": 0, "protocol": "ring", "remote_node": 1,
         "initiations": 2, "slots": 3, "sg_buffer": 4,
         "size": {"kind": "fixed", "bytes": 64}}
      ]
    })";
    Scenario scenario;
    std::string error;
    ASSERT_TRUE(parseScenario(text, scenario, &error)) << error;
    scenario.limitUs = 1;   // the frames are taken at spawn

    Addr next_free = 0;
    WorkloadOptions options;
    options.inspectMachine = [&](Machine &machine) {
        next_free = machine.node(1).kernel().allocFrames(1);
    };
    runWorkload(scenario, 0, options);
    const Addr window = 3 * 4 * pageSize;
    EXPECT_EQ(next_free, Kernel::reservedFrames * pageSize + window);
    EXPECT_EQ(framesPerNode(scenario)[1], window / pageSize);
}

TEST(WorkloadEngine, ContextExhaustionFallsBackToKernelChannel)
{
    // Six key-based workers on one node, but the engine has only four
    // register contexts: the overflow replicas must degrade to the
    // kernel channel (§3.2) and still complete their transfers.
    const std::string text = R"({
      "schema": "uldma-scenario-v1",
      "name": "exhaustion",
      "streams": [
        {"name": "keyed", "count": 6, "protocol": "key-based",
         "initiations": 10, "size": {"kind": "fixed", "bytes": 32}}
      ]
    })";
    Scenario scenario;
    std::string error;
    ASSERT_TRUE(parseScenario(text, scenario, &error)) << error;

    const WorkloadResult result = runWorkload(scenario, 2);
    EXPECT_TRUE(result.finished);
    ASSERT_EQ(result.streams.size(), 1u);
    EXPECT_EQ(result.streams[0].kernelFallbacks, 2u);
    EXPECT_EQ(result.streams[0].failures, 0u);

    std::uint64_t completed = 0;
    for (const ProtocolStats &row : result.protocols) {
        completed += row.completed;
        if (row.protocol == "kernel") {
            EXPECT_EQ(row.completed, 2u * 10);
        }
    }
    EXPECT_EQ(completed, 6u * 10);
}

} // namespace
} // namespace uldma::workload
