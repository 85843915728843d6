/**
 * @file
 * Host-performance benchmark driver (see perfbench/README.md).
 *
 * Runs one workload through the simulator's public entry points for a
 * host-time budget, checks the simulated results, and prints every
 * metric with its unit.  The last line of standard output is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 *
 * Two clocks: host metrics are the wall-clock time the simulator
 * takes; sim metrics are what the modelled machine would take, and
 * they repeat exactly for a fixed seed.  The load is one client in a
 * closed loop on one thread: each simulation starts when the previous
 * one finishes.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/fuzzer.hh"
#include "core/experiment.hh"
#include "core/machine.hh"
#include "mem/physical_memory.hh"
#include "prof/profiler.hh"
#include "sim/event.hh"
#include "sim/json.hh"
#include "sim/span.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "workload/parallel.hh"
#include "workload/report.hh"
#include "workload/scenario.hh"

using namespace uldma;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

// ---------------------------------------------------------------------
// Benchmark-side spans (traced runs only)
// ---------------------------------------------------------------------

/** One public call, timed from the benchmark's side. */
struct BenchSpan
{
    std::string name;
    int parent = -1;
    double start = 0.0;  ///< host seconds since the log was created
    double end = 0.0;
};

/** In-memory span store; a no-op unless enabled. */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    void
    begin(const char *name)
    {
        if (!enabled_)
            return;
        const int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({name, parent, secondsSince(origin_), 0.0});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
    }

    void
    end()
    {
        if (!enabled_)
            return;
        spans_[open_.back()].end = secondsSince(origin_);
        open_.pop_back();
    }

    /** Median duration, milliseconds, of the spans called @p name
     *  whose outermost ancestor is called @p root. */
    double
    medianMs(const std::string &name, const std::string &root) const
    {
        std::vector<double> ms;
        for (const BenchSpan &s : spans_) {
            if (s.name != name)
                continue;
            const BenchSpan *top = &s;
            while (top->parent >= 0)
                top = &spans_[top->parent];
            if (top->name == root)
                ms.push_back((s.end - s.start) * 1e3);
        }
        return median(ms);
    }

    void
    writeJson(std::ostream &os) const
    {
        json::Writer w(os, false);
        w.beginArray();
        for (const BenchSpan &s : spans_) {
            w.beginObject();
            w.member("name", s.name);
            w.member("parent", std::int64_t(s.parent));
            w.member("start_s", s.start);
            w.member("end_s", s.end);
            w.endObject();
        }
        w.endArray();
        os << "\n";
    }

  private:
    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<BenchSpan> spans_;
    std::vector<int> open_;
};

/** Times a block into @p seconds and records it as a span. */
class Timed
{
  public:
    Timed(SpanLog &log, const char *name, double &seconds)
        : log_(log), seconds_(seconds)
    {
        log_.begin(name);
    }

    ~Timed()
    {
        seconds_ = secondsSince(start_);
        log_.end();
    }

    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    SpanLog &log_;
    double &seconds_;
    Clock::time_point start_ = Clock::now();
};

// ---------------------------------------------------------------------
// Operation accounting
// ---------------------------------------------------------------------

/** Operations attempted and failed, with the reason for each failure. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    fail(std::uint64_t ops, const std::string &why)
    {
        failed += ops;
        std::cout << "check FAILED (" << ops << " ops): " << why << "\n";
    }
};

// ---------------------------------------------------------------------
// Generated inputs
// ---------------------------------------------------------------------

/** Re-emit @p v, multiplying every "initiations" / "ops" count. */
void
emitScaled(json::Writer &w, const json::Value &v, unsigned scale,
           const std::string &key)
{
    switch (v.type()) {
      case json::Value::Type::Null:
        w.valueNull();
        break;
      case json::Value::Type::Bool:
        w.value(v.asBool());
        break;
      case json::Value::Type::Number: {
        double x = v.asNumber();
        if (key == "initiations" || key == "ops")
            x *= scale;
        if (x == std::floor(x))
            w.value(static_cast<std::int64_t>(x));
        else
            w.value(x);
        break;
      }
      case json::Value::Type::String:
        w.value(v.asString());
        break;
      case json::Value::Type::Array:
        w.beginArray();
        for (const json::Value &e : v.asArray())
            emitScaled(w, e, scale, "");
        w.endArray();
        break;
      case json::Value::Type::Object:
        w.beginObject();
        for (const auto &[k, e] : v.asObject()) {
            w.key(k);
            emitScaled(w, e, scale, k);
        }
        w.endObject();
        break;
    }
}

/**
 * A scaled copy of the uldma-scenario-v1 document @p base: every
 * stream's initiations/ops multiplied by @p scale.  A nonzero
 * @p limit_us replaces the scenario's simulated-time cap.
 */
std::string
generateScenario(const std::string &base, unsigned scale,
                 std::uint64_t limit_us = 0)
{
    std::string error;
    const json::Value doc = json::parse(base, &error);
    if (!error.empty() || !doc.isObject())
        throw std::runtime_error("bad base scenario: " + error);
    std::ostringstream os;
    json::Writer w(os, false);
    w.beginObject();
    for (const auto &[k, e] : doc.asObject()) {
        if (limit_us && k == "limit_us")
            continue;
        w.key(k);
        emitScaled(w, e, scale, k);
    }
    if (limit_us)
        w.member("limit_us", limit_us);
    w.endObject();
    return os.str();
}

// ---------------------------------------------------------------------
// Scenario runs
// ---------------------------------------------------------------------

struct ProtocolSummary
{
    std::string protocol;
    std::uint64_t completed = 0;
    double p50Us = 0.0;

    bool operator==(const ProtocolSummary &) const = default;
};

/** The named simulated values of one scenario run: what the
 *  expected-value and determinism checks compare. */
struct SimSummary
{
    std::uint64_t completed = 0;
    double durationUs = 0.0;
    std::vector<ProtocolSummary> protocols;

    bool operator==(const SimSummary &) const = default;
};

/** Per-layer counts of the captured runs of one iteration. */
struct Layers
{
    std::map<std::string, double> sum;
    double maxStarvationUs = 0.0;

    void add(const std::string &name, double v) { sum[name] += v; }
    double get(const std::string &name) const
    {
        const auto it = sum.find(name);
        return it == sum.end() ? 0.0 : it->second;
    }
};

std::uint64_t
profileCount(const prof::ProfileNode &node, const std::string &name)
{
    std::uint64_t n = node.name == name ? node.count : 0;
    for (const prof::ProfileNode &child : node.children)
        n += profileCount(child, name);
    return n;
}

/** Fold the stats, spans and profile captures of @p result into
 *  @p layers. */
void
accumulateLayers(const workload::ParallelResult &result, Layers &layers)
{
    for (const stats::GroupSnapshot &group : result.mergedStats()) {
        auto scalar = [&](const char *name) -> double {
            for (const auto &s : group.scalars) {
                if (s.name == name)
                    return static_cast<double>(s.value);
            }
            return 0.0;
        };
        auto average = [&](const char *name) {
            for (const auto &a : group.averages) {
                if (a.name == name)
                    return a;
            }
            return stats::GroupSnapshot::AverageValue{};
        };
        const std::string &g = group.name;
        if (endsWith(g, ".cpu")) {
            layers.add("cpu.instructions", scalar("instructions"));
            layers.add("cpu.uncached_accesses",
                       scalar("uncached_loads") + scalar("uncached_stores"));
        } else if (endsWith(g, ".dma")) {
            layers.add("dma.initiations", scalar("initiations"));
            layers.add("cap.presentations", scalar("cap_presentations"));
            layers.add("cap.rejects", scalar("cap_rejects"));
        } else if (endsWith(g, ".dma.xfer")) {
            layers.add("dma.transfers", scalar("transfers_completed"));
            layers.add("dma.bytes_moved", scalar("bytes_moved"));
            layers.add("xfer.busy_ticks", scalar("busy_ticks"));
            const auto wait = average("queue_wait_us");
            layers.add("xfer.wait_sum_us", wait.sum);
            layers.add("xfer.wait_count", static_cast<double>(wait.count));
        } else if (endsWith(g, ".dma.iommu")) {
            layers.add("iommu.iotlb_hits", scalar("iotlb_hits"));
            layers.add("iommu.iotlb_misses", scalar("iotlb_misses"));
            layers.add("iommu.walks", scalar("walks"));
        } else if (endsWith(g, ".dma.cap_arbiter")) {
            layers.maxStarvationUs =
                std::max(layers.maxStarvationUs,
                         average("queue_wait_ticks").max / tickPerUs);
        } else if (endsWith(g, ".kernel")) {
            layers.add("os.context_switches", scalar("context_switches"));
            layers.add("os.syscalls", scalar("syscalls"));
        } else if (g == "network") {
            layers.add("nic.packets", scalar("messages"));
        }
    }
    for (const workload::ShardOutput &shard : result.shards) {
        layers.add("node.sim_us", shard.result.durationUs *
                                      shard.result.perNode.size());
        layers.add("sim.spans", static_cast<double>(shard.spans.opened));
    }
    for (const workload::ProtocolStats &p : result.merged.protocols) {
        layers.add("spans.opened", static_cast<double>(p.opened));
        layers.add("spans.completed", static_cast<double>(p.completed));
    }
    layers.add("sim.events", static_cast<double>(profileCount(
                                 result.mergedProfile(), "machine.step")));
    layers.add("sim.duration_us", result.merged.durationUs);
}

/** One scenario run: parse, simulate, export. */
struct ScenarioRun
{
    /** Worker initiations programmed: the run's operations. */
    std::uint64_t offered = 0;
    /** Initiations whose final status was the failure word. */
    std::uint64_t failures = 0;
    bool finished = false;
    /** The exported report parses and agrees with the result. */
    bool exportOk = false;
    SimSummary sim;
    double parseS = 0.0, runS = 0.0, reportS = 0.0, spansS = 0.0;

    double exportS() const { return reportS + spansS; }
    double totalS() const { return parseS + runS + exportS(); }
};

workload::Scenario
parseOrThrow(const std::string &text, SpanLog &log, double &seconds)
{
    workload::Scenario scenario;
    std::string error;
    bool ok = false;
    {
        Timed t(log, "workload.parse", seconds);
        ok = workload::parseScenario(text, scenario, &error);
    }
    if (!ok)
        throw std::runtime_error("generated scenario rejected: " + error);
    return scenario;
}

ScenarioRun
runScenario(const std::string &text, std::uint64_t seed, SpanLog &log,
            Layers *layers)
{
    ScenarioRun out;
    const workload::Scenario scenario = parseOrThrow(text, log, out.parseS);

    workload::ParallelOptions options;
    options.threads = 1;
    options.captureStats = layers != nullptr;
    options.captureProfile = layers != nullptr;
    workload::ParallelResult result;
    {
        Timed t(log, "workload.run", out.runS);
        result = workload::runParallelWorkload(scenario, seed, options);
    }
    const std::vector<workload::ShardReportInfo> infos = result.shardInfos();
    std::ostringstream report;
    std::ostringstream spans;
    {
        Timed t(log, "workload.report", out.reportS);
        workload::writeWorkloadReport(report, scenario, result.merged,
                                      true, &infos);
    }
    {
        Timed t(log, "workload.spans", out.spansS);
        span::exportMergedSpansJson(spans, result.shardSpans());
    }

    for (const workload::StreamRuntime &stream : result.merged.streams) {
        if (!stream.spec->adversarial)
            out.offered += stream.issued;
        out.failures += stream.failures;
    }
    out.finished = result.merged.finished;
    out.sim.durationUs = result.merged.durationUs;
    for (const workload::ProtocolStats &p : result.merged.protocols) {
        out.sim.completed += p.completed;
        out.sim.protocols.push_back(
            {p.protocol, p.completed, stats::percentileOfSorted(p.e2eUs, 50.0)});
    }

    std::string error;
    const json::Value doc = json::parse(report.str(), &error);
    out.exportOk = error.empty() &&
                   doc["achieved"]["completed"].asNumber() ==
                       static_cast<double>(out.sim.completed) &&
                   doc["finished"].asBool() == out.finished &&
                   spans.tellp() > 0;

    if (layers)
        accumulateLayers(result, *layers);
    return out;
}

/** Host seconds of a run capped at 1 simulated us: parse, machine
 *  build, node preparation and stream spawn, and teardown. */
double
probeSetup(const std::string &probe_text, std::uint64_t seed, SpanLog &log)
{
    double seconds = 0.0;
    {
        Timed t(log, "workload.setup", seconds);
        double parse_s = 0.0;
        const workload::Scenario scenario =
            parseOrThrow(probe_text, log, parse_s);
        workload::ParallelOptions options;
        options.threads = 1;
        workload::runParallelWorkload(scenario, seed, options);
    }
    return seconds;
}

// ---------------------------------------------------------------------
// Fuzzing and Table 1
// ---------------------------------------------------------------------

struct FuzzSummary
{
    std::uint64_t execs = 0, edges = 0, corpus = 0;
    std::uint64_t expectedFindings = 0, unexpectedFindings = 0;

    bool operator==(const FuzzSummary &) const = default;
};

struct FuzzRun
{
    FuzzSummary sim;
    std::uint64_t shrinkExecs = 0;
    bool exportOk = false;
    double fuzzS = 0.0, exportS = 0.0;
};

/** Schedules per unit of scale in the fuzz_swarm campaign. */
constexpr std::uint64_t fuzzBudgetPerScale = 500;

/** The fuzz_swarm campaign.  Small batches draw many swarm configs per
 *  campaign, so its cost depends little on which configs a seed draws. */
check::FuzzConfig
swarmConfig(std::uint64_t seed, std::uint64_t budget)
{
    check::FuzzConfig config;
    config.swarm = true;
    config.seed = seed;
    config.budgetSchedules = budget;
    config.batchSchedules = 8;
    return config;
}

FuzzRun
runFuzz(std::uint64_t seed, std::uint64_t budget, SpanLog &log)
{
    const check::FuzzConfig config = swarmConfig(seed, budget);
    FuzzRun out;
    check::FuzzReport report;
    {
        Timed t(log, "check.fuzz", out.fuzzS);
        report = check::fuzz(config);
    }
    // The report takes ~0.2 ms to write, too short to time once, so
    // exportS is the mean of several writes.
    constexpr int writes = 25;
    std::ostringstream os;
    {
        Timed t(log, "check.export", out.exportS);
        for (int i = 0; i < writes; ++i) {
            os.str("");
            check::writeFuzzJson(os, report);
        }
    }
    out.exportS /= writes;
    out.sim = {report.execs, report.coverageEdges, report.corpusSize,
               report.expectedFindings, report.unexpectedFindings};
    out.shrinkExecs = report.shrinkExecs;
    std::string error;
    const json::Value doc = json::parse(os.str(), &error);
    out.exportOk = error.empty() &&
                   doc["execs"].asNumber() == double(report.execs) &&
                   doc["coverage_edges"].asNumber() ==
                       double(report.coverageEdges);
    return out;
}

struct Table1Row
{
    std::string key;
    double simUs = 0.0;
    double paperUs = 0.0;
};

/** Initiations per Table 1 row (the paper's methodology). */
constexpr unsigned table1Iterations = 1000;

std::vector<Table1Row>
runTable1(SpanLog &log)
{
    double seconds = 0.0;
    std::vector<InitiationMeasurement> rows;
    {
        Timed t(log, "workload.table1", seconds);
        rows = measureTable1(table1Iterations);
    }
    std::vector<Table1Row> out;
    for (const InitiationMeasurement &m : rows) {
        std::string key;
        switch (m.method) {
          case DmaMethod::Kernel: key = "kernel"; break;
          case DmaMethod::ExtShadow: key = "ext_shadow"; break;
          case DmaMethod::Repeated5: key = "repeated5"; break;
          case DmaMethod::KeyBased: key = "key_based"; break;
          default: key = toString(m.method); break;
        }
        out.push_back({key, m.avgUs, paperTable1Us(m.method)});
    }
    return out;
}

double
table1MaxErrPct(const std::vector<Table1Row> &rows)
{
    double worst = 0.0;
    for (const Table1Row &r : rows)
        worst = std::max(worst, std::fabs(r.simUs / r.paperUs - 1.0));
    return worst * 100.0;
}

// ---------------------------------------------------------------------
// Expected values
// ---------------------------------------------------------------------

/** Seed and scale of the reference runs whose simulated values are
 *  recorded in expected.json. */
constexpr std::uint64_t referenceSeed = 1;
constexpr unsigned referenceScale = 1;

bool
same(double got, double want)
{
    return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

/** Names of the values in @p got that differ from @p want. */
std::vector<std::string>
diffScenario(const json::Value &want, const SimSummary &got)
{
    std::vector<std::string> bad;
    if (!want.isObject())
        return {"no recorded values"};
    if (!same(double(got.completed), want["completed"].asNumber()))
        bad.push_back("completed");
    if (!same(got.durationUs, want["duration_us"].asNumber()))
        bad.push_back("duration_us");
    if (want["protocols"].size() != got.protocols.size())
        bad.push_back("protocols");
    for (const ProtocolSummary &p : got.protocols) {
        const json::Value &row = want["protocols"][p.protocol];
        if (!same(double(p.completed), row["completed"].asNumber()))
            bad.push_back(p.protocol + ".completed");
        if (!same(p.p50Us, row["e2e_p50_us"].asNumber()))
            bad.push_back(p.protocol + ".e2e_p50_us");
    }
    return bad;
}

std::vector<std::string>
diffFuzz(const json::Value &want, const FuzzSummary &got)
{
    std::vector<std::string> bad;
    const std::pair<const char *, std::uint64_t> values[] = {
        {"execs", got.execs},
        {"edges", got.edges},
        {"corpus", got.corpus},
        {"expected_findings", got.expectedFindings},
        {"unexpected_findings", got.unexpectedFindings},
    };
    for (const auto &[name, v] : values) {
        if (!want.has(name) || !same(double(v), want[name].asNumber()))
            bad.push_back(name);
    }
    return bad;
}

std::string
joined(const std::vector<std::string> &names)
{
    std::string s;
    for (const std::string &n : names)
        s += (s.empty() ? "" : ", ") + n;
    return s;
}

void
writeScenarioValues(json::Writer &w, const SimSummary &sim)
{
    w.beginObject();
    w.member("completed", sim.completed);
    w.member("duration_us", sim.durationUs);
    w.key("protocols");
    w.beginObject();
    for (const ProtocolSummary &p : sim.protocols) {
        w.key(p.protocol);
        w.beginObject();
        w.member("completed", p.completed);
        w.member("e2e_p50_us", p.p50Us);
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

const std::vector<std::string> allScenarios = {
    "adversarial_mix",   "contended_4proc", "iotlb_thrash",
    "multinode_scatter", "multitenant_storm", "parallel_shards",
    "ring_pipeline",     "sg_scatter",      "table1_mix",
};

struct WorkloadDef
{
    std::string name;
    /** Base scenarios (file stems); empty for fuzz_swarm. */
    std::vector<std::string> scenarios;
    unsigned defaultScale = 1;
    /** What one operation is, for the printed report. */
    const char *op = "";
};

const std::vector<WorkloadDef> workloads = {
    {"cap_storm", {"multitenant_storm"}, 10, "DMA transfer"},
    {"keyed_contended", {"contended_4proc"}, 20, "DMA transfer"},
    {"scenario_sweep", allScenarios, 1, "DMA transfer"},
    {"fuzz_swarm", {}, 8, "schedule execution"},
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    unsigned scale = 0;  ///< 0: the workload's default
    std::string dir = "perfbench";
    std::string expected;
    std::string spansOut;
    bool record = false;
};

/** Host seconds of one input (a scenario, or the fuzz campaign), one
 *  sample per iteration. */
struct InputTimes
{
    /** Operations one run of the input completes. */
    double ops = 0.0;
    std::vector<double> setup, run, total, exp;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 1;
    /** Median estimate, printed beside a fastest-run value. */
    std::optional<double> median = std::nullopt;
};

/** The end-to-end host metrics of a set of inputs. */
struct HostMetrics
{
    double opsPerHostS = 0.0, runsPerHostS = 0.0, setupS = 0.0,
           exportS = 0.0;
};

double
minimum(std::vector<double> v)
{
    return *std::min_element(v.begin(), v.end());
}

/**
 * Combine each input's samples with @p stat.  The reported values use
 * the minimum, so each input's fastest run counts: every iteration
 * repeats the same work, and on a shared host interference only adds
 * time, so the fastest of many runs tracks the simulator's own cost
 * while the median flips between the host's fast and slow states
 * (README.md, "Noise on a shared host").
 */
HostMetrics
combine(const std::vector<InputTimes> &inputs,
        double (*stat)(std::vector<double>))
{
    double ops = 0.0, run = 0.0, total = 0.0, setup = 0.0, exp = 0.0;
    for (const InputTimes &in : inputs) {
        ops += in.ops;
        run += stat(in.run);
        total += stat(in.total);
        setup += stat(in.setup);
        exp += stat(in.exp);
    }
    const double n = static_cast<double>(inputs.size());
    return {ops / run, n / total, setup / n, exp / n};
}

/** Print the end-to-end host metrics of the latest iteration alone. */
void
printIteration(const std::vector<InputTimes> &times, unsigned iteration)
{
    const HostMetrics m = combine(times, [](std::vector<double> v) {
        return v.back();
    });
    std::cout << "iteration " << iteration << " ops_per_host_s "
              << m.opsPerHostS << " runs_per_host_s " << m.runsPerHostS
              << " setup_s " << m.setupS << " export_s " << m.exportS
              << "\n";
}

class Bench
{
  public:
    Bench(const Options &opts, const WorkloadDef &def)
        : opts_(opts), def_(def), log_(opts.trace),
          scale_(opts.scale ? opts.scale : def.defaultScale)
    {}

    int run();

  private:
    void checkReference();
    void checkTable1(const std::vector<Table1Row> &rows);
    void runMicrobenchmarks();
    void scenarioIteration(bool capture, unsigned iteration);
    void fuzzIteration(bool capture, unsigned iteration);
    void addPerLayer();
    void printContext() const;

    std::string baseScenario(const std::string &stem) const
    {
        return readFile(opts_.dir + "/scenarios/" + stem + ".json");
    }

    const Options &opts_;
    const WorkloadDef &def_;
    SpanLog log_;
    unsigned scale_;
    Tally tally_;
    json::Value expected_;

    std::vector<Table1Row> table1_;
    /** Generated inputs: full and setup-probe scenario texts. */
    std::vector<std::string> inputs_, probes_;
    /** First iteration's simulated values, per scenario. */
    std::map<std::size_t, SimSummary> firstSim_;
    std::optional<FuzzSummary> firstFuzz_;

    /** Iterations without and with the library's stats/profile capture
     *  (only the traced run has captured ones). */
    std::vector<InputTimes> plain_, captured_;
    Layers layers_;
    double checkExecUs_ = 0.0;
    std::vector<Metric> perLayer_;
};

void
Bench::printContext() const
{
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
#if defined(__clang__)
    const char *compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const char *compiler = "gcc " __VERSION__;
#else
    const char *compiler = "unknown";
#endif
    std::cout << "context workload=" << def_.name << " seed=" << opts_.seed
              << " scale=" << scale_ << " seconds=" << opts_.seconds
              << " trace=" << (opts_.trace ? 1 : 0)
              << " host_cores=" << std::thread::hardware_concurrency()
              << " build_type=" << PERFBENCH_BUILD_TYPE
              << " compiler=\"" << compiler << "\""
              << " optimized=" << (optimized ? "yes" : "no") << "\n";
    if (!optimized)
        std::cout << "WARNING: unoptimised build; host timings are not "
                     "representative\n";
}

void
Bench::checkTable1(const std::vector<Table1Row> &rows)
{
    for (const Table1Row &r : rows) {
        tally_.attempted += table1Iterations;
        const json::Value &want = expected_["table1_avg_us"][r.key];
        if (!want.isNumber() || !same(r.simUs, want.asNumber()))
            tally_.fail(table1Iterations,
                        "table1 " + r.key + " avg_us differs from expected");
    }
}

void
Bench::checkReference()
{
    table1_ = runTable1(log_);
    checkTable1(table1_);

    if (def_.scenarios.empty()) {
        const FuzzRun ref = runFuzz(referenceSeed,
                                    fuzzBudgetPerScale * referenceScale,
                                    log_);
        tally_.attempted += ref.sim.execs;
        const auto bad = diffFuzz(expected_["fuzz"], ref.sim);
        if (!bad.empty())
            tally_.fail(ref.sim.execs,
                        "reference fuzz differs from expected: " + joined(bad));
        return;
    }
    for (const std::string &stem : def_.scenarios) {
        const ScenarioRun ref =
            runScenario(generateScenario(baseScenario(stem), referenceScale),
                        referenceSeed, log_, nullptr);
        tally_.attempted += ref.offered;
        const auto bad = diffScenario(expected_["scenarios"][stem], ref.sim);
        if (!bad.empty())
            tally_.fail(ref.offered, "reference " + stem +
                                         " differs from expected: " +
                                         joined(bad));
    }
}

void
Bench::scenarioIteration(bool capture, unsigned iteration)
{
    std::vector<InputTimes> &times = capture ? captured_ : plain_;
    times.resize(inputs_.size());
    if (capture)
        layers_ = Layers{};

    for (std::size_t i = 0; i < probes_.size(); ++i)
        times[i].setup.push_back(probeSetup(probes_[i], opts_.seed, log_));

    for (std::size_t i = 0; i < inputs_.size(); ++i) {
        const ScenarioRun r = runScenario(inputs_[i], opts_.seed, log_,
                                          capture ? &layers_ : nullptr);
        times[i].ops = static_cast<double>(r.sim.completed);
        times[i].run.push_back(r.runS);
        times[i].total.push_back(r.totalS());
        times[i].exp.push_back(r.exportS());

        const std::string what = def_.scenarios[i] + " iteration " +
                                 std::to_string(iteration);
        tally_.attempted += r.offered;
        const auto first = firstSim_.try_emplace(i, r.sim).first;
        if (!r.finished)
            tally_.fail(r.offered, what + ": run did not finish");
        else if (!r.exportOk)
            tally_.fail(r.offered, what + ": exported report disagrees");
        else if (!(first->second == r.sim))
            tally_.fail(r.offered, what + ": simulated values differ "
                                          "from the first iteration");
        else if (r.failures)
            tally_.fail(r.failures, what + ": failure status");
    }
    if (def_.name == "scenario_sweep")
        checkTable1(runTable1(log_));
    printIteration(times, iteration);
}

void
Bench::fuzzIteration(bool capture, unsigned iteration)
{
    std::vector<InputTimes> &times = capture ? captured_ : plain_;
    times.resize(1);

    // Campaign start-up: a one-schedule budget, several times.
    std::vector<double> setup;
    for (int k = 0; k < 9; ++k) {
        double s = 0.0;
        {
            Timed t(log_, "workload.setup", s);
            check::fuzz(swarmConfig(opts_.seed, 1));
        }
        setup.push_back(s);
    }
    times[0].setup.push_back(median(setup));

    const FuzzRun r = runFuzz(opts_.seed, fuzzBudgetPerScale * scale_, log_);
    const std::uint64_t execs = r.sim.execs + r.shrinkExecs;
    const std::string what = "fuzz seed " + std::to_string(opts_.seed) +
                             " iteration " + std::to_string(iteration);
    tally_.attempted += r.sim.execs;
    if (!firstFuzz_)
        firstFuzz_ = r.sim;
    if (!r.exportOk)
        tally_.fail(r.sim.execs, what + ": exported report disagrees");
    else if (!(*firstFuzz_ == r.sim))
        tally_.fail(r.sim.execs,
                    what + ": coverage differs from the first iteration");
    else if (r.sim.unexpectedFindings)
        tally_.fail(r.sim.unexpectedFindings, what + ": unexpected finding");

    if (capture) {
        layers_ = Layers{};
        layers_.add("check.edges", double(r.sim.edges));
        layers_.add("check.corpus", double(r.sim.corpus));
        layers_.add("check.findings",
                    double(r.sim.expectedFindings + r.sim.unexpectedFindings));
        checkExecUs_ = r.fuzzS / execs * 1e6;
    }
    times[0].ops = static_cast<double>(execs);
    times[0].run.push_back(r.fuzzS);
    times[0].total.push_back(r.fuzzS + r.exportS);
    times[0].exp.push_back(r.exportS);
    printIteration(times, iteration);
}

/** Self-rescheduling event keeping the queue at a fixed depth. */
class Ticker : public Event
{
  public:
    Ticker(EventQueue &eq, Tick period)
        : Event("ticker", CpuPrio), eq_(eq), period_(period)
    {}

    void process() override { eq_.schedule(this, eq_.now() + period_); }

  private:
    EventQueue &eq_;
    Tick period_;
};

/** ns per schedule + step with @p depth events pending. */
double
queueNsPerEvent(unsigned depth, std::uint64_t steps)
{
    EventQueue eq;
    std::vector<std::unique_ptr<Ticker>> tickers;
    for (unsigned i = 0; i < depth; ++i) {
        tickers.push_back(
            std::make_unique<Ticker>(eq, Tick(50 + (i * 37) % 101)));
        eq.schedule(tickers.back().get(), i + 1);
    }
    const auto start = Clock::now();
    for (std::uint64_t s = 0; s < steps; ++s)
        eq.step();
    const double ns = secondsSince(start) * 1e9 / steps;
    for (auto &t : tickers)
        eq.deschedule(t.get());
    return ns;
}

/** ns per scheduleLambda + step with @p pending owned lambdas parked
 *  far in the future. */
double
lambdaNsAtDepth(std::size_t pending, std::uint64_t steps)
{
    EventQueue eq;
    for (std::size_t i = 0; i < pending; ++i)
        eq.scheduleLambda("parked", (Tick(1) << 60) + i, [] {});
    std::uint64_t fired = 0;
    const auto start = Clock::now();
    for (std::uint64_t s = 0; s < steps; ++s) {
        eq.scheduleLambda("probe", eq.now() + 1, [&fired] { ++fired; });
        eq.step();
    }
    const double ns = secondsSince(start) * 1e9 / steps;
    if (fired != steps)
        throw std::runtime_error("lambda microbenchmark lost events");
    return ns;
}

/** ns to open and complete one span through span::tracker(). */
double
spanNs(std::uint64_t n)
{
    span::Tracker &tracker = span::tracker();
    tracker.enable();
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i) {
        const span::SpanId id = tracker.open("node0.dma", "cap", Tick(i));
        tracker.complete(id, Tick(i + 1));
    }
    const double ns = secondsSince(start) * 1e9 / n;
    tracker.disable();
    return ns;
}

/** Median ms of @p reps calls to @p fn. */
template <typename Fn>
double
medianMs(int reps, Fn &&fn)
{
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
        const auto start = Clock::now();
        fn();
        ms.push_back(secondsSince(start) * 1e3);
    }
    return median(ms);
}

void
Bench::runMicrobenchmarks()
{
    perLayer_.push_back({"sim.queue_ns_per_event",
                         queueNsPerEvent(256, 2'000'000), "ns"});
    perLayer_.push_back(
        {"sim.lambda_ns_at_1k", lambdaNsAtDepth(1000, 20'000), "ns"});
    perLayer_.push_back(
        {"sim.lambda_ns_at_10k", lambdaNsAtDepth(10'000, 5'000), "ns"});
    perLayer_.push_back({"sim.span_ns", spanNs(1'000'000), "ns"});
    perLayer_.push_back({"mem.phys_alloc_64mib_ms", medianMs(5, [] {
                             PhysicalMemory mem(64 * 1024 * 1024);
                         }),
                         "ms"});
    perLayer_.push_back({"mem.phys_alloc_2mib_ms", medianMs(21, [] {
                             PhysicalMemory mem(2 * 1024 * 1024);
                         }),
                         "ms"});
    perLayer_.push_back({"core.machine_build_ms", medianMs(5, [] {
                             Machine machine(MachineConfig{});
                         }),
                         "ms"});
}

void
Bench::addPerLayer()
{
    const Layers &l = layers_;
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const double transfers = l.get("spans.completed");
    const std::pair<const char *, const char *> counts[] = {
        {"sim.events", "count"},
        {"sim.spans", "count"},
        {"cpu.instructions", "count"},
        {"cpu.uncached_accesses", "count"},
        {"dma.initiations", "count"},
        {"dma.transfers", "count"},
        {"dma.bytes_moved", "bytes"},
        {"iommu.iotlb_hits", "count"},
        {"iommu.iotlb_misses", "count"},
        {"iommu.walks", "count"},
        {"cap.presentations", "count"},
        {"cap.rejects", "count"},
        {"os.context_switches", "count"},
        {"os.syscalls", "count"},
        {"nic.packets", "count"},
        {"check.edges", "count"},
        {"check.corpus", "count"},
        {"check.findings", "count"},
    };
    for (const auto &[name, unit] : counts)
        perLayer_.push_back({name, l.get(name), unit});
    perLayer_.push_back({"sim.events_per_transfer",
                         ratio(l.get("sim.events"), transfers), "count"});
    perLayer_.push_back({"sim.us_per_transfer",
                         ratio(l.get("sim.duration_us"), transfers), "us"});
    perLayer_.push_back({"dma.useful_ratio",
                         ratio(transfers, l.get("spans.opened")), "ratio"});
    perLayer_.push_back({"dma.xfer_busy_frac",
                         ratio(l.get("xfer.busy_ticks") / tickPerUs,
                               l.get("node.sim_us")),
                         "ratio"});
    perLayer_.push_back({"dma.queue_wait_us",
                         ratio(l.get("xfer.wait_sum_us"),
                               l.get("xfer.wait_count")),
                         "us"});
    perLayer_.push_back(
        {"iommu.hit_ratio",
         ratio(l.get("iommu.iotlb_hits"),
               l.get("iommu.iotlb_hits") + l.get("iommu.iotlb_misses")),
         "ratio"});
    perLayer_.push_back({"cap.max_starvation_us", l.maxStarvationUs, "us"});
    perLayer_.push_back({"check.exec_us", checkExecUs_, "us"});

    // Host timings come from the iterations without capture, so the
    // capture's own cost (trace.overhead_pct) does not inflate them.
    for (const char *span : {"workload.parse", "workload.setup",
                             "workload.run", "workload.report",
                             "workload.spans"}) {
        perLayer_.push_back({std::string(span) + "_ms",
                             log_.medianMs(span, "iteration"), "ms"});
    }
    for (const Table1Row &r : table1_)
        perLayer_.push_back({"table1." + r.key + "_us", r.simUs, "us"});

    const double plain = combine(plain_, minimum).opsPerHostS;
    const double captured = combine(captured_, minimum).opsPerHostS;
    perLayer_.push_back({"trace.ops_per_host_s", captured, "1/s",
                         captured_[0].run.size(),
                         combine(captured_, median).opsPerHostS});
    perLayer_.push_back({"trace.overhead_pct",
                         (ratio(plain, captured) - 1.0) * 100.0, "%"});
}

int
Bench::run()
{
    printContext();
    std::string error;
    expected_ = json::parse(readFile(opts_.expected), &error);
    if (!error.empty())
        throw std::runtime_error(opts_.expected + ": " + error);

    checkReference();
    for (const std::string &stem : def_.scenarios) {
        const std::string base = baseScenario(stem);
        inputs_.push_back(generateScenario(base, scale_));
        probes_.push_back(generateScenario(base, scale_, 1));
    }
    if (opts_.trace)
        runMicrobenchmarks();

    // The traced run alternates iterations without and with the
    // library's stats/profile capture, so the capture's overhead is
    // measured under the same conditions.
    const auto start = Clock::now();
    unsigned iteration = 0;
    while (iteration == 0 || (opts_.trace && iteration < 2) ||
           secondsSince(start) < opts_.seconds) {
        const bool capture = opts_.trace && iteration % 2 == 1;
        log_.begin(capture ? "iteration.captured" : "iteration");
        if (def_.scenarios.empty())
            fuzzIteration(capture, iteration);
        else
            scenarioIteration(capture, iteration);
        log_.end();
        ++iteration;
    }

    for (const auto &[index, sim] : firstSim_) {
        const std::string &stem = def_.scenarios[index];
        std::cout << "sim " << stem << ".completed " << sim.completed << "\n"
                  << "sim " << stem << ".duration_us "
                  << json::formatNumber(sim.durationUs) << "\n";
        for (const ProtocolSummary &p : sim.protocols) {
            std::cout << "sim " << stem << "." << p.protocol
                      << ".completed " << p.completed << "\n"
                      << "sim " << stem << "." << p.protocol
                      << ".e2e_p50_us " << json::formatNumber(p.p50Us)
                      << "\n";
        }
    }
    if (firstFuzz_) {
        std::cout << "sim fuzz.edges " << firstFuzz_->edges << "\n"
                  << "sim fuzz.corpus " << firstFuzz_->corpus << "\n"
                  << "sim fuzz.findings "
                  << firstFuzz_->expectedFindings +
                         firstFuzz_->unexpectedFindings
                  << "\n";
    }

    std::vector<Metric> metrics;
    if (opts_.trace) {
        addPerLayer();
        metrics = perLayer_;
        if (!opts_.spansOut.empty()) {
            std::ofstream out(opts_.spansOut);
            log_.writeJson(out);
        }
    } else {
        const HostMetrics best = combine(plain_, minimum);
        const HostMetrics mid = combine(plain_, median);
        const std::size_t n = plain_[0].run.size();
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        metrics = {
            {"ops_per_host_s", best.opsPerHostS, "1/s", n, mid.opsPerHostS},
            {"runs_per_host_s", best.runsPerHostS, "1/s", n,
             mid.runsPerHostS},
            {"setup_s", best.setupS, "s", n, mid.setupS},
            {"export_s", best.exportS, "s", n, mid.exportS},
            {"peak_rss_mib", usage.ru_maxrss / 1024.0, "MiB"},
            {"table1_max_err_pct", table1MaxErrPct(table1_), "%"},
        };
        std::cout << "ops are " << def_.op << "s\n";
    }
    for (const Metric &m : metrics) {
        std::cout << "metric " << m.name << " " << json::formatNumber(m.value)
                  << " " << m.unit;
        if (m.median)
            std::cout << " (fastest runs of " << m.samples
                      << " iterations; medians give "
                      << json::formatNumber(*m.median) << ")";
        std::cout << "\n";
    }
    std::cout << "ops_attempted " << tally_.attempted << "\nops_failed "
              << tally_.failed << "\n";

    std::ostringstream line;
    {
        json::Writer w(line, false);
        w.beginObject();
        w.member("correct", tally_.failed == 0);
        w.member("attempted", tally_.attempted);
        w.member("failed", tally_.failed);
        w.key("metrics");
        w.beginObject();
        for (const Metric &m : metrics) {
            w.key(m.name);
            w.beginObject();
            w.member("value", m.value);
            w.member("unit", m.unit);
            w.endObject();
        }
        w.endObject();
        w.endObject();
    }
    std::cout << line.str() << std::endl;
    return 0;
}

/** Print the simulated values of every reference run as expected.json. */
int
record(const Options &opts)
{
    SpanLog log(false);
    json::Writer w(std::cout, true);
    w.beginObject();
    w.member("reference_seed", referenceSeed);
    w.member("reference_scale", std::uint64_t(referenceScale));
    w.key("table1_avg_us");
    w.beginObject();
    for (const Table1Row &r : runTable1(log))
        w.member(r.key, r.simUs);
    w.endObject();
    w.key("scenarios");
    w.beginObject();
    for (const std::string &stem : allScenarios) {
        const std::string base =
            readFile(opts.dir + "/scenarios/" + stem + ".json");
        w.key(stem);
        writeScenarioValues(
            w, runScenario(generateScenario(base, referenceScale),
                           referenceSeed, log, nullptr)
                   .sim);
    }
    w.endObject();
    const FuzzSummary fuzz =
        runFuzz(referenceSeed, fuzzBudgetPerScale * referenceScale, log).sim;
    w.key("fuzz");
    w.beginObject();
    w.member("execs", fuzz.execs);
    w.member("edges", fuzz.edges);
    w.member("corpus", fuzz.corpus);
    w.member("expected_findings", fuzz.expectedFindings);
    w.member("unexpected_findings", fuzz.unexpectedFindings);
    w.endObject();
    w.endObject();
    std::cout << "\n";
    return 0;
}

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload <cap_storm|keyed_contended|"
                 "scenario_sweep|fuzz_swarm> --seed N --seconds S "
                 "--trace 0|1 [--scale K] [--dir D] [--expected F] "
                 "[--spans-out F]\n"
              << "       perfbench --record [--dir D]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--record") {
                opts.record = true;
                continue;
            }
            if (i + 1 >= argc)
                return usage("missing value for " + arg);
            const std::string value = argv[++i];
            if (arg == "--workload")
                opts.workload = value;
            else if (arg == "--seed")
                opts.seed = std::stoull(value);
            else if (arg == "--seconds")
                opts.seconds = std::stod(value);
            else if (arg == "--trace")
                opts.trace = std::stoi(value) != 0;
            else if (arg == "--scale")
                opts.scale = static_cast<unsigned>(std::stoul(value));
            else if (arg == "--dir")
                opts.dir = value;
            else if (arg == "--expected")
                opts.expected = value;
            else if (arg == "--spans-out")
                opts.spansOut = value;
            else
                return usage("unknown option " + arg);
        }
    } catch (const std::exception &) {
        return usage("bad option value");
    }
    if (opts.expected.empty())
        opts.expected = opts.dir + "/expected.json";

    try {
        if (opts.record)
            return record(opts);
        for (const WorkloadDef &def : workloads) {
            if (def.name == opts.workload)
                return Bench(opts, def).run();
        }
        return usage("unknown workload '" + opts.workload + "'");
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
