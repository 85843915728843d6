/**
 * @file
 * uldma_trace_tool — offline analysis of the simulator's JSON exports.
 *
 * Subcommands:
 *
 *   summarize <spans.json | workload-report.json>
 *       uldma-spans-v1: per-protocol table of outcome counts and
 *       end-to-end / per-phase latency quantiles — the offline
 *       reproduction of the paper's Table 1 view.
 *       uldma-workload-v1: offered-vs-achieved table of a workload
 *       engine run.
 *
 *   diff <before.json> <after.json> [--threshold=<pct>]
 *       Compare per-protocol end-to-end p50 between two uldma-spans-v1
 *       documents and flag protocols whose latency regressed by more
 *       than the threshold (default 10%).
 *
 *   profile <profile.json> [--top=<n>]
 *   profile <before.json> <after.json> [--top=<n>]
 *       Render a uldma-profile-v1 scope tree with inclusive/exclusive
 *       attribution and the top self-cost hotspots; with two files,
 *       compare the flattened scope paths and rank the deltas.
 *
 *   bench-diff <baseline.json> <current.json> [--threshold=<pct>]
 *       The perf-regression gate: compare two uldma-bench-v1 reports
 *       record by record (matched on name + exact config) and metric
 *       by metric.  Metric direction is classified by name (see
 *       metricDirection); host wall-time metrics are never gated.
 *       Exit 1 when any tracked metric moved the wrong way past the
 *       threshold (default 10%) or a baseline record/metric vanished;
 *       exit 2 when the reports are not comparable (not two
 *       uldma-bench-v1 reports of the same benchmark and seed).
 *
 *   bench-perturb <in.json> <out.json> [--factor=<f>]
 *       Write a copy of a bench report with every gated metric moved
 *       the wrong way by the factor (default 1.5): lower-is-better
 *       ones multiplied, higher-is-better ones divided — a synthetic
 *       regression for exercising the bench-diff gate in tests.
 *
 *   validate <file.json> [...]
 *       Schema-check any of the simulator's JSON artifacts
 *       (uldma-stats-v1, uldma-spans-v1, uldma-timeseries-v1,
 *       uldma-bench-v1, uldma-bench-summary-v1, uldma-workload-v1,
 *       uldma-schedule-v1, uldma-scenario-v1, uldma-fuzz-v1,
 *       uldma-profile-v1, chrome://tracing).  Every accepted shape is
 *       documented in docs/SCHEMAS.md.  uldma-workload-v1,
 *       uldma-schedule-v1, uldma-scenario-v1, uldma-fuzz-v1,
 *       uldma-profile-v1 and uldma-bench-summary-v1 validation is
 *       strict: unknown members anywhere in the document are problems.
 *       Schedule files go through the same parser as
 *       `uldma_check --replay`, scenario files the one `uldma_workload`
 *       runs.
 *       Schema tags are resolved through a family/version registry:
 *       an unknown *version* of a known family (e.g.
 *       "uldma-spans-v2") is a hard error naming the versions this
 *       tool knows, and a known version tag with trailing garbage
 *       (e.g. "uldma-spans-v1x") is rejected, never treated as the
 *       prefix it starts with.
 *
 * Exit status: 0 = clean, 1 = finding (regression / invalid document),
 * 2 = usage or I/O error.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/schedule.hh"
#include "sim/json.hh"
#include "util/output.hh"
#include "workload/scenario.hh"

using uldma::json::Value;

namespace {

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "%s: cannot open\n", path.c_str());
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

bool
parseFile(const std::string &path, Value &doc)
{
    std::string text;
    if (!readFile(path, text))
        return false;
    std::string error;
    doc = uldma::json::parse(text, &error);
    if (!error.empty()) {
        std::fprintf(stderr, "%s: parse error: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Schema validation
// ---------------------------------------------------------------------

/** Collect human-readable problems for one document. */
struct Problems
{
    std::vector<std::string> list;

    void
    add(const std::string &what)
    {
        list.push_back(what);
    }

    void
    require(bool ok, const std::string &what)
    {
        if (!ok)
            add(what);
    }
};

void
checkQuantileBlock(Problems &p, const Value &q, const std::string &where)
{
    p.require(q.isObject(), where + " is not an object");
    for (const char *f : {"count", "mean", "min", "max", "p50", "p90",
                          "p99"}) {
        p.require(q[f].isNumber(), where + "." + f + " missing");
    }
}

void
validateSpans(Problems &p, const Value &doc)
{
    p.require(doc["opened"].isNumber(), "opened missing");
    p.require(doc["spans"].isArray(), "spans missing");
    const auto &spans = doc["spans"].asArray();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Value &s = spans[i];
        const std::string where = "spans[" + std::to_string(i) + "]";
        p.require(s["id"].isNumber(), where + ".id missing");
        p.require(s["engine"].isString(), where + ".engine missing");
        p.require(s["protocol"].isString(), where + ".protocol missing");
        p.require(s["outcome"].isString(), where + ".outcome missing");
        p.require(s["ticks"].isObject(), where + ".ticks missing");
        for (const char *f : {"first_access", "recognized", "queued",
                              "bus_start", "bus_end", "completed"}) {
            p.require(s["ticks"][f].isNumber(),
                      where + ".ticks." + f + " missing");
        }
        // IOMMU-translated spans only (docs/IOMMU.md): optional, but
        // when present they must be numbers.
        if (!s["ticks"]["translated"].isNull())
            p.require(s["ticks"]["translated"].isNumber(),
                      where + ".ticks.translated is not a number");
        if (s["phases_us"].isObject() &&
            !s["phases_us"]["translation"].isNull())
            p.require(s["phases_us"]["translation"].isNumber(),
                      where + ".phases_us.translation is not a number");
        if (s["outcome"].asString() == "completed") {
            p.require(s["phases_us"].isObject(),
                      where + ".phases_us missing on completed span");
            for (const char *f : {"initiation", "queue", "bus",
                                  "delivery", "total"}) {
                p.require(s["phases_us"][f].isNumber(),
                          where + ".phases_us." + f + " missing");
            }
        }
    }
    p.require(doc["summary"]["protocols"].isArray(),
              "summary.protocols missing");
    const auto &protos = doc["summary"]["protocols"].asArray();
    for (std::size_t i = 0; i < protos.size(); ++i) {
        const Value &ps = protos[i];
        const std::string where =
            "summary.protocols[" + std::to_string(i) + "]";
        p.require(ps["protocol"].isString(), where + ".protocol missing");
        for (const char *f : {"completed", "rejected", "key_mismatch",
                              "aborted", "in_flight"}) {
            p.require(ps[f].isNumber(), where + "." + f + " missing");
        }
        checkQuantileBlock(p, ps["end_to_end_us"],
                           where + ".end_to_end_us");
        for (const char *f : {"initiation", "queue", "bus", "delivery"}) {
            checkQuantileBlock(p, ps["phases_us"][f],
                               where + ".phases_us." + f);
        }
        if (!ps["phases_us"]["translation"].isNull())
            checkQuantileBlock(p, ps["phases_us"]["translation"],
                               where + ".phases_us.translation");
    }
}

void
validateTimeseries(Problems &p, const Value &doc)
{
    p.require(doc["interval_ticks"].isNumber(), "interval_ticks missing");
    p.require(doc["counters"].isArray(), "counters missing");
    const std::size_t ncounters = doc["counters"].size();
    for (std::size_t i = 0; i < ncounters; ++i) {
        p.require(doc["counters"][i].isString(),
                  "counters[" + std::to_string(i) + "] is not a string");
    }
    p.require(doc["samples"].isArray(), "samples missing");
    const auto &samples = doc["samples"].asArray();
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const std::string where = "samples[" + std::to_string(i) + "]";
        p.require(samples[i]["tick"].isNumber(), where + ".tick missing");
        p.require(samples[i]["values"].isArray() &&
                      samples[i]["values"].size() == ncounters,
                  where + ".values length != counters length");
    }
}

void
validateStats(Problems &p, const Value &doc)
{
    p.require(doc["groups"].isArray(), "groups missing");
    const auto &groups = doc["groups"].asArray();
    for (std::size_t i = 0; i < groups.size(); ++i) {
        const Value &g = groups[i];
        const std::string where = "groups[" + std::to_string(i) + "]";
        p.require(g["name"].isString(), where + ".name missing");
        p.require(g["scalars"].isObject(), where + ".scalars missing");
        p.require(g["averages"].isObject(), where + ".averages missing");
        p.require(g["histograms"].isObject(),
                  where + ".histograms missing");
        for (const auto &[hname, h] : g["histograms"].asObject()) {
            for (const char *f : {"lo", "hi", "underflow", "overflow",
                                  "total", "p50", "p90", "p99"}) {
                p.require(h[f].isNumber(), where + ".histograms." + hname +
                                               "." + f + " missing");
            }
            p.require(h["buckets"].isArray(),
                      where + ".histograms." + hname + ".buckets missing");
        }
    }
}

void
validateBench(Problems &p, const Value &doc)
{
    p.require(doc["benchmark"].isString(), "benchmark missing");
    p.require(doc["records"].isArray(), "records missing");
    if (!doc["records"].isArray())
        return;
    const auto &records = doc["records"].asArray();
    for (std::size_t i = 0; i < records.size(); ++i) {
        const std::string where = "records[" + std::to_string(i) + "]";
        p.require(records[i]["name"].isString(), where + ".name missing");
        p.require(records[i]["metrics"].isObject(),
                  where + ".metrics missing");
    }
}

/** Flag members of @p obj outside @p allowed (strict schemas); with
 *  @p config_members the RunnerConfig members are allowed too. */
void
checkNoExtra(Problems &p, const Value &obj,
             std::initializer_list<const char *> allowed,
             const std::string &where, bool config_members = false)
{
    if (!obj.isObject())
        return;
    for (const auto &[key, unused] : obj.asObject()) {
        (void)unused;
        bool known = config_members && uldma::check::isConfigMember(key);
        for (const char *a : allowed) {
            if (key == a) {
                known = true;
                break;
            }
        }
        if (!known)
            p.add(where + ": unknown member '" + key + "'");
    }
}

void
validateWorkload(Problems &p, const Value &doc)
{
    checkNoExtra(p, doc,
                 {"schema", "scenario", "seed", "nodes", "finished",
                  "duration_us", "offered", "achieved", "per_protocol",
                  "streams", "per_node", "shards"},
                 "root");
    p.require(doc["scenario"].isString(), "scenario missing");
    p.require(doc["seed"].isNumber(), "seed missing");
    p.require(doc["nodes"].isNumber(), "nodes missing");
    p.require(doc["finished"].isBool(), "finished missing");
    p.require(doc["duration_us"].isNumber(), "duration_us missing");

    p.require(doc["offered"].isObject(), "offered missing");
    checkNoExtra(p, doc["offered"],
                 {"initiations", "bytes", "rate_per_sec"}, "offered");
    for (const char *f : {"initiations", "bytes", "rate_per_sec"})
        p.require(doc["offered"][f].isNumber(),
                  std::string("offered.") + f + " missing");

    p.require(doc["achieved"].isObject(), "achieved missing");
    checkNoExtra(p, doc["achieved"],
                 {"initiations", "completed", "bytes", "rate_per_sec",
                  "failures"},
                 "achieved");
    for (const char *f : {"initiations", "completed", "bytes",
                          "rate_per_sec", "failures"})
        p.require(doc["achieved"][f].isNumber(),
                  std::string("achieved.") + f + " missing");

    p.require(doc["per_protocol"].isArray(), "per_protocol missing");
    if (doc["per_protocol"].isArray()) {
        const auto &rows = doc["per_protocol"].asArray();
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Value &r = rows[i];
            const std::string where =
                "per_protocol[" + std::to_string(i) + "]";
            checkNoExtra(p, r,
                         {"protocol", "methods", "offered_initiations",
                          "offered_bytes", "initiations", "completed",
                          "rejected", "key_mismatch", "aborted",
                          "in_flight", "completed_bytes",
                          "end_to_end_us"},
                         where);
            p.require(r["protocol"].isString(),
                      where + ".protocol missing");
            p.require(r["methods"].isArray(), where + ".methods missing");
            if (r["methods"].isArray()) {
                for (std::size_t m = 0; m < r["methods"].size(); ++m)
                    p.require(r["methods"][m].isString(),
                              where + ".methods[" + std::to_string(m) +
                                  "] is not a string");
            }
            for (const char *f :
                 {"offered_initiations", "offered_bytes", "initiations",
                  "completed", "rejected", "key_mismatch", "aborted",
                  "in_flight", "completed_bytes"})
                p.require(r[f].isNumber(),
                          where + "." + f + " missing");
            checkQuantileBlock(p, r["end_to_end_us"],
                               where + ".end_to_end_us");
            checkNoExtra(p, r["end_to_end_us"],
                         {"count", "mean", "min", "max", "p50", "p90",
                          "p99"},
                         where + ".end_to_end_us");
        }
    }

    p.require(doc["streams"].isArray(), "streams missing");
    if (doc["streams"].isArray()) {
        const auto &rows = doc["streams"].asArray();
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Value &r = rows[i];
            const std::string where =
                "streams[" + std::to_string(i) + "]";
            checkNoExtra(p, r,
                         {"name", "node", "protocol", "count",
                          "adversarial", "queue_depth", "initiations",
                          "offered_bytes", "failures",
                          "kernel_fallbacks", "adversarial_ops"},
                         where);
            p.require(r["name"].isString(), where + ".name missing");
            p.require(r["protocol"].isString(),
                      where + ".protocol missing");
            p.require(r["adversarial"].isBool(),
                      where + ".adversarial missing");
            for (const char *f :
                 {"node", "count", "queue_depth", "initiations",
                  "offered_bytes", "failures", "kernel_fallbacks",
                  "adversarial_ops"})
                p.require(r[f].isNumber(), where + "." + f + " missing");
        }
    }

    p.require(doc["per_node"].isArray(), "per_node missing");
    if (doc["per_node"].isArray()) {
        const auto &rows = doc["per_node"].asArray();
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const std::string where =
                "per_node[" + std::to_string(i) + "]";
            checkNoExtra(p, rows[i],
                         {"node", "engine_initiations",
                          "context_switches", "syscalls"},
                         where);
            for (const char *f : {"node", "engine_initiations",
                                  "context_switches", "syscalls"})
                p.require(rows[i][f].isNumber(),
                          where + "." + f + " missing");
        }
    }

    // Optional: present only on reports from the sharded runner (see
    // docs/SCHEMAS.md).  Each row records one shard of the plan.
    if (doc["shards"].isArray()) {
        const auto &rows = doc["shards"].asArray();
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Value &r = rows[i];
            const std::string where = "shards[" + std::to_string(i) + "]";
            checkNoExtra(p, r,
                         {"id", "nodes", "streams", "duration_us",
                          "finished"},
                         where);
            p.require(r["id"].isNumber(), where + ".id missing");
            p.require(r["duration_us"].isNumber(),
                      where + ".duration_us missing");
            p.require(r["finished"].isBool(), where + ".finished missing");
            for (const char *f : {"nodes", "streams"}) {
                p.require(r[f].isArray(),
                          where + "." + f + " missing");
                if (!r[f].isArray())
                    continue;
                for (std::size_t m = 0; m < r[f].size(); ++m)
                    p.require(r[f][m].isNumber(),
                              where + "." + f + "[" + std::to_string(m) +
                                  "] is not a number");
            }
        }
    }
}

/** Strict uldma-schedule-v1 check (model-checker repro files): the
 *  parser `uldma_check --replay` uses. */
void
validateSchedule(Problems &p, const Value &doc)
{
    uldma::check::Schedule schedule;
    uldma::check::Outcome outcome;
    std::string error;
    if (!uldma::check::parseScheduleJson(doc, schedule, outcome, &error))
        p.add(error);
}

/** Strict uldma-scenario-v1 check: the parser `uldma_workload` runs. */
void
validateScenario(Problems &p, const Value &doc)
{
    uldma::workload::Scenario scenario;
    std::string error;
    if (!uldma::workload::parseScenario(doc, scenario, &error))
        p.add(error);
}

/** Strict uldma-profile-v1 scope-tree node check (recursive). */
void
validateProfileNode(Problems &p, const Value &node, bool host_time,
                    const std::string &where)
{
    if (host_time) {
        checkNoExtra(p, node,
                     {"name", "count", "inclusive_ticks",
                      "exclusive_ticks", "inclusive_ns", "exclusive_ns",
                      "children"},
                     where);
    } else {
        checkNoExtra(p, node,
                     {"name", "count", "inclusive_ticks",
                      "exclusive_ticks", "children"},
                     where);
    }
    p.require(node["name"].isString(), where + ".name missing");
    for (const char *f : {"count", "inclusive_ticks", "exclusive_ticks"})
        p.require(node[f].isNumber(), where + "." + f + " missing");
    if (host_time) {
        for (const char *f : {"inclusive_ns", "exclusive_ns"})
            p.require(node[f].isNumber(), where + "." + f + " missing");
    }
    p.require(node["children"].isArray(), where + ".children missing");
    if (node["children"].isArray()) {
        const auto &kids = node["children"].asArray();
        for (std::size_t i = 0; i < kids.size(); ++i)
            validateProfileNode(p, kids[i], host_time,
                                where + ".children[" + std::to_string(i) +
                                    "]");
    }
}

/** Strict uldma-profile-v1 check (scoped-profiler exports). */
void
validateProfile(Problems &p, const Value &doc)
{
    checkNoExtra(p, doc, {"schema", "scopes", "host_time", "tree"},
                 "root");
    p.require(doc["scopes"].isNumber(), "scopes missing");
    p.require(doc["host_time"].isBool(), "host_time missing");
    p.require(doc["tree"].isArray(), "tree missing");
    const bool host_time =
        doc["host_time"].isBool() && doc["host_time"].asBool();
    if (doc["tree"].isArray()) {
        const auto &roots = doc["tree"].asArray();
        for (std::size_t i = 0; i < roots.size(); ++i)
            validateProfileNode(p, roots[i], host_time,
                                "tree[" + std::to_string(i) + "]");
    }
}

/** Flag members @p names of @p obj (at @p where, "" for the root)
 *  that are not non-negative integers. */
void
requireCounts(Problems &p, const Value &obj,
              std::initializer_list<const char *> names,
              const std::string &where)
{
    std::uint64_t unused = 0;
    for (const char *f : names)
        p.require(uldma::check::parseCount(obj[f], unused),
                  (where.empty() ? "" : where + ".") + f +
                      " is not a non-negative integer");
}

/** A uldma-fuzz-v1 row records every config flag, even those an older
 *  schedule file may omit. */
void
requireEveryFlag(Problems &p, const Value &r, const std::string &where)
{
    for (const uldma::check::ConfigFlag &f : uldma::check::configFlags)
        p.require(!r[f.name].isNull(), where + "." + f.name + " missing");
}

/** Strict uldma-fuzz-v1 check (coverage-guided fuzzing campaign
 *  reports, docs/FUZZING.md).  Config and finding rows go through the
 *  uldma-schedule-v1 member parsers. */
void
validateFuzz(Problems &p, const Value &doc)
{
    checkNoExtra(p, doc,
                 {"schema", "mode", "seed", "budget_schedules",
                  "max_points", "batch_schedules", "shrink", "execs",
                  "shrink_execs", "coverage_edges", "corpus_size",
                  "expected_findings", "unexpected_findings",
                  "coverage_curve", "configs", "findings", "wall_ns",
                  "execs_per_sec"},
                 "root");
    p.require(doc["mode"].isString(), "mode missing");
    if (doc["mode"].isString()) {
        const std::string mode = doc["mode"].asString();
        p.require(mode == "fuzz" || mode == "swarm",
                  "mode is neither 'fuzz' nor 'swarm'");
    }
    // Any 64-bit seed is legal, and one near 2^64 does not survive the
    // trip through a double, so only the seed's type is checked.
    p.require(doc["seed"].isNumber(), "seed missing");
    requireCounts(p, doc,
                  {"budget_schedules", "max_points", "batch_schedules",
                   "execs", "shrink_execs", "coverage_edges",
                   "corpus_size", "expected_findings",
                   "unexpected_findings"},
                  "");
    p.require(doc["shrink"].isBool(), "shrink missing");

    // Host-time members are opt-in (--fuzz-host-time): optional, and
    // never part of the byte-determinism contract.
    for (const char *f : {"wall_ns", "execs_per_sec"}) {
        if (!doc[f].isNull())
            p.require(doc[f].isNumber() && doc[f].asNumber() >= 0.0,
                      std::string(f) + " is not a non-negative number");
    }

    p.require(doc["coverage_curve"].isArray(), "coverage_curve missing");
    if (doc["coverage_curve"].isArray()) {
        const auto &rows = doc["coverage_curve"].asArray();
        double lastExecs = 0.0, lastEdges = 0.0, lastCorpus = 0.0;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Value &r = rows[i];
            const std::string where =
                "coverage_curve[" + std::to_string(i) + "]";
            checkNoExtra(p, r, {"execs", "edges", "corpus"}, where);
            requireCounts(p, r, {"execs", "edges", "corpus"}, where);
            if (!r["execs"].isNumber() || !r["edges"].isNumber() ||
                !r["corpus"].isNumber())
                continue;
            p.require(i == 0 || r["execs"].asNumber() > lastExecs,
                      where + ".execs is not increasing");
            p.require(r["edges"].asNumber() >= lastEdges,
                      where + ".edges decreased");
            p.require(r["corpus"].asNumber() >= lastCorpus,
                      where + ".corpus decreased");
            lastExecs = r["execs"].asNumber();
            lastEdges = r["edges"].asNumber();
            lastCorpus = r["corpus"].asNumber();
        }
    }

    std::string error;
    p.require(doc["configs"].isArray(), "configs missing");
    if (doc["configs"].isArray()) {
        const auto &rows = doc["configs"].asArray();
        p.require(!rows.empty(), "configs is empty");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Value &r = rows[i];
            const std::string where =
                "configs[" + std::to_string(i) + "]";
            checkNoExtra(p, r,
                         {"boundary_space", "execs", "new_edges",
                          "corpus", "findings"},
                         where, /*config_members=*/true);
            requireEveryFlag(p, r, where);
            uldma::check::RunnerConfig config;
            if (!uldma::check::parseConfigMembers(r, config, &error))
                p.add(where + ": " + error);
            requireCounts(p, r,
                          {"boundary_space", "execs", "new_edges",
                           "corpus", "findings"},
                          where);
        }
    }

    p.require(doc["findings"].isArray(), "findings missing");
    if (doc["findings"].isArray()) {
        const auto &rows = doc["findings"].asArray();
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Value &r = rows[i];
            const std::string where =
                "findings[" + std::to_string(i) + "]";
            checkNoExtra(p, r,
                         {"boundary_space", "preempt_after",
                          "found_at_exec", "shrink_execs", "expected",
                          "outcome"},
                         where, /*config_members=*/true);
            requireEveryFlag(p, r, where);
            uldma::check::Schedule schedule;
            if (!uldma::check::parseScheduleMembers(r, schedule, &error))
                p.add(where + ": " + error);
            requireCounts(p, r, {"found_at_exec", "shrink_execs"}, where);
            p.require(r["expected"].isBool(), where + ".expected missing");
            uldma::check::Outcome outcome;
            if (!uldma::check::parseOutcome(r["outcome"], outcome, &error))
                p.add(where + ".outcome: " + error);
            else
                p.require(!outcome.violations.empty(),
                          where + ".outcome.violations is empty");
        }
    }
}

void dispatchSchema(Problems &p, const std::string &schema,
                    const Value &doc);

/**
 * Strict uldma-bench-summary-v1 check: the bench_all.sh merge of one
 * bench sweep.  Every embedded document revalidates through the
 * registry and must carry the summary's seed.
 */
void
validateBenchSummary(Problems &p, const Value &doc)
{
    checkNoExtra(p, doc, {"schema", "seed", "host_cores", "reports"},
                 "root");
    p.require(doc["seed"].isNumber(), "seed missing");
    // Host core count of the producing machine; optional (older
    // summaries predate it), informational only — never gated.
    if (!doc["host_cores"].isNull())
        p.require(doc["host_cores"].isNumber() &&
                      doc["host_cores"].asNumber() >= 0.0,
                  "host_cores is not a non-negative number");
    p.require(doc["reports"].isArray(), "reports missing");
    if (!doc["reports"].isArray())
        return;
    const auto &reports = doc["reports"].asArray();
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const Value &r = reports[i];
        const std::string where = "reports[" + std::to_string(i) + "]";
        checkNoExtra(p, r, {"file", "document", "wall_s"}, where);
        p.require(r["file"].isString(), where + ".file missing");
        // Host wall time of the producing bench run; optional (older
        // summaries predate it), never gated.
        if (!r["wall_s"].isNull())
            p.require(r["wall_s"].isNumber() &&
                          r["wall_s"].asNumber() >= 0.0,
                      where + ".wall_s is not a non-negative number");
        const Value &inner = r["document"];
        p.require(inner.isObject(), where + ".document missing");
        if (!inner.isObject())
            continue;
        p.require(inner["schema"].isString(),
                  where + ".document.schema missing");
        if (inner["schema"].isString())
            dispatchSchema(p, inner["schema"].asString(), inner);
        if (doc["seed"].isNumber() && inner["seed"].isNumber()) {
            p.require(inner["seed"].asNumber() == doc["seed"].asNumber(),
                      where + ".document.seed differs from summary seed");
        }
    }
}

void
validateChromeTracing(Problems &p, const Value &doc)
{
    p.require(doc["traceEvents"].isArray(), "traceEvents missing");
    const auto &events = doc["traceEvents"].asArray();
    for (std::size_t i = 0; i < events.size(); ++i) {
        p.require(events[i]["ph"].isString(),
                  "traceEvents[" + std::to_string(i) + "].ph missing");
    }
}

/**
 * The schema family/version registry: every `uldma-<family>-v<N>` tag
 * this tool understands, with the one validated version per family.
 * Resolution is by family first, so an unknown *version* of a known
 * family is its own hard error (naming the supported version) instead
 * of a generic "unknown schema" — a reader built for v1 must never
 * quietly wave a v2 document through.
 */
struct SchemaEntry
{
    /** Family prefix without the version tag, e.g. "uldma-spans". */
    const char *family;
    /** The (only) version this tool validates. */
    unsigned version;
    void (*validate)(Problems &, const Value &);
};

const SchemaEntry schemaRegistry[] = {
    {"uldma-spans", 1, validateSpans},
    {"uldma-timeseries", 1, validateTimeseries},
    {"uldma-stats", 1, validateStats},
    {"uldma-bench", 1, validateBench},
    {"uldma-workload", 1, validateWorkload},
    {"uldma-schedule", 1, validateSchedule},
    {"uldma-scenario", 1, validateScenario},
    {"uldma-fuzz", 1, validateFuzz},
    {"uldma-profile", 1, validateProfile},
    {"uldma-bench-summary", 1, validateBenchSummary},
};

/** Resolve @p schema through the registry and run its validator. */
void
dispatchSchema(Problems &p, const std::string &schema, const Value &doc)
{
    for (const SchemaEntry &entry : schemaRegistry) {
        // Family match: "<family>-v<suffix>".
        const std::string prefix = std::string(entry.family) + "-v";
        if (schema.compare(0, prefix.size(), prefix) != 0)
            continue;
        const std::string suffix = schema.substr(prefix.size());
        bool digits = !suffix.empty();
        for (char c : suffix)
            digits = digits && c >= '0' && c <= '9';
        if (!digits) {
            // "uldma-spans-v1x", "uldma-spans-vfoo": never treat a
            // garbled tag as the version it starts with.
            p.add("schema '" + schema + "' is not a valid version of "
                  "family '" + entry.family + "'");
            return;
        }
        const unsigned long version =
            std::strtoul(suffix.c_str(), nullptr, 10);
        if (version != entry.version) {
            p.add("unsupported version v" + suffix + " of schema "
                  "family '" + entry.family + "' (this tool validates "
                  "v" + std::to_string(entry.version) + ")");
            return;
        }
        entry.validate(p, doc);
        return;
    }
    p.add("unknown schema '" + schema + "'");
}

/** @return true if the document validates. */
bool
validateOne(const std::string &path)
{
    Value doc;
    if (!parseFile(path, doc))
        return false;
    if (!doc.isObject()) {
        std::fprintf(stderr, "%s: root is not an object\n", path.c_str());
        return false;
    }

    Problems p;
    std::string schema;
    if (doc["schema"].isString()) {
        schema = doc["schema"].asString();
        dispatchSchema(p, schema, doc);
    } else if (doc.has("traceEvents")) {
        schema = "chrome-tracing";
        validateChromeTracing(p, doc);
    } else {
        p.add("no schema member and not a chrome://tracing document");
    }

    if (!p.list.empty()) {
        for (const std::string &what : p.list)
            std::fprintf(stderr, "%s: %s\n", path.c_str(), what.c_str());
        std::printf("%-16s %s: INVALID (%zu problem%s)\n", schema.c_str(),
                    path.c_str(), p.list.size(),
                    p.list.size() == 1 ? "" : "s");
        return false;
    }
    std::printf("%-16s %s: ok\n", schema.c_str(), path.c_str());
    return true;
}

// ---------------------------------------------------------------------
// summarize
// ---------------------------------------------------------------------

/** Offered-vs-achieved table of one uldma-workload-v1 report. */
int
summarizeWorkload(const std::string &path, const Value &doc)
{
    std::printf("%s: scenario '%s', seed %.0f, %.0f node(s), %s "
                "(%.1f us simulated)\n\n",
                path.c_str(), doc["scenario"].asString().c_str(),
                doc["seed"].asNumber(), doc["nodes"].asNumber(),
                doc["finished"].asBool() ? "finished" : "HIT LIMIT",
                doc["duration_us"].asNumber());

    std::printf("%-14s %8s %8s %8s %8s %8s %8s %10s\n", "protocol",
                "offered", "seen", "complete", "rejected", "key-mism",
                "aborted", "e2e-p50us");
    for (const Value &r : doc["per_protocol"].asArray()) {
        std::printf("%-14s %8.0f %8.0f %8.0f %8.0f %8.0f %8.0f %10.3f\n",
                    r["protocol"].asString().c_str(),
                    r["offered_initiations"].asNumber(),
                    r["initiations"].asNumber(),
                    r["completed"].asNumber(), r["rejected"].asNumber(),
                    r["key_mismatch"].asNumber(),
                    r["aborted"].asNumber(),
                    r["end_to_end_us"]["p50"].asNumber());
    }

    const Value &offered = doc["offered"];
    const Value &achieved = doc["achieved"];
    std::printf("\ntotals: offered %.0f initiation(s) (%.0f bytes, "
                "%.1f/s), achieved %.0f completed (%.0f bytes, %.1f/s), "
                "%.0f failure status(es)\n",
                offered["initiations"].asNumber(),
                offered["bytes"].asNumber(),
                offered["rate_per_sec"].asNumber(),
                achieved["completed"].asNumber(),
                achieved["bytes"].asNumber(),
                achieved["rate_per_sec"].asNumber(),
                achieved["failures"].asNumber());

    std::printf("\n%-20s %5s %-12s %8s %8s %8s\n", "stream", "node",
                "protocol", "issued", "failures", "fallback");
    for (const Value &s : doc["streams"].asArray()) {
        std::printf("%-20s %5.0f %-12s %8.0f %8.0f %8.0f\n",
                    s["name"].asString().c_str(), s["node"].asNumber(),
                    (s["protocol"].asString() +
                     (s["adversarial"].asBool() ? "*" : ""))
                        .c_str(),
                    s["adversarial"].asBool()
                        ? s["adversarial_ops"].asNumber()
                        : s["initiations"].asNumber(),
                    s["failures"].asNumber(),
                    s["kernel_fallbacks"].asNumber());
    }
    std::printf("(* = adversarial stream; issued counts shadow "
                "accesses)\n");
    return 0;
}

int
cmdSummarize(const std::string &path)
{
    Value doc;
    if (!parseFile(path, doc))
        return 2;
    if (doc["schema"].asString() == "uldma-workload-v1")
        return summarizeWorkload(path, doc);
    if (doc["schema"].asString() != "uldma-spans-v1") {
        std::fprintf(stderr,
                     "%s: not a uldma-spans-v1 or uldma-workload-v1 "
                     "document\n",
                     path.c_str());
        return 2;
    }

    std::printf("%s: %.0f span(s) opened\n\n", path.c_str(),
                doc["opened"].asNumber());
    std::printf("%-14s %9s %9s %9s %9s %9s\n", "protocol", "completed",
                "rejected", "key-mism", "aborted", "in-flight");
    const auto &protos = doc["summary"]["protocols"].asArray();
    for (const Value &ps : protos) {
        std::printf("%-14s %9.0f %9.0f %9.0f %9.0f %9.0f\n",
                    ps["protocol"].asString().c_str(),
                    ps["completed"].asNumber(), ps["rejected"].asNumber(),
                    ps["key_mismatch"].asNumber(),
                    ps["aborted"].asNumber(), ps["in_flight"].asNumber());
    }

    std::printf("\nend-to-end latency (us):\n");
    std::printf("%-14s %9s %9s %9s %9s %9s\n", "protocol", "mean", "min",
                "max", "p50", "p99");
    for (const Value &ps : protos) {
        const Value &q = ps["end_to_end_us"];
        if (q["count"].asNumber() == 0)
            continue;
        std::printf("%-14s %9.3f %9.3f %9.3f %9.3f %9.3f\n",
                    ps["protocol"].asString().c_str(),
                    q["mean"].asNumber(), q["min"].asNumber(),
                    q["max"].asNumber(), q["p50"].asNumber(),
                    q["p99"].asNumber());
    }

    std::printf("\nphase p50 (us):\n");
    std::printf("%-14s %10s %9s %9s %9s\n", "protocol", "initiation",
                "queue", "bus", "delivery");
    for (const Value &ps : protos) {
        if (ps["end_to_end_us"]["count"].asNumber() == 0)
            continue;
        const Value &ph = ps["phases_us"];
        std::printf("%-14s %10.3f %9.3f %9.3f %9.3f\n",
                    ps["protocol"].asString().c_str(),
                    ph["initiation"]["p50"].asNumber(),
                    ph["queue"]["p50"].asNumber(),
                    ph["bus"]["p50"].asNumber(),
                    ph["delivery"]["p50"].asNumber());
    }
    return 0;
}

// ---------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------

int
cmdDiff(const std::string &before_path, const std::string &after_path,
        double threshold_pct)
{
    Value before, after;
    if (!parseFile(before_path, before) || !parseFile(after_path, after))
        return 2;
    for (const auto *docpath :
         {&before_path, &after_path}) {
        const Value &d = docpath == &before_path ? before : after;
        if (d["schema"].asString() != "uldma-spans-v1") {
            std::fprintf(stderr, "%s: not a uldma-spans-v1 document\n",
                         docpath->c_str());
            return 2;
        }
    }

    bool regressed = false;
    std::printf("%-14s %12s %12s %9s\n", "protocol", "before-p50",
                "after-p50", "delta");
    for (const Value &b : before["summary"]["protocols"].asArray()) {
        const std::string protocol = b["protocol"].asString();
        const Value *a = nullptr;
        for (const Value &cand : after["summary"]["protocols"].asArray()) {
            if (cand["protocol"].asString() == protocol) {
                a = &cand;
                break;
            }
        }
        if (a == nullptr) {
            std::printf("%-14s %12.3f %12s %9s\n", protocol.c_str(),
                        b["end_to_end_us"]["p50"].asNumber(), "-",
                        "gone");
            continue;
        }
        const double bp50 = b["end_to_end_us"]["p50"].asNumber();
        const double ap50 = (*a)["end_to_end_us"]["p50"].asNumber();
        if (b["end_to_end_us"]["count"].asNumber() == 0 ||
            (*a)["end_to_end_us"]["count"].asNumber() == 0) {
            std::printf("%-14s %12.3f %12.3f %9s\n", protocol.c_str(),
                        bp50, ap50, "n/a");
            continue;
        }
        const double delta_pct =
            bp50 == 0.0 ? 0.0 : (ap50 - bp50) / bp50 * 100.0;
        const bool bad = delta_pct > threshold_pct;
        regressed = regressed || bad;
        std::printf("%-14s %12.3f %12.3f %+8.2f%%%s\n", protocol.c_str(),
                    bp50, ap50, delta_pct,
                    bad ? "  REGRESSION" : "");
    }
    if (regressed) {
        std::printf("\nregressions above %.2f%% threshold found\n",
                    threshold_pct);
        return 1;
    }
    std::printf("\nno regression above %.2f%% threshold\n", threshold_pct);
    return 0;
}

// ---------------------------------------------------------------------
// profile
// ---------------------------------------------------------------------

/** One scope of a flattened uldma-profile-v1 tree (pre-order). */
struct ProfRow
{
    std::string path;  ///< "a;b;c" — collapsed-stack spelling
    std::string name;
    int depth = 0;
    double count = 0.0;
    double inclTicks = 0.0;
    double exclTicks = 0.0;
    double inclNs = 0.0;
    double exclNs = 0.0;
};

void
flattenProfile(const Value &nodes, const std::string &prefix, int depth,
               std::vector<ProfRow> &rows)
{
    if (!nodes.isArray())
        return;
    for (const Value &n : nodes.asArray()) {
        ProfRow row;
        row.name = n["name"].asString();
        row.path = prefix.empty() ? row.name : prefix + ";" + row.name;
        row.depth = depth;
        row.count = n["count"].asNumber();
        row.inclTicks = n["inclusive_ticks"].asNumber();
        row.exclTicks = n["exclusive_ticks"].asNumber();
        row.inclNs = n["inclusive_ns"].asNumber();
        row.exclNs = n["exclusive_ns"].asNumber();
        const std::string child_prefix = row.path;
        rows.push_back(row);
        flattenProfile(n["children"], child_prefix, depth + 1, rows);
    }
}

bool
loadProfile(const std::string &path, Value &doc, std::vector<ProfRow> &rows)
{
    if (!parseFile(path, doc))
        return false;
    if (doc["schema"].asString() != "uldma-profile-v1") {
        std::fprintf(stderr, "%s: not a uldma-profile-v1 document\n",
                     path.c_str());
        return false;
    }
    flattenProfile(doc["tree"], "", 0, rows);
    return true;
}

/** Indices of @p rows ranked by self cost (host ns when present and
 *  nonzero, else exclusive ticks, else entry count). */
std::vector<std::size_t>
rankBySelfCost(const std::vector<ProfRow> &rows, bool host_time)
{
    double ns_total = 0.0, ticks_total = 0.0;
    for (const ProfRow &r : rows) {
        ns_total += r.exclNs;
        ticks_total += r.exclTicks;
    }
    auto weight = [&](const ProfRow &r) {
        if (host_time && ns_total > 0.0)
            return r.exclNs;
        return ticks_total > 0.0 ? r.exclTicks : r.count;
    };
    std::vector<std::size_t> order(rows.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (weight(rows[a]) != weight(rows[b]))
                      return weight(rows[a]) > weight(rows[b]);
                  if (rows[a].count != rows[b].count)
                      return rows[a].count > rows[b].count;
                  return rows[a].path < rows[b].path;
              });
    return order;
}

int
cmdProfile(const std::string &path, unsigned top)
{
    Value doc;
    std::vector<ProfRow> rows;
    if (!loadProfile(path, doc, rows))
        return 2;
    const bool host_time = doc["host_time"].asBool();

    std::printf("%s: %.0f scope entr%s, %s attribution\n\n", path.c_str(),
                doc["scopes"].asNumber(),
                doc["scopes"].asNumber() == 1 ? "y" : "ies",
                host_time ? "ticks + host-time"
                          : "deterministic (simulated ticks)");

    if (host_time)
        std::printf("%-44s %10s %14s %14s %10s %10s\n", "scope", "count",
                    "incl-ticks", "excl-ticks", "incl-ms", "excl-ms");
    else
        std::printf("%-44s %10s %14s %14s\n", "scope", "count",
                    "incl-ticks", "excl-ticks");
    for (const ProfRow &r : rows) {
        const std::string label =
            std::string(static_cast<std::size_t>(r.depth) * 2, ' ') +
            r.name;
        if (host_time)
            std::printf("%-44s %10.0f %14.0f %14.0f %10.3f %10.3f\n",
                        label.c_str(), r.count, r.inclTicks, r.exclTicks,
                        r.inclNs / 1e6, r.exclNs / 1e6);
        else
            std::printf("%-44s %10.0f %14.0f %14.0f\n", label.c_str(),
                        r.count, r.inclTicks, r.exclTicks);
    }

    const std::vector<std::size_t> order = rankBySelfCost(rows, host_time);
    std::printf("\ntop self-cost scopes:\n");
    for (std::size_t i = 0; i < order.size() && i < top; ++i) {
        const ProfRow &r = rows[order[i]];
        if (host_time)
            std::printf("%2zu. %-52s %10.3f ms %12.0f ticks x%.0f\n",
                        i + 1, r.path.c_str(), r.exclNs / 1e6,
                        r.exclTicks, r.count);
        else
            std::printf("%2zu. %-52s %14.0f ticks x%.0f\n", i + 1,
                        r.path.c_str(), r.exclTicks, r.count);
    }
    return 0;
}

int
cmdProfileDiff(const std::string &before_path,
               const std::string &after_path, unsigned top)
{
    Value before_doc, after_doc;
    std::vector<ProfRow> before, after;
    if (!loadProfile(before_path, before_doc, before) ||
        !loadProfile(after_path, after_doc, after))
        return 2;

    // Compare on the deterministic axis: exclusive ticks when either
    // side has any, entry counts otherwise (host ns never diffs
    // meaningfully across runs).
    double ticks_total = 0.0;
    for (const ProfRow &r : before)
        ticks_total += r.exclTicks;
    for (const ProfRow &r : after)
        ticks_total += r.exclTicks;
    const bool use_ticks = ticks_total > 0.0;
    auto weight = [&](const ProfRow &r) {
        return use_ticks ? r.exclTicks : r.count;
    };

    struct DiffRow
    {
        const ProfRow *b = nullptr;
        const ProfRow *a = nullptr;
    };
    std::vector<std::pair<std::string, DiffRow>> joined;
    auto slot = [&](const std::string &path) -> DiffRow & {
        for (auto &[p, row] : joined) {
            if (p == path)
                return row;
        }
        joined.emplace_back(path, DiffRow{});
        return joined.back().second;
    };
    for (const ProfRow &r : before)
        slot(r.path).b = &r;
    for (const ProfRow &r : after)
        slot(r.path).a = &r;

    std::vector<std::size_t> order(joined.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    auto delta = [&](const DiffRow &row) {
        const double wb = row.b ? weight(*row.b) : 0.0;
        const double wa = row.a ? weight(*row.a) : 0.0;
        return wa - wb;
    };
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) {
                  const double dx = delta(joined[x].second);
                  const double dy = delta(joined[y].second);
                  if ((dx < 0 ? -dx : dx) != (dy < 0 ? -dy : dy))
                      return (dx < 0 ? -dx : dx) > (dy < 0 ? -dy : dy);
                  return joined[x].first < joined[y].first;
              });

    std::printf("comparing exclusive %s (%s -> %s), largest deltas "
                "first:\n\n",
                use_ticks ? "ticks" : "entry counts",
                before_path.c_str(), after_path.c_str());
    std::printf("%-56s %14s %14s %14s\n", "scope path", "before", "after",
                "delta");
    for (std::size_t i = 0; i < order.size() && i < top; ++i) {
        const auto &[path, row] = joined[order[i]];
        const double wb = row.b ? weight(*row.b) : 0.0;
        const double wa = row.a ? weight(*row.a) : 0.0;
        std::string note;
        if (row.b == nullptr)
            note = " (new)";
        else if (row.a == nullptr)
            note = " (gone)";
        std::printf("%-56s %14.0f %14.0f %+14.0f%s\n", path.c_str(), wb,
                    wa, wa - wb, note.c_str());
    }
    return 0;
}

// ---------------------------------------------------------------------
// bench-diff / bench-perturb
// ---------------------------------------------------------------------

/**
 * Classify one uldma-bench-v1 metric by name: -1 lower-is-better,
 * +1 higher-is-better, 0 untracked.  Untracked covers host wall time
 * and host-derived ratios (gating those would flake run to run) and
 * counters with no quality direction.  The classification is by
 * naming convention — docs/PERFORMANCE.md documents the rules for
 * bench authors.
 */
int
metricDirection(const std::string &name)
{
    auto contains = [&](const char *s) {
        return name.find(s) != std::string::npos;
    };
    auto endsWith = [&](const char *s) {
        const std::size_t n = std::strlen(s);
        return name.size() >= n &&
               name.compare(name.size() - n, n, s) == 0;
    };
    // Host-dependent: never gate.
    if (contains("wall") || contains("host") || endsWith("_ms") ||
        name == "speedup" || name == "speedup_x" || name == "efficiency")
        return 0;
    if (endsWith("per_sec") || contains("throughput") ||
        contains("successes") || contains("completed") || name == "ok" ||
        name == "granted" || name == "hit_rate" || name == "jain_index" ||
        (name.rfind("min_", 0) == 0 && endsWith("_share")))
        return 1;
    if (endsWith("_us") || endsWith("_ns") || endsWith("_ticks") ||
        endsWith("_cycles") || name == "ticks" || name == "cycle_equiv" ||
        name == "walks" || name == "crossover_depth" ||
        contains("instruction") || contains("uncached") ||
        contains("fallback") || contains("violation") ||
        contains("deceived") || contains("attacker") ||
        contains("wrong") || contains("overhead") ||
        contains("ni_accesses") || contains("fail") ||
        contains("reject") || contains("stall"))
        return -1;
    return 0;
}

/** Running totals of one bench-diff run. */
struct BenchDiffStats
{
    unsigned compared = 0;
    unsigned regressions = 0;
    unsigned missing = 0;
};

/** Compare one tracked metric and print its row. */
void
compareMetric(BenchDiffStats &st, const std::string &row,
              const std::string &metric, int dir, double base,
              double cur, double threshold_pct)
{
    ++st.compared;
    bool bad = false;
    char delta[32];
    if (base == 0.0) {
        // A lower-is-better metric appearing from zero is an infinite
        // relative regression; a higher-is-better one can only improve.
        bad = dir < 0 && cur > 0.0;
        std::snprintf(delta, sizeof(delta), "%s",
                      cur == 0.0 ? "+0.00%" : (dir < 0 ? "inf" : "n/a"));
    } else {
        const double pct = (cur - base) / base * 100.0;
        bad = dir < 0 ? pct > threshold_pct : -pct > threshold_pct;
        std::snprintf(delta, sizeof(delta), "%+.2f%%", pct);
    }
    if (bad)
        ++st.regressions;
    std::printf("%-30s %-30s %14.4f %14.4f %9s%s\n", row.c_str(),
                metric.c_str(), base, cur, delta,
                bad ? "  REGRESSION" : "");
}

void
reportMissing(BenchDiffStats &st, const std::string &row,
              const std::string &what)
{
    ++st.missing;
    std::printf("%-30s %-30s %*s  MISSING\n", row.c_str(), what.c_str(),
                39, "-");
}

/** Exact equality of two record config blocks (flat string maps). */
bool
sameConfig(const Value &a, const Value &b)
{
    if (!a.isObject() || !b.isObject())
        return a.isObject() == b.isObject();
    if (a.asObject().size() != b.asObject().size())
        return false;
    for (const auto &[k, v] : a.asObject()) {
        const Value &other = b[k];
        if (!v.isString() || !other.isString() ||
            v.asString() != other.asString())
            return false;
    }
    return true;
}

void
benchDiffRecords(BenchDiffStats &st, const Value &base, const Value &cur,
                 double threshold_pct)
{
    const auto &brecs = base["records"].asArray();
    for (std::size_t i = 0; i < brecs.size(); ++i) {
        const Value &b = brecs[i];
        const std::string name = b["name"].asString();
        // Records may legally share a name (one row per config point):
        // match on name + exact config, and disambiguate the printed
        // row by ordinal among the baseline's same-name records.
        unsigned ordinal = 0, same_name = 0;
        for (std::size_t j = 0; j < brecs.size(); ++j) {
            if (brecs[j]["name"].asString() == name) {
                ++same_name;
                if (j < i)
                    ++ordinal;
            }
        }
        std::string row = name;
        if (same_name > 1)
            row += "#" + std::to_string(ordinal);
        const Value *c = nullptr;
        for (const Value &cand : cur["records"].asArray()) {
            if (cand["name"].asString() == name &&
                sameConfig(b["config"], cand["config"])) {
                c = &cand;
                break;
            }
        }
        if (c == nullptr) {
            reportMissing(st, row, "(whole record)");
            continue;
        }
        for (const auto &[metric, bv] : b["metrics"].asObject()) {
            const int dir = metricDirection(metric);
            if (dir == 0 || !bv.isNumber())
                continue;
            const Value &cv = (*c)["metrics"][metric];
            if (!cv.isNumber()) {
                reportMissing(st, row, metric);
                continue;
            }
            compareMetric(st, row, metric, dir, bv.asNumber(),
                          cv.asNumber(), threshold_pct);
        }
    }
}

int
cmdBenchDiff(const std::string &base_path, const std::string &cur_path,
             double threshold_pct)
{
    Value base, cur;
    if (!parseFile(base_path, base) || !parseFile(cur_path, cur))
        return 2;
    const std::string schema = base["schema"].asString();
    if (schema != "uldma-bench-v1" || cur["schema"].asString() != schema) {
        std::fprintf(stderr,
                     "bench-diff compares two uldma-bench-v1 reports: "
                     "%s is '%s', %s is '%s'\n",
                     base_path.c_str(), schema.c_str(), cur_path.c_str(),
                     cur["schema"].asString().c_str());
        return 2;
    }
    const std::string benchmark = base["benchmark"].asString();
    if (benchmark != cur["benchmark"].asString()) {
        std::fprintf(stderr,
                     "benchmark mismatch: %s is '%s', %s is '%s'\n",
                     base_path.c_str(), benchmark.c_str(),
                     cur_path.c_str(),
                     cur["benchmark"].asString().c_str());
        return 2;
    }
    if (base["seed"].asNumber() != cur["seed"].asNumber()) {
        std::fprintf(stderr,
                     "seed mismatch (%.0f vs %.0f): reports are not "
                     "comparable\n",
                     base["seed"].asNumber(), cur["seed"].asNumber());
        return 2;
    }

    std::printf("%-30s %-30s %14s %14s %9s\n", "record", "metric",
                "baseline", "current", "delta");
    BenchDiffStats st;
    benchDiffRecords(st, base, cur, threshold_pct);

    std::printf("\n%u tracked metric(s) compared, %u missing, %u "
                "regression(s) above %.2f%% threshold\n",
                st.compared, st.missing, st.regressions, threshold_pct);
    return (st.regressions > 0 || st.missing > 0) ? 1 : 0;
}

/** Re-serialise @p v, mapping every number through @p tf (keyed by the
 *  object-member path down to it; array hops add no path segment). */
void
writeValueTransformed(
    uldma::json::Writer &w, const Value &v,
    std::vector<std::string> &keypath,
    const std::function<double(const std::vector<std::string> &, double)>
        &tf)
{
    switch (v.type()) {
      case Value::Type::Null:
        w.valueNull();
        break;
      case Value::Type::Bool:
        w.value(v.asBool());
        break;
      case Value::Type::String:
        w.value(v.asString());
        break;
      case Value::Type::Number:
        w.value(tf(keypath, v.asNumber()));
        break;
      case Value::Type::Array:
        w.beginArray();
        for (const Value &e : v.asArray())
            writeValueTransformed(w, e, keypath, tf);
        w.endArray();
        break;
      case Value::Type::Object:
        w.beginObject();
        for (const auto &[k, e] : v.asObject()) {
            w.key(k);
            keypath.push_back(k);
            writeValueTransformed(w, e, keypath, tf);
            keypath.pop_back();
        }
        w.endObject();
        break;
    }
}

int
cmdBenchPerturb(const std::string &in_path, const std::string &out_path,
                double factor)
{
    Value doc;
    if (!parseFile(in_path, doc))
        return 2;
    const std::string schema = doc["schema"].asString();
    if (schema != "uldma-bench-v1") {
        std::fprintf(stderr,
                     "%s: bench-perturb handles uldma-bench-v1 reports, "
                     "not '%s'\n",
                     in_path.c_str(), schema.c_str());
        return 2;
    }

    // Move every gated metric the wrong way by the factor.
    auto transform = [factor](const std::vector<std::string> &path,
                              double v) {
        if (path.size() < 2 || path[path.size() - 2] != "metrics")
            return v;
        const int dir = metricDirection(path.back());
        return dir < 0 ? v * factor : dir > 0 ? v / factor : v;
    };

    const bool written = uldma::writeOutput(out_path, [&](std::ostream &os) {
        {
            uldma::json::Writer w(os, /*pretty=*/true);
            std::vector<std::string> keypath;
            writeValueTransformed(w, doc, keypath, transform);
        }
        os << "\n";
    });
    return written ? 0 : 2;
}

/** Split argv[2..] into @p paths and the value of --<option>=, which
 *  must parse whole as a finite number; false when it does not. */
template <typename T>
bool
splitArgs(int argc, char **argv, const std::string &option, T &value,
          std::vector<std::string> &paths)
{
    const std::string prefix = "--" + option + "=";
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind(prefix, 0) != 0) {
            paths.push_back(arg);
            continue;
        }
        const char *end = arg.data() + arg.size();
        const auto [ptr, ec] =
            std::from_chars(arg.data() + prefix.size(), end, value);
        if (ec != std::errc() || ptr != end ||
            !std::isfinite(static_cast<double>(value)))
            return false;
    }
    return true;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: uldma_trace_tool summarize <spans.json | "
                 "workload-report.json>\n"
                 "       uldma_trace_tool diff <before.json> <after.json>"
                 " [--threshold=<pct>]\n"
                 "       uldma_trace_tool profile <profile.json> "
                 "[<after.json>] [--top=<n>]\n"
                 "       uldma_trace_tool bench-diff <baseline.json> "
                 "<current.json> [--threshold=<pct>]\n"
                 "       uldma_trace_tool bench-perturb <in.json> "
                 "<out.json> [--factor=<f>]\n"
                 "       uldma_trace_tool validate <file.json> [...]\n"
                 "schemas: docs/SCHEMAS.md\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];

    if (cmd == "summarize") {
        if (argc != 3)
            return usage();
        return cmdSummarize(argv[2]);
    }

    if (cmd == "diff" || cmd == "bench-diff") {
        double threshold = 10.0;
        std::vector<std::string> paths;
        if (!splitArgs(argc, argv, "threshold", threshold, paths) ||
            paths.size() != 2)
            return usage();
        return cmd == "diff"
                   ? cmdDiff(paths[0], paths[1], threshold)
                   : cmdBenchDiff(paths[0], paths[1], threshold);
    }

    if (cmd == "profile") {
        unsigned top = 10;
        std::vector<std::string> paths;
        if (!splitArgs(argc, argv, "top", top, paths))
            return usage();
        if (paths.size() == 1)
            return cmdProfile(paths[0], top);
        if (paths.size() == 2)
            return cmdProfileDiff(paths[0], paths[1], top);
        return usage();
    }

    if (cmd == "bench-perturb") {
        double factor = 1.5;
        std::vector<std::string> paths;
        if (!splitArgs(argc, argv, "factor", factor, paths) ||
            factor <= 0 || paths.size() != 2)
            return usage();
        return cmdBenchPerturb(paths[0], paths[1], factor);
    }

    if (cmd == "validate") {
        if (argc < 3)
            return usage();
        bool all_ok = true;
        for (int i = 2; i < argc; ++i)
            all_ok = validateOne(argv[i]) && all_ok;
        return all_ok ? 0 : 1;
    }

    return usage();
}
