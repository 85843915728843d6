#include "check/fuzzer.hh"

#include <algorithm>
#include <ostream>
#include <unordered_map>
#include <unordered_set>

#include "sim/json.hh"
#include "util/fnv.hh"
#include "util/random.hh"

namespace uldma::check {
namespace {

/** splitmix64 finalizer — the same mixer the workload PRNG derivation
 *  uses; good avalanche for combining coverage-edge components. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
fnv1a(const std::string &s)
{
    Fnv1a f;
    f.mixBytes(s);
    return f.h;
}

/** Stable identity of a scenario config: every knob that changes what
 *  a schedule means. */
std::uint64_t
configSignature(const RunnerConfig &c)
{
    std::uint64_t bits = static_cast<std::uint64_t>(c.method);
    for (const ConfigFlag &f : configFlags)
        bits = (bits << 1) | (c.*f.field ? 1 : 0);
    return mix64(bits);
}

/** All mutation state for one distinct config. */
struct ConfigState
{
    RunnerConfig config;
    std::uint64_t boundarySpace = 0;
    /** Coverage-novel schedules; mutation parents come from here. */
    std::vector<std::vector<std::uint64_t>> corpus;
    std::size_t statsIndex = 0; ///< into FuzzReport::configs
};

struct Fuzzer
{
    const FuzzConfig &cfg;
    FuzzReport report;
    Random rng;
    std::unordered_set<std::uint64_t> edges;
    std::unordered_set<std::uint64_t> findingKeys;
    std::unordered_map<std::uint64_t, std::size_t> configIndex;
    std::vector<ConfigState> states;
    std::uint64_t corpusTotal = 0;
    std::uint64_t nextSample = 1;

    explicit
    Fuzzer(const FuzzConfig &c)
        : cfg(c), rng(mix64(c.seed ^ 0x756c646d612d667aULL)) // "uldma-fz"
    {
        report.config = cfg;
    }

    /** Count new coverage edges from @p r under @p sig. */
    std::uint64_t
    recordCoverage(std::uint64_t sig, const RunResult &r)
    {
        std::uint64_t fresh = 0;
        for (std::size_t i = 0; i < r.boundaryHashes.size(); ++i) {
            const std::uint64_t e =
                mix64(sig ^ mix64(i + 1) ^ r.boundaryHashes[i]);
            if (edges.insert(e).second)
                ++fresh;
        }
        if (edges.insert(mix64(sig ^ 0x66696e616cULL ^
                               r.outcome.stateHash))
                .second) {
            ++fresh;
        }
        for (const Violation &v : r.outcome.violations) {
            const std::uint64_t e =
                mix64(sig ^ 0x76696f6cULL ^ fnv1a(v.invariant));
            if (edges.insert(e).second)
                ++fresh;
        }
        return fresh;
    }

    /** Dedup key: one finding per (config, invariant set). */
    std::uint64_t
    findingKey(std::uint64_t sig, const std::vector<Violation> &vs)
    {
        std::vector<std::uint64_t> names;
        names.reserve(vs.size());
        for (const Violation &v : vs)
            names.push_back(fnv1a(v.invariant));
        std::sort(names.begin(), names.end());
        names.erase(std::unique(names.begin(), names.end()),
                    names.end());
        std::uint64_t key = sig;
        for (std::uint64_t n : names)
            key = mix64(key ^ n);
        return key;
    }

    /** Get-or-create the mutation state for @p config.  A new config
     *  costs one budget-counted probe exec (the empty schedule) that
     *  discovers the boundary space and seeds the corpus. */
    ConfigState &
    stateFor(const RunnerConfig &config)
    {
        const std::uint64_t sig = configSignature(config);
        const auto it = configIndex.find(sig);
        if (it != configIndex.end())
            return states[it->second];

        configIndex.emplace(sig, states.size());
        states.push_back(ConfigState{config, 0, {}, 0});
        ConfigState &st = states.back();
        st.statsIndex = report.configs.size();
        report.configs.push_back(
            FuzzConfigStats{config, 0, 0, 0, 0, 0});
        execute(st, {});
        return st;
    }

    /** Run one schedule under @p st's config, feeding coverage,
     *  corpus and findings.  One unit of budget. */
    void
    execute(ConfigState &st, std::vector<std::uint64_t> pts)
    {
        const std::uint64_t sig = configSignature(st.config);
        const RunResult r = runSchedule(st.config, pts);
        ++report.execs;
        FuzzConfigStats &stats = report.configs[st.statsIndex];
        ++stats.execs;
        st.boundarySpace = r.boundarySpace;
        stats.boundarySpace = r.boundarySpace;

        const std::uint64_t fresh = recordCoverage(sig, r);
        stats.newEdges += fresh;
        if (fresh > 0) {
            st.corpus.push_back(pts);
            ++stats.corpus;
            ++corpusTotal;
        }

        const std::vector<Violation> &vs = r.outcome.violations;
        if (!vs.empty() && findingKeys.insert(findingKey(sig, vs)).second) {
            recordFinding(st, std::move(pts));
            ++stats.findings;
        }

        report.coverageEdges = edges.size();
        report.corpusSize = corpusTotal;
        while (report.execs >= nextSample) {
            report.curve.push_back(CoveragePoint{
                nextSample, report.coverageEdges, report.corpusSize});
            nextSample *= 2;
        }
    }

    void
    recordFinding(const ConfigState &st, std::vector<std::uint64_t> pts)
    {
        FuzzFinding f;
        f.foundAtExec = report.execs;
        if (cfg.shrinkFindings)
            pts = shrink(st.config, std::move(pts), f.shrinkExecs);
        // Re-run the minimal schedule so the recorded outcome is what
        // a --replay of the emitted repro reproduces.
        f.outcome = runSchedule(st.config, pts).outcome;
        ++f.shrinkExecs;
        f.schedule = {st.config, st.boundarySpace, std::move(pts)};
        f.expected = configWeakened(st.config);
        report.shrinkExecs += f.shrinkExecs;
        if (f.expected)
            ++report.expectedFindings;
        else
            ++report.unexpectedFindings;
        report.findings.push_back(std::move(f));
    }

    /** Draw a fresh scenario config for the next swarm batch. */
    RunnerConfig
    drawConfig()
    {
        RunnerConfig c;
        c.method =
            checkedProtocols[rng.below(std::size(checkedProtocols))].method;
        c.faults = rng.chance(0.75);
        if (c.method == DmaMethod::Ring)
            c.useIommu = rng.chance(0.5);
        if (rng.chance(0.5)) {
            // One fault-injection flag per weakened config, drawn
            // from the flags the protocol supports.
            std::vector<int> weakenable{0}; // 0 = weakRecognizer
            if (c.method == DmaMethod::Ring) {
                weakenable.push_back(1); // weakRing
                if (c.useIommu)
                    weakenable.push_back(2); // weakIommu
            }
            if (c.method == DmaMethod::Cap)
                weakenable.push_back(3); // weakCap
            switch (weakenable[rng.below(weakenable.size())]) {
              case 0: c.weakRecognizer = true; break;
              case 1: c.weakRing = true; break;
              case 2: c.weakIommu = true; break;
              case 3: c.weakCap = true; break;
            }
        }
        return c;
    }

    /** Mutate a corpus parent into the next schedule to run. */
    std::vector<std::uint64_t>
    mutate(ConfigState &st)
    {
        const std::uint64_t space = st.boundarySpace;
        std::vector<std::uint64_t> pts =
            st.corpus[rng.below(st.corpus.size())];
        const std::uint64_t ops = 1 + rng.below(3);
        for (std::uint64_t op = 0; op < ops; ++op) {
            switch (rng.below(5)) {
              case 0: // insert a boundary
                pts.push_back(rng.below(space));
                break;
              case 1: // remove one
                if (!pts.empty())
                    pts.erase(pts.begin() +
                              static_cast<std::ptrdiff_t>(
                                  rng.below(pts.size())));
                break;
              case 2: { // shift one by a small delta
                if (pts.empty()) {
                    pts.push_back(rng.below(space));
                    break;
                }
                std::uint64_t &b = pts[rng.below(pts.size())];
                const std::uint64_t delta = rng.inRange(1, 3);
                if (rng.chance(0.5))
                    b = b >= delta ? b - delta : 0;
                else
                    b = std::min(space - 1, b + delta);
                break;
              }
              case 3: // duplicate one (back-to-back preemption)
                if (!pts.empty())
                    pts.push_back(pts[rng.below(pts.size())]);
                break;
              case 4: { // splice with a second parent at a cut point
                const std::vector<std::uint64_t> &other =
                    st.corpus[rng.below(st.corpus.size())];
                const std::uint64_t cut = rng.below(space);
                std::vector<std::uint64_t> spliced;
                for (std::uint64_t b : pts)
                    if (b < cut)
                        spliced.push_back(b);
                for (std::uint64_t b : other)
                    if (b >= cut)
                        spliced.push_back(b);
                pts = std::move(spliced);
                break;
              }
            }
        }
        std::sort(pts.begin(), pts.end());
        while (pts.size() > cfg.maxPoints)
            pts.erase(pts.begin() +
                      static_cast<std::ptrdiff_t>(rng.below(pts.size())));
        return pts;
    }

    FuzzReport
    run()
    {
        while (report.execs < cfg.budgetSchedules) {
            const RunnerConfig config =
                cfg.swarm ? drawConfig() : cfg.runner;
            ConfigState &st = stateFor(config);
            const std::uint64_t batchEnd =
                std::min(cfg.budgetSchedules,
                         report.execs + cfg.batchSchedules);
            while (report.execs < batchEnd)
                execute(st, mutate(st));
        }
        if (report.curve.empty() ||
            report.curve.back().execs != report.execs) {
            report.curve.push_back(CoveragePoint{
                report.execs, report.coverageEdges, report.corpusSize});
        }
        return std::move(report);
    }
};

} // namespace

bool
configWeakened(const RunnerConfig &config)
{
    switch (config.method) {
      case DmaMethod::Repeated5:
        return config.weakRecognizer;
      case DmaMethod::Ring:
        return config.weakRing || config.weakIommu;
      case DmaMethod::Cap:
        return config.weakCap;
      default:
        return false;
    }
}

FuzzReport
fuzz(const FuzzConfig &config)
{
    return Fuzzer(config).run();
}

void
writeFuzzJson(std::ostream &os, const FuzzReport &report,
              std::optional<std::uint64_t> wallNs,
              std::optional<double> execsPerSec)
{
    json::Writer w(os, /*pretty=*/true);
    w.beginObject();
    w.member("schema", fuzzSchema);
    w.member("mode", report.config.swarm ? "swarm" : "fuzz");
    w.member("seed", report.config.seed);
    w.member("budget_schedules", report.config.budgetSchedules);
    w.member("max_points",
             static_cast<std::uint64_t>(report.config.maxPoints));
    w.member("batch_schedules",
             static_cast<std::uint64_t>(report.config.batchSchedules));
    w.member("shrink", report.config.shrinkFindings);
    w.member("execs", report.execs);
    w.member("shrink_execs", report.shrinkExecs);
    w.member("coverage_edges", report.coverageEdges);
    w.member("corpus_size", report.corpusSize);
    w.member("expected_findings", report.expectedFindings);
    w.member("unexpected_findings", report.unexpectedFindings);
    w.key("coverage_curve");
    w.beginArray();
    for (const CoveragePoint &p : report.curve) {
        w.beginObject();
        w.member("execs", p.execs);
        w.member("edges", p.edges);
        w.member("corpus", p.corpus);
        w.endObject();
    }
    w.endArray();
    w.key("configs");
    w.beginArray();
    for (const FuzzConfigStats &c : report.configs) {
        w.beginObject();
        writeConfigMembers(w, c.config);
        w.member("boundary_space", c.boundarySpace);
        w.member("execs", c.execs);
        w.member("new_edges", c.newEdges);
        w.member("corpus", c.corpus);
        w.member("findings", c.findings);
        w.endObject();
    }
    w.endArray();
    w.key("findings");
    w.beginArray();
    for (const FuzzFinding &f : report.findings) {
        w.beginObject();
        writeScheduleMembers(w, f.schedule);
        w.member("found_at_exec", f.foundAtExec);
        w.member("shrink_execs", f.shrinkExecs);
        w.member("expected", f.expected);
        writeOutcome(w, f.outcome);
        w.endObject();
    }
    w.endArray();
    if (wallNs)
        w.member("wall_ns", *wallNs);
    if (execsPerSec)
        w.member("execs_per_sec", *execsPerSec);
    w.endObject();
    os << "\n";
}

} // namespace uldma::check
