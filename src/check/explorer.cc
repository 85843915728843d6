#include "check/explorer.hh"

#include <unordered_set>

namespace uldma::check {
namespace {

struct Dfs
{
    const ExplorerConfig &config;
    ExploreReport &report;
    std::unordered_set<std::uint64_t> visited;
    std::vector<std::uint64_t> prefix;

    bool
    budgetLeft() const
    {
        return config.maxRuns == 0 || report.runs < config.maxRuns;
    }

    /** @return true once a violation has been found (stop the walk). */
    bool
    walk(std::uint64_t min_next)
    {
        if (!budgetLeft()) {
            report.exhausted = false;
            return false;
        }
        const RunResult r = runSchedule(config.runner, prefix);
        ++report.runs;
        if (!r.outcome.violations.empty()) {
            report.counterexample = Counterexample{prefix, r};
            return true;
        }
        if (prefix.size() >= config.depth)
            return false;

        // Prefix pruning: if the machine state at this prefix's last
        // preemption was already seen at this length, every extension
        // replays an already-explored future.  The prefix itself was
        // still executed and audited above.
        if (config.prune && !prefix.empty() &&
            r.boundaryHashes.size() == prefix.size()) {
            std::uint64_t key = r.boundaryHashes.back();
            key ^= 0x9e3779b97f4a7c15ULL * (prefix.size() + 1);
            if (!visited.insert(key).second) {
                ++report.pruned;
                return false;
            }
        }

        for (std::uint64_t b = min_next; b < report.boundarySpace; ++b) {
            prefix.push_back(b);
            const bool found = walk(b);
            prefix.pop_back();
            if (found)
                return true;
            if (!report.exhausted)
                return false;
        }
        return false;
    }
};

} // namespace

std::vector<std::uint64_t>
shrink(const RunnerConfig &config, std::vector<std::uint64_t> pts,
       std::uint64_t &runs)
{
    bool reduced = true;
    while (reduced && pts.size() > 1) {
        reduced = false;
        for (std::size_t i = 0; i < pts.size(); ++i) {
            std::vector<std::uint64_t> trial = pts;
            trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(i));
            const RunResult r = runSchedule(config, trial);
            ++runs;
            if (!r.outcome.violations.empty()) {
                pts = std::move(trial);
                reduced = true;
                break;
            }
        }
    }
    return pts;
}

ExploreReport
explore(const ExplorerConfig &config)
{
    ExploreReport report;

    // Probe run: an empty schedule determines the boundary space (the
    // victim's initiation length + 1) and audits the undisturbed run.
    const RunResult probe = runSchedule(config.runner, {});
    ++report.runs;
    report.boundarySpace = probe.boundarySpace;
    if (!probe.outcome.violations.empty()) {
        report.counterexample = Counterexample{{}, probe};
        return report;
    }
    if (config.depth == 0)
        return report;

    Dfs dfs{config, report, {}, {}};
    for (std::uint64_t b = 0; b < report.boundarySpace; ++b) {
        dfs.prefix.assign({b});
        if (dfs.walk(b) || !report.exhausted)
            break;
        dfs.prefix.clear();
    }

    if (report.counterexample) {
        // Shrink, then re-run the minimal schedule so the recorded
        // result matches what a replay of the shrunk schedule yields.
        Counterexample &cex = *report.counterexample;
        cex.preemptAfter =
            shrink(config.runner, cex.preemptAfter, report.runs);
        cex.result = runSchedule(config.runner, cex.preemptAfter);
        ++report.runs;
    }
    return report;
}

} // namespace uldma::check
