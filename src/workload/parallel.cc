#include "workload/parallel.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <map>
#include <thread>

#include "util/logging.hh"

namespace uldma::workload {

namespace {

/**
 * Rewrite a shard-local component name ("node2.dma", "node0.cpu", ...)
 * to its global spelling via @p global_of (local node id -> global).
 * Names that don't start with "node<digits>" (e.g. "network") pass
 * through unchanged — the shard tag disambiguates those in merged
 * exports.
 */
std::string
renameNodeComponent(const std::string &name,
                    const std::vector<unsigned> &global_of)
{
    constexpr const char prefix[] = "node";
    constexpr std::size_t prefix_len = 4;
    if (name.compare(0, prefix_len, prefix) != 0)
        return name;
    std::size_t end = prefix_len;
    while (end < name.size() &&
           std::isdigit(static_cast<unsigned char>(name[end])))
        ++end;
    if (end == prefix_len)
        return name;
    const unsigned local = static_cast<unsigned>(
        std::stoul(name.substr(prefix_len, end - prefix_len)));
    if (local >= global_of.size())
        return name;
    return prefix + std::to_string(global_of[local]) + name.substr(end);
}

/** Run one shard on the calling thread and fill @p out.  Everything
 *  touched is thread-local or owned by this shard, so concurrent
 *  invocations for distinct shards share no mutable state. */
void
runShard(const Shard &shard, std::uint64_t seed,
         const ParallelOptions &options, ShardOutput &out)
{
    WorkloadOptions wl;
    wl.keepSpans = true;
    // Seed identity stays global: node n seeds as global id
    // shard.nodes[n], stream j as global index shard.streams[j] —
    // so a shard draws exactly the randomness its streams would draw
    // in the unsharded scenario.
    wl.nodeSeedIds = shard.nodes;
    wl.streamSeedIds.assign(shard.streams.begin(), shard.streams.end());
    if (options.captureStats) {
        wl.inspectMachine = [&](Machine &machine) {
            out.stats = stats::snapshotRegistry(machine.statsRegistry());
            for (stats::GroupSnapshot &group : out.stats) {
                group.shard = static_cast<int>(shard.id);
                group.name = renameNodeComponent(group.name, shard.nodes);
            }
        };
    }

    if (options.captureTrace)
        trace::eventRing().enable();
    if (options.captureProfile)
        prof::profiler().enable();

    {
        ULDMA_PROF_SCOPE("workload.shard");
        out.result = runWorkload(shard.scenario, seed, wl);
    }

    if (options.captureProfile) {
        out.profile = prof::profiler().snapshot();
        prof::profiler().disable();
    }

    out.spans.shard = shard.id;
    out.spans.opened = span::tracker().opened();
    out.spans.spans = span::tracker().take();
    span::tracker().disable();
    // One engine per node: rename each distinct name once.
    std::map<std::string, std::string> renamed;
    for (span::Span &s : out.spans.spans) {
        auto [it, fresh] = renamed.try_emplace(s.engine);
        if (fresh)
            it->second = renameNodeComponent(s.engine, shard.nodes);
        s.engine = it->second;
    }

    if (options.captureTrace) {
        const trace::EventRing &ring = trace::eventRing();
        out.trace.shard = shard.id;
        out.trace.events = ring.snapshot();
        out.trace.recorded = ring.recorded();
        out.trace.dropped = ring.dropped();
        out.trace.filteredOut = ring.filteredOut();
        for (trace::TraceEvent &e : out.trace.events)
            e.component = renameNodeComponent(e.component, shard.nodes);
        trace::eventRing().disable();
    }
}

/** Merge per-shard outputs into one scenario-global WorkloadResult.
 *  Walks shards in plan order only — deterministic by construction. */
WorkloadResult
mergeResults(const Scenario &scenario, std::uint64_t seed,
             const ShardPlan &plan, const std::vector<ShardOutput> &shards)
{
    WorkloadResult merged;
    merged.seed = seed;
    merged.finished = true;
    merged.durationUs = 0.0;
    merged.streams.resize(scenario.streams.size());

    for (std::size_t k = 0; k < plan.shards.size(); ++k) {
        const Shard &shard = plan.shards[k];
        const WorkloadResult &result = shards[k].result;
        merged.finished = merged.finished && result.finished;
        merged.durationUs = std::max(merged.durationUs, result.durationUs);
        ULDMA_ASSERT(result.streams.size() == shard.streams.size(),
                     "shard result / plan stream count mismatch");
        for (std::size_t j = 0; j < shard.streams.size(); ++j) {
            const std::size_t gi = shard.streams[j];
            merged.streams[gi] = result.streams[j];
            merged.streams[gi].spec = &scenario.streams[gi];
        }
        for (const NodeStats &node : result.perNode) {
            NodeStats global = node;
            global.node = shard.nodes.at(node.node);
            merged.perNode.push_back(global);
        }
    }
    // Per-shard rows arrive grouped by shard; the report keys them by
    // global node id, ascending — same order the single-machine driver
    // produces.
    std::sort(merged.perNode.begin(), merged.perNode.end(),
              [](const NodeStats &a, const NodeStats &b) {
                  return a.node < b.node;
              });

    // Protocol rows: worker streams in global stream order first
    // (fixing row order and the offered side — exactly the unsharded
    // driver's rule), then the achieved side from each shard's rows in
    // plan order.
    addOfferedLoad(merged.protocols, merged.streams);
    for (const ShardOutput &shard : shards) {
        for (const ProtocolStats &from : shard.result.protocols) {
            ProtocolStats &row = protocolRow(merged.protocols,
                                             from.protocol);
            row.opened += from.opened;
            row.completed += from.completed;
            row.rejected += from.rejected;
            row.keyMismatch += from.keyMismatch;
            row.aborted += from.aborted;
            row.inFlight += from.inFlight;
            row.completedBytes += from.completedBytes;
            row.e2eUs.insert(row.e2eUs.end(), from.e2eUs.begin(),
                             from.e2eUs.end());
        }
    }
    for (ProtocolStats &row : merged.protocols)
        std::sort(row.e2eUs.begin(), row.e2eUs.end());

    return merged;
}

} // namespace

std::vector<ShardReportInfo>
ParallelResult::shardInfos() const
{
    std::vector<ShardReportInfo> infos;
    infos.reserve(plan.shards.size());
    for (std::size_t k = 0; k < plan.shards.size(); ++k) {
        const Shard &shard = plan.shards[k];
        ShardReportInfo info;
        info.id = shard.id;
        info.nodes = shard.nodes;
        info.streams.assign(shard.streams.begin(), shard.streams.end());
        info.durationUs = shards[k].result.durationUs;
        info.finished = shards[k].result.finished;
        infos.push_back(std::move(info));
    }
    return infos;
}

std::vector<stats::GroupSnapshot>
ParallelResult::mergedStats() const
{
    std::vector<stats::GroupSnapshot> all;
    for (const ShardOutput &shard : shards)
        all.insert(all.end(), shard.stats.begin(), shard.stats.end());
    return all;
}

std::vector<trace::ShardTrace>
ParallelResult::shardTraces() const
{
    std::vector<trace::ShardTrace> all;
    all.reserve(shards.size());
    for (const ShardOutput &shard : shards)
        all.push_back(shard.trace);
    return all;
}

prof::ProfileNode
ParallelResult::mergedProfile() const
{
    std::vector<prof::ProfileNode> roots;
    roots.reserve(shards.size());
    for (const ShardOutput &shard : shards)
        roots.push_back(shard.profile);
    return prof::mergeProfiles(roots);
}

std::vector<ParallelResult::WorkerTimelineRow>
ParallelResult::workerTimeline() const
{
    std::vector<WorkerTimelineRow> rows;
    rows.reserve(shards.size());
    for (std::size_t k = 0; k < shards.size(); ++k) {
        WorkerTimelineRow row;
        row.shard = k < plan.shards.size() ? plan.shards[k].id
                                           : static_cast<unsigned>(k);
        row.worker = shards[k].worker;
        row.startMs = shards[k].hostStartNs / 1e6;
        row.endMs = shards[k].hostEndNs / 1e6;
        row.simUs = shards[k].result.durationUs;
        rows.push_back(row);
    }
    return rows;
}

ParallelResult
runParallelWorkload(const Scenario &scenario, std::uint64_t seed,
                    const ParallelOptions &options)
{
    ParallelResult out;
    out.plan = planShards(scenario);
    const std::size_t count = out.plan.shards.size();
    out.shards.resize(count);

    // A fixed queue of shards drained by however many workers the
    // caller asked for: results land in pre-sized slots keyed by shard
    // id, so neither the outputs nor their order depend on which
    // worker ran what, or when.
    const unsigned pool_size = std::max(
        1u, std::min(options.threads,
                     static_cast<unsigned>(count ? count : 1)));
    std::atomic<std::size_t> next{0};
    const auto epoch = std::chrono::steady_clock::now();
    auto elapsed_ns = [epoch]() {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - epoch)
                .count());
    };
    auto drain = [&](unsigned worker) {
        for (std::size_t k = next.fetch_add(1); k < count;
             k = next.fetch_add(1)) {
            out.shards[k].worker = worker;
            out.shards[k].hostStartNs = elapsed_ns();
            runShard(out.plan.shards[k], seed, options, out.shards[k]);
            out.shards[k].hostEndNs = elapsed_ns();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(pool_size);
    for (unsigned t = 0; t < pool_size; ++t)
        pool.emplace_back(drain, t);
    for (std::thread &t : pool)
        t.join();

    out.spans_.reserve(count);
    for (ShardOutput &shard : out.shards) {
        out.spans_.push_back({shard.spans.shard, shard.spans.opened,
                              std::move(shard.spans.spans)});
    }

    out.merged = mergeResults(scenario, seed, out.plan, out.shards);
    return out;
}

} // namespace uldma::workload
