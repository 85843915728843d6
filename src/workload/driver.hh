/**
 * @file
 * The workload driver: builds a (possibly heterogeneous) machine from
 * a Scenario, spawns every stream, runs to completion or the
 * scenario's time cap, and aggregates what the span tracker and the
 * per-node components observed into a WorkloadResult — the offered
 * load vs achieved throughput answer a scenario exists to produce.
 */

#ifndef ULDMA_WORKLOAD_DRIVER_HH
#define ULDMA_WORKLOAD_DRIVER_HH

#include "workload/generator.hh"
#include "workload/scenario.hh"

namespace uldma::workload {

struct WorkloadOptions
{
    /** Leave the calling thread's span tracker enabled and populated
     *  after the run (e.g. so a caller can also export
     *  uldma-spans-v1).  By default the driver disables it to restore
     *  the zero-cost state it found. */
    bool keepSpans = false;

    /**
     * Seed-identity maps for sharded execution (workload/shard.hh):
     * when non-empty, node n derives its scheduler seed from
     * nodeSeedIds[n] and stream i derives its PRNG streams from
     * streamSeedIds[i] instead of the local indices, so a shard-local
     * sub-scenario draws exactly the randomness its streams would
     * draw in the whole scenario.  Empty (the default) keeps identity
     * — local indices are the seed ids.
     */
    std::vector<unsigned> nodeSeedIds;
    std::vector<std::uint64_t> streamSeedIds;

    /**
     * Invoked with the finished Machine just before runWorkload
     * returns (and destroys it) — the only window in which a caller
     * can snapshot the stats registry or other component state.  The
     * sharded runner captures per-shard stats through this.
     */
    std::function<void(Machine &)> inspectMachine;
};

/** Achieved-side aggregate of one span protocol. */
struct ProtocolStats
{
    /** Span protocol name ("kernel" or an engine-mode name). */
    std::string protocol;
    /** Scenario methods mapping to this protocol, in stream order. */
    std::vector<std::string> methods;

    /// @name Offered (programmed) load from worker streams.
    /// @{
    std::uint64_t offeredInitiations = 0;
    std::uint64_t offeredBytes = 0;
    /// @}

    /// @name Achieved counts from the span tracker.
    /// @{
    std::uint64_t opened = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t keyMismatch = 0;
    std::uint64_t aborted = 0;
    std::uint64_t inFlight = 0;
    std::uint64_t completedBytes = 0;
    /// @}

    /** End-to-end latencies of completed spans, microseconds,
     *  ascending. */
    std::vector<double> e2eUs;
};

/** What one node's components counted. */
struct NodeStats
{
    unsigned node = 0;
    std::uint64_t engineInitiations = 0;
    std::uint64_t contextSwitches = 0;
    std::uint64_t syscalls = 0;
};

/**
 * Everything one run produced.  Stream entries keep their spec
 * pointers, so the Scenario must outlive the result.
 */
struct WorkloadResult
{
    std::uint64_t seed = 0;
    /** False if the scenario's limit_us cap cut the run short. */
    bool finished = false;
    /** Simulated time the run covered, microseconds. */
    double durationUs = 0.0;
    std::vector<StreamRuntime> streams;
    std::vector<ProtocolStats> protocols;
    std::vector<NodeStats> perNode;
};

/** The row for @p protocol in @p rows, appending one if new (row
 *  order is therefore first-appearance order — deterministic). */
ProtocolStats &protocolRow(std::vector<ProtocolStats> &rows,
                           const std::string &protocol);

/** Add each worker stream's offered load to its protocol row, in
 *  stream order; adversarial streams offer none. */
void addOfferedLoad(std::vector<ProtocolStats> &rows,
                    const std::vector<StreamRuntime> &streams);

/**
 * Build @p scenario's machine, each node prepared for the methods its
 * streams use, and spawn every stream with @p seed, counting into
 * @p streams (one entry per stream, which must outlive the run).
 * Nothing runs yet: runWorkload starts and runs the machine.
 */
std::unique_ptr<Machine> spawnScenario(const Scenario &scenario,
                                       std::uint64_t seed,
                                       std::vector<StreamRuntime> &streams,
                                       const WorkloadOptions &options = {});

/**
 * Run @p scenario with @p seed.  Byte-deterministic: the same
 * (scenario, seed) always yields the same result (and hence the same
 * serialised report).
 */
WorkloadResult runWorkload(const Scenario &scenario, std::uint64_t seed,
                           const WorkloadOptions &options = {});

} // namespace uldma::workload

#endif // ULDMA_WORKLOAD_DRIVER_HH
