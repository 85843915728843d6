/**
 * @file
 * Deterministic single-schedule execution for the model checker.
 *
 * Every run builds a fresh two-process Machine (a victim issuing one
 * DMA initiation, an adversary that runs in the preemption gaps),
 * drives it with a preemptionScript built from an explicit list of
 * victim-instruction boundaries, snapshots a state hash at each
 * delivered preemption (for prefix pruning), and audits the outcome
 * against the invariant catalog.  Stateless exploration: re-executing
 * the same schedule always reproduces the same hashes, status and
 * violations.
 */

#ifndef ULDMA_CHECK_RUNNER_HH
#define ULDMA_CHECK_RUNNER_HH

#include <cstdint>
#include <vector>

#include "check/schedule.hh"

namespace uldma::check {

/** Everything one run produced. */
struct RunResult
{
    /** Number of distinct preemption positions: one per boundary in
     *  [0, initiation-sequence length]. */
    std::uint64_t boundarySpace = 0;
    /** Machine state hash captured at each delivered preemption. */
    std::vector<std::uint64_t> boundaryHashes;
    Outcome outcome;
};

/**
 * Execute the scenario under @p preemptAfter (non-decreasing absolute
 * victim instruction counts, each < boundarySpace).
 */
RunResult runSchedule(const RunnerConfig &config,
                      const std::vector<std::uint64_t> &preemptAfter);

} // namespace uldma::check

#endif // ULDMA_CHECK_RUNNER_HH
