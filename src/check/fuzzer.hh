/**
 * @file
 * Coverage-guided randomized schedule fuzzing (docs/FUZZING.md).
 *
 * The bounded-exhaustive explorer (explorer.hh) proves small depths;
 * the fuzzer trades proof for reach.  A seeded mutator
 * (insert/remove/shift/duplicate/splice over preemption boundaries)
 * evolves a corpus of schedules; a schedule earns a place in the
 * corpus when its run touches a coverage edge no earlier run touched.
 * Edges are hashes over the machine state the runner already
 * captures: `DmaEngine::stateHash` at every delivered preemption
 * (position-salted), the final engine hash, and a per-invariant
 * signature for every violation — so "new coverage" means "the
 * protocol state machine was driven somewhere new", not "new random
 * bytes".
 *
 * Swarm mode re-draws the whole scenario configuration (protocol and
 * `--weaken-*` fault flags) every batch, so one soak exercises the
 * protocol mix instead of one hand-picked config.  Findings are
 * deduplicated per (config, invariant set), minimised with the
 * explorer's greedy shrinker, and re-run so the recorded outcome is
 * exactly what `uldma_check --replay` of the emitted
 * uldma-schedule-v1 repro will see.  Everything is deterministic in
 * the seed: the same FuzzConfig always yields byte-identical
 * uldma-fuzz-v1 reports.
 */

#ifndef ULDMA_CHECK_FUZZER_HH
#define ULDMA_CHECK_FUZZER_HH

#include <iosfwd>
#include <optional>

#include "check/explorer.hh"
#include "check/runner.hh"
#include "check/schedule.hh"

namespace uldma::check {

inline constexpr char fuzzSchema[] = "uldma-fuzz-v1";

struct FuzzConfig
{
    /** Scenario under test; ignored (re-drawn per batch) in swarm
     *  mode. */
    RunnerConfig runner;
    /** Re-draw protocol + fault flags every batch. */
    bool swarm = false;
    /** PRNG seed: same seed, same config — same report bytes. */
    std::uint64_t seed = 0;
    /** Total schedule executions (mutation budget; shrinking is
     *  accounted separately and not bounded by this). */
    std::uint64_t budgetSchedules = 2000;
    /** Cap on preemption points per mutated schedule. */
    unsigned maxPoints = 8;
    /** Schedules run against one config before swarm re-draws. */
    unsigned batchSchedules = 64;
    /** Greedily minimise findings with the explorer's shrinker. */
    bool shrinkFindings = true;
};

/** One deduplicated (config, invariant-set) violation, shrunk and
 *  re-run so the outcome replays byte-identically. */
struct FuzzFinding
{
    /** Minimal violating schedule (post-shrink): `--replay` accepts it
     *  as written. */
    Schedule schedule;
    /** Outcome of re-running the shrunk schedule. */
    Outcome outcome;
    /** 1-based exec index of the discovering run. */
    std::uint64_t foundAtExec = 0;
    /** Extra executions spent shrinking + re-running. */
    std::uint64_t shrinkExecs = 0;
    /** True when the config carries a fault-injection flag — the
     *  fuzzer proving its teeth, not a real bug. */
    bool expected = false;
};

/** Coverage-curve sample (taken at power-of-two exec counts and at
 *  the end of the run). */
struct CoveragePoint
{
    std::uint64_t execs = 0;
    std::uint64_t edges = 0;
    std::uint64_t corpus = 0;
};

/** Per-config accounting (one row per distinct config executed). */
struct FuzzConfigStats
{
    RunnerConfig config;
    std::uint64_t boundarySpace = 0;
    std::uint64_t execs = 0;
    std::uint64_t newEdges = 0;
    std::uint64_t corpus = 0;
    std::uint64_t findings = 0;
};

struct FuzzReport
{
    FuzzConfig config;
    std::uint64_t execs = 0;        ///< budget-counted schedule runs
    std::uint64_t shrinkExecs = 0;  ///< extra runs spent minimising
    std::uint64_t coverageEdges = 0;
    std::uint64_t corpusSize = 0;
    std::uint64_t expectedFindings = 0;
    std::uint64_t unexpectedFindings = 0;
    std::vector<CoveragePoint> curve;
    std::vector<FuzzConfigStats> configs;
    std::vector<FuzzFinding> findings;
};

/** Run the fuzzing loop to budget exhaustion. Deterministic. */
FuzzReport fuzz(const FuzzConfig &config);

/** True when @p config carries a fault-injection flag its protocol
 *  reads: the recognizer flag on repeated, the ring and IOMMU flags on
 *  ring, the cap flag on cap.  Any other flag weakens nothing, so a
 *  finding under it is unexpected. */
bool configWeakened(const RunnerConfig &config);

/**
 * Serialise a report as one uldma-fuzz-v1 document (deterministic:
 * same report, same bytes).  @p wallNs / @p execsPerSec are host-time
 * measurements; both are omitted unless provided (the byte-identity
 * contract covers only simulated fields, so callers opt in via
 * `--fuzz-host-time`).
 */
void writeFuzzJson(std::ostream &os, const FuzzReport &report,
                   std::optional<std::uint64_t> wallNs = std::nullopt,
                   std::optional<double> execsPerSec = std::nullopt);

} // namespace uldma::check

#endif // ULDMA_CHECK_FUZZER_HH
