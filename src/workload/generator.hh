/**
 * @file
 * Stream spawning: turns one StreamSpec into @ref StreamSpec::count
 * live processes on its node — worker processes issuing paced DMA
 * initiations, or adversarial processes replaying the attack harness's
 * random shadow-access mix.  All randomness (sizes, arrival gaps,
 * adversarial mixes) is drawn at spawn from per-stream PRNGs derived
 * via workload/prng.hh, so the emitted programs — and hence the whole
 * run — are a pure function of (scenario, seed).  A worker's
 * initiations are emitted a block at a time as its CPU reaches them
 * (Program::setSource), an adversary's ops all at spawn.
 */

#ifndef ULDMA_WORKLOAD_GENERATOR_HH
#define ULDMA_WORKLOAD_GENERATOR_HH

#include "core/machine.hh"
#include "workload/scenario.hh"

namespace uldma::workload {

/**
 * Live counters of one stream (all replicas summed).  Offered-side
 * numbers are fixed at program-build time; @ref failures is bumped by
 * in-program callbacks while the machine runs, so the object must
 * outlive Machine::run().
 */
struct StreamRuntime
{
    const StreamSpec *spec = nullptr;
    /** Initiations programmed (the offered load). */
    std::uint64_t issued = 0;
    /** Bytes across all programmed initiations. */
    std::uint64_t offeredBytes = 0;
    /** Initiations whose observed status was dmastatus::failure. */
    std::uint64_t failures = 0;
    /** Replicas that lost the context lottery and fell back to the
     *  kernel channel (paper §3.2). */
    std::uint64_t kernelFallbacks = 0;
    /** Adversarial shadow accesses programmed. */
    std::uint64_t adversarialOps = 0;
};

/**
 * Physical frames that spawning every replica of @p scenario's
 * streams takes from each node's kernel, indexed by node.  A worker
 * replica takes slots × sg_buffer pages for its source and as many
 * for its destination, on remote_node when that is set; a ring
 * replica also takes its descriptor and completion pages; an
 * adversary replica takes two pages.  An upper bound: a ring replica
 * that falls back to the kernel channel sets up no ring.
 */
std::vector<Addr> framesPerNode(const Scenario &scenario);

/**
 * Spawn every replica of @p spec on its node.  @p stream_index is the
 * stream's position in the scenario (seed derivation); @p seed is the
 * run seed.  Counters land in @p runtime, whose address must stay
 * valid until the run finishes.
 */
void spawnStream(Machine &machine, const Scenario &scenario,
                 const StreamSpec &spec, std::uint64_t stream_index,
                 std::uint64_t seed, StreamRuntime &runtime);

} // namespace uldma::workload

#endif // ULDMA_WORKLOAD_GENERATOR_HH
