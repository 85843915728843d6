/**
 * @file
 * Seed derivation and distribution sampling for the workload engine.
 *
 * Every stream of randomness in a workload run (per-process sizes,
 * arrival intervals, adversarial mixes, per-node scheduler seeds)
 * derives its own independent seed from (scenario seed, stream index,
 * purpose) through a splitmix64-style mixer, so adding a stream — or
 * drawing one extra number in one stream — never perturbs the others.
 * That independence is what makes `--seed` byte-deterministic.
 */

#ifndef ULDMA_WORKLOAD_PRNG_HH
#define ULDMA_WORKLOAD_PRNG_HH

#include <vector>

#include "util/random.hh"
#include "workload/scenario.hh"

namespace uldma::workload {

/** What a derived stream of randomness feeds. */
enum class SeedPurpose : std::uint64_t
{
    Sizes = 1,
    Pacing = 2,
    Adversarial = 3,
    Scheduler = 4,
};

/**
 * Independent seed for (scenario @p seed, @p stream index, @p purpose).
 * Distinct inputs give (with overwhelming probability) distinct,
 * uncorrelated seeds.
 */
std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t stream,
                         SeedPurpose purpose);

/**
 * Draws transfer sizes from one SizeDist, which must outlive it.  A
 * Zipf distribution's bucket weights and their total are computed
 * once, with the pow calls and summation order of a per-draw
 * computation, so every draw returns the size that one would.
 */
class SizeSampler
{
  public:
    explicit SizeSampler(const SizeDist &dist);

    /** Draw one transfer size (bytes). */
    Addr sample(Random &rng) const;

    /** Mean in bytes (offered-load accounting). */
    double mean() const;

  private:
    const SizeDist &dist_;
    /** Zipf only: bucket k's weight 1/(k+1)^exponent, and the sum. */
    std::vector<double> zipfWeights_;
    double zipfTotal_ = 0.0;
};

/** Draw one transfer size (bytes) from @p dist. */
Addr sampleSize(const SizeDist &dist, Random &rng);

/** Draw one arrival interval (microseconds) from @p dist. */
std::uint64_t sampleIntervalUs(const IntervalDist &dist, Random &rng);

/** Mean of @p dist in bytes (offered-load accounting). */
double meanSize(const SizeDist &dist);

} // namespace uldma::workload

#endif // ULDMA_WORKLOAD_PRNG_HH
