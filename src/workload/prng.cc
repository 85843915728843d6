#include "workload/prng.hh"

#include <cmath>

#include "util/logging.hh"

namespace uldma::workload {

namespace {

/** The splitmix64 finalizer: a strong 64-bit mixer. */
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t stream, SeedPurpose purpose)
{
    return mix64(mix64(mix64(seed) ^ stream) ^
                 static_cast<std::uint64_t>(purpose));
}

SizeSampler::SizeSampler(const SizeDist &dist) : dist_(dist)
{
    if (dist.kind != SizeDist::Kind::Zipf)
        return;
    zipfWeights_.reserve(dist.zipfSizes.size());
    for (std::size_t k = 0; k < dist.zipfSizes.size(); ++k) {
        zipfWeights_.push_back(
            1.0 / std::pow(double(k + 1), dist.zipfExponent));
        zipfTotal_ += zipfWeights_.back();
    }
}

Addr
SizeSampler::sample(Random &rng) const
{
    switch (dist_.kind) {
      case SizeDist::Kind::Fixed:
        return dist_.fixedBytes;
      case SizeDist::Kind::Uniform:
        return rng.inRange(dist_.minBytes, dist_.maxBytes);
      case SizeDist::Kind::Zipf: {
        ULDMA_ASSERT(!dist_.zipfSizes.empty(),
                     "zipf size distribution with no buckets");
        // Walk the cumulative weights.
        double u = rng.nextDouble() * zipfTotal_;
        for (std::size_t k = 0; k < zipfWeights_.size(); ++k) {
            u -= zipfWeights_[k];
            if (u < 0.0)
                return dist_.zipfSizes[k];
        }
        return dist_.zipfSizes.back();
      }
    }
    return dist_.fixedBytes;
}

double
SizeSampler::mean() const
{
    switch (dist_.kind) {
      case SizeDist::Kind::Fixed:
        return double(dist_.fixedBytes);
      case SizeDist::Kind::Uniform:
        return (double(dist_.minBytes) + double(dist_.maxBytes)) / 2.0;
      case SizeDist::Kind::Zipf: {
        double weighted = 0.0;
        for (std::size_t k = 0; k < zipfWeights_.size(); ++k)
            weighted += zipfWeights_[k] * double(dist_.zipfSizes[k]);
        return zipfTotal_ > 0.0 ? weighted / zipfTotal_ : 0.0;
      }
    }
    return 0.0;
}

Addr
sampleSize(const SizeDist &dist, Random &rng)
{
    return SizeSampler(dist).sample(rng);
}

std::uint64_t
sampleIntervalUs(const IntervalDist &dist, Random &rng)
{
    switch (dist.kind) {
      case IntervalDist::Kind::Fixed:
        return dist.fixedUs;
      case IntervalDist::Kind::Uniform:
        return rng.inRange(dist.minUs, dist.maxUs);
    }
    return dist.fixedUs;
}

double
meanSize(const SizeDist &dist)
{
    return SizeSampler(dist).mean();
}

} // namespace uldma::workload
