/**
 * @file
 * A small statistics package: scalar counters, averages, and histograms,
 * collected into named groups and dumpable as text.  Every simulated
 * component exposes its behaviour through these (bus transactions, TLB
 * hits, context switches, DMA initiations, attack outcomes, ...).
 */

#ifndef ULDMA_SIM_STATS_HH
#define ULDMA_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "util/literal.hh"
#include "util/types.hh"

namespace uldma::stats {

/**
 * Linear-interpolated percentile of an already-sorted sample vector
 * (the "linear" / numpy-default method): for p in [0, 100] the rank is
 * r = p/100 * (n-1) and the result interpolates between the
 * order statistics at floor(r) and ceil(r).  Returns 0 on an empty
 * vector.
 */
double percentileOfSorted(const std::vector<double> &sorted, double p);

/** A monotonically increasing event counter. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Accumulates samples; reports count / sum / min / max / mean. */
class Average
{
  public:
    Average() = default;

    void sample(double v);

    /** @p n samples of @p v, summed one at a time so the doubles match
     *  @p n sample() calls bit for bit. */
    void sampleRepeated(double v, std::uint64_t n);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    /** Population standard deviation. */
    double stddev() const;

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Fixed-width-bucket histogram over [lo, hi) with under/overflow bins. */
class Histogram
{
  public:
    Histogram() : Histogram(0.0, 1.0, 1) {}
    Histogram(double lo, double hi, unsigned nbuckets);

    void sample(double v);

    /** @p n samples of @p v in one step. */
    void sampleRepeated(double v, std::uint64_t n);

    double lo() const { return lo_; }
    double hi() const { return hi_; }
    unsigned numBuckets() const { return buckets_.size(); }
    std::uint64_t bucketCount(unsigned i) const { return buckets_.at(i); }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t totalSamples() const { return total_; }

    /**
     * Cumulative-mass percentile with linear interpolation inside
     * buckets: percentile(p) is the value v such that p% of the
     * recorded mass lies at or below v, assuming samples are uniformly
     * distributed within their bucket.  Mass in the underflow bin
     * collapses to lo(), mass in the overflow bin to hi() (the
     * histogram does not know where those samples actually fell).
     * Returns 0 when no samples have been recorded.
     */
    double percentile(double p) const;

  private:
    double lo_;
    double hi_;
    double bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

/**
 * Named collection of stats owned by one component.  Components register
 * their stats once at construction; dump() renders everything.  A stat's
 * name and description are string literals held by pointer, so
 * registering one allocates nothing; snapshots and the text dump copy
 * the text when they need it.
 */
class Group
{
  public:
    struct ScalarEntry { const char *name; const Scalar *stat;
                         const char *desc; };
    struct AverageEntry { const char *name; const Average *stat;
                          const char *desc; };
    struct HistogramEntry { const char *name; const Histogram *stat;
                            const char *desc; };

    explicit Group(std::string name) : name_(std::move(name)) {}

    void addScalar(Literal name, const Scalar *s, Literal desc);
    void addAverage(Literal name, const Average *a, Literal desc);
    void addHistogram(Literal name, const Histogram *h, Literal desc);

    const std::string &name() const { return name_; }
    void dump(std::ostream &os) const;

    /** Entry access for serialisers (json, future formats). */
    const std::vector<ScalarEntry> &scalars() const { return scalars_; }
    const std::vector<AverageEntry> &averages() const { return averages_; }
    const std::vector<HistogramEntry> &histograms() const
    { return histograms_; }

  private:
    std::string name_;
    std::vector<ScalarEntry> scalars_;
    std::vector<AverageEntry> averages_;
    std::vector<HistogramEntry> histograms_;
};

/**
 * Aggregates every Group a Machine owns so whole-run statistics can be
 * dumped as text or exported as one JSON document.  The registry does
 * not own the groups; components register the group they already hold
 * via their registerStats() hook, and registration order is
 * serialisation order (deterministic across identical runs).
 */
class Registry
{
  public:
    void add(const Group *group);

    const std::vector<const Group *> &groups() const { return groups_; }

    /** Render every group in registration order (text form). */
    void dump(std::ostream &os) const;

    /**
     * Serialise every group as one JSON document:
     * {"schema": "uldma-stats-v1", "groups": [...]} — writeStatsJson of
     * this registry's snapshot.  Deterministic — contains no
     * wall-clock time, hostnames or pointers.
     */
    void dumpJson(std::ostream &os, bool pretty = true) const;

  private:
    std::vector<const Group *> groups_;
};

// ---------------------------------------------------------------------
// Value snapshots and merged (multi-shard) export
// ---------------------------------------------------------------------

/**
 * Deep-copied values of one Group, detached from the live components
 * that own the counters.  The sharded workload runner snapshots each
 * shard's Registry before its Machine is destroyed, then the merge
 * layer serialises the renamed snapshots as one uldma-stats-v1
 * document (see docs/SCHEMAS.md).
 */
struct GroupSnapshot
{
    struct ScalarValue { std::string name; std::uint64_t value = 0; };
    struct AverageValue
    {
        std::string name;
        std::uint64_t count = 0;
        double sum = 0.0, mean = 0.0, min = 0.0, max = 0.0, stddev = 0.0;
    };
    struct HistogramValue
    {
        std::string name;
        double lo = 0.0, hi = 0.0;
        std::uint64_t underflow = 0, overflow = 0, total = 0;
        double p50 = 0.0, p90 = 0.0, p99 = 0.0;
        std::vector<std::uint64_t> buckets;
    };

    std::string name;
    /** Shard the group came from; < 0 omits the member on export. */
    int shard = -1;
    std::vector<ScalarValue> scalars;
    std::vector<AverageValue> averages;
    std::vector<HistogramValue> histograms;
};

/** Deep-copy the current values of @p group. */
GroupSnapshot snapshotGroup(const Group &group);

/** Deep-copy every group of @p registry, in registration order. */
std::vector<GroupSnapshot> snapshotRegistry(const Registry &registry);

/**
 * Serialise snapshots as one uldma-stats-v1 document, with a "shard"
 * member on groups whose snapshot carries one.  Registry::dumpJson
 * writes through it, so merged multi-shard exports and live
 * single-machine exports share one writer.
 */
void writeStatsJson(std::ostream &os,
                    const std::vector<GroupSnapshot> &groups,
                    bool pretty = true);

/**
 * Periodic counter snapshots: selects scalar stats from a Registry at
 * construction time (by full "group.stat" name prefix; an empty
 * selection takes every scalar) and records their values each time
 * sample() is called, producing a uldma-timeseries-v1 JSON document.
 *
 * The Machine drives sampling from its run loop at a fixed simulated
 * interval: the snapshot for boundary k*interval is taken at the first
 * event boundary at or after it and stamped with the boundary tick, so
 * identical runs serialise to identical bytes.
 */
class Sampler
{
  public:
    /**
     * @param registry    Source of counters; must outlive the sampler.
     *                    The counter set is fixed here — groups added
     *                    to the registry later are not sampled.
     * @param interval    Simulated ticks between snapshots (metadata;
     *                    the caller owns the actual cadence).
     * @param prefixes    Full-name prefixes to select ("node0.dma"
     *                    selects node0.dma.* and node0.dma.xfer.*);
     *                    empty selects every scalar.
     */
    Sampler(const Registry &registry, Tick interval,
            std::vector<std::string> prefixes = {});

    Tick interval() const { return interval_; }

    /** Record one snapshot of every selected counter, stamped @p at. */
    void sample(Tick at);

    /**
     * Serialise as {"schema": "uldma-timeseries-v1",
     * "interval_ticks": ..., "counters": [names...],
     * "samples": [{"tick": ..., "values": [...]}, ...]}.
     */
    void exportJson(std::ostream &os, bool pretty = true) const;

  private:
    struct Snapshot
    {
        Tick tick;
        std::vector<std::uint64_t> values;
    };

    Tick interval_;
    std::vector<std::string> names_;
    std::vector<const Scalar *> counters_;
    std::vector<Snapshot> samples_;
};

} // namespace uldma::stats

#endif // ULDMA_SIM_STATS_HH
