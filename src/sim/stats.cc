#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

#include "sim/json.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace uldma::stats {

double
percentileOfSorted(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    if (p <= 0.0)
        return sorted.front();
    if (p >= 100.0)
        return sorted.back();
    const double rank = p / 100.0 * (sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const double frac = rank - lo;
    if (lo + 1 >= sorted.size())
        return sorted.back();
    return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

void
Average::sample(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }
    ++count_;
    sum_ += v;
    sumSq_ += v * v;
}

void
Average::sampleRepeated(double v, std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i)
        sample(v);
}

double
Average::stddev() const
{
    if (count_ == 0)
        return 0.0;
    const double m = mean();
    const double var = sumSq_ / count_ - m * m;
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

void
Average::reset()
{
    count_ = 0;
    sum_ = 0.0;
    sumSq_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

Histogram::Histogram(double lo, double hi, unsigned nbuckets)
    : lo_(lo), hi_(hi),
      bucketWidth_((hi - lo) / (nbuckets ? nbuckets : 1)),
      buckets_(nbuckets ? nbuckets : 1, 0)
{
    ULDMA_ASSERT(hi > lo, "histogram range must be nonempty");
}

void
Histogram::sample(double v)
{
    sampleRepeated(v, 1);
}

void
Histogram::sampleRepeated(double v, std::uint64_t n)
{
    total_ += n;
    if (v < lo_) {
        underflow_ += n;
    } else if (v >= hi_) {
        overflow_ += n;
    } else {
        auto idx = static_cast<std::size_t>((v - lo_) / bucketWidth_);
        if (idx >= buckets_.size())
            idx = buckets_.size() - 1;   // guard FP edge at hi
        buckets_[idx] += n;
    }
}

double
Histogram::percentile(double p) const
{
    if (total_ == 0)
        return 0.0;
    const double clamped = std::min(std::max(p, 0.0), 100.0);
    double need = clamped / 100.0 * static_cast<double>(total_);
    if (underflow_ > 0 && need <= static_cast<double>(underflow_))
        return lo_;
    need -= static_cast<double>(underflow_);
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        const double count = static_cast<double>(buckets_[b]);
        if (count > 0.0 && need <= count)
            return lo_ + bucketWidth_ * (b + need / count);
        need -= count;
    }
    return hi_;   // the target rank falls in the overflow bin
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b = 0;
    underflow_ = 0;
    overflow_ = 0;
    total_ = 0;
}

void
Group::addScalar(Literal name, const Scalar *s, Literal desc)
{
    scalars_.push_back({name.text(), s, desc.text()});
}

void
Group::addAverage(Literal name, const Average *a, Literal desc)
{
    averages_.push_back({name.text(), a, desc.text()});
}

void
Group::addHistogram(Literal name, const Histogram *h, Literal desc)
{
    histograms_.push_back({name.text(), h, desc.text()});
}

void
Group::dump(std::ostream &os) const
{
    for (const auto &e : scalars_) {
        os << csprintf("%-40s %12llu  # %s\n",
                       (name_ + "." + e.name).c_str(),
                       static_cast<unsigned long long>(e.stat->value()),
                       e.desc);
    }
    for (const auto &e : averages_) {
        os << csprintf("%-40s mean=%.4g min=%.4g max=%.4g stddev=%.4g "
                       "n=%llu  # %s\n",
                       (name_ + "." + e.name).c_str(), e.stat->mean(),
                       e.stat->min(), e.stat->max(), e.stat->stddev(),
                       static_cast<unsigned long long>(e.stat->count()),
                       e.desc);
    }
    for (const auto &e : histograms_) {
        // The percentile values here are the same
        // Histogram::percentile() numbers the JSON export carries, so
        // the human and machine views stay in parity.
        os << csprintf("%-40s n=%llu under=%llu over=%llu "
                       "p50=%.4g p90=%.4g p99=%.4g  # %s\n",
                       (name_ + "." + e.name).c_str(),
                       static_cast<unsigned long long>(
                           e.stat->totalSamples()),
                       static_cast<unsigned long long>(e.stat->underflow()),
                       static_cast<unsigned long long>(e.stat->overflow()),
                       e.stat->percentile(50.0), e.stat->percentile(90.0),
                       e.stat->percentile(99.0), e.desc);
        for (unsigned i = 0; i < e.stat->numBuckets(); ++i) {
            if (e.stat->bucketCount(i) == 0)
                continue;
            const double lo =
                e.stat->lo() +
                i * (e.stat->hi() - e.stat->lo()) / e.stat->numBuckets();
            os << csprintf("    [%10.4g, ...) %12llu\n", lo,
                           static_cast<unsigned long long>(
                               e.stat->bucketCount(i)));
        }
    }
}

std::uint64_t
Group::scalarValue(const std::string &name) const
{
    for (const auto &e : scalars_) {
        if (e.name == name)
            return e.stat->value();
    }
    return 0;
}

void
Registry::add(const Group *group)
{
    ULDMA_ASSERT(group != nullptr, "null stats group registered");
    ULDMA_ASSERT(std::find(groups_.begin(), groups_.end(), group) ==
                     groups_.end(),
                 "stats group registered twice: ", group->name());
    groups_.push_back(group);
}

const Group *
Registry::find(const std::string &name) const
{
    for (const Group *g : groups_) {
        if (g->name() == name)
            return g;
    }
    return nullptr;
}

void
Registry::dump(std::ostream &os) const
{
    for (const Group *g : groups_)
        g->dump(os);
}

void
Registry::dumpJson(std::ostream &os, bool pretty) const
{
    writeStatsJson(os, snapshotRegistry(*this), pretty);
}

GroupSnapshot
snapshotGroup(const Group &group)
{
    GroupSnapshot snap;
    snap.name = group.name();
    for (const auto &e : group.scalars())
        snap.scalars.push_back({e.name, e.stat->value()});
    for (const auto &e : group.averages()) {
        GroupSnapshot::AverageValue v;
        v.name = e.name;
        v.count = e.stat->count();
        v.sum = e.stat->sum();
        v.mean = e.stat->mean();
        v.min = e.stat->min();
        v.max = e.stat->max();
        v.stddev = e.stat->stddev();
        snap.averages.push_back(std::move(v));
    }
    for (const auto &e : group.histograms()) {
        GroupSnapshot::HistogramValue v;
        v.name = e.name;
        v.lo = e.stat->lo();
        v.hi = e.stat->hi();
        v.underflow = e.stat->underflow();
        v.overflow = e.stat->overflow();
        v.total = e.stat->totalSamples();
        v.p50 = e.stat->percentile(50.0);
        v.p90 = e.stat->percentile(90.0);
        v.p99 = e.stat->percentile(99.0);
        for (unsigned i = 0; i < e.stat->numBuckets(); ++i)
            v.buckets.push_back(e.stat->bucketCount(i));
        snap.histograms.push_back(std::move(v));
    }
    return snap;
}

std::vector<GroupSnapshot>
snapshotRegistry(const Registry &registry)
{
    std::vector<GroupSnapshot> snaps;
    snaps.reserve(registry.groups().size());
    for (const Group *g : registry.groups())
        snaps.push_back(snapshotGroup(*g));
    return snaps;
}

void
writeStatsJson(std::ostream &os, const std::vector<GroupSnapshot> &groups,
               bool pretty)
{
    json::Writer w(os, pretty);
    w.beginObject();
    w.member("schema", "uldma-stats-v1");
    w.key("groups");
    w.beginArray();
    for (const GroupSnapshot &g : groups) {
        w.beginObject();
        w.member("name", g.name);
        if (g.shard >= 0)
            w.member("shard", static_cast<std::uint64_t>(g.shard));
        w.key("scalars");
        w.beginObject();
        for (const auto &e : g.scalars)
            w.member(e.name, e.value);
        w.endObject();
        w.key("averages");
        w.beginObject();
        for (const auto &e : g.averages) {
            w.key(e.name);
            w.beginObject();
            w.member("count", e.count);
            w.member("sum", e.sum);
            w.member("mean", e.mean);
            w.member("min", e.min);
            w.member("max", e.max);
            w.member("stddev", e.stddev);
            w.endObject();
        }
        w.endObject();
        w.key("histograms");
        w.beginObject();
        for (const auto &e : g.histograms) {
            w.key(e.name);
            w.beginObject();
            w.member("lo", e.lo);
            w.member("hi", e.hi);
            w.member("underflow", e.underflow);
            w.member("overflow", e.overflow);
            w.member("total", e.total);
            w.member("p50", e.p50);
            w.member("p90", e.p90);
            w.member("p99", e.p99);
            w.key("buckets");
            w.beginArray();
            for (std::uint64_t b : e.buckets)
                w.value(b);
            w.endArray();
            w.endObject();
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

Sampler::Sampler(const Registry &registry, Tick interval,
                 std::vector<std::string> prefixes)
    : interval_(interval)
{
    ULDMA_ASSERT(interval_ > 0, "sampler interval must be nonzero");
    auto selected = [&prefixes](const std::string &full) {
        if (prefixes.empty())
            return true;
        for (const std::string &prefix : prefixes) {
            if (full.compare(0, prefix.size(), prefix) == 0)
                return true;
        }
        return false;
    };
    for (const Group *g : registry.groups()) {
        for (const auto &e : g->scalars()) {
            const std::string full = g->name() + "." + e.name;
            if (selected(full)) {
                names_.push_back(full);
                counters_.push_back(e.stat);
            }
        }
    }
}

void
Sampler::sample(Tick at)
{
    Snapshot snap;
    snap.tick = at;
    snap.values.reserve(counters_.size());
    for (const Scalar *s : counters_)
        snap.values.push_back(s->value());
    samples_.push_back(std::move(snap));
}

void
Sampler::exportJson(std::ostream &os, bool pretty) const
{
    json::Writer w(os, pretty);
    w.beginObject();
    w.member("schema", "uldma-timeseries-v1");
    w.member("interval_ticks", interval_);
    w.key("counters");
    w.beginArray();
    for (const std::string &name : names_)
        w.value(name);
    w.endArray();
    w.key("samples");
    w.beginArray();
    for (const Snapshot &snap : samples_) {
        w.beginObject();
        w.member("tick", snap.tick);
        w.key("values");
        w.beginArray();
        for (std::uint64_t v : snap.values)
            w.value(v);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

} // namespace uldma::stats
