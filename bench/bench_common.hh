/**
 * @file
 * Shared helpers for the benchmark binaries: table printing, the
 * machine-readable JSON reporter, and the standard main() that first
 * prints the paper-vs-measured exhibit and then runs the registered
 * google-benchmark timers.
 *
 * Every bench binary accepts:
 *   --exhibit-only        print the exhibit and skip the timing loop
 *   --json <path>         additionally write the exhibit's measurements
 *                         as one JSON document (schema uldma-bench-v1;
 *                         see docs/OBSERVABILITY.md)
 *   --seed <N>            base seed added to every seeded measurement
 *                         (randomized storms etc.); default 0 keeps
 *                         each bench's historical seed sequence.  The
 *                         value is recorded in the JSON report so two
 *                         reports are comparable only when their seeds
 *                         match.
 */

#ifndef ULDMA_BENCH_BENCH_COMMON_HH
#define ULDMA_BENCH_BENCH_COMMON_HH

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/json.hh"
#include "util/output.hh"

namespace uldma::benchutil {

/**
 * Base seed shared by every seeded measurement in a bench binary
 * (set from --seed by benchMain before the exhibit runs).  Exhibits
 * add it to their per-measurement seeds, so --seed=0 (the default)
 * reproduces the historical numbers and any other value shifts every
 * stream at once.
 */
inline std::uint64_t &
seedBaseStorage()
{
    static std::uint64_t base = 0;
    return base;
}

inline std::uint64_t
seedBase()
{
    return seedBaseStorage();
}

/** Print a rule line of the given width. */
inline void
rule(unsigned width = 72)
{
    for (unsigned i = 0; i < width; ++i)
        std::fputc('-', stdout);
    std::fputc('\n', stdout);
}

/** Print an exhibit header. */
inline void
header(const std::string &title)
{
    std::printf("\n");
    rule();
    std::printf("%s\n", title.c_str());
    rule();
}

/**
 * Collects the exhibit's measurements as named records and serialises
 * them as {"schema", "benchmark", "wall_ns", "records": [{name,
 * config{...}, metrics{...}}]}.  Exhibits fill it via record(); the
 * shared benchMain() writes the file when --json is given.
 */
class Reporter
{
  public:
    class Record
    {
      public:
        explicit Record(std::string name) : name_(std::move(name)) {}

        Record &
        config(const std::string &key, const std::string &value)
        {
            config_.emplace_back(key, value);
            return *this;
        }

        Record &
        config(const std::string &key, std::int64_t value)
        {
            return config(key, std::to_string(value));
        }

        Record &
        metric(const std::string &key, double value)
        {
            metrics_.emplace_back(key, value);
            return *this;
        }

        void
        writeJson(json::Writer &w) const
        {
            w.beginObject();
            w.member("name", name_);
            w.key("config");
            w.beginObject();
            for (const auto &[k, v] : config_)
                w.member(k, v);
            w.endObject();
            w.key("metrics");
            w.beginObject();
            for (const auto &[k, v] : metrics_)
                w.member(k, v);
            w.endObject();
            w.endObject();
        }

      private:
        std::string name_;
        std::vector<std::pair<std::string, std::string>> config_;
        std::vector<std::pair<std::string, double>> metrics_;
    };

    /** Open a new record; returned reference stays valid. */
    Record &
    record(const std::string &name)
    {
        records_.push_back(std::make_unique<Record>(name));
        return *records_.back();
    }

    std::size_t size() const { return records_.size(); }

    void
    writeJson(std::ostream &os, const std::string &benchmark,
              std::uint64_t wall_ns) const
    {
        json::Writer w(os, /*pretty=*/true);
        w.beginObject();
        w.member("schema", "uldma-bench-v1");
        w.member("benchmark", benchmark);
        w.member("wall_ns", wall_ns);
        w.member("seed", seedBase());
        w.key("records");
        w.beginArray();
        for (const auto &r : records_)
            r->writeJson(w);
        w.endArray();
        w.endObject();
    }

  private:
    std::vector<std::unique_ptr<Record>> records_;
};

inline std::string
basenameOf(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/** The optional whole-document writer benchMain uses for --json in
 *  place of Reporter::writeJson (see setDocumentWriter). */
inline std::function<void(std::ostream &, std::uint64_t)> &
documentWriterStorage()
{
    static std::function<void(std::ostream &, std::uint64_t)> writer;
    return writer;
}

/**
 * Replace the uldma-bench-v1 record list benchMain writes for --json
 * with a custom document.  For the one bench whose natural report is
 * not a flat record list (bench_ring's uldma-ring-v1 crossover
 * curve): call before benchMain so every binary still shares one
 * main() and one --json/--seed/--exhibit-only surface.
 */
inline void
setDocumentWriter(std::function<void(std::ostream &, std::uint64_t)> writer)
{
    documentWriterStorage() = std::move(writer);
}

/**
 * Standard main: print the exhibit (callback), then run benchmarks.
 * The exhibit callback may optionally take a Reporter& to publish its
 * measurements; --json <path> writes them as a JSON document.
 * Passing --exhibit-only skips the google-benchmark timing loop.
 */
template <typename ExhibitFn>
int
benchMain(int argc, char **argv, ExhibitFn &&exhibit)
{
    Reporter reporter;
    std::string json_path;
    bool exhibit_only = false;
    std::vector<char *> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--exhibit-only") {
            exhibit_only = true;
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else if (arg == "--seed" && i + 1 < argc) {
            seedBaseStorage() = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg.rfind("--seed=", 0) == 0) {
            seedBaseStorage() = std::strtoull(arg.c_str() + 7, nullptr,
                                              10);
        } else {
            passthrough.push_back(argv[i]);
        }
    }

    const auto wall_start = std::chrono::steady_clock::now();
    if constexpr (std::is_invocable_v<ExhibitFn &, Reporter &>)
        exhibit(reporter);
    else
        exhibit();
    const auto wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());

    if (!json_path.empty()) {
        const bool written = writeOutput(json_path, [&](std::ostream &os) {
            if (documentWriterStorage())
                documentWriterStorage()(os, wall_ns);
            else
                reporter.writeJson(os, basenameOf(argv[0]), wall_ns);
        });
        if (!written)
            return 1;
        if (documentWriterStorage())
            std::printf("\nwrote %s\n", json_path.c_str());
        else
            std::printf("\nwrote %zu records to %s\n", reporter.size(),
                        json_path.c_str());
    }

    if (exhibit_only)
        return 0;
    int pass_argc = static_cast<int>(passthrough.size());
    ::benchmark::Initialize(&pass_argc, passthrough.data());
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    return 0;
}

} // namespace uldma::benchutil

#endif // ULDMA_BENCH_BENCH_COMMON_HH
