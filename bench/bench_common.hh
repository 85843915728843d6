/**
 * @file
 * Shared helpers for the benchmark binaries: table printing, the
 * machine-readable JSON reporter, and the standard main() that prints
 * the paper-vs-measured exhibit.
 *
 * Every bench binary accepts exactly two options, each also in the
 * --opt=value form:
 *   --json <path>         additionally write the exhibit's measurements
 *                         as one JSON document (schema uldma-bench-v1;
 *                         see docs/SCHEMAS.md)
 *   --seed <N>            base seed added to every seeded measurement
 *                         (randomized storms etc.); default 0 keeps
 *                         each bench's historical seed sequence.  The
 *                         value is recorded in the JSON report so two
 *                         reports are comparable only when their seeds
 *                         match.
 * Anything else, or a seed that is not a whole number, exits 2 with a
 * usage line.  A bench exits 1 when a claim its exhibit checks does
 * not hold (Reporter::claim) or the JSON cannot be written.
 */

#ifndef ULDMA_BENCH_BENCH_COMMON_HH
#define ULDMA_BENCH_BENCH_COMMON_HH

#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
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

    /**
     * Check one claim the exhibit makes about its own numbers.  A
     * false claim is printed and makes benchMain exit 1, after the
     * --json report is written so the numbers behind it survive.
     */
    void
    claim(bool holds, const std::string &what)
    {
        if (holds)
            return;
        std::fprintf(stderr, "CLAIM FAILED: %s\n", what.c_str());
        claimsHold_ = false;
    }

    bool claimsHold() const { return claimsHold_; }

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
    bool claimsHold_ = true;
};

inline std::string
basenameOf(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/** Parse @p text as a whole unsigned decimal number. */
inline bool
parseSeed(const std::string &text, std::uint64_t &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && ptr == end;
}

/**
 * Standard main: parse --json/--seed, run the exhibit, which
 * publishes its measurements through the Reporter, and write them as
 * a JSON document when --json is given.
 */
inline int
benchMain(int argc, char **argv, void (*exhibit)(Reporter &))
{
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string opt = arg.substr(0, eq);
        std::string value;
        if (eq != std::string::npos)
            value = arg.substr(eq + 1);
        else if (i + 1 < argc)
            value = argv[++i];
        if (opt == "--json" && !value.empty()) {
            json_path = value;
        } else if (opt != "--seed" ||
                   !parseSeed(value, seedBaseStorage())) {
            std::fprintf(stderr,
                         "%s: bad argument '%s'\n"
                         "usage: %s [--json <path>] [--seed <N>]\n",
                         argv[0], arg.c_str(), argv[0]);
            return 2;
        }
    }

    Reporter reporter;
    const auto wall_start = std::chrono::steady_clock::now();
    exhibit(reporter);
    const auto wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());

    if (!json_path.empty()) {
        const bool written = writeOutput(json_path, [&](std::ostream &os) {
            reporter.writeJson(os, basenameOf(argv[0]), wall_ns);
        });
        if (!written)
            return 1;
        std::printf("\nwrote %zu records to %s\n", reporter.size(),
                    json_path.c_str());
    }
    return reporter.claimsHold() ? 0 : 1;
}

} // namespace uldma::benchutil

#endif // ULDMA_BENCH_BENCH_COMMON_HH
