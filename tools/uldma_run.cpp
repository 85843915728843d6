/**
 * @file
 * uldma_run — the simulator's command-line front end.
 *
 * A front end over the Table-1 experiment (InitiationExperiment in
 * core/experiment.hh, the code every bench measures with): it maps
 * command-line knobs onto a MeasureConfig, runs the burst of DMA
 * initiations, and reports timing plus (optionally) the full
 * statistics of every component and the disassembly of one emitted
 * initiation.  Everything the benches measure is reachable from here
 * interactively:
 *
 *   $ uldma_run --method=key-based --iterations=1000
 *   $ uldma_run --method=kernel --syscall-cycles=5000 --bus=pci66
 *   $ uldma_run --method=repeated5 --show-program --stats
 *   $ uldma_run --trace=Dma,Sched --iterations=3
 *
 * Exit status: 0 when every initiation succeeded; 1 when one failed,
 * the run did not finish, or a method or bus name is unknown; 2 for a
 * number out of range or a failed write.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "core/experiment.hh"
#include "prof/profiler.hh"
#include "sim/span.hh"
#include "sim/trace.hh"
#include "util/options.hh"
#include "util/output.hh"
#include "util/strutil.hh"
#include "workload/scenario.hh"

using namespace uldma;

namespace {

/** One of the paper's methods (allMethods) by name; ring and cap are
 *  refused like any unknown name. */
DmaMethod
parseMethod(const std::string &name)
{
    DmaMethod method{};
    if (!workload::parseMethodName(name, method) ||
        std::ranges::find(allMethods, method) == std::end(allMethods))
        ULDMA_FATAL("unknown method '", name, "'");
    return method;
}

BusParams
parseBus(const std::string &name)
{
    if (name == "tc" || name == "turbochannel")
        return BusParams{};
    if (name == "pci33")
        return BusParams::pci33();
    if (name == "pci66")
        return BusParams::pci66();
    ULDMA_FATAL("unknown bus '", name, "' (tc, pci33, pci66)");
}

/** Integer option @p name, which must lie in [lo, hi]; otherwise the
 *  program exits with status 2 and a message naming the option. */
std::int64_t
intInRange(const Options &opts, const std::string &name, std::int64_t lo,
           std::int64_t hi = std::numeric_limits<std::int64_t>::max())
{
    const std::int64_t value = opts.getInt(name);
    if (value < lo || value > hi) {
        std::cerr << "uldma_run: --" << name << "=" << value
                  << " is out of range [" << lo << ", " << hi << "]\n";
        std::exit(2);
    }
    return value;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("uldma_run: configurable user-level-DMA simulation");
    opts.addString("method", "ext-shadow",
                   "kernel|shrimp1|shrimp2|flash|pal|key-based|"
                   "ext-shadow|repeated3|repeated4|repeated5");
    opts.addInt("iterations", 1000, "DMA initiations to time");
    opts.addInt("size", 8, "transfer size in bytes");
    opts.addInt("slots", 16, "distinct address slots cycled through");
    opts.addString("bus", "tc", "I/O bus generation: tc|pci33|pci66");
    opts.addInt("cpu-mhz", 150, "CPU clock in MHz");
    opts.addInt("syscall-cycles", 2300, "empty-syscall cost in cycles");
    opts.addFlag("dcache", false, "enable the L1 data cache model");
    opts.addFlag("no-merge", false,
                 "disable write-buffer collapsing / read-buffer merging");
    opts.addFlag("stats", false, "dump all component statistics");
    opts.addFlag("histogram", false,
                 "print the initiation-latency distribution");
    opts.addFlag("show-program", false,
                 "disassemble one emitted initiation");
    opts.addString("trace", "", "comma-separated debug flags (or All)");
    opts.addString("stats-json", "",
                   "write all component statistics as JSON to this file "
                   "('-' for stdout)");
    opts.addString("trace-out", "",
                   "capture structured events and write a "
                   "chrome://tracing JSON file ('-' for stdout)");
    opts.addInt("trace-capacity", 1 << 16,
                "event ring capacity for --trace-out");
    opts.addString("trace-filter", "",
                   "record-time event filter for --trace-out: "
                   "<component-prefix>[,<kind>]");
    opts.addString("spans-json", "",
                   "track per-initiation transfer spans and write a "
                   "uldma-spans-v1 JSON file ('-' for stdout)");
    opts.addString("timeseries-json", "",
                   "write periodic counter snapshots as a "
                   "uldma-timeseries-v1 JSON file ('-' for stdout)");
    opts.addInt("sample-interval", 0,
                "counter-snapshot interval in simulated microseconds "
                "(0 = 100 us when --timeseries-json is given)");
    opts.addString("profile-json", "",
                   "profile the simulator's own hot paths and write a "
                   "uldma-profile-v1 file ('-' for stdout)");
    opts.addFlag("profile-host-time", false,
                 "include host wall-time attribution in --profile-json "
                 "(makes the file non-deterministic)");
    if (!opts.parse(argc, argv))
        return 0;

    MeasureConfig config;
    config.method = parseMethod(opts.getString("method"));
    config.iterations =
        static_cast<unsigned>(intInRange(opts, "iterations", 1, 1 << 20));
    config.addressSlots = static_cast<unsigned>(
        intInRange(opts, "slots", 1, maxAddressSlots()));
    config.transferSize = static_cast<Addr>(opts.getInt("size"));
    config.bus = parseBus(opts.getString("bus"));
    // A clock period is tickPerUs / MHz ticks, at least one.
    config.cpu.clockMHz = static_cast<std::uint64_t>(
        intInRange(opts, "cpu-mhz", 1, std::int64_t(tickPerUs)));
    config.cpu.dcache.enabled = opts.getFlag("dcache");
    if (opts.getFlag("no-merge")) {
        config.cpu.mergeBuffer.collapseStores = false;
        config.cpu.mergeBuffer.mergeLoads = false;
    }
    config.kernel.syscallOverheadCycles =
        static_cast<Cycles>(intInRange(opts, "syscall-cycles", 0));
    const std::int64_t sample_interval_us = intInRange(
        opts, "sample-interval", 0, std::int64_t(maxTick / tickPerUs));
    const std::int64_t trace_capacity = intInRange(opts, "trace-capacity", 0);

    for (const auto &flag : split(opts.getString("trace"), ',')) {
        const std::string f = trim(flag);
        if (f == "All")
            trace::enableAll();
        else if (!f.empty())
            trace::enable(f);
    }

    const std::string stats_json_path = opts.getString("stats-json");
    const std::string trace_out_path = opts.getString("trace-out");
    const std::string spans_json_path = opts.getString("spans-json");
    const std::string timeseries_json_path =
        opts.getString("timeseries-json");
    if (!trace_out_path.empty()) {
        trace::eventRing().enable(static_cast<std::size_t>(
            std::max<std::int64_t>(1, trace_capacity)));
        const std::string filter_spec = opts.getString("trace-filter");
        if (!filter_spec.empty()) {
            const auto parts = split(filter_spec, ',');
            trace::eventRing().setFilter(
                trim(parts.at(0)),
                parts.size() > 1 ? trim(parts.at(1)) : "");
        }
    }
    if (!spans_json_path.empty())
        span::tracker().enable();
    const std::string profile_json_path = opts.getString("profile-json");
    if (!profile_json_path.empty())
        prof::profiler().enable();

    InitiationExperiment experiment(config);
    Machine &machine = experiment.machine();
    if (!timeseries_json_path.empty()) {
        machine.enableSampling(
            static_cast<Tick>(sample_interval_us > 0 ? sample_interval_us
                                                     : 100) *
            tickPerUs);
    }

    if (opts.getFlag("show-program")) {
        std::printf("one initiation of %s:\n%s\n", toString(config.method),
                    experiment.firstInitiation().disassemble().c_str());
    }

    const InitiationMeasurement m = experiment.run();
    if (!m.finished) {
        std::fprintf(stderr, "simulation did not finish\n");
        return 1;
    }
    const std::uint64_t failures = m.iterations - m.successes;
    std::vector<double> sorted_us = m.samplesUs;
    std::sort(sorted_us.begin(), sorted_us.end());

    std::printf("method          : %s%s\n", toString(m.method),
                requiresKernelModification(m.method)
                    ? "  [requires kernel modification]"
                    : "");
    std::printf("machine         : %llu MHz CPU, %s bus, dcache %s\n",
                static_cast<unsigned long long>(config.cpu.clockMHz),
                opts.getString("bus").c_str(),
                opts.getFlag("dcache") ? "on" : "off");
    std::printf("iterations      : %u (size %s, %u slots)\n", m.iterations,
                formatBytes(config.transferSize).c_str(),
                config.addressSlots);
    std::printf("initiation time : avg %.3f us  min %.3f  max %.3f\n",
                m.avgUs, m.minUs, m.maxUs);
    std::printf("percentiles     : p50 %.3f us  p90 %.3f  p99 %.3f\n",
                stats::percentileOfSorted(sorted_us, 50.0),
                stats::percentileOfSorted(sorted_us, 90.0),
                stats::percentileOfSorted(sorted_us, 99.0));
    std::printf("failures        : %llu\n",
                static_cast<unsigned long long>(failures));
    std::printf("engine starts   : %llu\n",
                static_cast<unsigned long long>(m.initiationsStarted));
    std::printf("simulated time  : %s\n",
                formatTime(m.simulatedTicks).c_str());

    if (opts.getFlag("histogram")) {
        stats::Histogram histogram(m.minUs * 0.95, m.maxUs * 1.05 + 0.001,
                                   20);
        for (double us : m.samplesUs)
            histogram.sample(us);
        std::printf("\nlatency distribution (us):\n");
        const double width =
            (histogram.hi() - histogram.lo()) / histogram.numBuckets();
        for (unsigned b = 0; b < histogram.numBuckets(); ++b) {
            if (histogram.bucketCount(b) == 0)
                continue;
            const double bucket_lo = histogram.lo() + b * width;
            std::printf("  [%7.3f, %7.3f) %6llu ", bucket_lo,
                        bucket_lo + width,
                        static_cast<unsigned long long>(
                            histogram.bucketCount(b)));
            const unsigned bars = static_cast<unsigned>(
                60.0 * histogram.bucketCount(b) / m.iterations);
            for (unsigned i = 0; i < bars; ++i)
                std::fputc('#', stdout);
            std::fputc('\n', stdout);
        }
    }

    if (opts.getFlag("stats")) {
        std::printf("\n--- statistics ---\n");
        machine.dumpStats(std::cout);
    }

    // Machine-readable exports (see docs/OBSERVABILITY.md).
    bool io_ok = true;
    if (!stats_json_path.empty()) {
        io_ok &= writeOutput(stats_json_path, [&](std::ostream &os) {
            machine.dumpStatsJson(os);
        });
    }
    if (!trace_out_path.empty()) {
        io_ok &= writeOutput(trace_out_path, [&](std::ostream &os) {
            trace::eventRing().exportChromeTracing(os);
        });
    }
    if (!spans_json_path.empty()) {
        io_ok &= writeOutput(spans_json_path, [&](std::ostream &os) {
            span::tracker().exportJson(os);
        });
    }
    if (!timeseries_json_path.empty()) {
        io_ok &= writeOutput(timeseries_json_path, [&](std::ostream &os) {
            machine.dumpTimeseriesJson(os);
        });
    }
    if (!profile_json_path.empty()) {
        const prof::ProfileNode tree = prof::profiler().snapshot();
        io_ok &= writeOutput(profile_json_path, [&](std::ostream &os) {
            prof::writeProfileJson(os, tree,
                                   opts.getFlag("profile-host-time"));
        });
    }

    if (!io_ok)
        return 2;
    return failures == 0 ? 0 : 1;
}
