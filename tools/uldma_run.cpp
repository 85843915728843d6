/**
 * @file
 * uldma_run — the simulator's command-line front end.
 *
 * Builds a machine from command-line knobs, runs a configurable burst
 * of DMA initiations, and reports timing plus (optionally) the full
 * statistics of every component and the disassembly of the emitted
 * initiation sequence.  Everything the benches measure is reachable
 * from here interactively:
 *
 *   $ uldma_run --method=key-based --iterations=1000
 *   $ uldma_run --method=kernel --syscall-cycles=5000 --bus=pci66
 *   $ uldma_run --method=repeated5 --show-program --stats
 *   $ uldma_run --trace=Dma,Sched --iterations=3
 */

#include <cstdio>
#include <iostream>
#include <string>

#include <algorithm>

#include "core/machine.hh"
#include "core/methods.hh"
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
            std::max<std::int64_t>(1, opts.getInt("trace-capacity"))));
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

    const DmaMethod method = parseMethod(opts.getString("method"));
    const unsigned iterations =
        static_cast<unsigned>(opts.getInt("iterations"));
    const unsigned slots =
        std::max<unsigned>(1, static_cast<unsigned>(opts.getInt("slots")));
    const Addr size = static_cast<Addr>(opts.getInt("size"));

    MachineConfig config;
    config.node.bus = parseBus(opts.getString("bus"));
    config.node.cpu.clockMHz =
        static_cast<std::uint64_t>(opts.getInt("cpu-mhz"));
    config.node.cpu.dcache.enabled = opts.getFlag("dcache");
    if (opts.getFlag("no-merge")) {
        config.node.cpu.mergeBuffer.collapseStores = false;
        config.node.cpu.mergeBuffer.mergeLoads = false;
    }
    config.node.kernel.syscallOverheadCycles =
        static_cast<Cycles>(opts.getInt("syscall-cycles"));
    configureNode(config.node, method);
    config.node.makeScheduler = []() {
        return std::make_unique<RoundRobinScheduler>(tickPerSec);
    };

    Machine machine(config);
    prepareMachine(machine, method);
    if (!timeseries_json_path.empty() ||
        opts.getInt("sample-interval") > 0) {
        const std::int64_t interval_us = opts.getInt("sample-interval") > 0
            ? opts.getInt("sample-interval") : 100;
        machine.enableSampling(static_cast<Tick>(interval_us) * tickPerUs);
    }
    Node &node = machine.node(0);
    Kernel &kernel = node.kernel();

    Process &proc = kernel.createProcess("app");
    if (!prepareProcess(kernel, proc, method))
        ULDMA_FATAL("no DMA context available for this method");

    const Addr src_base =
        kernel.allocate(proc, slots * pageSize, Rights::ReadWrite);
    const Addr dst_base =
        kernel.allocate(proc, slots * pageSize, Rights::ReadWrite);
    kernel.createShadowMappings(proc, src_base, slots * pageSize);
    kernel.createShadowMappings(proc, dst_base, slots * pageSize);
    if (method == DmaMethod::Shrimp1) {
        for (unsigned s = 0; s < slots; ++s) {
            kernel.setupMapOut(
                proc, src_base + s * pageSize,
                kernel.translateFor(proc, dst_base + s * pageSize,
                                    Rights::Write)
                    .paddr);
        }
    }

    if (opts.getFlag("show-program")) {
        Program sample;
        emitInitiation(sample, kernel, proc, method, src_base, dst_base,
                       size);
        std::printf("one initiation of %s:\n%s\n", toString(method),
                    sample.disassemble().c_str());
    }

    std::vector<Tick> marks;
    marks.reserve(iterations + 1);
    Machine *mp = &machine;
    auto mark = [mp, &marks](ExecContext &) {
        marks.push_back(mp->now());
    };
    std::uint64_t failures = 0;

    Program prog;
    prog.callback(mark);
    for (unsigned i = 0; i < iterations; ++i) {
        const unsigned s = i % slots;
        emitInitiation(prog, kernel, proc, method,
                       src_base + s * pageSize, dst_base + s * pageSize,
                       size);
        prog.callback([&failures](ExecContext &ctx) {
            if (ctx.reg(reg::v0) == dmastatus::failure)
                ++failures;
        });
        prog.callback(mark);
    }
    prog.exit();

    kernel.launch(proc, std::move(prog));
    machine.start();
    if (!machine.run(600 * tickPerSec)) {
        std::fprintf(stderr, "simulation did not finish\n");
        return 1;
    }

    double sum = 0, lo = 1e300, hi = 0;
    std::vector<double> sorted_us;
    sorted_us.reserve(iterations);
    for (unsigned i = 0; i < iterations; ++i) {
        const double us = ticksToUs(marks[i + 1] - marks[i]);
        sum += us;
        lo = std::min(lo, us);
        hi = std::max(hi, us);
        sorted_us.push_back(us);
    }
    std::sort(sorted_us.begin(), sorted_us.end());

    std::printf("method          : %s%s\n", toString(method),
                requiresKernelModification(method)
                    ? "  [requires kernel modification]"
                    : "");
    std::printf("machine         : %llu MHz CPU, %s bus, dcache %s\n",
                static_cast<unsigned long long>(opts.getInt("cpu-mhz")),
                opts.getString("bus").c_str(),
                opts.getFlag("dcache") ? "on" : "off");
    std::printf("iterations      : %u (size %s, %u slots)\n", iterations,
                formatBytes(size).c_str(), slots);
    std::printf("initiation time : avg %.3f us  min %.3f  max %.3f\n",
                sum / iterations, lo, hi);
    std::printf("percentiles     : p50 %.3f us  p90 %.3f  p99 %.3f\n",
                stats::percentileOfSorted(sorted_us, 50.0),
                stats::percentileOfSorted(sorted_us, 90.0),
                stats::percentileOfSorted(sorted_us, 99.0));
    std::printf("failures        : %llu\n",
                static_cast<unsigned long long>(failures));
    std::printf("engine starts   : %llu\n",
                static_cast<unsigned long long>(
                    node.dmaEngine().numInitiations()));
    std::printf("simulated time  : %s\n",
                formatTime(machine.now()).c_str());

    if (opts.getFlag("histogram")) {
        stats::Histogram histogram(lo * 0.95, hi * 1.05 + 0.001, 20);
        for (unsigned i = 0; i < iterations; ++i)
            histogram.sample(ticksToUs(marks[i + 1] - marks[i]));
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
                60.0 * histogram.bucketCount(b) / iterations);
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
        trace::eventRing().disable();
    }
    if (!spans_json_path.empty()) {
        io_ok &= writeOutput(spans_json_path, [&](std::ostream &os) {
            span::tracker().exportJson(os);
        });
        span::tracker().disable();
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
        prof::profiler().disable();
    }

    if (!io_ok)
        return 2;
    return failures == 0 ? 0 : 1;
}
