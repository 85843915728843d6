/**
 * @file
 * Experiment E3 — the introduction's trend argument, as a table: "Soon,
 * the operating system overhead associated with starting a DMA will be
 * larger than the data transfer itself, esp. for small data transfers."
 *
 * For message sizes from 8 B to 64 KiB and network generations from
 * ATM-155 to Gigabit, prints the wire time next to the measured
 * kernel-level and user-level initiation overheads, and the largest
 * message for which each initiation overhead exceeds the wire time
 * (the crossover the paper's motivation rests on).  Also sweeps the
 * empty-syscall cost across the 1,000-5,000 cycle range reported by
 * lmbench [10].
 */

#include "bench_common.hh"

#include <vector>

#include "core/experiment.hh"
#include "util/strutil.hh"

namespace {

using namespace uldma;

struct NetGen
{
    const char *name;
    std::uint64_t bitsPerSecond;
};

const NetGen netGens[] = {
    {"ATM 155Mb/s", 155'000'000ULL},
    {"ATM 622Mb/s", 622'000'000ULL},
    {"Gigabit 1Gb/s", 1'000'000'000ULL},
};

const Addr sizes[] = {8, 64, 256, 1024, 4096, 16384, 65536};

double
measuredUs(DmaMethod method, Cycles syscall_cycles)
{
    MeasureConfig config;
    config.method = method;
    config.iterations = 300;
    config.kernel.syscallOverheadCycles = syscall_cycles;
    return measureInitiation(config).avgUs;
}

void
printExhibit(benchutil::Reporter &reporter)
{
    const double kernel_us = measuredUs(DmaMethod::Kernel, 2300);
    const double user_us = measuredUs(DmaMethod::ExtShadow, 2300);
    reporter.record("crossover/measured")
        .config("syscall_cycles", std::int64_t{2300})
        .metric("kernel_us", kernel_us)
        .metric("user_us", user_us)
        .metric("ratio", kernel_us / user_us);

    benchutil::header(
        "E3: initiation overhead vs wire time (crossover analysis)");
    std::printf("measured initiation overhead: kernel %.2f us, "
                "user-level (ext-shadow) %.2f us\n\n",
                kernel_us, user_us);

    std::printf("%-10s", "msg size");
    for (const NetGen &gen : netGens)
        std::printf(" %16s", gen.name);
    std::printf("   wire time per network ->\n");
    benchutil::rule(64);

    for (Addr size : sizes) {
        std::printf("%-10s", formatBytes(size).c_str());
        for (const NetGen &gen : netGens) {
            const double wire = wireTimeUs(size, gen.bitsPerSecond);
            const char *verdict =
                kernel_us > wire
                    ? (user_us > wire ? "both>" : "KERN>")
                    : "     ";
            std::printf(" %10.2fus %s", wire, verdict);
        }
        std::printf("\n");
    }

    std::printf("\n'KERN>' = kernel initiation alone exceeds the wire "
                "time;\nuser-level initiation only exceeds it for the "
                "tiniest messages.\n");

    // Crossover sizes: largest message whose wire time is below the
    // initiation overhead.
    std::printf("\ncrossover (initiation > wire time up to):\n");
    for (const NetGen &gen : netGens) {
        const Addr kern_x = static_cast<Addr>(
            kernel_us * gen.bitsPerSecond / 8.0 / 1e6);
        const Addr user_x = static_cast<Addr>(
            user_us * gen.bitsPerSecond / 8.0 / 1e6);
        std::printf("  %-14s kernel: %-10s user-level: %s\n", gen.name,
                    formatBytes(kern_x).c_str(),
                    formatBytes(user_x).c_str());
    }

    // Syscall-cost sensitivity (the 1,000-5,000 cycle range of [10]).
    std::printf("\nkernel initiation vs empty-syscall cost "
                "(lmbench range [10]):\n");
    std::printf("  %-14s %-14s %s\n", "syscall cyc", "kernel DMA us",
                "crossover @1Gb/s");
    for (Cycles cyc : {1000u, 2000u, 2300u, 3000u, 4000u, 5000u}) {
        const double us = measuredUs(DmaMethod::Kernel, cyc);
        const Addr x =
            static_cast<Addr>(us * 1'000'000'000 / 8.0 / 1e6);
        std::printf("  %-14llu %-14.2f %s\n",
                    static_cast<unsigned long long>(cyc), us,
                    formatBytes(x).c_str());
        reporter.record("crossover/syscall_sweep/" + std::to_string(cyc))
            .config("method", "kernel")
            .config("syscall_cycles", static_cast<std::int64_t>(cyc))
            .metric("kernel_us", us)
            .metric("crossover_bytes_1gbps", static_cast<double>(x));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    return uldma::benchutil::benchMain(argc, argv, printExhibit);
}
