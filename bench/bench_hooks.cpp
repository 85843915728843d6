/**
 * @file
 * Experiment E9 (ablation) — the paper's argument *against* the
 * SHRIMP-2/FLASH kernel modifications, quantified: "The context switch
 * handler is usually on the critical path of the performance of the
 * operating system.  If each manufacturer of each device adds a few
 * lines of code to the context switch handler, the Operating System
 * performance would be significantly lower." (§1)
 *
 * Runs a multi-process compute workload under round-robin scheduling
 * with (a) an unmodified kernel, (b) the SHRIMP-2 invalidation hook,
 * (c) the FLASH notification hook, and reports context switches, hook
 * executions, and the per-switch cost added by the hook's uncached
 * device write.
 */

#include "bench_common.hh"

#include "core/machine.hh"
#include "core/methods.hh"

namespace {

using namespace uldma;

struct HookResult
{
    std::uint64_t switches = 0;
    std::uint64_t hookRuns = 0;
    double totalMs = 0;
};

HookResult
runWorkload(DmaMethod method, Tick quantum)
{
    MachineConfig config;
    configureNode(config.node, method);
    config.node.makeScheduler = [quantum]() {
        return std::make_unique<RoundRobinScheduler>(quantum);
    };
    Machine machine(config);
    prepareMachine(machine, method);
    Kernel &kernel = machine.node(0).kernel();

    // Four compute-bound processes, ~30 ms of aggregate work.
    for (int i = 0; i < 4; ++i) {
        Process &p = kernel.createProcess("w" + std::to_string(i));
        Program prog;
        for (int k = 0; k < 1500; ++k)
            prog.compute(750);   // 5 us at 150 MHz
        prog.exit();
        kernel.launch(p, std::move(prog));
    }

    machine.start();
    const bool ok = machine.run(60 * tickPerSec);
    HookResult r;
    if (!ok)
        return r;
    r.switches = kernel.numContextSwitches();
    r.hookRuns = kernel.hookInvocations();
    r.totalMs = ticksToUs(machine.now()) / 1000.0;
    return r;
}

void
printExhibit(benchutil::Reporter &reporter)
{
    benchutil::header(
        "E9 (ablation): cost of the baselines' context-switch hooks");
    std::printf("%-26s %10s %10s %12s %16s\n", "kernel", "switches",
                "hook runs", "runtime ms", "per-switch cost");
    benchutil::rule(80);

    const Tick quantum = 100 * tickPerUs;
    const HookResult clean = runWorkload(DmaMethod::KeyBased, quantum);
    const HookResult shrimp2 = runWorkload(DmaMethod::Shrimp2, quantum);
    const HookResult flash = runWorkload(DmaMethod::Flash, quantum);

    auto row = [&](const char *name, const char *slug,
                   const HookResult &r) {
        const double delta_us =
            r.switches != 0
                ? (r.totalMs - clean.totalMs) * 1000.0 / r.switches
                : 0.0;
        std::printf("%-26s %10llu %10llu %12.3f %13.2f us\n", name,
                    static_cast<unsigned long long>(r.switches),
                    static_cast<unsigned long long>(r.hookRuns),
                    r.totalMs, delta_us);
        reporter.record(std::string("hooks/") + slug)
            .config("kernel", name)
            .config("quantum_us",
                    static_cast<std::int64_t>(quantum / tickPerUs))
            .metric("switches", static_cast<double>(r.switches))
            .metric("hook_runs", static_cast<double>(r.hookRuns))
            .metric("runtime_ms", r.totalMs)
            .metric("per_switch_us", delta_us);
    };
    row("unmodified (paper's)", "unmodified", clean);
    row("SHRIMP-2 invalidation", "shrimp2", shrimp2);
    row("FLASH notification", "flash", flash);

    std::printf("\nEach hook run is an uncached device write on every "
                "context switch —\nthe per-device tax the paper refuses "
                "to pay (its methods add zero).\n");

    std::printf("\nquantum sensitivity (FLASH hook, runtime in ms):\n");
    for (Tick q : {20 * tickPerUs, 50 * tickPerUs, 100 * tickPerUs,
                   500 * tickPerUs}) {
        const HookResult base = runWorkload(DmaMethod::KeyBased, q);
        const HookResult hooked = runWorkload(DmaMethod::Flash, q);
        const double pct = 100.0 * (hooked.totalMs - base.totalMs) /
                           base.totalMs;
        std::printf("  quantum %4llu us: clean %8.3f ms, hooked %8.3f "
                    "ms (+%.2f%%)\n",
                    static_cast<unsigned long long>(q / tickPerUs),
                    base.totalMs, hooked.totalMs, pct);
        reporter.record("hooks/quantum/" +
                        std::to_string(q / tickPerUs) + "us")
            .config("quantum_us", static_cast<std::int64_t>(q / tickPerUs))
            .metric("clean_ms", base.totalMs)
            .metric("hooked_ms", hooked.totalMs)
            .metric("overhead_pct", pct);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    return uldma::benchutil::benchMain(argc, argv, printExhibit);
}
