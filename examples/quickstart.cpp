/**
 * @file
 * Quickstart: assemble a simulated workstation, pick a user-level DMA
 * method, move a buffer, and print what happened — the five-minute
 * tour of the library.
 *
 *   $ quickstart [--method=key-based] [--size=1024]
 *
 * Methods: kernel, shrimp1, shrimp2, flash, pal, key-based,
 * ext-shadow, repeated3, repeated4, repeated5.
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/machine.hh"
#include "core/methods.hh"
#include "util/options.hh"
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

} // namespace

int
main(int argc, char **argv)
{
    Options opts("quickstart: one user-level DMA, start to finish");
    opts.addString("method", "key-based", "initiation method");
    opts.addInt("size", 1024, "bytes to transfer (<= one 8 KiB page)");
    opts.addFlag("show-program", false,
                 "print the emitted initiation sequence");
    if (!opts.parse(argc, argv))
        return 0;

    const DmaMethod method = parseMethod(opts.getString("method"));
    const Addr size = static_cast<Addr>(opts.getInt("size"));

    // 1. Assemble the workstation: Alpha-3000/300-class CPU, 12.5 MHz
    //    TurboChannel, the NI with its DMA engine in the right
    //    protocol mode, and a UNIX-like kernel.
    MachineConfig config;
    configureNode(config.node, method);
    Machine machine(config);
    prepareMachine(machine, method);

    Node &node = machine.node(0);
    Kernel &kernel = node.kernel();

    // 2. Create a process and grant it the method's DMA resources
    //    (a register context + secret key, or a CONTEXT_ID, ...).
    Process &app = kernel.createProcess("app");
    DmaSession session(machine, 0, app, method);
    if (!session.ready()) {
        std::fprintf(stderr,
                     "no DMA context available; use kernel DMA\n");
        return 1;
    }

    // 3. Allocate buffers and let the kernel build shadow mappings
    //    (paper §2.3) at mmap time.
    const Addr src = session.allocBuffer(pageSize);
    const Addr dst = session.allocBuffer(pageSize);

    const Addr src_paddr = kernel.translateFor(app, src,
                                               Rights::Read).paddr;
    const Addr dst_paddr = kernel.translateFor(app, dst,
                                               Rights::Write).paddr;
    if (method == DmaMethod::Shrimp1)
        kernel.setupMapOut(app, src, dst_paddr);

    node.memory().fill(src_paddr, 0xA5, size);

    // 4. The application program: initiate the DMA (2-5 instructions
    //    for the user-level methods, a trap for kernel DMA), then poll
    //    the destination's last byte until the payload lands.
    std::uint64_t status = 0;
    Tick initiated_at = 0;
    Program prog;
    prog.callback([&](ExecContext &) { initiated_at = machine.now(); });
    session.emitDma(prog, src, dst, size);
    prog.callback([&](ExecContext &ctx) {
        status = ctx.reg(reg::v0);
    });
    const int poll = prog.here();
    prog.load(reg::t0, dst + size - 1, 1);
    prog.branchNe(reg::t0, 0xA5, poll);
    prog.exit();

    if (opts.getFlag("show-program")) {
        std::printf("emitted program (the paper's sequence plus the "
                    "harness's poll loop):\n%s\n",
                    prog.disassemble().c_str());
    }

    kernel.launch(app, std::move(prog));
    machine.start();
    if (!machine.run(tickPerSec)) {
        std::fprintf(stderr, "simulation did not finish\n");
        return 1;
    }

    // 5. Report.
    const auto &initiations = node.dmaEngine().initiations();
    std::printf("method            : %s\n", toString(method));
    std::printf("user-level        : %s\n",
                isUserLevel(method) ? "yes" : "no (trap per DMA)");
    std::printf("kernel modified   : %s\n",
                kernel.kernelModified() ? "YES (baseline)" : "no");
    std::printf("initiation status : %s\n",
                status == dmastatus::failure ? "FAILURE" : "ok");
    std::printf("transfer          : 0x%llx -> 0x%llx, %llu bytes\n",
                static_cast<unsigned long long>(src_paddr),
                static_cast<unsigned long long>(dst_paddr),
                static_cast<unsigned long long>(size));
    std::printf("DMA initiations   : %zu\n", initiations.size());
    std::printf("uncached accesses : %llu\n",
                static_cast<unsigned long long>(
                    node.cpu().numUncachedAccesses()));
    std::printf("syscalls          : %llu\n",
                static_cast<unsigned long long>(kernel.numSyscalls()));
    std::printf("completed at      : %s (initiated at %s)\n",
                formatTime(machine.now()).c_str(),
                formatTime(initiated_at).c_str());

    // Verify the payload (belt and braces).
    for (Addr i = 0; i < size; ++i) {
        if (node.memory().readInt(dst_paddr + i, 1) != 0xA5) {
            std::fprintf(stderr, "payload mismatch at byte %llu\n",
                         static_cast<unsigned long long>(i));
            return 1;
        }
    }
    std::printf("payload verified  : %llu/%llu bytes correct\n",
                static_cast<unsigned long long>(size),
                static_cast<unsigned long long>(size));
    return 0;
}
