#include "core/experiment.hh"

#include <algorithm>

#include "core/user_atomics.hh"
#include "util/logging.hh"

namespace uldma {

InitiationMeasurement
measureInitiation(const MeasureConfig &config)
{
    MachineConfig mc;
    mc.node.bus = config.bus;
    mc.node.cpu = config.cpu;
    mc.node.kernel = config.kernel;
    configureNode(mc.node, config.method);
    mc.node.makeScheduler = []() {
        // One process; a huge quantum keeps context-switch costs out
        // of the measurement.
        return std::make_unique<RoundRobinScheduler>(tickPerSec);
    };

    Machine machine(mc);
    prepareMachine(machine, config.method);
    Node &node = machine.node(0);
    Kernel &kernel = node.kernel();

    Process &proc = kernel.createProcess("bench");
    ULDMA_ASSERT(prepareProcess(kernel, proc, config.method),
                 "benchmark process could not get a DMA context");

    // Source/destination slot arrays so successive DMAs hit different
    // addresses (kills write-buffer/read-buffer reuse, paper §3.4).
    const unsigned slots = std::max(1u, config.addressSlots);
    const Addr src_base =
        kernel.allocate(proc, slots * pageSize, Rights::ReadWrite);
    const Addr dst_base =
        kernel.allocate(proc, slots * pageSize, Rights::ReadWrite);
    kernel.createShadowMappings(proc, src_base, slots * pageSize);
    kernel.createShadowMappings(proc, dst_base, slots * pageSize);

    if (config.method == DmaMethod::Shrimp1) {
        // Pre-arrange each source page's mapped-out destination.
        for (unsigned s = 0; s < slots; ++s) {
            const Addr dst_paddr =
                kernel.translateFor(proc, dst_base + s * pageSize,
                                    Rights::Write).paddr;
            kernel.setupMapOut(proc, src_base + s * pageSize, dst_paddr);
        }
    }

    if (config.method == DmaMethod::Cap) {
        // One slot spanning both slot arrays (docs/CAPABILITIES.md).
        const int slot =
            kernel.capGrant(proc, src_base, slots * pageSize,
                            /*rate_class=*/0);
        ULDMA_ASSERT(slot >= 0,
                     "benchmark process could not get a capability");
        ULDMA_ASSERT(kernel.capExtend(proc, static_cast<unsigned>(slot),
                                      dst_base, slots * pageSize),
                     "benchmark capability could not span the "
                     "destination");
    }

    std::vector<Tick> marks;
    marks.reserve(config.iterations + 1);
    std::vector<std::uint64_t> instr_marks;
    instr_marks.reserve(config.iterations + 1);
    std::vector<std::uint64_t> uncached_marks;
    uncached_marks.reserve(config.iterations + 1);
    std::uint64_t successes = 0;

    Machine *machine_ptr = &machine;
    Cpu *cpu_ptr = &node.cpu();
    auto mark = [machine_ptr, cpu_ptr, &marks, &instr_marks,
                 &uncached_marks](ExecContext &) {
        marks.push_back(machine_ptr->now());
        instr_marks.push_back(cpu_ptr->instructionsRetired());
        uncached_marks.push_back(cpu_ptr->numUncachedAccesses());
    };

    Program prog;
    prog.callback(mark);
    for (unsigned i = 0; i < config.iterations; ++i) {
        const unsigned s = i % slots;
        emitInitiation(prog, kernel, proc, config.method,
                       src_base + s * pageSize, dst_base + s * pageSize,
                       config.transferSize);
        prog.callback([&successes](ExecContext &ctx) {
            if (ctx.reg(reg::v0) != dmastatus::failure)
                ++successes;
        });
        prog.callback(mark);
    }
    prog.exit();

    kernel.launch(proc, std::move(prog));
    machine.start();
    const bool finished = machine.run(60 * tickPerSec);
    ULDMA_ASSERT(finished, "initiation benchmark did not finish");
    ULDMA_ASSERT(marks.size() == config.iterations + 1,
                 "missing measurement marks");

    InitiationMeasurement m;
    m.method = config.method;
    m.iterations = config.iterations;
    double sum = 0.0, lo = 1e300, hi = 0.0;
    for (unsigned i = 0; i < config.iterations; ++i) {
        const double us = ticksToUs(marks[i + 1] - marks[i]);
        sum += us;
        lo = std::min(lo, us);
        hi = std::max(hi, us);
    }
    m.avgUs = sum / config.iterations;
    m.minUs = lo;
    m.maxUs = hi;
    m.simulatedTicks = machine.now();
    m.totalInstructions = instr_marks.back() - instr_marks.front();
    m.instructions =
        static_cast<double>(instr_marks.back() - instr_marks.front()) /
        config.iterations;
    m.uncachedAccesses =
        static_cast<double>(uncached_marks.back() -
                            uncached_marks.front()) /
        config.iterations;
    m.successes = successes;
    for (const auto &rec : node.dmaEngine().initiations()) {
        (void)rec;
        ++m.initiationsStarted;
    }
    return m;
}

std::vector<InitiationMeasurement>
measureTable1(unsigned iterations)
{
    std::vector<InitiationMeasurement> rows;
    for (DmaMethod method : table1Methods) {
        MeasureConfig config;
        config.method = method;
        config.iterations = iterations;
        rows.push_back(measureInitiation(config));
    }
    return rows;
}

double
paperTable1Us(DmaMethod method)
{
    switch (method) {
      case DmaMethod::Kernel: return 18.6;
      case DmaMethod::ExtShadow: return 1.1;
      case DmaMethod::Repeated5: return 2.6;
      case DmaMethod::KeyBased: return 2.3;
      default: return 0.0;
    }
}

double
wireTimeUs(Addr bytes, std::uint64_t bits_per_second)
{
    return static_cast<double>(bytes) * 8.0 * 1e6 /
           static_cast<double>(bits_per_second);
}

AtomicMeasurement
measureAtomic(const AtomicMeasureConfig &config)
{
    MachineConfig mc;
    mc.node.bus = config.bus;
    mc.node.cpu = config.cpu;
    mc.node.kernel = config.kernel;
    mc.node.makeScheduler = []() {
        return std::make_unique<RoundRobinScheduler>(tickPerSec);
    };

    Machine machine(mc);
    Node &node = machine.node(0);
    Kernel &kernel = node.kernel();
    Process &proc = kernel.createProcess("bench");
    if (config.keyed) {
        ULDMA_ASSERT(kernel.grantKeyContext(proc),
                     "no key context for the keyed-atomic benchmark");
    }

    const Addr buf = kernel.allocate(proc, pageSize, Rights::ReadWrite);
    kernel.createAtomicShadowMappings(proc, buf, pageSize, config.op);

    std::vector<Tick> marks;
    marks.reserve(config.iterations + 1);
    Machine *machine_ptr = &machine;
    auto mark = [machine_ptr, &marks](ExecContext &) {
        marks.push_back(machine_ptr->now());
    };

    Program prog;
    prog.callback(mark);
    for (unsigned i = 0; i < config.iterations; ++i) {
        const Addr target = buf + (i % 64) * 64;
        if (config.userLevel && config.keyed) {
            switch (config.op) {
              case AtomicOp::Add:
                emitKeyedAtomicAdd(prog, kernel, proc, target, 1);
                break;
              case AtomicOp::FetchStore:
                emitKeyedFetchAndStore(prog, kernel, proc, target, i);
                break;
              case AtomicOp::CompareSwap:
                emitKeyedCompareAndSwap(prog, kernel, proc, target, 0,
                                        i);
                break;
            }
        } else if (config.userLevel) {
            switch (config.op) {
              case AtomicOp::Add:
                emitAtomicAdd(prog, kernel, proc, target, 1);
                break;
              case AtomicOp::FetchStore:
                emitFetchAndStore(prog, kernel, proc, target, i);
                break;
              case AtomicOp::CompareSwap:
                emitCompareAndSwap(prog, kernel, proc, target, 0, i);
                break;
            }
        } else {
            emitKernelAtomic(prog, config.op, target, 1, i);
        }
        prog.callback(mark);
    }
    prog.exit();

    kernel.launch(proc, std::move(prog));
    machine.start();
    const bool finished = machine.run(60 * tickPerSec);
    ULDMA_ASSERT(finished, "atomic benchmark did not finish");

    AtomicMeasurement m;
    m.op = config.op;
    m.userLevel = config.userLevel;
    double sum = 0.0;
    for (unsigned i = 0; i < config.iterations; ++i)
        sum += ticksToUs(marks[i + 1] - marks[i]);
    m.avgUs = sum / config.iterations;
    m.executed = node.atomicUnit().numExecuted();
    return m;
}

} // namespace uldma
