#include "core/experiment.hh"

#include <algorithm>
#include <numeric>

#include "core/user_atomics.hh"
#include "util/logging.hh"

namespace uldma {

namespace {

/** One node for one measured process: a huge quantum keeps
 *  context-switch costs out of the measurement. */
MachineConfig
measurementMachine(const BusParams &bus, const CpuParams &cpu,
                   const KernelParams &kernel)
{
    MachineConfig mc;
    mc.node.bus = bus;
    mc.node.cpu = cpu;
    mc.node.kernel = kernel;
    mc.node.makeScheduler = []() {
        return std::make_unique<RoundRobinScheduler>(tickPerSec);
    };
    return mc;
}

MachineConfig
initiationMachine(const MeasureConfig &config)
{
    MachineConfig mc =
        measurementMachine(config.bus, config.cpu, config.kernel);
    configureNode(mc.node, config.method);
    return mc;
}

} // namespace

InitiationExperiment::InitiationExperiment(const MeasureConfig &config)
    : config_(config), machine_(initiationMachine(config))
{
    ULDMA_ASSERT(config.iterations >= 1,
                 "an initiation measurement needs an iteration");
    prepareMachine(machine_, config.method);
    Kernel &kernel = machine_.node(0).kernel();

    // Source/destination slot arrays so successive DMAs hit different
    // addresses (kills write-buffer/read-buffer reuse, paper §3.4); a
    // capability slot spans both (docs/CAPABILITIES.md).
    proc_ = &kernel.createProcess("app");
    DmaSession session(machine_, 0, *proc_, config.method);
    const unsigned slots = std::max(1u, config.addressSlots);
    srcBase_ = session.allocBuffer(slots * pageSize);
    dstBase_ = session.allocBuffer(slots * pageSize);
    ULDMA_ASSERT(session.ready(),
                 "benchmark process could not get its DMA grants");
    session.pairMappedOut(srcBase_, dstBase_, slots);

    marks_.reserve(config.iterations + 1);
    Program prog;
    const Cpu *cpu = &machine_.node(0).cpu();
    const int mark = prog.addHook([this, cpu](ExecContext &) {
        marks_.push_back({machine_.now(), cpu->instructionsRetired(),
                          cpu->numUncachedAccesses()});
    });
    const int count_success = prog.addHook([this](ExecContext &ctx) {
        if (ctx.reg(reg::v0) != dmastatus::failure)
            ++successes_;
    });
    prog.callbackAt(mark);
    for (unsigned i = 0; i < config.iterations; ++i) {
        const unsigned s = i % slots;
        emitInitiation(prog, kernel, *proc_, config.method,
                       srcBase_ + s * pageSize, dstBase_ + s * pageSize,
                       config.transferSize);
        prog.callbackAt(count_success);
        prog.callbackAt(mark);
    }
    prog.exit();
    kernel.launch(*proc_, std::move(prog));
}

Program
InitiationExperiment::firstInitiation()
{
    Program prog;
    emitInitiation(prog, machine_.node(0).kernel(), *proc_, config_.method,
                   srcBase_, dstBase_, config_.transferSize);
    return prog;
}

InitiationMeasurement
InitiationExperiment::run()
{
    ULDMA_ASSERT(marks_.empty(), "an initiation experiment runs once");
    InitiationMeasurement m;
    m.method = config_.method;
    m.iterations = config_.iterations;
    machine_.start();
    m.finished = machine_.run(600 * tickPerSec);
    if (!m.finished)
        return m;
    ULDMA_ASSERT(marks_.size() == config_.iterations + 1,
                 "missing measurement marks");

    m.samplesUs.reserve(config_.iterations);
    for (unsigned i = 0; i < config_.iterations; ++i)
        m.samplesUs.push_back(ticksToUs(marks_[i + 1].at - marks_[i].at));
    // Summed in program order: the committed Table 1 figures pin its
    // rounding.
    m.avgUs = std::accumulate(m.samplesUs.begin(), m.samplesUs.end(), 0.0) /
              config_.iterations;
    const auto [lo, hi] = std::ranges::minmax(m.samplesUs);
    m.minUs = lo;
    m.maxUs = hi;
    m.simulatedTicks = machine_.now();
    m.totalInstructions =
        marks_.back().instructions - marks_.front().instructions;
    m.instructions =
        static_cast<double>(m.totalInstructions) / config_.iterations;
    m.uncachedAccesses =
        static_cast<double>(marks_.back().uncached -
                            marks_.front().uncached) /
        config_.iterations;
    m.successes = successes_;
    m.initiationsStarted = machine_.node(0).dmaEngine().initiations().size();
    return m;
}

InitiationMeasurement
measureInitiation(const MeasureConfig &config)
{
    InitiationExperiment experiment(config);
    InitiationMeasurement m = experiment.run();
    ULDMA_ASSERT(m.finished, "initiation benchmark did not finish");
    return m;
}

unsigned
maxAddressSlots()
{
    return static_cast<unsigned>(
        (NodeConfig{}.memBytes / pageSize - Kernel::reservedFrames) / 2);
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
    Machine machine(
        measurementMachine(config.bus, config.cpu, config.kernel));
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
