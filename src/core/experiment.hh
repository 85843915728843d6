/**
 * @file
 * Measurement drivers shared by the benchmark binaries: the Table-1
 * initiation-latency experiment, instruction/access counting, and the
 * OS-overhead-vs-wire-time crossover model of the introduction.
 */

#ifndef ULDMA_CORE_EXPERIMENT_HH
#define ULDMA_CORE_EXPERIMENT_HH

#include <vector>

#include "core/methods.hh"

namespace uldma {

/** Configuration of an initiation-latency measurement. */
struct MeasureConfig
{
    DmaMethod method = DmaMethod::ExtShadow;
    /** DMA initiations to average over (the paper used 1,000). */
    unsigned iterations = 1000;
    /** Distinct page-slots cycled through so successive DMAs use
     *  different addresses (paper §3.4). */
    unsigned addressSlots = 16;
    /** Transfer size passed as the DMA argument. */
    Addr transferSize = 8;

    BusParams bus;
    CpuParams cpu;
    KernelParams kernel;
};

/** Result of an initiation-latency measurement. */
struct InitiationMeasurement
{
    DmaMethod method;
    unsigned iterations = 0;
    /** False when the run limit stopped the run; nothing below is
     *  filled in then. */
    bool finished = false;
    double avgUs = 0.0;
    double minUs = 0.0;
    double maxUs = 0.0;
    /** Each initiation's wall time in us, in program order. */
    std::vector<double> samplesUs;
    /** Per-initiation averages. */
    double instructions = 0.0;
    double uncachedAccesses = 0.0;
    /** Engine-confirmed transfer starts (sanity: == iterations). */
    std::uint64_t initiationsStarted = 0;
    /** Statuses other than failure observed by the program. */
    std::uint64_t successes = 0;
    /** Simulated time when the run finished (whole-run total). */
    Tick simulatedTicks = 0;
    /** User-mode micro-ops retired across the measured window. */
    std::uint64_t totalInstructions = 0;
};

/**
 * The Table-1 experiment for one method, set up but not yet run: a
 * one-node machine, a process holding the method's DMA grant, two
 * arrays of addressSlots pages, and the timed program, in which the
 * process starts @p iterations DMAs back to back (no data-transfer
 * wait) on successive slots and marks the time after each.  Reach
 * machine() before run() to sample counters, and after it to export.
 */
class InitiationExperiment
{
  public:
    explicit InitiationExperiment(const MeasureConfig &config);
    // The timed program's hooks hold this object's address.
    InitiationExperiment(const InitiationExperiment &) = delete;
    InitiationExperiment &operator=(const InitiationExperiment &) = delete;

    Machine &machine() { return machine_; }

    /** The timed program's first initiation, as a program of its own. */
    Program firstInitiation();

    /** Run the timed program for at most 600 simulated seconds and
     *  reduce its marks; call once. */
    InitiationMeasurement run();

  private:
    MeasureConfig config_;
    Machine machine_;
    Process *proc_ = nullptr;
    Addr srcBase_ = 0;
    Addr dstBase_ = 0;
    /** Time, retired instructions and uncached accesses at a mark. */
    struct Mark { Tick at; std::uint64_t instructions, uncached; };
    std::vector<Mark> marks_;
    std::uint64_t successes_ = 0;
};

/**
 * Run the Table-1 experiment for one method (InitiationExperiment)
 * and average the per-initiation wall time; the run must finish.
 */
InitiationMeasurement measureInitiation(const MeasureConfig &config);

/** The most addressSlots a measurement's node memory holds: two slot
 *  arrays beside the kernel's reserved frames. */
unsigned maxAddressSlots();

/** Run measureInitiation for every Table-1 row. */
std::vector<InitiationMeasurement>
measureTable1(unsigned iterations = 1000);

/** Paper-reported Table-1 value in microseconds (0 if not in the
 *  table). */
double paperTable1Us(DmaMethod method);

/** Wire time of a @p bytes message at @p bits_per_second, in us. */
double wireTimeUs(Addr bytes, std::uint64_t bits_per_second);

/** Configuration of an atomic-op latency measurement (paper §3.5). */
struct AtomicMeasureConfig
{
    AtomicOp op = AtomicOp::Add;
    bool userLevel = true;
    /** Use the key-based adaptation instead of the plain shadow pair
     *  (only meaningful when userLevel). */
    bool keyed = false;
    unsigned iterations = 1000;
    BusParams bus;
    CpuParams cpu;
    KernelParams kernel;
};

/** Result of an atomic-op latency measurement. */
struct AtomicMeasurement
{
    AtomicOp op;
    bool userLevel = false;
    double avgUs = 0.0;
    std::uint64_t executed = 0;
};

/** Measure user-level vs kernel-level atomic operation latency. */
AtomicMeasurement measureAtomic(const AtomicMeasureConfig &config);

} // namespace uldma

#endif // ULDMA_CORE_EXPERIMENT_HH
