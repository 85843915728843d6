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
    double avgUs = 0.0;
    double minUs = 0.0;
    double maxUs = 0.0;
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
 * Run the Table-1 experiment for one method: a single process starts
 * @p iterations DMAs back to back (no data-transfer wait), successive
 * operations on different addresses, and the per-initiation wall time
 * is averaged.
 */
InitiationMeasurement measureInitiation(const MeasureConfig &config);

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
