/**
 * @file
 * End-to-end transfer spans: every DMA initiation — user-level shadow
 * sequence or kernel-channel syscall — gets a SpanId at its first
 * engine-visible access, and the instrumented components (DMA engine,
 * transfer engine, NIC backend, kernel syscall path) record phase
 * transitions through its lifecycle:
 *
 *   first-access -> sequence-recognized | rejected | key-mismatch
 *                -> queued -> bus-active -> completed | aborted
 *
 * Phase timestamps are simulated ticks, so per-phase and end-to-end
 * durations answer the paper's §4 evaluation question — how long does
 * one user-level DMA take, per protocol, and where does the time go —
 * with exact, reproducible numbers.
 *
 * Cost discipline mirrors trace::EventRing: while disabled (the
 * default) every instrumented site pays one branch on a plain
 * thread-local bool — no allocation, no string formatting, no storage.
 * Captured spans contain no wall-clock time or pointers, so the JSON
 * export (schema uldma-spans-v1, see docs/SCHEMAS.md) is
 * byte-deterministic across identical runs.
 *
 * Thread isolation: the tracker (and its enable gate) is thread_local,
 * so every simulation thread owns an independent span store.  The
 * sharded workload runner (workload/parallel.hh) relies on this: each
 * shard's Machine runs on its own thread with its own tracker, and
 * the per-shard captures are merged deterministically afterwards via
 * exportMergedSpansJson().
 */

#ifndef ULDMA_SIM_SPAN_HH
#define ULDMA_SIM_SPAN_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/types.hh"

namespace uldma::span {

/** Handle identifying one tracked initiation. */
using SpanId = std::uint64_t;
inline constexpr SpanId invalidSpan = 0;

/** Terminal (or not-yet-terminal) state of a span. */
enum class Outcome : std::uint8_t
{
    InFlight,     ///< opened, no terminal transition yet
    Completed,    ///< transfer finished, payload delivered
    Rejected,     ///< initiation refused (bad args, no latch, ...)
    KeyMismatch,  ///< key-based store carried the wrong key
    Aborted,      ///< sequence killed mid-flight (context switch reset)
};

const char *toString(Outcome outcome);

/**
 * One tracked initiation.  Tick fields are 0 until the phase is
 * reached; for non-completed outcomes `completed` holds the tick of
 * the terminal transition (rejection / abort).
 */
struct Span
{
    SpanId id = invalidSpan;
    std::string engine;    ///< owning DMA engine, e.g. "node0.dma"
    std::string protocol;  ///< engine-mode name, or "kernel"
    unsigned ctx = 0;      ///< register context / CONTEXT_ID
    bool viaKernel = false;
    bool remote = false;   ///< an endpoint lies in a remote window
    Addr size = 0;
    Outcome outcome = Outcome::InFlight;

    Tick firstAccess = 0;  ///< first engine-visible access / trap entry
    Tick translated = 0;   ///< IOMMU translation done (0 = no IOMMU)
    Tick recognized = 0;   ///< argument sequence accepted by the engine
    Tick queued = 0;       ///< handed to the transfer engine
    Tick busStart = 0;     ///< transfer begins streaming on the bus
    Tick busEnd = 0;       ///< last payload beat on the bus
    Tick completed = 0;    ///< delivered / rejected / aborted
};

/**
 * Process-wide span store.  Components append through the phase
 * mutators; every mutator is a no-op for invalidSpan, so instrumented
 * code can hold SpanId members unconditionally and only guard the
 * open() call with captureOn().
 */
class Tracker
{
  public:
    /** Start capturing (clears any previous capture). */
    void enable();

    /** Stop capturing and release all storage. */
    void disable();

    bool enabled() const { return enabled_; }

    /** Drop captured spans but keep capturing. */
    void clear();

    /**
     * Open a span at its first engine-visible access.
     * @return the new id, or invalidSpan while disabled.
     */
    SpanId open(const std::string &engine, const std::string &protocol,
                Tick first_access);

    /// @name Phase transitions (no-ops on invalidSpan / unknown ids).
    /// @{
    void recognize(SpanId id, Tick when, unsigned ctx, bool via_kernel,
                   Addr size);
    /** IOMMU: the segment's addresses finished translating. */
    void translated(SpanId id, Tick when);
    void reject(SpanId id, Tick when, Outcome why = Outcome::Rejected);
    void abort(SpanId id, Tick when);
    void queue(SpanId id, Tick when);
    void busWindow(SpanId id, Tick start, Tick end);
    void setRemote(SpanId id, bool remote);
    void complete(SpanId id, Tick when);
    /// @}

    /**
     * Kernel-syscall handoff: sysDma opens the span at trap entry and
     * stages it just before programming the engine's registers; the
     * engine's kernelStart() adopts the staged span so the recorded
     * end-to-end time includes the trap overhead Table 1 charges the
     * kernel method with.
     */
    void stageKernel(SpanId id) { stagedKernel_ = id; }
    SpanId takeStagedKernel();

    std::size_t size() const { return spans_.size(); }
    const Span &at(std::size_t i) const { return spans_.at(i); }

    /** Copy out every captured span (capture order). */
    std::vector<Span> snapshot() const { return spans_; }

    /** Move out every captured span (capture order), leaving none. */
    std::vector<Span> take() { return std::exchange(spans_, {}); }

    /** Total spans ever opened since enable(). */
    std::uint64_t opened() const { return opened_; }

    /** Allocated span slots (0 while disabled — pins zero-cost). */
    std::size_t storageCapacity() const { return spans_.capacity(); }

    /**
     * Serialise every span plus a per-protocol summary (counts by
     * outcome; mean/min/max/p50/p90/p99 of each phase and of the
     * end-to-end latency over completed spans, in microseconds) as one
     * uldma-spans-v1 JSON document.  Deterministic.
     */
    void exportJson(std::ostream &os, bool pretty = true) const;

  private:
    Span *find(SpanId id);

    bool enabled_ = false;
    std::vector<Span> spans_;
    SpanId nextId_ = 1;
    SpanId stagedKernel_ = invalidSpan;
    std::uint64_t opened_ = 0;
};

/**
 * The calling thread's tracker, used by all instrumented components.
 * Thread-local: each simulation thread (e.g. one workload shard)
 * captures into its own independent store, so concurrent Machines
 * never share span state.
 */
Tracker &tracker();

namespace detail { extern thread_local bool spanCaptureEnabled; }

/** Cheap thread-local gate checked before any span bookkeeping. */
inline bool
captureOn()
{
    return detail::spanCaptureEnabled;
}

// ---------------------------------------------------------------------
// Merged (multi-shard) export
// ---------------------------------------------------------------------

/** One shard's span capture, as collected by the parallel workload
 *  runner (engine names already rewritten to global node ids). */
struct ShardSpans
{
    unsigned shard = 0;            ///< shard id (plan order)
    std::uint64_t opened = 0;      ///< Tracker::opened() of that shard
    std::vector<Span> spans;       ///< that shard's captured spans
};

/**
 * Serialise the concatenation of several shards' captures as one
 * uldma-spans-v1 document (see docs/SCHEMAS.md).  Span ids are
 * renumbered sequentially in (shard, capture) order and every span
 * carries a "shard" member; the summary aggregates across all shards.
 * Deterministic: depends only on the shard captures and their order,
 * never on thread scheduling.
 */
void exportMergedSpansJson(std::ostream &os,
                           const std::vector<ShardSpans> &shards,
                           bool pretty = true);

} // namespace uldma::span

#endif // ULDMA_SIM_SPAN_HH
