/**
 * @file
 * Lightweight debug tracing with named flags, in the spirit of gem5's
 * DPRINTF.  Flags are enabled programmatically (uldma_run --trace=
 * takes a comma-separated list, or "All").
 *
 * Tracing is for humans debugging the simulator; it never affects
 * simulated behaviour.
 */

#ifndef ULDMA_SIM_TRACE_HH
#define ULDMA_SIM_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "util/logging.hh"
#include "util/types.hh"

namespace uldma::trace {

/** Enable a single debug flag (e.g. "Dma", "Bus", "Sched"). */
void enable(const std::string &flag);

/** Disable a single debug flag. */
void disable(const std::string &flag);

/** Enable/disable everything. */
void enableAll();
void disableAll();

/** True if the flag (or All) is enabled. */
bool enabled(const std::string &flag);

/** Emit one trace line (internal; use the ULDMA_TRACE macro). */
void emit(const std::string &flag, Tick when, const std::string &msg);

// ---------------------------------------------------------------------
// Structured event capture
// ---------------------------------------------------------------------

/**
 * One structured event captured by the ring buffer: which component
 * emitted it, when, what kind of event, and a free-form payload.
 * Deliberately free of pointers and wall-clock time so captured traces
 * are byte-reproducible across identical runs.
 */
struct TraceEvent
{
    Tick tick = 0;
    std::string component;
    std::string kind;
    std::string payload;
};

/**
 * Bounded ring buffer of TraceEvents.  Storage is allocated once at
 * enable() time; when full, the oldest events are overwritten so a
 * capture always holds the *tail* of the run.  While disabled (the
 * default) the buffer holds no storage and ULDMA_TRACE_EVENT costs one
 * branch on a plain bool — no allocation, no argument formatting.
 */
class EventRing
{
  public:
    /** Allocate @p capacity slots and start capturing. */
    void enable(std::size_t capacity = 1 << 16);

    /** Stop capturing and release all storage. */
    void disable();

    bool enabled() const { return enabled_; }

    /** Allocated slots (0 while disabled). */
    std::size_t capacity() const { return ring_.size(); }

    /** Events currently held (<= capacity). */
    std::size_t size() const { return count_; }

    /** Total events ever recorded, including overwritten ones. */
    std::uint64_t recorded() const { return recorded_; }

    /** Events lost to overwrite. */
    std::uint64_t dropped() const { return recorded_ - count_; }

    /**
     * Record-time filter: once set, only events whose component starts
     * with @p component_prefix (and, when @p kind is nonempty, whose
     * kind equals it) are stored — everything else is dropped before
     * touching the ring, so long runs can capture only one component's
     * events without overflowing.  Filtered events are counted by
     * filteredOut() and never appear in recorded()/dropped().
     */
    void setFilter(std::string component_prefix, std::string kind = "");

    /** Remove the record-time filter. */
    void clearFilter();

    bool hasFilter() const { return filterActive_; }

    /** Events dropped by the record-time filter. */
    std::uint64_t filteredOut() const { return filteredOut_; }

    /** Append one event (no-op while disabled). */
    void record(const std::string &component, Tick tick,
                const std::string &kind, std::string payload);

    /** The i-th held event in chronological order (0 = oldest). */
    const TraceEvent &at(std::size_t i) const;

    /** Copy out the held events, oldest first. */
    std::vector<TraceEvent> snapshot() const;

    /**
     * Export the held events as a chrome://tracing / Perfetto JSON
     * document ("ts" in simulated microseconds, one thread per
     * component category).  Deterministic across identical runs.
     */
    void exportChromeTracing(std::ostream &os) const;

  private:
    bool enabled_ = false;
    std::vector<TraceEvent> ring_;
    std::size_t next_ = 0;       // next write slot
    std::size_t count_ = 0;
    std::uint64_t recorded_ = 0;
    bool filterActive_ = false;
    std::string filterComponentPrefix_;
    std::string filterKind_;
    std::uint64_t filteredOut_ = 0;
};

/**
 * The calling thread's event ring, used by ULDMA_TRACE_EVENT.
 * Thread-local: each simulation thread (e.g. one workload shard)
 * captures into its own ring, so concurrent Machines never share
 * trace state.
 */
EventRing &eventRing();

namespace detail { extern thread_local bool eventCaptureEnabled; }

/** Cheap thread-local gate checked before any event-argument
 *  formatting. */
inline bool
eventCaptureOn()
{
    return detail::eventCaptureEnabled;
}

/** One shard's event capture, for merged export (component names
 *  already rewritten to global node ids by the collector). */
struct ShardTrace
{
    unsigned shard = 0;
    std::vector<TraceEvent> events;
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
    std::uint64_t filteredOut = 0;
};

/**
 * Merge several shards' captures into one chrome://tracing document:
 * events are stably ordered by (tick, shard, capture order) and each
 * event's "pid" is its shard id, so Perfetto renders one process lane
 * per shard.  Deterministic — never depends on thread scheduling.
 */
void exportMergedChromeTracing(std::ostream &os,
                               const std::vector<ShardTrace> &shards);

} // namespace uldma::trace

/**
 * Record a structured event into the global ring buffer.  The payload
 * arguments are streamed like ULDMA_TRACE's and are only evaluated when
 * capture is enabled, so instrumented hot paths pay a single predictable
 * branch when tracing is off.
 */
#define ULDMA_TRACE_EVENT(component, when, kind, ...)                       \
    do {                                                                    \
        if (::uldma::trace::eventCaptureOn()) {                             \
            ::uldma::trace::eventRing().record(component, when, kind,       \
                ::uldma::detail::concatToString(__VA_ARGS__));              \
        }                                                                   \
    } while (0)

/**
 * Trace a message under a flag at a given simulated time.
 * Arguments after the tick are streamed, so any operator<<-able values
 * work: ULDMA_TRACE("Dma", now(), "start ctx=", ctx, " size=", size);
 */
#define ULDMA_TRACE(flag, when, ...)                                        \
    do {                                                                    \
        if (::uldma::trace::enabled(flag)) {                                \
            ::uldma::trace::emit(flag, when,                                \
                ::uldma::detail::concatToString(__VA_ARGS__));              \
        }                                                                   \
    } while (0)

#endif // ULDMA_SIM_TRACE_HH
