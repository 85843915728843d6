/**
 * @file
 * Hierarchical scoped profiler for the simulator's own hot paths.
 *
 * Usage: drop ULDMA_PROF_SCOPE("name") at the top of a function or
 * block.  While capture is disabled (the default) each scope costs one
 * predictable branch on a thread-local bool — no allocation, no clock
 * read, no string handling — so instrumentation can stay in the hot
 * loop permanently, mirroring the ULDMA_TRACE_EVENT discipline.
 *
 * While enabled, scopes aggregate *at record time* into a per-thread
 * call tree keyed by the nesting path of scope names: each tree node
 * accumulates an entry count, inclusive host nanoseconds, and inclusive
 * simulated ticks (when a tick source is registered, which Machine::run
 * does for the duration of the run).  There is no per-entry event log,
 * so capture cost and memory stay O(distinct scopes), not O(entries),
 * and a multi-hour run profiles in constant space.
 *
 * Exports:
 *  - writeProfileJson(): the `uldma-profile-v1` document.  By default
 *    it contains only deterministic fields (names, counts, simulated
 *    ticks) so identical runs produce identical bytes — the repo-wide
 *    artifact rule.  Host wall-time attribution is opt-in via its
 *    include_host argument.
 *  - writeCollapsedProfile(): Brendan-Gregg collapsed-stack text
 *    ("a;b;c <weight>") for flamegraph.pl / speedscope.
 *
 * Thread model: the profiler is thread-local, like trace::eventRing().
 * Each workload shard captures into its own tree; mergeProfiles() folds
 * the shard trees deterministically (plan order, first-appearance child
 * order) so `--threads 1` and `--threads N` produce identical merged
 * documents.
 */

#ifndef ULDMA_PROF_PROFILER_HH
#define ULDMA_PROF_PROFILER_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "util/types.hh"

namespace uldma::prof {

/**
 * One node of an exported (or merged) profile call tree.  `hostNs` and
 * `ticks` are *inclusive*; exclusive values are derived at export time
 * as inclusive minus the sum over children.
 */
struct ProfileNode
{
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t hostNs = 0;
    std::uint64_t ticks = 0;
    std::vector<ProfileNode> children;
};

/**
 * Per-thread scoped profiler.  Use the thread-local instance returned
 * by profiler(); never share one across threads.
 */
class Profiler
{
  public:
    /** Drop any previous capture and start recording scopes. */
    void enable();

    /** Stop recording and release all storage. */
    void disable();

    bool enabled() const { return enabled_; }

    /** Drop captured data but keep recording. */
    void clear();

    /**
     * Register a source of simulated time so scopes can attribute
     * ticks as well as host time.  Machine::run() installs itself for
     * the duration of the run; while no source is set, tick deltas
     * record as zero.
     */
    void setTickSource(std::function<Tick()> source);
    void clearTickSource();

    /** Total scope entries recorded since enable()/clear(). */
    std::uint64_t scopesEntered() const { return entered_; }

    /** Enter a scope (internal; use ULDMA_PROF_SCOPE). */
    void enter(const char *name);

    /** Exit the innermost scope (internal; use ULDMA_PROF_SCOPE). */
    void exit();

    /**
     * Copy out the aggregated tree.  The returned root is a synthetic
     * node (empty name) whose children are the top-level scopes.
     * Scopes still open at snapshot time contribute their completed
     * entries only.
     */
    ProfileNode snapshot() const;

  private:
    struct NodeRec
    {
        std::string name;
        std::uint64_t count = 0;
        std::uint64_t hostNs = 0;
        std::uint64_t ticks = 0;
        std::vector<std::uint32_t> children;  // indices into nodes_
    };

    struct Frame
    {
        std::uint32_t node = 0;
        std::uint64_t startNs = 0;
        Tick startTick = 0;
    };

    std::uint32_t childOf(std::uint32_t parent, const char *name);

    bool enabled_ = false;
    std::vector<NodeRec> nodes_;  // [0] is the synthetic root
    std::vector<Frame> stack_;
    std::function<Tick()> tickSource_;
    std::uint64_t entered_ = 0;
};

/** The calling thread's profiler, used by ULDMA_PROF_SCOPE. */
Profiler &profiler();

namespace detail { extern thread_local bool profCaptureEnabled; }

/** Cheap thread-local gate checked before any scope bookkeeping. */
inline bool
captureOn()
{
    return detail::profCaptureEnabled;
}

/**
 * RAII scope used by ULDMA_PROF_SCOPE.  Latches the capture gate at
 * construction so an enable()/disable() inside the scope cannot
 * unbalance the stack.
 */
class ScopeGuard
{
  public:
    explicit ScopeGuard(const char *name) : active_(captureOn())
    {
        if (active_)
            profiler().enter(name);
    }

    ~ScopeGuard()
    {
        if (active_)
            profiler().exit();
    }

    ScopeGuard(const ScopeGuard &) = delete;
    ScopeGuard &operator=(const ScopeGuard &) = delete;

  private:
    bool active_;
};

/**
 * RAII tick-source registration: installs @p source on the calling
 * thread's profiler if capture is on, restores the previous state on
 * destruction (on every exit path).
 */
class TickSourceScope
{
  public:
    explicit TickSourceScope(std::function<Tick()> source)
        : active_(captureOn())
    {
        if (active_)
            profiler().setTickSource(std::move(source));
    }

    ~TickSourceScope()
    {
        if (active_)
            profiler().clearTickSource();
    }

    TickSourceScope(const TickSourceScope &) = delete;
    TickSourceScope &operator=(const TickSourceScope &) = delete;

  private:
    bool active_;
};

/**
 * Serialise a profile tree as one `uldma-profile-v1` document.  The
 * tree is emitted depth-first in capture order; exclusive values are
 * derived as inclusive minus the children's inclusive sum (clamped at
 * zero).  @p include_host adds the inclusive_ns/exclusive_ns host
 * wall-time members; off by default, because host time varies run to
 * run and the default document must be byte-deterministic.
 */
void writeProfileJson(std::ostream &os, const ProfileNode &root,
                      bool include_host = false);

/**
 * Serialise as collapsed-stack text, one line per tree node:
 * "top;nested;leaf <weight>".  Weight is exclusive host nanoseconds
 * when @p host_weight is set, else the node's entry count (the
 * deterministic choice).  Zero-weight lines are omitted.
 */
void writeCollapsedProfile(std::ostream &os, const ProfileNode &root,
                           bool host_weight = false);

/** One shard's captured profile, for merged export. */
struct ShardProfile
{
    unsigned shard = 0;
    ProfileNode root;
};

/**
 * Fold several trees into one by summing nodes with the same name
 * path.  Children keep first-appearance order across the inputs in
 * the order given, so merging shard profiles in plan order yields the
 * same document regardless of how many worker threads produced them.
 */
ProfileNode mergeProfiles(const std::vector<ProfileNode> &roots);

} // namespace uldma::prof

#define ULDMA_PROF_CONCAT2(a, b) a##b
#define ULDMA_PROF_CONCAT(a, b) ULDMA_PROF_CONCAT2(a, b)

/**
 * Profile the enclosing scope under @p name.  One branch when capture
 * is off; safe to leave in hot paths permanently.
 */
#define ULDMA_PROF_SCOPE(name)                                              \
    ::uldma::prof::ScopeGuard ULDMA_PROF_CONCAT(uldma_prof_scope_,          \
                                                __COUNTER__)(name)

#endif // ULDMA_PROF_PROFILER_HH
