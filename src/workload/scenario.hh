/**
 * @file
 * Declarative workload scenarios: a JSON spec (schema
 * uldma-scenario-v1, see docs/WORKLOADS.md) describing N processes
 * across M nodes, each issuing DMA initiations with a per-stream
 * protocol, transfer-size distribution, and pacing discipline — plus
 * interference knobs (scheduler choice, adversarial streams reusing
 * the attack harness's access mix).
 *
 * Parsing is strict: unknown members anywhere in the document are
 * errors, so a typo'd knob can never silently run the default
 * experiment.  A parsed Scenario is pure data; the driver
 * (workload/driver.hh) turns it into a Machine and traffic.
 */

#ifndef ULDMA_WORKLOAD_SCENARIO_HH
#define ULDMA_WORKLOAD_SCENARIO_HH

#include <string>
#include <vector>

#include "core/methods.hh"
#include "sim/json.hh"

namespace uldma::workload {

/** Transfer-size distribution of one stream. */
struct SizeDist
{
    enum class Kind : std::uint8_t { Fixed, Uniform, Zipf };

    Kind kind = Kind::Fixed;
    /** Fixed: every transfer is this many bytes. */
    Addr fixedBytes = 8;
    /** Uniform: bytes drawn uniformly from [minBytes, maxBytes]. */
    Addr minBytes = 8;
    Addr maxBytes = 8;
    /** Zipf: bucketed sizes; bucket k (0-based rank) has weight
     *  1/(k+1)^exponent, so earlier buckets dominate. */
    std::vector<Addr> zipfSizes;
    double zipfExponent = 1.0;
};

/** Inter-arrival interval distribution (open-loop pacing). */
struct IntervalDist
{
    enum class Kind : std::uint8_t { Fixed, Uniform };

    Kind kind = Kind::Fixed;
    std::uint64_t fixedUs = 0;
    std::uint64_t minUs = 0;
    std::uint64_t maxUs = 0;
};

/** Pacing discipline of one stream. */
struct Pacing
{
    enum class Kind : std::uint8_t
    {
        /** Issue the next initiation after observing the previous
         *  status, then think for thinkUs. */
        Closed,
        /** Issue initiations separated by arrival intervals drawn from
         *  @ref interval, regardless of status. */
        Open,
    };

    Kind kind = Kind::Closed;
    std::uint64_t thinkUs = 0;
    IntervalDist interval;
};

/** One traffic stream: @ref count identical processes on one node. */
struct StreamSpec
{
    std::string name;
    unsigned count = 1;
    NodeId node = 0;
    DmaMethod method = DmaMethod::ExtShadow;
    /** Adversarial: instead of initiations, issue @ref ops random
     *  shadow accesses (core/attack's randomized-attack access mix). */
    bool adversarial = false;
    /** Worker streams: DMA initiations per process. */
    unsigned initiations = 0;
    /** Adversarial streams: shadow accesses per process. */
    unsigned ops = 40;
    SizeDist size;
    Pacing pacing;
    /** Distinct page slots cycled through (paper §3.4). */
    unsigned slots = 8;
    /** Ring streams only: descriptors enqueued per doorbell (the ring
     *  is sized to match, docs/RING.md).  1 = one-by-one. */
    unsigned queueDepth = 1;
    /** Ring streams under an "iotlb" scenario only: pages per transfer
     *  buffer ("sg_buffer").  > 1 lets the size distribution span
     *  multiple pages, which the engine scatter-gathers into per-page
     *  bus transactions (docs/IOMMU.md). */
    unsigned sgPages = 1;
    /** >= 0: destinations live on that node, reached through a remote
     *  window (multi-node traffic).  -1 = local destinations. */
    int remoteNode = -1;
    /** Cap streams only: weighted-round-robin rate class the stream's
     *  grants run at (class c gets weight 1<<c, docs/CAPABILITIES.md). */
    unsigned rateClass = 0;
};

/** Engine IOMMU/IOTLB configuration (the "iotlb" scenario member,
 *  docs/IOMMU.md).  When present, every node's DMA engine gets an
 *  IOMMU and ring streams carry virtual-address descriptors. */
struct IotlbSpec
{
    bool enabled = false;
    unsigned entries = 16;       ///< total IOTLB entries
    unsigned ways = 4;           ///< set associativity
    std::uint64_t hitCycles = 1;
    std::uint64_t missCycles = 6;
    std::uint64_t walkCycles = 60;
    /** "on-map" | "on-demand" (PinPolicy). */
    std::string pinning = "on-map";
    /** Max pinned pages per context; 0 = unlimited. */
    std::uint64_t pinBudgetPages = 0;
    /** "abort" | "trap" (IommuFaultPolicy). */
    std::string fault = "abort";
};

/** Capability-table geometry (the "capability" scenario member,
 *  docs/CAPABILITIES.md).  The table itself is enabled whenever any
 *  stream runs the cap protocol; this member only overrides the
 *  engine defaults (slot count, spans, rate classes, check cost). */
struct CapSpec
{
    bool enabled = false;
    unsigned slots = 256;        ///< capability-table entries (tenants)
    unsigned spansPerSlot = 8;   ///< frame spans one slot may hold
    unsigned rateClasses = 4;    ///< WRR rate classes (weight 1<<c)
    std::uint64_t checkCycles = 2;  ///< per-presentation validation cost
};

/** Scheduler every node runs. */
struct SchedulerSpec
{
    enum class Kind : std::uint8_t { RoundRobin, Random };

    Kind kind = Kind::RoundRobin;
    /** Round-robin quantum. */
    std::uint64_t quantumUs = 100;
    /** Random preemption: max instructions per slice (interference
     *  pressure; seeds derive from the run seed). */
    std::uint64_t maxSlice = 3;
};

/** A whole scenario (schema uldma-scenario-v1). */
struct Scenario
{
    std::string name;
    std::string description;
    unsigned nodes = 1;
    /** I/O bus generation: tc | pci33 | pci66. */
    std::string bus = "tc";
    std::uint64_t cpuMhz = 150;
    Cycles syscallCycles = 2300;
    SchedulerSpec scheduler;
    /** Engine IOMMU (absent = no IOMMU, byte-identical baseline). */
    IotlbSpec iotlb;
    /** Capability-table overrides (absent = engine defaults). */
    CapSpec cap;
    /** Simulated-time cap; a run hitting it reports finished=false. */
    std::uint64_t limitUs = 60 * 1000 * 1000;
    std::vector<StreamSpec> streams;
};

/** CLI/scenario protocol name of @p method (e.g. "key-based"). */
const char *methodName(DmaMethod method);

/** Parse a protocol name; false if unknown. */
bool parseMethodName(const std::string &name, DmaMethod &out);

/**
 * Parse @p text as one uldma-scenario-v1 document.  Strict: schema
 * violations, unknown members, out-of-range values and per-node
 * engine-mode conflicts are all errors.
 * @return true on success; on failure @p error describes the problem.
 */
bool parseScenario(const std::string &text, Scenario &out,
                   std::string *error);

/** parseScenario over an already parsed document (`uldma_trace_tool
 *  validate` checks scenario files with it). */
bool parseScenario(const json::Value &doc, Scenario &out,
                   std::string *error);

/** Read @p path and parseScenario its contents. */
bool loadScenarioFile(const std::string &path, Scenario &out,
                      std::string *error);

/**
 * The engine-relevant methods of every node, deduplicated in stream
 * order (kernel-path streams excluded — the kernel channel works in
 * any engine mode).  Fails if two streams on one node need different
 * engine modes.
 */
bool deriveNodeMethods(const Scenario &scenario,
                       std::vector<std::vector<DmaMethod>> &per_node,
                       std::string *error);

} // namespace uldma::workload

#endif // ULDMA_WORKLOAD_SCENARIO_HH
