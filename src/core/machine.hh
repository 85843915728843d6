/**
 * @file
 * Machine construction: one call assembles a whole Network of
 * Workstations — per node a CPU, DRAM, I/O bus, DMA engine, atomic
 * unit, NIC and kernel — wired together and ready to run programs.
 * This is the top of the public API; examples, tests and benches all
 * start here.
 *
 * Thread isolation: a Machine owns every piece of its simulation —
 * event queue, nodes, network, stats registry — and the components it
 * builds hold no mutable globals or statics; the only process-wide
 * state (span::tracker(), trace::eventRing(), their enable gates, and
 * PhysicalMemory's spare DRAM mapping) is thread_local.  Two Machines
 * on two threads therefore share no mutable state, which is what lets
 * the parallel workload runner (workload/parallel.hh) simulate
 * independent shards concurrently; CI's -fsanitize=thread job runs
 * exactly that configuration to keep the claim honest.
 */

#ifndef ULDMA_CORE_MACHINE_HH
#define ULDMA_CORE_MACHINE_HH

#include <functional>
#include <memory>
#include <vector>

#include "dma/dma_engine.hh"
#include "mem/memory_device.hh"
#include "nic/atomic_unit.hh"
#include "nic/network.hh"
#include "nic/network_interface.hh"
#include "os/kernel.hh"
#include "os/scheduler.hh"

namespace uldma {

/** Per-node configuration. */
struct NodeConfig
{
    Addr memBytes = 64 * 1024 * 1024;
    CpuParams cpu;
    BusParams bus;
    DmaEngineParams dma;
    AtomicUnitParams atomic;
    NicParams nic;
    KernelParams kernel;
    /** Scheduler factory; default is round-robin @ 100 us. */
    std::function<std::unique_ptr<Scheduler>()> makeScheduler;
};

/** Whole-machine configuration. */
struct MachineConfig
{
    unsigned numNodes = 1;
    NodeConfig node;

    /**
     * Heterogeneous machines (e.g. a workload mixing DMA protocols
     * whose engine modes differ): when non-empty, node i is built from
     * perNode[i] instead of @ref node, and the vector's size must equal
     * numNodes.  Empty (the default) keeps the historical behaviour of
     * every node sharing @ref node.
     */
    std::vector<NodeConfig> perNode;

    /** Configuration node @p i will be built from. */
    const NodeConfig &
    nodeConfig(unsigned i) const
    {
        return perNode.empty() ? node : perNode.at(i);
    }
};

/**
 * One workstation, fully assembled.
 */
class Node
{
  public:
    Node(EventQueue &eq, Network &network, NodeId id,
         const NodeConfig &config);

    NodeId id() const { return id_; }
    PhysicalMemory &memory() { return *memory_; }
    Bus &bus() { return *bus_; }
    Cpu &cpu() { return *cpu_; }
    Kernel &kernel() { return *kernel_; }
    DmaEngine &dmaEngine() { return *engine_; }
    AtomicUnit &atomicUnit() { return *atomicUnit_; }
    NetworkInterface &nic() { return *nic_; }
    Scheduler &scheduler() { return *scheduler_; }

    /** Register every component's stats groups, in dump order. */
    void registerStats(stats::Registry &registry);

  private:
    NodeId id_;
    std::unique_ptr<PhysicalMemory> memory_;
    std::unique_ptr<Bus> bus_;
    std::unique_ptr<MemoryDevice> memoryDevice_;
    std::unique_ptr<NetworkInterface> nic_;
    std::unique_ptr<DmaEngine> engine_;
    std::unique_ptr<AtomicUnit> atomicUnit_;
    std::unique_ptr<Cpu> cpu_;
    std::unique_ptr<Scheduler> scheduler_;
    std::unique_ptr<Kernel> kernel_;
};

/**
 * The whole NOW: event queue, network, N nodes.
 */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config);

    EventQueue &eventq() { return eventq_; }
    Network &network() { return network_; }
    Tick now() const { return eventq_.now(); }

    unsigned numNodes() const { return nodes_.size(); }
    Node &node(NodeId id) { return *nodes_.at(id); }

    /** Dispatch every node's first process and start the CPUs. */
    void start();

    /**
     * Run until all processes on all nodes have finished (and the
     * event queue has drained of consequences), or @p limit is hit.
     * Without a sampler, run hook or profile capture, CPU ops due
     * before every other event run in place instead of through the
     * queue; the event order and every output stay the same.
     * @return true if everything finished.
     */
    bool run(Tick limit = maxTick);

    /**
     * Install a run-loop hook, invoked after every event-queue step
     * while run() executes with the current simulated tick.  Returning
     * false stops the run at that boundary (run() then reports whether
     * everything had already finished).  A hook also keeps every CPU
     * op on the event queue, so tests install one to force the queue
     * path they compare the inline path against; pass nullptr to
     * remove.
     */
    void setRunHook(std::function<bool(Tick)> hook)
    {
        runHook_ = std::move(hook);
    }

    /**
     * Observe every context switch on node @p id (see
     * Kernel::setContextSwitchObserver).  The model checker uses this
     * to snapshot state at each preemption boundary.
     */
    void
    setContextSwitchObserver(
        NodeId id,
        std::function<void(Tick, Process *, Process *)> obs)
    {
        node(id).kernel().setContextSwitchObserver(std::move(obs));
    }

    /** Dump every component's stats to @p os. */
    void dumpStats(std::ostream &os);

    /**
     * All stats groups of every component on every node, registered
     * at construction in deterministic order.
     */
    stats::Registry &statsRegistry() { return statsRegistry_; }

    /**
     * Serialise every component's stats as one JSON document
     * (schema "uldma-stats-v1"; see docs/OBSERVABILITY.md).
     */
    void dumpStatsJson(std::ostream &os, bool pretty = true);

    /**
     * Snapshot every scalar counter (optionally restricted by
     * full-name @p prefixes) once per @p interval simulated ticks
     * while run() executes.  The snapshot for boundary k*interval is
     * taken at the first event boundary at or after it and stamped
     * with the boundary tick, so identical runs serialise identically.
     * Call before run(); calling again restarts with a fresh sampler.
     */
    void enableSampling(Tick interval,
                        std::vector<std::string> prefixes = {});

    /** The active sampler, or nullptr when sampling is off. */
    stats::Sampler *sampler() { return sampler_.get(); }

    /**
     * Serialise the sampled time series as one JSON document
     * (schema "uldma-timeseries-v1"; see docs/OBSERVABILITY.md).
     * No-op without enableSampling().
     */
    void dumpTimeseriesJson(std::ostream &os, bool pretty = true);

  private:
    bool allFinished() const;

    MachineConfig config_;
    EventQueue eventq_;
    Network network_;
    std::vector<std::unique_ptr<Node>> nodes_;
    stats::Registry statsRegistry_;
    std::unique_ptr<stats::Sampler> sampler_;
    Tick nextSampleAt_ = 0;
    std::function<bool(Tick)> runHook_;
};

} // namespace uldma

#endif // ULDMA_CORE_MACHINE_HH
