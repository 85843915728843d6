#include "core/machine.hh"

#include "prof/profiler.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace uldma {

Node::Node(EventQueue &eq, Network &network, NodeId id,
           const NodeConfig &config)
    : id_(id)
{
    const std::string prefix = csprintf("node%u", id);

    memory_ = std::make_unique<PhysicalMemory>(config.memBytes);
    bus_ = std::make_unique<Bus>(eq, prefix + ".bus", config.bus);

    const NodeId network_id = network.addNode(*memory_);
    ULDMA_ASSERT(network_id == id, "node id mismatch with network");

    memoryDevice_ =
        std::make_unique<MemoryDevice>(prefix + ".dram", *memory_);
    nic_ = std::make_unique<NetworkInterface>(prefix + ".nic", config.nic,
                                              bus_->clockDomain(), network,
                                              id, *memory_);
    engine_ = std::make_unique<DmaEngine>(eq, prefix + ".dma",
                                          bus_->clockDomain(), config.dma,
                                          *nic_);
    engine_->setLocalMemory(memory_.get());
    atomicUnit_ = std::make_unique<AtomicUnit>(prefix + ".atomic",
                                               config.atomic,
                                               bus_->clockDomain(), *nic_);

    bus_->attach(memoryDevice_.get());
    bus_->attach(nic_.get());
    bus_->attach(engine_.get());
    bus_->attach(atomicUnit_.get());

    // The DMA engine steals bus cycles from the CPU while streaming
    // (only charged when BusParams::dmaContentionCycles is nonzero).
    DmaEngine *engine_ptr = engine_.get();
    EventQueue *eq_ptr = &eq;
    bus_->addContentionSource([engine_ptr, eq_ptr]() {
        return eq_ptr->now() <
               engine_ptr->transferEngine().busyUntil();
    });

    cpu_ = std::make_unique<Cpu>(eq, prefix + ".cpu", config.cpu, *bus_,
                                 *memory_, id);

    scheduler_ = config.makeScheduler
                     ? config.makeScheduler()
                     : std::make_unique<RoundRobinScheduler>();
    kernel_ = std::make_unique<Kernel>(prefix + ".kernel", *cpu_,
                                       *scheduler_, config.kernel);
    kernel_->setDmaEngine(engine_.get());
    kernel_->setAtomicUnit(atomicUnit_.get());
    kernel_->setNic(nic_.get());
}

void
Node::registerStats(stats::Registry &registry)
{
    // Same order as the historical text dump, so both renderings list
    // components identically.
    bus_->registerStats(registry);
    cpu_->registerStats(registry);
    kernel_->registerStats(registry);
    engine_->registerStats(registry);
    atomicUnit_->registerStats(registry);
    nic_->registerStats(registry);
}

Machine::Machine(const MachineConfig &config)
    : config_(config), network_(eventq_)
{
    ULDMA_ASSERT(config.numNodes >= 1, "need at least one node");
    ULDMA_ASSERT(config.perNode.empty() ||
                     config.perNode.size() == config.numNodes,
                 "perNode configuration list must match numNodes");
    ULDMA_ASSERT(config.numNodes <= maxNodes,
                 "more nodes than the NIC window region supports");
    for (unsigned i = 0; i < config.numNodes; ++i) {
        nodes_.push_back(std::make_unique<Node>(
            eventq_, network_, static_cast<NodeId>(i),
            config.nodeConfig(i)));
    }
    network_.registerStats(statsRegistry_);
    for (auto &node : nodes_)
        node->registerStats(statsRegistry_);
}

void
Machine::start()
{
    for (auto &node : nodes_)
        node->kernel().scheduleFirst();
}

bool
Machine::allFinished() const
{
    for (const auto &node : nodes_) {
        if (!node->kernel().allFinished())
            return false;
    }
    return true;
}

bool
Machine::run(Tick limit)
{
    ULDMA_PROF_SCOPE("machine.run");
    // While profiling, let scopes attribute simulated ticks as well as
    // host time.  The guard restores the previous source on every
    // return path below.
    prof::TickSourceScope prof_ticks([this] { return now(); });
    // While nothing observes the boundaries between events (sampler,
    // run hook, profile capture), a CPU runs its next op in place when
    // no other event can come first (EventQueue::advanceInline).  The
    // event order is the same either way.  The guard turns inlining
    // back off on every return path.
    struct InlineHorizon
    {
        EventQueue &eq;
        ~InlineHorizon() { eq.setInlineHorizon(0); }
    } inline_horizon{eventq_};
    if (!sampler_ && !runHook_ && !prof::captureOn())
        eventq_.setInlineHorizon(limit);
    while (eventq_.nextEventTick() <= limit) {
        {
            ULDMA_PROF_SCOPE("machine.step");
            eventq_.step();
        }
        // Sampling is driven from the run loop (not scheduled events,
        // which would keep the queue nonempty forever): the snapshot
        // for boundary k*interval is taken at the first event boundary
        // at or after it and stamped with the boundary tick.
        if (sampler_) {
            while (now() >= nextSampleAt_) {
                sampler_->sample(nextSampleAt_);
                nextSampleAt_ += sampler_->interval();
            }
        }
        if (allFinished() && eventq_.empty())
            return true;
        if (runHook_ && !runHook_(now()))
            return allFinished();
    }
    return allFinished();
}

void
Machine::enableSampling(Tick interval, std::vector<std::string> prefixes)
{
    sampler_ = std::make_unique<stats::Sampler>(statsRegistry_, interval,
                                                std::move(prefixes));
    nextSampleAt_ = now() + interval;
}

void
Machine::dumpTimeseriesJson(std::ostream &os, bool pretty)
{
    if (sampler_)
        sampler_->exportJson(os, pretty);
}

void
Machine::dumpStats(std::ostream &os)
{
    statsRegistry_.dump(os);
}

void
Machine::dumpStatsJson(std::ostream &os, bool pretty)
{
    statsRegistry_.dumpJson(os, pretty);
}

} // namespace uldma
