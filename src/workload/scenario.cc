#include "workload/scenario.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "dma/dma_params.hh"
#include "sim/json.hh"
#include "workload/generator.hh"

namespace uldma::workload {

namespace {

using json::Value;

/** Largest count a stream's unsigned "initiations" or "ops" holds. */
constexpr std::uint64_t maxCount = std::numeric_limits<unsigned>::max();

/** Failure helper: set *error (if any) and return false. */
bool
fail(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
    return false;
}

/** Every member of @p obj must be one of @p allowed. */
bool
checkKeys(const Value &obj, std::initializer_list<const char *> allowed,
          const std::string &where, std::string *error)
{
    for (const auto &[key, unused] : obj.asObject()) {
        (void)unused;
        const bool known =
            std::any_of(allowed.begin(), allowed.end(),
                        [&](const char *a) { return key == a; });
        if (!known)
            return fail(error, where + ": unknown member '" + key + "'");
    }
    return true;
}

/** Fetch a required/optional non-negative integer member. */
bool
getUint(const Value &obj, const char *key, std::uint64_t &out,
        bool required, const std::string &where, std::string *error)
{
    const Value &v = obj[key];
    if (v.isNull()) {
        if (required)
            return fail(error, where + ": missing member '" + key + "'");
        return true;
    }
    if (!v.isNumber())
        return fail(error, where + "." + key + " must be a number");
    const double d = v.asNumber();
    if (d < 0 || d != std::floor(d) || d > 9.0e15)
        return fail(error,
                    where + "." + key + " must be a non-negative integer");
    out = static_cast<std::uint64_t>(d);
    return true;
}

bool
getString(const Value &obj, const char *key, std::string &out,
          bool required, const std::string &where, std::string *error)
{
    const Value &v = obj[key];
    if (v.isNull()) {
        if (required)
            return fail(error, where + ": missing member '" + key + "'");
        return true;
    }
    if (!v.isString())
        return fail(error, where + "." + key + " must be a string");
    out = v.asString();
    return true;
}

bool
parseSize(const Value &v, SizeDist &out, Addr cap,
          const std::string &where, std::string *error)
{
    if (v.isNull())
        return true;    // keep the fixed-8-bytes default
    if (!v.isObject())
        return fail(error, where + " must be an object");
    if (!checkKeys(v, {"kind", "bytes", "min", "max", "sizes", "exponent"},
                   where, error))
        return false;

    std::string kind;
    if (!getString(v, "kind", kind, true, where, error))
        return false;

    if (kind == "fixed") {
        std::uint64_t bytes = 0;
        if (!getUint(v, "bytes", bytes, true, where, error))
            return false;
        if (bytes < 1 || bytes > cap)
            return fail(error, where + ".bytes must be in [1, " +
                                   std::to_string(cap) + "]");
        out.kind = SizeDist::Kind::Fixed;
        out.fixedBytes = bytes;
        return true;
    }
    if (kind == "uniform") {
        std::uint64_t lo = 0, hi = 0;
        if (!getUint(v, "min", lo, true, where, error) ||
            !getUint(v, "max", hi, true, where, error))
            return false;
        if (lo < 1 || hi > cap || lo > hi)
            return fail(error, where + ": need 1 <= min <= max <= " +
                                   std::to_string(cap));
        out.kind = SizeDist::Kind::Uniform;
        out.minBytes = lo;
        out.maxBytes = hi;
        return true;
    }
    if (kind == "zipf") {
        const Value &sizes = v["sizes"];
        if (!sizes.isArray() || sizes.size() == 0)
            return fail(error,
                        where + ".sizes must be a non-empty array");
        out.zipfSizes.clear();
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            const Value &s = sizes[i];
            if (!s.isNumber() || s.asNumber() < 1 ||
                s.asNumber() > static_cast<double>(cap) ||
                s.asNumber() != std::floor(s.asNumber())) {
                return fail(error, where + ".sizes[" + std::to_string(i) +
                                       "] must be an integer in [1, " +
                                       std::to_string(cap) +
                                       "]");
            }
            out.zipfSizes.push_back(static_cast<Addr>(s.asNumber()));
        }
        if (v.has("exponent")) {
            if (!v["exponent"].isNumber() ||
                v["exponent"].asNumber() <= 0.0)
                return fail(error, where + ".exponent must be > 0");
            out.zipfExponent = v["exponent"].asNumber();
        }
        out.kind = SizeDist::Kind::Zipf;
        return true;
    }
    return fail(error, where + ".kind must be fixed|uniform|zipf");
}

bool
parseInterval(const Value &v, IntervalDist &out, const std::string &where,
              std::string *error)
{
    if (!v.isObject())
        return fail(error, where + " must be an object");
    if (!checkKeys(v, {"kind", "us", "min_us", "max_us"}, where, error))
        return false;
    std::string kind;
    if (!getString(v, "kind", kind, true, where, error))
        return false;
    if (kind == "fixed") {
        out.kind = IntervalDist::Kind::Fixed;
        return getUint(v, "us", out.fixedUs, true, where, error);
    }
    if (kind == "uniform") {
        if (!getUint(v, "min_us", out.minUs, true, where, error) ||
            !getUint(v, "max_us", out.maxUs, true, where, error))
            return false;
        if (out.minUs > out.maxUs)
            return fail(error, where + ": need min_us <= max_us");
        out.kind = IntervalDist::Kind::Uniform;
        return true;
    }
    return fail(error, where + ".kind must be fixed|uniform");
}

bool
parsePacing(const Value &v, Pacing &out, const std::string &where,
            std::string *error)
{
    if (v.isNull())
        return true;    // keep closed-loop zero-think default
    if (!v.isObject())
        return fail(error, where + " must be an object");
    if (!checkKeys(v, {"kind", "think_us", "interval"}, where, error))
        return false;
    std::string kind;
    if (!getString(v, "kind", kind, true, where, error))
        return false;
    if (kind == "closed") {
        out.kind = Pacing::Kind::Closed;
        return getUint(v, "think_us", out.thinkUs, false, where, error);
    }
    if (kind == "open") {
        out.kind = Pacing::Kind::Open;
        if (!v.has("interval"))
            return fail(error, where + ": open pacing needs 'interval'");
        return parseInterval(v["interval"], out.interval,
                             where + ".interval", error);
    }
    return fail(error, where + ".kind must be closed|open");
}

bool
parseScheduler(const Value &v, SchedulerSpec &out,
               const std::string &where, std::string *error)
{
    if (v.isNull())
        return true;    // round-robin @ 100 us default
    if (!v.isObject())
        return fail(error, where + " must be an object");
    if (!checkKeys(v, {"kind", "quantum_us", "max_slice"}, where, error))
        return false;
    std::string kind;
    if (!getString(v, "kind", kind, true, where, error))
        return false;
    if (kind == "round-robin") {
        out.kind = SchedulerSpec::Kind::RoundRobin;
        if (!getUint(v, "quantum_us", out.quantumUs, false, where, error))
            return false;
        if (out.quantumUs < 1)
            return fail(error, where + ".quantum_us must be >= 1");
        return true;
    }
    if (kind == "random") {
        out.kind = SchedulerSpec::Kind::Random;
        if (!getUint(v, "max_slice", out.maxSlice, false, where, error))
            return false;
        if (out.maxSlice < 1)
            return fail(error, where + ".max_slice must be >= 1");
        return true;
    }
    return fail(error, where + ".kind must be round-robin|random");
}

bool
parseIotlb(const Value &v, IotlbSpec &out, const std::string &where,
           std::string *error)
{
    if (v.isNull())
        return true;    // no IOMMU (the byte-identical baseline)
    if (!v.isObject())
        return fail(error, where + " must be an object");
    if (!checkKeys(v,
                   {"entries", "ways", "hit_cycles", "miss_cycles",
                    "walk_cycles", "pinning", "pin_budget_pages", "fault"},
                   where, error))
        return false;

    std::uint64_t entries = out.entries, ways = out.ways;
    if (!getUint(v, "entries", entries, false, where, error) ||
        !getUint(v, "ways", ways, false, where, error))
        return false;
    if (entries < 1 || entries > 4096)
        return fail(error, where + ".entries must be in [1, 4096]");
    if (ways < 1 || ways > entries)
        return fail(error, where + ".ways must be in [1, entries]");
    out.entries = static_cast<unsigned>(entries);
    out.ways = static_cast<unsigned>(ways);

    if (!getUint(v, "hit_cycles", out.hitCycles, false, where, error) ||
        !getUint(v, "miss_cycles", out.missCycles, false, where, error) ||
        !getUint(v, "walk_cycles", out.walkCycles, false, where, error) ||
        !getUint(v, "pin_budget_pages", out.pinBudgetPages, false, where,
                 error))
        return false;

    if (!getString(v, "pinning", out.pinning, false, where, error))
        return false;
    if (out.pinning != "on-map" && out.pinning != "on-demand")
        return fail(error, where + ".pinning must be on-map|on-demand");
    if (!getString(v, "fault", out.fault, false, where, error))
        return false;
    if (out.fault != "abort" && out.fault != "trap")
        return fail(error, where + ".fault must be abort|trap");

    out.enabled = true;
    return true;
}

bool
parseCap(const Value &v, CapSpec &out, const std::string &where,
         std::string *error)
{
    if (v.isNull())
        return true;    // engine-default geometry
    if (!v.isObject())
        return fail(error, where + " must be an object");
    if (!checkKeys(v,
                   {"slots", "spans_per_slot", "rate_classes",
                    "check_cycles"},
                   where, error))
        return false;

    std::uint64_t slots = out.slots, spans = out.spansPerSlot;
    std::uint64_t classes = out.rateClasses;
    if (!getUint(v, "slots", slots, false, where, error) ||
        !getUint(v, "spans_per_slot", spans, false, where, error) ||
        !getUint(v, "rate_classes", classes, false, where, error) ||
        !getUint(v, "check_cycles", out.checkCycles, false, where, error))
        return false;
    // The capword's slot field is 8 bits (capfield::slotBits).
    if (slots < 1 || slots > 256)
        return fail(error, where + ".slots must be in [1, 256]");
    if (spans < 1 || spans > 64)
        return fail(error, where + ".spans_per_slot must be in [1, 64]");
    if (classes < 1 || classes > 8)
        return fail(error, where + ".rate_classes must be in [1, 8]");
    out.slots = static_cast<unsigned>(slots);
    out.spansPerSlot = static_cast<unsigned>(spans);
    out.rateClasses = static_cast<unsigned>(classes);

    out.enabled = true;
    return true;
}

bool
parseStream(const Value &v, unsigned num_nodes, bool iommu,
            unsigned rate_classes, StreamSpec &out,
            const std::string &where, std::string *error)
{
    if (!v.isObject())
        return fail(error, where + " must be an object");
    if (!checkKeys(v,
                   {"name", "count", "node", "protocol", "adversarial",
                    "initiations", "ops", "size", "pacing", "slots",
                    "remote_node", "queue_depth", "sg_buffer",
                    "rate_class"},
                   where, error))
        return false;

    if (!getString(v, "name", out.name, true, where, error))
        return false;
    if (out.name.empty())
        return fail(error, where + ".name must be non-empty");

    std::uint64_t count = 1, node = 0, slots = 8;
    if (!getUint(v, "count", count, false, where, error) ||
        !getUint(v, "node", node, false, where, error) ||
        !getUint(v, "slots", slots, false, where, error))
        return false;
    if (count < 1 || count > 64)
        return fail(error, where + ".count must be in [1, 64]");
    if (node >= num_nodes)
        return fail(error, where + ".node out of range");
    if (slots < 1 || slots > 64)
        return fail(error, where + ".slots must be in [1, 64]");
    out.count = static_cast<unsigned>(count);
    out.node = static_cast<NodeId>(node);
    out.slots = static_cast<unsigned>(slots);

    std::string protocol;
    if (!getString(v, "protocol", protocol, true, where, error))
        return false;
    if (!parseMethodName(protocol, out.method))
        return fail(error, where + ".protocol: unknown protocol '" +
                               protocol + "'");

    if (v.has("adversarial")) {
        if (!v["adversarial"].isBool())
            return fail(error, where + ".adversarial must be a bool");
        out.adversarial = v["adversarial"].asBool();
    }

    if (out.adversarial) {
        for (const char *member : {"initiations", "size", "pacing",
                                   "remote_node"}) {
            if (v.has(member))
                return fail(error, where + "." + member +
                                       " not valid on an adversarial "
                                       "stream");
        }
        std::uint64_t ops = out.ops;
        if (!getUint(v, "ops", ops, false, where, error))
            return false;
        if (ops < 1 || ops > maxCount)
            return fail(error, where + ".ops must be in [1, 4294967295]");
        out.ops = static_cast<unsigned>(ops);
        return true;
    }

    if (v.has("ops"))
        return fail(error,
                    where + ".ops only valid on an adversarial stream");
    std::uint64_t initiations = 0;
    if (!getUint(v, "initiations", initiations, true, where, error))
        return false;
    if (initiations < 1 || initiations > maxCount)
        return fail(error,
                    where + ".initiations must be in [1, 4294967295]");
    out.initiations = static_cast<unsigned>(initiations);

    if (v.has("queue_depth")) {
        if (out.method != DmaMethod::Ring)
            return fail(error, where + ".queue_depth only valid on a "
                                       "ring-protocol stream");
        std::uint64_t depth = 1;
        if (!getUint(v, "queue_depth", depth, true, where, error))
            return false;
        if (depth < 1 || depth > 64)
            return fail(error,
                        where + ".queue_depth must be in [1, 64]");
        out.queueDepth = static_cast<unsigned>(depth);
    }

    if (v.has("sg_buffer")) {
        if (out.method != DmaMethod::Ring)
            return fail(error, where + ".sg_buffer only valid on a "
                                       "ring-protocol stream");
        if (!iommu)
            return fail(error, where + ".sg_buffer needs the scenario's "
                                       "'iotlb' member (the engine "
                                       "scatter-gathers only through the "
                                       "IOMMU)");
        std::uint64_t pages = 1;
        if (!getUint(v, "sg_buffer", pages, true, where, error))
            return false;
        if (pages < 1 || pages > 8)
            return fail(error, where + ".sg_buffer must be in [1, 8]");
        out.sgPages = static_cast<unsigned>(pages);
    }

    if (v.has("rate_class")) {
        if (out.method != DmaMethod::Cap)
            return fail(error, where + ".rate_class only valid on a "
                                       "cap-protocol stream");
        std::uint64_t rate = 0;
        if (!getUint(v, "rate_class", rate, true, where, error))
            return false;
        if (rate >= rate_classes)
            return fail(error, where + ".rate_class must be < " +
                                   std::to_string(rate_classes));
        out.rateClass = static_cast<unsigned>(rate);
    }

    // The engine caps one user transfer at a page; a scatter-gather
    // buffer lifts the cap to its page count (docs/IOMMU.md).
    const Addr size_cap = Addr(out.sgPages) * userMaxTransfer;
    if (!parseSize(v["size"], out.size, size_cap, where + ".size",
                   error) ||
        !parsePacing(v["pacing"], out.pacing, where + ".pacing", error))
        return false;

    if (v.has("remote_node")) {
        std::uint64_t remote = 0;
        if (!getUint(v, "remote_node", remote, true, where, error))
            return false;
        if (remote >= num_nodes)
            return fail(error, where + ".remote_node out of range");
        if (remote == out.node)
            return fail(error,
                        where + ".remote_node must differ from node");
        out.remoteNode = static_cast<int>(remote);
    }
    return true;
}

} // namespace

const char *
methodName(DmaMethod method)
{
    switch (method) {
      case DmaMethod::Kernel: return "kernel";
      case DmaMethod::Shrimp1: return "shrimp1";
      case DmaMethod::Shrimp2: return "shrimp2";
      case DmaMethod::Flash: return "flash";
      case DmaMethod::PalCode: return "pal";
      case DmaMethod::KeyBased: return "key-based";
      case DmaMethod::ExtShadow: return "ext-shadow";
      case DmaMethod::Repeated3: return "repeated3";
      case DmaMethod::Repeated4: return "repeated4";
      case DmaMethod::Repeated5: return "repeated5";
      case DmaMethod::Ring: return "ring";
      case DmaMethod::Cap: return "cap";
    }
    return "?";
}

bool
parseMethodName(const std::string &name, DmaMethod &out)
{
    for (DmaMethod method : allMethods) {
        if (name == methodName(method)) {
            out = method;
            return true;
        }
    }
    // Not in allMethods (paper-order sweeps stay paper-only), but a
    // legal scenario protocol.
    if (name == "ring") {
        out = DmaMethod::Ring;
        return true;
    }
    if (name == "cap") {
        out = DmaMethod::Cap;
        return true;
    }
    return false;
}

bool
parseScenario(const std::string &text, Scenario &out, std::string *error)
{
    std::string parse_error;
    const Value doc = json::parse(text, &parse_error);
    if (!parse_error.empty())
        return fail(error, "JSON parse error: " + parse_error);
    return parseScenario(doc, out, error);
}

bool
parseScenario(const Value &doc, Scenario &out, std::string *error)
{
    if (!doc.isObject())
        return fail(error, "scenario root must be an object");
    if (!checkKeys(doc,
                   {"schema", "name", "description", "nodes", "bus",
                    "cpu_mhz", "syscall_cycles", "scheduler", "iotlb",
                    "capability", "limit_us", "streams"},
                   "scenario", error))
        return false;

    std::string schema;
    if (!getString(doc, "schema", schema, true, "scenario", error))
        return false;
    if (schema != "uldma-scenario-v1")
        return fail(error, "schema must be 'uldma-scenario-v1', got '" +
                               schema + "'");

    Scenario scenario;
    if (!getString(doc, "name", scenario.name, true, "scenario", error))
        return false;
    if (scenario.name.empty())
        return fail(error, "scenario.name must be non-empty");
    if (!getString(doc, "description", scenario.description, false,
                   "scenario", error))
        return false;

    std::uint64_t nodes = 1;
    if (!getUint(doc, "nodes", nodes, false, "scenario", error))
        return false;
    if (nodes < 1 || nodes > 4)
        return fail(error, "scenario.nodes must be in [1, 4] (the NIC "
                           "window region supports 4 nodes)");
    scenario.nodes = static_cast<unsigned>(nodes);

    if (!getString(doc, "bus", scenario.bus, false, "scenario", error))
        return false;
    if (scenario.bus != "tc" && scenario.bus != "pci33" &&
        scenario.bus != "pci66")
        return fail(error, "scenario.bus must be tc|pci33|pci66");

    if (!getUint(doc, "cpu_mhz", scenario.cpuMhz, false, "scenario",
                 error))
        return false;
    // A clock period is tickPerUs / MHz ticks: past tickPerUs MHz it
    // would round to 0.
    if (scenario.cpuMhz < 1 || scenario.cpuMhz > tickPerUs)
        return fail(error, "scenario.cpu_mhz must be in [1, " +
                               std::to_string(tickPerUs) + "]");

    std::uint64_t syscall_cycles = scenario.syscallCycles;
    if (!getUint(doc, "syscall_cycles", syscall_cycles, false, "scenario",
                 error))
        return false;
    if (syscall_cycles < 1)
        return fail(error, "scenario.syscall_cycles must be >= 1");
    scenario.syscallCycles = syscall_cycles;

    if (!parseScheduler(doc["scheduler"], scenario.scheduler,
                        "scenario.scheduler", error))
        return false;

    if (!parseIotlb(doc["iotlb"], scenario.iotlb, "scenario.iotlb",
                    error))
        return false;

    if (!parseCap(doc["capability"], scenario.cap, "scenario.capability",
                  error))
        return false;

    if (!getUint(doc, "limit_us", scenario.limitUs, false, "scenario",
                 error))
        return false;
    if (scenario.limitUs < 1)
        return fail(error, "scenario.limit_us must be >= 1");

    const Value &streams = doc["streams"];
    if (!streams.isArray() || streams.size() == 0)
        return fail(error, "scenario.streams must be a non-empty array");
    std::uint64_t work = 0;
    for (std::size_t i = 0; i < streams.size(); ++i) {
        const std::string where = "streams[" + std::to_string(i) + "]";
        StreamSpec spec;
        if (!parseStream(streams[i], scenario.nodes,
                         scenario.iotlb.enabled, scenario.cap.rateClasses,
                         spec, where, error))
            return false;
        for (const StreamSpec &prior : scenario.streams) {
            if (prior.name == spec.name)
                return fail(error, where + ": duplicate stream name '" +
                                       spec.name + "'");
        }
        work += std::uint64_t(spec.count) *
                (spec.adversarial ? spec.ops : spec.initiations);
        if (work > maxScenarioWork)
            return fail(error,
                        where + (spec.adversarial ? ".ops" : ".initiations") +
                            ": the streams so far ask for " +
                            std::to_string(work) +
                            " initiations and ops (count x each), more "
                            "than the scenario limit of " +
                            std::to_string(maxScenarioWork));
        scenario.streams.push_back(std::move(spec));
    }

    // Surface per-node engine-mode conflicts at parse time.
    std::vector<std::vector<DmaMethod>> per_node;
    if (!deriveNodeMethods(scenario, per_node, error))
        return false;

    // Every replica's pages must fit its node's DRAM, or spawning
    // would run the kernel out of physical memory.
    const Addr node_frames =
        NodeConfig{}.memBytes / pageSize - Kernel::reservedFrames;
    const std::vector<Addr> frames = framesPerNode(scenario);
    for (unsigned n = 0; n < scenario.nodes; ++n) {
        if (frames[n] > node_frames)
            return fail(error, "node " + std::to_string(n) +
                                   ": the streams take " +
                                   std::to_string(frames[n]) +
                                   " frames, more than the " +
                                   std::to_string(node_frames) +
                                   " the node has");
    }

    out = std::move(scenario);
    return true;
}

bool
loadScenarioFile(const std::string &path, Scenario &out,
                 std::string *error)
{
    std::ifstream in(path);
    if (!in)
        return fail(error, path + ": cannot open");
    std::ostringstream ss;
    ss << in.rdbuf();
    return parseScenario(ss.str(), out, error);
}

bool
deriveNodeMethods(const Scenario &scenario,
                  std::vector<std::vector<DmaMethod>> &per_node,
                  std::string *error)
{
    per_node.assign(scenario.nodes, {});
    for (const StreamSpec &stream : scenario.streams) {
        if (stream.method == DmaMethod::Kernel)
            continue;    // the kernel channel works in any engine mode
        auto &methods = per_node.at(stream.node);
        const EngineMode mode = engineModeFor(stream.method);
        for (DmaMethod prior : methods) {
            if (engineModeFor(prior) != mode) {
                return fail(
                    error,
                    "streams '" + stream.name + "': protocol " +
                        methodName(stream.method) + " needs engine mode " +
                        toString(mode) + " but node " +
                        std::to_string(stream.node) + " already runs " +
                        toString(engineModeFor(prior)) + " (for " +
                        methodName(prior) + ") — put them on different "
                        "nodes");
            }
        }
        if (std::find(methods.begin(), methods.end(), stream.method) ==
            methods.end())
            methods.push_back(stream.method);
    }
    return true;
}

} // namespace uldma::workload
