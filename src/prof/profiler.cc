#include "prof/profiler.hh"

#include <algorithm>
#include <chrono>

#include "sim/json.hh"
#include "util/logging.hh"

namespace uldma::prof {

namespace detail { thread_local bool profCaptureEnabled = false; }

namespace {

std::uint64_t
hostNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

Profiler &
profiler()
{
    static thread_local Profiler instance;
    return instance;
}

void
Profiler::enable()
{
    clear();
    enabled_ = true;
    detail::profCaptureEnabled = true;
}

void
Profiler::disable()
{
    enabled_ = false;
    detail::profCaptureEnabled = false;
    nodes_.clear();
    nodes_.shrink_to_fit();
    stack_.clear();
    stack_.shrink_to_fit();
    entered_ = 0;
}

void
Profiler::clear()
{
    nodes_.clear();
    nodes_.resize(1);  // synthetic root
    stack_.clear();
    entered_ = 0;
}

void
Profiler::setTickSource(std::function<Tick()> source)
{
    tickSource_ = std::move(source);
}

void
Profiler::clearTickSource()
{
    tickSource_ = nullptr;
}

std::uint32_t
Profiler::childOf(std::uint32_t parent, const char *name)
{
    // Linear scan: instrumented call trees are shallow and narrow
    // (tens of distinct scopes), so this beats a hash map on both
    // speed and determinism of child order.
    for (std::uint32_t idx : nodes_[parent].children) {
        if (nodes_[idx].name == name)
            return idx;
    }
    const auto idx = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(NodeRec{});
    nodes_.back().name = name;
    nodes_[parent].children.push_back(idx);
    return idx;
}

void
Profiler::enter(const char *name)
{
    if (!enabled_)
        return;
    if (nodes_.empty())
        nodes_.resize(1);
    const std::uint32_t parent = stack_.empty() ? 0 : stack_.back().node;
    Frame frame;
    frame.node = childOf(parent, name);
    frame.startNs = hostNowNs();
    frame.startTick = tickSource_ ? tickSource_() : 0;
    stack_.push_back(frame);
    ++entered_;
}

void
Profiler::exit()
{
    if (!enabled_ || stack_.empty())
        return;
    const Frame frame = stack_.back();
    stack_.pop_back();
    NodeRec &rec = nodes_[frame.node];
    ++rec.count;
    const std::uint64_t end_ns = hostNowNs();
    if (end_ns > frame.startNs)
        rec.hostNs += end_ns - frame.startNs;
    if (tickSource_) {
        const Tick end_tick = tickSource_();
        if (end_tick > frame.startTick)
            rec.ticks += end_tick - frame.startTick;
    }
}

ProfileNode
Profiler::snapshot() const
{
    // Recursive copy of the flat arena into the export tree.
    struct Copier
    {
        const std::vector<NodeRec> &nodes;

        ProfileNode
        copy(std::uint32_t idx) const
        {
            const NodeRec &rec = nodes[idx];
            ProfileNode out;
            out.name = rec.name;
            out.count = rec.count;
            out.hostNs = rec.hostNs;
            out.ticks = rec.ticks;
            out.children.reserve(rec.children.size());
            for (std::uint32_t child : rec.children)
                out.children.push_back(copy(child));
            return out;
        }
    };

    if (nodes_.empty())
        return ProfileNode{};
    return Copier{nodes_}.copy(0);
}

namespace {

std::uint64_t
childrenSumNs(const ProfileNode &node)
{
    std::uint64_t sum = 0;
    for (const ProfileNode &child : node.children)
        sum += child.hostNs;
    return sum;
}

std::uint64_t
childrenSumTicks(const ProfileNode &node)
{
    std::uint64_t sum = 0;
    for (const ProfileNode &child : node.children)
        sum += child.ticks;
    return sum;
}

std::uint64_t
exclusiveOf(std::uint64_t inclusive, std::uint64_t children)
{
    return inclusive > children ? inclusive - children : 0;
}

std::uint64_t
totalCount(const ProfileNode &node)
{
    std::uint64_t sum = node.name.empty() ? 0 : node.count;
    for (const ProfileNode &child : node.children)
        sum += totalCount(child);
    return sum;
}

void
writeNode(json::Writer &w, const ProfileNode &node, bool include_host)
{
    w.beginObject();
    w.member("name", node.name);
    w.member("count", node.count);
    w.member("inclusive_ticks", node.ticks);
    w.member("exclusive_ticks",
             exclusiveOf(node.ticks, childrenSumTicks(node)));
    if (include_host) {
        w.member("inclusive_ns", node.hostNs);
        w.member("exclusive_ns",
                 exclusiveOf(node.hostNs, childrenSumNs(node)));
    }
    w.key("children");
    w.beginArray();
    for (const ProfileNode &child : node.children)
        writeNode(w, child, include_host);
    w.endArray();
    w.endObject();
}

} // namespace

void
writeProfileJson(std::ostream &os, const ProfileNode &root,
                 bool include_host)
{
    json::Writer w(os);
    w.beginObject();
    w.member("schema", "uldma-profile-v1");
    w.member("scopes", totalCount(root));
    w.member("host_time", include_host);
    w.key("tree");
    w.beginArray();
    for (const ProfileNode &child : root.children)
        writeNode(w, child, include_host);
    w.endArray();
    w.endObject();
    os << "\n";
}

namespace {

void
writeCollapsedNode(std::ostream &os, const ProfileNode &node,
                   const std::string &prefix, bool host_weight)
{
    const std::string path =
        prefix.empty() ? node.name : prefix + ";" + node.name;
    const std::uint64_t weight = host_weight
        ? exclusiveOf(node.hostNs, childrenSumNs(node))
        : node.count;
    if (weight > 0)
        os << path << " " << weight << "\n";
    for (const ProfileNode &child : node.children)
        writeCollapsedNode(os, child, path, host_weight);
}

} // namespace

void
writeCollapsedProfile(std::ostream &os, const ProfileNode &root,
                      bool host_weight)
{
    for (const ProfileNode &child : root.children)
        writeCollapsedNode(os, child, "", host_weight);
}

namespace {

void
mergeInto(ProfileNode &dst, const ProfileNode &src)
{
    dst.count += src.count;
    dst.hostNs += src.hostNs;
    dst.ticks += src.ticks;
    for (const ProfileNode &src_child : src.children) {
        ProfileNode *match = nullptr;
        for (ProfileNode &dst_child : dst.children) {
            if (dst_child.name == src_child.name) {
                match = &dst_child;
                break;
            }
        }
        if (match) {
            mergeInto(*match, src_child);
        } else {
            dst.children.push_back(src_child);
        }
    }
}

} // namespace

ProfileNode
mergeProfiles(const std::vector<ProfileNode> &roots)
{
    ProfileNode merged;
    for (const ProfileNode &root : roots)
        mergeInto(merged, root);
    return merged;
}

} // namespace uldma::prof
