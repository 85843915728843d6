#include "check/schedule.hh"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <iterator>
#include <ostream>
#include <sstream>
#include <string_view>

#include "sim/json.hh"

namespace uldma::check {

std::optional<DmaMethod>
protocolMethod(const std::string &token)
{
    for (const CheckedProtocol &p : checkedProtocols) {
        if (token == p.token)
            return p.method;
    }
    return std::nullopt;
}

const char *
protocolToken(DmaMethod method)
{
    for (const CheckedProtocol &p : checkedProtocols) {
        if (method == p.method)
            return p.token;
    }
    return "?";
}

std::string
toHex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

bool
parseHex(const std::string &s, std::uint64_t &v)
{
    // At most 16 digits: toHex never writes more, and no more fit.
    if (s.size() < 3 || s.size() > 18 || s.compare(0, 2, "0x") != 0)
        return false;
    std::uint64_t acc = 0;
    for (std::size_t i = 2; i < s.size(); ++i) {
        const char c = s[i];
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else
            return false;
        acc = (acc << 4) | static_cast<std::uint64_t>(digit);
    }
    v = acc;
    return true;
}

bool
parseCount(const json::Value &v, std::uint64_t &out)
{
    if (!v.isNumber())
        return false;
    const double d = v.asNumber();
    if (!(d >= 0.0 && d < 0x1p64 && d == std::floor(d)))
        return false;
    out = static_cast<std::uint64_t>(d);
    return true;
}

bool
isConfigMember(std::string_view name)
{
    return name == "protocol" ||
           std::any_of(std::begin(configFlags), std::end(configFlags),
                       [&](const ConfigFlag &f) { return name == f.name; });
}

const char *
configFlagsError(const RunnerConfig &config)
{
    const bool ring = config.method == DmaMethod::Ring;
    if ((config.useIommu || config.weakIommu) && !ring) {
        return "iommu and weakened_iommu (--iommu, --weaken-iommu) need "
               "protocol ring";
    }
    if (config.weakIommu && !config.useIommu)
        return "weakened_iommu needs iommu";
    if (config.weakRing && !ring)
        return "weakened_ring (--weaken-ring) needs protocol ring";
    if (config.weakCap && config.method != DmaMethod::Cap)
        return "weakened_cap (--weaken-cap) needs protocol cap";
    return nullptr;
}

void
writeConfigMembers(json::Writer &w, const RunnerConfig &config)
{
    w.member("protocol", protocolToken(config.method));
    for (const ConfigFlag &f : configFlags)
        w.member(f.name, config.*f.field);
}

void
writeScheduleMembers(json::Writer &w, const Schedule &schedule)
{
    writeConfigMembers(w, schedule.config);
    w.member("boundary_space", schedule.boundarySpace);
    w.key("preempt_after");
    w.beginArray();
    for (std::uint64_t b : schedule.preemptAfter)
        w.value(b);
    w.endArray();
}

void
writeOutcome(json::Writer &w, const Outcome &outcome)
{
    w.key("outcome");
    w.beginObject();
    w.member("finished", outcome.finished);
    w.member("status", toHex(outcome.status));
    w.member("initiations", outcome.initiations);
    w.member("state_hash", toHex(outcome.stateHash));
    w.key("violations");
    w.beginArray();
    for (const Violation &v : outcome.violations) {
        w.beginObject();
        w.member("invariant", v.invariant);
        w.member("detail", v.detail);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writeScheduleJson(std::ostream &os, const Schedule &schedule,
                  const Outcome &outcome)
{
    json::Writer w(os, /*pretty=*/true);
    w.beginObject();
    w.member("schema", scheduleSchema);
    writeScheduleMembers(w, schedule);
    writeOutcome(w, outcome);
    w.endObject();
    os << "\n";
}

namespace {

bool
fail(std::string *error, const std::string &msg)
{
    if (error != nullptr)
        *error = msg;
    return false;
}

/** The first member of object @p obj outside @p allowed (and, with
 *  @p config_members, outside the config members), or nullptr. */
const std::string *
unknownMember(const json::Value &obj,
              std::initializer_list<std::string_view> allowed,
              bool config_members = false)
{
    for (const auto &member : obj.asObject()) {
        if (std::find(allowed.begin(), allowed.end(), member.first) ==
                allowed.end() &&
            !(config_members && isConfigMember(member.first)))
            return &member.first;
    }
    return nullptr;
}

} // namespace

bool
parseConfigMembers(const json::Value &obj, RunnerConfig &config,
                   std::string *error)
{
    const json::Value &protocol = obj["protocol"];
    const auto method = protocol.isString()
                            ? protocolMethod(protocol.asString())
                            : std::nullopt;
    if (!method)
        return fail(error, "unknown protocol");
    config = RunnerConfig{};
    config.method = *method;
    for (const ConfigFlag &f : configFlags) {
        const json::Value &v = obj[f.name];
        if (v.isNull() && f.optional)
            continue;
        if (!v.isBool())
            return fail(error, std::string(f.name) + " must be a boolean");
        config.*f.field = v.asBool();
    }
    if (const char *rule = configFlagsError(config))
        return fail(error, rule);
    return true;
}

bool
parseScheduleMembers(const json::Value &obj, Schedule &schedule,
                     std::string *error)
{
    if (!parseConfigMembers(obj, schedule.config, error))
        return false;
    if (!parseCount(obj["boundary_space"], schedule.boundarySpace))
        return fail(error, "boundary_space must be a non-negative integer");
    const json::Value &pts = obj["preempt_after"];
    if (!pts.isArray())
        return fail(error, "preempt_after must be an array");
    schedule.preemptAfter.clear();
    for (std::size_t i = 0; i < pts.size(); ++i) {
        std::uint64_t v = 0;
        if (!parseCount(pts[i], v)) {
            return fail(error,
                        "preempt_after entries must be non-negative "
                        "integers");
        }
        if (v >= schedule.boundarySpace)
            return fail(error, "preempt_after entry out of range");
        if (i > 0 && v < schedule.preemptAfter.back())
            return fail(error, "preempt_after must be non-decreasing");
        schedule.preemptAfter.push_back(v);
    }
    return true;
}

bool
parseOutcome(const json::Value &obj, Outcome &outcome, std::string *error)
{
    if (!obj.isObject())
        return fail(error, "must be an object");
    if (const std::string *extra = unknownMember(
            obj, {"finished", "status", "initiations", "state_hash",
                  "violations"}))
        return fail(error, "unknown member '" + *extra + "'");
    if (!obj["finished"].isBool() ||
        !parseCount(obj["initiations"], outcome.initiations)) {
        return fail(error, "finished/initiations malformed");
    }
    if (!obj["status"].isString() ||
        !parseHex(obj["status"].asString(), outcome.status)) {
        return fail(error, "status must be a 0x hex string");
    }
    if (!obj["state_hash"].isString() ||
        !parseHex(obj["state_hash"].asString(), outcome.stateHash)) {
        return fail(error, "state_hash must be a 0x hex string");
    }
    if (!obj["violations"].isArray())
        return fail(error, "violations must be an array");
    outcome.finished = obj["finished"].asBool();
    outcome.violations.clear();
    for (std::size_t i = 0; i < obj["violations"].size(); ++i) {
        const json::Value &v = obj["violations"][i];
        if (!v["invariant"].isString() || !v["detail"].isString())
            return fail(error, "violation entries need invariant/detail");
        if (const std::string *extra =
                unknownMember(v, {"invariant", "detail"}))
            return fail(error, "violation: unknown member '" + *extra + "'");
        outcome.violations.push_back(
            {v["invariant"].asString(), v["detail"].asString()});
    }
    return true;
}

bool
parseScheduleJson(const std::string &text, Schedule &schedule,
                  Outcome &outcome, std::string *error)
{
    std::string perr;
    const json::Value doc = json::parse(text, &perr);
    if (!perr.empty())
        return fail(error, "JSON parse error: " + perr);
    return parseScheduleJson(doc, schedule, outcome, error);
}

bool
parseScheduleJson(const json::Value &doc, Schedule &schedule,
                  Outcome &outcome, std::string *error)
{
    if (!doc.isObject())
        return fail(error, "root is not an object");
    if (!doc["schema"].isString() ||
        doc["schema"].asString() != scheduleSchema) {
        return fail(error, "schema is not '" +
                               std::string(scheduleSchema) + "'");
    }
    if (const std::string *extra = unknownMember(
            doc, {"schema", "boundary_space", "preempt_after", "outcome"},
            /*config_members=*/true))
        return fail(error, "unknown member '" + *extra + "'");
    if (!parseScheduleMembers(doc, schedule, error))
        return false;
    std::string outcome_error;
    if (!parseOutcome(doc["outcome"], outcome, &outcome_error))
        return fail(error, "outcome: " + outcome_error);
    return true;
}

} // namespace uldma::check
