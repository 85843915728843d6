#include "check/schedule.hh"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <ostream>
#include <sstream>
#include <string_view>

#include "sim/json.hh"

namespace uldma::check {

std::optional<DmaMethod>
protocolMethod(const std::string &token)
{
    if (token == "pal")
        return DmaMethod::PalCode;
    if (token == "key-based")
        return DmaMethod::KeyBased;
    if (token == "ext-shadow")
        return DmaMethod::ExtShadow;
    if (token == "repeated")
        return DmaMethod::Repeated5;
    if (token == "ring")
        return DmaMethod::Ring;
    if (token == "cap")
        return DmaMethod::Cap;
    return std::nullopt;
}

const char *
protocolToken(DmaMethod method)
{
    switch (method) {
      case DmaMethod::PalCode: return "pal";
      case DmaMethod::KeyBased: return "key-based";
      case DmaMethod::ExtShadow: return "ext-shadow";
      case DmaMethod::Repeated5: return "repeated";
      case DmaMethod::Ring: return "ring";
      case DmaMethod::Cap: return "cap";
      default: return "?";
    }
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

void
writeScheduleJson(std::ostream &os, const Schedule &schedule,
                  const Outcome &outcome)
{
    json::Writer w(os, /*pretty=*/true);
    w.beginObject();
    w.member("schema", scheduleSchema);
    w.member("protocol", schedule.protocol);
    w.member("faults", schedule.faults);
    w.member("weakened_recognizer", schedule.weakRecognizer);
    w.member("weakened_ring", schedule.weakRing);
    w.member("iommu", schedule.iommu);
    w.member("weakened_iommu", schedule.weakIommu);
    w.member("weakened_cap", schedule.weakCap);
    w.member("boundary_space", schedule.boundarySpace);
    w.key("preempt_after");
    w.beginArray();
    for (std::uint64_t b : schedule.preemptAfter)
        w.value(b);
    w.endArray();
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

/** Read @p v into @p out if it is a non-negative integer that fits in
 *  uint64_t; casting any other double is lossy or undefined. */
bool
getCount(const json::Value &v, std::uint64_t &out)
{
    if (!v.isNumber())
        return false;
    const double d = v.asNumber();
    if (!(d >= 0.0 && d < 0x1p64 && d == std::floor(d)))
        return false;
    out = static_cast<std::uint64_t>(d);
    return true;
}

/** The first member of object @p obj outside @p allowed, or nullptr. */
const std::string *
unknownMember(const json::Value &obj,
              std::initializer_list<std::string_view> allowed)
{
    for (const auto &member : obj.asObject()) {
        if (std::find(allowed.begin(), allowed.end(), member.first) ==
            allowed.end())
            return &member.first;
    }
    return nullptr;
}

} // namespace

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
            doc, {"schema", "protocol", "faults", "weakened_recognizer",
                  "weakened_ring", "iommu", "weakened_iommu",
                  "weakened_cap", "boundary_space", "preempt_after",
                  "outcome"}))
        return fail(error, "unknown member '" + *extra + "'");
    if (!doc["protocol"].isString() ||
        !protocolMethod(doc["protocol"].asString())) {
        return fail(error, "unknown protocol");
    }
    if (!doc["faults"].isBool() || !doc["weakened_recognizer"].isBool())
        return fail(error, "faults/weakened_recognizer must be booleans");
    // weakened_ring is optional (schedules predating the descriptor
    // ring omit it); when present it must be a boolean.
    if (!doc["weakened_ring"].isNull() && !doc["weakened_ring"].isBool())
        return fail(error, "weakened_ring must be a boolean");
    // iommu/weakened_iommu likewise postdate the original schema and
    // parse as false when absent.
    if (!doc["iommu"].isNull() && !doc["iommu"].isBool())
        return fail(error, "iommu must be a boolean");
    if (!doc["weakened_iommu"].isNull() && !doc["weakened_iommu"].isBool())
        return fail(error, "weakened_iommu must be a boolean");
    // weakened_cap postdates the original schema too.
    if (!doc["weakened_cap"].isNull() && !doc["weakened_cap"].isBool())
        return fail(error, "weakened_cap must be a boolean");
    if (!getCount(doc["boundary_space"], schedule.boundarySpace))
        return fail(error, "boundary_space must be a non-negative integer");
    if (!doc["preempt_after"].isArray())
        return fail(error, "preempt_after must be an array");

    schedule.protocol = doc["protocol"].asString();
    schedule.faults = doc["faults"].asBool();
    schedule.weakRecognizer = doc["weakened_recognizer"].asBool();
    schedule.weakRing = doc["weakened_ring"].isBool()
                            ? doc["weakened_ring"].asBool()
                            : false;
    schedule.iommu = doc["iommu"].isBool() ? doc["iommu"].asBool() : false;
    schedule.weakIommu = doc["weakened_iommu"].isBool()
                             ? doc["weakened_iommu"].asBool()
                             : false;
    if (schedule.weakIommu)
        schedule.iommu = true;
    schedule.weakCap = doc["weakened_cap"].isBool()
                           ? doc["weakened_cap"].asBool()
                           : false;
    schedule.preemptAfter.clear();
    std::uint64_t last = 0;
    for (std::size_t i = 0; i < doc["preempt_after"].size(); ++i) {
        std::uint64_t v = 0;
        if (!getCount(doc["preempt_after"][i], v)) {
            return fail(error,
                        "preempt_after entries must be non-negative "
                        "integers");
        }
        if (v >= schedule.boundarySpace)
            return fail(error, "preempt_after entry out of range");
        if (i > 0 && v < last)
            return fail(error, "preempt_after must be non-decreasing");
        last = v;
        schedule.preemptAfter.push_back(v);
    }

    const json::Value &oc = doc["outcome"];
    if (!oc.isObject())
        return fail(error, "outcome must be an object");
    if (const std::string *extra = unknownMember(
            oc, {"finished", "status", "initiations", "state_hash",
                 "violations"}))
        return fail(error, "outcome: unknown member '" + *extra + "'");
    if (!oc["finished"].isBool() ||
        !getCount(oc["initiations"], outcome.initiations)) {
        return fail(error, "outcome.finished/initiations malformed");
    }
    if (!oc["status"].isString() ||
        !parseHex(oc["status"].asString(), outcome.status)) {
        return fail(error, "outcome.status must be a 0x hex string");
    }
    if (!oc["state_hash"].isString() ||
        !parseHex(oc["state_hash"].asString(), outcome.stateHash)) {
        return fail(error, "outcome.state_hash must be a 0x hex string");
    }
    if (!oc["violations"].isArray())
        return fail(error, "outcome.violations must be an array");
    outcome.finished = oc["finished"].asBool();
    outcome.violations.clear();
    for (std::size_t i = 0; i < oc["violations"].size(); ++i) {
        const json::Value &v = oc["violations"][i];
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

} // namespace uldma::check
