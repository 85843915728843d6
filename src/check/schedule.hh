/**
 * @file
 * Replayable schedule files (schema "uldma-schedule-v1").
 *
 * A schedule is the complete recipe for one deterministic run of the
 * model checker's two-process scenario: the scenario knobs (protocol,
 * adversary shadow traffic, fault injections) and the exact
 * victim-instruction boundaries at which the scheduler preempts.
 * Together with the recorded outcome it is a self-contained
 * counterexample (or witness) that `uldma_check --replay` re-executes
 * byte-identically.
 *
 * The JSON members of a RunnerConfig, of a schedule's boundaries and of
 * an Outcome each have one writer and one parser here; the
 * uldma-schedule-v1 document and the uldma-fuzz-v1 report's config and
 * finding rows are built from them.
 */

#ifndef ULDMA_CHECK_SCHEDULE_HH
#define ULDMA_CHECK_SCHEDULE_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "check/invariants.hh"
#include "core/methods.hh"

namespace uldma::json {
class Value;
class Writer;
}

namespace uldma::check {

inline constexpr char scheduleSchema[] = "uldma-schedule-v1";

/** A checked protocol and its CLI (and schedule-file) token. */
struct CheckedProtocol
{
    const char *token;
    DmaMethod method;
};

/** The checked protocols: the four paper protocols in paper order,
 *  plus the descriptor-ring extension (docs/RING.md) and the
 *  capability family (docs/CAPABILITIES.md). */
inline constexpr CheckedProtocol checkedProtocols[] = {
    {"pal", DmaMethod::PalCode},
    {"key-based", DmaMethod::KeyBased},
    {"ext-shadow", DmaMethod::ExtShadow},
    {"repeated", DmaMethod::Repeated5},
    {"ring", DmaMethod::Ring},
    {"cap", DmaMethod::Cap},
};

/** Map a protocol token to its DmaMethod (nullopt = unknown token). */
std::optional<DmaMethod> protocolMethod(const std::string &token);

/** Inverse of protocolMethod for the checked methods ("?" otherwise). */
const char *protocolToken(DmaMethod method);

/** Scenario knobs shared by every run of one exploration. */
struct RunnerConfig
{
    DmaMethod method = DmaMethod::Repeated5;
    /** Adversary issues protocol-specific shadow traffic in each gap
     *  (forged keys, dangling stores, competing sequences) instead of
     *  benign compute. */
    bool faults = false;
    /** Engine fault injection: weakened §3.3 recognizer. */
    bool weakRecognizer = false;
    /** Engine fault injection: ring frame check disabled. */
    bool weakRing = false;
    /** Route ring descriptors through the IOMMU: descriptors carry
     *  virtual addresses, the engine translates via its I/O page table
     *  (docs/IOMMU.md). */
    bool useIommu = false;
    /** Engine fault injection: on a translation fault the engine uses
     *  the raw untranslated address instead of aborting (implies
     *  useIommu). */
    bool weakIommu = false;
    /** Engine fault injection: capability presentations start without
     *  consulting the table — forged secrets, revoked generations and
     *  span escapes all go through (docs/CAPABILITIES.md; requires
     *  method == DmaMethod::Cap). */
    bool weakCap = false;
};

/** One boolean RunnerConfig knob and its JSON member name. */
struct ConfigFlag
{
    const char *name;
    bool RunnerConfig::*field;
    /** Postdates the first schedule files: absent reads as false. */
    bool optional;
};

/** RunnerConfig's boolean knobs in writing order; the "protocol"
 *  member (the token of `method`) precedes them. */
inline constexpr ConfigFlag configFlags[] = {
    {"faults", &RunnerConfig::faults, false},
    {"weakened_recognizer", &RunnerConfig::weakRecognizer, false},
    {"weakened_ring", &RunnerConfig::weakRing, true},
    {"iommu", &RunnerConfig::useIommu, true},
    {"weakened_iommu", &RunnerConfig::weakIommu, true},
    {"weakened_cap", &RunnerConfig::weakCap, true},
};

/** True when @p name is a member writeConfigMembers writes. */
bool isConfigMember(std::string_view name);

/**
 * Why @p config combines flags its protocol does not take, or nullptr
 * when it is valid: `iommu` and `weakened_iommu` need ring,
 * `weakened_iommu` needs `iommu`, `weakened_ring` needs ring and
 * `weakened_cap` needs cap.  The config parser and uldma_check's
 * flags both apply these rules.
 */
const char *configFlagsError(const RunnerConfig &config);

/** One deterministic run of the checker scenario. */
struct Schedule
{
    RunnerConfig config;
    /** Number of distinct preemption positions (0..initiation length). */
    std::uint64_t boundarySpace = 0;
    /** Non-decreasing absolute victim instruction counts; a repeated
     *  value preempts twice at the same boundary. */
    std::vector<std::uint64_t> preemptAfter;
};

/** What a run of a Schedule produced. */
struct Outcome
{
    bool finished = false;          ///< every process ran to completion
    std::uint64_t status = 0;       ///< victim's final reg::v0
    std::uint64_t initiations = 0;  ///< transfers the engine started
    std::uint64_t stateHash = 0;    ///< engine stateHash() after the run
    std::vector<Violation> violations;

    bool
    operator==(const Outcome &o) const
    {
        return finished == o.finished && status == o.status &&
               initiations == o.initiations && stateHash == o.stateHash &&
               violations == o.violations;
    }
};

/** "0x..." rendering used for 64-bit fields (JSON numbers are doubles
 *  and cannot carry 64 bits losslessly). */
std::string toHex(std::uint64_t v);
bool parseHex(const std::string &s, std::uint64_t &v);

/** Read @p v into @p out if it is a non-negative integer that fits in
 *  uint64_t; casting any other double is lossy or undefined. */
bool parseCount(const json::Value &v, std::uint64_t &out);

/// @name Member writers, shared by every document that records a run.
/// @{
/** "protocol" and every configFlags member. */
void writeConfigMembers(json::Writer &w, const RunnerConfig &config);
/** The config members, then "boundary_space" and "preempt_after". */
void writeScheduleMembers(json::Writer &w, const Schedule &schedule);
/** The "outcome" member and its object. */
void writeOutcome(json::Writer &w, const Outcome &outcome);
/// @}

/// @name Member parsers, the inverses of the writers.  They read only
/// the members they own, so unknown members are the caller's check.
/// Each returns false (with @p error set) on malformed input.
/// @{
bool parseConfigMembers(const json::Value &obj, RunnerConfig &config,
                        std::string *error);
bool parseScheduleMembers(const json::Value &obj, Schedule &schedule,
                          std::string *error);
/** @p obj is the outcome object itself; it is strict. */
bool parseOutcome(const json::Value &obj, Outcome &outcome,
                  std::string *error);
/// @}

/** Serialise schedule + outcome as one uldma-schedule-v1 document.
 *  Deterministic: the same inputs always produce the same bytes. */
void writeScheduleJson(std::ostream &os, const Schedule &schedule,
                       const Outcome &outcome);

/**
 * Parse an uldma-schedule-v1 document, from its text or from its
 * parsed JSON.  Strict: an unknown member at any level is an error.
 * `uldma_check --replay` and `uldma_trace_tool validate` both use it.
 * @return false (with @p error set) on malformed input.
 */
bool parseScheduleJson(const std::string &text, Schedule &schedule,
                       Outcome &outcome, std::string *error);
bool parseScheduleJson(const json::Value &doc, Schedule &schedule,
                       Outcome &outcome, std::string *error);

} // namespace uldma::check

#endif // ULDMA_CHECK_SCHEDULE_HH
