/**
 * @file
 * Replayable schedule files (schema "uldma-schedule-v1").
 *
 * A schedule is the complete recipe for one deterministic run of the
 * model checker's two-process scenario: which protocol, whether the
 * adversary injects shadow traffic, whether the recognizer is
 * weakened, and the exact victim-instruction boundaries at which the
 * scheduler preempts.  Together with the recorded outcome it is a
 * self-contained counterexample (or witness) that
 * `uldma_check --replay` re-executes byte-identically.
 */

#ifndef ULDMA_CHECK_SCHEDULE_HH
#define ULDMA_CHECK_SCHEDULE_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "check/invariants.hh"
#include "core/methods.hh"

namespace uldma::json {
class Value;
}

namespace uldma::check {

inline constexpr char scheduleSchema[] = "uldma-schedule-v1";

/** CLI tokens of the checked protocols: the four paper protocols in
 *  paper order, plus the descriptor-ring extension (docs/RING.md) and
 *  the capability family (docs/CAPABILITIES.md). */
inline constexpr const char *checkedProtocols[] = {
    "pal", "key-based", "ext-shadow", "repeated", "ring", "cap",
};

/** Map a protocol token to its DmaMethod (nullopt = unknown token). */
std::optional<DmaMethod> protocolMethod(const std::string &token);

/** Inverse of protocolMethod for the checked methods. */
const char *protocolToken(DmaMethod method);

/** One deterministic run of the checker scenario. */
struct Schedule
{
    std::string protocol;           ///< one of checkedProtocols
    bool faults = false;            ///< adversary shadow traffic in gaps
    bool weakRecognizer = false;    ///< test-only fault injection
    /** Test-only fault injection: disable the engine's ring frame
     *  check (absent in old schedule files, parsed as false). */
    bool weakRing = false;
    /** Ring descriptors carry virtual addresses translated by the
     *  engine's IOMMU (absent in old schedule files, parsed as
     *  false; docs/IOMMU.md). */
    bool iommu = false;
    /** Test-only fault injection: the engine uses the raw untranslated
     *  address on an IOMMU fault (absent in old files, parsed as
     *  false; implies iommu). */
    bool weakIommu = false;
    /** Test-only fault injection: capability presentations start
     *  without consulting the table (absent in old files, parsed as
     *  false; only meaningful with protocol "cap";
     *  docs/CAPABILITIES.md). */
    bool weakCap = false;
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
