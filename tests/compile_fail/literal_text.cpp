/**
 * @file
 * Stat names, stat descriptions and micro-op labels are held by
 * pointer (uldma::Literal), so only text with static storage may be
 * passed.  Compiled as is, this file must fail: it passes a
 * std::string's c_str() and a local char array as a stat name and as
 * an op label.  With -DLITERAL it passes string literals instead and
 * must compile, which shows the failure comes from those calls.
 */

#include <string>

#include "cpu/program.hh"
#include "sim/stats.hh"

namespace uldma {

void
registerAndLabel(stats::Group &group, const stats::Scalar &counter,
                 Program &program)
{
#ifdef LITERAL
    group.addScalar("built_name", &counter, "a description");
    group.addScalar("array_name", &counter, "a description");
    program.compute(1);
    program.withLabel("built label");
    program.compute(1);
    program.withLabel("array label");
#else
    const std::string built = "built_" + std::to_string(counter.value());
    char array[] = "array_name";
    group.addScalar(built.c_str(), &counter, "a description");
    group.addScalar(array, &counter, "a description");
    program.compute(1);
    program.withLabel(built.c_str());
    program.compute(1);
    program.withLabel(array);
#endif
}

} // namespace uldma
