/**
 * @file
 * Writing one output document to a file or to standard output, with
 * the write checked after the stream is flushed.
 */

#ifndef ULDMA_UTIL_OUTPUT_HH
#define ULDMA_UTIL_OUTPUT_HH

#include <functional>
#include <ostream>
#include <string>

namespace uldma {

/**
 * Write one document to @p path ("-" = standard output): @p emit writes
 * it, then the stream is flushed (a file is closed) and checked, so a
 * write that fails only when the buffer drains — a full disk,
 * /dev/full — is still reported.  On failure prints
 * "cannot write '<path>'" to stderr and returns false.
 */
bool writeOutput(const std::string &path,
                 const std::function<void(std::ostream &)> &emit);

} // namespace uldma

#endif // ULDMA_UTIL_OUTPUT_HH
