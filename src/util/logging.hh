/**
 * @file
 * Error-reporting helpers, modeled on gem5's base/logging.hh.
 *
 * panic()  — an internal simulator invariant was violated (aborts).
 * fatal()  — the user supplied an impossible configuration (exits).
 * warn()   — something is modeled approximately but the run continues.
 */

#ifndef ULDMA_UTIL_LOGGING_HH
#define ULDMA_UTIL_LOGGING_HH

#include <sstream>
#include <string>

namespace uldma {

namespace detail {

/** Concatenate any streamable arguments into a single string. */
template <typename... Args>
std::string
concatToString(Args &&...args)
{
    std::ostringstream os;
    ((os << std::forward<Args>(args)), ...);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

} // namespace detail

/** Number of warn() calls so far; exposed so tests can assert on it. */
unsigned warnCount();

} // namespace uldma

/** Abort: a simulator bug (condition that should never happen). */
#define ULDMA_PANIC(...)                                                    \
    ::uldma::detail::panicImpl(__FILE__, __LINE__,                          \
        ::uldma::detail::concatToString(__VA_ARGS__))

/** Exit: an unusable user configuration. */
#define ULDMA_FATAL(...)                                                    \
    ::uldma::detail::fatalImpl(__FILE__, __LINE__,                          \
        ::uldma::detail::concatToString(__VA_ARGS__))

/** Warn but continue. */
#define ULDMA_WARN(...)                                                     \
    ::uldma::detail::warnImpl(::uldma::detail::concatToString(__VA_ARGS__))

/** panic() unless @p cond holds. */
#define ULDMA_ASSERT(cond, ...)                                             \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ULDMA_PANIC("assertion '" #cond "' failed: ",                   \
                        ::uldma::detail::concatToString(__VA_ARGS__));      \
        }                                                                   \
    } while (0)

#endif // ULDMA_UTIL_LOGGING_HH
