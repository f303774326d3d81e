/**
 * @file
 * Error-handling and status-message primitives, in the gem5 style.
 *
 * Two classes of errors are distinguished:
 *  - panic(): an internal invariant was violated — a bug in this library.
 *    Aborts so the failure can be debugged.
 *  - fatal(): the caller asked for something impossible (bad shapes, bad
 *    configuration).  Exits with an error code.
 *
 * warn() reports conditions that do not stop execution.
 */
#ifndef ECHO_CORE_LOGGING_H
#define ECHO_CORE_LOGGING_H

#include <sstream>
#include <string>

namespace echo {

/** Terminate with an internal-bug diagnostic (calls std::abort). */
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);

/** Terminate with a user-error diagnostic (calls std::exit(1)). */
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);

/** Print a warning to stderr; execution continues. */
void warnImpl(const std::string &msg);

/** Globally silence warn() (used by benches to keep tables clean). */
void setQuiet(bool quiet);

namespace detail {

/** Builds a message from stream-style arguments. */
template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

} // namespace detail
} // namespace echo

#define ECHO_PANIC(...) \
    ::echo::panicImpl(__FILE__, __LINE__, \
                      ::echo::detail::formatMessage(__VA_ARGS__))

#define ECHO_FATAL(...) \
    ::echo::fatalImpl(__FILE__, __LINE__, \
                      ::echo::detail::formatMessage(__VA_ARGS__))

#define ECHO_WARN(...) \
    ::echo::warnImpl(::echo::detail::formatMessage(__VA_ARGS__))

/** Internal invariant check: always on, independent of NDEBUG. */
#define ECHO_CHECK(cond, ...) \
    do { \
        if (!(cond)) { \
            ECHO_PANIC("check failed: " #cond " — ", \
                       ::echo::detail::formatMessage(__VA_ARGS__)); \
        } \
    } while (0)

/** User-facing argument validation. */
#define ECHO_REQUIRE(cond, ...) \
    do { \
        if (!(cond)) { \
            ECHO_FATAL("requirement failed: " #cond " — ", \
                       ::echo::detail::formatMessage(__VA_ARGS__)); \
        } \
    } while (0)

#endif // ECHO_CORE_LOGGING_H
