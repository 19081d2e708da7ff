/**
 * @file
 * gem5-style status/error reporting helpers.
 *
 * Three severities, mirroring gem5's logging conventions:
 *  - warn():   something is off but the run can continue.
 *  - fatal():  the run cannot continue due to a user error (bad
 *              configuration, malformed assembly, ...).  Exits with
 *              status 1.
 *  - panic():  an internal invariant was violated (a bug in arl
 *              itself).  Aborts so that a core dump / debugger can
 *              capture the state.
 *
 * All helpers accept printf-style formatting via std::format-like
 * variadic templates built on snprintf to keep the dependency
 * footprint minimal.
 *
 * Verbosity is controlled by a process-wide level: warn() prints
 * unless setLogLevel(LogLevel::Error) silenced it (the CLI's --quiet);
 * fatal() and panic() always print.
 */

#ifndef ARL_COMMON_LOGGING_HH
#define ARL_COMMON_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace arl
{

/** Log severities, in increasing order of importance. */
enum class LogLevel : int
{
    Warn,   ///< warn() and up (the default)
    Error,  ///< only fatal()/panic() (--quiet)
};

/**
 * Set the minimum severity that reaches stderr.  Messages below the
 * level are dropped; fatal() and panic() always print.
 */
void setLogLevel(LogLevel level);

/** The current minimum severity. */
LogLevel logLevel();

namespace log_detail
{

/** Format a printf-style message into a std::string. */
std::string vformat(const char *fmt, std::va_list ap);

/**
 * Emit one log line to stderr with the given severity prefix,
 * honouring the process log level.  Every severity funnels through
 * here so filtering and formatting live in one place.
 */
void emit(LogLevel severity, const char *tag,
          const std::string &message);

} // namespace log_detail

/** Print a warning; the simulation continues. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable *user* error (bad config, bad input) and
 * exit(1).  Use panic() for internal bugs instead.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an internal invariant violation (an arl bug) and abort().
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Backend for ARL_ASSERT; panics with location and detail. */
[[noreturn]] void assertFail(const char *condition, const char *file,
                             int line, const char *fmt, ...)
    __attribute__((format(printf, 4, 5)));

/**
 * Assert-like helper: panic with a message when the condition fails.
 * Always evaluated (not compiled out in release builds) because the
 * simulators rely on these checks for correctness.
 */
#define ARL_ASSERT(cond, ...)                                            \
    do {                                                                 \
        if (!(cond)) {                                                   \
            _Pragma("GCC diagnostic push")                               \
            _Pragma("GCC diagnostic ignored \"-Wformat-zero-length\"")   \
            ::arl::assertFail(#cond, __FILE__, __LINE__, "" __VA_ARGS__);\
            _Pragma("GCC diagnostic pop")                                \
        }                                                                \
    } while (0)

} // namespace arl

#endif // ARL_COMMON_LOGGING_HH
