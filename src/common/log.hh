/**
 * @file
 * Minimal gem5-style status/error reporting: panic, fatal, warn, inform.
 *
 * panic()  - an internal invariant was violated (a simulator bug);
 *            throws PanicError.
 * fatal()  - the user asked for something unsupported/inconsistent;
 *            throws FatalError. A program whose main runs through
 *            runMain() exits with status 1 on fatal() and 2 on
 *            panic() or any other escaping exception.
 * warn()   - something is suspicious but simulation can continue.
 * warn_once() - warn, but only the first time this call site fires
 *               (parallel sweeps would otherwise repeat identical
 *               warnings from every worker).
 * inform() - a plain status message.
 * debugf() - developer chatter, hidden unless LADDER_LOG=debug.
 *
 * The LADDER_LOG environment variable (debug|info|warn) sets the
 * minimum severity that reaches the sink; the default is info.
 * Fatal/panic messages always pass.
 */

#ifndef LADDER_COMMON_LOG_HH
#define LADDER_COMMON_LOG_HH

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>

namespace ladder
{

/** Severity levels for the message sink (ascending order). */
enum class LogLevel { Debug, Info, Warn, Fatal, Panic };

/**
 * Emit a formatted message with a severity prefix. Messages below the
 * current threshold (see logThreshold) are dropped; everything else
 * goes to stderr, or to the override sink installed by setLogSink.
 *
 * @param level Message severity.
 * @param msg Pre-formatted message body.
 */
void logMessage(LogLevel level, const std::string &msg);

/**
 * The active severity threshold: LADDER_LOG=debug|info|warn at first
 * use, overridable at runtime via setLogThreshold (tests, tools).
 */
LogLevel logThreshold();

/** Override the severity threshold (wins over LADDER_LOG). */
void setLogThreshold(LogLevel level);

/**
 * Parse a LADDER_LOG value ("debug" | "info" | "warn") into @p out.
 * Returns false — leaving @p out untouched — on anything else,
 * which logThreshold() reports once and treats as "info".
 */
bool parseLogLevelName(const std::string &text, LogLevel &out);

/**
 * Redirect log output (post-filtering) to @p sink instead of stderr;
 * pass nullptr to restore stderr. Used by tests to assert on emitted
 * messages. The sink is called with the sink mutex held, so it must
 * not log.
 */
using LogSinkFn = std::function<void(LogLevel, const std::string &)>;
void setLogSink(LogSinkFn sink);

/** printf-style formatting into a std::string. */
std::string strPrintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** What panic() throws, after logging its message. */
class PanicError : public std::logic_error
{
  public:
    using std::logic_error::logic_error;
};

/** What fatal() throws, after logging its message. */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Report an internal simulator bug and throw PanicError. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Report a user/configuration error and throw FatalError. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** runMain's status when fatal() rejected the user's input. */
constexpr int exitUserError = 1;
/** runMain's status on panic() or any other escaping exception. */
constexpr int exitInternalError = 2;

/**
 * Run a command-line program's body and return its exit status. A
 * FatalError (a bad argument or configuration) ends the program with
 * exitUserError; a PanicError or any other exception is a simulator
 * bug and ends it with exitInternalError. Either way std::terminate's
 * abort is avoided, so a script can tell the two apart. fatal() and
 * panic() logged their message already; any other exception's message
 * is logged here.
 */
int runMain(int argc, char **argv, int (*body)(int, char **));

} // namespace ladder

#define panic(...) \
    ::ladder::panicImpl(__FILE__, __LINE__, ::ladder::strPrintf(__VA_ARGS__))

#define fatal(...) \
    ::ladder::fatalImpl(__FILE__, __LINE__, ::ladder::strPrintf(__VA_ARGS__))

#define warn(...) \
    ::ladder::logMessage(::ladder::LogLevel::Warn, \
                         ::ladder::strPrintf(__VA_ARGS__))

/**
 * Rate-limited warn: each call site fires at most once per process,
 * however many workers or iterations hit it. The atomic guard makes
 * the "first" race benign under parallel sweeps.
 */
#define warn_once(...) \
    do { \
        static std::atomic<bool> _ladder_warned_once{false}; \
        if (!_ladder_warned_once.exchange( \
                true, std::memory_order_relaxed)) { \
            ::ladder::logMessage( \
                ::ladder::LogLevel::Warn, \
                ::ladder::strPrintf(__VA_ARGS__) + \
                    " (further identical warnings suppressed)"); \
        } \
    } while (0)

#define inform(...) \
    ::ladder::logMessage(::ladder::LogLevel::Info, \
                         ::ladder::strPrintf(__VA_ARGS__))

#define debugf(...) \
    ::ladder::logMessage(::ladder::LogLevel::Debug, \
                         ::ladder::strPrintf(__VA_ARGS__))

/** Assert that must hold even in release builds; reports as a panic. */
#define ladder_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            ::ladder::panicImpl(__FILE__, __LINE__, \
                "assertion '" #cond "' failed: " + \
                ::ladder::strPrintf(__VA_ARGS__)); \
        } \
    } while (0)

#endif // LADDER_COMMON_LOG_HH
