#include "log.hh"

#include <cstdarg>
#include <mutex>
#include <stdexcept>

namespace ladder
{

std::string
strPrintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (len < 0) {
        va_end(args_copy);
        return std::string(fmt);
    }
    std::string out(static_cast<size_t>(len), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    va_end(args_copy);
    return out;
}

namespace
{

std::mutex &
sinkMutex()
{
    static std::mutex m;
    return m;
}

LogSinkFn &
sinkOverride()
{
    static LogSinkFn sink;
    return sink;
}

std::atomic<LogLevel> &
thresholdOverride()
{
    // Sentinel Panic+1 is impossible as a threshold: means "unset".
    static std::atomic<LogLevel> t{static_cast<LogLevel>(
        static_cast<int>(LogLevel::Panic) + 1)};
    return t;
}

LogLevel
envThreshold()
{
    static const LogLevel level = []() {
        const char *env = std::getenv("LADDER_LOG");
        if (!env)
            return LogLevel::Info;
        LogLevel parsed = LogLevel::Info;
        if (!parseLogLevelName(env, parsed)) {
            std::fprintf(stderr,
                         "warn: LADDER_LOG='%s' not one of "
                         "debug|info|warn; defaulting to info\n",
                         env);
        }
        return parsed;
    }();
    return level;
}

} // anonymous namespace

bool
parseLogLevelName(const std::string &text, LogLevel &out)
{
    if (text == "debug")
        out = LogLevel::Debug;
    else if (text == "info")
        out = LogLevel::Info;
    else if (text == "warn")
        out = LogLevel::Warn;
    else
        return false;
    return true;
}

LogLevel
logThreshold()
{
    LogLevel override = thresholdOverride().load();
    if (static_cast<int>(override) <=
        static_cast<int>(LogLevel::Panic))
        return override;
    return envThreshold();
}

void
setLogThreshold(LogLevel level)
{
    thresholdOverride().store(level);
}

void
setLogSink(LogSinkFn sink)
{
    std::lock_guard<std::mutex> lock(sinkMutex());
    sinkOverride() = std::move(sink);
}

void
logMessage(LogLevel level, const std::string &msg)
{
    // Fatal/panic always pass; everything else honours the threshold.
    if (level < LogLevel::Fatal && level < logThreshold())
        return;
    const char *prefix = "";
    switch (level) {
      case LogLevel::Debug: prefix = "debug: "; break;
      case LogLevel::Info: prefix = "info: "; break;
      case LogLevel::Warn: prefix = "warn: "; break;
      case LogLevel::Fatal: prefix = "fatal: "; break;
      case LogLevel::Panic: prefix = "panic: "; break;
    }
    // Serialize whole lines so messages from parallel sweep workers
    // never interleave mid-line.
    std::lock_guard<std::mutex> lock(sinkMutex());
    if (sinkOverride()) {
        sinkOverride()(level, msg);
        return;
    }
    std::fprintf(stderr, "%s%s\n", prefix, msg.c_str());
    std::fflush(stderr);
}

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    logMessage(LogLevel::Panic,
               strPrintf("%s:%d: %s", file, line, msg.c_str()));
    // Throwing instead of abort() keeps the failure testable; the type is
    // a std::logic_error because a panic is by definition a program bug.
    throw PanicError(msg);
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    logMessage(LogLevel::Fatal,
               strPrintf("%s:%d: %s", file, line, msg.c_str()));
    throw FatalError(msg);
}

int
runMain(int argc, char **argv, int (*body)(int, char **))
{
    try {
        return body(argc, argv);
    } catch (const FatalError &) {
        return exitUserError; // logged by fatal()
    } catch (const PanicError &) {
        return exitInternalError; // logged by panic()
    } catch (const std::exception &e) {
        logMessage(LogLevel::Panic, e.what());
        return exitInternalError;
    }
}

} // namespace ladder
