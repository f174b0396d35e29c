/**
 * @file
 * Tests for the logging layer (common/log): LADDER_LOG level-name
 * parsing (including garbage), threshold filtering with the
 * fatal/panic bypass, warn_once call-site dedup, and sink
 * replacement racing concurrent loggers (the TSan job runs this
 * binary).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"

using namespace ladder;

namespace
{

/** Install a capturing sink for one test; restores stderr on exit. */
class CaptureSink
{
  public:
    CaptureSink()
    {
        setLogSink([this](LogLevel level, const std::string &msg) {
            entries_.push_back({level, msg});
        });
    }
    ~CaptureSink()
    {
        setLogSink(nullptr);
        setLogThreshold(LogLevel::Info);
    }
    const std::vector<std::pair<LogLevel, std::string>> &
    entries() const
    {
        return entries_;
    }

  private:
    std::vector<std::pair<LogLevel, std::string>> entries_;
};

} // namespace

TEST(LogLevelParse, AcceptsTheThreeDocumentedNames)
{
    LogLevel level = LogLevel::Panic;
    EXPECT_TRUE(parseLogLevelName("debug", level));
    EXPECT_EQ(level, LogLevel::Debug);
    EXPECT_TRUE(parseLogLevelName("info", level));
    EXPECT_EQ(level, LogLevel::Info);
    EXPECT_TRUE(parseLogLevelName("warn", level));
    EXPECT_EQ(level, LogLevel::Warn);
}

TEST(LogLevelParse, RejectsGarbageWithoutTouchingTheOutput)
{
    for (const char *bad :
         {"", "Debug", "WARN", "verbose", "warn ", " info", "2",
          "debug|info", "warning"}) {
        LogLevel level = LogLevel::Fatal;
        EXPECT_FALSE(parseLogLevelName(bad, level)) << bad;
        EXPECT_EQ(level, LogLevel::Fatal) << bad;
    }
}

TEST(LogThreshold, FiltersBelowAndKeepsFatalAndPanic)
{
    CaptureSink sink;
    setLogThreshold(LogLevel::Warn);
    debugf("dropped debug");
    inform("dropped info");
    warn("kept warn");
    ASSERT_EQ(sink.entries().size(), 1u);
    EXPECT_EQ(sink.entries()[0].first, LogLevel::Warn);
    EXPECT_EQ(sink.entries()[0].second, "kept warn");

    // Fatal/panic bypass any threshold (they throw; the message must
    // still reach the sink first).
    EXPECT_THROW(fatal("fatal passes"), std::runtime_error);
    EXPECT_THROW(panic("panic passes"), std::logic_error);
    ASSERT_EQ(sink.entries().size(), 3u);
    EXPECT_EQ(sink.entries()[1].first, LogLevel::Fatal);
    EXPECT_EQ(sink.entries()[2].first, LogLevel::Panic);

    setLogThreshold(LogLevel::Debug);
    debugf("now visible");
    ASSERT_EQ(sink.entries().size(), 4u);
    EXPECT_EQ(sink.entries()[3].first, LogLevel::Debug);
}

TEST(LogWarnOnce, FiresOncePerCallSiteAcrossThreads)
{
    CaptureSink sink;
    auto warnSite = [](int i) { warn_once("only once (i=%d)", i); };
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&warnSite]() {
            for (int i = 0; i < 100; ++i)
                warnSite(i);
        });
    }
    for (auto &thread : threads)
        thread.join();
    ASSERT_EQ(sink.entries().size(), 1u);
    // The first caller's formatted message, with the dedup notice.
    EXPECT_NE(sink.entries()[0].second.find("only once (i="),
              std::string::npos);
    EXPECT_NE(sink.entries()[0].second.find(
                  "further identical warnings suppressed"),
              std::string::npos);
    // A different call site is an independent guard.
    warn_once("another site");
    EXPECT_EQ(sink.entries().size(), 2u);
}

TEST(LogSink, ReplacementRacesConcurrentLoggersLosslessly)
{
    constexpr int loggers = 4;
    constexpr int perLogger = 250;
    std::atomic<std::uint64_t> countA{0}, countB{0};
    std::atomic<bool> start{false};

    setLogSink([&countA](LogLevel, const std::string &msg) {
        EXPECT_EQ(msg, "concurrent message");
        ++countA;
    });
    std::vector<std::thread> threads;
    for (int t = 0; t < loggers; ++t) {
        threads.emplace_back([&start]() {
            while (!start.load())
                std::this_thread::yield();
            for (int i = 0; i < perLogger; ++i)
                warn("concurrent message");
        });
    }
    start.store(true);
    // Swap the sink back and forth while the loggers hammer it; the
    // sink mutex makes each delivery hit exactly one of the two.
    for (int swap = 0; swap < 50; ++swap) {
        setLogSink([&countB](LogLevel, const std::string &msg) {
            EXPECT_EQ(msg, "concurrent message");
            ++countB;
        });
        setLogSink([&countA](LogLevel, const std::string &msg) {
            EXPECT_EQ(msg, "concurrent message");
            ++countA;
        });
    }
    for (auto &thread : threads)
        thread.join();
    setLogSink(nullptr);
    EXPECT_EQ(countA.load() + countB.load(),
              static_cast<std::uint64_t>(loggers) * perLogger);
}

TEST(RunMain, SeparatesUserErrorsFromInternalErrors)
{
    CaptureSink sink;
    auto status = [](int (*body)(int, char **)) {
        return runMain(0, nullptr, body);
    };
    EXPECT_EQ(status([](int, char **) { return 0; }), 0);
    EXPECT_EQ(status([](int, char **) { return 3; }), 3);
    EXPECT_EQ(status([](int, char **) -> int { fatal("bad key"); }),
              exitUserError);
    EXPECT_EQ(status([](int, char **) -> int { panic("broken"); }),
              exitInternalError);
    EXPECT_EQ(status([](int, char **) -> int {
                  ladder_assert(false, "invariant");
                  return 0;
              }),
              exitInternalError);
    EXPECT_EQ(status([](int, char **) -> int {
                  throw std::out_of_range("index");
              }),
              exitInternalError);
    ASSERT_FALSE(sink.entries().empty());
    EXPECT_EQ(sink.entries().back().first, LogLevel::Panic);
    EXPECT_EQ(sink.entries().back().second, "index");
}
