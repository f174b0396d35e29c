/** @file Tests for trace run-ahead: lanes replay their sources exactly. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "trace/run_ahead.hh"
#include "trace/workload_frontend.hh"

namespace ladder
{
namespace
{

/** Records that encode (lane, index); can throw after @p failAt. */
class CountingSource : public TraceSource
{
  public:
    CountingSource(unsigned lane, std::atomic<std::uint64_t> &generated,
                   std::uint64_t failAt = ~0ull)
        : lane_(lane), generated_(generated), failAt_(failAt)
    {
    }

    TraceRecord
    next() override
    {
        if (index_ == failAt_)
            throw std::runtime_error("source failed");
        generated_.fetch_add(1, std::memory_order_relaxed);
        TraceRecord rec;
        rec.nonMemBefore = lane_;
        rec.lineAddr = index_++ * 64;
        return rec;
    }

    std::uint64_t
    footprintBytes() const override
    {
        return 4096 * (lane_ + 1);
    }

  private:
    unsigned lane_;
    std::atomic<std::uint64_t> &generated_;
    std::uint64_t failAt_;
    std::uint64_t index_ = 0;
};

bool
sameRecord(const TraceRecord &a, const TraceRecord &b)
{
    return a.nonMemBefore == b.nonMemBefore && a.isWrite == b.isWrite &&
           a.dependent == b.dependent && a.lineAddr == b.lineAddr &&
           a.storeOffset == b.storeOffset && a.storeData == b.storeData;
}

void
waitFor(const std::atomic<std::uint64_t> &counter, std::uint64_t value)
{
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (counter.load() < value &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_GE(counter.load(), value);
}

TEST(TraceRunAhead, LanesMatchTheirSourcesUnderIrregularInterleaving)
{
    // Four real workloads, with the seed salts System uses; a fresh
    // copy of each is the reference.
    const char *names[] = {"mcf", "lbm", "kv-log", "astar"};
    std::vector<std::unique_ptr<TraceSource>> inner, reference;
    for (unsigned c = 0; c < 4; ++c) {
        inner.push_back(
            makeWorkloadInstance(names[c], 16 + c, 1.0).source);
        reference.push_back(
            makeWorkloadInstance(names[c], 16 + c, 1.0).source);
    }
    TraceRunAhead runAhead(std::move(inner));
    std::vector<std::unique_ptr<TraceSource>> lanes;
    for (unsigned c = 0; c < 4; ++c) {
        lanes.push_back(runAhead.lane(c));
        EXPECT_EQ(lanes[c]->footprintBytes(),
                  reference[c]->footprintBytes());
    }

    // Bursts of random length on random lanes until every lane has
    // crossed at least three chunk boundaries.
    const std::uint64_t target = 3 * TraceRunAhead::chunkRecords + 700;
    std::vector<std::uint64_t> consumed(4, 0);
    Rng rng(2024);
    auto done = [&]() {
        for (std::uint64_t n : consumed)
            if (n < target)
                return false;
        return true;
    };
    while (!done()) {
        unsigned c = static_cast<unsigned>(rng.nextBounded(4));
        std::uint64_t burst = 1 + rng.nextBounded(1500);
        for (std::uint64_t i = 0; i < burst; ++i) {
            TraceRecord got = lanes[c]->next();
            TraceRecord want = reference[c]->next();
            ASSERT_TRUE(sameRecord(got, want))
                << "lane " << c << " record " << consumed[c];
            ++consumed[c];
        }
    }
}

TEST(TraceRunAhead, WorkerStartsOnTheFirstRecord)
{
    std::atomic<std::uint64_t> generated{0};
    std::vector<std::unique_ptr<TraceSource>> sources;
    for (unsigned c = 0; c < 2; ++c)
        sources.push_back(std::make_unique<CountingSource>(c, generated));
    TraceRunAhead runAhead(std::move(sources));
    auto lane0 = runAhead.lane(0);
    auto lane1 = runAhead.lane(1);
    EXPECT_EQ(lane1->footprintBytes(), 8192u);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(generated.load(), 0u);
    EXPECT_EQ(lane1->next().nonMemBefore, 1u);
    EXPECT_EQ(lane0->next().lineAddr, 0u);
}

TEST(TraceRunAhead, DestroyedWhileTheWorkerWaitsForRoom)
{
    std::atomic<std::uint64_t> generated{0};
    {
        std::vector<std::unique_ptr<TraceSource>> sources;
        for (unsigned c = 0; c < 3; ++c)
            sources.push_back(
                std::make_unique<CountingSource>(c, generated));
        TraceRunAhead runAhead(std::move(sources));
        auto lane = runAhead.lane(1);
        lane->next();
        // Lane 1 holds its current chunk plus the ready ones, the
        // others the ready ones; then the worker blocks.
        const std::uint64_t full =
            (3 * TraceRunAhead::maxReadyChunks + 1) *
            TraceRunAhead::chunkRecords;
        waitFor(generated, full);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        EXPECT_EQ(generated.load(), full);
    }
    // Reaching here means the destructor woke and joined the worker.
    SUCCEED();
}

TEST(TraceRunAhead, DestroyedWhileTheWorkerIsBusy)
{
    std::atomic<std::uint64_t> generated{0};
    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.push_back(std::make_unique<CountingSource>(0, generated));
    auto runAhead = std::make_unique<TraceRunAhead>(std::move(sources));
    auto lane = runAhead->lane(0);
    lane->next();
    lane.reset();
    runAhead.reset();
    SUCCEED();
}

TEST(TraceRunAhead, SourceExceptionReachesTheConsumer)
{
    std::atomic<std::uint64_t> generated{0};
    const std::uint64_t failAt = TraceRunAhead::chunkRecords + 300;
    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.push_back(
        std::make_unique<CountingSource>(0, generated, failAt));
    TraceRunAhead runAhead(std::move(sources));
    auto lane = runAhead.lane(0);
    // The first chunk is whole; the second chunk's fill failed.
    for (std::uint64_t i = 0; i < TraceRunAhead::chunkRecords; ++i)
        ASSERT_EQ(lane->next().lineAddr, i * 64);
    EXPECT_THROW(lane->next(), std::runtime_error);
    EXPECT_THROW(lane->next(), std::runtime_error);
}

#if defined(__linux__)
/** Threads of this process named ladder-runahead. */
std::size_t
helperThreads()
{
    std::size_t n = 0;
    for (const auto &task :
         std::filesystem::directory_iterator("/proc/self/task")) {
        std::ifstream comm(task.path() / "comm");
        std::string name;
        if (std::getline(comm, name) && name == "ladder-runahead")
            ++n;
    }
    return n;
}

/**
 * Whether helperThreads() reaches @p count within a second: a joined
 * thread can stay listed for a moment after join() returns.
 */
bool
settlesAt(std::size_t count)
{
    for (int i = 0; i < 1000; ++i) {
        if (helperThreads() == count)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

TEST(TraceRunAhead, OneHelperThreadForAnyLaneCount)
{
    for (unsigned lanes : {1u, 4u, 16u}) {
        ASSERT_TRUE(settlesAt(0));
        std::atomic<std::uint64_t> generated{0};
        std::vector<std::unique_ptr<TraceSource>> sources;
        for (unsigned c = 0; c < lanes; ++c)
            sources.push_back(
                std::make_unique<CountingSource>(c, generated));
        TraceRunAhead runAhead(std::move(sources));
        std::vector<std::unique_ptr<TraceSource>> views;
        for (unsigned c = 0; c < lanes; ++c)
            views.push_back(runAhead.lane(c));
        EXPECT_EQ(helperThreads(), 0u);
        for (auto &view : views)
            view->next();
        EXPECT_TRUE(settlesAt(1)) << lanes << " lanes";
        EXPECT_EQ(helperThreads(), 1u) << lanes << " lanes";
    }
}
#endif

} // namespace
} // namespace ladder
