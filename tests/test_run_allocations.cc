/**
 * @file
 * The run loop does not allocate per request. This binary replaces the
 * global operator new with a counting one, so it stands alone: every
 * heap allocation of every thread during System::run is counted, and
 * the count must stay far below one per memory request. Event
 * callbacks, controller queue entries, the core's MSHR tables and the
 * trace records all live in storage reused from request to request.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "sim/config_resolve.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"

namespace
{

std::atomic<std::uint64_t> allocations{0};

void *
countedAlloc(std::size_t size, std::size_t align)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    void *p = align > alignof(std::max_align_t)
                  ? std::aligned_alloc(align, (size + align - 1) /
                                                  align * align)
                  : std::malloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // anonymous namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size, 0);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size, 0);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace ladder
{
namespace
{

TEST(RunAllocations, FarFewerThanOnePerDataRequest)
{
    // The committed CI configuration, as perfbench's quick-mix1 runs it.
    const std::string config =
        std::string("config=") + LADDER_EXAMPLES_DIR "/configs/ci-quick.json";
    const char *argv[] = {"test_run_allocations", config.c_str(),
                          "workload=mix-1", "scheme=LADDER-Hybrid"};
    ResolvedExperiment r =
        resolveExperiment(4, argv, defaultExperimentConfig());
    SystemConfig sc =
        makeSystemConfig(r.schemes[0], r.workloads[0], r.config);
    System system(sc);

    const std::uint64_t before = allocations.load();
    SimResult result =
        system.run(r.config.warmupInstr, r.config.measureInstr);
    const std::uint64_t during = allocations.load() - before;

    const double requests =
        static_cast<double>(result.dataReads + result.dataWrites);
    ASSERT_GT(requests, 1000.0);
    const double perRequest = static_cast<double>(during) / requests;
    std::printf("%llu allocations during System::run, %.0f data "
                "requests: %.4f per request\n",
                static_cast<unsigned long long>(during), requests,
                perRequest);
    EXPECT_LT(perRequest, 0.1);
}

} // namespace
} // namespace ladder
