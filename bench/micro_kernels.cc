/**
 * @file
 * google-benchmark micro-kernels for the hot paths of the LADDER
 * stack: content counting, counter packing/estimation, FNW, timing
 * table lookups, the fast circuit model and the timing-model build, the
 * metadata cache, the FPC compressor and the event kernel.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "circuit/fastmodel.hh"
#include "common/event_queue.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "ctrl/controller.hh"
#include "ctrl/fnw.hh"
#include "ctrl/metadata_cache.hh"
#include "mem/backing_store.hh"
#include "reram/latency_surface.hh"
#include "reram/timing_tables.hh"
#include "schemes/factory.hh"
#include "schemes/fpc.hh"
#include "schemes/partial_counter.hh"

namespace
{

using namespace ladder;

LineData
randomLine(Rng &rng)
{
    LineData line;
    for (auto &byte : line)
        byte = static_cast<std::uint8_t>(rng.nextBounded(256));
    return line;
}

void
BM_PopcountLine(benchmark::State &state)
{
    Rng rng(1);
    LineData line = randomLine(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(popcountLine(line));
}
BENCHMARK(BM_PopcountLine);

void
BM_PackPartialCounters(benchmark::State &state)
{
    Rng rng(2);
    LineData line = randomLine(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(packPartialCounters2(line));
}
BENCHMARK(BM_PackPartialCounters);

void
BM_EstimateCw(benchmark::State &state)
{
    Rng rng(3);
    std::array<std::uint8_t, 64> packed;
    for (auto &byte : packed)
        byte = static_cast<std::uint8_t>(rng.nextBounded(256));
    for (auto _ : state)
        benchmark::DoNotOptimize(estimateCw2(packed));
}
BENCHMARK(BM_EstimateCw);

void
BM_ShiftEncode(benchmark::State &state)
{
    Rng rng(4);
    LineData line = randomLine(rng);
    for (auto _ : state) {
        LineData out = line;
        for (unsigned g = 0; g < 8; ++g) {
            transposeGroup(out, g);
            rotateGroupLeft(out, g, 13);
        }
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_ShiftEncode);

void
BM_FnwDecide(benchmark::State &state)
{
    Rng rng(5);
    LineData stored = randomLine(rng);
    LineData data = randomLine(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            fnwDecide(stored, data, FnwMode::Constrained));
}
BENCHMARK(BM_FnwDecide);

void
BM_TimingTableLookup(benchmark::State &state)
{
    const TimingModel &model = cachedTimingModel(CrossbarParams{});
    Rng rng(6);
    for (auto _ : state) {
        unsigned wl = static_cast<unsigned>(rng.nextBounded(512));
        unsigned bl = static_cast<unsigned>(rng.nextBounded(512));
        unsigned c = static_cast<unsigned>(rng.nextBounded(513));
        benchmark::DoNotOptimize(model.ladder.lookup(wl, bl, c));
    }
}
BENCHMARK(BM_TimingTableLookup);

void
BM_LatencySurfaceLookup(benchmark::State &state)
{
    const TimingModel &model = cachedTimingModel(CrossbarParams{});
    Rng rng(6);
    for (auto _ : state) {
        unsigned wl = static_cast<unsigned>(rng.nextBounded(512));
        unsigned bl = static_cast<unsigned>(rng.nextBounded(512));
        unsigned c = static_cast<unsigned>(rng.nextBounded(513));
        benchmark::DoNotOptimize(model.ladderSurface->lookup(wl, bl, c));
    }
}
BENCHMARK(BM_LatencySurfaceLookup);

void
BM_PopcountLineScalar(benchmark::State &state)
{
    Rng rng(1);
    LineData line = randomLine(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(popcountLineScalar(line));
}
BENCHMARK(BM_PopcountLineScalar);

void
BM_PopcountLineAvx2(benchmark::State &state)
{
    if (!bitopsHaveAvx2()) {
        state.SkipWithError("AVX2 unavailable on this host");
        return;
    }
    Rng rng(1);
    LineData line = randomLine(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(popcountLineAvx2(line));
}
BENCHMARK(BM_PopcountLineAvx2);

void
BM_CountTransitions(benchmark::State &state)
{
    Rng rng(10);
    LineData before = randomLine(rng);
    LineData after = randomLine(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(countTransitions(before, after));
}
BENCHMARK(BM_CountTransitions);

void
BM_FastModelEvaluate(benchmark::State &state)
{
    CrossbarParams params;
    SneakPathModel model(params);
    for (auto _ : state) {
        ResetCondition cond{255, 31, 256, 256};
        benchmark::DoNotOptimize(model.evaluate(cond));
    }
}
BENCHMARK(BM_FastModelEvaluate)->Unit(benchmark::kMicrosecond);

/**
 * The whole paper-default timing-model build (1346 solves) on
 * state.range(0) workers: one thread, then one per hardware thread.
 */
void
BM_TimingModelGenerate(benchmark::State &state)
{
    const CrossbarParams params;
    const unsigned workers = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            TimingModel::generate(params, 8, 1.0, 29.0, 658.0, workers));
    }
}
BENCHMARK(BM_TimingModelGenerate)
    ->Arg(1)
    ->Arg(ThreadPool::defaultJobs())
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_MetadataCacheLookup(benchmark::State &state)
{
    MetadataCache cache(64 * 1024, 4);
    Rng rng(7);
    Addr victim;
    for (unsigned i = 0; i < 2048; ++i)
        cache.insert(i * lineBytes, 0, victim);
    for (auto _ : state) {
        Addr addr = rng.nextBounded(4096) * lineBytes;
        MetaLookup result = cache.lookupForWrite(addr);
        if (result == MetaLookup::Hit)
            cache.releaseSharer(addr);
        else if (result == MetaLookup::Miss)
            cache.insert(addr, 0, victim);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_MetadataCacheLookup);

void
BM_FpcCompress(benchmark::State &state)
{
    Rng rng(8);
    LineData line = randomLine(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(fpcCompressedBits(line));
}
BENCHMARK(BM_FpcCompress);

void
BM_BackingStoreWrite(benchmark::State &state)
{
    BackingStore store(MemoryGeometry{}, true, 0.0);
    Rng rng(9);
    std::vector<LineData> lines;
    for (int i = 0; i < 64; ++i)
        lines.push_back(randomLine(rng));
    std::uint64_t i = 0;
    for (auto _ : state) {
        Addr addr = (i % 4096) * lineBytes;
        benchmark::DoNotOptimize(
            store.write(addr, lines[i % lines.size()]));
        ++i;
    }
}
BENCHMARK(BM_BackingStoreWrite);

/**
 * BLP's per-write bitline scan over blocks of 2048 resident pages
 * spread across 128 mat groups (8 MiB of counters, beyond the caches).
 */
void
BM_BackingStoreMaxSelectedBitlineLrs(benchmark::State &state)
{
    BackingStore store(MemoryGeometry{}, true, 0.4);
    Rng rng(12);
    std::vector<Addr> blocks;
    for (std::uint64_t page = 0; page < 2048; ++page) {
        Addr addr = page * MemoryGeometry::pageBytes;
        store.write(addr, randomLine(rng));
        blocks.push_back(addr + rng.nextBounded(64) * lineBytes);
    }
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            store.maxSelectedBitlineLrs(blocks[i % blocks.size()]));
        i += 797; // odd stride: visit every block, out of order
    }
}
BENCHMARK(BM_BackingStoreMaxSelectedBitlineLrs);

/**
 * First touch of a page with random initial content: payload copy,
 * wordline counters and the fold into the bitline counters. Pages
 * 128 apart share a mat group (consecutive wordlines); a fresh store
 * every 64 pages bounds the memory held.
 */
void
BM_BackingStoreFirstTouch(benchmark::State &state)
{
    Rng rng(13);
    auto content = std::make_shared<PageContent>();
    for (auto &block : content->blocks)
        block = randomLine(rng);
    std::unique_ptr<BackingStore> store;
    constexpr std::uint64_t pagesPerStore = 64;
    std::uint64_t page = 0;
    for (auto _ : state) {
        if (page % pagesPerStore == 0) {
            state.PauseTiming();
            store = std::make_unique<BackingStore>(MemoryGeometry{}, true,
                                                   0.4);
            store->setPageInitializer(
                [content](std::uint64_t, PageContent &out) {
                    out.blocks = content->blocks;
                });
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(store->read(
            page % pagesPerStore * 128 * MemoryGeometry::pageBytes));
        ++page;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(page));
}
BENCHMARK(BM_BackingStoreFirstTouch);

/**
 * Full controller write path — enqueue through dispatch to
 * completion — with the latency-attribution knob off (Arg 0) and on
 * (Arg 1). The two timings bound what trace.attribution=1 costs per
 * write; the Arg-0 run must match the pre-attribution controller,
 * since the knob off leaves only an untaken branch on the dispatch
 * path.
 */
void
BM_ControllerWriteDispatch(benchmark::State &state)
{
    ControllerConfig cfg;
    cfg.attribution = state.range(0) != 0;
    MemoryGeometry geo;
    BackingStore store(geo, true, 0.0);
    const TimingModel &timing = cachedTimingModel(CrossbarParams{});
    AddressMap map(geo);
    auto layout = std::make_shared<MetadataLayout>(
        geo, map.totalPages() * 3 / 4);
    auto scheme = makeScheme(SchemeKind::LadderHybrid,
                             CrossbarParams{}, layout, {});
    EventQueue events;
    MemoryController ctrl(events, cfg, geo, 0, store, timing,
                          scheme);

    // Channel-0 line addresses spread over wordlines and banks.
    Rng rng(11);
    std::vector<std::pair<Addr, LineData>> writes;
    while (writes.size() < 16) {
        Addr addr = rng.nextBounded(1 << 16) * lineBytes;
        if (map.decode(addr).channel == 0)
            writes.emplace_back(addr, randomLine(rng));
    }

    std::uint64_t dispatched = 0;
    for (auto _ : state) {
        for (const auto &write : writes)
            ctrl.enqueueWrite(write.first, write.second);
        events.runUntil();
        dispatched += writes.size();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(dispatched));
}
BENCHMARK(BM_ControllerWriteDispatch)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

} // namespace

/** An event that reschedules itself, after an LCG-drawn delay. */
struct Hop
{
    EventQueue *events;
    std::uint64_t *lcg;

    void
    operator()() const
    {
        *lcg = *lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        events->scheduleIn(1 + ((*lcg >> 33) & 1023), *this);
    }
};

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    // 64 pending events, about a run's queue depth, as perfbench's
    // common.event_ns uses; each iteration runs one and schedules one.
    EventQueue events;
    std::uint64_t lcg = 12345;
    for (unsigned i = 0; i < 64; ++i)
        Hop{&events, &lcg}();
    for (auto _ : state)
        benchmark::DoNotOptimize(events.step());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueScheduleRun);

BENCHMARK_MAIN();
