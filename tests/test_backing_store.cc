/** @file Tests for the content-true backing store. */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "mem/backing_store.hh"

namespace ladder
{
namespace
{

LineData
randomLine(Rng &rng)
{
    LineData line;
    for (auto &byte : line)
        byte = static_cast<std::uint8_t>(rng.nextBounded(256));
    return line;
}

TEST(BackingStore, ReadAfterWrite)
{
    BackingStore store(MemoryGeometry{}, true, 0.0);
    Rng rng(1);
    LineData data = randomLine(rng);
    store.write(0x1000, data);
    EXPECT_EQ(store.read(0x1000), data);
}

TEST(BackingStore, FreshPagesAreZeroWithoutInitializer)
{
    BackingStore store(MemoryGeometry{}, true, 0.0);
    EXPECT_EQ(popcountLine(store.read(0x40)), 0u);
}

TEST(BackingStore, PageInitializerRuns)
{
    BackingStore store(MemoryGeometry{}, true, 0.0);
    store.setPageInitializer(
        [](std::uint64_t page, PageContent &content) {
            if (page == 3)
                content.blocks[0].fill(0xff);
        });
    Addr addr = 3 * MemoryGeometry::pageBytes;
    EXPECT_EQ(popcountLine(store.read(addr)), 512u);
    EXPECT_TRUE(store.pageResident(3));
    EXPECT_FALSE(store.pageResident(4));
}

TEST(BackingStore, MatCountsTrackContent)
{
    BackingStore store(MemoryGeometry{}, true, 0.0);
    Rng rng(2);
    const std::uint64_t page = 7;
    Addr base = page * MemoryGeometry::pageBytes;
    // Write random blocks, then verify counters against a recount.
    for (unsigned b = 0; b < 64; ++b)
        store.write(base + b * lineBytes, randomLine(rng));
    for (unsigned mat = 0; mat < 64; ++mat) {
        unsigned expect = 0;
        for (unsigned b = 0; b < 64; ++b)
            expect += popcount8(store.read(base + b * lineBytes)[mat]);
        EXPECT_EQ(store.matLrsCount(page, mat), expect);
    }
    unsigned maxCount = 0;
    for (unsigned mat = 0; mat < 64; ++mat)
        maxCount = std::max<unsigned>(maxCount,
                                      store.matLrsCount(page, mat));
    EXPECT_EQ(store.maxMatLrsCount(page), maxCount);
}

TEST(BackingStore, MatCountsSurviveOverwrites)
{
    BackingStore store(MemoryGeometry{}, true, 0.0);
    Rng rng(3);
    Addr addr = 11 * MemoryGeometry::pageBytes + 5 * lineBytes;
    for (int i = 0; i < 20; ++i)
        store.write(addr, randomLine(rng));
    LineData last = store.read(addr);
    unsigned expect = 0;
    for (unsigned mat = 0; mat < 64; ++mat)
        expect = std::max(expect, popcount8(last[mat]) + 0u);
    // Only block 5 is nonzero in this page, so C_w is its worst byte.
    EXPECT_EQ(store.maxMatLrsCount(11), expect);
}

TEST(BackingStore, BitlineCountsTrackContent)
{
    MemoryGeometry geo;
    BackingStore store(geo, true, 0.0);
    AddressMap map(geo);
    Rng rng(4);
    // Two pages in the same mat group share bitline counters: find
    // two such pages.
    BlockLocation locA = map.decode(0);
    BlockLocation locB = locA;
    locB.wordline = locA.wordline + 1;
    Addr pageA = 0;
    Addr pageB = map.encode(locB) - locB.blockInPage * lineBytes;

    LineData a = randomLine(rng);
    LineData b = randomLine(rng);
    store.write(pageA, a);      // block 0 of page A
    store.write(pageB, b);      // block 0 of page B
    unsigned expect = 0;
    for (unsigned mat = 0; mat < 64; ++mat) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            unsigned count = ((a[mat] >> bit) & 1) +
                             ((b[mat] >> bit) & 1);
            expect = std::max(expect, count);
        }
    }
    EXPECT_EQ(store.maxSelectedBitlineLrs(pageA), expect);
}

TEST(BackingStore, BackgroundDensityOffsetsBitlines)
{
    MemoryGeometry geo;
    BackingStore dense(geo, true, 0.25);
    BackingStore empty(geo, true, 0.0);
    Rng rng(5);
    LineData data = randomLine(rng);
    dense.write(0, data);
    empty.write(0, data);
    unsigned background =
        static_cast<unsigned>(0.25 * geo.matRows);
    EXPECT_EQ(dense.maxSelectedBitlineLrs(0),
              empty.maxSelectedBitlineLrs(0) + background);
}

TEST(BackingStore, WriteReturnsTransitions)
{
    BackingStore store(MemoryGeometry{}, true, 0.0);
    LineData ones = filledLine(0xff);
    BitTransitions t1 = store.write(0, ones);
    EXPECT_EQ(t1.sets, 512u);
    EXPECT_EQ(t1.resets, 0u);
    LineData zeros = filledLine(0x00);
    BitTransitions t2 = store.write(0, zeros);
    EXPECT_EQ(t2.resets, 512u);
    EXPECT_EQ(t2.sets, 0u);
}

TEST(BackingStore, FlipFlagPerBlock)
{
    BackingStore store(MemoryGeometry{}, true, 0.0);
    EXPECT_FALSE(store.flipped(0x40));
    store.setFlipped(0x40, true);
    EXPECT_TRUE(store.flipped(0x40));
    EXPECT_FALSE(store.flipped(0x80));
    store.setFlipped(0x40, false);
    EXPECT_FALSE(store.flipped(0x40));
}

TEST(BackingStore, ResidentPageCount)
{
    BackingStore store(MemoryGeometry{}, true, 0.0);
    EXPECT_EQ(store.residentPages(), 0u);
    store.read(0);
    store.read(MemoryGeometry::pageBytes);
    store.read(MemoryGeometry::pageBytes + lineBytes); // same page
    EXPECT_EQ(store.residentPages(), 2u);
}

TEST(BackingStore, BitlineTrackingCanBeDisabled)
{
    BackingStore store(MemoryGeometry{}, false, 0.0);
    store.write(0, filledLine(0xff));
    EXPECT_THROW(store.maxSelectedBitlineLrs(0), std::logic_error);
}

/**
 * The store as first written, kept as the reference: pages in a hash
 * map, bitline counters laid out [mat][bitline] per mat group, every
 * counter update a set-bit loop.
 */
class NaiveStore
{
  public:
    NaiveStore(const MemoryGeometry &geo, double backgroundDensity,
               BackingStore::PageInitializer init)
        : geo_(geo), map_(geo), density_(backgroundDensity),
          init_(std::move(init))
    {
    }

    const LineData &
    read(Addr addr)
    {
        BlockLocation loc = map_.decode(addr);
        return page(loc.pageIndex).blocks[loc.blockInPage];
    }

    BitTransitions
    write(Addr addr, const LineData &data)
    {
        BlockLocation loc = map_.decode(addr);
        PageContent &content = page(loc.pageIndex);
        LineData &block = content.blocks[loc.blockInPage];
        BitTransitions t = countTransitions(block, data);
        auto &counts = counters(loc);
        for (unsigned mat = 0; mat < 64; ++mat) {
            content.matCounts[mat] = static_cast<std::uint16_t>(
                content.matCounts[mat] + popcount8(data[mat]) -
                popcount8(block[mat]));
            for (unsigned bit = 0; bit < 8; ++bit) {
                unsigned was = (block[mat] >> bit) & 1;
                unsigned now = (data[mat] >> bit) & 1;
                auto &count = counts[column(loc, mat, bit)];
                count = static_cast<std::uint16_t>(count + now - was);
            }
        }
        block = data;
        return t;
    }

    bool
    flipped(Addr addr)
    {
        BlockLocation loc = map_.decode(addr);
        page(loc.pageIndex);
        return (flipped_[loc.pageIndex] >> loc.blockInPage) & 1;
    }

    void
    setFlipped(Addr addr, bool value)
    {
        BlockLocation loc = map_.decode(addr);
        page(loc.pageIndex);
        auto &mask = flipped_[loc.pageIndex];
        mask = (mask & ~(1ull << loc.blockInPage)) |
               (static_cast<std::uint64_t>(value) << loc.blockInPage);
    }

    std::uint16_t
    matLrsCount(std::uint64_t pageIndex, unsigned mat)
    {
        return page(pageIndex).matCounts[mat];
    }

    std::uint16_t
    maxMatLrsCount(std::uint64_t pageIndex)
    {
        const auto &counts = page(pageIndex).matCounts;
        return *std::max_element(counts.begin(), counts.end());
    }

    /** The block's 512 selected bitline counts, [mat][bit]. */
    std::vector<std::uint16_t>
    selectedBitlines(Addr addr)
    {
        BlockLocation loc = map_.decode(addr);
        page(loc.pageIndex);
        const auto &counts = counters(loc);
        std::vector<std::uint16_t> out;
        for (unsigned mat = 0; mat < 64; ++mat)
            for (unsigned bit = 0; bit < 8; ++bit)
                out.push_back(counts[column(loc, mat, bit)]);
        return out;
    }

    std::uint16_t
    maxSelectedBitlineLrs(Addr addr)
    {
        auto counts = selectedBitlines(addr);
        return *std::max_element(counts.begin(), counts.end());
    }

  private:
    MemoryGeometry geo_;
    AddressMap map_;
    double density_;
    BackingStore::PageInitializer init_;
    std::unordered_map<std::uint64_t, PageContent> pages_;
    std::unordered_map<std::uint64_t, std::vector<std::uint16_t>> counters_;
    /** Per-page FNW flags, one bit per block. */
    std::unordered_map<std::uint64_t, std::uint64_t> flipped_;

    static std::size_t
    column(const BlockLocation &loc, unsigned mat, unsigned bit)
    {
        return mat * MemoryGeometry::matCols + loc.blockInPage * 8 + bit;
    }

    std::vector<std::uint16_t> &
    counters(const BlockLocation &loc)
    {
        std::uint64_t key = static_cast<std::uint64_t>(loc.flatBank(geo_)) *
                                geo_.matGroupsPerBank +
                            loc.matGroup;
        auto [it, fresh] = counters_.try_emplace(key);
        if (fresh)
            it->second.assign(64 * MemoryGeometry::matCols,
                              static_cast<std::uint16_t>(
                                  density_ * geo_.matRows));
        return it->second;
    }

    PageContent &
    page(std::uint64_t pageIndex)
    {
        auto [it, fresh] = pages_.try_emplace(pageIndex);
        PageContent &content = it->second;
        if (!fresh)
            return content;
        if (init_)
            init_(pageIndex, content);
        BlockLocation loc = map_.decode(pageIndex * MemoryGeometry::pageBytes);
        auto &counts = counters(loc);
        for (unsigned b = 0; b < 64; ++b) {
            loc.blockInPage = b;
            for (unsigned mat = 0; mat < 64; ++mat) {
                std::uint8_t byte = content.blocks[b][mat];
                content.matCounts[mat] = static_cast<std::uint16_t>(
                    content.matCounts[mat] + popcount8(byte));
                for (; byte; byte &= static_cast<std::uint8_t>(byte - 1))
                    ++counts[column(loc, mat, std::countr_zero(byte))];
            }
        }
        return content;
    }
};

/** Sparse-to-dense random content, as workloads mix it. */
LineData
mixedLine(Rng &rng)
{
    switch (rng.nextBounded(4)) {
      case 0:
        return filledLine(0x00);
      case 1:
        return filledLine(0xff);
      case 2: {
        LineData line = randomLine(rng);
        for (auto &byte : line)
            byte &= static_cast<std::uint8_t>(rng.nextBounded(256));
        return line;
      }
      default:
        return randomLine(rng);
    }
}

TEST(BackingStore, MatchesNaiveReferenceOverRandomWritesAndFlips)
{
    MemoryGeometry geo;
    AddressMap map(geo);
    auto init = [](std::uint64_t pageIndex, PageContent &content) {
        Rng rng(pageIndex * 7919 + 13);
        for (auto &block : content.blocks)
            block = mixedLine(rng);
    };
    BackingStore store(geo, true, 0.4);
    store.setPageInitializer(init);
    NaiveStore naive(geo, 0.4, init);

    // 2 channels x 2 banks x 8 mat groups, 6 wordlines each: pages
    // that share a mat group share its bitline counters.
    std::vector<Addr> pages;
    for (unsigned channel = 0; channel < 2; ++channel)
        for (unsigned bank = 0; bank < 2; ++bank)
            for (unsigned group = 0; group < 8; ++group)
                for (unsigned w = 0; w < 6; ++w) {
                    BlockLocation loc;
                    loc.channel = channel;
                    loc.rank = bank;
                    loc.bank = 3 * bank;
                    loc.matGroup = group * 5;
                    loc.wordline = 7 + 83 * w;
                    pages.push_back(map.encode(loc));
                }

    // 60k operations: about 45k writes, 7.5k flips, 7.5k reads.
    Rng rng(42);
    for (unsigned op = 0; op < 60000; ++op) {
        Addr addr = pages[rng.nextBounded(pages.size())] +
                    rng.nextBounded(64) * lineBytes;
        BlockLocation loc = map.decode(addr);
        switch (rng.nextBounded(8)) {
          case 0: {
            bool value = rng.nextBool(0.5);
            store.setFlipped(loc, value);
            naive.setFlipped(addr, value);
            break;
          }
          case 1:
            // A first touch or a probe through the address form.
            ASSERT_EQ(store.read(addr), naive.read(addr)) << "op " << op;
            break;
          default: {
            LineData data = mixedLine(rng);
            BitTransitions got = store.write(loc, data);
            BitTransitions want = naive.write(addr, data);
            ASSERT_EQ(got.sets, want.sets) << "op " << op;
            ASSERT_EQ(got.resets, want.resets) << "op " << op;
          }
        }
        ASSERT_EQ(store.read(loc), naive.read(addr)) << "op " << op;
        ASSERT_EQ(store.flipped(loc), naive.flipped(addr)) << "op " << op;
        unsigned mat = static_cast<unsigned>(rng.nextBounded(64));
        ASSERT_EQ(store.matLrsCount(loc.pageIndex, mat),
                  naive.matLrsCount(loc.pageIndex, mat))
            << "op " << op;
        ASSERT_EQ(store.maxMatLrsCount(loc.pageIndex),
                  naive.maxMatLrsCount(loc.pageIndex))
            << "op " << op;
        ASSERT_EQ(store.maxSelectedBitlineLrs(loc),
                  naive.maxSelectedBitlineLrs(addr))
            << "op " << op;
        ASSERT_EQ(store.maxSelectedBitlineLrs(addr),
                  naive.maxSelectedBitlineLrs(addr))
            << "op " << op;
    }
    // Every bitline counter of every mat group agrees at the end (the
    // pages of one group share its counters: check its first page).
    for (std::size_t i = 0; i < pages.size(); i += 6)
        for (unsigned b = 0; b < 64; ++b) {
            Addr addr = pages[i] + b * lineBytes;
            BlockLocation loc = map.decode(addr);
            auto want = naive.selectedBitlines(addr);
            for (unsigned mat = 0; mat < 64; ++mat)
                for (unsigned bit = 0; bit < 8; ++bit)
                    ASSERT_EQ(store.bitlineLrsCount(loc, mat, bit),
                              want[mat * 8 + bit])
                        << "page " << i << " slot " << b;
        }
    EXPECT_EQ(store.residentPages(), pages.size());
}

/**
 * Every bitline of one block slot climbs from its background to
 * background + matRows (every wordline of the mat group holds ones)
 * and back: a lane that carried into or borrowed from its neighbour
 * would show in the neighbour's count or in the untouched slot.
 */
TEST(BackingStore, BitlineLanesNeverCarryOrBorrow)
{
    MemoryGeometry geo;
    AddressMap map(geo);
    for (double density : {0.0, 1.0}) {
        BackingStore store(geo, true, density);
        const unsigned background =
            static_cast<unsigned>(density * geo.matRows);
        BlockLocation loc = map.decode(0);
        loc.blockInPage = 17;
        BlockLocation untouched = loc;
        untouched.blockInPage = 18;
        auto expectAll = [&](unsigned want) {
            for (unsigned mat = 0; mat < 64; ++mat)
                for (unsigned bit = 0; bit < 8; ++bit) {
                    ASSERT_EQ(store.bitlineLrsCount(loc, mat, bit), want);
                    ASSERT_EQ(store.bitlineLrsCount(untouched, mat, bit),
                              background);
                }
            ASSERT_EQ(store.maxSelectedBitlineLrs(loc), want);
        };
        for (unsigned pass = 0; pass < 2; ++pass) {
            LineData data = filledLine(pass == 0 ? 0xff : 0x00);
            for (unsigned w = 0; w < geo.matRows; ++w) {
                loc.wordline = w;
                loc.pageIndex = map.encode(loc) / MemoryGeometry::pageBytes;
                store.write(loc, data);
                expectAll(pass == 0 ? background + w + 1
                                    : background + geo.matRows - w - 1);
            }
        }
        EXPECT_EQ(store.residentPages(), geo.matRows);
    }
}

TEST(BackingStore, RejectsRowsTheCountersCannotHold)
{
    MemoryGeometry geo;
    geo.matRows = MemoryGeometry::maxMatRows;
    EXPECT_NO_THROW(BackingStore(geo, true, 1.0));
    geo.matRows = MemoryGeometry::maxMatRows * 2;
    EXPECT_THROW(BackingStore(geo, true, 1.0), std::logic_error);
}

TEST(BackingStore, ReferencesSurviveLaterFirstTouches)
{
    BackingStore store(MemoryGeometry{}, true, 0.4);
    const LineData &first = store.read(0);
    const LineData *address = &first;
    for (std::uint64_t page = 1; page < 2000; ++page)
        store.read(page * 7 * MemoryGeometry::pageBytes);
    store.write(lineBytes * 0, filledLine(0x5a));
    EXPECT_EQ(&store.read(0), address);
    EXPECT_EQ(first, filledLine(0x5a));
    EXPECT_TRUE(store.pageResident(7 * 1999));
    EXPECT_FALSE(store.pageResident(7 * 1999 + 1));
}

} // namespace
} // namespace ladder
