#include "backing_store.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/log.hh"

namespace ladder
{

namespace
{

/**
 * A byte's 8 bits spread over eight 16-bit lanes, as two words of four
 * lanes each (bits 0-3, bits 4-7) in memory order: adding a word to 4
 * contiguous uint16_t counters adds each bit to its own counter.
 */
using ByteLanes = std::array<std::uint64_t, 2>;

constexpr auto laneTable = [] {
    std::array<ByteLanes, 256> table{};
    for (unsigned byte = 0; byte < 256; ++byte) {
        for (unsigned half = 0; half < 2; ++half) {
            std::array<std::uint16_t, 4> lanes{};
            for (unsigned i = 0; i < 4; ++i)
                lanes[i] = static_cast<std::uint16_t>(
                    (byte >> (half * 4 + i)) & 1);
            table[byte][half] = std::bit_cast<std::uint64_t>(lanes);
        }
    }
    return table;
}();

/** counts[i] += lane i of @p up - lane i of @p down, for i in 0..7. */
inline void
addLanes(std::uint16_t *counts, const ByteLanes &up, const ByteLanes &down)
{
    for (unsigned half = 0; half < 2; ++half) {
        std::uint64_t word;
        std::memcpy(&word, counts + half * 4, sizeof(word));
        word += up[half] - down[half];
        std::memcpy(counts + half * 4, &word, sizeof(word));
    }
}

/** Sum of the four lanes of @p word (each partial sum below 2^16). */
inline unsigned
laneSum(std::uint64_t word)
{
    return static_cast<unsigned>((word * 0x0001000100010001ull) >> 48);
}

} // anonymous namespace

BackingStore::BackingStore(const MemoryGeometry &geo, bool trackBitlines,
                           double backgroundDensity)
    : geo_(geo),
      map_(geo),
      trackBitlines_(trackBitlines),
      backgroundDensity_(backgroundDensity)
{
    ladder_assert(backgroundDensity >= 0.0 && backgroundDensity <= 1.0,
                  "background density out of range");
    ladder_assert(geo.matRows <= MemoryGeometry::maxMatRows,
                  "%u rows per mat overflow the 16-bit bitline counters",
                  geo.matRows);
}

void
BackingStore::setPageInitializer(PageInitializer init)
{
    init_ = std::move(init);
}

BackingStore::PageSlot &
BackingStore::materialize(std::uint64_t pageIndex)
{
    ladder_assert(pageIndex < map_.totalPages(),
                  "page %llu beyond memory capacity",
                  static_cast<unsigned long long>(pageIndex));
    // Pages are never released, so each one is a fresh, zeroed slot.
    PageContent &content = pages_[pages_.acquire()];
    PageSlot &slot = directory_[pageIndex];
    slot.page = &content;
    if (init_)
        init_(pageIndex, content);
    // Fold the initial content into the mat counters and the bitline
    // counters. The page owns byte slot b of every mat of its group,
    // so it walks the whole counter block once, in order.
    std::uint16_t *counts = nullptr;
    if (trackBitlines_)
        counts = groupCounters(map_.decode(pageIndex *
                                           MemoryGeometry::pageBytes))
                     .counts.data();
    // Per mat, its bit columns' counts over the page: each block adds
    // at most 2 to a lane (lanes[0] + lanes[1]), so a lane stays <= 128.
    std::array<std::uint64_t, MemoryGeometry::matsPerGroup> matLanes{};
    for (const auto &block : content.blocks) {
        for (unsigned mat = 0; mat < MemoryGeometry::matsPerGroup; ++mat) {
            const ByteLanes &lanes = laneTable[block[mat]];
            matLanes[mat] += lanes[0] + lanes[1];
            if (counts) {
                addLanes(counts, lanes, laneTable[0]);
                counts += 8;
            }
        }
    }
    for (unsigned mat = 0; mat < MemoryGeometry::matsPerGroup; ++mat)
        content.matCounts[mat] =
            static_cast<std::uint16_t>(laneSum(matLanes[mat]));
    return slot;
}

std::uint64_t
BackingStore::matGroupKey(const BlockLocation &loc) const
{
    std::uint64_t key = loc.flatBank(geo_);
    return key * geo_.matGroupsPerBank + loc.matGroup;
}

BackingStore::MatGroupCounters &
BackingStore::groupCounters(const BlockLocation &loc)
{
    auto key = matGroupKey(loc);
    if (key >= groupCounters_.size())
        groupCounters_.resize(key + 1);
    auto &counters = groupCounters_[key];
    if (!counters) {
        // Rows outside the simulated working set are assumed occupied
        // by background data at the configured density.
        counters = std::make_unique_for_overwrite<MatGroupCounters>();
        counters->counts.fill(static_cast<std::uint16_t>(
            backgroundDensity_ * static_cast<double>(geo_.matRows)));
    }
    return *counters;
}

BitTransitions
BackingStore::write(const BlockLocation &loc, const LineData &data)
{
    PageContent &content = page(loc.pageIndex);
    LineData &block = content.blocks[loc.blockInPage];

    BitTransitions transitions = countTransitions(block, data);
    std::uint16_t *counts = nullptr;
    if (trackBitlines_)
        counts = groupCounters(loc).counts.data() +
                 loc.blockInPage * slotCounters;
    for (unsigned mat = 0; mat < MemoryGeometry::matsPerGroup; ++mat) {
        std::uint8_t changed = block[mat] ^ data[mat];
        const ByteLanes &up = laneTable[changed & data[mat]];
        const ByteLanes &down = laneTable[changed & block[mat]];
        content.matCounts[mat] = static_cast<std::uint16_t>(
            content.matCounts[mat] + laneSum(up[0] + up[1]) -
            laneSum(down[0] + down[1]));
        if (counts)
            addLanes(counts + mat * 8, up, down);
    }
    block = data;
    return transitions;
}

bool
BackingStore::pageResident(std::uint64_t pageIndex) const
{
    return find(pageIndex) != nullptr;
}

std::uint16_t
BackingStore::matLrsCount(std::uint64_t pageIndex, unsigned mat)
{
    ladder_assert(mat < MemoryGeometry::matsPerGroup,
                  "mat %u out of range", mat);
    return page(pageIndex).matCounts[mat];
}

std::uint16_t
BackingStore::maxMatLrsCount(std::uint64_t pageIndex)
{
    const auto &counts = page(pageIndex).matCounts;
    return *std::max_element(counts.begin(), counts.end());
}

std::uint16_t
BackingStore::maxSelectedBitlineLrs(const BlockLocation &loc)
{
    ladder_assert(trackBitlines_,
                  "bitline tracking disabled in backing store");
    // Materialize the page so the counters reflect its content.
    page(loc.pageIndex);
    const std::uint16_t *slot = groupCounters(loc).counts.data() +
                                loc.blockInPage * slotCounters;
    std::uint16_t best = 0;
    for (unsigned i = 0; i < slotCounters; ++i)
        best = std::max(best, slot[i]);
    return best;
}

std::uint16_t
BackingStore::bitlineLrsCount(const BlockLocation &loc, unsigned mat,
                              unsigned bit)
{
    ladder_assert(trackBitlines_,
                  "bitline tracking disabled in backing store");
    ladder_assert(mat < MemoryGeometry::matsPerGroup && bit < 8,
                  "bitline (mat %u, bit %u) out of range", mat, bit);
    page(loc.pageIndex);
    return groupCounters(loc)
        .counts[loc.blockInPage * slotCounters + mat * 8 + bit];
}

bool
BackingStore::flipped(const BlockLocation &loc)
{
    return (slot(loc.pageIndex).flippedMask >> loc.blockInPage) & 1;
}

void
BackingStore::setFlipped(const BlockLocation &loc, bool value)
{
    std::uint64_t bit = 1ull << loc.blockInPage;
    auto &mask = slot(loc.pageIndex).flippedMask;
    if (value)
        mask |= bit;
    else
        mask &= ~bit;
}

} // namespace ladder
