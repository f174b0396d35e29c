/**
 * @file
 * Unit tests for Slab, the never-moving numbered store behind the
 * event queue's callbacks, the controller's request entries, the
 * backing store's pages and the schemes' shadow lines: slot numbering,
 * LIFO reuse that keeps an entry as it was left, address stability
 * across block growth, and one destruction per constructed entry.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/slab.hh"

namespace ladder
{
namespace
{

TEST(Slab, NewSlotsAreNumberedInOrderAndValueInitialized)
{
    Slab<std::array<std::uint8_t, 64>, 4> slab;
    EXPECT_EQ(slab.size(), 0u);
    for (std::uint32_t i = 0; i < 10; ++i) {
        EXPECT_EQ(slab.acquire(), i);
        for (std::uint8_t byte : slab[i])
            EXPECT_EQ(byte, 0);
        slab[i].fill(static_cast<std::uint8_t>(i + 1));
    }
    EXPECT_EQ(slab.size(), 10u);
    const auto &view = slab;
    for (std::uint32_t i = 0; i < 10; ++i)
        EXPECT_EQ(view[i][63], i + 1);
}

TEST(Slab, ReleasedSlotsComeBackLastInFirstOutAsLeft)
{
    Slab<std::vector<int>, 4> slab;
    for (int i = 0; i < 6; ++i)
        slab.acquire();
    slab[2].assign(100, 7);
    slab[4].reserve(50);
    slab.release(2);
    slab.release(4);

    EXPECT_EQ(slab.acquire(), 4u);
    EXPECT_GE(slab[4].capacity(), 50u);
    EXPECT_EQ(slab.acquire(), 2u);
    // Not reset: the caller clears what it reuses.
    EXPECT_EQ(slab[2].size(), 100u);
    EXPECT_EQ(slab[2][99], 7);
    EXPECT_EQ(slab.acquire(), 6u);
    EXPECT_EQ(slab.size(), 7u);
}

TEST(Slab, EntriesNeverMoveAsBlocksAreAdded)
{
    Slab<std::uint64_t, 8> slab;
    std::vector<const std::uint64_t *> where;
    for (std::uint32_t i = 0; i < 100; ++i) {
        slab[slab.acquire()] = i;
        where.push_back(&slab[i]);
    }
    for (std::uint32_t i = 0; i < 100; ++i) {
        EXPECT_EQ(&slab[i], where[i]);
        EXPECT_EQ(*where[i], i);
    }
}

TEST(Slab, DestroysEachConstructedEntryOnce)
{
    auto token = std::make_shared<int>(0);
    {
        Slab<std::shared_ptr<int>, 4> slab;
        for (int i = 0; i < 9; ++i)
            slab[slab.acquire()] = token;
        EXPECT_EQ(token.use_count(), 10);
        // A released entry stays constructed until the slab goes.
        slab.release(3);
        slab.release(8);
        EXPECT_EQ(token.use_count(), 10);
        slab[slab.acquire()].reset();
        EXPECT_EQ(token.use_count(), 9);
    }
    EXPECT_EQ(token.use_count(), 1);
}

} // namespace
} // namespace ladder
