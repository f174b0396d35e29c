/**
 * @file
 * A sparse array indexed by page number, for per-page state that only
 * the touched pages have: a directory of lazily allocated leaves, each
 * holding 512 value-initialized entries. A lookup is two array
 * loads with no hashing, an entry never moves once its leaf exists, and
 * only a leaf's first touch allocates.
 */

#ifndef LADDER_COMMON_PAGE_TABLE_HH
#define LADDER_COMMON_PAGE_TABLE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace ladder
{

template <typename T>
class PageTable
{
  public:
    static constexpr unsigned leafBits = 9;
    static constexpr std::uint64_t leafEntries = 1ull << leafBits;

    /** The entry, or nullptr while its leaf does not exist. */
    T *
    find(std::uint64_t index) const
    {
        std::uint64_t leaf = index >> leafBits;
        if (leaf >= leaves_.size() || !leaves_[leaf])
            return nullptr;
        return &(*leaves_[leaf])[index & (leafEntries - 1)];
    }

    /** The entry, creating its (value-initialized) leaf if need be. */
    T &
    operator[](std::uint64_t index)
    {
        std::uint64_t leaf = index >> leafBits;
        if (leaf >= leaves_.size())
            leaves_.resize(leaf + 1);
        if (!leaves_[leaf])
            leaves_[leaf] = std::make_unique<Leaf>();
        return (*leaves_[leaf])[index & (leafEntries - 1)];
    }

    /** Call fn(index, entry) for each entry of every leaf, in order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::uint64_t leaf = 0; leaf < leaves_.size(); ++leaf) {
            if (!leaves_[leaf])
                continue;
            const Leaf &entries = *leaves_[leaf];
            for (std::uint64_t i = 0; i < leafEntries; ++i)
                fn((leaf << leafBits) | i, entries[i]);
        }
    }

  private:
    using Leaf = std::array<T, leafEntries>;
    std::vector<std::unique_ptr<Leaf>> leaves_;
};

} // namespace ladder

#endif // LADDER_COMMON_PAGE_TABLE_HH
