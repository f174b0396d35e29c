/**
 * @file
 * A slab of numbered entries that never move. Entries live in fixed
 * blocks; release() hands a slot back and a later acquire() returns it
 * as it was left, so an entry's vectors keep their capacity and a
 * steady-state user allocates nothing. The controller's request
 * entries, the event queue's callbacks and the backing store's pages
 * live in slabs.
 */

#ifndef LADDER_COMMON_SLAB_HH
#define LADDER_COMMON_SLAB_HH

#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace ladder
{

/**
 * Numbered, never-moving entries with a free list. A slot handed out
 * for the first time holds a value-initialized T, constructed then and
 * not before, so a block's untouched slots cost no memory traffic. A
 * reused slot is not reset: the caller initializes what it needs.
 */
template <typename T, std::uint32_t BlockSize = 64>
class Slab
{
  public:
    Slab() = default;
    Slab(const Slab &) = delete;
    Slab &operator=(const Slab &) = delete;

    ~Slab()
    {
        if constexpr (!std::is_trivially_destructible_v<T>) {
            for (std::uint32_t slot = 0; slot < size_; ++slot)
                (*this)[slot].~T();
        }
    }

    /** A free slot: the most recently released one, else a new one. */
    std::uint32_t
    acquire()
    {
        if (!free_.empty()) {
            std::uint32_t slot = free_.back();
            free_.pop_back();
            return slot;
        }
        if (size_ % BlockSize == 0)
            blocks_.push_back(std::make_unique_for_overwrite<Block>());
        ::new (static_cast<void *>(
            blocks_.back()->bytes + size_ % BlockSize * sizeof(T))) T();
        return size_++;
    }

    /** Hand @p slot back; its entry stays as it is until reused. */
    void release(std::uint32_t slot) { free_.push_back(slot); }

    T &
    operator[](std::uint32_t slot)
    {
        return *std::launder(reinterpret_cast<T *>(
            blocks_[slot / BlockSize]->bytes +
            slot % BlockSize * sizeof(T)));
    }
    const T &
    operator[](std::uint32_t slot) const
    {
        return *std::launder(reinterpret_cast<const T *>(
            blocks_[slot / BlockSize]->bytes +
            slot % BlockSize * sizeof(T)));
    }

    /** Slots handed out so far, released ones included. */
    std::uint32_t size() const { return size_; }

  private:
    /** Raw storage for BlockSize entries, constructed one by one. */
    struct Block
    {
        alignas(T) unsigned char bytes[BlockSize * sizeof(T)];
    };

    std::vector<std::unique_ptr<Block>> blocks_;
    std::vector<std::uint32_t> free_;
    std::uint32_t size_ = 0;
};

} // namespace ladder

#endif // LADDER_COMMON_SLAB_HH
