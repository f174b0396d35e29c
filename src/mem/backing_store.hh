/**
 * @file
 * Content-true sparse backing store for the ReRAM main memory.
 *
 * Unlike a conventional latency-only memory model, LADDER's behaviour
 * depends on the actual bits resident in the crossbars, so the store
 * keeps real 64-byte payloads. On top of the payloads it incrementally
 * maintains the two ground-truth LRS statistics the evaluated schemes
 * need:
 *
 *  - per-(page, mat) wordline LRS counts C_j (the exact counters
 *    LADDER-Basic maintains and the Oracle consults), and
 *  - per-(mat group, mat, bitline) LRS counts (what BLP's profiling
 *    circuitry would report).
 *
 * Pages are materialized lazily; an installable initializer provides
 * first-touch content so workloads see realistic resident data.
 *
 * Layout:
 *
 *  - **Bitline counters** are block-slot-major: a mat group's counter
 *    for bitline 8b + bit of mat m sits at `(b * 64 + m) * 8 + bit`.
 *    The 512 bitlines one block write selects (8 in each of 64 mats)
 *    are therefore one contiguous 1 KiB slice, and the 8 counters of
 *    byte (b, m) are two words of four 16-bit lanes that a 256-entry
 *    table updates with two 64-bit adds; the same table entries sum to
 *    the byte's popcount for the wordline counters. A lane never
 *    carries or borrows: a count is at most background + matRows <=
 *    2 * MemoryGeometry::maxMatRows < 2^16, and a count is decremented
 *    only while its bit is set.
 *  - **Pages** live in a slab (a deque, one allocation per page) and
 *    are found through a two-level directory: `pageIndex >> 9` picks a
 *    lazily allocated leaf of 512 page pointers. Counter blocks are
 *    found by dense mat-group index. Both index vectors grow to the
 *    highest index touched (16 KiB each at most for the default
 *    geometry). There is no hashing on any path.
 *  - **References stay valid.** A page never moves once materialized,
 *    so a `LineData &` or `PageContent &` handed out stays valid for
 *    the store's lifetime, across later first touches.
 *
 * Every accessor has a `BlockLocation` form, so a caller that already
 * decoded the address (the controller carries the location in each
 * queue entry) does not decode it again; the `Addr` forms decode and
 * forward.
 */

#ifndef LADDER_MEM_BACKING_STORE_HH
#define LADDER_MEM_BACKING_STORE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/bitops.hh"
#include "common/types.hh"
#include "reram/geometry.hh"

namespace ladder
{

/** Resident state of one 4KB page. */
struct PageContent
{
    std::array<LineData, MemoryGeometry::blocksPerPage> blocks{};
    /** C_j: LRS count of byte column j across the page's blocks. */
    std::array<std::uint16_t, MemoryGeometry::matsPerGroup> matCounts{};
    /** Flip-N-Write inversion flag per block. */
    std::uint64_t flippedMask = 0;
};

/** Sparse, content-true ReRAM state. */
class BackingStore
{
  public:
    /** Callback that fills a page's blocks at first touch. */
    using PageInitializer =
        std::function<void(std::uint64_t pageIndex, PageContent &)>;

    /**
     * @param geo Module geometry.
     * @param trackBitlines Maintain per-bitline LRS counters (needed by
     *        the BLP scheme; small extra cost per write).
     * @param backgroundDensity Assumed LRS fraction of crossbar rows
     *        not owned by the simulated working set. A bitline spans
     *        all 512 wordlines of a mat; in a real deployment those
     *        rows hold other processes' data, so per-bitline counters
     *        start from density * rows instead of zero. Wordline
     *        (LADDER) counters are unaffected — a wordline belongs
     *        entirely to one simulated page.
     */
    explicit BackingStore(const MemoryGeometry &geo,
                          bool trackBitlines = true,
                          double backgroundDensity = 0.4);

    /** Install the first-touch content generator (optional). */
    void setPageInitializer(PageInitializer init);

    /** Read a block's payload (materializes the page). */
    const LineData &
    read(const BlockLocation &loc)
    {
        return page(loc.pageIndex).blocks[loc.blockInPage];
    }
    const LineData &read(Addr lineAddr) { return read(map_.decode(lineAddr)); }

    /**
     * Write a block's payload, updating all LRS statistics.
     *
     * @return The bit transitions performed (for energy/FNW stats).
     */
    BitTransitions write(const BlockLocation &loc, const LineData &data);
    BitTransitions
    write(Addr lineAddr, const LineData &data)
    {
        return write(map_.decode(lineAddr), data);
    }

    /** Whether a page has been materialized. */
    bool pageResident(std::uint64_t pageIndex) const;

    /** Exact C_j for one mat of a page. */
    std::uint16_t matLrsCount(std::uint64_t pageIndex, unsigned mat);

    /** Exact C_w = max_j C_j for a page. */
    std::uint16_t maxMatLrsCount(std::uint64_t pageIndex);

    /**
     * Worst per-bitline LRS count among the 512 bitline instances a
     * block write selects (8 bitlines in each of 64 mats).
     * Requires trackBitlines.
     */
    std::uint16_t maxSelectedBitlineLrs(const BlockLocation &loc);
    std::uint16_t
    maxSelectedBitlineLrs(Addr lineAddr)
    {
        return maxSelectedBitlineLrs(map_.decode(lineAddr));
    }

    /**
     * LRS count of one bitline the block at @p loc selects: bitline
     * 8 * blockInPage + bit of mat @p mat. Requires trackBitlines.
     */
    std::uint16_t bitlineLrsCount(const BlockLocation &loc, unsigned mat,
                                  unsigned bit);

    /** FNW flag for a block. */
    bool flipped(const BlockLocation &loc);
    bool flipped(Addr lineAddr) { return flipped(map_.decode(lineAddr)); }
    void setFlipped(const BlockLocation &loc, bool value);
    void
    setFlipped(Addr lineAddr, bool value)
    {
        setFlipped(map_.decode(lineAddr), value);
    }

    /** Number of materialized pages. */
    std::size_t residentPages() const { return pages_.size(); }

    const AddressMap &addressMap() const { return map_; }
    const MemoryGeometry &geometry() const { return geo_; }

  private:
    /** Bitline counters of one block slot: 8 bitlines x 64 mats. */
    static constexpr unsigned slotCounters =
        MemoryGeometry::matsPerGroup * 8;
    /** Page pointers per directory leaf. */
    static constexpr unsigned leafBits = 9;
    static constexpr std::uint64_t leafMask = (1u << leafBits) - 1;

    /** Per-mat-group bitline LRS counters, [block slot][mat][bit]. */
    struct MatGroupCounters
    {
        std::array<std::uint16_t,
                   MemoryGeometry::blocksPerPage * slotCounters>
            counts;
    };
    using PageLeaf = std::array<PageContent *, 1u << leafBits>;

    MemoryGeometry geo_;
    AddressMap map_;
    bool trackBitlines_;
    double backgroundDensity_;
    PageInitializer init_;
    /** Materialized pages, in first-touch order; never move. */
    std::deque<PageContent> pages_;
    /** Page directory: leaf pageIndex >> leafBits, slot in the leaf. */
    std::vector<std::unique_ptr<PageLeaf>> directory_;
    /** Bitline counters, by matGroupKey(). */
    std::vector<std::unique_ptr<MatGroupCounters>> groupCounters_;

    /** The resident page, or nullptr. */
    PageContent *
    find(std::uint64_t pageIndex) const
    {
        std::uint64_t leaf = pageIndex >> leafBits;
        if (leaf >= directory_.size() || !directory_[leaf])
            return nullptr;
        return (*directory_[leaf])[pageIndex & leafMask];
    }
    PageContent &
    page(std::uint64_t pageIndex)
    {
        if (PageContent *content = find(pageIndex))
            return *content;
        return materialize(pageIndex);
    }
    PageContent &materialize(std::uint64_t pageIndex);
    std::uint64_t matGroupKey(const BlockLocation &loc) const;
    MatGroupCounters &groupCounters(const BlockLocation &loc);
};

} // namespace ladder

#endif // LADDER_MEM_BACKING_STORE_HH
