/**
 * @file
 * The three LADDER designs (paper §3.3, §4):
 *
 *  - LadderBasicScheme: exact 10-bit per-mat LRS counters; every data
 *    write triggers a stale-memory-block (SMB) read so counter deltas
 *    can be computed, plus fills of the two metadata lines per page.
 *  - LadderEstScheme: 2-bit partial counters (4 subgroups) eliminate
 *    SMB reads; one metadata line covers a 4KB page; optional
 *    intra-line bit-level shifting de-clusters '1'-heavy bytes.
 *  - LadderHybridScheme: multi-granularity counters — pages on rows
 *    near the write driver (insensitive to content) downgrade to two
 *    1-bit counters, packing 4 pages per metadata line.
 */

#ifndef LADDER_SCHEMES_LADDER_SCHEMES_HH
#define LADDER_SCHEMES_LADDER_SCHEMES_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/page_table.hh"
#include "common/slab.hh"
#include "common/stats.hh"
#include "ctrl/controller.hh"
#include "ctrl/scheme.hh"
#include "schemes/metadata_layout.hh"

namespace ladder
{

/** LADDER-Basic: accurate counting with SMB reads. */
class LadderBasicScheme : public WriteScheme
{
  public:
    explicit LadderBasicScheme(std::shared_ptr<MetadataLayout> layout);

    std::string name() const override { return "LADDER-Basic"; }
    void onWriteEnqueued(MemoryController &ctrl,
                         WriteEntry &entry) override;
    WriteDecision decideWrite(MemoryController &ctrl, WriteEntry &entry,
                              const LineData &finalData) override;
    void onWriteComplete(MemoryController &ctrl,
                         WriteEntry &entry) override;
    WriteBlameHint attributeWrite(
        const MemoryController &ctrl, const WriteEntry &entry,
        const WriteDecision &decision) const override;
    bool constrainedFnw() const override { return true; }

    /** Accurate C_w sampled per write (Fig. 15 reference series). */
    StatAverage accurateCw;

  private:
    std::shared_ptr<MetadataLayout> layout_;
};

/** LADDER-Est: partial-counter estimation + bit-level shifting. */
class LadderEstScheme : public WriteScheme
{
  public:
    /**
     * @param layout Metadata region layout.
     * @param shifting Enable intra-line bit-level shifting.
     */
    LadderEstScheme(std::shared_ptr<MetadataLayout> layout,
                    bool shifting = true);

    std::string name() const override { return "LADDER-Est"; }
    void onWriteEnqueued(MemoryController &ctrl,
                         WriteEntry &entry) override;
    WriteDecision decideWrite(MemoryController &ctrl, WriteEntry &entry,
                              const LineData &finalData) override;
    LineData encodeData(Addr addr, const LineData &data) const override;
    LineData decodeData(Addr addr, const LineData &data) const override;
    /**
     * Shared by LADDER-Est and LADDER-Hybrid (both dispatch through
     * the ladder model at the entry's location). contentNs is the
     * decided latency itself, so estimation conservatism — the
     * partial counters rounding C_w up — lands in the content
     * penalty, which is exactly where the estimated-vs-oracle
     * latency gap belongs.
     */
    WriteBlameHint attributeWrite(
        const MemoryController &ctrl, const WriteEntry &entry,
        const WriteDecision &decision) const override;
    bool constrainedFnw() const override { return true; }

    /** Signed difference (estimated - accurate) per write (Fig. 15). */
    StatAverage counterDiff;
    /** Estimated C_w sampled per write. */
    StatAverage estimatedCw;

    /**
     * Lazy LRS-metadata correction after an abrupt power loss (paper
     * §7): dirty metadata lines may not have been persisted, so every
     * known counter is conservatively overwritten with its maximum.
     * Subsequent writes re-tighten the estimates block by block;
     * correctness (sufficient latency) holds throughout.
     */
    virtual void crashRecover();

  protected:
    /**
     * Shadow metadata lines of the written pages, kept densely in
     * first-write order, so their memory follows the written pages
     * rather than the page-index range those span.
     */
    struct ShadowMap
    {
        /** 1 + the page's slot in lines; 0 while the page is unwritten. */
        PageTable<std::uint32_t> slotOf;
        Slab<std::array<std::uint8_t, 64>, 512> lines;

        /** The page's line; @p fresh tells it was just created (zeroed). */
        std::array<std::uint8_t, 64> &
        lineOf(std::uint64_t pageIndex, bool &fresh)
        {
            std::uint32_t &slot = slotOf[pageIndex];
            fresh = slot == 0;
            if (fresh)
                slot = lines.acquire() + 1;
            return lines[slot - 1];
        }

        /** Overwrite every written page's line with @p value. */
        void
        fillAll(std::uint8_t value)
        {
            for (std::uint32_t slot = 0; slot < lines.size(); ++slot)
                lines[slot].fill(value);
        }
    };

    std::shared_ptr<MetadataLayout> layout_;
    bool shifting_;

    /** Shadow contents of the per-page metadata lines, by page. */
    ShadowMap shadow_;

    /** Shadow of the page holding @p loc (built at first touch). */
    std::array<std::uint8_t, 64> &pageShadow(MemoryController &ctrl,
                                             const BlockLocation &loc);
    unsigned shiftAmount(Addr lineAddr) const;
};

/** LADDER-Hybrid: Est plus low-precision counters for near rows. */
class LadderHybridScheme : public LadderEstScheme
{
  public:
    LadderHybridScheme(std::shared_ptr<MetadataLayout> layout,
                       bool shifting = true, unsigned lowRows = 128);

    std::string name() const override { return "LADDER-Hybrid"; }
    void onWriteEnqueued(MemoryController &ctrl,
                         WriteEntry &entry) override;
    WriteDecision decideWrite(MemoryController &ctrl, WriteEntry &entry,
                              const LineData &finalData) override;
    void crashRecover() override;

    unsigned lowRows() const { return lowRows_; }

  private:
    unsigned lowRows_;
    /** Shadow of 1-bit metadata, keyed by page. */
    ShadowMap lowShadow_;

    bool lowPrecision(const BlockLocation &loc) const;
    std::array<std::uint8_t, 64> &lowPageShadow(MemoryController &ctrl,
                                                const BlockLocation &loc);
};

} // namespace ladder

#endif // LADDER_SCHEMES_LADDER_SCHEMES_HH
