#include "ladder_schemes.hh"

#include "common/log.hh"
#include "schemes/partial_counter.hh"

namespace ladder
{

// --------------------------------------------------------------------
// LADDER-Basic
// --------------------------------------------------------------------

LadderBasicScheme::LadderBasicScheme(
    std::shared_ptr<MetadataLayout> layout)
    : layout_(std::move(layout))
{
}

void
LadderBasicScheme::onWriteEnqueued(MemoryController &ctrl,
                                   WriteEntry &entry)
{
    (void)ctrl;
    entry.needsSmb = true;
    entry.metaAddrs.push_back(
        layout_->basicLine(entry.loc.pageIndex, 0));
    entry.metaAddrs.push_back(
        layout_->basicLine(entry.loc.pageIndex, 1));
}

WriteDecision
LadderBasicScheme::decideWrite(MemoryController &ctrl, WriteEntry &entry,
                               const LineData &finalData)
{
    (void)finalData;
    // The maintained counters exactly track the array contents, so the
    // pre-write C_w equals the backing store's ground truth (scanned
    // once per dispatch by the controller).
    unsigned cw = entry.dispatchCw;
    accurateCw.sample(cw);
    const TimingEntry &t = ctrl.ladderTiming(
        entry.loc.wordline, entry.loc.worstBitline(), cw);
    return {t.latencyNs, t.powerMw};
}

WriteBlameHint
LadderBasicScheme::attributeWrite(const MemoryController &ctrl,
                                  const WriteEntry &entry,
                                  const WriteDecision &decision) const
{
    // Content penalty isolated by re-reading the same (WL, BL) cell
    // at zero LRS; the counters are exact, so there is no estimation
    // slack to account for.
    const TimingEntry &bestContent = ctrl.ladderTiming(
        entry.loc.wordline, entry.loc.worstBitline(), 0);
    return {ctrl.timing().ladder.bestLatencyNs(),
            bestContent.latencyNs, decision.latencyNs};
}

void
LadderBasicScheme::onWriteComplete(MemoryController &ctrl,
                                   WriteEntry &entry)
{
    // Counter deltas (new data vs SMB) have been applied. Only the
    // half-lines whose counters actually changed become dirty: half 0
    // stores the counters of mats 0..31, half 1 those of mats 32..63.
    for (unsigned half = 0; half < 2; ++half) {
        bool changed = false;
        for (unsigned mat = half * 32; mat < (half + 1) * 32; ++mat) {
            if (entry.smbData[mat] != entry.physData[mat]) {
                changed = true;
                break;
            }
        }
        if (!changed)
            continue;
        Addr metaAddr = entry.metaAddrs[half];
        if (ctrl.metadataCache().contains(metaAddr))
            ctrl.metadataCache().markDirty(metaAddr);
    }
}

// --------------------------------------------------------------------
// LADDER-Est
// --------------------------------------------------------------------

LadderEstScheme::LadderEstScheme(std::shared_ptr<MetadataLayout> layout,
                                 bool shifting)
    : layout_(std::move(layout)), shifting_(shifting)
{
}

unsigned
LadderEstScheme::shiftAmount(Addr lineAddr) const
{
    // Distinct per block position within the wordline so repetitive
    // patterns across consecutive blocks land in different mats.
    return static_cast<unsigned>((lineAddr / lineBytes) %
                                 MemoryGeometry::blocksPerPage);
}

LineData
LadderEstScheme::encodeData(Addr addr, const LineData &data) const
{
    if (!shifting_)
        return data;
    // Bit-level shifting (paper §4.1): within each 8-byte chip group,
    // transpose the 8x8 bit matrix so every bit of a clustered byte
    // lands in a different mat, then rotate by a per-block offset so
    // the repeated patterns of consecutive blocks in a page are
    // misaligned across the mats.
    LineData out = data;
    unsigned amount = shiftAmount(addr);
    for (unsigned g = 0; g < lineBytes / 8; ++g) {
        transposeGroup(out, g);
        rotateGroupLeft(out, g, amount);
    }
    return out;
}

LineData
LadderEstScheme::decodeData(Addr addr, const LineData &data) const
{
    if (!shifting_)
        return data;
    LineData out = data;
    unsigned amount = shiftAmount(addr);
    for (unsigned g = 0; g < lineBytes / 8; ++g) {
        rotateGroupRight(out, g, amount);
        transposeGroup(out, g);
    }
    return out;
}

std::array<std::uint8_t, 64> &
LadderEstScheme::pageShadow(MemoryController &ctrl,
                            const BlockLocation &loc)
{
    bool fresh;
    auto &packed = shadow_.lineOf(loc.pageIndex, fresh);
    if (!fresh)
        return packed;
    // First touch: derive the packed counters from the resident
    // content, as if the metadata had been maintained since boot.
    BlockLocation block = loc;
    for (unsigned b = 0; b < MemoryGeometry::blocksPerPage; ++b) {
        block.blockInPage = b;
        packed[b] = packPartialCounters2(ctrl.store().read(block));
    }
    return packed;
}

void
LadderEstScheme::onWriteEnqueued(MemoryController &ctrl,
                                 WriteEntry &entry)
{
    (void)ctrl;
    entry.metaAddrs.push_back(layout_->estLine(entry.loc.pageIndex));
}

WriteDecision
LadderEstScheme::decideWrite(MemoryController &ctrl, WriteEntry &entry,
                             const LineData &finalData)
{
    auto &packed = pageShadow(ctrl, entry.loc);
    unsigned cwEst = estimateCw2(packed);
    estimatedCw.sample(cwEst);
    unsigned cwTrue = entry.dispatchCw;
    counterDiff.sample(static_cast<double>(cwEst) -
                       static_cast<double>(cwTrue));

    const TimingEntry &t = ctrl.ladderTiming(
        entry.loc.wordline, entry.loc.worstBitline(), cwEst);

    // Update the partial counters for the written variant and dirty
    // the metadata line (it is pinned by this entry's sharer).
    packed[entry.loc.blockInPage] = packPartialCounters2(finalData);
    ladder_assert(!entry.metaAddrs.empty(),
                  "Est write without metadata line");
    ctrl.metadataCache().markDirty(entry.metaAddrs[0]);
    return {t.latencyNs, t.powerMw};
}

WriteBlameHint
LadderEstScheme::attributeWrite(const MemoryController &ctrl,
                                const WriteEntry &entry,
                                const WriteDecision &decision) const
{
    // decideWrite already advanced the shadow counters, so the
    // estimated C_w cannot be replayed here; anchoring contentNs at
    // the decided latency folds estimation conservatism into the
    // content penalty (see the header comment). Inherited unchanged
    // by LADDER-Hybrid.
    const TimingEntry &bestContent = ctrl.ladderTiming(
        entry.loc.wordline, entry.loc.worstBitline(), 0);
    return {ctrl.timing().ladder.bestLatencyNs(),
            bestContent.latencyNs, decision.latencyNs};
}

void
LadderEstScheme::crashRecover()
{
    // Paper §7: conservatively overwrite all (possibly stale)
    // metadata with maximum counter values; later writes gradually
    // re-tighten them.
    shadow_.fillAll(0xff);
}

// --------------------------------------------------------------------
// LADDER-Hybrid
// --------------------------------------------------------------------

LadderHybridScheme::LadderHybridScheme(
    std::shared_ptr<MetadataLayout> layout, bool shifting,
    unsigned lowRows)
    : LadderEstScheme(std::move(layout), shifting), lowRows_(lowRows)
{
}

void
LadderHybridScheme::crashRecover()
{
    LadderEstScheme::crashRecover();
    lowShadow_.fillAll(0x03);
}

bool
LadderHybridScheme::lowPrecision(const BlockLocation &loc) const
{
    // Rows near the write driver (low index) see little IR drop and
    // are insensitive to content: 1-bit counters suffice.
    return loc.wordline < lowRows_;
}

std::array<std::uint8_t, 64> &
LadderHybridScheme::lowPageShadow(MemoryController &ctrl,
                                  const BlockLocation &loc)
{
    bool fresh;
    auto &packed = lowShadow_.lineOf(loc.pageIndex, fresh);
    if (!fresh)
        return packed;
    BlockLocation block = loc;
    for (unsigned b = 0; b < MemoryGeometry::blocksPerPage; ++b) {
        block.blockInPage = b;
        packed[b] = packPartialCounters1(ctrl.store().read(block));
    }
    return packed;
}

void
LadderHybridScheme::onWriteEnqueued(MemoryController &ctrl,
                                    WriteEntry &entry)
{
    (void)ctrl;
    if (lowPrecision(entry.loc))
        entry.metaAddrs.push_back(layout_->hybridLowLine(entry.loc));
    else
        entry.metaAddrs.push_back(
            layout_->estLine(entry.loc.pageIndex));
}

WriteDecision
LadderHybridScheme::decideWrite(MemoryController &ctrl,
                                WriteEntry &entry,
                                const LineData &finalData)
{
    if (!lowPrecision(entry.loc))
        return LadderEstScheme::decideWrite(ctrl, entry, finalData);

    auto &packed = lowPageShadow(ctrl, entry.loc);
    unsigned cwEst = estimateCw1(packed);
    estimatedCw.sample(cwEst);
    const TimingEntry &t = ctrl.ladderTiming(
        entry.loc.wordline, entry.loc.worstBitline(), cwEst);

    packed[entry.loc.blockInPage] = packPartialCounters1(finalData);
    ladder_assert(!entry.metaAddrs.empty(),
                  "Hybrid write without metadata line");
    ctrl.metadataCache().markDirty(entry.metaAddrs[0]);
    return {t.latencyNs, t.powerMw};
}

} // namespace ladder
