#include "core.hh"

#include <algorithm>

#include "common/log.hh"

namespace ladder
{

Core::Core(EventQueue &events, const CoreParams &params, unsigned id,
           std::unique_ptr<TraceSource> trace,
           CacheHierarchy &hierarchy, RouteFn route, Addr regionBase)
    : events_(events),
      params_(params),
      id_(id),
      trace_(std::move(trace)),
      hierarchy_(hierarchy),
      route_(std::move(route)),
      regionBase_(regionBase)
{
    ladder_assert(params_.freqGhz > 0.0, "core frequency must be > 0");
    cycleTicks_ = nsToTicks(1.0 / params_.freqGhz);
    ladder_assert(cycleTicks_ > 0, "core cycle below tick resolution");
}

Addr
Core::physOf(Addr regionRelative) const
{
    return regionBase_ + regionRelative;
}

void
Core::regStats(StatGroup &group)
{
    group.regScalar("mem_reads", &memReads,
                    "demand fetches sent to memory");
    group.regScalar("mem_writes", &memWrites,
                    "L3 writebacks sent to memory");
    group.regScalar("loads", &loads, "retired loads");
    group.regScalar("stores", &stores, "retired stores");
    group.regScalar("rob_stalls", &robStalls,
                    "cycles stalled on a full ROB");
    group.regScalar("mshr_stalls", &mshrStalls,
                    "cycles stalled on MSHR exhaustion");
    group.regScalar("chase_stalls", &chaseStalls,
                    "cycles stalled on dependent-load chasing");
    group.regScalar("wb_stalls", &wbStalls,
                    "cycles stalled on writeback back-pressure");
    group.regScalar("rdq_stalls", &rdqStalls,
                    "cycles stalled on a full read queue");
}

void
Core::functionalWarmup(std::uint64_t instructions)
{
    std::uint64_t target = instrIssued_ + instructions;
    std::vector<Writeback> &wbs = wbs_;
    while (instrIssued_ < target) {
        TraceRecord rec = pendingRecord_ ? *pendingRecord_
                                         : trace_->next();
        pendingRecord_.reset();
        instrIssued_ += rec.nonMemBefore + 1;
        Addr phys = physOf(rec.lineAddr);
        wbs.clear();
        if (!rec.isWrite) {
            if (!hierarchy_.read(id_, phys, wbs)) {
                LineData data = route_(phys).functionalRead(phys);
                hierarchy_.fill(id_, phys, data, wbs);
            }
        } else {
            if (!hierarchy_.write(id_, phys, rec.storeOffset,
                                  rec.storeData.data(), wbs)) {
                LineData data = route_(phys).functionalRead(phys);
                hierarchy_.fill(id_, phys, data, wbs);
                auto applied = hierarchy_.write(
                    id_, phys, rec.storeOffset, rec.storeData.data(),
                    wbs);
                ladder_assert(applied.has_value(),
                              "warmup store missed after fill");
            }
        }
        for (const auto &wb : wbs)
            route_(wb.first).functionalWrite(wb.first, wb.second);
    }
}

void
Core::runPhase(std::uint64_t instructions, std::function<void()> onDone)
{
    phaseTarget_ = instrIssued_ + instructions;
    onDone_ = std::move(onDone);
    scheduleActivation();
}

void
Core::scheduleActivation()
{
    if (activationScheduled_ || blocked_ != BlockReason::None)
        return;
    activationScheduled_ = true;
    Tick when = std::max(events_.now(), coreTime_);
    events_.schedule(when, [this]() {
        activationScheduled_ = false;
        activate();
    });
}

void
Core::activate()
{
    if (blocked_ != BlockReason::None)
        return;
    coreTime_ = std::max(coreTime_, events_.now());
    for (unsigned n = 0; n < params_.quantum; ++n) {
        if (instrIssued_ >= phaseTarget_) {
            if (onDone_) {
                auto done = std::move(onDone_);
                onDone_ = nullptr;
                done();
            }
            return;
        }
        // Don't run logically ahead of the event clock by more than a
        // few cycles; requests must reach the controller near their
        // logical issue time.
        if (coreTime_ > events_.now() + 8 * cycleTicks_)
            break;
        if (!processOne())
            return; // blocked; a callback will resume us
    }
    scheduleActivation();
}

void
Core::advanceIssue(std::uint32_t instructions)
{
    issueDebt_ += instructions;
    coreTime_ += (issueDebt_ / params_.width) * cycleTicks_;
    issueDebt_ %= params_.width;
}

void
Core::chargeLatency(double ns, bool dependent)
{
    Tick ticks = nsToTicks(ns);
    if (dependent)
        coreTime_ += ticks;
    else
        coreTime_ += ticks / 8; // OoO hides most of a hit's latency
}

void
Core::retireCompleted()
{
    while (!outstanding_.empty()) {
        const OutstandingLoad &front = outstanding_.front();
        if (front.completeTick == maxTick ||
            front.completeTick > coreTime_)
            break;
        outstanding_.erase(outstanding_.begin());
    }
}

void
Core::drainWritebacks()
{
    std::size_t sent = 0;
    for (const Writeback &wb : pendingWritebacks_) {
        MemoryController &ctrl = route_(wb.first);
        if (!ctrl.canAcceptWrite())
            break;
        ctrl.enqueueWrite(wb.first, wb.second);
        ++memWrites;
        ++sent;
    }
    pendingWritebacks_.erase(pendingWritebacks_.begin(),
                             pendingWritebacks_.begin() +
                                 static_cast<long>(sent));
}

void
Core::pushWritebacks(std::vector<Writeback> &writebacks)
{
    pendingWritebacks_.insert(pendingWritebacks_.end(),
                              writebacks.begin(), writebacks.end());
    writebacks.clear();
    drainWritebacks();
}

Core::PendingLine *
Core::findPendingLine(Addr addr)
{
    for (PendingLine &line : pendingLines_) {
        if (line.addr == addr)
            return &line;
    }
    return nullptr;
}

bool
Core::issueFetch(Addr physAddr, bool isStore, const TraceRecord &rec)
{
    (void)isStore;
    MemoryController &ctrl = route_(physAddr);
    std::uint64_t seqNo = instrIssued_ + rec.nonMemBefore;
    outstanding_.push_back({seqNo, maxTick});
    if (PendingLine *line = findPendingLine(physAddr))
        line->seqNo = seqNo;
    else
        pendingLines_.push_back({physAddr, seqNo});
    ++memReads;
    ctrl.enqueueRead(
        physAddr, [this, physAddr, seqNo](const LineData &data,
                                          Tick when) {
            std::vector<Writeback> &wbs = fillWbs_;
            hierarchy_.fill(id_, physAddr, data, wbs);
            // Apply stores that were waiting on this fetch, newest
            // first. This order is a known bug, kept because results
            // are pinned to it: when two waiting stores hit the same
            // word, the older store's bytes win (ROADMAP, "Pending
            // stores merge in reverse program order").
            for (auto it = pendingStoreMerges_.rbegin();
                 it != pendingStoreMerges_.rend(); ++it) {
                if (it->addr != physAddr)
                    continue;
                auto applied = hierarchy_.write(
                    id_, physAddr, it->offset, it->bytes.data(), wbs);
                ladder_assert(applied.has_value(),
                              "store merge missed after fill");
            }
            std::erase_if(pendingStoreMerges_,
                          [physAddr](const PendingStore &store) {
                              return store.addr == physAddr;
                          });
            std::erase_if(pendingLines_,
                          [physAddr](const PendingLine &line) {
                              return line.addr == physAddr;
                          });
            pushWritebacks(wbs);
            loadCompleted(seqNo, when);
        });
    return true;
}

void
Core::loadCompleted(std::uint64_t seqNo, Tick when)
{
    for (auto &slot : outstanding_) {
        if (slot.seqNo == seqNo && slot.completeTick == maxTick) {
            slot.completeTick = when;
            break;
        }
    }
    if (blocked_ == BlockReason::FrontLoad && !outstanding_.empty() &&
        outstanding_.front().completeTick != maxTick) {
        coreTime_ =
            std::max(coreTime_, outstanding_.front().completeTick);
        outstanding_.erase(outstanding_.begin());
        retireCompleted();
        blocked_ = BlockReason::None;
        scheduleActivation();
    } else if (blocked_ == BlockReason::OwnLoad &&
               blockedOnLoadSeq_ == seqNo) {
        coreTime_ = std::max(coreTime_, when);
        blocked_ = BlockReason::None;
        scheduleActivation();
    }
}

void
Core::notifyRetry()
{
    if (blocked_ == BlockReason::ReadRetry ||
        blocked_ == BlockReason::WriteRetry) {
        blocked_ = BlockReason::None;
        scheduleActivation();
    }
}

bool
Core::processOne()
{
    drainWritebacks();
    if (pendingWritebacks_.size() > params_.writebackStall) {
        blocked_ = BlockReason::WriteRetry;
        ++wbStalls;
        return false;
    }

    if (!pendingRecord_)
        pendingRecord_ = trace_->next();
    const TraceRecord rec = *pendingRecord_;

    retireCompleted();
    std::uint64_t memSeq = instrIssued_ + rec.nonMemBefore;
    if (!outstanding_.empty()) {
        const OutstandingLoad &front = outstanding_.front();
        bool robFull = memSeq + 1 - front.seqNo >= params_.robSize;
        bool mshrFull =
            outstanding_.size() >= params_.maxOutstanding;
        if (robFull || mshrFull) {
            if (front.completeTick != maxTick) {
                coreTime_ = std::max(coreTime_, front.completeTick);
                outstanding_.erase(outstanding_.begin());
                retireCompleted();
            } else {
                blocked_ = BlockReason::FrontLoad;
                if (robFull)
                    ++robStalls;
                else
                    ++mshrStalls;
                return false;
            }
        }
    }

    Addr phys = physOf(rec.lineAddr);
    std::vector<Writeback> &wbs = wbs_;
    wbs.clear();
    auto commit = [&]() {
        advanceIssue(rec.nonMemBefore + 1);
        instrIssued_ = memSeq + 1;
        pendingRecord_.reset();
    };

    if (!rec.isWrite) {
        ++loads;
        if (const PendingLine *pending = findPendingLine(phys)) {
            std::uint64_t covering = pending->seqNo;
            commit();
            if (rec.dependent) {
                blocked_ = BlockReason::OwnLoad;
                blockedOnLoadSeq_ = covering;
                ++chaseStalls;
                return false;
            }
        } else if (auto hit = hierarchy_.read(id_, phys, wbs)) {
            commit();
            chargeLatency(hit->latencyNs, rec.dependent);
        } else {
            MemoryController &ctrl = route_(phys);
            if (!ctrl.canAcceptRead()) {
                blocked_ = BlockReason::ReadRetry;
                ++rdqStalls;
                return false;
            }
            issueFetch(phys, false, rec);
            std::uint64_t seqNo = memSeq;
            commit();
            if (rec.dependent) {
                blocked_ = BlockReason::OwnLoad;
                blockedOnLoadSeq_ = seqNo;
                ++chaseStalls;
                return false;
            }
        }
    } else {
        ++stores;
        if (findPendingLine(phys)) {
            pendingStoreMerges_.push_back(
                {phys, rec.storeOffset, rec.storeData});
            commit();
        } else if (auto lat = hierarchy_.write(id_, phys,
                                               rec.storeOffset,
                                               rec.storeData.data(),
                                               wbs)) {
            commit();
            chargeLatency(*lat, false);
        } else {
            // Write-allocate: fetch for ownership, then merge.
            MemoryController &ctrl = route_(phys);
            if (!ctrl.canAcceptRead()) {
                blocked_ = BlockReason::ReadRetry;
                ++rdqStalls;
                return false;
            }
            issueFetch(phys, true, rec);
            pendingStoreMerges_.push_back(
                {phys, rec.storeOffset, rec.storeData});
            commit();
        }
    }
    pushWritebacks(wbs);
    return true;
}

} // namespace ladder
