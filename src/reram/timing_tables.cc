#include "timing_tables.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "circuit/fastmodel.hh"
#include "common/log.hh"
#include "common/profiler.hh"
#include "common/thread_pool.hh"
#include "latency_surface.hh"

namespace ladder
{

namespace
{

/** Append every operating point fillTables() consumes, in order. */
void
appendTableConditions(std::vector<ResetCondition> &conds,
                      const CrossbarParams &params, unsigned g)
{
    auto append = [&conds](const std::vector<ResetCondition> &more) {
        conds.insert(conds.end(), more.begin(), more.end());
    };
    append(WriteTimingTable::corners(params, ContentDim::Wordline, g, g,
                                     g));
    append(WriteTimingTable::corners(params, ContentDim::Bitline, g, g,
                                     g));
    append(WriteTimingTable::corners(params, ContentDim::Wordline, g, g,
                                     1));
    append(PowerTable::conditions(params));
}

/**
 * Fill the LADDER, BLP and location tables and the power table from
 * evaluations of appendTableConditions()'s list under model.law, then
 * precompute the dense lookup surfaces.
 */
void
fillTables(TimingModel &model, unsigned g,
           std::span<const ResetEvaluation> evals)
{
    auto take = [&evals](std::size_t count) {
        ladder_assert(count <= evals.size(),
                      "timing build: too few evaluations");
        std::span<const ResetEvaluation> head = evals.first(count);
        evals = evals.subspan(count);
        return head;
    };
    const std::size_t cube = static_cast<std::size_t>(g) * g * g;
    model.ladder = WriteTimingTable::build(model.params, model.law,
                                           take(cube),
                                           ContentDim::Wordline, g, g, g);
    model.blp = WriteTimingTable::build(model.params, model.law,
                                        take(cube), ContentDim::Bitline,
                                        g, g, g);
    model.location = WriteTimingTable::build(
        model.params, model.law, take(static_cast<std::size_t>(g) * g),
        ContentDim::Wordline, g, g, 1);
    model.power = PowerTable::build(model.params, take(evals.size()));

    model.ladderSurface = std::make_shared<const LatencySurface>(
        LatencySurface::fromTable(model.ladder));
    model.blpSurface = std::make_shared<const LatencySurface>(
        LatencySurface::fromTable(model.blp));
    model.locationSurface = std::make_shared<const LatencySurface>(
        LatencySurface::fromTable(model.location));
}

} // namespace

std::vector<ResetEvaluation>
evaluateFastModel(const CrossbarParams &params,
                  std::span<const ResetCondition> conds,
                  unsigned workers)
{
    const SneakPathModel fast(params);
    std::vector<ResetEvaluation> out(conds.size());
    if (workers == 0)
        workers = ThreadPool::defaultJobs();
    // Each worker keeps up to batchLanes conditions in flight.
    workers = static_cast<unsigned>(std::min<std::size_t>(
        workers, (conds.size() + SneakPathModel::batchLanes - 1) /
                     SneakPathModel::batchLanes));
    if (workers <= 1) {
        fast.evaluateBatch(conds, out);
        return out;
    }

    std::vector<SneakPathModel::Workspace> spaces;
    spaces.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        spaces.emplace_back(fast);
    std::atomic<std::size_t> next{0};
    {
        ThreadPool pool(workers);
        std::vector<std::future<void>> done;
        done.reserve(workers);
        for (unsigned w = 0; w < workers; ++w) {
            done.push_back(pool.submit([&, w]() {
                fast.evaluateBatch(conds, out, spaces[w], next);
            }));
        }
        for (auto &f : done)
            f.get();
    }
    return out;
}

std::size_t
WriteTimingTable::index(unsigned wl, unsigned bl, unsigned c) const
{
    return (static_cast<std::size_t>(wl) * blBuckets_ + bl) *
               contentBuckets_ +
           c;
}

std::vector<ResetCondition>
WriteTimingTable::corners(const CrossbarParams &params, ContentDim dim,
                          unsigned wlBuckets, unsigned blBuckets,
                          unsigned contentBuckets)
{
    ladder_assert(wlBuckets > 0 && blBuckets > 0 && contentBuckets > 0,
                  "timing table: zero buckets");
    const unsigned rows = static_cast<unsigned>(params.rows);
    const unsigned cols = static_cast<unsigned>(params.cols);
    const unsigned slots =
        cols / static_cast<unsigned>(params.selectedCells);
    const unsigned contentMax =
        dim == ContentDim::Wordline ? cols : rows;
    std::vector<ResetCondition> conds;
    conds.reserve(static_cast<std::size_t>(wlBuckets) * blBuckets *
                  contentBuckets);
    for (unsigned wb = 0; wb < wlBuckets; ++wb) {
        // Worst (farthest-from-driver) wordline of the bucket.
        unsigned wl = (wb + 1) * rows / wlBuckets - 1;
        for (unsigned bb = 0; bb < blBuckets; ++bb) {
            // Worst byte slot of the bucket.
            unsigned slot = (bb + 1) * slots / blBuckets - 1;
            for (unsigned cb = 0; cb < contentBuckets; ++cb) {
                // Worst (largest) content count of the bucket.
                unsigned count = (cb + 1) * contentMax / contentBuckets;
                ResetCondition cond;
                cond.wordline = wl;
                cond.byteOffset = slot;
                if (dim == ContentDim::Wordline) {
                    cond.wlLrsCount = count;
                    cond.blLrsCount = rows;
                } else {
                    cond.blLrsCount = count;
                    cond.wlLrsCount = cols;
                }
                conds.push_back(cond);
            }
        }
    }
    return conds;
}

WriteTimingTable
WriteTimingTable::build(const CrossbarParams &params,
                        const ResetLatencyLaw &law,
                        std::span<const ResetEvaluation> evals,
                        ContentDim dim, unsigned wlBuckets,
                        unsigned blBuckets, unsigned contentBuckets)
{
    ladder_assert(wlBuckets > 0 && blBuckets > 0 && contentBuckets > 0,
                  "timing table: zero buckets");
    WriteTimingTable table;
    table.wlBuckets_ = wlBuckets;
    table.blBuckets_ = blBuckets;
    table.contentBuckets_ = contentBuckets;
    table.rows_ = static_cast<unsigned>(params.rows);
    table.cols_ = static_cast<unsigned>(params.cols);
    table.dim_ = dim;
    table.contentMax_ = dim == ContentDim::Wordline
                            ? static_cast<unsigned>(params.cols)
                            : static_cast<unsigned>(params.rows);
    table.entries_.resize(static_cast<std::size_t>(wlBuckets) *
                          blBuckets * contentBuckets);
    ladder_assert(evals.size() == table.entries_.size(),
                  "timing table: %zu evaluations for %zu entries",
                  evals.size(), table.entries_.size());

    // Entries are stored in corners() order.
    double worst = 0.0;
    double best = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < evals.size(); ++i) {
        TimingEntry &entry = table.entries_[i];
        entry.latencyNs = law.latencyNs(evals[i].minDropVolts);
        entry.powerMw = evals[i].sourcePowerWatts * 1e3;
        worst = std::max(worst, entry.latencyNs);
        best = std::min(best, entry.latencyNs);
    }
    table.worstNs_ = worst;
    table.bestNs_ = best;
    return table;
}

const TimingEntry &
WriteTimingTable::lookup(unsigned wordline, unsigned bitline,
                         unsigned lrsCount) const
{
    ladder_assert(!entries_.empty(), "lookup on empty timing table");
    unsigned wb = std::min(wordline * wlBuckets_ / rows_,
                           wlBuckets_ - 1);
    unsigned bb = std::min(bitline * blBuckets_ / cols_,
                           blBuckets_ - 1);
    // Content rounds *up*: a count on a bucket boundary must use the
    // bucket whose worst-case corner covers it.
    unsigned cb = 0;
    if (lrsCount > 0) {
        unsigned clamped = std::min(lrsCount, contentMax_);
        cb = (clamped * contentBuckets_ + contentMax_ - 1) /
                 contentMax_ -
             1;
        cb = std::min(cb, contentBuckets_ - 1);
    }
    return entries_[index(wb, bb, cb)];
}

const TimingEntry &
WriteTimingTable::at(unsigned wlBucket, unsigned blBucket,
                     unsigned contentBucket) const
{
    ladder_assert(wlBucket < wlBuckets_ && blBucket < blBuckets_ &&
                      contentBucket < contentBuckets_,
                  "timing table bucket out of range");
    return entries_[index(wlBucket, blBucket, contentBucket)];
}

std::size_t
WriteTimingTable::storageBytes() const
{
    // One byte encodes a latency level; the paper reports a 512B buffer
    // for the 8x8x8 organization.
    return entries_.size();
}

std::vector<ResetCondition>
PowerTable::conditions(const CrossbarParams &params, unsigned buckets)
{
    ladder_assert(buckets > 0, "power table: zero buckets");
    const unsigned rows = static_cast<unsigned>(params.rows);
    const unsigned cols = static_cast<unsigned>(params.cols);
    const unsigned slots =
        cols / static_cast<unsigned>(params.selectedCells);
    std::vector<ResetCondition> conds;
    conds.reserve(static_cast<std::size_t>(buckets) * buckets * buckets *
                  buckets);
    for (unsigned wb = 0; wb < buckets; ++wb) {
        unsigned wl = (2 * wb + 1) * rows / (2 * buckets);
        for (unsigned bb = 0; bb < buckets; ++bb) {
            unsigned slot = (2 * bb + 1) * slots / (2 * buckets);
            for (unsigned cw = 0; cw < buckets; ++cw) {
                unsigned wlCount = (2 * cw + 1) * cols / (2 * buckets);
                for (unsigned cb = 0; cb < buckets; ++cb) {
                    ResetCondition cond;
                    cond.wordline = wl;
                    cond.byteOffset = slot;
                    cond.wlLrsCount = wlCount;
                    cond.blLrsCount =
                        (2 * cb + 1) * rows / (2 * buckets);
                    conds.push_back(cond);
                }
            }
        }
    }
    return conds;
}

PowerTable
PowerTable::build(const CrossbarParams &params,
                  std::span<const ResetEvaluation> evals,
                  unsigned buckets)
{
    ladder_assert(buckets > 0, "power table: zero buckets");
    PowerTable table;
    table.buckets_ = buckets;
    table.rows_ = static_cast<unsigned>(params.rows);
    table.cols_ = static_cast<unsigned>(params.cols);
    table.power_.resize(static_cast<std::size_t>(buckets) * buckets *
                        buckets * buckets);
    ladder_assert(evals.size() == table.power_.size(),
                  "power table: %zu evaluations for %zu entries",
                  evals.size(), table.power_.size());
    for (std::size_t i = 0; i < evals.size(); ++i)
        table.power_[i] = evals[i].sourcePowerWatts * 1e3;
    return table;
}

double
PowerTable::lookup(unsigned wordline, unsigned bitline,
                   unsigned wlLrsCount, unsigned blLrsCount) const
{
    ladder_assert(!power_.empty(), "lookup on empty power table");
    auto bucket = [this](unsigned value, unsigned max) {
        unsigned b = value * buckets_ / (max + 1);
        return std::min(b, buckets_ - 1);
    };
    unsigned wb = bucket(wordline, rows_ - 1);
    unsigned bb = bucket(bitline, cols_ - 1);
    unsigned cw = bucket(std::min(wlLrsCount, cols_), cols_);
    unsigned cb = bucket(std::min(blLrsCount, rows_), rows_);
    return power_[((static_cast<std::size_t>(wb) * buckets_ + bb) *
                       buckets_ +
                   cw) *
                      buckets_ +
                  cb];
}

const TimingModel &
cachedTimingModel(const CrossbarParams &params, unsigned granularity,
                  double rangeShrink)
{
    struct Key
    {
        CrossbarParams p;
        unsigned g;
        double s;

        bool
        operator==(const Key &o) const
        {
            return p.rows == o.p.rows && p.cols == o.p.cols &&
                   p.selectedCells == o.p.selectedCells &&
                   p.lrsOhms == o.p.lrsOhms &&
                   p.hrsOhms == o.p.hrsOhms &&
                   p.selectorNonlinearity ==
                       o.p.selectorNonlinearity &&
                   p.inputOhms == o.p.inputOhms &&
                   p.outputOhms == o.p.outputOhms &&
                   p.wireOhms == o.p.wireOhms &&
                   p.writeVolts == o.p.writeVolts &&
                   p.biasVolts == o.p.biasVolts &&
                   p.blSneakScale == o.p.blSneakScale &&
                   p.wlSneakScale == o.p.wlSneakScale && g == o.g &&
                   s == o.s;
        }
    };
    // Parallel sweep workers build Systems concurrently; the whole
    // lookup-or-generate runs under one lock so a given key is only
    // ever generated once and the returned reference (stable: the
    // vector owns unique_ptrs) is safe to read lock-free afterwards.
    static std::mutex cacheMutex;
    static std::vector<std::pair<Key, std::unique_ptr<TimingModel>>>
        cache;
    std::lock_guard<std::mutex> lock(cacheMutex);
    Key key{params, granularity, rangeShrink};
    for (const auto &entry : cache) {
        if (entry.first == key)
            return *entry.second;
    }
    auto model = std::make_unique<TimingModel>(
        TimingModel::generate(params, granularity, rangeShrink));
    cache.emplace_back(key, std::move(model));
    return *cache.back().second;
}

TimingModel
TimingModel::generate(const CrossbarParams &params, unsigned granularity,
                      double rangeShrink, double fastNs, double slowNs,
                      unsigned workers)
{
    PROF_SCOPE("timing_table_build");
    TimingModel model;
    model.params = params;

    // Calibration endpoints of the operating envelope, then every
    // table corner.
    ResetCondition bestCond;
    bestCond.wordline = 0;
    bestCond.byteOffset = 0;
    bestCond.wlLrsCount = 0;
    bestCond.blLrsCount = 0;
    ResetCondition worstCond;
    worstCond.wordline = params.rows - 1;
    worstCond.byteOffset = params.cols / params.selectedCells - 1;
    worstCond.wlLrsCount = static_cast<unsigned>(params.cols);
    worstCond.blLrsCount = static_cast<unsigned>(params.rows);
    std::vector<ResetCondition> conds{bestCond, worstCond};
    appendTableConditions(conds, params, granularity);
    const std::vector<ResetEvaluation> evals =
        evaluateFastModel(params, conds, workers);

    model.bestDropVolts = evals[0].minDropVolts;
    model.worstDropVolts = evals[1].minDropVolts;
    model.law = ResetLatencyLaw::calibrate(model.bestDropVolts,
                                           model.worstDropVolts,
                                           fastNs, slowNs);
    if (rangeShrink > 1.0)
        model.law = model.law.shrinkDynamicRange(rangeShrink);
    fillTables(model, granularity, std::span(evals).subspan(2));
    return model;
}

TimingModel
TimingModel::generateDerived(const CrossbarParams &params,
                             const ResetLatencyLaw &law,
                             unsigned granularity, unsigned workers)
{
    TimingModel model;
    model.params = params;
    model.law = law;
    std::vector<ResetCondition> conds;
    appendTableConditions(conds, params, granularity);
    fillTables(model, granularity,
               evaluateFastModel(params, conds, workers));
    return model;
}

} // namespace ladder
