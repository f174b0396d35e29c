/**
 * @file
 * Bit-exactness gates of the timing-table build: the batched
 * sneak-path kernel and the worker fan-out in evaluateFastModel must
 * reproduce, bit for bit, what the paper-default model has always
 * produced, whatever the lane position or worker count.
 *
 *  (a) A CRC-32 pin over the bit patterns of all 1346 default
 *      evaluations (2 calibration points, ladder 512, blp 512,
 *      location 64, power 256) plus the Picard totals. The goldens'
 *      `solver` block pins the same totals end to end.
 *  (b) Lane independence: a result never depends on which lane it ran
 *      in, on its neighbours, or on lanes finishing, reloading and
 *      retiring around it.
 *  (c) generate / generateDerived at 1, 2 and 8 workers give identical
 *      tables, power, surfaces and solver-effort deltas.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "circuit/fastmodel.hh"
#include "circuit/solvers.hh"
#include "common/crc32.hh"
#include "reram/latency_surface.hh"
#include "reram/timing_tables.hh"

namespace ladder
{
namespace
{

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
sameBits(const ResetEvaluation &a, const ResetEvaluation &b)
{
    return sameBits(a.minDropVolts, b.minDropVolts) &&
           sameBits(a.maxDropVolts, b.maxDropVolts) &&
           sameBits(a.sourcePowerWatts, b.sourcePowerWatts) &&
           a.iterations == b.iterations && a.converged == b.converged;
}

/** The paper-default build's operating points, in evaluation order. */
std::vector<ResetCondition>
defaultBuildConditions(const CrossbarParams &p)
{
    std::vector<ResetCondition> conds;
    conds.push_back({0, 0, 0, 0});
    conds.push_back({p.rows - 1, p.cols / p.selectedCells - 1,
                     static_cast<unsigned>(p.cols),
                     static_cast<unsigned>(p.rows)});
    auto append = [&conds](const std::vector<ResetCondition> &more) {
        conds.insert(conds.end(), more.begin(), more.end());
    };
    append(WriteTimingTable::corners(p, ContentDim::Wordline, 8, 8, 8));
    append(WriteTimingTable::corners(p, ContentDim::Bitline, 8, 8, 8));
    append(WriteTimingTable::corners(p, ContentDim::Wordline, 8, 8, 1));
    append(PowerTable::conditions(p));
    return conds;
}

std::uint32_t
digest(const std::vector<ResetEvaluation> &evals)
{
    std::uint32_t crc = crc32Init();
    for (const ResetEvaluation &e : evals) {
        const double d[3] = {e.minDropVolts, e.maxDropVolts,
                             e.sourcePowerWatts};
        const std::uint64_t iterations = e.iterations;
        const std::uint8_t converged = e.converged ? 1 : 0;
        crc = crc32Update(crc, d, sizeof(d));
        crc = crc32Update(crc, &iterations, sizeof(iterations));
        crc = crc32Update(crc, &converged, sizeof(converged));
    }
    return crc32Final(crc);
}

SolverCounters
delta(const SolverCounters &before, const SolverCounters &after)
{
    SolverCounters d;
    d.picardSolves = after.picardSolves - before.picardSolves;
    d.picardIterations = after.picardIterations - before.picardIterations;
    d.picardStalls = after.picardStalls - before.picardStalls;
    return d;
}

TEST(TimingBuild, DefaultEvaluationsArePinned)
{
    // Captured from the one-point-at-a-time solver the batch kernel
    // replaced; any change to the kernel's arithmetic or to the
    // build's condition list moves it.
    constexpr std::uint32_t kPinnedCrc = 0x5b8ba191u;
    CrossbarParams p;
    const std::vector<ResetCondition> conds = defaultBuildConditions(p);
    ASSERT_EQ(conds.size(), 1346u);
    for (unsigned workers : {1u, 4u}) {
        SolverCounters before = SolverInstrumentation::instance().snapshot();
        std::vector<ResetEvaluation> evals =
            evaluateFastModel(p, conds, workers);
        SolverCounters d = delta(
            before, SolverInstrumentation::instance().snapshot());
        EXPECT_EQ(digest(evals), kPinnedCrc) << "workers " << workers;
        EXPECT_EQ(d.picardSolves, 1346u);
        EXPECT_EQ(d.picardIterations, 23901u);
        EXPECT_EQ(d.picardStalls, 0u);
    }
}

TEST(TimingBuild, GenerateSolvesTheDefaultList)
{
    SolverCounters before = SolverInstrumentation::instance().snapshot();
    TimingModel::generate(CrossbarParams{}, 8, 1.0, 29.0, 658.0, 2);
    SolverCounters d =
        delta(before, SolverInstrumentation::instance().snapshot());
    EXPECT_EQ(d.picardSolves, 1346u);
    EXPECT_EQ(d.picardIterations, 23901u);
}

TEST(TimingBuild, LanesAreIndependent)
{
    // Default-crossbar points converging in 14 to 45 iterations, so
    // lanes finish at very different rounds.
    const std::vector<ResetCondition> mix = {
        {0, 0, 0, 0},       // 14 iterations
        {64, 56, 64, 64},   // 45
        {127, 31, 512, 512}, // 17
        {192, 56, 64, 64},  // 41
        {511, 63, 512, 512},
        {63, 63, 64, 512},  // 32
        {320, 56, 64, 64},  // 39
        {64, 40, 64, 192},  // 29
    };
    SneakPathModel fast(CrossbarParams{});
    std::vector<ResetEvaluation> alone;
    for (const ResetCondition &c : mix)
        alone.push_back(fast.evaluate(c));
    EXPECT_EQ(alone[0].iterations, 14u);
    EXPECT_EQ(alone[1].iterations, 45u);

    // Every condition at every lane position of a full batch.
    SneakPathModel::Workspace ws(fast, mix.size());
    for (std::size_t shift = 0; shift < mix.size(); ++shift) {
        std::vector<ResetCondition> batch(mix.size());
        for (std::size_t i = 0; i < mix.size(); ++i)
            batch[(i + shift) % mix.size()] = mix[i];
        std::vector<ResetEvaluation> out(batch.size());
        fast.evaluateBatch(batch, out, ws);
        for (std::size_t i = 0; i < mix.size(); ++i) {
            EXPECT_TRUE(sameBits(out[(i + shift) % mix.size()], alone[i]))
                << "condition " << i << " in lane "
                << (i + shift) % mix.size();
        }
    }

    // More conditions than lanes: finished lanes reload, and at the
    // tail retire with the last live lane moved into their slot.
    for (std::size_t lanes : {1u, 3u, 5u, 8u}) {
        std::vector<ResetCondition> batch;
        for (std::size_t r = 0; r < 3; ++r)
            for (std::size_t i = 0; i < mix.size(); ++i)
                batch.push_back(mix[(i * (r + 3)) % mix.size()]);
        std::vector<ResetEvaluation> out(batch.size());
        SneakPathModel::Workspace narrow(fast, lanes);
        fast.evaluateBatch(batch, out, narrow);
        for (std::size_t b = 0; b < batch.size(); ++b) {
            std::size_t i = 0;
            while (!(mix[i].wordline == batch[b].wordline &&
                     mix[i].byteOffset == batch[b].byteOffset &&
                     mix[i].wlLrsCount == batch[b].wlLrsCount &&
                     mix[i].blLrsCount == batch[b].blLrsCount))
                ++i;
            EXPECT_TRUE(sameBits(out[b], alone[i]))
                << "slot " << b << " with " << lanes << " lanes";
        }
    }
}

void
expectSameTable(const WriteTimingTable &a, const WriteTimingTable &b)
{
    ASSERT_EQ(a.wlBuckets(), b.wlBuckets());
    ASSERT_EQ(a.blBuckets(), b.blBuckets());
    ASSERT_EQ(a.contentBuckets(), b.contentBuckets());
    for (unsigned wb = 0; wb < a.wlBuckets(); ++wb)
        for (unsigned bb = 0; bb < a.blBuckets(); ++bb)
            for (unsigned cb = 0; cb < a.contentBuckets(); ++cb) {
                EXPECT_TRUE(sameBits(a.at(wb, bb, cb).latencyNs,
                                     b.at(wb, bb, cb).latencyNs));
                EXPECT_TRUE(sameBits(a.at(wb, bb, cb).powerMw,
                                     b.at(wb, bb, cb).powerMw));
            }
    EXPECT_TRUE(sameBits(a.worstLatencyNs(), b.worstLatencyNs()));
    EXPECT_TRUE(sameBits(a.bestLatencyNs(), b.bestLatencyNs()));
}

void
expectSameModel(const TimingModel &a, const TimingModel &b)
{
    EXPECT_TRUE(sameBits(a.bestDropVolts, b.bestDropVolts));
    EXPECT_TRUE(sameBits(a.worstDropVolts, b.worstDropVolts));
    EXPECT_TRUE(sameBits(a.law.latencyNs(1.0), b.law.latencyNs(1.0)));
    expectSameTable(a.ladder, b.ladder);
    expectSameTable(a.blp, b.blp);
    expectSameTable(a.location, b.location);
    // Each power entry is reached by the lookup of its own midpoint.
    for (const ResetCondition &c : PowerTable::conditions(a.params)) {
        unsigned bitline = static_cast<unsigned>(
            c.byteOffset * a.params.selectedCells);
        unsigned wl = static_cast<unsigned>(c.wordline);
        EXPECT_TRUE(sameBits(
            a.power.lookup(wl, bitline, c.wlLrsCount, c.blLrsCount),
            b.power.lookup(wl, bitline, c.wlLrsCount, c.blLrsCount)));
    }
    // Exact surface-vs-table checks across the two builds.
    EXPECT_TRUE(b.ladderSurface->verifyAgainst(a.ladder).ok());
    EXPECT_TRUE(b.blpSurface->verifyAgainst(a.blp).ok());
    EXPECT_TRUE(b.locationSurface->verifyAgainst(a.location).ok());
}

TEST(TimingBuild, WorkerCountDoesNotChangeTheModel)
{
    CrossbarParams p;
    CrossbarParams half = p;
    half.selectedCells = p.selectedCells / 2;
    std::vector<TimingModel> full, derived;
    std::vector<SolverCounters> fullEffort, derivedEffort;
    for (unsigned workers : {1u, 2u, 8u}) {
        auto &inst = SolverInstrumentation::instance();
        SolverCounters s0 = inst.snapshot();
        full.push_back(
            TimingModel::generate(p, 8, 1.0, 29.0, 658.0, workers));
        SolverCounters s1 = inst.snapshot();
        derived.push_back(TimingModel::generateDerived(
            half, full.front().law, 8, workers));
        SolverCounters s2 = inst.snapshot();
        fullEffort.push_back(delta(s0, s1));
        derivedEffort.push_back(delta(s1, s2));
    }
    for (std::size_t i = 1; i < full.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameModel(full[0], full[i]);
        expectSameModel(derived[0], derived[i]);
        EXPECT_EQ(fullEffort[i].picardSolves, fullEffort[0].picardSolves);
        EXPECT_EQ(fullEffort[i].picardIterations,
                  fullEffort[0].picardIterations);
        EXPECT_EQ(fullEffort[i].picardStalls, fullEffort[0].picardStalls);
        EXPECT_EQ(derivedEffort[i].picardSolves,
                  derivedEffort[0].picardSolves);
        EXPECT_EQ(derivedEffort[i].picardIterations,
                  derivedEffort[0].picardIterations);
        EXPECT_EQ(derivedEffort[i].picardStalls,
                  derivedEffort[0].picardStalls);
    }
    EXPECT_EQ(derivedEffort[0].picardSolves, 1344u);
}

} // namespace
} // namespace ladder
