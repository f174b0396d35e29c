/**
 * @file
 * Section 6.4 reproduction: LADDER with wear-leveling. Runs the
 * baseline and LADDER-Hybrid with and without Start-Gap wear-leveling
 * and reports (i) the performance cost of leveling, (ii) the write
 * traffic increase from metadata maintenance, and (iii) the relative
 * lifetime estimates.
 *
 * Paper: LADDER-Hybrid adds ~3% writes, keeps 97.1% of baseline
 * lifetime under wear-leveling, and loses only ~1% performance when
 * leveling is enabled (still ~44% over baseline).
 */

#include <algorithm>
#include <cstdio>
#include <future>

#include "bench_common.hh"
#include "common/thread_pool.hh"
#include "wear/lifetime.hh"
#include "wear/start_gap.hh"

using namespace ladder;

namespace
{

struct Outcome
{
    SimResult result;
    LifetimeEstimate lifetime;
    std::uint64_t gapMoves = 0;
};

Outcome
runWithWearLeveling(SchemeKind kind, const std::string &workload,
                    const ExperimentConfig &cfg, bool leveled)
{
    SystemConfig sys = makeSystemConfig(kind, workload, cfg);
    System system(sys);
    AddressMap map(sys.geometry);
    // Level the data region at line granularity.
    std::uint64_t lines = map.totalPages() * 64 * 3 / 4;
    StartGapRemapper remap(0, lines, cfg.wear.startGapPsi);
    if (leveled)
        system.setRemapper(&remap);
    Outcome out;
    out.result = system.run(cfg.warmupInstr, cfg.measureInstr);
    out.gapMoves = remap.gapMoves();

    // Merge per-page write counts across channels.
    std::unordered_map<std::uint64_t, std::uint32_t> writes;
    for (unsigned ch = 0; ch < system.channels(); ++ch)
        for (const auto &entry :
             system.controller(ch).pageWriteCounts())
            writes[entry.first] += entry.second;
    double seconds = out.result.elapsedNs * 1e-9;
    // Use one fixed leveled-region size as the denominator so the
    // lifetime ratio between configurations reflects write volume,
    // not which pages (data vs metadata) happened to be touched.
    std::uint64_t leveledPages = map.totalPages() * 3 / 4;
    out.lifetime =
        estimateLifetime(writes, seconds, leveledPages,
                         cfg.wear.cellEndurance,
                         cfg.wear.levelingEfficiency);
    return out;
}

} // namespace

static int
programMain(int argc, char **argv)
{
    ExperimentConfig cfg = defaultExperimentConfig();
    BenchArgs args = parseBenchArgs(argc, argv, cfg, {"lbm"});
    rejectSchemeOverride(
        args, "the study compares baseline vs LADDER-Hybrid");
    if (args.workloads.size() != 1) {
        fatal("this bench runs one workload at a time (got %zu)",
              args.workloads.size());
    }
    const std::string workload = args.workloads.front();

    std::printf("=== Section 6.4: LADDER with wear-leveling (%s) "
                "===\n\n",
                workload.c_str());

    // The four configurations are independent full-system runs; each
    // owns its System and remapper, so they parallelize like any
    // other sweep cell.
    Outcome baseNo, baseWl, hybNo, hybWl;
    unsigned jobs = cfg.jobs != 0 ? cfg.jobs
                                  : ThreadPool::defaultJobs();
    if (jobs <= 1) {
        baseNo = runWithWearLeveling(SchemeKind::Baseline, workload,
                                     cfg, false);
        baseWl = runWithWearLeveling(SchemeKind::Baseline, workload,
                                     cfg, true);
        hybNo = runWithWearLeveling(SchemeKind::LadderHybrid,
                                    workload, cfg, false);
        hybWl = runWithWearLeveling(SchemeKind::LadderHybrid,
                                    workload, cfg, true);
    } else {
        ThreadPool pool(std::min(jobs, 4u));
        auto fBaseNo = pool.submit([&]() {
            return runWithWearLeveling(SchemeKind::Baseline,
                                       workload, cfg, false);
        });
        auto fBaseWl = pool.submit([&]() {
            return runWithWearLeveling(SchemeKind::Baseline,
                                       workload, cfg, true);
        });
        auto fHybNo = pool.submit([&]() {
            return runWithWearLeveling(SchemeKind::LadderHybrid,
                                       workload, cfg, false);
        });
        auto fHybWl = pool.submit([&]() {
            return runWithWearLeveling(SchemeKind::LadderHybrid,
                                       workload, cfg, true);
        });
        baseNo = fBaseNo.get();
        baseWl = fBaseWl.get();
        hybNo = fHybNo.get();
        hybWl = fHybWl.get();
    }

    std::printf("%-26s %10s %12s %14s %12s\n", "configuration", "IPC",
                "writes", "gap moves", "unevenness");
    auto show = [](const char *name, const Outcome &o) {
        std::printf("%-26s %10.4f %12llu %14llu %12.1f\n", name,
                    o.result.ipc,
                    static_cast<unsigned long long>(
                        o.result.dataWrites +
                        o.result.metadataWrites),
                    static_cast<unsigned long long>(o.gapMoves),
                    o.lifetime.unevenness);
    };
    show("baseline", baseNo);
    show("baseline + Start-Gap", baseWl);
    show("LADDER-Hybrid", hybNo);
    show("LADDER-Hybrid + Start-Gap", hybWl);

    double extraWrites =
        (static_cast<double>(hybWl.result.dataWrites +
                             hybWl.result.metadataWrites) /
             static_cast<double>(baseWl.result.dataWrites +
                                 baseWl.result.metadataWrites) -
         1.0) *
        100.0;
    double lifetimeRatio = hybWl.lifetime.leveledYears /
                           baseWl.lifetime.leveledYears;
    double perfCost =
        (1.0 - hybWl.result.ipc / hybNo.result.ipc) * 100.0;
    double gainOverBase =
        (hybWl.result.ipc / baseWl.result.ipc - 1.0) * 100.0;

    std::printf("\nextra writes from LADDER metadata: %.1f%% (paper "
                "~3%%)\n",
                extraWrites);
    std::printf("relative lifetime (Hybrid/baseline, leveled): "
                "%.1f%% (paper 97.1%%)\n",
                lifetimeRatio * 100.0);
    std::printf("performance cost of wear-leveling on LADDER: "
                "%.1f%% (paper ~1-2%%)\n",
                perfCost);
    std::printf("LADDER-Hybrid + WL gain over baseline + WL: "
                "%.1f%% (paper ~44%%)\n",
                gainOverBase);
    return 0;
}

int
main(int argc, char **argv)
{
    return ladder::runMain(argc, argv, programMain);
}
