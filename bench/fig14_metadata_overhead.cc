/**
 * @file
 * Figure 14 reproduction: additional reads (SMB + LRS-metadata fills)
 * and additional writes (LRS-metadata writebacks) of the three LADDER
 * variants, as a percentage of the workload's demand reads/writes.
 *
 * Paper averages: additional reads 43% (Basic), 15% (Est), 4%
 * (Hybrid); additional writes ~(Basic high), 8% (Est), 3% (Hybrid).
 * Includes the Hybrid low-row-threshold ablation.
 */

#include <future>

#include "bench_common.hh"
#include "common/thread_pool.hh"

using namespace ladder;

static int
programMain(int argc, char **argv)
{
    ExperimentConfig cfg = defaultExperimentConfig();
    BenchArgs args = parseBenchArgs(
        argc, argv, cfg, {},
        {SchemeKind::LadderBasic, SchemeKind::LadderEst,
         SchemeKind::LadderHybrid});
    Matrix matrix =
        runMatrixParallel(args.schemes, args.workloads, cfg);

    std::printf("=== Figure 14a: additional reads due to metadata "
                "maintenance (%% of demand reads) ===\n\n");
    printRawTable(matrix, [](const SimResult &r) {
        return 100.0 *
               static_cast<double>(r.metadataReads + r.smbReads) /
               static_cast<double>(r.dataReads);
    });
    std::printf("\npaper reference AVG: Basic 43%%, Est 15%%, Hybrid "
                "4%%\n");

    std::printf("\n=== Figure 14b: additional writes (%% of demand "
                "writes) ===\n\n");
    printRawTable(matrix, [](const SimResult &r) {
        return 100.0 * static_cast<double>(r.metadataWrites) /
               static_cast<double>(r.dataWrites);
    });
    std::printf("\npaper reference AVG: Est 8%%, Hybrid 3%% (Basic "
                "higher: two metadata lines per page)\n");

    // Ablation: the Hybrid low-precision row threshold.
    std::printf("\n--- ablation: Hybrid low-precision rows (astar) "
                "---\n");
    std::printf("%10s %16s %16s\n", "low rows", "extra reads %",
                "extra writes %");
    const std::vector<unsigned> lowRowsSweep = {0u, 64u, 128u, 256u};
    auto ablate = [&cfg](unsigned lowRows) {
        ExperimentConfig sweep = cfg;
        sweep.schemeOptions.hybridLowRows = lowRows;
        return runOne(SchemeKind::LadderHybrid, "astar", sweep);
    };
    auto show = [](unsigned lowRows, const SimResult &r) {
        std::printf("%10u %16.1f %16.1f\n", lowRows,
                    100.0 *
                        static_cast<double>(r.metadataReads +
                                            r.smbReads) /
                        static_cast<double>(r.dataReads),
                    100.0 * static_cast<double>(r.metadataWrites) /
                        static_cast<double>(r.dataWrites));
    };
    if (cfg.jobs == 1) {
        for (unsigned lowRows : lowRowsSweep)
            show(lowRows, ablate(lowRows));
    } else {
        ThreadPool pool(cfg.jobs);
        std::vector<std::future<SimResult>> futures;
        for (unsigned lowRows : lowRowsSweep)
            futures.push_back(pool.submit(
                [&ablate, lowRows]() { return ablate(lowRows); }));
        for (std::size_t i = 0; i < lowRowsSweep.size(); ++i)
            show(lowRowsSweep[i], futures[i].get());
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return ladder::runMain(argc, argv, programMain);
}
