/**
 * @file
 * Figure 12 reproduction: average write service time to the ReRAM
 * memory, normalized to the worst-case-latency baseline, for all
 * schemes and the 16 single/multi-programmed workloads.
 *
 * Paper (average over all workloads): Split-reset 0.59, BLP ~0.45,
 * LADDER-Basic 0.21, LADDER-Est/Hybrid ~= Basic, Oracle slightly
 * below.
 */

#include "bench_common.hh"

using namespace ladder;

static int
programMain(int argc, char **argv)
{
    ExperimentConfig cfg = defaultExperimentConfig();
    BenchArgs args =
        parseBenchArgs(argc, argv, cfg, {}, paperSchemes());
    requireScheme(args, SchemeKind::Baseline,
                  "write service time is normalized to the baseline");

    std::printf("=== Figure 12: normalized average write service time "
                "===\n\n");
    Matrix matrix =
        runMatrixParallel(args.schemes, args.workloads, cfg);
    printNormalizedTable(matrix, SchemeKind::Baseline,
                         [](const SimResult &r) {
                             return r.avgWriteServiceNs;
                         });
    std::printf("\npaper reference AVG: Split-reset 0.59, BLP ~0.45, "
                "LADDER-Basic 0.21, Est/Hybrid ~0.21, Oracle ~0.20\n");

    std::printf("\n--- raw average write service time (ns) ---\n");
    printRawTable(matrix, [](const SimResult &r) {
        return r.avgWriteServiceNs;
    });
    return 0;
}

int
main(int argc, char **argv)
{
    return ladder::runMain(argc, argv, programMain);
}
