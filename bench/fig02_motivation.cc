/**
 * @file
 * Figure 2 reproduction: the motivation study. Normalized IPC of the
 * worst-case baseline, a location-aware-only ideal scheme, and the
 * data/location-aware ideal (Oracle) on the 8 single-programmed
 * workloads.
 *
 * Paper: location-aware up to 24% IPC gain; data/location-aware more
 * than 1.6x on the most write-bound workloads.
 */

#include "bench_common.hh"

using namespace ladder;

static int
programMain(int argc, char **argv)
{
    ExperimentConfig cfg = defaultExperimentConfig();
    BenchArgs args = parseBenchArgs(
        argc, argv, cfg, singleWorkloadNames(),
        {SchemeKind::Baseline, SchemeKind::Location,
         SchemeKind::Oracle});
    requireScheme(args, SchemeKind::Baseline,
                  "IPC is normalized to the worst-case baseline");

    std::printf("=== Figure 2: potential of content/location-aware "
                "writes (normalized IPC) ===\n\n");
    Matrix matrix =
        runMatrixParallel(args.schemes, args.workloads, cfg);

    printNormalizedTable(matrix, SchemeKind::Baseline,
                         [](const SimResult &r) { return r.ipc; });

    std::printf("\ncolumns: Worst-case (baseline), Location-aware, "
                "Data/Location-aware (Oracle)\n");
    std::printf("paper reference: location-aware up to 1.24x; "
                "data/location-aware above 1.6x on write-bound "
                "workloads\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return ladder::runMain(argc, argv, programMain);
}
