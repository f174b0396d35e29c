/**
 * @file
 * Figure 13 reproduction: average latency of processor data reads
 * (queueing + service), normalized to baseline, for all schemes and
 * workloads.
 *
 * Paper: LADDER consistently lowest; LADDER-Hybrid has 37% / 16% more
 * read-latency reduction than Split-reset / BLP; Est and Hybrid beat
 * Basic because they remove SMB reads and shrink metadata traffic.
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
                  "read latency is normalized to the baseline");

    std::printf("=== Figure 13: normalized average read latency "
                "===\n\n");
    Matrix matrix =
        runMatrixParallel(args.schemes, args.workloads, cfg);
    printNormalizedTable(matrix, SchemeKind::Baseline,
                         [](const SimResult &r) {
                             return r.avgReadLatencyNs;
                         });
    std::printf("\npaper reference: LADDER-Hybrid best overall; Est > "
                "Basic; Hybrid ~37%% better than Split-reset and "
                "~16%% than BLP\n");

    std::printf("\n--- raw average read latency (ns) ---\n");
    printRawTable(matrix, [](const SimResult &r) {
        return r.avgReadLatencyNs;
    });
    return 0;
}

int
main(int argc, char **argv)
{
    return ladder::runMain(argc, argv, programMain);
}
