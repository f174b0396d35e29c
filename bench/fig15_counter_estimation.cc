/**
 * @file
 * Figure 15 reproduction: the per-write difference between
 * LADDER-Est's estimated C_lrs counter and LADDER-Basic's accurate
 * counter, (a) without and (b) with intra-line bit-level shifting.
 * The two schemes see the same deterministic write stream, so the
 * difference of the per-write means equals the mean difference.
 *
 * Paper: without shifting the estimate is biased high (only 3 of 16
 * workloads above +64); shifting reduces the bias substantially and
 * can push the estimate below the unshifted accurate counter. Also
 * prints the subgroup-count (N) ablation.
 */

#include "bench_common.hh"
#include "schemes/partial_counter.hh"

using namespace ladder;

static int
programMain(int argc, char **argv)
{
    ExperimentConfig cfg = defaultExperimentConfig();
    BenchArgs args = parseBenchArgs(argc, argv, cfg);
    rejectSchemeOverride(
        args, "the diff needs exactly Basic/Est-noshift/Est");
    const std::vector<std::string> &workloads = args.workloads;

    std::printf("=== Figure 15: LRS-counter difference, LADDER-Est - "
                "LADDER-Basic ===\n\n");
    std::printf("%-10s %12s %12s %12s %12s\n", "workload",
                "accurate", "est-noshift", "est-shift",
                "diff-noshift");

    Matrix matrix = runMatrixParallel(
        {SchemeKind::LadderBasic, SchemeKind::LadderEstNoShift,
         SchemeKind::LadderEst},
        workloads, cfg);

    double sumNo = 0.0, sumShift = 0.0;
    for (const auto &workload : workloads) {
        const SimResult &basic =
            matrix.at(SchemeKind::LadderBasic, workload);
        const SimResult &noShift =
            matrix.at(SchemeKind::LadderEstNoShift, workload);
        const SimResult &shifted =
            matrix.at(SchemeKind::LadderEst, workload);
        double diffNo =
            noShift.estimatedCwMean - basic.accurateCwMean;
        double diffShift =
            shifted.estimatedCwMean - basic.accurateCwMean;
        sumNo += diffNo;
        sumShift += diffShift;
        std::printf("%-10s %12.1f %12.1f %12.1f %12.1f\n",
                    workload.c_str(), basic.accurateCwMean,
                    noShift.estimatedCwMean,
                    shifted.estimatedCwMean, diffNo);
    }
    std::printf("%-10s %12s %12s %12s %12.1f\n", "AVG diff", "", "",
                "", sumNo / workloads.size());
    std::printf("%-10s %48s %12.1f\n", "AVG diff (with shifting)", "",
                sumShift / workloads.size());
    std::printf("\npaper reference: diffs mostly within +64 (3 of 16 "
                "above); shifting reduces the estimate, sometimes "
                "below the unshifted accurate counter. Our synthetic "
                "content is denser than SPEC images, so absolute "
                "diffs run higher; the shape (positive bias, reduced "
                "by shifting) is preserved.\n");

    return 0;
}

int
main(int argc, char **argv)
{
    return ladder::runMain(argc, argv, programMain);
}
