/**
 * @file
 * Figure 4b reproduction: RESET latency as a function of the selected
 * wordline's LRS percentage, for a cell near the write drivers
 * (cell 1) and one at the far corner (cell 2). Also echoes the
 * Table 1 crossbar parameters the circuit model uses.
 *
 * Paper: the far cell's latency grows steeply with WL LRS percentage
 * (~200ns to ~700ns); the near cell stays low and flat.
 */

#include <cstdio>

#include "bench_common.hh"
#include "circuit/fastmodel.hh"
#include "reram/timing_tables.hh"

using namespace ladder;

static int
programMain(int argc, char **argv)
{
    ExperimentConfig cfg = defaultExperimentConfig();
    BenchArgs args = parseBenchArgs(argc, argv, cfg);
    rejectSweepSelection(
        args, "the latency sweep uses one crossbar model");

    const CrossbarParams &params = cfg.system.crossbar;
    std::printf("=== Table 1: ReRAM crossbar parameters ===\n");
    std::printf("  crossbar dimensions   %zux%zu\n", params.rows,
                params.cols);
    std::printf("  selected cells        %zu\n", params.selectedCells);
    std::printf("  LRS / HRS resistance  %.0f / %.0f Ohm\n",
                params.lrsOhms, params.hrsOhms);
    std::printf("  selector nonlinearity %.0f\n",
                params.selectorNonlinearity);
    std::printf("  input/output/wire R   %.0f / %.0f / %.1f Ohm\n",
                params.inputOhms, params.outputOhms, params.wireOhms);
    std::printf("  write / bias voltage  %.1f / %.1f V\n\n",
                params.writeVolts, params.biasVolts);

    const TimingModel &model = cachedTimingModel(params);
    SneakPathModel fast(params);

    std::printf("=== Figure 4b: RESET latency vs WL LRS percentage "
                "===\n\n");
    std::printf("%8s %14s %14s\n", "WL LRS%", "cell1(near) ns",
                "cell2(far) ns");
    for (unsigned percent = 0; percent <= 100; percent += 10) {
        unsigned count = static_cast<unsigned>(
            params.cols * percent / 100);
        ResetCondition nearCell{16, 1, count,
                                (unsigned)params.rows};
        ResetCondition farCell{params.rows - 1,
                               params.cols / params.selectedCells - 1,
                               count, (unsigned)params.rows};
        double tNear =
            model.law.latencyNs(fast.evaluate(nearCell).minDropVolts);
        double tFar =
            model.law.latencyNs(fast.evaluate(farCell).minDropVolts);
        std::printf("%8u %14.1f %14.1f\n", percent, tNear, tFar);
    }
    std::printf("\npaper reference: far cell ~200 -> ~700 ns over the "
                "sweep; near cell low and flat\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return ladder::runMain(argc, argv, programMain);
}
