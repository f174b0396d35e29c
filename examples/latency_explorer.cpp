/**
 * @file
 * Latency explorer: an interactive-style tool for a memory-controller
 * designer tuning the write timing tables. Evaluates the crossbar
 * circuit model at user-chosen operating points and prints the
 * bucketed table entry LADDER would actually use next to the exact
 * circuit answer — i.e. how much margin the 8x8x8 bucketing costs.
 *
 *   ./latency_explorer [wl=<0-511>] [bl=<0-511>] [count=<0-512>]
 *                      [granularity=<n>] [sweep=wl|bl|count]
 */

#include <cstdio>
#include <string>

#include "circuit/fastmodel.hh"
#include "common/param_registry.hh"
#include "reram/timing_tables.hh"

using namespace ladder;

namespace
{

struct Options
{
    unsigned wl = 256;
    unsigned bl = 256;
    unsigned count = 128;
    unsigned granularity = 8;
    std::string sweep = "count";
};

const ParamRegistry<Options> &
registry()
{
    static const ParamRegistry<Options> reg = [] {
        ParamRegistry<Options> r;
        r.addInt<unsigned>("wl", [](Options &o) -> auto & { return o.wl; },
                           "Wordline of the single point", 0, 511);
        r.addInt<unsigned>("bl", [](Options &o) -> auto & { return o.bl; },
                           "Bitline of the single point", 0, 511);
        r.addInt<unsigned>(
            "count", [](Options &o) -> auto & { return o.count; },
            "Wordline LRS count of the single point", 0, 512);
        r.addInt<unsigned>(
            "granularity",
            [](Options &o) -> auto & { return o.granularity; },
            "Timing-table buckets per axis", 1, 64);
        r.addChoice("sweep", [](Options &o) -> auto & { return o.sweep; },
                    "Axis to sweep", {"wl", "bl", "count"});
        return r;
    }();
    return reg;
}

void
evaluatePoint(const TimingModel &model, const SneakPathModel &fast,
              unsigned wl, unsigned bl, unsigned count)
{
    ResetCondition cond;
    cond.wordline = wl;
    cond.byteOffset = bl / 8;
    cond.wlLrsCount = count;
    cond.blLrsCount = static_cast<unsigned>(model.params.rows);
    ResetEvaluation eval = fast.evaluate(cond);
    double exact = model.law.latencyNs(eval.minDropVolts);
    const TimingEntry &entry = model.ladder.lookup(wl, bl, count);
    std::printf("  wl=%3u bl=%3u C=%3u | Vd=%.3f V | exact %6.1f ns"
                " | table %6.1f ns | margin %+5.1f ns\n",
                wl, bl, count, eval.minDropVolts, exact,
                entry.latencyNs, entry.latencyNs - exact);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    registry().applyArgs(opts, argc, argv);
    const unsigned wl = opts.wl, bl = opts.bl, count = opts.count;
    const unsigned granularity = opts.granularity;
    const std::string &sweep = opts.sweep;

    CrossbarParams params;
    const TimingModel &model = cachedTimingModel(params, granularity);
    SneakPathModel fast(params);

    std::printf("LADDER latency explorer — %ux%u crossbar, "
                "granularity %u, envelope [%.0f, %.0f] ns\n\n",
                (unsigned)params.rows, (unsigned)params.cols,
                granularity, model.law.fastNs, model.law.slowNs);

    if (sweep == "wl") {
        std::printf("sweeping wordline location (bl=%u, C=%u):\n", bl,
                    count);
        for (unsigned v = 0; v < params.rows; v += 64)
            evaluatePoint(model, fast, v + 63, bl, count);
    } else if (sweep == "bl") {
        std::printf("sweeping bitline location (wl=%u, C=%u):\n", wl,
                    count);
        for (unsigned v = 0; v < params.cols; v += 64)
            evaluatePoint(model, fast, wl, v + 63, count);
    } else {
        std::printf("sweeping WL LRS count (wl=%u, bl=%u):\n", wl,
                    bl);
        for (unsigned v = 0; v <= params.cols; v += 64)
            evaluatePoint(model, fast, wl, bl, v);
    }

    std::printf("\nsingle point requested on the command line:\n");
    evaluatePoint(model, fast, wl, bl, count);
    std::printf("\ntiming-table on-chip storage at this granularity: "
                "%zu B\n",
                model.ladder.storageBytes());
    return 0;
}
