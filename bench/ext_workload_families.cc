/**
 * @file
 * Extended-workload evaluation: does the paper's scheme ordering
 * survive on inputs LADDER was not tuned on? The sweep crosses the
 * evaluated schemes with a mix of paper synthetics and the
 * content-aware generator families (dnn-update, kv-log, adv-lrs from
 * trace/workload_families; add `workloads=trace:<file>` to replay an
 * external trace alongside them).
 *
 * Three figure-style tables come out: raw IPC, write service time
 * normalized to the worst-case-latency baseline (the Fig. 12 view,
 * extended to the new columns), and a per-workload write-latency
 * distribution (avg tWR / p99 / max) under the content-aware
 * LADDER-Hybrid scheme.
 *
 * The adversarial family's guarantee is checked, not eyeballed: every
 * one of its wordlines sits at maximum LRS count, so under a
 * content-aware scheme its write-latency tail must be strictly worse
 * than every other workload in the sweep (the timing-table maximality
 * property behind this is unit-tested in test_workloads). The bench
 * exits nonzero if the ordering is violated.
 */

#include <algorithm>

#include "bench_common.hh"
#include "ctrl/trace_sink.hh"
#include "sim/system.hh"
#include "trace/workload_frontend.hh"

using namespace ladder;

namespace
{

struct LatencyTail
{
    std::uint64_t writes = 0;
    double avgNs = 0.0;
    double p99Ns = 0.0;
    double maxNs = 0.0;
};

/**
 * Run one (scheme, workload) cell with an in-memory trace sink and
 * summarize the per-write chosen-tWR distribution.
 */
LatencyTail
measureTail(SchemeKind scheme, const std::string &workload,
            const ExperimentConfig &cfg)
{
    System system(makeSystemConfig(scheme, workload, cfg));
    WriteTraceSink sink;
    system.attachTraceSink(&sink);
    system.run(cfg.warmupInstr, cfg.measureInstr);

    std::vector<double> latencies;
    for (const CtrlTraceRecord &r : sink.records())
        if (r.kind == CtrlTraceRecord::Kind::Write)
            latencies.push_back(r.latencyNs);

    LatencyTail tail;
    tail.writes = latencies.size();
    if (latencies.empty())
        return tail;
    std::sort(latencies.begin(), latencies.end());
    double sum = 0.0;
    for (double v : latencies)
        sum += v;
    tail.avgNs = sum / static_cast<double>(latencies.size());
    tail.p99Ns = latencies[static_cast<std::size_t>(
        0.99 * static_cast<double>(latencies.size() - 1))];
    tail.maxNs = latencies.back();
    return tail;
}

} // namespace

static int
programMain(int argc, char **argv)
{
    ExperimentConfig cfg = defaultExperimentConfig();
    BenchArgs args = parseBenchArgs(
        argc, argv, cfg,
        {"astar", "lbm", "mcf", "cactusADM", "dnn-update", "kv-log",
         "adv-lrs"},
        {SchemeKind::Baseline, SchemeKind::SplitReset, SchemeKind::Blp,
         SchemeKind::LadderHybrid});
    requireScheme(args, SchemeKind::Baseline,
                  "write service time is normalized to the baseline");
    requireScheme(args, SchemeKind::LadderHybrid,
                  "the latency-tail table runs under the "
                  "content-aware scheme");

    std::printf("=== Extended workloads: paper synthetics vs "
                "content-aware families ===\n\n");
    Matrix matrix =
        runMatrixParallel(args.schemes, args.workloads, cfg);

    std::printf("--- raw IPC ---\n");
    printRawTable(matrix, [](const SimResult &r) { return r.ipc; },
                  4);

    std::printf("\n--- write service time, normalized to baseline "
                "(Fig. 12 view) ---\n");
    printNormalizedTable(matrix, SchemeKind::Baseline,
                         [](const SimResult &r) {
                             return r.avgWriteServiceNs;
                         });

    std::printf("\n--- per-write tWR distribution under %s ---\n",
                schemeKindName(SchemeKind::LadderHybrid).c_str());
    std::printf("%-14s %10s %10s %10s %10s\n", "workload", "writes",
                "avg ns", "p99 ns", "max ns");
    std::vector<std::pair<std::string, LatencyTail>> tails;
    for (const auto &workload : args.workloads) {
        LatencyTail tail =
            measureTail(SchemeKind::LadderHybrid, workload, cfg);
        std::printf("%-14s %10llu %10.1f %10.1f %10.1f\n",
                    workload.c_str(),
                    static_cast<unsigned long long>(tail.writes),
                    tail.avgNs, tail.p99Ns, tail.maxNs);
        tails.emplace_back(workload, tail);
    }

    // The adversarial guarantee: with every wordline at maximum LRS
    // count, adv-lrs must have a strictly worse write-latency tail
    // than every other workload in the sweep.
    const auto adv = std::find_if(
        tails.begin(), tails.end(),
        [](const auto &t) { return t.first == "adv-lrs"; });
    if (adv == tails.end()) {
        std::printf("\n(adv-lrs not selected; ordering check "
                    "skipped)\n");
        return 0;
    }
    if (adv->second.writes == 0)
        fatal("adv-lrs produced no demand writes; widen the "
              "measurement window (LADDER_BENCH_SCALE)");
    bool ok = true;
    for (const auto &[name, tail] : tails) {
        if (name == "adv-lrs" || tail.writes == 0)
            continue;
        if (tail.p99Ns >= adv->second.p99Ns ||
            tail.maxNs > adv->second.maxNs) {
            std::printf("ORDERING VIOLATION: %s tail (p99 %.1f, max "
                        "%.1f) is not strictly below adv-lrs "
                        "(p99 %.1f, max %.1f)\n",
                        name.c_str(), tail.p99Ns, tail.maxNs,
                        adv->second.p99Ns, adv->second.maxNs);
            ok = false;
        }
    }
    std::printf("\nadversarial tail check: %s (adv-lrs p99 %.1f ns, "
                "max %.1f ns)\n",
                ok ? "PASS" : "FAIL", adv->second.p99Ns,
                adv->second.maxNs);
    return ok ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return ladder::runMain(argc, argv, programMain);
}
