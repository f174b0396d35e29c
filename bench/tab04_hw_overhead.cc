/**
 * @file
 * Table 4 reproduction: controller-side hardware overhead of the
 * LADDER logic blocks and the metadata cache, plus the §6.3 memory
 * storage overheads of the three metadata designs and the timing
 * table buffer.
 */

#include <cstdio>

#include "bench_common.hh"
#include "hwcost/hwcost.hh"
#include "reram/timing_tables.hh"
#include "schemes/metadata_layout.hh"

using namespace ladder;

static int
programMain(int argc, char **argv)
{
    ExperimentConfig cfg = defaultExperimentConfig();
    BenchArgs args = parseBenchArgs(argc, argv, cfg);
    rejectSweepSelection(
        args, "the overhead tables are workload-independent");

    std::printf("=== Table 4: hardware overhead of LADDER ===\n\n");
    std::printf("%-34s %12s %12s %12s\n", "module", "area (mm^2)",
                "power (mW)", "latency (ns)");
    for (const ModuleCost &row : table4()) {
        std::printf("%-34s %12.4f %12.2f %12.2f\n", row.name.c_str(),
                    row.areaMm2, row.powerMw, row.latencyNs);
    }
    std::printf("\npaper reference: update 0.0061/3.71/0.17, query "
                "0.0047/6.57/0.32, cache 0.2442/48.83/0.81\n");

    ModuleCost tables = timingTableCost(cfg.granularity);
    std::printf("\n%-34s %12.4f %12.2f %12.2f\n", tables.name.c_str(),
                tables.areaMm2, tables.powerMw, tables.latencyNs);

    const TimingModel &model =
        cachedTimingModel(cfg.system.crossbar);
    std::printf("\ntiming-table on-chip buffer: %zu B (paper: 512 B "
                "for the 8x8x8 organization)\n",
                model.ladder.storageBytes());

    std::printf("\n=== Section 6.3: LRS-metadata storage overhead "
                "===\n\n");
    const MemoryGeometry &geo = cfg.system.geometry;
    AddressMap map(geo);
    MetadataLayout layout(geo, map.totalPages() * 3 / 4);
    std::printf("  LADDER-Basic   %5.2f%%   (paper 3.12%%)\n",
                layout.basicOverhead() * 100);
    std::printf("  LADDER-Est     %5.2f%%   (paper 1.56%%)\n",
                layout.estOverhead() * 100);
    std::printf("  LADDER-Hybrid  %5.2f%%   (paper 0.97%%, bottom "
                "128 rows low-precision)\n",
                layout.hybridOverhead(128) * 100);

    std::printf("\ncache-size scaling (CACTI-style):\n");
    std::printf("%10s %12s %12s %12s\n", "size KB", "area mm^2",
                "power mW", "latency ns");
    for (std::size_t kb : {16, 32, 64, 128, 256}) {
        ModuleCost c = metadataCacheCost(kb * 1024);
        std::printf("%10zu %12.4f %12.2f %12.2f\n", kb, c.areaMm2,
                    c.powerMw, c.latencyNs);
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return ladder::runMain(argc, argv, programMain);
}
