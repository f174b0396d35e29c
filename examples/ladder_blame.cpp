/**
 * @file
 * Blame-table CLI over attribution traces (trace.attribution=1 runs):
 * render each run's per-component p50/p99/max/mean/share table, or
 * diff two runs' blame profiles to catch latency causes shifting.
 *
 *   ./ladder_blame out/traces/
 *   ./ladder_blame out/traces/LADDER-Est__camera-vision format=csv
 *   ./ladder_blame diff base/traces/ candidate/traces/ threshold=0.2
 *
 * Diff mode exits 1 when any component's mean blame moved beyond the
 * threshold (default 10%) relative to the first run — wire it into CI
 * to gate "same latency, different cause" regressions that total-only
 * stats cannot see. Exit 2 marks usage or load errors, including
 * traces recorded without attribution. All logic lives in
 * sim/blame_query so tests cover the same code path.
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "sim/blame_query.hh"

static int
programMain(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    return ladder::ladderBlameMain(args, std::cout, std::cerr);
}

int
main(int argc, char **argv)
{
    return ladder::runMain(argc, argv, programMain);
}
