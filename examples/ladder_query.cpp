/**
 * @file
 * Cross-run stats query CLI: merge any number of sweep.json /
 * stats.json outputs (stats-json=DIR runs) into one table, select
 * stats by glob, and diff two runs with a relative regression
 * threshold.
 *
 *   ./ladder_query runA/stats runB/stats
 *   ./ladder_query 'ctrl.*latency*' runA/ runB/
 *   ./ladder_query diff base/ candidate/ threshold=0.05
 *   ./ladder_query runA/ runB/ format=csv
 *   ./ladder_query diff base/ candidate/ format=json
 *
 * Diff mode exits 1 when any selected stat moved beyond the
 * threshold (default 2%) relative to the first run — wire it into CI
 * to gate perf/behaviour regressions on exported stats. Exit 2 marks
 * usage or load errors. All logic lives in sim/stats_query so tests
 * cover the same code path.
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "sim/stats_query.hh"

static int
programMain(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    return ladder::ladderQueryMain(args, std::cout, std::cerr);
}

int
main(int argc, char **argv)
{
    return ladder::runMain(argc, argv, programMain);
}
