/**
 * @file
 * Blame-profile analytics over attribution traces: load the v3
 * traces a sweep wrote (trace.attribution=1), reduce each run's
 * per-write blame components to percentile + share profiles, render
 * per-scheme×workload tables, and diff two runs' profiles with a
 * relative threshold. This is the engine behind the `ladder_blame`
 * CLI; it lives in the library so tests can drive the exact
 * load/reduce/diff logic — and the 0/1/2 exit contract — against
 * generated traces.
 */

#ifndef LADDER_SIM_BLAME_QUERY_HH
#define LADDER_SIM_BLAME_QUERY_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ctrl/controller.hh"

namespace ladder
{

/** Percentile reduction of one blame component over a run's writes. */
struct BlameComponentProfile
{
    double p50Ns = 0.0;
    double p99Ns = 0.0;
    double maxNs = 0.0;
    double meanNs = 0.0;
    /** Fraction of the run's summed blame held by this component. */
    double share = 0.0;
};

/** One run's (scheme×workload cell's) reduced blame profile. */
struct BlameProfile
{
    std::string label; //!< run dir name or the CLI path itself
    std::uint64_t writes = 0;
    BlameComponentProfile components[blameComponentCount];
};

/**
 * Load @p path — an attribution trace file, a run directory holding
 * one (trace.bin), or a sweep trace-out directory whose subdirectories
 * are runs — appending one profile per run found.
 * Returns false with @p error set when nothing loads, a trace is
 * malformed, or a trace lacks the attribution block (the caller asked
 * a blame question of a blame-free trace: a usage error, exit 2).
 */
bool loadBlameProfiles(const std::string &path,
                       std::vector<BlameProfile> &out,
                       std::string &error);

/** One component compared across two runs (diff mode). */
struct BlameDiff
{
    std::string run;       //!< run label present in both sides
    std::string component; //!< blame component name
    double baseMeanNs = 0.0;
    double otherMeanNs = 0.0;
    /** (other-base)/|base| of mean ns per write; |other| if base 0. */
    double relDelta = 0.0;
    bool flagged = false; //!< |relDelta| exceeded the threshold
};

/**
 * Compare the per-component mean blame of every run present in both
 * profile sets; rows ordered by (run, component declaration order).
 */
std::vector<BlameDiff>
diffBlameProfiles(const std::vector<BlameProfile> &base,
                  const std::vector<BlameProfile> &other,
                  double threshold);

/**
 * The full `ladder_blame` command: parse @p args (everything after
 * argv[0]), print to @p out and errors to @p err, return the process
 * exit code — 0 clean, 1 when a diff flagged a blame shift, 2 on
 * usage or load errors (including traces without attribution).
 *
 *   ladder_blame PATH...                    per-run blame tables
 *   ladder_blame diff A B [threshold=REL]   flag |rel delta|>REL (0.1)
 *
 * Both modes accept format=table|csv (default table); csv emits
 * `run,component,p50_ns,p99_ns,max_ns,mean_ns,share_pct` rows (diff:
 * `run,component,base_mean_ns,other_mean_ns,rel_delta,flagged`). The
 * exit contract is format-independent.
 */
int ladderBlameMain(const std::vector<std::string> &args,
                    std::ostream &out, std::ostream &err);

} // namespace ladder

#endif // LADDER_SIM_BLAME_QUERY_HH
