/**
 * @file
 * Structured run output: a RunManifest identifying each (scheme,
 * workload) cell, per-run `stats.json` files (manifest + the fully
 * resolved registry config + SimResult + full stat groups + epoch
 * time series + solver counters), optional per-run write traces, and
 * a sweep-level `sweep.json` index. Schema version 2: every stats and
 * sweep file carries a `resolved_config` object — the Manifest-scope
 * dump of the typed parameter registry (sim/config_resolve), loadable
 * back as a `config=` file.
 *
 * Determinism contract: every emitted file is byte-identical for a
 * given (config, repo state) regardless of sweep parallelism — no
 * wall clock or job count is ever written.
 */

#ifndef LADDER_SIM_STATS_EXPORT_HH
#define LADDER_SIM_STATS_EXPORT_HH

#include <filesystem>
#include <string>

#include "ctrl/trace_sink.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"

namespace ladder
{

class JsonWriter;

/** Identity of one run, serialized into every stats.json. */
struct RunManifest
{
    std::string run;      //!< directory name: `<scheme>__<workload>`
    std::string scheme;
    std::string workload;
    std::uint64_t seed = 0;
    std::uint64_t warmupInstr = 0;
    std::uint64_t measureInstr = 0;
    unsigned granularity = 0;
    double rangeShrink = 1.0;
    double cacheScale = 1.0;
    std::uint64_t epochCycles = 0;
    std::string gitDescribe;
    /**
     * External-trace provenance, present only for `trace:<path>`
     * workloads: the replayed file, its resolved encoding, record
     * count, and the CRC-32 of its raw bytes — enough to tell two
     * runs of "the same" trace name apart when the file changed.
     */
    bool hasExternTrace = false;
    std::string externTracePath;
    std::string externTraceFormat;
    std::uint64_t externTraceRecords = 0;
    std::uint32_t externTraceCrc32 = 0;
};

/**
 * `git describe --always --dirty` for the repository containing the
 * working directory, computed once per process ("unknown" when git or
 * the repository is unavailable). The LADDER_GIT_DESCRIBE environment
 * variable overrides the probe — golden-run tests pin it so committed
 * reference outputs stay byte-exact across commits.
 */
const std::string &gitDescribeString();

/**
 * Injectively sanitize one path component: alphanumerics and `-_.`
 * pass through, every other byte is percent-encoded (`%2F` for '/'),
 * so two distinct inputs can never collide on disk. Applied to the
 * scheme and workload halves of every run directory name.
 */
std::string sanitizePathComponent(const std::string &component);

/** Canonical per-run directory name: `<scheme>__<workload>`. */
std::string runDirName(SchemeKind scheme, const std::string &workload);

/**
 * The unique per-cell trace file path
 * `<config.traceOutDir>/<scheme>__<workload>/trace.bin`. Pure
 * derivation — directories are not created. makeTraceSink opens this
 * path and exportRun asserts the sink wrote to it. Distinct (scheme,
 * workload) cells always map to distinct paths, so parallel sweep
 * cells can stream traces concurrently without colliding (gated by
 * test_parallel_determinism).
 */
std::filesystem::path traceFilePath(const ExperimentConfig &config,
                                    SchemeKind scheme,
                                    const std::string &workload);

/** Build the manifest for one (scheme, workload) cell. */
RunManifest makeRunManifest(SchemeKind scheme,
                            const std::string &workload,
                            const ExperimentConfig &config);

/** Serialize @p manifest as the current JSON object's members. */
void writeManifestFields(JsonWriter &json, const RunManifest &manifest);

/** Serialize @p result as a JSON object value. */
void writeResultJson(JsonWriter &json, const SimResult &result);

/**
 * Write `<config.statsJsonDir>/<run>/stats.json` when statsJsonDir is
 * set, creating directories as needed. The trace file was already
 * streamed by @p trace (finished by the caller); when traceOutDir is
 * set and @p trace is non-null, this only asserts that the sink wrote
 * to traceFilePath().
 */
void exportRun(const ExperimentConfig &config, SchemeKind scheme,
               const std::string &workload, const System &system,
               const SimResult &result, const WriteTraceSink *trace);

/**
 * Write `<config.statsJsonDir>/sweep.json`: the sweep manifest plus
 * every cell's SimResult in canonical (workload, scheme) order.
 * No-op when statsJsonDir is empty.
 */
void exportSweep(const ExperimentConfig &config, const Matrix &matrix);

} // namespace ladder

#endif // LADDER_SIM_STATS_EXPORT_HH
