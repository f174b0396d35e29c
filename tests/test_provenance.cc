/**
 * @file
 * Provenance property: a parameter kept out of the run manifest
 * (`inManifest = false`) must never change simulated results, or two
 * stats.json files with equal manifests could hold different results.
 *
 * For every manifest-excluded registry parameter, a tiny 2-channel
 * LADDER-Hybrid cell runs with that parameter at a valid non-default
 * value (output-path parameters get fresh temp paths), and its
 * stats.json `result` block must be byte-identical to the default
 * run's. A newly declared manifest-excluded parameter fails the test
 * until it is given a value below.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "common/json.hh"
#include "common/profiler.hh"
#include "sim/config_resolve.hh"
#include "sim/experiment.hh"
#include "sim/stats_export.hh"

namespace fs = std::filesystem;

namespace ladder
{
namespace
{

using Registry = ParamRegistry<ExperimentConfig>;

/** Marks a value that is replaced by a fresh temp path. */
const std::string kTempPath = "<temp>";

/** Valid non-default value for every manifest-excluded parameter. */
const std::map<std::string, std::string> &
excludedValues()
{
    static const std::map<std::string, std::string> values = {
        {"jobs", "4"},
        {"profile", "true"},
        {"profile-out", kTempPath},
        {"progress", "off"},
        {"stats", "true"},
        {"stats-json", kTempPath},
        {"telemetry.interval-ms", "5"},
        {"telemetry.out", kTempPath},
        {"telemetry.watchdog-intervals", "7"},
        {"trace-out", kTempPath},
        {"trace.attribution", "true"},
    };
    return values;
}

std::string
dumpScope(const ExperimentConfig &cfg, Registry::Scope scope)
{
    std::ostringstream os;
    JsonWriter json(os);
    experimentRegistry().dumpJson(cfg, json, scope);
    return os.str();
}

std::set<std::string>
manifestExcludedParams()
{
    const ExperimentConfig cfg;
    const JsonValue all = parseJson(dumpScope(cfg, Registry::Scope::All));
    const JsonValue manifest =
        parseJson(dumpScope(cfg, Registry::Scope::Manifest));
    std::set<std::string> out;
    for (const auto &member : all.object)
        if (!manifest.has(member.first))
            out.insert(member.first);
    return out;
}

ExperimentConfig
tinyCell()
{
    ExperimentConfig cfg;
    cfg.warmupInstr = 60'000;
    cfg.measureInstr = 40'000;
    cfg.cacheScale = 1.0 / 16.0;
    cfg.jobs = 1;
    cfg.system.geometry.channels = 2;
    return cfg;
}

/** The `"result": {...}` object of a stats.json, verbatim. */
std::string
resultBlock(const fs::path &statsJson)
{
    std::ifstream is(statsJson, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    const std::string text = os.str();
    const std::string key = "\"result\":";
    const std::size_t start = text.find(key);
    if (start == std::string::npos)
        return "";
    int depth = 0;
    for (std::size_t i = start + key.size(); i < text.size(); ++i) {
        if (text[i] == '{')
            ++depth;
        else if (text[i] == '}' && --depth == 0)
            return text.substr(start, i + 1 - start);
    }
    return "";
}

std::string
runCell(const ExperimentConfig &cfg)
{
    runMatrixParallel({SchemeKind::LadderHybrid}, {"lbm"}, cfg);
    // Profiling is process-global once a run turns it on.
    prof::disable();
    prof::reset();
    return resultBlock(fs::path(cfg.statsJsonDir) /
                       runDirName(SchemeKind::LadderHybrid, "lbm") /
                       "stats.json");
}

TEST(Provenance, EveryExcludedParamHasATestValue)
{
    std::set<std::string> listed;
    for (const auto &entry : excludedValues())
        listed.insert(entry.first);
    EXPECT_EQ(manifestExcludedParams(), listed)
        << "declare a non-default value for every manifest-excluded "
           "parameter (and drop retired ones)";
}

TEST(Provenance, ManifestExcludedParamsLeaveResultsUnchanged)
{
    const fs::path base =
        fs::path(::testing::TempDir()) / "ladder_provenance";
    fs::remove_all(base);

    ExperimentConfig defaults = tinyCell();
    defaults.statsJsonDir = (base / "default").string();
    const std::string reference = runCell(defaults);
    ASSERT_FALSE(reference.empty());

    for (const std::string &name : manifestExcludedParams()) {
        SCOPED_TRACE(name);
        auto it = excludedValues().find(name);
        ASSERT_NE(it, excludedValues().end());
        const fs::path dir = base / name;
        std::string value = it->second;
        if (value == kTempPath)
            value = (dir / "out" / "path").string();

        ExperimentConfig cfg = tinyCell();
        cfg.statsJsonDir = (dir / "stats").string();
        const std::string before = dumpScope(cfg, Registry::Scope::All);
        experimentRegistry().set(cfg, name, value, "test");
        ASSERT_NE(dumpScope(cfg, Registry::Scope::All), before)
            << name << "=" << value << " is the default";
        EXPECT_EQ(runCell(cfg), reference)
            << name << "=" << value << " changed the results";
    }
    fs::remove_all(base);
}

} // namespace
} // namespace ladder
