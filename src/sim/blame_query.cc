#include "blame_query.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <ostream>

#include "ctrl/trace_reader.hh"
#include "ctrl/trace_sink.hh"

namespace ladder
{

namespace
{

/** Signed per-component sample buckets for one run. */
struct RawSamples
{
    std::vector<std::int32_t> ticks[blameComponentCount];
};

/**
 * Percentile of a sample set by nearest-rank on the sorted copy —
 * deterministic, no interpolation, matching the histogram exports.
 */
double
percentileNs(std::vector<std::int32_t> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    auto index = static_cast<std::size_t>(
        std::llround(q * static_cast<double>(sorted.size() - 1)));
    return static_cast<double>(sorted[index]) / 1000.0;
}

/** Reduce one run's raw samples to its percentile/share profile. */
BlameProfile
reduceProfile(std::string label, RawSamples &raw)
{
    BlameProfile profile;
    profile.label = std::move(label);
    profile.writes =
        static_cast<std::uint64_t>(raw.ticks[0].size());
    double totalBlame = 0.0;
    double sums[blameComponentCount] = {};
    for (unsigned c = 0; c < blameComponentCount; ++c) {
        for (std::int32_t t : raw.ticks[c])
            sums[c] += static_cast<double>(t) / 1000.0;
        totalBlame += sums[c];
    }
    for (unsigned c = 0; c < blameComponentCount; ++c) {
        auto &samples = raw.ticks[c];
        std::sort(samples.begin(), samples.end());
        BlameComponentProfile &p = profile.components[c];
        p.p50Ns = percentileNs(samples, 0.50);
        p.p99Ns = percentileNs(samples, 0.99);
        p.maxNs = samples.empty()
                      ? 0.0
                      : static_cast<double>(samples.back()) / 1000.0;
        p.meanNs = profile.writes == 0
                       ? 0.0
                       : sums[c] /
                             static_cast<double>(profile.writes);
        p.share = totalBlame == 0.0 ? 0.0 : sums[c] / totalBlame;
    }
    return profile;
}

/** Load one attribution trace file into a profile. */
bool
loadTraceProfile(const std::string &path, const std::string &label,
                 std::vector<BlameProfile> &out, std::string &error)
{
    TraceReader reader;
    if (!reader.open(path)) {
        error = path + ": " + reader.error();
        return false;
    }
    if (!reader.attribution()) {
        error = path +
                ": trace has no attribution block (rerun the sweep "
                "with trace.attribution=1)";
        return false;
    }
    RawSamples raw;
    CtrlTraceRecord rec;
    while (reader.next(rec)) {
        if (rec.kind != CtrlTraceRecord::Kind::Write)
            continue;
        const std::int32_t components[blameComponentCount] = {
            rec.attr.depTicks,     rec.attr.queueTicks,
            rec.attr.bankTicks,    rec.attr.rcdTicks,
            rec.attr.baseTicks,    rec.attr.locationTicks,
            rec.attr.contentTicks, rec.attr.schemeTicks};
        for (unsigned c = 0; c < blameComponentCount; ++c)
            raw.ticks[c].push_back(components[c]);
    }
    if (!reader.ok()) {
        error = path + ": " + reader.error();
        return false;
    }
    out.push_back(reduceProfile(label, raw));
    return true;
}

/** trace.bin inside @p dir, or empty when absent. */
std::string
traceFileIn(const std::filesystem::path &dir)
{
    std::filesystem::path candidate = dir / "trace.bin";
    std::error_code ec;
    if (std::filesystem::is_regular_file(candidate, ec))
        return candidate.string();
    return {};
}

} // namespace

bool
loadBlameProfiles(const std::string &path,
                  std::vector<BlameProfile> &out, std::string &error)
{
    std::error_code ec;
    if (std::filesystem::is_regular_file(path, ec))
        return loadTraceProfile(path, path, out, error);
    if (!std::filesystem::is_directory(path, ec)) {
        error = path + ": no such file or directory";
        return false;
    }
    // A run directory holds the trace directly; a sweep trace-out
    // directory holds one run directory per cell.
    std::string direct = traceFileIn(path);
    if (!direct.empty())
        return loadTraceProfile(direct, path, out, error);
    // Deterministic order regardless of directory enumeration.
    std::vector<std::filesystem::path> runs;
    for (const auto &entry :
         std::filesystem::directory_iterator(path)) {
        if (entry.is_directory() &&
            !traceFileIn(entry.path()).empty())
            runs.push_back(entry.path());
    }
    std::sort(runs.begin(), runs.end());
    if (runs.empty()) {
        error = path + ": no trace.bin found (not a run or "
                       "trace-out directory?)";
        return false;
    }
    for (const auto &run : runs) {
        if (!loadTraceProfile(traceFileIn(run),
                              run.filename().string(), out, error))
            return false;
    }
    return true;
}

std::vector<BlameDiff>
diffBlameProfiles(const std::vector<BlameProfile> &base,
                  const std::vector<BlameProfile> &other,
                  double threshold)
{
    std::map<std::string, const BlameProfile *> otherByLabel;
    for (const BlameProfile &profile : other)
        otherByLabel[profile.label] = &profile;
    std::vector<BlameDiff> diffs;
    for (const BlameProfile &b : base) {
        auto it = otherByLabel.find(b.label);
        if (it == otherByLabel.end())
            continue;
        const BlameProfile &o = *it->second;
        for (unsigned c = 0; c < blameComponentCount; ++c) {
            BlameDiff d;
            d.run = b.label;
            d.component = blameComponentNames()[c];
            d.baseMeanNs = b.components[c].meanNs;
            d.otherMeanNs = o.components[c].meanNs;
            if (d.baseMeanNs != 0.0)
                d.relDelta = (d.otherMeanNs - d.baseMeanNs) /
                             std::abs(d.baseMeanNs);
            else
                d.relDelta = d.otherMeanNs == 0.0
                                 ? 0.0
                                 : std::abs(d.otherMeanNs);
            d.flagged = std::abs(d.relDelta) > threshold;
            diffs.push_back(std::move(d));
        }
    }
    return diffs;
}

namespace
{

int
usage(std::ostream &err)
{
    err << "usage: ladder_blame PATH... [format=table|csv]\n"
           "       ladder_blame diff A B [threshold=REL] "
           "[format=table|csv]\n"
           "\n"
           "PATH is an attribution trace (trace.attribution=1), a "
           "run directory,\nor a sweep trace-out directory. diff "
           "flags components whose mean\nblame moved more than REL "
           "(default 0.1) and exits 1.\n";
    return 2;
}

void
printTables(std::ostream &out,
            const std::vector<BlameProfile> &profiles)
{
    char buf[160];
    for (const BlameProfile &profile : profiles) {
        std::snprintf(buf, sizeof(buf), "%s (%llu writes)\n",
                      profile.label.c_str(),
                      static_cast<unsigned long long>(
                          profile.writes));
        out << buf;
        std::snprintf(buf, sizeof(buf),
                      "  %-10s %12s %12s %12s %12s %8s\n",
                      "component", "p50_ns", "p99_ns", "max_ns",
                      "mean_ns", "share");
        out << buf;
        for (unsigned c = 0; c < blameComponentCount; ++c) {
            const BlameComponentProfile &p = profile.components[c];
            std::snprintf(buf, sizeof(buf),
                          "  %-10s %12.3f %12.3f %12.3f %12.3f "
                          "%7.2f%%\n",
                          blameComponentNames()[c], p.p50Ns, p.p99Ns,
                          p.maxNs, p.meanNs, p.share * 100.0);
            out << buf;
        }
    }
}

void
printCsv(std::ostream &out,
         const std::vector<BlameProfile> &profiles)
{
    out << "run,component,p50_ns,p99_ns,max_ns,mean_ns,share_pct\n";
    char buf[160];
    for (const BlameProfile &profile : profiles) {
        for (unsigned c = 0; c < blameComponentCount; ++c) {
            const BlameComponentProfile &p = profile.components[c];
            std::snprintf(buf, sizeof(buf),
                          "%s,%s,%.3f,%.3f,%.3f,%.3f,%.2f\n",
                          profile.label.c_str(),
                          blameComponentNames()[c], p.p50Ns, p.p99Ns,
                          p.maxNs, p.meanNs, p.share * 100.0);
            out << buf;
        }
    }
}

} // namespace

int
ladderBlameMain(const std::vector<std::string> &args,
                std::ostream &out, std::ostream &err)
{
    std::vector<std::string> positional;
    double threshold = 0.1;
    bool diffMode = false;
    bool csv = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (i == 0 && arg == "diff") {
            diffMode = true;
        } else if (arg.rfind("format=", 0) == 0) {
            const std::string text = arg.substr(7);
            if (text == "csv") {
                csv = true;
            } else if (text != "table") {
                err << "ladder_blame: bad format '" << text
                    << "' (table or csv)\n";
                return 2;
            }
        } else if (arg.rfind("threshold=", 0) == 0) {
            char *end = nullptr;
            const std::string text = arg.substr(10);
            threshold = std::strtod(text.c_str(), &end);
            if (end == text.c_str() || *end != '\0' ||
                threshold < 0.0) {
                err << "ladder_blame: bad threshold '" << text
                    << "'\n";
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage(err);
            return 0;
        } else {
            positional.push_back(arg);
        }
    }
    if (positional.empty() || (diffMode && positional.size() != 2))
        return usage(err);

    if (!diffMode) {
        std::vector<BlameProfile> profiles;
        for (const std::string &path : positional) {
            std::string error;
            if (!loadBlameProfiles(path, profiles, error)) {
                err << "ladder_blame: " << error << "\n";
                return 2;
            }
        }
        if (csv)
            printCsv(out, profiles);
        else
            printTables(out, profiles);
        return 0;
    }

    std::vector<BlameProfile> base, other;
    std::string error;
    if (!loadBlameProfiles(positional[0], base, error) ||
        !loadBlameProfiles(positional[1], other, error)) {
        err << "ladder_blame: " << error << "\n";
        return 2;
    }
    std::vector<BlameDiff> diffs =
        diffBlameProfiles(base, other, threshold);
    if (diffs.empty()) {
        err << "ladder_blame: no common runs between '"
            << positional[0] << "' and '" << positional[1] << "'\n";
        return 2;
    }
    std::size_t flagged = 0;
    char buf[200];
    if (csv) {
        out << "run,component,base_mean_ns,other_mean_ns,rel_delta,"
               "flagged\n";
    } else {
        std::snprintf(buf, sizeof(buf),
                      "%-32s %-10s %14s %14s %9s\n", "run",
                      "component", "base_mean_ns", "other_mean_ns",
                      "rel");
        out << buf;
    }
    for (const BlameDiff &d : diffs) {
        if (d.flagged)
            ++flagged;
        if (csv) {
            std::snprintf(buf, sizeof(buf),
                          "%s,%s,%.3f,%.3f,%.4f,%d\n", d.run.c_str(),
                          d.component.c_str(), d.baseMeanNs,
                          d.otherMeanNs, d.relDelta,
                          d.flagged ? 1 : 0);
            out << buf;
        } else {
            std::snprintf(buf, sizeof(buf),
                          "%-32s %-10s %14.3f %14.3f %8.2f%%%s\n",
                          d.run.c_str(), d.component.c_str(),
                          d.baseMeanNs, d.otherMeanNs,
                          d.relDelta * 100.0,
                          d.flagged ? "  BLAME SHIFT" : "");
            out << buf;
        }
    }
    if (!csv) {
        out << "(" << diffs.size() << " components compared, "
            << flagged << " beyond " << threshold * 100.0
            << "% threshold)\n";
    }
    return flagged == 0 ? 0 : 1;
}

} // namespace ladder
