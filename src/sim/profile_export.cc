#include "profile_export.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "common/json.hh"
#include "common/log.hh"
#include "ctrl/controller.hh"
#include "ctrl/trace_reader.hh"
#include "sim/stats_export.hh"

namespace ladder
{

namespace
{

/** Host wall-clock tracks live on pid 1; sim-time cells on 2+. */
constexpr int hostPid = 1;

/**
 * Upper bound on synthesized sim-time events, so profiling a long
 * trace cannot produce a multi-GB JSON. Overflow is reported, never
 * silent.
 */
constexpr std::uint64_t maxSimEvents = 200'000;

/** ns of host time -> trace-event microseconds. */
double
usFromNs(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e3;
}

/** picosecond sim ticks -> trace-event microseconds. */
double
usFromTicks(std::uint64_t ticks)
{
    return static_cast<double>(ticks) / 1e6;
}

void
metadataEvent(JsonWriter &json, const char *kind, int pid,
              std::uint64_t tid, const std::string &name)
{
    json.beginObject();
    json.field("ph", "M");
    json.field("name", kind);
    json.field("pid", pid);
    json.field("tid", tid);
    json.key("args");
    json.beginObject();
    json.field("name", name);
    json.endObject();
    json.endObject();
}

void
writeHostEvents(JsonWriter &json,
                const std::vector<prof::ThreadLog> &logs)
{
    metadataEvent(json, "process_name", hostPid, 0,
                  "ladder host (wall clock)");
    for (const prof::ThreadLog &log : logs) {
        std::string name = log.name.empty()
                               ? "thread-" + std::to_string(log.threadId)
                               : log.name;
        metadataEvent(json, "thread_name", hostPid, log.threadId,
                      name);
        for (const prof::Span &span : log.spans) {
            json.beginObject();
            json.field("ph", "X");
            json.field("name", span.name);
            json.field("cat", "host");
            json.field("pid", hostPid);
            json.field("tid", log.threadId);
            json.field("ts", usFromNs(span.startNs));
            json.field("dur",
                       usFromNs(span.endNs >= span.startNs
                                    ? span.endNs - span.startNs
                                    : 0));
            json.endObject();
        }
        for (const prof::CounterSample &counter : log.counters) {
            json.beginObject();
            json.field("ph", "C");
            json.field("name", counter.name);
            json.field("pid", hostPid);
            json.field("tid", log.threadId);
            json.field("ts", usFromNs(counter.tsNs));
            json.key("args");
            json.beginObject();
            json.field("value", counter.value);
            json.endObject();
            json.endObject();
        }
    }
}

/** Blame sub-slice tracks sit after the channel occupancy tracks. */
constexpr std::uint64_t blameTidBase = 256;

/**
 * Attributed write: per-component sub-slices on a dedicated blame
 * track plus a flow (ph s/t/f) linking enqueue -> dispatch ->
 * completion, so Perfetto draws the causal chain across tracks.
 * Returns the number of trace events emitted (counted against the
 * sim-event budget like the occupancy spans).
 */
std::uint64_t
writeBlameSlices(JsonWriter &json, const CtrlTraceRecord &rec,
                 int pid, std::uint64_t flowId)
{
    const std::int64_t components[blameComponentCount] = {
        rec.attr.depTicks,     rec.attr.queueTicks,
        rec.attr.bankTicks,    rec.attr.rcdTicks,
        rec.attr.baseTicks,    rec.attr.locationTicks,
        rec.attr.contentTicks, rec.attr.schemeTicks};
    // Wait components precede the dispatch tick; the service side
    // (rcd onwards) starts at it. Sum of all eight spans
    // enqueue..completion exactly (the controller's invariant).
    std::int64_t waitTicks = 0;
    for (unsigned i = 0; i < 3; ++i)
        waitTicks += components[i];
    const std::uint64_t blameTid = blameTidBase + rec.channel;
    std::uint64_t emitted = 0;
    double cursorUs =
        usFromTicks(rec.tick) - usFromTicks(static_cast<std::uint64_t>(
                                    waitTicks > 0 ? waitTicks : 0));
    const double enqueueUs = cursorUs;
    for (unsigned i = 0; i < blameComponentCount; ++i) {
        // Signed components keep the cursor honest; only positive
        // ones are drawable slices.
        if (components[i] > 0) {
            json.beginObject();
            json.field("ph", "X");
            json.field("name", blameComponentNames()[i]);
            json.field("cat", "blame");
            json.field("pid", pid);
            json.field("tid", blameTid);
            json.field("ts", cursorUs);
            json.field("dur",
                       usFromTicks(static_cast<std::uint64_t>(
                           components[i])));
            json.endObject();
            ++emitted;
        }
        cursorUs += static_cast<double>(components[i]) / 1e6;
    }
    const double completionUs = cursorUs;
    // Flow arrows: start at enqueue on the blame track, step at
    // dispatch on the channel occupancy track, end at completion.
    const char *phases[3] = {"s", "t", "f"};
    const double ts[3] = {enqueueUs, usFromTicks(rec.tick),
                          completionUs};
    const std::uint64_t tids[3] = {blameTid, rec.channel, blameTid};
    for (unsigned i = 0; i < 3; ++i) {
        json.beginObject();
        json.field("ph", phases[i]);
        json.field("id", flowId);
        json.field("name", "write path");
        json.field("cat", "blame");
        json.field("pid", pid);
        json.field("tid", tids[i]);
        json.field("ts", ts[i]);
        if (phases[i][0] == 'f')
            json.field("bp", "e");
        json.endObject();
        ++emitted;
    }
    return emitted;
}

/**
 * One run cell's recorded trace as a sim-time process: a track per
 * channel, writes occupying their dispatch..dispatch+tWR window and
 * reads their (completion-latency)..completion window. Attribution
 * traces (v3) additionally get per-channel blame tracks with
 * per-component sub-slices and enqueue->dispatch->completion flows
 * (see writeBlameSlices).
 */
std::uint64_t
writeSimCell(JsonWriter &json, const ExperimentConfig &config,
             const ProfileCell &cell, int pid, std::uint64_t budget)
{
    const std::string run = runDirName(cell.first, cell.second);
    const std::string path =
        traceFilePath(config, cell.first, cell.second).string();
    TraceReader reader;
    if (!reader.open(path)) {
        warn("profile: skipping sim track for %s: %s", run.c_str(),
             reader.error().c_str());
        return 0;
    }
    metadataEvent(json, "process_name", pid, 0, "sim time: " + run);
    std::vector<bool> channelNamed;
    std::vector<bool> blameNamed;
    CtrlTraceRecord rec;
    std::uint64_t emitted = 0;
    std::uint64_t flowId = 0;
    while (emitted < budget && reader.next(rec)) {
        const std::size_t channel = rec.channel;
        if (channel >= channelNamed.size())
            channelNamed.resize(channel + 1, false);
        if (!channelNamed[channel]) {
            metadataEvent(json, "thread_name", pid, channel,
                          "channel " + std::to_string(channel));
            channelNamed[channel] = true;
        }
        const bool isWrite =
            rec.kind == CtrlTraceRecord::Kind::Write;
        const double durUs =
            static_cast<double>(rec.latencyNs) / 1e3;
        double tsUs = usFromTicks(rec.tick);
        if (!isWrite)
            tsUs = std::max(0.0, tsUs - durUs);
        json.beginObject();
        json.field("ph", "X");
        json.field("name", isWrite ? "write" : "read");
        json.field("cat", "sim");
        json.field("pid", pid);
        json.field("tid",
                   static_cast<std::uint64_t>(rec.channel));
        json.field("ts", tsUs);
        json.field("dur", durUs);
        json.key("args");
        json.beginObject();
        json.field("queue_depth", rec.queueDepth);
        if (isWrite)
            json.field("lrs_count",
                       static_cast<unsigned>(rec.lrsCount));
        json.endObject();
        json.endObject();
        // Companion counter track: per-channel queue depth over sim
        // time, so Perfetto draws the fill level next to the
        // occupancy spans. Budgeted as part of the same record.
        json.beginObject();
        json.field("ph", "C");
        json.field("name",
                   "ch" + std::to_string(channel) +
                       (isWrite ? " write queue" : " read queue"));
        json.field("pid", pid);
        json.field("ts", usFromTicks(rec.tick));
        json.key("args");
        json.beginObject();
        json.field("value", rec.queueDepth);
        json.endObject();
        json.endObject();
        ++emitted;
        if (reader.attribution() && isWrite) {
            if (channel >= blameNamed.size())
                blameNamed.resize(channel + 1, false);
            if (!blameNamed[channel]) {
                metadataEvent(json, "thread_name", pid,
                              blameTidBase + channel,
                              "channel " + std::to_string(channel) +
                                  " blame");
                blameNamed[channel] = true;
            }
            emitted +=
                writeBlameSlices(json, rec, pid, flowId++);
        }
    }
    if (!reader.ok()) {
        warn("profile: sim track for %s truncated: %s", run.c_str(),
             reader.error().c_str());
    } else if (emitted == budget && reader.next(rec)) {
        warn("profile: sim track cap (%llu events) reached; "
             "remaining records of %s dropped",
             static_cast<unsigned long long>(maxSimEvents),
             run.c_str());
    }
    return emitted;
}

void
printSummary(const std::vector<prof::ThreadLog> &logs)
{
    struct Agg
    {
        std::uint64_t calls = 0;
        std::uint64_t totalNs = 0;
    };
    std::map<std::string, Agg> byName;
    for (const prof::ThreadLog &log : logs) {
        for (const prof::Span &span : log.spans) {
            Agg &agg = byName[span.name];
            ++agg.calls;
            agg.totalNs += span.endNs >= span.startNs
                               ? span.endNs - span.startNs
                               : 0;
        }
    }
    std::vector<std::pair<std::string, Agg>> rows(byName.begin(),
                                                  byName.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  return a.second.totalNs > b.second.totalNs;
              });
    std::fprintf(stderr, "--- host profile (wall clock) ---\n");
    std::fprintf(stderr, "%-32s %10s %14s %12s\n", "span", "calls",
                 "total ms", "mean us");
    for (const auto &row : rows) {
        double totalMs =
            static_cast<double>(row.second.totalNs) / 1e6;
        double meanUs = static_cast<double>(row.second.totalNs) /
                        1e3 /
                        static_cast<double>(row.second.calls);
        std::fprintf(stderr, "%-32s %10llu %14.3f %12.3f\n",
                     row.first.c_str(),
                     static_cast<unsigned long long>(
                         row.second.calls),
                     totalMs, meanUs);
    }
}

} // namespace

void
beginProfiling(const ExperimentConfig &config)
{
    if (!profilingRequested(config) || prof::enabled())
        return;
    prof::setCurrentThreadName("ladder-main");
    prof::enable();
}

void
writeChromeTrace(std::ostream &os,
                 const std::vector<prof::ThreadLog> &logs,
                 const ExperimentConfig &config,
                 const std::vector<ProfileCell> &cells)
{
    JsonWriter json(os);
    json.beginObject();
    json.field("displayTimeUnit", "ms");
    json.key("traceEvents");
    json.beginArray();
    writeHostEvents(json, logs);
    if (!config.traceOutDir.empty()) {
        std::uint64_t emitted = 0;
        int pid = hostPid + 1;
        for (const ProfileCell &cell : cells) {
            emitted += writeSimCell(json, config, cell, pid++,
                                    maxSimEvents - emitted);
        }
    }
    json.endArray();
    json.endObject();
    os << "\n";
    ladder_assert(json.balanced(), "unbalanced profile writer");
}

void
exportProfile(const ExperimentConfig &config,
              const std::vector<ProfileCell> &cells)
{
    if (!profilingRequested(config))
        return;
    std::vector<prof::ThreadLog> logs = prof::collect();
    if (!config.profileOut.empty()) {
        std::filesystem::path path(config.profileOut);
        if (path.has_parent_path())
            std::filesystem::create_directories(path.parent_path());
        std::ofstream os(path);
        ladder_assert(os.good(), "cannot write profile %s",
                      config.profileOut.c_str());
        writeChromeTrace(os, logs, config, cells);
        inform("wrote profile timeline to %s (open in "
               "https://ui.perfetto.dev or chrome://tracing)",
               config.profileOut.c_str());
    }
    if (config.profileSummary)
        printSummary(logs);
}

} // namespace ladder
