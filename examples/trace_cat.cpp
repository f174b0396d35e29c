/**
 * @file
 * Trace inspection CLI over the TraceReader library: dump, filter,
 * summarize, or list the chunk index of a trace file the simulator
 * writes (trace.bin: the v2 chunked binary, or v3 with attribution).
 * The dump is the CSV view of a trace: with no filters it prints
 * every record through the one CSV renderer (appendCsvRow), blame
 * columns included when the trace carries them.
 *
 *   ./trace_cat <trace-file> [mode=dump|summary|chunks]
 *               [kind=W|R] [channel=<N>]
 *               [min-tick=<T>] [max-tick=<T>]
 *               [limit=<N>]      (dump: stop after N matching records)
 *               [chunk=<I>]      (start at chunk I via the index)
 *
 * dump     print matching records as CSV rows (with the header)
 * summary  one aggregate block: counts, tick span, latency means/maxes
 * chunks   the chunk index (first record and record count per chunk)
 *
 * Exits non-zero with a message on stderr when the trace fails
 * validation (bad magic, truncation, CRC mismatch, ...), making it
 * usable as a cheap integrity check in scripts and CI.
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "common/param_registry.hh"
#include "ctrl/trace_reader.hh"

using namespace ladder;

namespace
{

struct Options
{
    std::string mode = "dump";
    std::string kind; //!< "" = both kinds
    std::int64_t channel = -1;
    std::uint64_t minTick = 0;
    std::int64_t maxTick = -1;
    std::int64_t limit = -1;
    std::int64_t chunk = -1;
};

const ParamRegistry<Options> &
registry()
{
    static const ParamRegistry<Options> reg = [] {
        constexpr auto i64max = std::numeric_limits<std::int64_t>::max();
        ParamRegistry<Options> r;
        r.addChoice("mode", [](Options &o) -> auto & { return o.mode; },
                    "What to print", {"dump", "summary", "chunks"});
        r.addChoice("kind", [](Options &o) -> auto & { return o.kind; },
                    "Only write (W) or read (R) records", {"W", "R"});
        r.addInt<std::int64_t>(
            "channel", [](Options &o) -> auto & { return o.channel; },
            "Only this channel (-1 = all)", -1, 255);
        r.addInt<std::uint64_t>(
            "min-tick", [](Options &o) -> auto & { return o.minTick; },
            "Drop records before this tick");
        r.addInt<std::int64_t>(
            "max-tick", [](Options &o) -> auto & { return o.maxTick; },
            "Drop records after this tick (-1 = no bound)", -1, i64max);
        r.addInt<std::int64_t>(
            "limit", [](Options &o) -> auto & { return o.limit; },
            "dump: stop after this many records (-1 = all)", -1,
            i64max);
        r.addInt<std::int64_t>(
            "chunk", [](Options &o) -> auto & { return o.chunk; },
            "Start at this chunk via the index (-1 = start)", -1,
            i64max);
        return r;
    }();
    return reg;
}

} // namespace

static int
programMain(int argc, char **argv)
{
    if (argc < 2 || argv[1][0] == '\0' ||
        std::strchr(argv[1], '=') != nullptr) {
        std::fprintf(stderr,
                     "usage: trace_cat <trace-file> "
                     "[mode=dump|summary|chunks] [kind=W|R] "
                     "[channel=N] [min-tick=T] [max-tick=T] "
                     "[limit=N] [chunk=I]\n");
        return 2;
    }
    const std::string path = argv[1];
    Options opts;
    // argv[1] is the trace path; the rest are key=value options.
    registry().applyArgs(opts, argc - 1, argv + 1);
    const std::string &mode = opts.mode;
    const std::string &kind = opts.kind;
    const std::int64_t channel = opts.channel;
    const std::uint64_t minTick = opts.minTick;
    const std::int64_t maxTickArg = opts.maxTick;
    const std::int64_t limit = opts.limit;
    const std::int64_t chunk = opts.chunk;

    TraceReader reader;
    if (!reader.open(path)) {
        std::fprintf(stderr, "trace_cat: %s: %s\n", path.c_str(),
                     reader.error().c_str());
        return 1;
    }

    if (mode == "chunks") {
        std::printf("chunk,first_record,records\n");
        for (std::size_t i = 0; i < reader.chunkCount(); ++i) {
            std::printf("%zu,%" PRIu64 ",%" PRIu32 "\n", i,
                        reader.chunkFirstRecord(i),
                        reader.chunkRecords(i));
        }
        return 0;
    }

    if (chunk >= 0 &&
        !reader.seekChunk(static_cast<std::size_t>(chunk))) {
        std::fprintf(stderr, "trace_cat: %s: %s\n", path.c_str(),
                     reader.error().c_str());
        return 1;
    }

    if (mode == "summary") {
        TraceSummary s = summarizeTrace(reader);
        if (!reader.ok()) {
            std::fprintf(stderr, "trace_cat: %s: %s\n", path.c_str(),
                         reader.error().c_str());
            return 1;
        }
        std::printf("records        %" PRIu64 " (%" PRIu64
                    " writes, %" PRIu64 " reads)\n",
                    s.records, s.writes, s.reads);
        if (s.records > 0) {
            std::printf("tick span      %" PRIu64 " .. %" PRIu64 "\n",
                        s.firstTick, s.lastTick);
        }
        if (s.writes > 0) {
            std::printf("write latency  mean %.3f ns, max %.3f ns\n",
                        s.writeLatencySumNs /
                            static_cast<double>(s.writes),
                        static_cast<double>(s.maxWriteLatencyNs));
        }
        if (s.reads > 0) {
            std::printf("read latency   mean %.3f ns, max %.3f ns\n",
                        s.readLatencySumNs /
                            static_cast<double>(s.reads),
                        static_cast<double>(s.maxReadLatencyNs));
        }
        std::printf("max queue      %" PRIu32 "\n", s.maxQueueDepth);
        std::printf("max lrs_count  %u\n",
                    static_cast<unsigned>(s.maxLrsCount));
        for (std::size_t ch = 0; ch < s.perChannel.size(); ++ch) {
            if (s.perChannel[ch] > 0)
                std::printf("channel %zu      %" PRIu64 " records\n",
                            ch, s.perChannel[ch]);
        }
        return 0;
    }

    // Push the tick window down to the reader: chunks whose index
    // range falls outside [min-tick, max-tick] are skipped without
    // being CRC-checked or decoded. The per-record filter below still
    // trims the boundary chunks exactly.
    if (minTick > 0 || maxTickArg >= 0) {
        reader.setTickWindow(
            minTick, maxTickArg >= 0
                         ? static_cast<std::uint64_t>(maxTickArg)
                         : ~std::uint64_t{0});
    }

    const bool attribution = reader.attribution();
    std::fputs(attribution ? traceCsvHeaderAttr : traceCsvHeader,
               stdout);
    CtrlTraceRecord rec;
    std::string row;
    std::int64_t printed = 0;
    while ((limit < 0 || printed < limit) && reader.next(rec)) {
        char type =
            rec.kind == CtrlTraceRecord::Kind::Write ? 'W' : 'R';
        if (!kind.empty() && kind[0] != type)
            continue;
        if (channel >= 0 && rec.channel != channel)
            continue;
        if (rec.tick < minTick)
            continue;
        if (maxTickArg >= 0 &&
            rec.tick > static_cast<std::uint64_t>(maxTickArg))
            continue;
        row.clear();
        appendCsvRow(row, rec, attribution);
        std::fputs(row.c_str(), stdout);
        ++printed;
    }
    if (!reader.ok()) {
        std::fprintf(stderr, "trace_cat: %s: %s\n", path.c_str(),
                     reader.error().c_str());
        return 1;
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return ladder::runMain(argc, argv, programMain);
}
