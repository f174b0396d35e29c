/**
 * @file
 * Host-performance harness: one simulator run per process, timed from
 * outside the simulator through its public API only.
 *
 *   ladder_perfbench --mode=run|trace [--stats-dir=<dir>]
 *                    [--spans=<file>] <workload_sim key=value ...>
 *
 * Every argument not starting with `--` goes to resolveExperiment
 * exactly as workload_sim receives it (config=, scheme=, workload=,
 * seed=, warmup=, measure=, ...).
 *
 * --mode=run  builds the timing model and the System, runs
 *             System::run(warmup, measure), exports stats.json and
 *             prints one JSON line: the phase times, the result
 *             digest fields and the peak RSS. The parent measures
 *             process start and exit.
 * --mode=trace performs the same run as the exact call sequence
 *             System::run(warmup, measure) makes (functionalWarmup per
 *             core, then run(0, measure)), with a write-trace sink
 *             attached, and then replays the run's work through each
 *             layer's public entry points in isolation to time it:
 *             trace sources, the cache hierarchy, the backing store,
 *             standalone memory controllers (with the run's scheme and
 *             with the baseline), latency-surface lookups and the
 *             event kernel. Prints one JSON line of per-layer metrics
 *             and the digest fields; writes the recorded spans to
 *             --spans.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "circuit/solvers.hh"
#include "common/log.hh"
#include "reram/latency_surface.hh"
#include "sim/config_resolve.hh"
#include "sim/experiment.hh"
#include "sim/stats_export.hh"
#include "sim/system.hh"
#include "trace/workload_frontend.hh"

using namespace ladder;

namespace
{

using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** One recorded span: kept in memory, written out at exit. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;
};

class SpanLog
{
  public:
    /** RAII span; nests under the innermost open span. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name) : log_(log)
        {
            index_ = static_cast<int>(log_.spans_.size());
            log_.spans_.push_back({name, nowNs(), 0, log_.open_});
            log_.open_ = index_;
        }
        ~Scope() { close(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Close early; returns the span's duration in ns. */
        std::int64_t
        close()
        {
            Span &span = log_.spans_[static_cast<std::size_t>(index_)];
            if (span.endNs == 0) {
                span.endNs = nowNs();
                log_.open_ = span.parent;
            }
            return span.endNs - span.startNs;
        }

      private:
        SpanLog &log_;
        int index_ = 0;
    };

    void
    write(const std::string &path, const std::string &runId) const
    {
        if (path.empty())
            return;
        std::ofstream os(path);
        ladder_assert(os.good(), "cannot write %s", path.c_str());
        os << "[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << "  {\"id\": " << i << ", \"name\": \"" << s.name
               << "\", \"start_ns\": " << s.startNs
               << ", \"end_ns\": " << s.endNs
               << ", \"parent\": " << s.parent << ", \"run\": \""
               << runId << "\"}" << (i + 1 < spans_.size() ? "," : "")
               << "\n";
        }
        os << "]\n";
    }

  private:
    std::vector<Span> spans_;
    int open_ = -1;
};

/** Flat JSON object printed as the harness's only stdout line. */
class JsonLine
{
  public:
    void
    num(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        add(key, buf);
    }
    void
    count(const std::string &key, std::uint64_t value)
    {
        add(key, std::to_string(value));
    }
    void
    raw(const std::string &key, const std::string &value)
    {
        add(key, value);
    }
    void
    print() const
    {
        std::printf("{%s}\n", body_.c_str());
        std::fflush(stdout);
    }

  private:
    std::string body_;

    void
    add(const std::string &key, const std::string &value)
    {
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + key + "\": " + value;
    }
};

double
secondsOf(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** The SimResult fields the benchmark's correctness digest covers. */
void
digestFields(JsonLine &out, const SimResult &r)
{
    std::string ipc = "[";
    for (std::size_t c = 0; c < r.coreIpc.size(); ++c) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%s%.17g", c ? ", " : "",
                      r.coreIpc[c]);
        ipc += buf;
    }
    ipc += "]";
    out.raw("core_ipc", ipc);
    out.num("avg_read_latency_ns", r.avgReadLatencyNs);
    out.num("avg_write_service_ns", r.avgWriteServiceNs);
    out.count("data_reads", r.dataReads);
    out.count("metadata_reads", r.metadataReads);
    out.count("smb_reads", r.smbReads);
    out.count("data_writes", r.dataWrites);
    out.count("metadata_writes", r.metadataWrites);
    out.num("read_energy_pj", r.readEnergyPj);
    out.num("write_energy_pj", r.writeEnergyPj);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

/** A memory-side operation of the replayed cache miss stream. */
struct MemOp
{
    Addr addr = 0;
    bool write = false;
    LineData data{}; //!< writeback payload (writes only)
};

/** Counts and host time of the trace + cache replay. */
struct FrontReplay
{
    std::uint64_t records = 0;
    std::uint64_t writeRecords = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cacheCalls = 0;
    std::int64_t traceNs = 0;
    std::int64_t cacheNs = 0;
    std::vector<MemOp> stream;
};

/**
 * Regenerate every core's records from fresh workload sources (same
 * seed salts as System) up to exactly the instructions the run issued,
 * and push them through a standalone CacheHierarchy read/write/fill.
 * Cores advance in 256-record quanta, round robin, like the cores'
 * activation quantum. Fill payloads come from @p fillStore and are
 * excluded from the cache time; misses and writebacks form @p stream.
 */
FrontReplay
replayFrontend(const SystemConfig &sc,
               const std::vector<std::uint64_t> &issued,
               BackingStore &fillStore, SpanLog &spans)
{
    SpanLog::Scope span(spans, "replay.trace_cache");
    FrontReplay out;
    const unsigned cores = static_cast<unsigned>(sc.workloads.size());
    std::vector<std::unique_ptr<TraceSource>> sources;
    std::vector<Addr> bases;
    Addr nextBase = 0;
    for (unsigned c = 0; c < cores; ++c) {
        WorkloadInstance inst = makeWorkloadInstance(
            sc.workloads[c], sc.seed * 16 + c, sc.workingSetScale,
            sc.frontend,
            sc.traceFiles.empty() ? std::string{} : sc.traceFiles[c]);
        bases.push_back(nextBase);
        nextBase += inst.source->footprintBytes();
        sources.push_back(std::move(inst.source));
    }
    HierarchyParams params = sc.caches;
    params.cores = cores;
    CacheHierarchy hierarchy(params);

    constexpr unsigned quantum = 256;
    std::vector<std::uint64_t> done(cores, 0);
    std::vector<TraceRecord> chunk(quantum);
    std::vector<Writeback> wbs;
    auto emitWritebacks = [&]() {
        for (auto &wb : wbs)
            out.stream.push_back({wb.first, true, wb.second});
        wbs.clear();
    };
    bool active = true;
    while (active) {
        active = false;
        for (unsigned c = 0; c < cores; ++c) {
            if (done[c] >= issued[c])
                continue;
            active = true;
            // Trace generation, timed alone.
            std::int64_t t0 = nowNs();
            unsigned n = 0;
            while (n < quantum && done[c] < issued[c]) {
                chunk[n] = sources[c]->next();
                done[c] += chunk[n].nonMemBefore + 1;
                ++n;
            }
            std::int64_t t1 = nowNs();
            out.traceNs += t1 - t0;
            out.records += n;
            // Cache calls, timed minus the fill-payload reads.
            std::int64_t fillNs = 0;
            for (unsigned i = 0; i < n; ++i) {
                const TraceRecord &rec = chunk[i];
                out.instructions += rec.nonMemBefore + 1;
                Addr phys = bases[c] + rec.lineAddr;
                bool hit;
                ++out.cacheCalls;
                if (!rec.isWrite) {
                    hit = hierarchy.read(c, phys, wbs).has_value();
                } else {
                    ++out.writeRecords;
                    hit = hierarchy
                              .write(c, phys, rec.storeOffset,
                                     rec.storeData.data(), wbs)
                              .has_value();
                }
                if (!hit) {
                    std::int64_t f0 = nowNs();
                    LineData data = fillStore.read(phys);
                    fillNs += nowNs() - f0;
                    out.stream.push_back({phys, false, {}});
                    hierarchy.fill(c, phys, data, wbs);
                    ++out.cacheCalls;
                    if (rec.isWrite) {
                        hierarchy.write(c, phys, rec.storeOffset,
                                        rec.storeData.data(), wbs);
                        ++out.cacheCalls;
                    }
                }
                emitWritebacks();
            }
            out.cacheNs += nowNs() - t1 - fillNs;
        }
    }
    for (unsigned c = 0; c < cores; ++c)
        ladder_assert(done[c] == issued[c],
                      "trace replay of core %u issued %llu instructions, "
                      "the run issued %llu",
                      c, static_cast<unsigned long long>(done[c]),
                      static_cast<unsigned long long>(issued[c]));
    return out;
}

/** Host ns per op of the stream's reads and writes at one layer. */
struct ReadWriteNs
{
    double readNs = 0.0;
    double writeNs = 0.0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    /** Events each pass executed (controller replays only). */
    std::uint64_t readEvents = 0;
    std::uint64_t writeEvents = 0;
};

/** The miss stream through BackingStore::read, then ::write. */
ReadWriteNs
replayStore(const std::vector<MemOp> &stream, BackingStore &store,
            SpanLog &spans)
{
    ReadWriteNs out;
    {
        SpanLog::Scope span(spans, "replay.mem.read");
        for (const MemOp &op : stream) {
            if (op.write)
                continue;
            store.read(op.addr);
            ++out.reads;
        }
        out.readNs = static_cast<double>(span.close());
    }
    {
        SpanLog::Scope span(spans, "replay.mem.write");
        for (const MemOp &op : stream) {
            if (!op.write)
                continue;
            store.write(op.addr, op.data);
            ++out.writes;
        }
        out.writeNs = static_cast<double>(span.close());
    }
    out.readNs /= static_cast<double>(std::max<std::uint64_t>(out.reads, 1));
    out.writeNs /=
        static_cast<double>(std::max<std::uint64_t>(out.writes, 1));
    return out;
}

/**
 * The miss stream's reads, then its writes, through standalone
 * memory controllers (one per channel, @p kind's scheme) on their own
 * EventQueue over @p store.
 */
ReadWriteNs
replayControllers(const std::vector<MemOp> &stream,
                  const SystemConfig &sc, SchemeKind kind,
                  BackingStore &store, SpanLog &spans,
                  const char *spanPrefix)
{
    AddressMap map(sc.geometry);
    auto layout = std::make_shared<MetadataLayout>(
        sc.geometry, static_cast<std::uint64_t>(
                         map.totalPages() * sc.dataPageFraction));
    auto scheme =
        makeScheme(kind, sc.crossbar, layout, sc.schemeOptions);
    const TimingModel &timing = cachedTimingModel(
        sc.crossbar, sc.tableGranularity, sc.rangeShrink);
    EventQueue events;
    std::vector<std::unique_ptr<MemoryController>> ctrls;
    for (unsigned ch = 0; ch < sc.geometry.channels; ++ch)
        ctrls.push_back(std::make_unique<MemoryController>(
            events, sc.controller, sc.geometry, ch, store, timing,
            scheme));
    auto route = [&](Addr addr) -> MemoryController & {
        return *ctrls[map.decode(addr).channel];
    };
    auto makeRoom = [&](MemoryController &ctrl, bool write) {
        while (write ? !ctrl.canAcceptWrite() : !ctrl.canAcceptRead()) {
            ladder_assert(!events.empty(),
                          "controller full with no pending events");
            events.runUntil(events.nextEventTick());
        }
    };

    ReadWriteNs out;
    std::uint64_t completed = 0;
    {
        SpanLog::Scope span(
            spans, (std::string(spanPrefix) + ".read").c_str());
        for (const MemOp &op : stream) {
            if (op.write)
                continue;
            MemoryController &ctrl = route(op.addr);
            makeRoom(ctrl, false);
            ctrl.enqueueRead(op.addr, [&completed](const LineData &,
                                                   Tick) {
                ++completed;
            });
            ++out.reads;
        }
        events.runUntil(maxTick);
        out.readNs = static_cast<double>(span.close());
        out.readEvents = events.executed();
    }
    ladder_assert(completed == out.reads,
                  "controller replay completed %llu of %llu reads",
                  static_cast<unsigned long long>(completed),
                  static_cast<unsigned long long>(out.reads));
    {
        SpanLog::Scope span(
            spans, (std::string(spanPrefix) + ".write").c_str());
        for (const MemOp &op : stream) {
            if (!op.write)
                continue;
            MemoryController &ctrl = route(op.addr);
            makeRoom(ctrl, true);
            ctrl.enqueueWrite(op.addr, op.data);
            ++out.writes;
        }
        events.runUntil(maxTick);
        out.writeNs = static_cast<double>(span.close());
        out.writeEvents = events.executed() - out.readEvents;
    }
    double written = 0.0;
    for (auto &ctrl : ctrls)
        written += ctrl->dataWrites.value();
    // Writes to a line still queued coalesce, so at most out.writes.
    ladder_assert(written > 0.0 &&
                      written <= static_cast<double>(out.writes),
                  "controller replay wrote %.0f of %llu lines", written,
                  static_cast<unsigned long long>(out.writes));
    out.readNs /= static_cast<double>(std::max<std::uint64_t>(out.reads, 1));
    out.writeNs /=
        static_cast<double>(std::max<std::uint64_t>(out.writes, 1));
    return out;
}

/**
 * Host ns per event of the bare kernel: 64 self-rescheduling no-op
 * events (about the run's queue depth) until @p total have executed.
 */
double
eventKernelNs(std::uint64_t total)
{
    EventQueue events;
    std::uint64_t lcg = 12345;
    std::uint64_t scheduled = 0;
    std::function<void()> hop;
    hop = [&]() {
        if (scheduled >= total)
            return;
        ++scheduled;
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        events.scheduleIn(1 + ((lcg >> 33) & 1023), hop);
    };
    for (unsigned i = 0; i < 64; ++i)
        hop();
    std::int64_t t0 = nowNs();
    std::uint64_t ran = events.runUntil(maxTick);
    std::int64_t ns = nowNs() - t0;
    return static_cast<double>(ns) / static_cast<double>(ran);
}

/** Surface lookups for the run's (wordline, bitline, lrsCount) writes. */
double
surfaceLookupNs(const LatencySurface &surface,
                const std::vector<CtrlTraceRecord> &records,
                std::uint64_t &lookups)
{
    // Repeat the record set so the timed loop runs long enough to
    // measure; the reported count is one pass.
    constexpr unsigned passes = 16;
    double sink = 0.0;
    lookups = 0;
    std::int64_t t0 = nowNs();
    for (unsigned p = 0; p < passes; ++p) {
        for (const CtrlTraceRecord &rec : records) {
            if (rec.kind != CtrlTraceRecord::Kind::Write)
                continue;
            sink += surface.lookup(rec.wordline, rec.bitline,
                                   rec.lrsCount)
                        .latencyNs;
            if (p == 0)
                ++lookups;
        }
    }
    std::int64_t ns = nowNs() - t0;
    ladder_assert(sink >= 0.0, "negative surface latency");
    return lookups ? static_cast<double>(ns) /
                         static_cast<double>(lookups * passes)
                   : 0.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode = "run", statsDir, spansPath;
    std::vector<const char *> simArgs{argv[0]};
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--mode=", 0) == 0)
            mode = arg.substr(7);
        else if (arg.rfind("--stats-dir=", 0) == 0)
            statsDir = arg.substr(12);
        else if (arg.rfind("--spans=", 0) == 0)
            spansPath = arg.substr(8);
        else if (arg.rfind("--", 0) == 0)
            fatal("unknown harness option '%s'", arg.c_str());
        else
            simArgs.push_back(argv[i]);
    }
    if (mode != "run" && mode != "trace")
        fatal("--mode must be run or trace, not '%s'", mode.c_str());
    const bool traced = mode == "trace";

    SpanLog spans;
    JsonLine out;
    SpanLog::Scope processSpan(spans, "process");

    ResolvedExperiment resolved = resolveExperiment(
        static_cast<int>(simArgs.size()), simArgs.data(),
        defaultExperimentConfig());
    ExperimentConfig cfg = resolved.config;
    ladder_assert(resolved.schemes.size() == 1 &&
                      resolved.workloads.size() == 1,
                  "the harness runs exactly one scheme and workload");
    const SchemeKind kind = resolved.schemes[0];
    const std::string workload = resolved.workloads[0];
    cfg.statsJsonDir = statsDir;
    const SystemConfig sc = makeSystemConfig(kind, workload, cfg);

    SimResult result;
    std::vector<std::uint64_t> issued;
    std::uint64_t events = 0, residentPages = 0;
    double stall[5] = {};
    double cacheHits[3] = {}, cacheMisses[3] = {};
    double l3Writebacks = 0.0, metaHits = 0.0, metaMisses = 0.0;
    std::vector<CtrlTraceRecord> writeRecords;
    std::int64_t buildNs = 0, ctorNs = 0, warmupNs = 0, timedNs = 0,
                 exportNs = 0;
    SolverCounters solverBefore, solverAfter;
    {
        SpanLog::Scope setup(spans, "setup");
        {
            SpanLog::Scope span(spans, "circuit.timing_build");
            solverBefore = SolverInstrumentation::instance().snapshot();
            cachedTimingModel(sc.crossbar, sc.tableGranularity,
                              sc.rangeShrink);
            solverAfter = SolverInstrumentation::instance().snapshot();
            buildNs = span.close();
        }
        std::unique_ptr<System> system;
        {
            SpanLog::Scope span(spans, "sim.system_ctor");
            system = std::make_unique<System>(sc);
            ctorNs = span.close();
        }
        setup.close();
        out.count("setup_done_ns", static_cast<std::uint64_t>(nowNs()));

        WriteTraceSink sink;
        if (traced) {
            system->attachTraceSink(&sink);
            SpanLog::Scope span(spans, "sim.warmup");
            for (unsigned c = 0; c < system->coreCount(); ++c)
                system->core(c).functionalWarmup(cfg.warmupInstr);
            warmupNs = span.close();
            SpanLog::Scope timed(spans, "sim.timed");
            result = system->run(0, cfg.measureInstr);
            timedNs = timed.close();
        } else {
            SpanLog::Scope span(spans, "sim.run");
            result = system->run(cfg.warmupInstr, cfg.measureInstr);
            timedNs = span.close();
        }
        {
            SpanLog::Scope span(spans, "sim.export");
            exportRun(cfg, kind, workload, *system, result, nullptr);
            exportNs = span.close();
        }

        for (unsigned c = 0; c < system->coreCount(); ++c) {
            Core &core = system->core(c);
            issued.push_back(core.instrIssued());
            stall[0] += core.robStalls.value();
            stall[1] += core.mshrStalls.value();
            stall[2] += core.chaseStalls.value();
            stall[3] += core.wbStalls.value();
            stall[4] += core.rdqStalls.value();
            cacheHits[0] += system->hierarchy().l1(c).hits.value();
            cacheMisses[0] += system->hierarchy().l1(c).misses.value();
            cacheHits[1] += system->hierarchy().l2(c).hits.value();
            cacheMisses[1] += system->hierarchy().l2(c).misses.value();
        }
        cacheHits[2] = system->hierarchy().l3().hits.value();
        cacheMisses[2] = system->hierarchy().l3().misses.value();
        l3Writebacks = system->hierarchy().l3().dirtyEvictions.value();
        for (unsigned ch = 0; ch < system->channels(); ++ch) {
            metaHits += system->controller(ch).metadataCache().hits.value();
            metaMisses +=
                system->controller(ch).metadataCache().misses.value();
        }
        events = system->events().executed();
        residentPages = system->store().residentPages();
        if (traced)
            writeRecords = sink.records();
        SpanLog::Scope teardown(spans, "sim.teardown");
        system.reset();
    }

    std::uint64_t instructions = 0;
    for (std::uint64_t n : issued)
        instructions += n;
    digestFields(out, result);
    out.count("instructions", instructions);
    out.num("build_ms", static_cast<double>(buildNs) * 1e-6);
    out.num("ctor_ms", static_cast<double>(ctorNs) * 1e-6);

    if (!traced) {
        out.num("run_s", secondsOf(timedNs));
        out.num("export_s", secondsOf(exportNs));
        out.num("peak_rss_mb", peakRssMb());
        processSpan.close();
        spans.write(spansPath, "run");
        out.print();
        return 0;
    }

    // ---- Traced run: per-layer replays ------------------------------
    const double runNs = static_cast<double>(warmupNs + timedNs);
    const std::uint64_t picard =
        solverAfter.picardSolves - solverBefore.picardSolves;
    out.num("circuit.timing_build_ms", static_cast<double>(buildNs) * 1e-6);
    out.count("circuit.picard_solves", picard);
    out.num("circuit.solve_us",
            ratio(static_cast<double>(buildNs) * 1e-3,
                  static_cast<double>(picard)));
    out.num("sim.system_ctor_ms", static_cast<double>(ctorNs) * 1e-6);
    out.num("sim.warmup_s", secondsOf(warmupNs));
    out.num("sim.timed_s", secondsOf(timedNs));
    out.num("sim.export_ms", static_cast<double>(exportNs) * 1e-6);
    out.num("run_s", secondsOf(warmupNs + timedNs));

    out.count("cpu.instructions", instructions);
    const char *stallNames[] = {"rob", "mshr", "chase", "wb", "rdq"};
    for (unsigned i = 0; i < 5; ++i)
        out.count(std::string("cpu.stall.") + stallNames[i],
                  static_cast<std::uint64_t>(stall[i]));

    const char *levels[] = {"l1", "l2", "l3"};
    for (unsigned i = 0; i < 3; ++i) {
        double accesses = cacheHits[i] + cacheMisses[i];
        out.num(std::string("cache.") + levels[i] + ".hit_rate",
                ratio(cacheHits[i], accesses));
        out.count(std::string("cache.") + levels[i] + ".accesses",
                  static_cast<std::uint64_t>(accesses));
    }
    out.count("cache.l3.misses", static_cast<std::uint64_t>(cacheMisses[2]));
    out.count("cache.l3.writebacks",
              static_cast<std::uint64_t>(l3Writebacks));

    out.count("ctrl.data_reads", result.dataReads);
    out.count("ctrl.data_writes", result.dataWrites);
    out.count("ctrl.meta_reads", result.metadataReads);
    out.count("ctrl.meta_writes", result.metadataWrites);
    out.num("ctrl.meta_cache.hit_rate",
            ratio(metaHits, metaHits + metaMisses));
    out.count("mem.resident_pages", residentPages);
    out.count("common.events", events);

    // Trace sources and cache hierarchy, fills from a fresh store.
    FrontReplay front;
    {
        System fillSystem(sc);
        front = replayFrontend(sc, issued, fillSystem.store(), spans);
    }
    ladder_assert(front.instructions == instructions,
                  "trace records add up to %llu instructions, "
                  "cpu.instructions is %llu",
                  static_cast<unsigned long long>(front.instructions),
                  static_cast<unsigned long long>(instructions));
    const double traceNs = ratio(static_cast<double>(front.traceNs),
                                 static_cast<double>(front.records));
    const double cacheNs = ratio(static_cast<double>(front.cacheNs),
                                 static_cast<double>(front.cacheCalls));
    out.count("trace.records", front.records);
    out.count("trace.write_records", front.writeRecords);
    out.num("trace.next_ns", traceNs);
    out.count("cache.replay_calls", front.cacheCalls);
    out.num("cache.access_ns", cacheNs);

    ReadWriteNs mem, ctrl, base;
    {
        System fresh(sc);
        mem = replayStore(front.stream, fresh.store(), spans);
    }
    {
        System fresh(sc);
        ctrl = replayControllers(front.stream, sc, kind, fresh.store(),
                                 spans, "replay.ctrl");
    }
    {
        SystemConfig baseCfg = sc;
        baseCfg.scheme = SchemeKind::Baseline;
        System fresh(baseCfg);
        base = replayControllers(front.stream, baseCfg,
                                 SchemeKind::Baseline, fresh.store(),
                                 spans, "replay.baseline");
    }
    out.count("ctrl.replay_reads", ctrl.reads);
    out.count("ctrl.replay_writes", ctrl.writes);
    out.num("ctrl.read_ns", ctrl.readNs);
    out.num("ctrl.write_ns", ctrl.writeNs);
    out.num("schemes.write_ns", ctrl.writeNs - base.writeNs);
    out.num("mem.read_ns", mem.readNs);
    out.num("mem.write_ns", mem.writeNs);

    std::uint64_t lookups = 0;
    const TimingModel &timing = cachedTimingModel(
        sc.crossbar, sc.tableGranularity, sc.rangeShrink);
    double lookupNs;
    {
        SpanLog::Scope span(spans, "replay.reram.surface");
        lookupNs = surfaceLookupNs(*timing.ladderSurface, writeRecords,
                                   lookups);
    }
    std::uint64_t writeTraceRecords = 0;
    for (const CtrlTraceRecord &rec : writeRecords)
        writeTraceRecords += rec.kind == CtrlTraceRecord::Kind::Write;
    ladder_assert(lookups == writeTraceRecords &&
                      lookups == result.dataWrites,
                  "%llu surface lookups for %llu write trace records "
                  "and %llu data writes",
                  static_cast<unsigned long long>(lookups),
                  static_cast<unsigned long long>(writeTraceRecords),
                  static_cast<unsigned long long>(result.dataWrites));
    out.count("reram.surface_lookups", lookups);
    out.num("reram.surface_lookup_ns", lookupNs);

    double eventNs;
    {
        SpanLog::Scope span(spans, "replay.common.events");
        eventNs = eventKernelNs(1u << 20);
    }
    out.num("common.event_ns", eventNs);

    // Shares of the traced run's simulation time (warmup + timed).
    // The controller's self time per op excludes the store operation
    // and the kernel cost of the events its replay executed; those
    // count under mem and common.
    const double timedReads = static_cast<double>(
        result.dataReads + result.metadataReads + result.smbReads);
    const double timedWrites =
        static_cast<double>(result.dataWrites + result.metadataWrites);
    const double ctrlSelfRead =
        ctrl.readNs - mem.readNs -
        eventNs * ratio(static_cast<double>(ctrl.readEvents),
                        static_cast<double>(ctrl.reads));
    const double ctrlSelfWrite =
        ctrl.writeNs - mem.writeNs -
        eventNs * ratio(static_cast<double>(ctrl.writeEvents),
                        static_cast<double>(ctrl.writes));
    const double shares[] = {
        traceNs * static_cast<double>(front.records),
        cacheNs * static_cast<double>(front.cacheCalls),
        ctrlSelfRead * timedReads + ctrlSelfWrite * timedWrites,
        mem.readNs * static_cast<double>(mem.reads) +
            mem.writeNs * static_cast<double>(mem.writes),
        lookupNs * static_cast<double>(lookups),
        eventNs * static_cast<double>(events),
    };
    const char *shareNames[] = {"trace", "cache", "ctrl",
                                "mem",   "reram", "common"};
    double attributed = 0.0;
    for (unsigned i = 0; i < 6; ++i) {
        out.num(std::string("share.") + shareNames[i], shares[i] / runNs);
        attributed += shares[i];
    }
    out.num("share.unattributed", 1.0 - attributed / runNs);

    processSpan.close();
    spans.write(spansPath, "trace");
    out.print();
    return 0;
}
