/**
 * @file
 * Live run monitor: tail the heartbeat.json snapshots that
 * telemetry-enabled runs (telemetry.interval-ms=N) publish into their
 * run directories, and render a refreshing terminal table — one row
 * per run with sequence number, snapshot age, sweep progress, sim
 * tick, write/read throughput, and per-channel queue depths.
 *
 *   ./ladder_top out/runA out/runB          # refreshing table
 *   ./ladder_top --once out/runA            # one plain print, for
 *                                           # scripts and CI
 *   ./ladder_top interval-ms=500 out/runA   # refresh period
 *
 * PATH is a heartbeat.json file or a directory containing one.
 * Heartbeats are atomically renamed by the publisher, so a read never
 * observes a torn file; a heartbeat that stops aging marks a finished
 * (or dead) run. Exit code in --once mode: 0 when every source
 * parsed, 1 otherwise.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>
#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/log.hh"
#include "sim/telemetry.hh"

using namespace ladder;

namespace
{

struct Source
{
    std::string path;
    Heartbeat last;
    bool valid = false;
    std::string error;
};

/** Sum of counters `ctrl.ch*.<suffix>` (".writes" / ".reads"). */
double
channelRate(const Heartbeat &hb, const std::string &suffix)
{
    double sum = 0.0;
    for (const auto &entry : hb.ratesPerSec) {
        if (entry.first.rfind("ctrl.ch", 0) == 0 &&
            entry.first.size() > suffix.size() &&
            entry.first.compare(entry.first.size() - suffix.size(),
                                suffix.size(), suffix) == 0)
            sum += entry.second;
    }
    return sum;
}

/** Per-channel write rates as "810/795/802" (channel order). */
std::string
perChannelWriteRates(const Heartbeat &hb)
{
    std::string out;
    for (unsigned channel = 0; channel < 64; ++channel) {
        auto it = hb.ratesPerSec.find(
            "ctrl.ch" + std::to_string(channel) + ".writes");
        if (it == hb.ratesPerSec.end())
            break;
        if (!out.empty())
            out += "/";
        char rate[24];
        std::snprintf(rate, sizeof(rate), "%.0f", it->second);
        out += rate;
    }
    return out.empty() ? "-" : out;
}

/**
 * Live tail blame: the top-2 `ctrl.blame.*_ticks` counters by rate,
 * rendered as shares of the total blame rate ("content 62%/queue
 * 21%"). Present only for trace.attribution=1 runs; "-" otherwise.
 */
std::string
tailBlame(const Heartbeat &hb)
{
    constexpr const char *prefix = "ctrl.blame.";
    constexpr const char *suffix = "_ticks";
    double total = 0.0;
    std::vector<std::pair<double, std::string>> rates;
    for (const auto &entry : hb.ratesPerSec) {
        const std::string &name = entry.first;
        if (name.rfind(prefix, 0) != 0 ||
            name.size() <= 11 + 6 ||
            name.compare(name.size() - 6, 6, suffix) != 0)
            continue;
        std::string component = name.substr(11, name.size() - 11 - 6);
        rates.emplace_back(entry.second, std::move(component));
        total += entry.second;
    }
    if (rates.empty() || total <= 0.0)
        return "-";
    std::sort(rates.begin(), rates.end(),
              [](const auto &a, const auto &b) {
                  return a.first > b.first ||
                         (a.first == b.first && a.second < b.second);
              });
    std::string out;
    for (std::size_t i = 0; i < rates.size() && i < 2; ++i) {
        if (!out.empty())
            out += "/";
        char item[48];
        std::snprintf(item, sizeof(item), "%s %.0f%%",
                      rates[i].second.c_str(),
                      rates[i].first / total * 100.0);
        out += item;
    }
    return out;
}

/** Per-channel write-queue depths as "3/0/12" (channel order). */
std::string
queueDepths(const Heartbeat &hb)
{
    std::string out;
    for (unsigned channel = 0; channel < 64; ++channel) {
        auto it = hb.gauges.find(
            "ctrl.ch" + std::to_string(channel) + ".wq_depth");
        if (it == hb.gauges.end())
            break;
        if (!out.empty())
            out += "/";
        out += std::to_string(it->second);
    }
    return out.empty() ? "-" : out;
}

std::uint64_t
nowUnixMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

void
printTable(std::vector<Source> &sources)
{
    std::printf("%-28s %6s %6s %9s %12s %10s %10s %-18s %-10s %s\n",
                "run", "seq", "age", "cells", "tick", "writes/s",
                "reads/s", "ch writes/s", "wq depth", "tail blame");
    const std::uint64_t now = nowUnixMs();
    for (Source &src : sources) {
        if (!src.valid) {
            std::printf("%-28s  [%s]\n", src.path.c_str(),
                        src.error.c_str());
            continue;
        }
        const Heartbeat &hb = src.last;
        const double ageSec =
            now >= hb.wallUnixMs
                ? static_cast<double>(now - hb.wallUnixMs) * 1e-3
                : 0.0;
        char cells[32];
        std::snprintf(cells, sizeof(cells), "%llu/%llu",
                      static_cast<unsigned long long>(hb.cellsDone),
                      static_cast<unsigned long long>(hb.cellsTotal));
        char age[16];
        std::snprintf(age, sizeof(age), "%.1fs", ageSec);
        std::printf(
            "%-28s %6llu %6s %9s %12llu %10.0f %10.0f %-18s %-10s "
            "%s\n",
            src.path.c_str(),
            static_cast<unsigned long long>(hb.seq), age, cells,
            static_cast<unsigned long long>(hb.simTick),
            channelRate(hb, ".writes"), channelRate(hb, ".reads"),
            perChannelWriteRates(hb).c_str(), queueDepths(hb).c_str(),
            tailBlame(hb).c_str());
    }
}

void
refresh(std::vector<Source> &sources)
{
    for (Source &src : sources)
        src.valid =
            readHeartbeatFile(src.path, src.last, src.error);
}

} // namespace

static int
programMain(int argc, char **argv)
{
    bool once = false;
    std::uint64_t intervalMs = 1000;
    std::vector<Source> sources;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--once") {
            once = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: ladder_top [--once] [interval-ms=N] PATH...\n"
                "  PATH: a heartbeat.json or a run directory "
                "containing one\n"
                "  --once: print one table and exit (0 = all sources "
                "ok)\n");
            return 0;
        } else if (arg.rfind("interval-ms=", 0) == 0) {
            intervalMs = std::strtoull(arg.c_str() + 12, nullptr, 10);
            if (intervalMs == 0)
                intervalMs = 1000;
        } else {
            sources.push_back({arg, {}, false, ""});
        }
    }
    if (sources.empty()) {
        std::fprintf(stderr,
                     "ladder_top: no heartbeat paths (see --help)\n");
        return 1;
    }

    if (once) {
        refresh(sources);
        printTable(sources);
        for (const Source &src : sources)
            if (!src.valid)
                return 1;
        return 0;
    }

    const bool ansi = isatty(fileno(stdout));
    for (;;) {
        refresh(sources);
        if (ansi)
            std::printf("\x1b[H\x1b[2J"); // home + clear
        printTable(sources);
        std::fflush(stdout);
        usleep(static_cast<useconds_t>(intervalMs * 1000));
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return ladder::runMain(argc, argv, programMain);
}
