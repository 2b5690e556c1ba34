/**
 * @file
 * aftermath-scan: print the ranked anomaly list of a trace.
 *
 * Runs the anomaly scanner (stats/anomaly.h) over a trace file and
 * prints one line per finding, most severe first:
 *
 *     aftermath-scan --trace FILE [--socket PATH] [--max-per-kind N]
 *                    [--z SIGMA] [--burst FACTOR] [--idle FRACTION]
 *
 * Without --socket the scan runs in-process through the Session query
 * plane. With --socket the request goes to a running aftermathd over
 * the wire protocol instead — the daemon opens (or shares) FILE on its
 * side and answers the exact same ranked list, byte-identical to the
 * local scan, which is also how the daemon round-trip is demoed by
 * hand.
 *
 * With --resolution the tool additionally prints the interval
 * statistics of the whole trace span at the requested resolution
 * (exact, budget:<time-units>, or pixels:<columns>), including the
 * provenance line telling whether the answer came from the summary
 * pyramids and at what granularity — the quickest way to see the
 * resolution-aware query plane at work on a real trace, locally or
 * over the wire.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "daemon/client.h"
#include "session/session.h"
#include "stats/anomaly.h"
#include "trace/reader.h"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --trace FILE [--socket PATH] [options]\n"
        "  --trace FILE     trace file to scan (required)\n"
        "  --socket PATH    scan via the aftermathd at PATH instead of\n"
        "                   in-process\n"
        "  --max-per-kind N keep the N most severe findings per kind\n"
        "                   (default 20)\n"
        "  --z SIGMA        duration-outlier z-score threshold "
        "(default 3.0)\n"
        "  --burst FACTOR   counter-burst rate factor (default 4.0)\n"
        "  --idle FRACTION  idle-phase worker fraction (default 0.5)\n"
        "  --resolution R   also print whole-span interval statistics\n"
        "                   at resolution R: exact, budget:<time-units>\n"
        "                   or pixels:<columns>\n",
        argv0);
}

const char *
kindName(aftermath::stats::AnomalyKind kind)
{
    switch (kind) {
      case aftermath::stats::AnomalyKind::IdlePhase:
        return "idle ";
      case aftermath::stats::AnomalyKind::DurationOutlier:
        return "outlier";
      case aftermath::stats::AnomalyKind::CounterBurst:
        return "burst";
    }
    return "?";
}

void
printFindings(const std::vector<aftermath::stats::Anomaly> &findings)
{
    if (findings.empty()) {
        std::printf("no anomalies found\n");
        return;
    }
    for (const aftermath::stats::Anomaly &a : findings) {
        std::printf("%5.3f  %-7s  [%llu, %llu)  %s\n", a.severity,
                    kindName(a.kind),
                    static_cast<unsigned long long>(a.interval.start),
                    static_cast<unsigned long long>(a.interval.end),
                    a.description.c_str());
    }
}

/** Parse "exact", "budget:<ns>" or "pixels:<w>"; exits on garbage. */
aftermath::Resolution
parseResolution(const char *arg, const char *argv0)
{
    using aftermath::Resolution;
    if (std::strcmp(arg, "exact") == 0)
        return Resolution::exact();
    if (std::strncmp(arg, "budget:", 7) == 0) {
        char *end = nullptr;
        unsigned long long ns = std::strtoull(arg + 7, &end, 10);
        if (end != arg + 7 && *end == '\0')
            return Resolution::budget(ns);
    } else if (std::strncmp(arg, "pixels:", 7) == 0) {
        char *end = nullptr;
        unsigned long long w = std::strtoull(arg + 7, &end, 10);
        if (end != arg + 7 && *end == '\0' && w <= 0xffffffffull)
            return Resolution::pixels(static_cast<std::uint32_t>(w));
    }
    std::fprintf(stderr, "bad --resolution value: %s\n", arg);
    usage(argv0);
    std::exit(2);
}

void
printIntervalStats(const aftermath::stats::IntervalStats &stats)
{
    std::printf("interval stats over [%llu, %llu):\n",
                static_cast<unsigned long long>(stats.interval.start),
                static_cast<unsigned long long>(stats.interval.end));
    for (const auto &[state, time] : stats.timeInState)
        std::printf("  state %2u: %llu (%.1f%%)\n", state,
                    static_cast<unsigned long long>(time),
                    100.0 * stats.stateFraction(state));
    std::printf("  tasks started %llu, overlapping %llu\n",
                static_cast<unsigned long long>(stats.tasksStarted),
                static_cast<unsigned long long>(stats.tasksOverlapping));
    std::printf("  resolution: %s, granularity %llu, %llu pyramid "
                "cells\n",
                stats.resolution.exact ? "exact" : "approximate",
                static_cast<unsigned long long>(
                    stats.resolution.granularityNs),
                static_cast<unsigned long long>(
                    stats.resolution.nodesTouched));
}

} // namespace

int
main(int argc, char **argv)
{
    std::string trace_path;
    std::string socket_path;
    bool want_stats = false;
    aftermath::Resolution resolution;
    aftermath::stats::AnomalyScanOptions options;

    for (int i = 1; i < argc; i++) {
        auto needValue = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--trace") == 0) {
            trace_path = needValue("--trace");
        } else if (std::strcmp(argv[i], "--socket") == 0) {
            socket_path = needValue("--socket");
        } else if (std::strcmp(argv[i], "--max-per-kind") == 0) {
            options.maxPerKind = static_cast<std::size_t>(
                std::strtoul(needValue("--max-per-kind"), nullptr, 10));
        } else if (std::strcmp(argv[i], "--z") == 0) {
            options.durationZScore = std::strtod(needValue("--z"), nullptr);
        } else if (std::strcmp(argv[i], "--burst") == 0) {
            options.burstFactor =
                std::strtod(needValue("--burst"), nullptr);
        } else if (std::strcmp(argv[i], "--idle") == 0) {
            options.idleWorkerFraction =
                std::strtod(needValue("--idle"), nullptr);
        } else if (std::strcmp(argv[i], "--resolution") == 0) {
            want_stats = true;
            resolution =
                parseResolution(needValue("--resolution"), argv[0]);
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (trace_path.empty()) {
        usage(argv[0]);
        return 2;
    }

    if (!socket_path.empty()) {
        aftermath::daemon::Client client;
        std::string error;
        if (!client.connectUnix(socket_path, error)) {
            std::fprintf(stderr, "aftermath-scan: %s\n", error.c_str());
            return 1;
        }
        aftermath::daemon::OpenTraceRequest open;
        open.path = trace_path;
        auto opened = client.openTrace(open);
        if (!opened.ok()) {
            std::fprintf(stderr, "aftermath-scan: open failed: %s\n",
                         opened.message.c_str());
            return 1;
        }
        aftermath::daemon::AnomalyScanRequest request;
        request.head.traceId = opened.value.traceId;
        request.options = options;
        auto reply = client.anomalyScan(request);
        if (!reply.ok()) {
            std::fprintf(stderr, "aftermath-scan: scan failed: %s\n",
                         reply.message.c_str());
            return 1;
        }
        printFindings(reply.value);
        if (want_stats) {
            aftermath::daemon::IntervalStatsRequest stats_request;
            stats_request.head.traceId = opened.value.traceId;
            stats_request.interval = opened.value.span;
            stats_request.resolution = resolution;
            auto stats = client.intervalStats(stats_request);
            if (!stats.ok()) {
                std::fprintf(stderr, "aftermath-scan: stats failed: %s\n",
                             stats.message.c_str());
                return 1;
            }
            printIntervalStats(stats.value);
        }
        client.closeTrace(opened.value.traceId);
        return 0;
    }

    aftermath::trace::ReadResult read =
        aftermath::trace::readTraceFile(trace_path);
    if (!read.ok) {
        std::fprintf(stderr, "aftermath-scan: %s\n", read.error.c_str());
        return 1;
    }
    aftermath::session::Session session =
        aftermath::session::Session::view(read.trace);
    std::printf("%s: %u cpus, %zu task instances\n", trace_path.c_str(),
                read.trace.numCpus(), read.trace.taskInstances().size());
    printFindings(session.scanForAnomalies(options));
    if (want_stats) {
        aftermath::session::IntervalStatsQuery query{
            {session.trace().span(),
             aftermath::session::QueryPriority::Interactive, resolution}};
        printIntervalStats(session.submit(query).take());
    }
    return 0;
}
