/**
 * @file
 * e2e_session: the scripted analyst-session benchmark.
 *
 *   e2e_session generate   --workload W --seed N --out FILE
 *   e2e_session first-open --workload W --input FILE
 *   e2e_session run        --workload W --input FILE --seed N
 *                          --seconds S --trace 0|1 [--spans FILE]
 *
 * `generate` writes the workload's input trace. `first-open` times
 * one process's first open of it through to the first 1920-px frame
 * (run.py runs several fresh processes for setup_s).
 * `run` replays the closed-loop session and prints the report; its
 * last stdout line is one JSON object. Workloads: ingest-seidel,
 * drill-exact, serve-overview (see README.md).
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "bench.h"
#include "trace/writer.h"

using namespace e2e;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: e2e_session generate --workload W --seed N "
                 "--out F\n"
                 "       e2e_session first-open --workload W --input F\n"
                 "       e2e_session run --workload W --input F --seed N "
                 "--seconds S --trace 0|1 [--spans F]\n");
    return 2;
}

bool
knownWorkload(const std::string &w)
{
    return w == "ingest-seidel" || w == "drill-exact" ||
           w == "serve-overview";
}

int
generate(const std::string &workload, std::uint64_t seed,
         const std::string &out)
{
    trace::Trace tr = workload == "ingest-seidel"
                          ? makeSeidelTrace(seed)
                          : makeSyntheticTrace(seed);
    std::string error;
    if (!trace::writeTraceFile(tr, out, trace::Encoding::Compact, error)) {
        std::fprintf(stderr, "cannot write %s: %s\n", out.c_str(),
                     error.c_str());
        return 1;
    }
    std::printf("{\"cpus\": %u, \"events\": %llu}\n", tr.numCpus(),
                static_cast<unsigned long long>(countEvents(tr)));
    return 0;
}

int
firstOpen(const std::string &workload, const std::string &input)
{
    Tracer off;
    std::string error;
    double seconds = 0;
    std::uint64_t frame_hash = 0;
    if (workload == "serve-overview") {
        daemon::Server server(daemon::Server::Options{kWorkers, 16});
        daemon::Client client;
        if (!client.adopt(server.connectInProcess(), error)) {
            std::fprintf(stderr, "connect failed: %s\n", error.c_str());
            return 1;
        }
        RemoteOpen open;
        if (!openRemote(client, input, off, open, error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 1;
        }
        seconds = open.total;
        frame_hash = hashFrame(open.frame.fb, open.frame.stats);
    } else {
        LocalOpen open;
        if (!openLocal(input, off, open, error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 1;
        }
        seconds = open.total;
        frame_hash = hashFrame(open.frame, open.frameStats);
    }
    std::printf("{\"setup_s\": %.17g, \"frame_hash\": \"%016llx\"}\n",
                seconds, static_cast<unsigned long long>(frame_hash));
    return 0;
}

int
run(const std::string &workload, const RunArgs &args)
{
    Report report;
    Measured measured;
    Tracer tracer; // Steps record into the workload's own tracer.
    if (workload == "ingest-seidel")
        runIngestSeidel(args, report, measured, tracer);
    else if (workload == "drill-exact")
        runDrillExact(args, report, measured, tracer);
    else
        runServeOverview(args, report, measured, tracer);
    reportMeasured(args, measured, tracer, report);
    report.print();
    return report.correct() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string mode = argv[1];
    std::map<std::string, std::string> opts;
    for (int i = 2; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            return usage();
        opts[argv[i] + 2] = argv[i + 1];
    }
    if ((argc - 2) % 2 != 0)
        return usage();
    std::string workload = opts["workload"];
    if (!knownWorkload(workload)) {
        std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
        return usage();
    }
    try {
        if (mode == "generate" && opts.count("out"))
            return generate(workload, std::stoull(opts["seed"]),
                            opts["out"]);
        if (mode == "first-open" && opts.count("input"))
            return firstOpen(workload, opts["input"]);
        if (mode == "run" && opts.count("input")) {
            RunArgs args;
            args.workload = workload;
            args.input = opts["input"];
            args.seed = std::stoull(opts["seed"]);
            args.seconds = std::stod(opts["seconds"]);
            args.trace = opts["trace"] == "1";
            args.spansPath = opts["spans"];
            return run(workload, args);
        }
    } catch (const std::exception &e) { // stoull/stod on bad numbers.
        std::fprintf(stderr, "bad argument: %s\n", e.what());
    }
    return usage();
}
