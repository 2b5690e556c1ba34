/**
 * @file
 * Session facade: lazy, memoized counter indexes vs per-query rebuild.
 *
 * The facade builds the per-(CPU, counter) min/max search tree once and
 * serves every later extrema query from it; without the session each
 * consumer pays the O(n) index construction (or a raw rescan) per
 * query — the coupling this PR removes. This bench measures repeated
 * interval queries through Session (cached) against rebuilding the
 * index per query (uncached) and requires a >= 5x speedup.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "common.h"

using namespace aftermath;

namespace {

constexpr CounterId kCounter = 0;
constexpr int kCpus = 4;
constexpr int kSamplesPerCpu = 400'000;
constexpr int kQueries = 256;

trace::Trace g_trace;
std::unique_ptr<session::Session> g_session;

void
buildTrace()
{
    Rng rng(77);
    g_trace.setTopology(trace::MachineTopology::uniform(1, kCpus));
    g_trace.addCounterDescription({kCounter, "dense_counter"});
    for (CpuId c = 0; c < kCpus; c++) {
        TimeStamp t = 0;
        std::int64_t v = 0;
        for (int i = 0; i < kSamplesPerCpu; i++) {
            t += 1 + rng.nextBounded(4);
            v += static_cast<std::int64_t>(rng.nextBounded(201)) - 100;
            g_trace.cpu(c).addCounterSample(kCounter, {t, v});
        }
    }
    std::string err;
    if (!g_trace.finalize(err)) {
        std::fprintf(stderr, "finalize failed: %s\n", err.c_str());
        std::exit(1);
    }
    g_session = std::make_unique<session::Session>(
        session::Session::view(g_trace));
}

TimeInterval
randomInterval(Rng &rng, TimeStamp max_t)
{
    TimeStamp a = rng.nextBounded(max_t / 2);
    return {a, a + 1 + rng.nextBounded(max_t / 2)};
}

/** Cached path: every query goes through the session's index store. */
std::int64_t
runCached(session::Session &session)
{
    Rng rng(5);
    TimeStamp max_t = g_trace.span().end;
    std::int64_t acc = 0;
    for (int q = 0; q < kQueries; q++) {
        CpuId cpu = static_cast<CpuId>(q % kCpus);
        index::MinMax mm = session.counterExtrema(
            cpu, kCounter, randomInterval(rng, max_t));
        if (mm.valid)
            acc += mm.max - mm.min;
    }
    return acc;
}

/** Uncached path: the index is rebuilt for every query. */
std::int64_t
runUncached()
{
    Rng rng(5);
    TimeStamp max_t = g_trace.span().end;
    std::int64_t acc = 0;
    for (int q = 0; q < kQueries; q++) {
        CpuId cpu = static_cast<CpuId>(q % kCpus);
        index::CounterIndex index(
            g_trace.cpu(cpu).counterSamples(kCounter));
        index::MinMax mm = index.query(randomInterval(rng, max_t));
        if (mm.valid)
            acc += mm.max - mm.min;
    }
    return acc;
}

void
BM_SessionCachedExtrema(benchmark::State &state)
{
    session::Session session = session::Session::view(g_trace);
    for (auto _ : state)
        benchmark::DoNotOptimize(runCached(session));
}

void
BM_UncachedRebuildExtrema(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(runUncached());
}

BENCHMARK(BM_SessionCachedExtrema);
BENCHMARK(BM_UncachedRebuildExtrema)->Iterations(3);

double
secondsOf(std::int64_t &acc, std::int64_t (*fn)())
{
    auto start = std::chrono::steady_clock::now();
    acc = fn();
    std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - start;
    return d.count();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("Section VII (this repo)",
                  "session facade: cached vs rebuilt counter indexes");
    bench::JsonLines json("sec7_session_cache");
    buildTrace();

    // Warm the session cache outside the timed region — the facade's
    // contract is that the build cost is paid once, not per query.
    std::int64_t warm = runCached(*g_session);

    std::int64_t cached_acc = 0, uncached_acc = 0;
    auto cached_fn = +[] { return runCached(*g_session); };
    double cached_s = secondsOf(cached_acc, cached_fn);
    double uncached_s = secondsOf(uncached_acc, runUncached);
    double speedup = cached_s > 0 ? uncached_s / cached_s : 0;

    bool correct = cached_acc == uncached_acc && cached_acc == warm;
    bool fast = speedup >= 5.0;

    json.add("cached_time", cached_s, "s");
    json.add("uncached_time", uncached_s, "s");
    json.add("speedup", speedup, "x");
    json.add("identical", correct ? 1 : 0);
    json.add("index_builds",
             static_cast<double>(
                 g_session->cacheStats().counterIndex.builds));
    // The fraction of index queries answered without a rebuild: the
    // facade's whole point, gated in CI against bench/baselines/.
    session::CacheCounters index_counters =
        g_session->cacheStats().counterIndex;
    double hit_ratio = index_counters.total() > 0
        ? static_cast<double>(index_counters.hits) /
              static_cast<double>(index_counters.total())
        : 0.0;
    json.add("cache_hit_ratio", hit_ratio);

    std::printf("\n");
    bench::row("queries per run",
               strFormat("%d over %d cpus x %d samples", kQueries, kCpus,
                         kSamplesPerCpu));
    bench::row("cached (session) time",
               strFormat("%.4f s", cached_s));
    bench::row("uncached (rebuild) time",
               strFormat("%.4f s", uncached_s));
    bench::row("speedup", strFormat("%.1fx (required: >= 5x)", speedup));
    bench::row("identical extrema", correct ? "yes" : "NO");
    bench::row("index builds",
               strFormat("%llu (one per cpu)",
                         static_cast<unsigned long long>(
                             g_session->cacheStats().counterIndex
                                 .builds)));
    bench::row("json", json.ok() ? json.path().c_str() : "WRITE FAILED");

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return correct && fast ? 0 : 1;
}
