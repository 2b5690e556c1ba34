#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "base/rng.h"
#include "bench.h"
#include "machine/machine_spec.h"
#include "runtime/runtime_system.h"
#include "trace/state.h"
#include "workloads/seidel.h"

namespace e2e {

trace::Trace
makeSeidelTrace(std::uint64_t seed)
{
    // The reduced-scale seidel configuration of the figure benches
    // (UV2000-like machine, random work stealing, first-touch
    // placement); the seed varies the scheduler and duration noise.
    runtime::RuntimeConfig config;
    config.machine = machine::MachineSpec::uv2000();
    config.scheduling = runtime::SchedulingPolicy::RandomSteal;
    config.placement = machine::PlacementPolicy::FirstTouch;
    config.seed = seed;
    config.cost.cyclesPerWorkUnit = 1.0;
    config.cost.cyclesPerByteLocal = 0.5;
    config.cost.pageFaultCycles = 90'000;
    config.cost.taskCreationCycles = 900;
    config.cost.durationNoise = 0.03;

    workloads::SeidelParams params;
    params.blocksX = 64;
    params.blocksY = 64;
    params.blockDim = 128;
    params.iterations = 30;
    params.workPerElement = 1;
    params.numNodes = config.machine.topology.numNodes();

    runtime::RuntimeSystem rts(config);
    runtime::RunResult result = rts.run(workloads::buildSeidel(params));
    if (!result.ok) {
        std::fprintf(stderr, "seidel simulation failed: %s\n",
                     result.error.c_str());
        std::exit(1);
    }
    return std::move(result.trace);
}

trace::Trace
makeSyntheticTrace(std::uint64_t seed)
{
    constexpr std::uint32_t kNodes = 2;
    constexpr std::uint32_t kCpusPerNode = 12;
    constexpr std::uint32_t kCpus = kNodes * kCpusPerNode;
    constexpr int kStatesPerCpu = 100'000;
    constexpr TaskTypeId kTypes[] = {0x1000, 0x2000, 0x3000, 0x4000};
    constexpr double kTypeCycles[] = {400, 1200, 3200, 10400};

    Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(kNodes, kCpusPerNode));
    tr.setCpuFreqHz(2'400'000'000);
    for (const auto &desc : trace::coreStateDescriptions())
        tr.addStateDescription(desc);
    tr.addCounterDescription({0, "cycles"});
    tr.addCounterDescription({1, "cache_misses"});
    for (std::size_t i = 0; i < std::size(kTypes); i++)
        tr.addTaskType({kTypes[i], "kernel_" + std::to_string(i)});

    // Every lane ends with idle time up to kSpanEnd: 97% of 4095
    // pyramid leaves of 2^16 cycles. The leaf granularity is then 2^16
    // whatever the seed, and a Pixels(1920) view of at least 48% of the
    // span is answered by the pyramids. Mean state length is ~2400
    // cycles, so lanes run to ~2.4e8 before the padding.
    constexpr TimeStamp kSpanEnd = 4095ull * 65536 * 97 / 100;
    constexpr TimeStamp kLaneEnd = 240'000'000;

    // Anomalies for the scanner to rank, placed by the seed: an idle
    // phase on two thirds of the CPUs and a cache-miss burst on one.
    const TimeStamp idle_at = kLaneEnd / 4 + rng.nextBounded(kLaneEnd / 2);
    const TimeStamp idle_len = kLaneEnd / 50;
    const CpuId burst_cpu = static_cast<CpuId>(rng.nextBounded(kCpus));
    const TimeStamp burst_at = kLaneEnd / 4 + rng.nextBounded(kLaneEnd / 2);

    const auto exec =
        static_cast<std::uint32_t>(trace::CoreState::TaskExec);
    const auto create =
        static_cast<std::uint32_t>(trace::CoreState::TaskCreation);
    const auto idle = static_cast<std::uint32_t>(trace::CoreState::Idle);
    const auto sync =
        static_cast<std::uint32_t>(trace::CoreState::Synchronization);

    TaskInstanceId next_task = 0;
    for (CpuId c = 0; c < kCpus; c++) {
        trace::CpuTimeline &lane = tr.cpu(c);
        TimeStamp t = rng.nextBounded(64);
        std::int64_t cycles = 0;
        std::int64_t misses = 0;
        bool idled = c >= kCpus * 2 / 3;
        for (int i = 0; i < kStatesPerCpu; i++) {
            if (!idled && t >= idle_at) {
                lane.addState(
                    {{t, t + idle_len}, idle, kInvalidTaskInstance});
                t += idle_len;
                idled = true;
                continue;
            }
            double pick = rng.nextDouble();
            TimeStamp len;
            if (pick < 0.6) {
                std::size_t type = rng.nextBounded(std::size(kTypes));
                double scale = 0.5 + rng.nextDouble();
                if (rng.nextBool(0.0002))
                    scale *= 25; // A slow outlier.
                len = 1 + static_cast<TimeStamp>(kTypeCycles[type] * scale);
                TaskInstanceId task = next_task++;
                tr.addTaskInstance({task, kTypes[type], c, {t, t + len}});
                lane.addState({{t, t + len}, exec, task});
                cycles += static_cast<std::int64_t>(len);
                bool burst = c == burst_cpu && t >= burst_at &&
                             t < burst_at + kLaneEnd / 100;
                misses += static_cast<std::int64_t>(
                    rng.nextBounded(burst ? 4000 : 200));
                if (task % 4 == 0) { // Sampled at every fourth task.
                    lane.addCounterSample(0, {t, cycles});
                    lane.addCounterSample(1, {t, misses});
                }
            } else if (pick < 0.75) {
                len = 50 + rng.nextBounded(100);
                lane.addState({{t, t + len}, create, kInvalidTaskInstance});
            } else if (pick < 0.95) {
                len = 20 + rng.nextBounded(500);
                lane.addState({{t, t + len}, idle, kInvalidTaskInstance});
            } else {
                len = 100 + rng.nextBounded(900);
                lane.addState({{t, t + len}, sync, kInvalidTaskInstance});
            }
            t += len;
        }
        if (t >= kSpanEnd) {
            std::fprintf(stderr, "synthetic lane overran its span\n");
            std::exit(1);
        }
        lane.addState({{t, kSpanEnd}, idle, kInvalidTaskInstance});
    }
    std::string error;
    if (!tr.finalize(error)) {
        std::fprintf(stderr, "synthetic trace invalid: %s\n",
                     error.c_str());
        std::exit(1);
    }
    return tr;
}

} // namespace e2e
