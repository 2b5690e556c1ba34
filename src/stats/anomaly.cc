#include "stats/anomaly.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <map>

#include "base/string_util.h"
#include "filter/task_filter.h"
#include "trace/state.h"

namespace aftermath {
namespace stats {

namespace {

/** [start, end] widened by @p half each side, saturating-clamped to
 *  @p scan. Naive widening would wrap below zero at the scan start and
 *  spill past the scan end; a phase never extends beyond the window it
 *  was detected in. */
TimeInterval
widenClamped(TimeStamp start, TimeStamp end, TimeStamp half,
             const TimeInterval &scan)
{
    TimeInterval out;
    out.start = (start >= scan.start + half) ? start - half : scan.start;
    out.end = (scan.end - end >= half) ? end + half : scan.end;
    return out;
}

AnomalyChunkResult
runIdleChunk(const trace::Trace &trace, CpuId cpu,
             const AnomalyScanOptions &options,
             const TimeInterval &scan)
{
    AnomalyChunkResult out;
    out.idleTime.assign(options.numIntervals, 0);
    const trace::CpuTimeline &timeline = trace.cpu(cpu);
    for (std::uint32_t i = 0; i < options.numIntervals; i++) {
        TimeInterval iv = subInterval(scan, i, options.numIntervals);
        if (iv.empty())
            continue;
        out.idleTime[i] = timeline.timeInState(
            static_cast<std::uint32_t>(trace::CoreState::Idle), iv);
    }
    return out;
}

/**
 * Keep the accepted tasks of @p durations at least as long as its
 * @p keep-th longest, moving the longest duration of the others into
 * its longestDropped. Returns the shortest duration kept.
 */
TimeStamp
keepLongest(TypeDurations &durations, std::size_t keep)
{
    std::vector<OutlierCandidate> &longest = durations.longest;
    auto longer = [](const OutlierCandidate &a, const OutlierCandidate &b) {
        return a.duration > b.duration;
    };
    std::nth_element(longest.begin(), longest.begin() + (keep - 1),
                     longest.end(), longer);
    const TimeStamp floor = longest[keep - 1].duration;
    for (const OutlierCandidate &c : longest)
        if (c.duration < floor)
            durations.drop(c.duration);
    std::erase_if(longest, [&](const OutlierCandidate &c) {
        return c.duration < floor;
    });
    return floor;
}

/**
 * The outlier chunk over candidates [@p first, @p last): per described
 * task type, the moments of the accepted durations and the tasks at
 * least as long as the @p keep-th longest.
 */
AnomalyChunkResult
runOutlierChunk(const trace::Trace &trace, TaskCandidates candidates,
                std::size_t first, std::size_t last, std::size_t keep,
                const TimeInterval &scan, const filter::FilterSet *filters)
{
    // One slot per described type, in ascending type order; a task of
    // an undescribed type has no slot and is skipped. A slot holds no
    // task shorter than its floor, and prunes down to the keep longest
    // (and their ties) whenever it holds 2 * keep + 64; in a chunk too
    // short to accept more than keep, it never does.
    std::vector<TypeDurations> slots;
    slots.reserve(trace.taskTypes().size());
    for (const auto &[type, info] : trace.taskTypes()) {
        (void)info;
        slots.emplace_back().type = type;
    }
    std::vector<TimeStamp> floors(slots.size(), 0);
    const std::size_t prune_at = keep < last - first
                                     ? 2 * keep + 64
                                     : std::numeric_limits<std::size_t>::max();
    auto byType = [](const TypeDurations &slot, TaskTypeId type) {
        return slot.type < type;
    };
    for (std::size_t i = first; i < last; i++) {
        const trace::TaskInstance &task = *candidates[i];
        if (!task.interval.overlaps(scan))
            continue;
        auto slot = std::lower_bound(slots.begin(), slots.end(), task.type,
                                     byType);
        if (slot == slots.end() || slot->type != task.type)
            continue;
        if (filters && !filters->matches(trace, task))
            continue;
        const TimeStamp d = task.duration();
        slot->moments.add(d);
        TimeStamp &floor = floors[slot - slots.begin()];
        if (keep == 0 || d < floor) {
            slot->drop(d);
            continue;
        }
        slot->longest.push_back({d, &task});
        if (slot->longest.size() >= prune_at)
            floor = keepLongest(*slot, keep);
    }
    AnomalyChunkResult out;
    for (TypeDurations &slot : slots) {
        if (slot.moments.count == 0)
            continue;
        if (slot.longest.size() > keep)
            keepLongest(slot, keep);
        out.durations.push_back(std::move(slot));
    }
    return out;
}

AnomalyChunkResult
runBurstChunk(const trace::Trace &trace, CpuId cpu, CounterId counter,
              const AnomalyScanOptions &options, const TimeInterval &scan)
{
    AnomalyChunkResult out;
    const auto &samples = trace.cpu(cpu).counterSamples(counter);

    // The in-window contiguous run of samples. A closed [start, end]
    // bound keeps the whole-span scan identical to an unrestricted one
    // (the last sample of a trace sits exactly at span().end).
    const std::size_t first = static_cast<std::size_t>(
        std::lower_bound(samples.begin(), samples.end(), scan.start,
                         [](const trace::CounterSample &s, TimeStamp t) {
                             return s.time < t;
                         }) -
        samples.begin());
    const std::size_t last = static_cast<std::size_t>(
        std::upper_bound(samples.begin() + first, samples.end(), scan.end,
                         [](TimeStamp t, const trace::CounterSample &s) {
                             return t < s.time;
                         }) -
        samples.begin());
    if (last - first < 3)
        return out;

    // Mean rate over the *increasing* segments only. Counter values are
    // signed and reset: a naive back-minus-front delta shrinks (or goes
    // negative) across each reset, deflating the mean rate and
    // manufacturing false bursts out of perfectly steady segments.
    // Deltas and their sums are 128-bit: the difference of two 64-bit
    // values, and the sum of many, can overflow 64 bits.
    auto delta = [&](std::size_t i) {
        return static_cast<__int128>(samples[i].value) - samples[i - 1].value;
    };
    __int128 total_dv = 0;
    unsigned __int128 total_dt = 0;
    for (std::size_t i = first + 1; i < last; i++) {
        const __int128 dv = delta(i);
        TimeStamp dt = samples[i].time - samples[i - 1].time;
        if (dt == 0 || dv <= 0)
            continue; // Resets and stalls carry no rate information.
        total_dv += dv;
        total_dt += dt;
    }
    if (total_dt == 0 || total_dv <= 0)
        return out;
    double mean_rate = static_cast<double>(total_dv) /
                       static_cast<double>(total_dt);

    auto it = trace.counters().find(counter);
    const char *name =
        it != trace.counters().end() ? it->second.c_str() : "?";
    for (std::size_t i = first + 1; i < last; i++) {
        const __int128 dv = delta(i);
        TimeStamp dt = samples[i].time - samples[i - 1].time;
        if (dt == 0 || dv <= 0)
            continue;
        double rate =
            static_cast<double>(dv) / static_cast<double>(dt);
        if (rate < options.burstFactor * mean_rate)
            continue;
        Anomaly a;
        a.kind = AnomalyKind::CounterBurst;
        a.interval = {samples[i - 1].time, samples[i].time};
        a.cpu = cpu;
        a.counter = counter;
        a.severity = rate / mean_rate;
        a.description =
            strFormat("cpu %u: %s rate %.1fx the run average", cpu,
                      name, a.severity);
        out.findings.push_back(std::move(a));
    }
    return out;
}

/** A 256-bit unsigned integer, least significant 64-bit limb first. */
using U256 = std::array<std::uint64_t, 4>;

/** @p a times @p b, given as limbs, least significant first. */
template <std::size_t A, std::size_t B>
U256
multiply(const std::array<std::uint64_t, A> &a,
         const std::array<std::uint64_t, B> &b)
{
    static_assert(A + B <= 4);
    U256 out{};
    for (std::size_t i = 0; i < A; i++) {
        std::uint64_t carry = 0;
        for (std::size_t j = 0; j < B; j++) {
            const unsigned __int128 t =
                static_cast<unsigned __int128>(a[i]) * b[j] + out[i + j] +
                carry;
            out[i + j] = static_cast<std::uint64_t>(t);
            carry = static_cast<std::uint64_t>(t >> 64);
        }
        out[i + B] = carry;
    }
    return out;
}

std::array<std::uint64_t, 2>
limbs(unsigned __int128 v)
{
    return {static_cast<std::uint64_t>(v), static_cast<std::uint64_t>(v >> 64)};
}

/** @p a - @p b, for a >= b. */
U256
subtract(const U256 &a, const U256 &b)
{
    U256 out{};
    std::uint64_t borrow = 0;
    for (std::size_t i = 0; i < 4; i++) {
        const std::uint64_t d = a[i] - b[i];
        out[i] = d - borrow;
        borrow = (a[i] < b[i]) || (d < borrow) ? 1 : 0;
    }
    return out;
}

/** @p v rounded to the nearest double (ties to even), as a cast does. */
double
toDouble(const U256 &v)
{
    int top = 3;
    while (top > 0 && v[top] == 0)
        top--;
    if (top == 0)
        return static_cast<double>(v[0]);
    // The 64 bits below the leading one, with a sticky bit for any
    // lower ones, round as the whole value does: a double keeps 53.
    const int shift = 64 * top - std::countl_zero(v[top]);
    const int word = shift / 64;
    const int bit = shift % 64;
    std::uint64_t head = v[word] >> bit;
    if (bit > 0)
        head |= v[word + 1] << (64 - bit);
    bool sticky = bit > 0 && (v[word] << (64 - bit)) != 0;
    for (int i = 0; i < word; i++)
        sticky = sticky || v[i] != 0;
    return std::ldexp(static_cast<double>(head | (sticky ? 1 : 0)), shift);
}

double
toDouble(unsigned __int128 v)
{
    const std::array<std::uint64_t, 2> l = limbs(v);
    return toDouble(U256{l[0], l[1], 0, 0});
}

/**
 * The duration outliers of one task type, appended to @p out: every
 * accepted task whose z(d) = double(n*d - S1) / sqrt(double(n*S2 -
 * S1^2)) under the type's summed moments is not below the threshold;
 * none with fewer than 10 tasks or no spread. @p parts are the type's
 * entries of the outlier chunks, by chunk index, and
 * @p rescan(chunk, type) reruns a chunk keeping every task of the type
 * it accepts.
 */
template <typename Rescan>
void
scoreType(const trace::Trace &trace,
          const std::vector<std::pair<std::size_t, const TypeDurations *>>
              &parts,
          const AnomalyScanOptions &options, Rescan rescan,
          std::vector<Anomaly> &out)
{
    DurationMoments m;
    for (const auto &[chunk, part] : parts)
        m.add(part->moments);
    if (m.count < 10)
        return; // Too few samples for a meaningful z-score.
    const std::array<std::uint64_t, 2> s2_low = limbs(m.sumSquaresLow);
    const U256 n_s2 = multiply(std::array<std::uint64_t, 1>{m.count},
                               std::array<std::uint64_t, 3>{
                                   s2_low[0], s2_low[1], m.sumSquaresHigh});
    const U256 s1_s1 = multiply(limbs(m.sum), limbs(m.sum));
    if (n_s2 == s1_s1)
        return; // Every duration equal: nothing stands out.
    const double spread = std::sqrt(toDouble(subtract(n_s2, s1_s1)));
    auto z = [&](TimeStamp d) {
        const unsigned __int128 nd =
            static_cast<unsigned __int128>(m.count) * d;
        return (nd >= m.sum ? toDouble(nd - m.sum)
                            : -toDouble(m.sum - nd)) /
               spread;
    };

    // z never falls as d rises: find the least d it keeps.
    const double threshold = options.durationZScore;
    TimeStamp low = 0, high = std::numeric_limits<TimeStamp>::max();
    if (z(high) < threshold)
        return;
    while (low < high) {
        const TimeStamp mid = low + (high - low) / 2;
        if (z(mid) < threshold)
            low = mid + 1;
        else
            high = mid;
    }

    const TaskTypeId type = parts.front().second->type;
    auto it = trace.taskTypes().find(type);
    const char *name =
        it != trace.taskTypes().end() ? it->second.name.c_str() : "?";
    for (const auto &[chunk, part] : parts) {
        // A chunk keeps its maxPerKind longest tasks (and their ties).
        // A task it dropped that is an outlier still ranks below all of
        // them, and so cannot make the cut, unless rounding gave a kept
        // duration the z of a dropped one; then that chunk reruns
        // keeping every task.
        const TypeDurations *kept = part;
        TypeDurations all;
        if (part->dropped && part->longestDropped >= low &&
            !part->longest.empty()) {
            TimeStamp shortest = part->longest.front().duration;
            for (const OutlierCandidate &c : part->longest)
                shortest = std::min(shortest, c.duration);
            if (!(z(shortest) > z(part->longestDropped))) {
                all = rescan(chunk, type);
                kept = &all;
            }
        }
        for (const OutlierCandidate &c : kept->longest) {
            if (c.duration < low)
                continue;
            const trace::TaskInstance &task = *c.task;
            Anomaly a;
            a.kind = AnomalyKind::DurationOutlier;
            a.interval = task.interval;
            a.cpu = task.cpu;
            a.task = task.id;
            a.severity = z(c.duration);
            a.description = strFormat(
                "task %llu (%s) ran %s, %.1f sigma above its type mean",
                static_cast<unsigned long long>(task.id), name,
                humanCycles(c.duration).c_str(), a.severity);
            out.push_back(std::move(a));
        }
    }
}

/**
 * Sort one kind's raw findings, cap at maxPerKind (keeping the most
 * severe), normalize severities so the kind's top finding scores 1.0,
 * and append to @p out.
 */
void
finishKind(std::vector<Anomaly> findings,
           const AnomalyScanOptions &options, std::vector<Anomaly> &out)
{
    std::sort(findings.begin(), findings.end(), anomalyRankedBefore);
    if (findings.size() > options.maxPerKind)
        findings.resize(options.maxPerKind);
    if (!findings.empty() && findings.front().severity > 0) {
        double top = findings.front().severity;
        for (Anomaly &a : findings)
            a.severity /= top;
    }
    out.insert(out.end(), std::make_move_iterator(findings.begin()),
               std::make_move_iterator(findings.end()));
}

} // namespace

bool
anomalyRankedBefore(const Anomaly &a, const Anomaly &b)
{
    if (a.severity != b.severity)
        return a.severity > b.severity;
    if (a.kind != b.kind)
        return a.kind < b.kind;
    if (a.interval.start != b.interval.start)
        return a.interval.start < b.interval.start;
    if (a.interval.end != b.interval.end)
        return a.interval.end < b.interval.end;
    if (a.cpu != b.cpu)
        return a.cpu < b.cpu;
    if (a.task != b.task)
        return a.task < b.task;
    return a.counter < b.counter;
}

void
DurationMoments::add(TimeStamp duration)
{
    count++;
    sum += duration;
    const unsigned __int128 square =
        static_cast<unsigned __int128>(duration) * duration;
    sumSquaresLow += square;
    sumSquaresHigh += sumSquaresLow < square ? 1 : 0;
}

void
TypeDurations::drop(TimeStamp duration)
{
    longestDropped = dropped ? std::max(longestDropped, duration) : duration;
    dropped = true;
}

void
DurationMoments::add(const DurationMoments &other)
{
    count += other.count;
    sum += other.sum;
    sumSquaresLow += other.sumSquaresLow;
    sumSquaresHigh += other.sumSquaresHigh +
                      (sumSquaresLow < other.sumSquaresLow ? 1 : 0);
}

std::vector<AnomalyScanChunk>
anomalyScanChunks(const trace::Trace &trace, std::size_t candidates)
{
    std::vector<AnomalyScanChunk> chunks;
    for (CpuId c = 0; c < trace.numCpus(); c++) {
        AnomalyScanChunk chunk;
        chunk.family = AnomalyScanChunk::Family::Idle;
        chunk.cpu = c;
        chunks.push_back(chunk);
    }
    for (std::size_t first = 0; first < candidates;
         first += kOutlierChunkTasks) {
        AnomalyScanChunk chunk;
        chunk.family = AnomalyScanChunk::Family::Outlier;
        chunk.first = first;
        chunk.last = std::min(candidates - first, kOutlierChunkTasks) + first;
        chunks.push_back(chunk);
    }
    for (const auto &[counter, name] : trace.counters()) {
        (void)name;
        for (CpuId c = 0; c < trace.numCpus(); c++) {
            // A pair that never reaches three samples cannot burst in
            // any window; skip it so fan-out stays proportional to the
            // sampled pairs.
            if (trace.cpu(c).counterSamples(counter).size() < 3)
                continue;
            AnomalyScanChunk chunk;
            chunk.family = AnomalyScanChunk::Family::Burst;
            chunk.cpu = c;
            chunk.counter = counter;
            chunks.push_back(chunk);
        }
    }
    return chunks;
}

AnomalyChunkResult
runAnomalyChunk(const trace::Trace &trace, const AnomalyScanChunk &chunk,
                TaskCandidates candidates,
                const AnomalyScanOptions &options,
                const TimeInterval &scan_interval,
                const filter::FilterSet *filters)
{
    switch (chunk.family) {
    case AnomalyScanChunk::Family::Idle:
        return runIdleChunk(trace, chunk.cpu, options, scan_interval);
    case AnomalyScanChunk::Family::Outlier:
        return runOutlierChunk(trace, candidates, chunk.first,
                               std::min(chunk.last, candidates.size()),
                               options.maxPerKind, scan_interval, filters);
    case AnomalyScanChunk::Family::Burst:
        break;
    }
    return runBurstChunk(trace, chunk.cpu, chunk.counter, options,
                         scan_interval);
}

std::vector<Anomaly>
mergeAnomalyChunks(const trace::Trace &trace,
                   const std::vector<AnomalyScanChunk> &chunks,
                   std::vector<AnomalyChunkResult> partials,
                   TaskCandidates candidates,
                   const AnomalyScanOptions &options,
                   const TimeInterval &scan_interval,
                   const filter::FilterSet *filters)
{
    // Partials combine in chunk order: idle totals and duration moments
    // sum exactly, kept tasks and burst findings concatenate. Nothing
    // depends on which worker computed which chunk.
    std::vector<TimeStamp> idle_totals(options.numIntervals, 0);
    std::map<TaskTypeId,
             std::vector<std::pair<std::size_t, const TypeDurations *>>>
        types;
    std::vector<Anomaly> outliers, bursts;
    for (std::size_t i = 0; i < chunks.size() && i < partials.size();
         i++) {
        AnomalyChunkResult &partial = partials[i];
        switch (chunks[i].family) {
        case AnomalyScanChunk::Family::Idle:
            for (std::size_t j = 0;
                 j < partial.idleTime.size() && j < idle_totals.size();
                 j++)
                idle_totals[j] += partial.idleTime[j];
            break;
        case AnomalyScanChunk::Family::Outlier:
            for (const TypeDurations &durations : partial.durations)
                types[durations.type].emplace_back(i, &durations);
            break;
        case AnomalyScanChunk::Family::Burst:
            bursts.insert(
                bursts.end(),
                std::make_move_iterator(partial.findings.begin()),
                std::make_move_iterator(partial.findings.end()));
            break;
        }
    }

    // Merge consecutive above-threshold sub-intervals into phases.
    std::vector<Anomaly> phases;
    double threshold = options.idleWorkerFraction *
                       static_cast<double>(trace.numCpus());
    TimeStamp width = scan_interval.duration() / options.numIntervals;
    std::uint32_t i = 0;
    while (i < options.numIntervals) {
        TimeInterval iv = subInterval(scan_interval, i,
                                      options.numIntervals);
        double value = iv.empty()
            ? 0.0
            : static_cast<double>(idle_totals[i]) /
                  static_cast<double>(iv.duration());
        if (iv.empty() || value < threshold) {
            i++;
            continue;
        }
        std::uint32_t begin = i;
        double peak = 0.0;
        TimeStamp phase_end = iv.end;
        while (i < options.numIntervals) {
            TimeInterval sub = subInterval(scan_interval, i,
                                           options.numIntervals);
            if (sub.empty())
                break;
            double v = static_cast<double>(idle_totals[i]) /
                       static_cast<double>(sub.duration());
            if (v < threshold)
                break;
            peak = std::max(peak, v);
            phase_end = sub.end;
            i++;
        }
        Anomaly a;
        a.kind = AnomalyKind::IdlePhase;
        a.interval = widenClamped(
            subInterval(scan_interval, begin, options.numIntervals)
                .start,
            phase_end, width / 2, scan_interval);
        a.severity = peak / static_cast<double>(trace.numCpus());
        a.description = strFormat(
            "idle phase: up to %.0f of %u workers idle for %s", peak,
            trace.numCpus(), humanCycles(a.interval.duration()).c_str());
        phases.push_back(std::move(a));
    }

    auto rescan = [&](std::size_t chunk, TaskTypeId type) {
        AnomalyChunkResult all = runOutlierChunk(
            trace, candidates, chunks[chunk].first,
            std::min(chunks[chunk].last, candidates.size()),
            std::numeric_limits<std::size_t>::max(), scan_interval,
            filters);
        for (TypeDurations &durations : all.durations)
            if (durations.type == type)
                return std::move(durations);
        return TypeDurations();
    };
    for (const auto &[type, parts] : types)
        scoreType(trace, parts, options, rescan, outliers);

    std::vector<Anomaly> out;
    finishKind(std::move(phases), options, out);
    finishKind(std::move(outliers), options, out);
    finishKind(std::move(bursts), options, out);
    std::sort(out.begin(), out.end(), anomalyRankedBefore);
    return out;
}

std::vector<Anomaly>
scanForAnomalies(const trace::Trace &trace,
                 const AnomalyScanOptions &options,
                 const TimeInterval &scan_interval,
                 const filter::FilterSet *filters)
{
    if (scan_interval.empty() || options.numIntervals == 0)
        return {};
    std::vector<const trace::TaskInstance *> all;
    all.reserve(trace.taskInstances().size());
    for (const trace::TaskInstance &task : trace.taskInstances())
        all.push_back(&task);
    const TaskCandidates candidates(all);
    std::vector<AnomalyScanChunk> chunks =
        anomalyScanChunks(trace, candidates.size());
    std::vector<AnomalyChunkResult> partials;
    partials.reserve(chunks.size());
    for (const AnomalyScanChunk &chunk : chunks)
        partials.push_back(runAnomalyChunk(trace, chunk, candidates, options,
                                           scan_interval, filters));
    return mergeAnomalyChunks(trace, chunks, std::move(partials),
                              candidates, options, scan_interval, filters);
}

std::vector<Anomaly>
scanForAnomalies(const trace::Trace &trace,
                 const AnomalyScanOptions &options)
{
    return scanForAnomalies(trace, options, trace.span(), nullptr);
}

} // namespace stats
} // namespace aftermath
