#include "stats/export.h"

#include <fstream>

namespace aftermath {
namespace stats {

void
exportTaskCounterTsv(const std::vector<metrics::TaskCounterIncrease> &rows,
                     std::ostream &os)
{
    os << "task\ttype\tcpu\tduration_cycles\tincrease\tper_kcycle\n";
    for (const auto &row : rows) {
        os << row.task << '\t' << row.type << '\t' << row.cpu << '\t'
           << row.duration << '\t' << row.increase << '\t'
           << row.ratePerKcycle() << '\n';
    }
}

bool
exportTaskCounterTsvFile(
    const std::vector<metrics::TaskCounterIncrease> &rows,
    const std::string &path, std::string &error)
{
    std::ofstream os(path);
    if (!os) {
        error = "cannot open " + path + " for writing";
        return false;
    }
    exportTaskCounterTsv(rows, os);
    if (!os) {
        error = "write to " + path + " failed";
        return false;
    }
    return true;
}

// -- Binary wire serialization -------------------------------------------

namespace {

/**
 * Guard a decoded element count against the bytes actually present:
 * every element of the collections below occupies at least
 * @p min_bytes_per_element, so a count larger than remaining() /
 * min_bytes is structurally impossible — fail at the count instead of
 * attempting a gigantic allocation from garbage input.
 */
bool
plausibleCount(ByteReader &r, std::uint64_t count,
               std::size_t min_bytes_per_element)
{
    if (!r.ok())
        return false;
    if (count > r.remaining() / min_bytes_per_element) {
        r.markFailed();
        return false;
    }
    return true;
}

/** Resolution provenance: exact flag + cells read + granularity. */
void
writeResolutionInfo(const ResolutionInfo &info, ByteWriter &w)
{
    w.writeU8(info.exact ? 1 : 0);
    w.writeVarint(info.nodesTouched);
    w.writeVarint(info.granularityNs);
}

bool
readResolutionInfo(ByteReader &r, ResolutionInfo &out)
{
    std::uint8_t exact = r.readU8();
    if (exact > 1) {
        r.markFailed();
        return false;
    }
    out.exact = exact == 1;
    out.nodesTouched = r.readVarint();
    out.granularityNs = r.readVarint();
    return r.ok();
}

} // namespace

void
encodeIntervalStats(const IntervalStats &s, ByteWriter &w)
{
    w.writeU64(s.interval.start);
    w.writeU64(s.interval.end);
    w.writeVarint(s.timeInState.size());
    for (const auto &[state, time] : s.timeInState) {
        w.writeVarint(state);
        w.writeVarint(time);
    }
    w.writeVarint(s.tasksOverlapping);
    w.writeVarint(s.tasksStarted);
    writeResolutionInfo(s.resolution, w);
}

bool
decodeIntervalStats(ByteReader &r, IntervalStats &out)
{
    out = IntervalStats();
    out.interval.start = r.readU64();
    out.interval.end = r.readU64();
    std::uint64_t states = r.readVarint();
    if (!plausibleCount(r, states, 2))
        return false;
    for (std::uint64_t i = 0; i < states; i++) {
        std::uint32_t state = static_cast<std::uint32_t>(r.readVarint());
        TimeStamp time = r.readVarint();
        if (!r.ok())
            return false;
        out.timeInState.emplace(state, time);
    }
    out.tasksOverlapping = r.readVarint();
    out.tasksStarted = r.readVarint();
    return readResolutionInfo(r, out.resolution);
}

void
encodeHistogram(const Histogram &h, ByteWriter &w)
{
    w.writeDouble(h.rangeMin());
    w.writeDouble(h.rangeMax());
    w.writeVarint(h.numBins());
    for (std::uint32_t i = 0; i < h.numBins(); i++)
        w.writeVarint(h.count(i));
    writeResolutionInfo(h.resolution, w);
}

bool
decodeHistogram(ByteReader &r, Histogram &out)
{
    double min = r.readDouble();
    double max = r.readDouble();
    std::uint64_t bins = r.readVarint();
    if (!r.ok() || bins == 0) {
        r.markFailed();
        return false;
    }
    if (!plausibleCount(r, bins, 1))
        return false;
    std::vector<std::uint64_t> counts;
    counts.reserve(bins);
    for (std::uint64_t i = 0; i < bins; i++)
        counts.push_back(r.readVarint());
    if (!r.ok())
        return false;
    out = Histogram::fromBins(std::move(counts), min, max);
    return readResolutionInfo(r, out.resolution);
}

void
encodeMinMax(const index::MinMax &m, ByteWriter &w)
{
    w.writeU8(m.valid ? 1 : 0);
    w.writeSignedVarint(m.min);
    w.writeSignedVarint(m.max);
}

bool
decodeMinMax(ByteReader &r, index::MinMax &out)
{
    std::uint8_t valid = r.readU8();
    if (valid > 1)
        r.markFailed();
    out.valid = valid == 1;
    out.min = r.readSignedVarint();
    out.max = r.readSignedVarint();
    return r.ok();
}

void
encodeAnomalies(const std::vector<Anomaly> &anomalies, ByteWriter &w)
{
    w.writeVarint(anomalies.size());
    for (const Anomaly &a : anomalies) {
        w.writeU8(static_cast<std::uint8_t>(a.kind));
        w.writeU64(a.interval.start);
        w.writeU64(a.interval.end);
        w.writeVarint(a.cpu);
        w.writeVarint(a.task);
        w.writeVarint(a.counter);
        w.writeDouble(a.severity);
        w.writeString(a.description);
    }
}

bool
decodeAnomalies(ByteReader &r, std::vector<Anomaly> &out)
{
    out.clear();
    std::uint64_t count = r.readVarint();
    // Kind byte + two fixed u64 edges + three varints + severity bits
    // + the description's length byte: at least 29 bytes per finding.
    if (!plausibleCount(r, count, 29))
        return false;
    out.reserve(count);
    for (std::uint64_t i = 0; i < count; i++) {
        Anomaly a;
        std::uint8_t kind = r.readU8();
        if (kind > static_cast<std::uint8_t>(AnomalyKind::CounterBurst)) {
            r.markFailed();
            return false;
        }
        a.kind = static_cast<AnomalyKind>(kind);
        a.interval.start = r.readU64();
        a.interval.end = r.readU64();
        a.cpu = static_cast<CpuId>(r.readVarint());
        a.task = r.readVarint();
        a.counter = static_cast<CounterId>(r.readVarint());
        a.severity = r.readDouble();
        a.description = r.readString();
        if (!r.ok())
            return false;
        out.push_back(std::move(a));
    }
    return r.ok();
}

} // namespace stats
} // namespace aftermath
