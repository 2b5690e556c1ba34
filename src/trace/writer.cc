#include "trace/writer.h"

#include <cstdio>

#include "base/logging.h"

namespace aftermath {
namespace trace {

TraceWriter::TraceWriter(Encoding encoding, std::uint64_t cpu_freq_hz)
    : encoding_(encoding)
{
    lastTime_.assign(
        static_cast<std::size_t>(DeltaClass::NumClasses), {});
    buffer_.writeU32(kTraceMagic);
    buffer_.writeU16(kTraceVersion);
    buffer_.writeU16(static_cast<std::uint16_t>(encoding));
    buffer_.writeU64(cpu_freq_hz);
}

void
TraceWriter::frameHeader(FrameType type)
{
    AFTERMATH_ASSERT(!finished_, "write after finish()");
    buffer_.writeU8(static_cast<std::uint8_t>(type));
}

void
TraceWriter::writeValue(std::uint64_t v)
{
    if (encoding_ == Encoding::Compact)
        buffer_.writeVarint(v);
    else
        buffer_.writeU64(v);
}

void
TraceWriter::writeValue32(std::uint32_t v)
{
    if (encoding_ == Encoding::Compact)
        buffer_.writeVarint(v);
    else
        buffer_.writeU32(v);
}

void
TraceWriter::writeTime(DeltaClass cls, CpuId cpu, TimeStamp time)
{
    if (encoding_ != Encoding::Compact) {
        buffer_.writeU64(time);
        return;
    }
    auto &row = lastTime_[static_cast<std::size_t>(cls)];
    if (cpu >= row.size())
        row.resize(cpu + 1, 0);
    std::int64_t delta = static_cast<std::int64_t>(time) -
                         static_cast<std::int64_t>(row[cpu]);
    buffer_.writeSignedVarint(delta);
    row[cpu] = time;
}

void
TraceWriter::topology(const MachineTopology &topo)
{
    frameHeader(FrameType::Topology);
    writeValue32(topo.numCpus());
    writeValue32(topo.numNodes());
    for (CpuId c = 0; c < topo.numCpus(); c++)
        writeValue32(topo.nodeOfCpu(c));
    for (NodeId a = 0; a < topo.numNodes(); a++)
        for (NodeId b = 0; b < topo.numNodes(); b++)
            writeValue32(topo.distance(a, b));
}

void
TraceWriter::stateDescription(const StateDescription &desc)
{
    frameHeader(FrameType::StateDescription);
    writeValue32(desc.id);
    buffer_.writeString(desc.name);
}

void
TraceWriter::counterDescription(const CounterDescription &desc)
{
    frameHeader(FrameType::CounterDescription);
    writeValue32(desc.id);
    buffer_.writeString(desc.name);
}

void
TraceWriter::taskType(const TaskType &type)
{
    frameHeader(FrameType::TaskType);
    writeValue(type.id);
    buffer_.writeString(type.name);
}

void
TraceWriter::stateEvent(CpuId cpu, const StateEvent &ev)
{
    frameHeader(FrameType::StateEvent);
    writeValue32(cpu);
    writeValue32(ev.state);
    writeTime(DeltaClass::State, cpu, ev.interval.start);
    // Duration is non-negative; store it instead of the raw end time so
    // the compact encoding gets a small unsigned varint.
    writeValue(ev.interval.duration());
    writeValue(ev.task);
}

void
TraceWriter::counterSample(CpuId cpu, CounterId counter,
                           const CounterSample &sample)
{
    frameHeader(FrameType::CounterSample);
    writeValue32(cpu);
    writeValue32(counter);
    writeTime(DeltaClass::Counter, cpu, sample.time);
    if (encoding_ == Encoding::Compact)
        buffer_.writeSignedVarint(sample.value);
    else
        buffer_.writeU64(static_cast<std::uint64_t>(sample.value));
}

void
TraceWriter::discreteEvent(CpuId cpu, const DiscreteEvent &ev)
{
    frameHeader(FrameType::DiscreteEvent);
    writeValue32(cpu);
    writeValue32(static_cast<std::uint32_t>(ev.type));
    writeTime(DeltaClass::Discrete, cpu, ev.time);
    writeValue(ev.payload);
}

void
TraceWriter::commEvent(CpuId cpu, const CommEvent &ev)
{
    frameHeader(FrameType::CommEvent);
    writeValue32(cpu);
    buffer_.writeU8(static_cast<std::uint8_t>(ev.kind));
    writeTime(DeltaClass::Comm, cpu, ev.time);
    writeValue32(ev.src);
    writeValue32(ev.dst);
    writeValue(ev.size);
    writeValue(ev.region);
}

void
TraceWriter::taskInstance(const TaskInstance &instance)
{
    frameHeader(FrameType::TaskInstance);
    writeValue(instance.id);
    writeValue(instance.type);
    writeValue32(instance.cpu);
    writeValue(instance.interval.start);
    // The modular difference, not duration(): the reader adds it back
    // with wrap-around, so a task read with its end wrapped below its
    // start (hostile bytes) round-trips too. Equal to duration() for
    // every ordinary task. State events need no such care: finalize
    // rejects inverted ones.
    writeValue(instance.interval.end - instance.interval.start);
}

void
TraceWriter::memRegion(const MemRegion &region)
{
    frameHeader(FrameType::MemRegion);
    writeValue(region.id);
    writeValue(region.address);
    writeValue(region.size);
    writeValue32(region.node == kInvalidNode
                     ? std::numeric_limits<std::uint32_t>::max()
                     : region.node);
}

void
TraceWriter::memAccess(const MemAccess &access)
{
    frameHeader(FrameType::MemAccess);
    writeValue(access.task);
    writeValue(access.address);
    writeValue(access.size);
    buffer_.writeU8(access.isWrite ? 1 : 0);
}

std::vector<std::uint8_t>
TraceWriter::finish()
{
    AFTERMATH_ASSERT(!finished_, "finish() called twice");
    frameHeader(FrameType::EndOfTrace);
    finished_ = true;
    return buffer_.take();
}

std::vector<std::uint8_t>
writeTrace(const Trace &trace, Encoding encoding)
{
    TraceWriter writer(encoding, trace.cpuFreqHz());
    writer.topology(trace.topology());

    for (const auto &[id, name] : trace.states())
        writer.stateDescription({id, name});
    for (const auto &[id, name] : trace.counters())
        writer.counterDescription({id, name});
    for (const auto &[id, type] : trace.taskTypes())
        writer.taskType(type);
    for (const MemRegion &region : trace.memRegions())
        writer.memRegion(region);

    for (CpuId c = 0; c < trace.numCpus(); c++) {
        const CpuTimeline &tl = trace.cpu(c);
        for (const StateEvent &ev : tl.states())
            writer.stateEvent(c, ev);
        for (CounterId id : tl.counterIds())
            for (const CounterSample &sample : tl.counterSamples(id))
                writer.counterSample(c, id, sample);
        for (const DiscreteEvent &ev : tl.discreteEvents())
            writer.discreteEvent(c, ev);
        for (const CommEvent &ev : tl.commEvents())
            writer.commEvent(c, ev);
    }

    for (const TaskInstance &instance : trace.taskInstances())
        writer.taskInstance(instance);
    for (const MemAccess &access : trace.memAccesses())
        writer.memAccess(access);

    return writer.finish();
}

bool
writeTraceFile(const Trace &trace, const std::string &path,
               Encoding encoding, std::string &error)
{
    std::vector<std::uint8_t> bytes = writeTrace(trace, encoding);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        error = "cannot open " + path + " for writing";
        return false;
    }
    std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    if (written != bytes.size()) {
        error = "short write to " + path;
        return false;
    }
    return true;
}

} // namespace trace
} // namespace aftermath
