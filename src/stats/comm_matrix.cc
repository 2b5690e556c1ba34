#include "stats/comm_matrix.h"

#include <algorithm>

#include "base/logging.h"

namespace aftermath {
namespace stats {

CommMatrix
CommMatrix::fromTrace(const trace::Trace &trace,
                      const TimeInterval &interval)
{
    CommMatrix m;
    m.numNodes_ = trace.topology().numNodes();
    m.cells_.assign(static_cast<std::size_t>(m.numNodes_) * m.numNodes_, 0);

    for (CpuId c = 0; c < trace.numCpus(); c++) {
        const auto &events = trace.cpu(c).commEvents();
        trace::SliceRange slice = trace.cpu(c).commSlice(interval);
        for (std::size_t i = slice.first; i < slice.last; i++) {
            const trace::CommEvent &ev = events[i];
            if (ev.kind != trace::CommKind::DataRead &&
                ev.kind != trace::CommKind::DataWrite)
                continue;
            if (ev.src >= m.numNodes_ || ev.dst >= m.numNodes_)
                continue;
            m.cells_[static_cast<std::size_t>(ev.src) * m.numNodes_ +
                     ev.dst] += ev.size;
        }
    }
    return m;
}

CommMatrix
CommMatrix::fromTrace(const trace::Trace &trace)
{
    return fromTrace(trace, trace.span());
}

std::uint64_t
CommMatrix::bytes(NodeId src, NodeId dst) const
{
    AFTERMATH_ASSERT(src < numNodes_ && dst < numNodes_,
                     "node pair (%u, %u) out of range", src, dst);
    return cells_[static_cast<std::size_t>(src) * numNodes_ + dst];
}

std::uint64_t
CommMatrix::totalBytes() const
{
    std::uint64_t total = 0;
    for (std::uint64_t c : cells_)
        total += c;
    return total;
}

double
CommMatrix::fraction(NodeId src, NodeId dst) const
{
    std::uint64_t total = totalBytes();
    if (total == 0)
        return 0.0;
    return static_cast<double>(bytes(src, dst)) /
           static_cast<double>(total);
}

double
CommMatrix::diagonalFraction() const
{
    std::uint64_t total = totalBytes();
    if (total == 0)
        return 0.0;
    std::uint64_t diag = 0;
    for (NodeId n = 0; n < numNodes_; n++)
        diag += bytes(n, n);
    return static_cast<double>(diag) / static_cast<double>(total);
}

std::uint64_t
CommMatrix::maxBytes() const
{
    std::uint64_t best = 0;
    for (std::uint64_t c : cells_)
        best = std::max(best, c);
    return best;
}

std::string
CommMatrix::toAscii() const
{
    // Five shades from blank to '#', scaled against the largest cell —
    // a textual stand-in for Fig 15's shades of red.
    static const char shades[] = {' ', '.', ':', '*', '#'};
    std::uint64_t peak = maxBytes();
    std::string out;
    for (NodeId src = 0; src < numNodes_; src++) {
        for (NodeId dst = 0; dst < numNodes_; dst++) {
            int shade = 0;
            if (peak > 0) {
                double f = static_cast<double>(bytes(src, dst)) /
                           static_cast<double>(peak);
                shade = static_cast<int>(f * 4.0 + 0.5);
            }
            out += shades[shade];
            out += ' ';
        }
        out += '\n';
    }
    return out;
}

} // namespace stats
} // namespace aftermath
