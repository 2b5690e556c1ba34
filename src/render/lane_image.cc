#include "render/lane_image.h"

#include <algorithm>
#include <cstring>

#include "base/logging.h"

namespace aftermath {
namespace render {

TimelineLayout
FrameImage::layout() const
{
    return TimelineLayout(TimeInterval{0, 1}, width, height,
                          static_cast<std::uint32_t>(lanes.size()));
}

void
fillUncoveredRows(const TimelineLayout &layout, Framebuffer &fb)
{
    // Lane tops increase with the lane, so one pass over the lanes
    // finds every gap, including the rows below the last lane.
    std::uint32_t covered = 0; // Rows [0, covered) are handled.
    for (CpuId cpu = 0; cpu <= layout.numCpus(); cpu++) {
        const std::uint32_t top =
            cpu < layout.numCpus() ? layout.laneTop(cpu) : layout.height();
        if (top > covered)
            fb.fillRect(0, covered, fb.width(), top - covered, kBackground);
        if (cpu < layout.numCpus())
            covered = std::max(covered, top + layout.laneHeight());
    }
}

namespace {

/** A pyramid column's color from one row down. */
struct Patch
{
    std::uint32_t x;
    Rgba color;
};

} // namespace

void
rasterizeLane(const LaneImage &lane, const TimelineLayout &layout, CpuId cpu,
              Framebuffer &fb)
{
    const std::size_t width = fb.width();
    const std::uint32_t height = layout.laneHeight();
    Rgba *const first =
        fb.data() + static_cast<std::size_t>(layout.laneTop(cpu)) * width;
    auto copyDown = [&](std::uint32_t y) {
        std::memcpy(first + y * width, first + (y - 1) * width,
                    width * sizeof(Rgba));
    };

    if (!lane.columns) {
        // Constant down the lane: draw the runs once, copy the row.
        std::size_t x = 0;
        for (const Span &run : lane.spans) {
            AFTERMATH_ASSERT(run.length <= width - x,
                             "lane runs overflow the frame width");
            std::fill_n(first + x, run.length, run.color);
            x += run.length;
        }
        AFTERMATH_ASSERT(x == width, "lane runs do not fill the width");
        for (std::uint32_t y = 1; y < height; y++)
            copyDown(y);
        return;
    }

    // Draw every column's top band into the first row, and bucket the
    // starts of the other bands by row (a counting sort): each later
    // row is the row above with those columns patched.
    std::vector<std::uint32_t> row_end(height + 1, 0);
    auto walk = [&](auto &&top_band, auto &&band_start) {
        std::size_t i = 0;
        for (std::uint32_t x = 0; x < width; x++) {
            AFTERMATH_ASSERT(i < lane.spans.size(),
                             "lane bands end before the last column");
            top_band(x, lane.spans[i]);
            std::uint32_t y = lane.spans[i++].length;
            while (y < height) {
                AFTERMATH_ASSERT(i < lane.spans.size(),
                                 "lane bands end inside a column");
                band_start(x, y, lane.spans[i]);
                y += lane.spans[i++].length;
            }
            AFTERMATH_ASSERT(y == height,
                             "column bands overflow the lane height");
        }
        AFTERMATH_ASSERT(i == lane.spans.size(),
                         "lane bands run past the last column");
    };
    walk([&](std::uint32_t x, const Span &band) { first[x] = band.color; },
         [&](std::uint32_t, std::uint32_t y, const Span &) {
             row_end[y + 1]++;
         });
    for (std::uint32_t y = 1; y <= height; y++)
        row_end[y] += row_end[y - 1];
    std::vector<Patch> patches(row_end[height]);
    std::vector<std::uint32_t> fill(row_end.begin(), row_end.end() - 1);
    walk([](std::uint32_t, const Span &) {},
         [&](std::uint32_t x, std::uint32_t y, const Span &band) {
             patches[fill[y]++] = {x, band.color};
         });
    for (std::uint32_t y = 1; y < height; y++) {
        copyDown(y);
        Rgba *row = first + y * width;
        for (std::uint32_t p = row_end[y]; p < row_end[y + 1]; p++)
            row[patches[p].x] = patches[p].color;
    }
}

void
rasterize(const FrameImage &image, Framebuffer &fb)
{
    AFTERMATH_ASSERT(fb.width() == image.width &&
                         fb.height() == image.height,
                     "frame image and framebuffer differ in size");
    if (image.lanes.empty()) {
        fb.clear(kBackground);
        return;
    }
    const TimelineLayout layout = image.layout();
    fillUncoveredRows(layout, fb);
    // Lanes share a top only when the frame has fewer rows than lanes,
    // where every lane is one row high, so the next lane overdraws this
    // one whole. Skipping such lanes keeps the drawing within the
    // frame's pixels however many lanes an image has.
    for (CpuId cpu = 0; cpu < image.lanes.size(); cpu++)
        if (cpu + 1 == image.lanes.size() ||
            layout.laneTop(cpu + 1) != layout.laneTop(cpu))
            rasterizeLane(image.lanes[cpu], layout, cpu, fb);
}

} // namespace render
} // namespace aftermath
