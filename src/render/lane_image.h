/**
 * @file
 * The lane form of a timeline frame, and the one rasterizer that draws
 * it.
 *
 * The renderer (render/timeline_renderer.h) resolves every pixel once
 * to its predominant color and merges equal neighbours (paper section
 * VI-B), so a lane is far smaller as colored spans than as pixels. An
 * exact lane is constant down the lane: one run of columns per color
 * change. A pyramid lane holds, per pixel column, the bands of the
 * column's state mix from the top of the lane down. Sessions draw lane
 * images into framebuffers, and the daemon ships them as they are
 * (daemon/protocol.h) for the client to draw.
 *
 * The rasterizer writes row-major: it draws a lane's first row, then
 * copies each row to the next and patches only the columns whose band
 * changes there. An exact lane's later rows are plain copies.
 */

#ifndef AFTERMATH_RENDER_LANE_IMAGE_H
#define AFTERMATH_RENDER_LANE_IMAGE_H

#include <cstdint>
#include <vector>

#include "base/types.h"
#include "render/color.h"
#include "render/framebuffer.h"
#include "render/layout.h"

namespace aftermath {
namespace render {

/** One color over @p length columns (exact lane) or rows (band). */
struct Span
{
    std::uint32_t length = 0;
    Rgba color;
};

/** One CPU lane of a frame, as spans rather than pixels. */
struct LaneImage
{
    /**
     * False: an exact lane, whose spans are runs of columns summing to
     * the frame width, each drawn down the whole lane. True: a pyramid
     * lane, whose spans are bands, column by column from the left, each
     * column's bands running from the lane's top and summing to its
     * height.
     */
    bool columns = false;
    std::vector<Span> spans;
};

/**
 * The lane images of one frame: lane i fills lane i's rows of a
 * width x height layout with lanes.size() lanes (TimelineLayout), in
 * lane order, so lanes sharing rows overwrite as in a serial render.
 * A frame without lanes is all background.
 */
struct FrameImage
{
    std::uint32_t width = 1;
    std::uint32_t height = 1;
    std::vector<LaneImage> lanes;

    /** The lane geometry of this frame (its view is a placeholder). */
    TimelineLayout layout() const;
};

/** Fill the rows of @p fb that no lane of @p layout covers. */
void fillUncoveredRows(const TimelineLayout &layout, Framebuffer &fb);

/** Draw @p lane into lane @p cpu's rows of @p layout in @p fb. */
void rasterizeLane(const LaneImage &lane, const TimelineLayout &layout,
                   CpuId cpu, Framebuffer &fb);

/**
 * Draw @p image into @p fb (of the image's dimensions): uncovered rows
 * as background, then every lane in order, skipping the lanes the next
 * lane overdraws whole, so the work stays within the frame's pixels
 * however many lanes share a row.
 */
void rasterize(const FrameImage &image, Framebuffer &fb);

} // namespace render
} // namespace aftermath

#endif // AFTERMATH_RENDER_LANE_IMAGE_H
