/**
 * @file
 * Offscreen RGBA framebuffer with PPM export.
 *
 * The substitute for the original tool's GTK+/Cairo surface: all timeline
 * modes and overlays draw into this buffer, and examples export it as a
 * binary PPM (P6) image for visual inspection.
 */

#ifndef AFTERMATH_RENDER_FRAMEBUFFER_H
#define AFTERMATH_RENDER_FRAMEBUFFER_H

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "render/color.h"

namespace aftermath {
namespace render {

/** A width x height RGBA pixel buffer. */
class Framebuffer
{
  public:
    /** Create a buffer filled with @p fill. */
    Framebuffer(std::uint32_t width, std::uint32_t height,
                const Rgba &fill = kBackground);

    /** Tag of the constructor that leaves the pixels unwritten. */
    struct Unfilled
    {};

    /**
     * Create a buffer without writing its pixels, for a frame the
     * rasterizer is about to cover whole (render/lane_image.h): an 8 MiB
     * frame then costs one pass over its pixels, not two. Write every
     * pixel before reading any.
     */
    Framebuffer(std::uint32_t width, std::uint32_t height, Unfilled);

    std::uint32_t width() const { return width_; }
    std::uint32_t height() const { return height_; }

    /** Fill the whole buffer. */
    void clear(const Rgba &color);

    /** Set one pixel; out-of-bounds coordinates are ignored. */
    void
    setPixel(std::int64_t x, std::int64_t y, const Rgba &color)
    {
        if (x < 0 || y < 0 || x >= width_ || y >= height_)
            return;
        pixels_[static_cast<std::size_t>(y) * width_ +
                static_cast<std::size_t>(x)] = color;
    }

    /** Pixel at (x, y); out-of-bounds returns transparent black. */
    Rgba pixel(std::int64_t x, std::int64_t y) const;

    /** The width * height pixels, row-major: (x, y) at y * width + x. */
    const Rgba *data() const { return pixels_.data(); }
    Rgba *data() { return pixels_.data(); }

    /** Fill the rectangle [x, x+w) x [y, y+h), clipped to the buffer. */
    void fillRect(std::int64_t x, std::int64_t y, std::int64_t w,
                  std::int64_t h, const Rgba &color);

    /** Vertical line segment from (x, y0) to (x, y1) inclusive. */
    void drawVLine(std::int64_t x, std::int64_t y0, std::int64_t y1,
                   const Rgba &color);

    /** Line segment between two points (Bresenham). */
    void drawLine(std::int64_t x0, std::int64_t y0, std::int64_t x1,
                  std::int64_t y1, const Rgba &color);

    /**
     * Copy @p src into this buffer with its top-left corner at
     * (@p x, @p y), clipped to this buffer's bounds. Used by the
     * session-group renderers to compose per-variant timelines into
     * one shared buffer.
     */
    void blit(const Framebuffer &src, std::int64_t x, std::int64_t y);

    /** Write the buffer as binary PPM (P6). */
    void writePpm(std::ostream &os) const;

    /** writePpm() to a file; false (with @p error set) on failure. */
    bool writePpmFile(const std::string &path, std::string &error) const;

    /** Count of pixels equal to @p color (used heavily by tests). */
    std::uint64_t countPixels(const Rgba &color) const;

  private:
    /**
     * std::allocator, except that value-initialization (resize())
     * writes nothing: Rgba is an implicit-lifetime aggregate, so the
     * allocation itself holds the pixels.
     */
    template <typename T>
    struct UnfilledAllocator : std::allocator<T>
    {
        template <typename U>
        struct rebind
        {
            using other = UnfilledAllocator<U>;
        };

        void construct(T *) noexcept {}

        template <typename... Args>
        void
        construct(T *p, Args &&...args)
        {
            ::new (static_cast<void *>(p)) T(std::forward<Args>(args)...);
        }
    };

    std::uint32_t width_;
    std::uint32_t height_;
    std::vector<Rgba, UnfilledAllocator<Rgba>> pixels_;
};

} // namespace render
} // namespace aftermath

#endif // AFTERMATH_RENDER_FRAMEBUFFER_H
