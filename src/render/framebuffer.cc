#include "render/framebuffer.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>

#include "base/logging.h"

namespace aftermath {
namespace render {

Framebuffer::Framebuffer(std::uint32_t width, std::uint32_t height,
                         const Rgba &fill)
    : width_(width), height_(height)
{
    AFTERMATH_ASSERT(width > 0 && height > 0,
                     "framebuffer must have positive dimensions");
    pixels_.assign(static_cast<std::size_t>(width) * height, fill);
}

Framebuffer::Framebuffer(std::uint32_t width, std::uint32_t height, Unfilled)
    : width_(width), height_(height)
{
    AFTERMATH_ASSERT(width > 0 && height > 0,
                     "framebuffer must have positive dimensions");
    pixels_.resize(static_cast<std::size_t>(width) * height);
}

void
Framebuffer::clear(const Rgba &color)
{
    std::fill(pixels_.begin(), pixels_.end(), color);
}

Rgba
Framebuffer::pixel(std::int64_t x, std::int64_t y) const
{
    if (x < 0 || y < 0 || x >= width_ || y >= height_)
        return {0, 0, 0, 0};
    return pixels_[static_cast<std::size_t>(y) * width_ +
                   static_cast<std::size_t>(x)];
}

void
Framebuffer::fillRect(std::int64_t x, std::int64_t y, std::int64_t w,
                      std::int64_t h, const Rgba &color)
{
    std::int64_t x0 = std::max<std::int64_t>(x, 0);
    std::int64_t y0 = std::max<std::int64_t>(y, 0);
    std::int64_t x1 = std::min<std::int64_t>(x + w, width_);
    std::int64_t y1 = std::min<std::int64_t>(y + h, height_);
    for (std::int64_t yy = y0; yy < y1; yy++) {
        auto row = pixels_.begin() +
                   static_cast<std::ptrdiff_t>(yy * width_);
        std::fill(row + x0, row + x1, color);
    }
}

void
Framebuffer::drawVLine(std::int64_t x, std::int64_t y0, std::int64_t y1,
                       const Rgba &color)
{
    if (y0 > y1)
        std::swap(y0, y1);
    fillRect(x, y0, 1, y1 - y0 + 1, color);
}

void
Framebuffer::drawLine(std::int64_t x0, std::int64_t y0, std::int64_t x1,
                      std::int64_t y1, const Rgba &color)
{
    std::int64_t dx = std::llabs(x1 - x0);
    std::int64_t dy = -std::llabs(y1 - y0);
    std::int64_t sx = x0 < x1 ? 1 : -1;
    std::int64_t sy = y0 < y1 ? 1 : -1;
    std::int64_t err = dx + dy;
    for (;;) {
        setPixel(x0, y0, color);
        if (x0 == x1 && y0 == y1)
            break;
        std::int64_t e2 = 2 * err;
        if (e2 >= dy) {
            err += dy;
            x0 += sx;
        }
        if (e2 <= dx) {
            err += dx;
            y0 += sy;
        }
    }
}

void
Framebuffer::blit(const Framebuffer &src, std::int64_t x, std::int64_t y)
{
    std::int64_t src_x0 = std::max<std::int64_t>(0, -x);
    std::int64_t src_y0 = std::max<std::int64_t>(0, -y);
    std::int64_t src_x1 = std::min<std::int64_t>(src.width_, width_ - x);
    std::int64_t src_y1 = std::min<std::int64_t>(src.height_, height_ - y);
    if (src_x0 >= src_x1)
        return; // Fully clipped horizontally.
    for (std::int64_t sy = src_y0; sy < src_y1; sy++) {
        auto from = src.pixels_.begin() +
                    static_cast<std::ptrdiff_t>(sy * src.width_);
        auto to = pixels_.begin() +
                  static_cast<std::ptrdiff_t>((y + sy) * width_ + x);
        std::copy(from + src_x0, from + src_x1, to + src_x0);
    }
}

void
Framebuffer::writePpm(std::ostream &os) const
{
    os << "P6\n" << width_ << ' ' << height_ << "\n255\n";
    for (const Rgba &p : pixels_) {
        os.put(static_cast<char>(p.r));
        os.put(static_cast<char>(p.g));
        os.put(static_cast<char>(p.b));
    }
}

bool
Framebuffer::writePpmFile(const std::string &path, std::string &error) const
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        error = "cannot open " + path + " for writing";
        return false;
    }
    writePpm(os);
    if (!os) {
        error = "write to " + path + " failed";
        return false;
    }
    return true;
}

std::uint64_t
Framebuffer::countPixels(const Rgba &color) const
{
    std::uint64_t count = 0;
    for (const Rgba &p : pixels_) {
        if (p == color)
            count++;
    }
    return count;
}

} // namespace render
} // namespace aftermath
