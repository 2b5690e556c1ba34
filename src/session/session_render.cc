/**
 * @file
 * The rendering face of session::Session: timeline passes check a
 * renderer out of the session's RendererPool (its task-type palette
 * index persists across redraws, shared with the async
 * TimelineRenderQuery executors); counter overlays go through the
 * cached indexes.
 */

#include "session/session.h"

namespace aftermath {
namespace session {

render::TimelineConfig
Session::effectiveConfig(const render::TimelineConfig &config) const
{
    render::TimelineConfig effective = config;
    if (!effective.taskFilter && filters_.size() > 0)
        effective.taskFilter = &filters_;
    if (effective.view.empty() && !view_.empty())
        effective.view = view_;
    // Wire the session's pyramid store in so a config requesting
    // Budget/Pixels resolution renders O(pixels) occupancy bands; the
    // store outlives the synchronous render (pyramids_ is replaced,
    // never destroyed, on setTrace).
    if (!effective.pyramids)
        effective.pyramids = pyramids_.get();
    return effective;
}

const render::RenderStats &
Session::render(const render::TimelineConfig &config,
                render::Framebuffer &fb)
{
    RendererPool::Lease lease = rendererPool_->checkout(trace_);
    lease->render(effectiveConfig(config), fb);
    renderStats_ = lease->stats();
    return renderStats_;
}

const render::RenderStats &
Session::renderNaive(const render::TimelineConfig &config,
                     render::Framebuffer &fb)
{
    RendererPool::Lease lease = rendererPool_->checkout(trace_);
    lease->renderNaive(effectiveConfig(config), fb);
    renderStats_ = lease->stats();
    return renderStats_;
}

const render::RenderStats &
Session::renderCounterLane(CpuId cpu, CounterId counter,
                           const render::TimelineLayout &layout,
                           const render::CounterOverlayConfig &overlay_config,
                           render::Framebuffer &fb)
{
    render::CounterOverlay overlay(*trace_, fb);
    overlay.renderLane(cpu, counter, counterIndex(cpu, counter), layout,
                       overlay_config);
    overlayStats_ = overlay.stats();
    return overlayStats_;
}

const render::RenderStats &
Session::renderGlobalOverlay(const metrics::DerivedCounter &series,
                             const render::TimelineLayout &layout,
                             const render::CounterOverlayConfig &overlay_config,
                             render::Framebuffer &fb)
{
    render::CounterOverlay overlay(*trace_, fb);
    overlay.renderGlobal(series, layout, overlay_config);
    overlayStats_ = overlay.stats();
    return overlayStats_;
}

render::TimelineLayout
Session::layoutFor(const render::Framebuffer &fb) const
{
    return render::TimelineLayout(view(), fb.width(), fb.height(),
                                  trace_->numCpus());
}

} // namespace session
} // namespace aftermath
