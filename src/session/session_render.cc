/**
 * @file
 * The rendering face of session::Session: each timeline pass
 * constructs its own renderer over the session's trace and runs the
 * effective config that the async TimelineRenderQuery executor runs
 * too; counter overlays go through the cached indexes.
 */

#include "session/session.h"

namespace aftermath {
namespace session {

render::TimelineConfig
Session::effectiveConfig(const render::TimelineConfig &config,
                         const filter::FilterSet &filters) const
{
    render::TimelineConfig effective = config;
    if (!effective.taskFilter && filters.size() > 0)
        effective.taskFilter = &filters;
    if (effective.view.empty() && !view_.empty())
        effective.view = view_;
    // The session's own pyramid store backs Budget/Pixels resolution;
    // a store of another trace would answer for the wrong events. A
    // synchronous render ends before any setTrace can replace the
    // store, and the async executor captures it.
    effective.pyramids = pyramids_.get();
    return effective;
}

const render::RenderStats &
Session::render(const render::TimelineConfig &config,
                render::Framebuffer &fb)
{
    render::TimelineRenderer renderer(*trace_);
    renderer.render(effectiveConfig(config, filters_), fb);
    renderStats_ = renderer.stats();
    return renderStats_;
}

const render::RenderStats &
Session::renderNaive(const render::TimelineConfig &config,
                     render::Framebuffer &fb)
{
    render::TimelineRenderer renderer(*trace_);
    renderer.renderNaive(effectiveConfig(config, filters_), fb);
    renderStats_ = renderer.stats();
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
