/**
 * @file
 * The rendering face of session::Session: a timeline render is the
 * TimelineRenderQuery executor's lane fan-out, waited on, drawing into
 * the caller's framebuffer; the naive
 * baseline constructs its own renderer and runs the same effective
 * config serially; counter overlays go through the cached indexes.
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
    // a store of another trace would answer for the wrong events. The
    // async executor captures it, so it outlives the session if need
    // be.
    effective.pyramids = traceIndex_.get();
    return effective;
}

const render::RenderStats &
Session::render(const render::TimelineConfig &config,
                render::Framebuffer &fb)
{
    TimelineRenderQuery query;
    query.config = config;
    query.width = fb.width();
    query.height = fb.height();
    renderStats_ = submitRender(query, &fb).take().stats;
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
