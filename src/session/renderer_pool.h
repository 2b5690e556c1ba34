/**
 * @file
 * A thread-safe checkout pool of per-trace TimelineRenderer instances.
 *
 * A TimelineRenderer pays a task-type scan at construction to build
 * its task-type palette index, the one cache that survives across
 * redraws (its per-task color and remote-fraction memos are cleared
 * at the start of every render). The pool keeps renderers alive
 * instead of constructing one per query: checkout() hands an idle
 * renderer of the session's current trace (or constructs one on a
 * miss), the RAII lease returns it on destruction, and repeated async
 * TimelineRenderQuery executions stop paying construction cost.
 * Session's synchronous render path checks out of the same pool, so
 * sync and async redraws share one warm palette.
 *
 * The pool is bound to one trace at a time: setTrace() invalidates
 * every idle renderer (their palettes index the old trace's task types)
 * and re-keys reuse to the new trace. A lease checked out against an
 * older trace — an in-flight executor that captured the trace before a
 * swap — still works (it constructs and keeps its own renderer); its
 * return is simply dropped instead of poisoning the pool. All methods
 * are safe from any thread; each leased renderer is exclusively owned
 * by its lease. Construct the pool with std::make_shared — leases keep
 * it alive through shared_from_this(), so executors outliving the
 * session stay safe.
 */

#ifndef AFTERMATH_SESSION_RENDERER_POOL_H
#define AFTERMATH_SESSION_RENDERER_POOL_H

#include <cstddef>
#include <memory>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "render/timeline_renderer.h"
#include "trace/trace.h"

namespace aftermath {
namespace session {

/** Checkout pool of TimelineRenderer instances for one current trace. */
class RendererPool
    : public std::enable_shared_from_this<RendererPool>
{
  public:
    /** Cumulative accounting; observable like every session cache. */
    struct Counters
    {
        /** Checkouts served by constructing a fresh renderer. */
        std::size_t created = 0;

        /** Checkouts served from an idle pooled renderer. */
        std::size_t reused = 0;

        /** Leases returned to the pool (kept or dropped). */
        std::size_t returned = 0;

        /** Returned renderers discarded: stale trace or over capacity. */
        std::size_t dropped = 0;
    };

    /**
     * Exclusive ownership of one checked-out renderer; returns it to
     * the pool on destruction. Movable, not copyable; keeps the pool
     * and the renderer's trace alive. A default-constructed or
     * moved-from lease is inert.
     */
    class Lease
    {
      public:
        Lease() = default;
        Lease(Lease &&other) noexcept = default;
        Lease &
        operator=(Lease &&other) noexcept
        {
            if (this != &other) {
                release();
                pool_ = std::move(other.pool_);
                trace_ = std::move(other.trace_);
                renderer_ = std::move(other.renderer_);
            }
            return *this;
        }
        ~Lease() { release(); }

        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;

        /** True if the lease holds a renderer. */
        bool valid() const { return renderer_ != nullptr; }

        render::TimelineRenderer &operator*() const { return *renderer_; }
        render::TimelineRenderer *operator->() const
        {
            return renderer_.get();
        }

      private:
        friend class RendererPool;

        Lease(std::shared_ptr<RendererPool> pool,
              std::shared_ptr<const trace::Trace> trace,
              std::unique_ptr<render::TimelineRenderer> renderer)
            : pool_(std::move(pool)), trace_(std::move(trace)),
              renderer_(std::move(renderer))
        {}

        /** Hand the renderer back (no-op when inert). */
        void release();

        std::shared_ptr<RendererPool> pool_;
        std::shared_ptr<const trace::Trace> trace_;
        std::unique_ptr<render::TimelineRenderer> renderer_;
    };

    /** A pool keeping at most @p capacity idle renderers. */
    explicit RendererPool(std::size_t capacity = 4)
        : capacity_(capacity)
    {}

    /**
     * Bind the pool to @p trace: every idle renderer of the previous
     * trace is dropped (counted), and reuse is keyed to the new one.
     * Session::setTrace() calls this from the driving thread.
     */
    void setTrace(std::shared_ptr<const trace::Trace> trace);

    /**
     * Check a renderer of @p trace out. Reuses an idle instance when
     * @p trace is the pool's current trace and one is available;
     * constructs a fresh renderer otherwise (construction happens
     * outside the pool lock — concurrent checkouts never serialize on
     * the task-type scan).
     */
    Lease checkout(const std::shared_ptr<const trace::Trace> &trace);

    /**
     * Bound the idle set to @p capacity renderers; surplus returns are
     * dropped. Shrinking evicts immediately.
     */
    void setCapacity(std::size_t capacity);

    /** The idle-set bound. */
    std::size_t capacity() const;

    /** Renderers currently idle in the pool. */
    std::size_t idleCount() const;

    /** Cumulative checkout/return accounting. */
    Counters counters() const;

  private:
    /** Return one leased renderer; keeps it only if trace is current. */
    void checkin(const trace::Trace *trace,
                 std::unique_ptr<render::TimelineRenderer> renderer);

    mutable base::Mutex mutex_{base::lockrank::kRendererPool,
                               "renderer-pool"};
    std::shared_ptr<const trace::Trace> current_ AM_GUARDED_BY(mutex_);
    std::vector<std::unique_ptr<render::TimelineRenderer>> idle_
        AM_GUARDED_BY(mutex_);
    std::size_t capacity_ AM_GUARDED_BY(mutex_);
    Counters counters_ AM_GUARDED_BY(mutex_);
};

} // namespace session
} // namespace aftermath

#endif // AFTERMATH_SESSION_RENDERER_POOL_H
