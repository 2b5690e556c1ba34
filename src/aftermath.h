/**
 * @file
 * Umbrella header: the full public API of the Aftermath reproduction.
 *
 * The front door of the library is session::Session (exported as
 * aftermath::Session): open a session over a finalized trace and query
 * interval statistics, counter extrema, filtered tasks, histograms,
 * counter attribution and timeline renderings through one object. The
 * session owns the shared analysis state the paper's interactivity
 * depends on — the active filter set and view interval — and lazily
 * builds the per-(CPU, counter) min/max search trees and per-CPU
 * summary pyramids, kept in one per-trace store (index::TraceIndex),
 * so queries cost far less than a rescan (paper sections II-A, VI-B).
 *
 *   Session session(std::move(trace));      // or Session::view(trace)
 *   session.setFilters(filters);            // shared by stats + render
 *   auto stats = session.intervalStats();   // exact, per CPU in parallel
 *   auto mm = session.counterExtrema(cpu, counter, interval); // indexed
 *   session.render(config, framebuffer);    // lanes in parallel
 *
 * Sessions extend to comparison workflows, to many-core traces, and to
 * UI threads that must never block: session::SessionGroup aligns N
 * sessions over N trace variants (one shared worker pool) and answers
 * delta queries and side-by-side/diff renderings; Session::submit()
 * accepts value-type query specs (session/query.h) and returns
 * QueryTicket futures executed on the shared pool, with cooperative
 * cancellation when the view or filters move on; and warmup() /
 * submit(WarmupQuery) build the per-CPU search structures concurrently
 * and incrementally before the user's first zoom needs them. The pool
 * schedules by QueryPriority — interactive queries overtake queued
 * background work, which yields at chunk boundaries — and starts its
 * workers on the first submission.
 *
 * The per-layer modules remain available underneath: the trace model
 * and format, indexes, filters, derived metrics, statistics, task-graph
 * analysis, rendering, symbol handling, and the runtime simulator with
 * its workloads.
 */

#ifndef AFTERMATH_AFTERMATH_H
#define AFTERMATH_AFTERMATH_H

// Base utilities.
#include "base/logging.h"
#include "base/rng.h"
#include "base/string_util.h"
#include "base/thread_pool.h"
#include "base/time_interval.h"
#include "base/types.h"

// Trace model and file format.
#include "trace/counter.h"
#include "trace/cpu_timeline.h"
#include "trace/event.h"
#include "trace/format.h"
#include "trace/memory.h"
#include "trace/numa.h"
#include "trace/reader.h"
#include "trace/state.h"
#include "trace/task.h"
#include "trace/topology.h"
#include "trace/trace.h"
#include "trace/writer.h"

// Indexes: per-CPU pyramids and counter indexes in one store.
#include "index/counter_index.h"
#include "index/summary_pyramid.h"
#include "index/trace_index.h"

// Filters.
#include "filter/task_filter.h"

// The session facade (the analysis front door).
#include "session/compare.h"
#include "session/query.h"
#include "session/query_engine.h"
#include "session/session.h"
#include "session/session_group.h"

// Derived metrics.
#include "metrics/counter_utils.h"
#include "metrics/derived_counter.h"
#include "metrics/generators.h"
#include "metrics/task_attribution.h"

// Statistics.
#include "stats/anomaly.h"
#include "stats/comm_matrix.h"
#include "stats/export.h"
#include "stats/histogram.h"
#include "stats/interval_stats.h"
#include "stats/regression.h"

// Task graph.
#include "graph/critical_path.h"
#include "graph/depth.h"
#include "graph/dot_export.h"
#include "graph/task_graph.h"

// Rendering.
#include "render/color.h"
#include "render/counter_overlay.h"
#include "render/framebuffer.h"
#include "render/layout.h"
#include "render/render_stats.h"
#include "render/timeline_renderer.h"

// Trace serving (aftermathd and its client).
#include "daemon/client.h"
#include "daemon/protocol.h"
#include "daemon/server.h"
#include "daemon/wire.h"

// Symbols and annotations.
#include "symbols/annotations.h"
#include "symbols/symbol_table.h"

// Simulation substrate.
#include "machine/cost_model.h"
#include "machine/machine_spec.h"
#include "machine/region_placement.h"
#include "runtime/runtime_system.h"
#include "runtime/scheduler.h"
#include "runtime/task_set.h"
#include "sim/event_queue.h"

// Workloads.
#include "workloads/kmeans.h"
#include "workloads/seidel.h"
#include "workloads/synthetic.h"

#endif // AFTERMATH_AFTERMATH_H
