/**
 * @file
 * The trace-serving daemon: one QueryEngine, many clients.
 *
 * daemon::Server accepts connections on a Unix-domain socket (or hands
 * out in-process socketpair ends for tests and benches), gives every
 * connection its own reader and writer thread, and binds each opened
 * trace to a session::Session driven exclusively by that connection's
 * reader thread — so the session's single-driving-thread contract holds
 * by construction. All sessions share the server's one QueryEngine and
 * worker pool; clients that open the *same* trace file additionally
 * share that trace's index store (index::TraceIndex: counter indexes,
 * summary pyramids, task index): each binding's session is constructed
 * over that trace's one store, made once when the trace is first
 * loaded, so an index any client pays for serves them all and a second
 * open builds nothing. No per-interval answer is kept, so a client's
 * queries never grow the daemon's memory.
 *
 * Isolation comes from the cancellation plane, not from duplication:
 * each (client, trace) binding's session is its own cancellation
 * scope, so a client's SetView/SetFilters cancels only that client's
 * stale in-flight queries, never a neighbour's (session/session.h).
 *
 * Admission control: every request frame maps onto the engine's
 * Interactive/Background queues via its priority byte, and each
 * connection holds at most Options::inflightCap requests in flight —
 * the cap answers Rejected immediately instead of queueing unbounded
 * work for one greedy client. A Cancel frame (or the client's
 * disconnect) routes into the tickets' cooperative-cancellation plane;
 * on disconnect the server cancels and then *waits out* every in-flight
 * ticket of that client before dropping its sessions, counting the
 * queries it reaped into Stats::cancelledOnDisconnect.
 *
 * Threading and lock order (base/mutex.h ranks): the server mutex
 * (kDaemonServer, 40) guards the connection list and the shared-trace
 * registry; each connection's mutex (kDaemonConnection, 50) guards its
 * in-flight map and response queue. A reader thread may hold its
 * connection lock while submitting into the engine (50 < 100), and
 * ticket completion callbacks — which run with no ticket lock held —
 * acquire only the connection lock to enqueue the response frame.
 * Server lock and connection lock are never nested in either order.
 */

#ifndef AFTERMATH_DAEMON_SERVER_H
#define AFTERMATH_DAEMON_SERVER_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "daemon/protocol.h"
#include "daemon/wire.h"
#include "session/session.h"

namespace aftermath {
namespace daemon {

/** One running trace-serving daemon. */
class Server
{
  public:
    struct Options
    {
        /** Engine worker threads; 0 = one per hardware thread. */
        unsigned workers = 1;

        /** Per-client in-flight request cap (admission control). */
        std::uint32_t inflightCap = 16;
    };

    /** Cumulative counters (all safe to read while serving). */
    struct Stats
    {
        std::uint64_t requests = 0;        ///< Frames dispatched.
        std::uint64_t rejected = 0;        ///< Admission-control refusals.
        std::uint64_t protocolErrors = 0;  ///< Undecodable request bodies.
        std::uint64_t cancelledOnDisconnect = 0; ///< Reaped in-flight work.
        std::uint64_t connectionsAccepted = 0;
        std::size_t activeConnections = 0;
        std::size_t sharedTraces = 0; ///< Live entries in the registry.
    };

    Server() : Server(Options()) {}
    explicit Server(Options options);

    /** Stops serving: closes the listener and every connection. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind @p path and start the accept loop. False (with @p error)
     * if the socket cannot be bound.
     */
    bool serveUnix(const std::string &path, std::string &error);

    /**
     * Create a connected in-process transport: the server serves one
     * end on its normal connection threads and returns the other for a
     * daemon::Client to adopt. The test and bench path — no filesystem
     * socket, same protocol bytes.
     */
    Socket connectInProcess();

    /**
     * Close the listener and every connection, cancel and wait out all
     * in-flight work, and join every thread. Idempotent; the
     * destructor calls it.
     */
    void stop();

    Stats stats() const;

    /** The shared engine (exposed for bench/test introspection). */
    const std::shared_ptr<session::QueryEngine> &engine() const
    {
        return engine_;
    }

  private:
    struct SharedTrace;
    struct Binding;
    class Connection;

    void acceptLoop();
    void serve(Socket socket);

    /**
     * Join and drop every connection whose threads both finished, so
     * its socket closes. Runs before each new connection is served and
     * after a failed accept.
     */
    void reapFinished() AM_EXCLUDES(mutex_);

    /**
     * Open (or share) the trace @p request names. Returns null with
     * @p error set on a load failure.
     */
    std::shared_ptr<SharedTrace> acquireTrace(const OpenTraceRequest &request,
                                              std::string &error);

    /** Drop one reference; erases the registry entry at zero. */
    void releaseTrace(const std::shared_ptr<SharedTrace> &shared);

    Options options_;
    std::shared_ptr<session::QueryEngine> engine_;

    mutable base::Mutex mutex_{base::lockrank::kDaemonServer,
                               "daemon-server"};
    std::vector<std::shared_ptr<Connection>> connections_
        AM_GUARDED_BY(mutex_);
    /** Path-keyed registry of traces shared across clients. */
    std::unordered_map<std::string, std::shared_ptr<SharedTrace>> registry_
        AM_GUARDED_BY(mutex_);
    bool stopping_ AM_GUARDED_BY(mutex_) = false;

    // Counters are atomics, not mutex-guarded: reader threads and
    // completion callbacks bump them without touching the server lock.
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> protocolErrors_{0};
    std::atomic<std::uint64_t> cancelledOnDisconnect_{0};

    Socket listener_;
    std::thread acceptThread_;
};

} // namespace daemon
} // namespace aftermath

#endif // AFTERMATH_DAEMON_SERVER_H
