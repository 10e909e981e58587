/// \file server.hpp
/// \brief BettiServer: the long-running Betti-estimation service.
///
/// Request lifecycle:
///
///   reader threads (one per connection) parse lines and *admit* requests
///   into a FIFO admission queue → worker threads pop the head and, when the
///   head is batchable (plan-backend, purification, no per-request noise),
///   *coalesce* every queued request with the same batch key — identical
///   cloud content, ε, k, estimator options, and engine — into one
///   execution: the compiled plan evolves the register once and each
///   request samples its own shots from its own seed, which is bit-identical
///   to running the requests serially (see estimate_betti_batch) → finished
///   responses go to the *completion queue*, a dedicated writer drains it
///   back to the connections (responses carry request ids; ordering across
///   requests is not guaranteed, by design).
///
/// Fairness and shutdown: per-request shard counts — the state vector's
/// sweep chunks on the shared pool — are clamped by fair_thread_share over
/// the number of concurrently executing requests, so one huge register
/// cannot monopolize that pool (the chunk count never changes results).
/// Deadlines bound queue time *and* execution: a request that expires
/// before execution starts is answered with a `deadline` error instead of
/// occupying a worker, and an executing request whose deadline
/// passes is cancelled at the next cooperative checkpoint (see
/// common/cancel.hpp).  stop() is graceful: admission closes, everything
/// already admitted executes, the completion queue drains, then threads
/// join.
///
/// Self-protection: the admission queue is bounded (max_queue) — requests
/// past the bound are *shed* with a retryable `overloaded` error carrying a
/// retry-after hint, so load spikes degrade into client backoff instead of
/// unbounded memory growth.  RequestLimits caps the resources any single
/// request may claim (line bytes, cloud points, precision qubits, shots);
/// violations draw a non-retryable `limit` error.  A request that throws
/// anything unexpected is answered with `internal` and the worker survives
/// (poison-request isolation).
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "linalg/expm_multiply.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/transport.hpp"

namespace qtda {

/// Per-request resource caps; violations draw a non-retryable `limit`
/// error at admission, before any expensive work happens.
struct RequestLimits {
  std::size_t max_line_bytes = 1 << 20;   ///< protocol frame size
  std::size_t max_points = 4096;          ///< cloud size
  std::size_t max_precision_qubits = 16;  ///< t (register width is 2^t)
  std::uint64_t max_shots = 100'000'000;  ///< per-request sampling budget
};

/// BettiServer configuration.
struct ServerOptions {
  ArtifactStoreOptions cache;
  std::size_t workers = 1;  ///< executor threads (estimates are internally
                            ///< parallel; more workers mainly help batching
                            ///< overlap compilation with execution)
  bool batching = true;     ///< coalesce identical-plan requests
  bool telemetry = true;    ///< enable the process-wide telemetry registry
                            ///< on start() (a served process wants its
                            ///< metrics verb populated; the overhead is one
                            ///< relaxed atomic per span plus clock reads)
  std::size_t max_queue = 0;  ///< admission-queue bound; 0 = unbounded.
                              ///< Requests past the bound are shed with a
                              ///< retryable `overloaded` error.
  std::uint64_t shed_retry_after_ms = 5;  ///< backoff hint on shed responses
  RequestLimits limits;     ///< per-request resource caps
};

/// A stats snapshot (the `stats` protocol command renders this).
struct ServerStats {
  CacheStats complexes;
  CacheStats laplacians;
  CacheStats plans;
  ExpmCoefficientCacheStats expm;
  std::size_t admitted = 0;
  std::size_t completed = 0;
  std::size_t errors = 0;
  std::size_t batches = 0;           ///< executions serving > 1 request
  std::size_t batched_requests = 0;  ///< requests served by those executions
  std::size_t deadline_misses = 0;
  std::size_t shed = 0;              ///< requests refused by the queue bound
};

/// The service.  One instance owns the artifact store and all threads.
class BettiServer {
 public:
  explicit BettiServer(const ServerOptions& options = {});
  ~BettiServer();

  BettiServer(const BettiServer&) = delete;
  BettiServer& operator=(const BettiServer&) = delete;

  /// Starts acceptor/worker/completion threads against \p transport, which
  /// must outlive the server's stop().
  void start(Transport& transport);

  /// Signals shutdown without blocking (safe from reader threads — the
  /// protocol `shutdown` command lands here).
  void request_stop();

  /// Blocks until request_stop() was called (daemon main-loop parking).
  void wait();

  /// Graceful shutdown: stop admission, drain admitted work and the
  /// completion queue, join every thread.  Idempotent.  Must not be called
  /// from one of the server's own threads.
  void stop();

  ServerStats stats() const;

  /// Synchronous single-request execution through the caches — the same
  /// code path the workers run, minus queueing.  Exposed for tests and the
  /// smoke driver.
  EstimateResponse handle(const EstimateRequest& request);

 private:
  struct Pending {
    EstimateRequest request;
    std::shared_ptr<Connection> connection;  ///< null for internal calls
    std::string batch_key;
    bool batchable = false;
    std::chrono::steady_clock::time_point deadline{};
    bool has_deadline = false;
    std::chrono::steady_clock::time_point admitted_at{};  ///< queue-wait /
                                                          ///< latency origin
  };

  void acceptor_loop(Transport* transport);
  void reader_loop(std::shared_ptr<Connection> connection);
  void worker_loop();
  void completion_loop();

  /// Queues \p pending unless the admission bound is hit; false = shed
  /// (the caller answers with `overloaded`).
  bool admit(Pending pending);
  void complete(const std::shared_ptr<Connection>& connection,
                std::string line);
  static std::string batch_key_of(const EstimateRequest& request);
  EstimateResponse execute_single(const EstimateRequest& request);
  void execute_batch(std::vector<Pending> batch);
  std::size_t clamped_shards(const EstimatorOptions& options) const;
  std::string stats_line() const;
  std::string metrics_json_line() const;
  std::string metrics_prometheus_text() const;

  friend struct BettiServerTestAccess;
  /// Test seam, set only through BettiServerTestAccess before start(): runs
  /// on a worker after it dequeues a batch, before executing it.
  std::function<void()> before_execute_;

  ServerOptions options_;
  ArtifactStore store_;

  mutable Mutex queue_mutex_;
  CondVar queue_ready_;
  std::deque<Pending> queue_ QTDA_GUARDED_BY(queue_mutex_);

  Mutex completion_mutex_;
  CondVar completion_ready_;
  std::deque<std::pair<std::shared_ptr<Connection>, std::string>> completions_
      QTDA_GUARDED_BY(completion_mutex_);

  Mutex connections_mutex_;
  std::vector<std::weak_ptr<Connection>> connections_
      QTDA_GUARDED_BY(connections_mutex_);

  Mutex threads_mutex_;
  std::vector<std::thread> reader_threads_ QTDA_GUARDED_BY(threads_mutex_);
  std::thread acceptor_thread_;
  std::vector<std::thread> worker_threads_;
  std::thread completion_thread_;
  Transport* transport_ = nullptr;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> workers_done_{false};
  Mutex stop_mutex_;
  CondVar stop_requested_;

  std::atomic<std::size_t> active_executions_{0};
  std::atomic<std::size_t> admitted_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::size_t> errors_{0};
  std::atomic<std::size_t> batches_{0};
  std::atomic<std::size_t> batched_requests_{0};
  std::atomic<std::size_t> deadline_misses_{0};
  std::atomic<std::size_t> shed_{0};
};

}  // namespace qtda
