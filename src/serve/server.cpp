#include "serve/server.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <sstream>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "quantum/precision.hpp"
#include "serve/errors.hpp"
#include "serve/metrics.hpp"

namespace qtda {

namespace {

/// Builds a typed error response (taxonomy code, retryable flag, optional
/// backoff hint) and records the per-code telemetry counter.
EstimateResponse make_error(std::string id, ServeErrorCode code,
                            std::string message,
                            std::uint64_t retry_after_ms = 0) {
  EstimateResponse response;
  response.id = std::move(id);
  response.ok = false;
  response.code = code;
  response.retryable = serve_error_retryable(code);
  response.retry_after_ms = retry_after_ms;
  response.error = std::move(message);
  count_serve_error(code);
  return response;
}

/// Logs \p error in full under \p context and returns the text the wire
/// may carry: without the source location a qtda error's what() starts with.
std::string logged_wire_message(const char* context,
                                const std::exception& error) {
  QTDA_ERROR << context << ": " << error.what();
  const auto* located = dynamic_cast<const Error*>(&error);
  return located != nullptr ? located->message() : error.what();
}

/// Best-effort id extraction from a raw request line (for errors on lines
/// that never reach parse_request, like oversized frames).
std::string request_id_of(const std::string& line) {
  const auto pos = line.find(" id=");
  if (pos == std::string::npos) return "";
  const auto start = pos + 4;
  const auto end = line.find(' ', start);
  return line.substr(start, end == std::string::npos ? std::string::npos
                                                     : end - start);
}

/// First limit the request violates, or "" when it fits them all.
std::string check_limits(const EstimateRequest& request,
                         const RequestLimits& limits) {
  std::ostringstream out;
  if (request.points.size() > limits.max_points) {
    out << "points=" << request.points.size() << " exceeds max_points="
        << limits.max_points;
  } else if (request.options.precision_qubits > limits.max_precision_qubits) {
    out << "t=" << request.options.precision_qubits
        << " exceeds max_precision_qubits=" << limits.max_precision_qubits;
  } else if (request.options.shots > limits.max_shots) {
    out << "shots=" << request.options.shots << " exceeds max_shots="
        << limits.max_shots;
  }
  return out.str();
}

/// Serve-side histograms, resolved once (registry entries are immortal).
struct ServeHistograms {
  telemetry::Histogram& queue_wait =
      telemetry::registry().histogram("serve.queue_wait_ns");
  telemetry::Histogram& batch_size =
      telemetry::registry().histogram("serve.batch_size");
  telemetry::Histogram& request_latency =
      telemetry::registry().histogram("serve.request_ns");
};

ServeHistograms& serve_histograms() {
  static ServeHistograms histograms;
  return histograms;
}

telemetry::Gauge& queue_depth_gauge() {
  static telemetry::Gauge& gauge =
      telemetry::registry().gauge("serve.queue_depth");
  return gauge;
}

std::uint64_t ns_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

BettiServer::BettiServer(const ServerOptions& options)
    : options_(options), store_(options.cache) {
  if (options_.workers == 0) options_.workers = 1;
}

BettiServer::~BettiServer() { stop(); }

void BettiServer::start(Transport& transport) {
  QTDA_REQUIRE(transport_ == nullptr, "server already started");
  if (options_.telemetry) telemetry::set_enabled(true);
  transport_ = &transport;
  completion_thread_ = std::thread([this] { completion_loop(); });
  for (std::size_t i = 0; i < options_.workers; ++i)
    worker_threads_.emplace_back([this] { worker_loop(); });
  acceptor_thread_ = std::thread([this] { acceptor_loop(transport_); });
}

void BettiServer::request_stop() {
  {
    MutexLock lock(stop_mutex_);
    stopping_.store(true);
  }
  stop_requested_.notify_all();
  // Unblock the acceptor and every parked worker so the drain can begin.
  if (transport_ != nullptr) transport_->shutdown();
  queue_ready_.notify_all();
}

void BettiServer::wait() {
  MutexLock lock(stop_mutex_);
  while (!stopping_.load()) stop_requested_.wait(stop_mutex_);
}

void BettiServer::stop() {
  if (stopped_.exchange(true)) return;
  request_stop();
  // Close connections: readers blocked on idle streams wake with EOF.  The
  // admission queue still holds whatever those readers admitted — workers
  // drain it below before exiting (graceful: admitted work completes).
  {
    MutexLock lock(connections_mutex_);
    for (const auto& weak : connections_)
      if (auto connection = weak.lock()) connection->close();
  }
  if (acceptor_thread_.joinable()) acceptor_thread_.join();
  {
    MutexLock lock(threads_mutex_);
    for (std::thread& reader : reader_threads_)
      if (reader.joinable()) reader.join();
  }
  for (std::thread& worker : worker_threads_)
    if (worker.joinable()) worker.join();
  // Workers are gone: no further completions can be produced, so the
  // writer may exit as soon as it drains what is queued.
  workers_done_.store(true);
  completion_ready_.notify_all();
  if (completion_thread_.joinable()) completion_thread_.join();
}

void BettiServer::acceptor_loop(Transport* transport) {
  while (!stopping_.load()) {
    std::shared_ptr<Connection> connection = transport->accept();
    if (connection == nullptr) break;
    {
      MutexLock lock(connections_mutex_);
      connections_.push_back(connection);
    }
    MutexLock lock(threads_mutex_);
    reader_threads_.emplace_back(
        [this, connection] { reader_loop(connection); });
  }
}

void BettiServer::reader_loop(std::shared_ptr<Connection> connection) {
  for (;;) {
    const std::optional<std::string> line = connection->read_line();
    if (!line.has_value()) return;  // peer gone or server closing
    if (line->empty()) continue;
    if (line->size() > options_.limits.max_line_bytes) {
      // Refuse before parsing: the size check is the only work an
      // arbitrarily large frame gets to cause.
      connection->write_line(format_response(make_error(
          request_id_of(*line), ServeErrorCode::kLimit,
          "request line of " + std::to_string(line->size()) +
              " bytes exceeds max_line_bytes=" +
              std::to_string(options_.limits.max_line_bytes))));
      errors_.fetch_add(1);
      continue;
    }
    try {
      switch (classify_request_line(*line)) {
        case ServeCommand::kPing:
          connection->write_line("pong");
          break;
        case ServeCommand::kStats:
          connection->write_line(stats_line());
          break;
        case ServeCommand::kMetrics:
          if (line->find("format=prometheus") != std::string::npos) {
            // Multi-line exposition: each line is one protocol frame; the
            // "# EOF" terminator tells the scraper when to stop reading.
            std::istringstream text(metrics_prometheus_text());
            std::string metric_line;
            while (std::getline(text, metric_line))
              connection->write_line(metric_line);
          } else {
            connection->write_line("metrics " + metrics_json_line());
          }
          break;
        case ServeCommand::kShutdown:
          connection->write_line("ok id=shutdown");
          request_stop();
          return;
        case ServeCommand::kEstimate: {
          EstimateRequest request = parse_request(*line);
          if (stopping_.load()) {
            connection->write_line(format_response(
                make_error(request.id, ServeErrorCode::kShutdown,
                           "server shutting down")));
            break;
          }
          const std::string violation =
              check_limits(request, options_.limits);
          if (!violation.empty()) {
            connection->write_line(format_response(make_error(
                request.id, ServeErrorCode::kLimit, violation)));
            errors_.fetch_add(1);
            break;
          }
          Pending pending;
          pending.batch_key = batch_key_of(request);
          pending.batchable =
              options_.batching &&
              (request.options.backend == EstimatorBackend::kCircuitSparse ||
               request.options.backend == EstimatorBackend::kCircuitTrotter) &&
              request.options.mixed_state == MixedStateMode::kPurification;
          if (request.deadline_ms > 0) {
            pending.has_deadline = true;
            pending.deadline = std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(request.deadline_ms);
          }
          pending.request = std::move(request);
          pending.connection = connection;
          const std::string id = pending.request.id;
          if (!admit(std::move(pending))) {
            connection->write_line(format_response(make_error(
                id, ServeErrorCode::kOverloaded,
                "admission queue full — retry after backoff",
                options_.shed_retry_after_ms)));
          }
          break;
        }
      }
    } catch (const std::exception& error) {
      // Deliberately id-less even when the line carried an id= token: a
      // line that failed to classify or parse may be a corrupted frame, and
      // attributing a non-retryable error to an id extracted from corrupt
      // bytes would mis-answer some other request.  Clients recover via
      // their per-attempt timeout.
      connection->write_line(format_response(
          make_error("", ServeErrorCode::kProtocol,
                     logged_wire_message("protocol error", error))));
    }
  }
}

bool BettiServer::admit(Pending pending) {
  pending.admitted_at = std::chrono::steady_clock::now();
  {
    MutexLock lock(queue_mutex_);
    if (options_.max_queue > 0 && queue_.size() >= options_.max_queue) {
      shed_.fetch_add(1);
      return false;
    }
    // Increment before the push (still under the lock) so the worker's
    // decrement after popping can never observe the gauge below zero.
    if (telemetry::enabled()) queue_depth_gauge().add(1);
    queue_.push_back(std::move(pending));
  }
  admitted_.fetch_add(1);
  queue_ready_.notify_one();
  return true;
}

void BettiServer::worker_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      MutexLock lock(queue_mutex_);
      while (!stopping_.load() && queue_.empty()) queue_ready_.wait(queue_mutex_);
      if (queue_.empty()) return;  // stopping and drained: graceful exit
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      if (batch.front().batchable) {
        // Coalesce: sweep the queue for identical-plan requests.  FIFO
        // order is preserved inside the batch; requests with other keys
        // keep their queue positions.
        for (auto it = queue_.begin(); it != queue_.end();) {
          if (it->batchable && it->batch_key == batch.front().batch_key) {
            batch.push_back(std::move(*it));
            it = queue_.erase(it);
          } else {
            ++it;
          }
        }
      }
    }
    if (before_execute_) before_execute_();
    if (telemetry::enabled()) {
      queue_depth_gauge().add(-static_cast<std::int64_t>(batch.size()));
      for (const Pending& pending : batch)
        serve_histograms().queue_wait.record(ns_since(pending.admitted_at));
    }
    active_executions_.fetch_add(1);
    try {
      execute_batch(std::move(batch));
    } catch (...) {
      // Poison-request isolation: execute_batch answers its members from
      // its own handlers, so anything landing here is unexpected — log and
      // keep the worker alive rather than losing an executor thread.
      QTDA_ERROR << "worker: unexpected exception escaped execution";
      errors_.fetch_add(1);
    }
    active_executions_.fetch_sub(1);
  }
}

void BettiServer::completion_loop() {
  for (;;) {
    std::pair<std::shared_ptr<Connection>, std::string> item;
    {
      MutexLock lock(completion_mutex_);
      while (completions_.empty() && !workers_done_.load())
        completion_ready_.wait(completion_mutex_);
      if (completions_.empty()) return;  // workers joined and queue drained
      item = std::move(completions_.front());
      completions_.pop_front();
    }
    // Count before relaying: a client that has received its response (and
    // immediately scrapes `metrics` or `stats`) must observe the completion
    // — the write below happens-after this increment on this thread, and
    // the client's scrape happens-after the write.
    completed_.fetch_add(1);
    if (item.first != nullptr) item.first->write_line(item.second);
  }
}

void BettiServer::complete(const std::shared_ptr<Connection>& connection,
                           std::string line) {
  {
    MutexLock lock(completion_mutex_);
    completions_.emplace_back(connection, std::move(line));
  }
  completion_ready_.notify_one();
}

std::string BettiServer::batch_key_of(const EstimateRequest& request) {
  // Cloud *content* (canonicalized fingerprint), the complex parameters,
  // the full plan-key axes, and the engine: requests equal on all of these
  // run the identical evolution and may share it.  Clouds that differ but
  // induce the same complex still share the cached plan — they just do not
  // coalesce into one execution (the batch key must be computable at
  // admission, before the Rips expansion runs).
  std::string key = "cloud=" +
                    fingerprint_hex(fingerprint_point_cloud(
                        PointCloud(request.points))) +
                    "|eps=" + format_double(request.epsilon);
  key += "|" + ArtifactStore::plan_key(0, request.k, request.options);
  key += "|sim=" + simulator_kind_name(request.options.simulator);
  key += "|shards=" + std::to_string(request.options.simulator_shards);
  // shots and seed are intentionally NOT key axes: they vary per request
  // inside one batched execution.
  return key;
}

std::size_t BettiServer::clamped_shards(const EstimatorOptions& options) const {
  if (options.simulator != SimulatorKind::kStatevector ||
      options.simulator_shards <= 1)
    return options.simulator_shards;
  const std::size_t share =
      fair_thread_share(std::max<std::size_t>(1, active_executions_.load()));
  return std::max<std::size_t>(1, std::min(options.simulator_shards, share));
}

EstimateResponse BettiServer::execute_single(const EstimateRequest& request) {
  EstimateResponse response;
  response.id = request.id;
  try {
    const PointCloud cloud(request.points);
    EstimatorOptions options = request.options;
    options.simulator_shards = clamped_shards(options);
    const ResolvedArtifacts artifacts =
        store_.resolve(cloud, request.epsilon, request.k, options);
    response.complex_hit = artifacts.complex_hit;
    response.laplacian_hit = artifacts.laplacian_hit;
    response.plan_hit = artifacts.plan_hit;
    if (artifacts.laplacian == nullptr) {
      // No k-simplices: exact zero estimate, mirroring estimate_betti.
      response.estimate.shots = options.shots;
      response.estimate.precision_qubits = options.precision_qubits;
      response.ok = true;
      return response;
    }
    if (artifacts.plan != nullptr) {
      MutexLock lock(artifacts.plan->exec_mutex);
      response.estimate =
          estimate_betti_with_plan(artifacts.plan->compiled, options);
    } else {
      // Analytic / dense-oracle backends: cold functions over the cached
      // Laplacian (they densify internally and carry no reusable plan).
      response.estimate =
          estimate_betti_from_sparse_laplacian(*artifacts.laplacian, options);
    }
    response.ok = true;
  } catch (const CancelledError&) {
    response = make_error(request.id, ServeErrorCode::kDeadline,
                          "deadline exceeded during execution");
    deadline_misses_.fetch_add(1);
    errors_.fetch_add(1);
  } catch (const std::exception& error) {
    response = make_error(request.id, ServeErrorCode::kInternal,
                          logged_wire_message("internal error", error));
    errors_.fetch_add(1);
  } catch (...) {
    // Poison request: even a non-standard exception must not take the
    // worker down — answer and move on.
    response = make_error(request.id, ServeErrorCode::kInternal,
                          "unexpected non-standard exception");
    errors_.fetch_add(1);
  }
  return response;
}

EstimateResponse BettiServer::handle(const EstimateRequest& request) {
  return execute_single(request);
}

void BettiServer::execute_batch(std::vector<Pending> batch) {
  // Expired-deadline requests answer immediately without occupying the
  // execution below.
  const auto now = std::chrono::steady_clock::now();
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (Pending& pending : batch) {
    if (pending.has_deadline && now > pending.deadline) {
      deadline_misses_.fetch_add(1);
      errors_.fetch_add(1);
      complete(pending.connection,
               format_response(make_error(pending.request.id,
                                          ServeErrorCode::kDeadline,
                                          "deadline exceeded while queued")));
    } else {
      live.push_back(std::move(pending));
    }
  }
  if (live.empty()) return;

  // Execution deadline: armed only when *every* live member carries one —
  // a deadline-free request must not be cancelled by a neighbor's budget —
  // and set to the latest member deadline (checkpoints fire inside the
  // shared evolution, which serves the whole batch).
  std::optional<cancel::ScopedDeadline> execution_deadline;
  {
    bool all_have_deadlines = true;
    std::chrono::steady_clock::time_point latest{};
    for (const Pending& pending : live) {
      if (!pending.has_deadline) {
        all_have_deadlines = false;
        break;
      }
      latest = std::max(latest, pending.deadline);
    }
    if (all_have_deadlines) execution_deadline.emplace(latest);
  }

  QTDA_SPAN("request");
  // End-to-end latency is measured at response formatting (the completion
  // writer only relays), so a scrape never sees a served request missing
  // from the histogram that a client already heard back about.
  const auto finish = [this](const Pending& pending, std::string line) {
    if (telemetry::enabled())
      serve_histograms().request_latency.record(ns_since(pending.admitted_at));
    complete(pending.connection, std::move(line));
  };
  if (telemetry::enabled())
    serve_histograms().batch_size.record(live.size());

  if (live.size() == 1) {
    EstimateResponse response = execute_single(live.front().request);
    finish(live.front(), format_response(response));
    return;
  }

  // Identical-plan batch: resolve once, evolve once, sample per request.
  try {
    const EstimateRequest& head = live.front().request;
    const PointCloud cloud(head.points);
    EstimatorOptions base = head.options;
    base.simulator_shards = clamped_shards(base);
    const ResolvedArtifacts artifacts =
        store_.resolve(cloud, head.epsilon, head.k, base);
    if (artifacts.laplacian == nullptr || artifacts.plan == nullptr) {
      // Degenerate (empty complex) or non-plan fallback: serve serially.
      for (const Pending& pending : live) {
        EstimateResponse response = execute_single(pending.request);
        response.batch_size = 1;
        finish(pending, format_response(response));
      }
      return;
    }
    std::vector<EstimatorOptions> request_options;
    request_options.reserve(live.size());
    for (const Pending& pending : live) {
      EstimatorOptions options = pending.request.options;
      options.simulator_shards = base.simulator_shards;
      request_options.push_back(options);
    }
    std::vector<BettiEstimate> estimates;
    {
      MutexLock lock(artifacts.plan->exec_mutex);
      estimates = estimate_betti_batch(artifacts.plan->compiled,
                                       request_options);
    }
    batches_.fetch_add(1);
    batched_requests_.fetch_add(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      EstimateResponse response;
      response.id = live[i].request.id;
      response.ok = true;
      response.estimate = estimates[i];
      response.complex_hit = artifacts.complex_hit;
      response.laplacian_hit = artifacts.laplacian_hit;
      response.plan_hit = artifacts.plan_hit;
      response.batch_size = live.size();
      finish(live[i], format_response(response));
    }
  } catch (const CancelledError&) {
    // The shared evolution ran out of deadline: every member of the batch
    // shares the outcome (re-running survivors would duplicate work the
    // clients will retry anyway — and with per-member deadlines all in the
    // past, they would cancel again immediately).
    for (const Pending& pending : live) {
      deadline_misses_.fetch_add(1);
      errors_.fetch_add(1);
      finish(pending,
             format_response(make_error(pending.request.id,
                                        ServeErrorCode::kDeadline,
                                        "deadline exceeded during execution")));
    }
  } catch (const std::exception& error) {
    const std::string message = logged_wire_message("internal error", error);
    for (const Pending& pending : live) {
      errors_.fetch_add(1);
      finish(pending, format_response(make_error(pending.request.id,
                                                 ServeErrorCode::kInternal,
                                                 message)));
    }
  }
}

ServerStats BettiServer::stats() const {
  ServerStats stats;
  stats.complexes = store_.complex_stats();
  stats.laplacians = store_.laplacian_stats();
  stats.plans = store_.plan_stats();
  stats.expm = expm_coefficient_cache_stats();
  stats.admitted = admitted_.load();
  stats.completed = completed_.load();
  stats.errors = errors_.load();
  stats.batches = batches_.load();
  stats.batched_requests = batched_requests_.load();
  stats.deadline_misses = deadline_misses_.load();
  stats.shed = shed_.load();
  return stats;
}

std::string BettiServer::stats_line() const {
  const ServerStats stats = this->stats();
  std::ostringstream out;
  const auto cache = [&out](const char* name, const CacheStats& level) {
    out << ' ' << name << "_hits=" << level.hits << ' ' << name
        << "_misses=" << level.misses << ' ' << name
        << "_evictions=" << level.evictions << ' ' << name
        << "_entries=" << level.entries << ' ' << name
        << "_bytes=" << level.bytes;
  };
  out << "stats admitted=" << stats.admitted
      << " completed=" << stats.completed << " errors=" << stats.errors
      << " batches=" << stats.batches
      << " batched_requests=" << stats.batched_requests
      << " deadline_misses=" << stats.deadline_misses
      << " shed=" << stats.shed;
  cache("complex", stats.complexes);
  cache("laplacian", stats.laplacians);
  cache("plan", stats.plans);
  out << " expm_hits=" << stats.expm.hits
      << " expm_misses=" << stats.expm.misses
      << " expm_evictions=" << stats.expm.evictions
      << " expm_entries=" << stats.expm.entries;
  return out.str();
}

std::string BettiServer::metrics_json_line() const {
  const ServerStats stats = this->stats();
  return render_metrics_json(collect_metrics(&stats));
}

std::string BettiServer::metrics_prometheus_text() const {
  const ServerStats stats = this->stats();
  return render_prometheus(collect_metrics(&stats));
}

}  // namespace qtda
