/// \file protocol.hpp
/// \brief The qtda_serve line protocol.
///
/// One request or response per newline-terminated line of space-separated
/// `key=value` tokens — trivially debuggable with `socat` and free of any
/// serialization dependency.  Doubles travel as %.17g, which round-trips
/// every finite IEEE-754 double exactly: the server parses bit-identical
/// parameters to what the client computed, a precondition for the serving
/// layer's bit-identity guarantee.
///
/// Requests:
///   estimate id=7 eps=0.5 k=1 t=4 shots=1000 seed=42 backend=sparse
///            mixed=purify simulator=statevector shards=1 precision=float64
///            deadline_ms=0 points=0,0;1,0;0.5,0.87
///   stats
///   metrics            (JSON telemetry payload on one line)
///   metrics format=prometheus   (multi-line text ending with "# EOF")
///   ping
///   shutdown
///
/// Responses (matched to requests by id, possibly out of order):
///   ok id=7 betti=1 rounded=1 p0=0.25 exact_p0=0.25 q=2 t=4 shots=1000
///      gates=123 depth=40 complex=hit laplacian=hit plan=miss batch=3
///   error id=7 code=overloaded retryable=1 retry_after_ms=5 msg=...
///
/// Error responses carry a stable code from the serve error taxonomy (see
/// errors.hpp) plus its retryable flag, so clients decide retry-vs-fail
/// without string matching; retry_after_ms appears only when the server
/// suggests a backoff (load shedding).  Parsers tolerate old-style
/// `error id=.. msg=..` lines (code defaults to internal, not retryable).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/betti_estimator.hpp"
#include "serve/errors.hpp"
#include "topology/point_cloud.hpp"

namespace qtda {

/// A parsed `estimate` request.
struct EstimateRequest {
  EstimateRequest() { options.backend = EstimatorBackend::kCircuitSparse; }

  std::string id;             ///< client-chosen correlation token
  double epsilon = 1.0;       ///< Rips grouping scale ε
  int k = 1;                  ///< homology dimension
  EstimatorOptions options;   ///< backend defaults to kCircuitSparse (the
                              ///< serving path; EstimatorOptions' own
                              ///< default is the analytic backend)
  std::uint64_t deadline_ms = 0;  ///< 0 = no deadline (queue-time budget)
  std::vector<std::vector<double>> points;
};

/// A response to one request.
struct EstimateResponse {
  std::string id;
  bool ok = false;
  std::string error;          ///< set when !ok (free-text message)
  ServeErrorCode code = ServeErrorCode::kNone;  ///< taxonomy code when !ok
  bool retryable = false;     ///< whether the client may retry (when !ok)
  std::uint64_t retry_after_ms = 0;  ///< backoff hint; 0 = none
  BettiEstimate estimate;     ///< valid when ok
  bool complex_hit = false;
  bool laplacian_hit = false;
  bool plan_hit = false;
  std::size_t batch_size = 1; ///< requests served by the shared execution
};

/// Non-estimate commands a server line can carry.
enum class ServeCommand { kEstimate, kStats, kMetrics, kPing, kShutdown };

/// Classifies a request line; kEstimate lines still need parse_request.
ServeCommand classify_request_line(const std::string& line);

/// Parses an `estimate` line.  Throws Error with a protocol-level message
/// on malformed input (unknown key, bad number, missing points).
EstimateRequest parse_request(const std::string& line);

/// Renders a request (the client half; inverse of parse_request).
std::string format_request(const EstimateRequest& request);

/// Renders / parses a response line.
std::string format_response(const EstimateResponse& response);
EstimateResponse parse_response(const std::string& line);

/// %.17g double rendering shared by protocol and cache keys.
std::string format_double(double value);

}  // namespace qtda
