// Tests for the serving layer (src/serve/): content-keyed artifact caching,
// protocol round-trips, batched execution, and the bit-identity contract —
// a served estimate must equal the cold CLI path bit for bit, no matter
// which cache levels answered or how requests were coalesced.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "core/betti_estimator.hpp"
#include "linalg/expm_multiply.hpp"
#include "linalg/matrix_exp.hpp"
#include "linalg/sparse_matrix.hpp"
#include "quantum/pauli.hpp"
#include "quantum/statevector.hpp"
#include "quantum/trotter.hpp"
#include "scoped_env.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/client.hpp"
#include "serve/fingerprint.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "server_test_access.hpp"
#include "takens_fixture.hpp"
#include "topology/laplacian.hpp"
#include "topology/point_cloud.hpp"
#include "topology/rips.hpp"

namespace qtda {
namespace {

using testing::ScopedSimulatorEnv;

std::vector<std::vector<double>> circle_points(std::size_t n) {
  std::vector<std::vector<double>> points;
  for (std::size_t i = 0; i < n; ++i) {
    const double angle = 6.283185307179586 * static_cast<double>(i) /
                         static_cast<double>(n);
    points.push_back({std::cos(angle), std::sin(angle)});
  }
  return points;
}

EstimatorOptions sparse_options() {
  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitSparse;
  options.precision_qubits = 3;
  options.shots = 512;
  options.seed = 7;
  return options;
}

// ---------------------------------------------------------------- fingerprints

TEST(ServeFingerprint, NegativeZeroCanonicalized) {
  // −0.0 == +0.0 arithmetically, so the two clouds build identical
  // complexes — the fingerprint must not tell them apart.
  const PointCloud a({{0.0, 1.0}, {2.0, 0.0}});
  const PointCloud b({{-0.0, 1.0}, {2.0, -0.0}});
  EXPECT_EQ(fingerprint_point_cloud(a), fingerprint_point_cloud(b));
}

TEST(ServeFingerprint, DistinctContentDiffers) {
  const PointCloud a({{0.0, 1.0}, {2.0, 0.0}});
  const PointCloud b({{0.0, 1.0}, {2.0, 1e-9}});
  const PointCloud c({{0.0, 1.0}});
  EXPECT_NE(fingerprint_point_cloud(a), fingerprint_point_cloud(b));
  EXPECT_NE(fingerprint_point_cloud(a), fingerprint_point_cloud(c));
}

// ----------------------------------------------------------------- LRU cache

using IntCache = ShardedLruCache<int>;

IntCache::Sized sized_int(int value, std::size_t bytes) {
  return {std::make_shared<const int>(value), bytes};
}

TEST(ServeLruCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  IntCache cache(/*budget_bytes=*/64, /*num_shards=*/1);
  for (int i = 0; i < 3; ++i)
    cache.get_or_create("k" + std::to_string(i), [&] { return sized_int(i, 24); });
  // 3 × 24 = 72 > 64: the oldest entry (k0) must have been evicted.
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, 64u);

  bool hit = true;
  cache.get_or_create("k0", [&] { return sized_int(0, 24); }, &hit);
  EXPECT_FALSE(hit);  // k0 was evicted
  cache.get_or_create("k2", [&] { return sized_int(2, 24); }, &hit);
  EXPECT_TRUE(hit);   // k2 is the hottest entry
}

TEST(ServeLruCache, HitRefreshesRecency) {
  IntCache cache(/*budget_bytes=*/50, /*num_shards=*/1);
  cache.get_or_create("a", [&] { return sized_int(1, 20); });
  cache.get_or_create("b", [&] { return sized_int(2, 20); });
  cache.get_or_create("a", [&] { return sized_int(1, 20); });  // refresh a
  cache.get_or_create("c", [&] { return sized_int(3, 20); });  // evicts b

  bool hit = false;
  cache.get_or_create("a", [&] { return sized_int(1, 20); }, &hit);
  EXPECT_TRUE(hit);
  cache.get_or_create("b", [&] { return sized_int(2, 20); }, &hit);
  EXPECT_FALSE(hit);
}

TEST(ServeLruCache, OversizedValueServedButNeverCached) {
  IntCache cache(/*budget_bytes=*/64, /*num_shards=*/1);
  const auto value = cache.get_or_create(
      "huge", [&] { return sized_int(9, 1000); });
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, 9);
  EXPECT_EQ(cache.stats().entries, 0u);
  bool hit = true;
  cache.get_or_create("huge", [&] { return sized_int(9, 1000); }, &hit);
  EXPECT_FALSE(hit);
}

// ----------------------------------------------------------------- plan keys

TEST(ServePlanKey, EveryAxisSeparatesKeys) {
  ScopedSimulatorEnv env;
  ScopedSimulatorEnv::clear();
  EstimatorOptions base = sparse_options();

  std::set<std::string> keys;
  const auto insert = [&](std::uint64_t fp, int k,
                          const EstimatorOptions& options) {
    keys.insert(ArtifactStore::plan_key(fp, k, options));
  };
  insert(1, 1, base);
  insert(2, 1, base);  // different complex content
  insert(1, 2, base);  // different homology dimension

  EstimatorOptions variant = base;
  variant.precision = Precision::kFloat32;
  insert(1, 1, variant);

  variant = base;
  variant.backend = EstimatorBackend::kCircuitTrotter;
  insert(1, 1, variant);
  variant.trotter.steps = 5;
  insert(1, 1, variant);
  variant.trotter.steps = 5;
  variant.trotter.order = 2;
  insert(1, 1, variant);
  variant.trotter.group_commuting = false;
  insert(1, 1, variant);

  variant = base;
  variant.mixed_state = MixedStateMode::kSampledBasis;
  insert(1, 1, variant);

  variant = base;
  variant.precision_qubits = 5;
  insert(1, 1, variant);

  variant = base;
  variant.delta = 0.25;
  insert(1, 1, variant);

  variant = base;
  variant.exact_reference_max_dim = 0;
  insert(1, 1, variant);

  EXPECT_EQ(keys.size(), 12u);  // no two option sets may collide
}

TEST(ServePlanKey, FusionEnvironmentIsAKeyAxis) {
  ScopedSimulatorEnv env;
  ScopedSimulatorEnv::clear();
  const EstimatorOptions options = sparse_options();
  const std::string fused = ArtifactStore::plan_key(1, 1, options);

  setenv("QTDA_FUSE", "0", 1);
  const std::string unfused = ArtifactStore::plan_key(1, 1, options);
  EXPECT_NE(fused, unfused);

  setenv("QTDA_FUSE", "1", 1);
  setenv("QTDA_FUSE_WIDTH", "2", 1);
  const std::string narrow = ArtifactStore::plan_key(1, 1, options);
  EXPECT_NE(fused, narrow);
  EXPECT_NE(unfused, narrow);
}

// ------------------------------------------------------------- artifact store

TEST(ServeArtifactStore, WarmResolveHitsEveryLevelWithTheSamePlan) {
  ArtifactStore store;
  const PointCloud cloud(circle_points(8));
  const EstimatorOptions options = sparse_options();

  const ResolvedArtifacts cold = store.resolve(cloud, 1.0, 1, options);
  EXPECT_FALSE(cold.complex_hit);
  EXPECT_FALSE(cold.laplacian_hit);
  EXPECT_FALSE(cold.plan_hit);
  ASSERT_NE(cold.plan, nullptr);

  const ResolvedArtifacts warm = store.resolve(cloud, 1.0, 1, options);
  EXPECT_TRUE(warm.complex_hit);
  EXPECT_TRUE(warm.laplacian_hit);
  EXPECT_TRUE(warm.plan_hit);
  EXPECT_EQ(warm.plan.get(), cold.plan.get());  // literally the same artifact
  EXPECT_EQ(store.plan_stats().entries, 1u);
}

TEST(ServeArtifactStore, TranslatedCloudSharesEverythingPastTheComplex) {
  // A rigid translation changes every coordinate (different cloud
  // fingerprint) but no distance: the induced complex is identical, so the
  // Laplacian and plan levels — keyed on the *complex* fingerprint — hit.
  ArtifactStore store;
  const EstimatorOptions options = sparse_options();
  auto points = circle_points(8);
  const ResolvedArtifacts first =
      store.resolve(PointCloud(points), 1.0, 1, options);
  for (auto& p : points) {
    p[0] += 10.0;
    p[1] -= 3.0;
  }
  const ResolvedArtifacts second =
      store.resolve(PointCloud(points), 1.0, 1, options);
  EXPECT_FALSE(second.complex_hit);
  EXPECT_TRUE(second.laplacian_hit);
  EXPECT_TRUE(second.plan_hit);
  EXPECT_EQ(second.plan.get(), first.plan.get());
  EXPECT_EQ(second.complex_fingerprint, first.complex_fingerprint);
}

TEST(ServeArtifactStore, PrecisionNeverAliasesPlans) {
  ArtifactStore store;
  const PointCloud cloud(circle_points(8));
  EstimatorOptions options = sparse_options();
  const ResolvedArtifacts f64 = store.resolve(cloud, 1.0, 1, options);
  options.precision = Precision::kFloat32;
  const ResolvedArtifacts f32 = store.resolve(cloud, 1.0, 1, options);
  EXPECT_FALSE(f32.plan_hit);
  EXPECT_NE(f32.plan.get(), f64.plan.get());
  EXPECT_EQ(store.plan_stats().entries, 2u);
}

TEST(ServeArtifactStore, TinyBudgetStillServesWithoutCaching) {
  // A budget far below one plan's footprint: every resolve computes fresh
  // artifacts (served, never admitted) instead of failing or thrashing.
  ArtifactStoreOptions tiny;
  tiny.budget_bytes = 512;
  tiny.shards = 1;
  ArtifactStore store(tiny);
  const PointCloud cloud(circle_points(8));
  const EstimatorOptions options = sparse_options();
  const ResolvedArtifacts first = store.resolve(cloud, 1.0, 1, options);
  const ResolvedArtifacts second = store.resolve(cloud, 1.0, 1, options);
  ASSERT_NE(first.plan, nullptr);
  ASSERT_NE(second.plan, nullptr);
  EXPECT_FALSE(second.plan_hit);
  EXPECT_EQ(store.plan_stats().entries, 0u);

  // And the fresh plans still agree bit for bit.
  const BettiEstimate a = estimate_betti_with_plan(first.plan->compiled, options);
  const BettiEstimate b =
      estimate_betti_with_plan(second.plan->compiled, options);
  EXPECT_EQ(a.zero_counts, b.zero_counts);
}

// ----------------------------------------------------------------- protocol

TEST(ServeProtocol, RequestRoundTrips) {
  EstimateRequest request;
  request.id = "r42";
  request.epsilon = 1.0 / 3.0;
  request.k = 2;
  request.options.backend = EstimatorBackend::kCircuitTrotter;
  request.options.precision_qubits = 5;
  request.options.shots = 123;
  request.options.seed = 99;
  request.options.delta = 0.1;
  request.options.mixed_state = MixedStateMode::kSampledBasis;
  request.options.precision = Precision::kFloat32;
  request.options.trotter.steps = 3;
  request.options.trotter.order = 2;
  request.deadline_ms = 250;
  request.points = {{0.1, 0.2}, {1.0 / 7.0, -0.25}};

  const EstimateRequest parsed = parse_request(format_request(request));
  EXPECT_EQ(parsed.id, request.id);
  EXPECT_EQ(parsed.epsilon, request.epsilon);  // %.17g round-trips exactly
  EXPECT_EQ(parsed.k, request.k);
  EXPECT_EQ(parsed.options.backend, request.options.backend);
  EXPECT_EQ(parsed.options.precision_qubits, request.options.precision_qubits);
  EXPECT_EQ(parsed.options.shots, request.options.shots);
  EXPECT_EQ(parsed.options.seed, request.options.seed);
  EXPECT_EQ(parsed.options.delta, request.options.delta);
  EXPECT_EQ(parsed.options.mixed_state, request.options.mixed_state);
  EXPECT_EQ(parsed.options.precision, request.options.precision);
  EXPECT_EQ(parsed.options.trotter.steps, request.options.trotter.steps);
  EXPECT_EQ(parsed.options.trotter.order, request.options.trotter.order);
  EXPECT_EQ(parsed.deadline_ms, request.deadline_ms);
  EXPECT_EQ(parsed.points, request.points);
}

TEST(ServeProtocol, ResponseRoundTrips) {
  EstimateResponse response;
  response.id = "r7";
  response.ok = true;
  response.estimate.estimated_betti = 1.0 + 1.0 / 3.0;
  response.estimate.rounded_betti = 1;
  response.estimate.zero_probability = 0.125;
  response.estimate.exact_zero_probability = 0.126;
  response.estimate.zero_counts = 64;
  response.estimate.shots = 512;
  response.estimate.system_qubits = 3;
  response.estimate.precision_qubits = 4;
  response.estimate.circuit_gates = 99;
  response.estimate.circuit_depth = 12;
  response.complex_hit = true;
  response.plan_hit = true;
  response.batch_size = 4;

  const EstimateResponse parsed = parse_response(format_response(response));
  EXPECT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.id, response.id);
  EXPECT_EQ(parsed.estimate.estimated_betti, response.estimate.estimated_betti);
  EXPECT_EQ(parsed.estimate.zero_counts, response.estimate.zero_counts);
  EXPECT_EQ(parsed.estimate.shots, response.estimate.shots);
  EXPECT_TRUE(parsed.complex_hit);
  EXPECT_FALSE(parsed.laplacian_hit);
  EXPECT_TRUE(parsed.plan_hit);
  EXPECT_EQ(parsed.batch_size, 4u);
}

TEST(ServeProtocol, ErrorResponseRoundTrips) {
  EstimateResponse response;
  response.id = "r9";
  response.ok = false;
  response.error = "points disagree on dimension";
  const EstimateResponse parsed = parse_response(format_response(response));
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.id, "r9");
  EXPECT_EQ(parsed.error, "points disagree on dimension");
}

TEST(ServeProtocol, MalformedLinesThrow) {
  EXPECT_THROW(classify_request_line("launch_missiles"), Error);
  EXPECT_THROW(parse_request("estimate"), Error);  // no points
  EXPECT_THROW(parse_request("estimate points=1,2;3"), Error);  // ragged
  EXPECT_THROW(parse_request("estimate bogus=1 points=0,0;1,1"), Error);
  EXPECT_EQ(classify_request_line("ping"), ServeCommand::kPing);
  EXPECT_EQ(classify_request_line("stats"), ServeCommand::kStats);
  EXPECT_EQ(classify_request_line("shutdown"), ServeCommand::kShutdown);
}

/// A line whose numbers parse but are not finite must be refused by the
/// parser, so the server answers a non-retryable `protocol` error instead of
/// failing later inside the estimator as `internal`.
void expect_served_protocol_error(const std::string& line) {
  EXPECT_THROW(parse_request(line), Error) << line;
  BettiServer server(ServerOptions{});
  LoopbackTransport transport;
  server.start(transport);
  std::shared_ptr<Connection> connection = transport.connect();
  ASSERT_TRUE(connection->write_line(line));
  const std::optional<std::string> reply = connection->read_line();
  ASSERT_TRUE(reply.has_value());
  const EstimateResponse response = parse_response(*reply);
  EXPECT_FALSE(response.ok) << line;
  EXPECT_EQ(response.code, ServeErrorCode::kProtocol) << response.error;
  EXPECT_FALSE(response.retryable);
  server.stop();
}

TEST(ServeProtocol, NonFiniteEpsIsAProtocolError) {
  expect_served_protocol_error("estimate id=e1 eps=nan points=0,0;1,1");
  expect_served_protocol_error("estimate id=e2 eps=inf points=0,0;1,1");
}

TEST(ServeProtocol, NonFiniteDeltaIsAProtocolError) {
  expect_served_protocol_error(
      "estimate id=d1 eps=1.5 delta=nan points=0,0;1,1");
  expect_served_protocol_error(
      "estimate id=d2 eps=1.5 delta=-inf points=0,0;1,1");
}

TEST(ServeProtocol, UnknownSimulatorIsAProtocolErrorListingValidNames) {
  // Shards are a count on the statevector engine (shards=), not an engine
  // of their own: the retired sharded-statevector name is refused.
  const std::string line =
      "estimate id=s1 eps=1.5 simulator=sharded-statevector points=0,0;1,1";
  expect_served_protocol_error(line);
  try {
    parse_request(line);
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("statevector, density-matrix"),
              std::string::npos)
        << error.what();
  }
}

TEST(ServeProtocol, NonFiniteCoordinateIsAProtocolError) {
  expect_served_protocol_error("estimate id=p1 eps=1.5 points=0,nan;1,1");
  expect_served_protocol_error("estimate id=p2 eps=1.5 points=0,0;inf,1");
}

// ------------------------------------------------------- served bit-identity

TEST(ServeBitIdentity, ServedEstimateMatchesCliPathColdAndWarm) {
  const auto points = circle_points(8);
  const EstimatorOptions options = sparse_options();

  // The cold CLI path the paper experiments run.
  const BettiEstimate cli =
      estimate_betti(rips_complex(PointCloud(points), 1.0, 2), 1, options);

  BettiServer server;
  EstimateRequest request;
  request.id = "t";
  request.points = points;
  request.epsilon = 1.0;
  request.k = 1;
  request.options = options;

  const EstimateResponse cold = server.handle(request);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.plan_hit);
  EXPECT_EQ(cold.estimate.zero_counts, cli.zero_counts);
  EXPECT_EQ(cold.estimate.estimated_betti, cli.estimated_betti);
  EXPECT_EQ(cold.estimate.exact_zero_probability, cli.exact_zero_probability);
  EXPECT_EQ(cold.estimate.rounded_betti, cli.rounded_betti);
  EXPECT_EQ(cold.estimate.circuit_gates, cli.circuit_gates);

  const EstimateResponse warm = server.handle(request);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.plan_hit);
  EXPECT_TRUE(warm.complex_hit);
  EXPECT_TRUE(warm.laplacian_hit);
  EXPECT_EQ(warm.estimate.zero_counts, cli.zero_counts);
  EXPECT_EQ(warm.estimate.estimated_betti, cli.estimated_betti);
}

TEST(ServeBitIdentity, ShardCountNeverChangesServedBytes) {
  // One server per shard count, so each request evolves its own plan
  // (a shared server would answer the second from the first one's memo).
  ScopedSimulatorEnv env;
  ScopedSimulatorEnv::clear();
  const auto served = [](std::size_t shards) {
    BettiServer server;
    EstimateRequest request;
    request.id = "s";
    request.points = circle_points(8);
    request.epsilon = 1.0;
    request.k = 1;
    request.options = sparse_options();
    request.options.shots = 20000;
    request.options.simulator_shards = shards;
    const EstimateResponse response = server.handle(request);
    EXPECT_TRUE(response.ok) << response.error;
    return response;
  };
  const EstimateResponse serial = served(1);
  const EstimateResponse sharded = served(3);
  EXPECT_GE(serial.estimate.total_qubits, 9u);  // sweeps reach the pool
  EXPECT_EQ(format_response(sharded), format_response(serial));
}

TEST(ServeBitIdentity, EmptyComplexShortCircuitsLikeEstimateBetti) {
  BettiServer server;
  EstimateRequest request;
  request.points = {{0.0, 0.0}, {100.0, 0.0}};  // no edges at ε = 1
  request.epsilon = 1.0;
  request.k = 1;
  request.options = sparse_options();
  const EstimateResponse response = server.handle(request);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.estimate.estimated_betti, 0.0);
  EXPECT_EQ(response.estimate.rounded_betti, 0u);
  EXPECT_EQ(response.estimate.shots, request.options.shots);
}

// ------------------------------------------------------------------ batching

TEST(ServeBatch, BatchedExecutionIsBitIdenticalToSerial) {
  const SimplicialComplex complex =
      rips_complex(PointCloud(circle_points(8)), 1.0, 2);
  const SparseMatrix laplacian = sparse_combinatorial_laplacian(complex, 1);
  EstimatorOptions base = sparse_options();
  const CompiledEstimate compiled = compile_betti_estimate(laplacian, base);

  std::vector<EstimatorOptions> requests(5, base);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].seed = 1000 + 17 * i;
    requests[i].shots = 128 + 64 * i;  // shots may vary inside one batch
  }
  const std::vector<BettiEstimate> batched =
      estimate_betti_batch(compiled, requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const BettiEstimate serial =
        estimate_betti_with_plan(compiled, requests[i]);
    EXPECT_EQ(batched[i].zero_counts, serial.zero_counts) << "request " << i;
    EXPECT_EQ(batched[i].estimated_betti, serial.estimated_betti);
    EXPECT_EQ(batched[i].shots, serial.shots);
  }
}

TEST(ServeBatch, RejectsRequestsOutsideTheBatchableRegime) {
  const SimplicialComplex complex =
      rips_complex(PointCloud(circle_points(8)), 1.0, 2);
  const SparseMatrix laplacian = sparse_combinatorial_laplacian(complex, 1);
  EstimatorOptions base = sparse_options();
  const CompiledEstimate compiled = compile_betti_estimate(laplacian, base);

  // Sampled-basis mixtures draw their basis states per request — one shared
  // evolution cannot serve them.
  EstimatorOptions sampled = base;
  sampled.mixed_state = MixedStateMode::kSampledBasis;
  EXPECT_THROW(estimate_betti_batch(compiled, {sampled}), Error);

  // Requests inside one batch must share the engine configuration.
  EstimatorOptions f32 = base;
  f32.precision = Precision::kFloat32;
  EXPECT_THROW(estimate_betti_batch(compiled, {base, f32}), Error);
}

// ----------------------------------------------------- distribution memo

/// The 8-vertex ring's k=1 Laplacian: 8 edges, q = 3 system qubits.
SparseMatrix ring_laplacian() {
  return sparse_combinatorial_laplacian(
      rips_complex(PointCloud(circle_points(8)), 1.0, 2), 1);
}

void expect_bit_identical(const BettiEstimate& actual,
                          const BettiEstimate& expected) {
  EXPECT_EQ(actual.zero_counts, expected.zero_counts);
  EXPECT_EQ(actual.zero_probability, expected.zero_probability);
  EXPECT_EQ(actual.estimated_betti, expected.estimated_betti);
  EXPECT_EQ(actual.rounded_betti, expected.rounded_betti);
  EXPECT_EQ(actual.exact_zero_probability, expected.exact_zero_probability);
  EXPECT_EQ(actual.shots, expected.shots);
  EXPECT_EQ(actual.total_qubits, expected.total_qubits);
  EXPECT_EQ(actual.circuit_gates, expected.circuit_gates);
}

/// Counts `evolve` spans (real state evolutions) from construction on.
class EvolutionCounter {
 public:
  EvolutionCounter() : was_enabled_(telemetry::enabled()) {
    telemetry::set_enabled(true);
    before_ = evolve_.snapshot().count;
  }
  ~EvolutionCounter() { telemetry::set_enabled(was_enabled_); }
  EvolutionCounter(const EvolutionCounter&) = delete;
  EvolutionCounter& operator=(const EvolutionCounter&) = delete;

  std::uint64_t count() const { return evolve_.snapshot().count - before_; }

 private:
  telemetry::Histogram& evolve_ =
      telemetry::registry().histogram("span.evolve");
  bool was_enabled_;
  std::uint64_t before_ = 0;
};

TEST(ServeMemo, MemoHitsAreBitIdenticalToTheColdPath) {
  ScopedSimulatorEnv env;
  ScopedSimulatorEnv::clear();
  const SparseMatrix laplacian = ring_laplacian();
  struct Engine {
    SimulatorKind kind;
    std::size_t shards;
  };
  const Engine engines[] = {{SimulatorKind::kStatevector, 0},
                            {SimulatorKind::kStatevector, 1},
                            {SimulatorKind::kStatevector, 3},
                            {SimulatorKind::kDensityMatrix, 0}};
  for (const Engine& engine : engines) {
    for (const Precision precision :
         {Precision::kFloat64, Precision::kFloat32}) {
      EstimatorOptions options = sparse_options();
      options.simulator = engine.kind;
      options.simulator_shards = engine.shards;
      options.precision = precision;
      const CompiledEstimate compiled =
          compile_betti_estimate(laplacian, options);
      // The first execution fills the memo; every call below is a hit.
      estimate_betti_with_plan(compiled, options);
      ASSERT_TRUE(compiled.distribution.has_value());
      for (const std::uint64_t seed : {7u, 11u}) {
        for (const std::size_t shots : {1u, 100u, 4096u}) {
          SCOPED_TRACE(simulator_kind_name(engine.kind) + " shards=" +
                       std::to_string(engine.shards) + " " +
                       precision_name(precision) + " seed=" +
                       std::to_string(seed) + " shots=" +
                       std::to_string(shots));
          options.seed = seed;
          options.shots = shots;
          const BettiEstimate cold =
              estimate_betti_from_sparse_laplacian(laplacian, options);
          for (int hit = 0; hit < 2; ++hit)
            expect_bit_identical(estimate_betti_with_plan(compiled, options),
                                 cold);
        }
      }
    }
  }
}

TEST(ServeMemo, SwitchingEngineOrPrecisionReplacesTheSlot) {
  ScopedSimulatorEnv env;
  ScopedSimulatorEnv::clear();
  unsetenv("QTDA_PRECISION");  // the precision switch below must be real
  const SparseMatrix laplacian = ring_laplacian();
  const EstimatorOptions f64 = sparse_options();
  EstimatorOptions f32 = f64;
  f32.precision = Precision::kFloat32;
  EstimatorOptions density = f64;
  density.simulator = SimulatorKind::kDensityMatrix;
  const CompiledEstimate compiled = compile_betti_estimate(laplacian, f64);

  EvolutionCounter evolutions;
  std::uint64_t expected = 0;
  const auto run = [&](const EstimatorOptions& options, bool evolves) {
    expected += evolves ? 1 : 0;
    const BettiEstimate cold =
        estimate_betti_from_sparse_laplacian(laplacian, options);
    ++expected;  // the cold path compiles a fresh plan and evolves it
    expect_bit_identical(estimate_betti_with_plan(compiled, options), cold);
    EXPECT_EQ(evolutions.count(), expected);
  };
  run(f64, true);
  run(f64, false);
  run(f32, true);
  run(f32, false);
  run(density, true);
  run(f64, true);

  // The override changes the engine that runs, so it changes the key too.
  setenv("QTDA_SIMULATOR", "density-matrix", 1);
  run(f64, true);
  run(f64, false);
  unsetenv("QTDA_SIMULATOR");
  run(f64, true);
}

TEST(ServeMemo, NoisyAndSampledBasisRequestsBypassTheMemo) {
  const SparseMatrix laplacian = ring_laplacian();
  EstimatorOptions noisy = sparse_options();
  noisy.noise.single_qubit_error = 0.01;
  noisy.noise.two_qubit_error = 0.01;
  noisy.shots = 16;
  // A noise-slot plan also serves noiseless requests: fill its memo first,
  // then check the noisy run still evolves and is unchanged.
  const CompiledEstimate noise_plan = compile_betti_estimate(laplacian, noisy);
  EstimatorOptions noiseless = noisy;
  noiseless.noise = NoiseModel{};
  estimate_betti_with_plan(noise_plan, noiseless);
  ASSERT_TRUE(noise_plan.distribution.has_value());
  {
    EvolutionCounter evolutions;
    expect_bit_identical(
        estimate_betti_with_plan(noise_plan, noisy),
        estimate_betti_from_sparse_laplacian(laplacian, noisy));
    EXPECT_EQ(evolutions.count(), 2u);  // the memo served neither run
  }

  EstimatorOptions sampled = sparse_options();
  sampled.mixed_state = MixedStateMode::kSampledBasis;
  const CompiledEstimate sampled_plan =
      compile_betti_estimate(laplacian, sampled);
  for (int run = 0; run < 2; ++run) {
    expect_bit_identical(
        estimate_betti_with_plan(sampled_plan, sampled),
        estimate_betti_from_sparse_laplacian(laplacian, sampled));
    EXPECT_FALSE(sampled_plan.distribution.has_value());
  }
}

TEST(ServeMemo, CancelledEvolutionLeavesTheMemoEmpty) {
  const SparseMatrix laplacian = ring_laplacian();
  const EstimatorOptions options = sparse_options();
  const CompiledEstimate compiled = compile_betti_estimate(laplacian, options);
  {
    const cancel::ScopedDeadline expired(std::chrono::steady_clock::now() -
                                         std::chrono::seconds(1));
    EXPECT_THROW(estimate_betti_with_plan(compiled, options), CancelledError);
  }
  EXPECT_FALSE(compiled.distribution.has_value());
  expect_bit_identical(
      estimate_betti_with_plan(compiled, options),
      estimate_betti_from_sparse_laplacian(laplacian, options));
  EXPECT_TRUE(compiled.distribution.has_value());
}

TEST(ServeMemo, ServerEvolvesOncePerDistinctPlan) {
  BettiServer server;
  EvolutionCounter evolutions;
  for (const std::size_t t : {2u, 3u}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      EstimateRequest request;
      request.points = circle_points(8);
      request.epsilon = 1.0;
      request.k = 1;
      request.options = sparse_options();
      request.options.precision_qubits = t;
      request.options.seed = seed;
      const EstimateResponse response = server.handle(request);
      ASSERT_TRUE(response.ok) << response.error;
    }
  }
  EXPECT_EQ(evolutions.count(), 2u);  // ten requests on two plans (t = 2, 3)
}

TEST(ServeMemo, MemoryBytesCountTheSlotFromCompileTime) {
  const SparseMatrix laplacian = ring_laplacian();
  const EstimatorOptions options = sparse_options();  // t = 3
  const CompiledEstimate compiled = compile_betti_estimate(laplacian, options);
  // The slot's share is fixed at compile time, before the memo fills.
  const auto slot_bytes = [&compiled] {
    return compiled.memory_bytes() - sizeof(CompiledEstimate) -
           compiled.plan->memory_bytes();
  };
  EXPECT_EQ(slot_bytes(),
            (std::size_t{1} << options.precision_qubits) * sizeof(double));
  estimate_betti_with_plan(compiled, options);
  ASSERT_TRUE(compiled.distribution.has_value());
  EXPECT_EQ(compiled.distribution->probabilities.size(),
            std::size_t{1} << options.precision_qubits);
  EXPECT_EQ(slot_bytes(),
            (std::size_t{1} << options.precision_qubits) * sizeof(double));

  // Sampled-basis plans never fill the slot, so they do not pay for it.
  EstimatorOptions sampled = options;
  sampled.mixed_state = MixedStateMode::kSampledBasis;
  const CompiledEstimate sampled_plan =
      compile_betti_estimate(laplacian, sampled);
  EXPECT_EQ(sampled_plan.memory_bytes(),
            sizeof(CompiledEstimate) + sampled_plan.plan->memory_bytes());
}

// ------------------------------------------------------------ loopback serve

TEST(ServeServer, ConcurrentLoopbackClientsGetBitIdenticalAnswers) {
  const auto points = circle_points(8);
  EstimatorOptions options = sparse_options();
  options.shots = 256;

  // Ground truth per seed via the cold CLI path.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 6;
  const SimplicialComplex complex =
      rips_complex(PointCloud(points), 1.0, 2);
  std::vector<std::uint64_t> expected(kThreads * kPerThread);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EstimatorOptions request_options = options;
    request_options.seed = 100 + i;
    expected[i] = estimate_betti(complex, 1, request_options).zero_counts;
  }

  BettiServer server;
  LoopbackTransport transport;
  server.start(transport);

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      ServeClient client(transport.connect());
      for (int i = 0; i < kPerThread; ++i) {
        const std::size_t index = static_cast<std::size_t>(t * kPerThread + i);
        EstimateRequest request;
        request.points = points;
        request.epsilon = 1.0;
        request.k = 1;
        request.options = options;
        request.options.seed = 100 + index;
        const EstimateResponse response = client.estimate(request);
        if (!response.ok) failures.fetch_add(1);
        else if (response.estimate.zero_counts != expected[index])
          mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  ServeClient observer(transport.connect());
  const std::string stats = observer.stats();
  EXPECT_EQ(stats.rfind("stats ", 0), 0u) << stats;
  EXPECT_NE(stats.find("admitted="), std::string::npos);
  observer.shutdown();
  server.stop();

  const ServerStats totals = server.stats();
  EXPECT_GE(totals.admitted, static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(totals.errors, 0u);
}

TEST(ServeServer, DeadlineDuringCompileCachesNoPlan) {
  // A 19-qubit Takens plan (256-row padded Δ_1 whose largest block has
  // 128 rows, t = 3, purified): its diagnostic eigensolve alone takes over
  // 10 ms, and the solve's checkpoints cancel the compile under a 1 ms
  // budget before the plan reaches the store.
  const std::size_t window = 10;
  const auto clouds = testing::takens_windows();
  EstimateRequest request;
  request.id = "takens";
  request.points = clouds[window].points();
  request.epsilon = testing::takens_epsilon(clouds);
  request.k = 1;
  request.options = sparse_options();

  BettiServer server;
  LoopbackTransport transport;
  server.start(transport);
  std::shared_ptr<Connection> connection = transport.connect();
  const auto round_trip = [&connection](const EstimateRequest& sent) {
    EXPECT_TRUE(connection->write_line(format_request(sent)));
    const std::optional<std::string> reply = connection->read_line();
    return reply ? parse_response(*reply) : EstimateResponse{};
  };

  // The budget can also run out while queued on a loaded host; retry until
  // the miss lands inside the compile.
  EstimateRequest hurried = request;
  hurried.deadline_ms = 1;
  EstimateResponse missed;
  for (int attempt = 0; attempt < 20; ++attempt) {
    missed = round_trip(hurried);
    if (missed.error.find("during execution") != std::string::npos) break;
  }
  EXPECT_FALSE(missed.ok);
  EXPECT_EQ(missed.code, ServeErrorCode::kDeadline) << missed.error;
  EXPECT_NE(missed.error.find("during execution"), std::string::npos)
      << missed.error;
  EXPECT_EQ(server.stats().plans.entries, 0u);

  const EstimateResponse served = round_trip(request);
  ASSERT_TRUE(served.ok) << served.error;
  EXPECT_FALSE(served.plan_hit);
  EXPECT_EQ(served.estimate.total_qubits, 19u);
  EXPECT_EQ(server.stats().plans.entries, 1u);
  const BettiEstimate cold = estimate_betti(
      rips_complex(clouds[window], request.epsilon, 2), 1, request.options);
  expect_bit_identical(served.estimate, cold);
  server.stop();
}

TEST(ServeServer, PlanCacheChargesWhatTakensPlansHold) {
  // The 32 §5 Takens requests (16 windows × k ∈ {0, 1}, t = 3, 15–19
  // qubits): every plan misses, evolves once and stays cached.  What the
  // plan cache charged at insertion must still be what its plans hold
  // afterwards — execution scratch belongs to the engine, not the plan.
  const auto clouds = testing::takens_windows();
  const double epsilon = testing::takens_epsilon(clouds);
  BettiServer server;
  std::vector<EstimateRequest> requests;
  for (std::size_t window = 0; window < clouds.size(); ++window) {
    for (int k = 0; k <= 1; ++k) {
      EstimateRequest request;
      request.points = clouds[window].points();
      request.epsilon = epsilon;
      request.k = k;
      request.options = sparse_options();
      const EstimateResponse response = server.handle(request);
      ASSERT_TRUE(response.ok) << response.error;
      EXPECT_FALSE(response.plan_hit);
      requests.push_back(request);
    }
  }
  const CacheStats charged = server.stats().plans;
  ASSERT_EQ(charged.entries, requests.size());
  EXPECT_EQ(charged.evictions, 0u);

  // Re-resolving hits every level and hands back the cached artifacts.
  ArtifactStore& store = BettiServerTestAccess::store(server);
  std::size_t held = 0;
  for (const EstimateRequest& request : requests) {
    const ResolvedArtifacts artifacts =
        store.resolve(PointCloud(request.points), request.epsilon, request.k,
                      request.options);
    ASSERT_TRUE(artifacts.plan_hit);
    held += artifacts.plan->memory_bytes();
  }
  EXPECT_EQ(held, charged.bytes);
}

TEST(ServeServer, InternalErrorsCarryNoSourceLocation) {
  // A 14-qubit register on the density-matrix engine (at most 13 qubits)
  // fails inside the estimator, after every admission check passed.
  ScopedSimulatorEnv env;
  ScopedSimulatorEnv::clear();
  BettiServer server;
  LoopbackTransport transport;
  server.start(transport);
  EstimateRequest request;
  request.id = "wide";
  request.points = circle_points(8);  // q = 3: t + 2q = 14 qubits
  request.epsilon = 1.0;
  request.k = 1;
  request.options = sparse_options();
  request.options.precision_qubits = 8;
  request.options.simulator = SimulatorKind::kDensityMatrix;
  std::shared_ptr<Connection> connection = transport.connect();
  ASSERT_TRUE(connection->write_line(format_request(request)));
  const std::optional<std::string> reply = connection->read_line();
  ASSERT_TRUE(reply.has_value());
  const EstimateResponse response = parse_response(*reply);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, ServeErrorCode::kInternal) << response.error;
  EXPECT_FALSE(response.retryable);
  EXPECT_NE(response.error.find("density-matrix"), std::string::npos)
      << response.error;
  EXPECT_EQ(response.error.find(".cpp:"), std::string::npos) << response.error;
  EXPECT_EQ(response.error.find(".hpp:"), std::string::npos) << response.error;
  EXPECT_NE(response.error.front(), '/') << response.error;
  EXPECT_EQ(response.error.find(" /"), std::string::npos) << response.error;
  server.stop();
}

// --------------------------------------------------------- expm memo bounds

TEST(ServeExpmCache, CountsHitsAndMissesAndStaysBounded) {
  expm_coefficient_cache_clear();
  ExpmCoefficientCacheStats stats = expm_coefficient_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);

  const SparseMatrix a = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {1, 1, 2.0}});
  const SparseExpOperator first(a, 0.5, 0.0, 2.0);
  stats = expm_coefficient_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);

  const SparseExpOperator second(a, 0.5, 0.0, 2.0);
  stats = expm_coefficient_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(second.coefficients().get(), first.coefficients().get());

  // Flood with distinct θ: the memo must evict instead of growing without
  // bound (the long-running daemon condition).
  for (int i = 0; i < 600; ++i)
    SparseExpOperator flood(a, 0.5 + 0.001 * (i + 1), 0.0, 2.0);
  stats = expm_coefficient_cache_stats();
  EXPECT_LE(stats.entries, 512u);
  EXPECT_GE(stats.evictions, 89u);  // 601 distinct keys into 512 slots
  expm_coefficient_cache_clear();
  EXPECT_EQ(expm_coefficient_cache_stats().entries, 0u);
}

// ----------------------------------------------------------- trotter grouping

TEST(TrotterGrouping, PartitionsBySharedBasisSignature) {
  const PauliSum sum({{0.3, PauliString("XZ")},
                      {0.5, PauliString("XI")},
                      {0.7, PauliString("ZI")},
                      {0.9, PauliString("IZ")},
                      {1.1, PauliString("YY")}});
  const auto groups = group_commuting_terms(sum);
  ASSERT_EQ(groups.size(), 3u);
  // First-occurrence order, original order inside each family.
  ASSERT_EQ(groups[0].size(), 2u);
  EXPECT_EQ(groups[0][0].string.to_string(), "XZ");
  EXPECT_EQ(groups[0][1].string.to_string(), "XI");
  ASSERT_EQ(groups[1].size(), 2u);
  EXPECT_EQ(groups[1][0].string.to_string(), "ZI");
  EXPECT_EQ(groups[1][1].string.to_string(), "IZ");
  ASSERT_EQ(groups[2].size(), 1u);
  EXPECT_EQ(groups[2][0].string.to_string(), "YY");
  EXPECT_EQ(groups[2][0].coefficient, 1.1);
}

TEST(TrotterGrouping, GroupedCircuitIsSmallerAndExactForACommutingFamily) {
  // XZ and XI share the basis signature X⊗I: one wall pair serves both, and
  // because they commute exactly the grouped and ungrouped circuits realize
  // the *same* unitary — so here grouping must change gate count only.
  const PauliSum sum({{0.3, PauliString("XZ")}, {0.5, PauliString("XI")}});
  const double time = 0.9;
  TrotterOptions grouped_options;
  grouped_options.group_commuting = true;
  TrotterOptions ungrouped_options;
  ungrouped_options.group_commuting = false;
  const Circuit grouped = trotter_circuit(sum, time, grouped_options, 2);
  const Circuit ungrouped = trotter_circuit(sum, time, ungrouped_options, 2);
  EXPECT_LT(grouped.gate_count(), ungrouped.gate_count());

  double worst = 0.0;
  for (std::uint64_t basis = 0; basis < 4; ++basis) {
    Statevector g(2), u(2);
    g.set_basis_state(basis);
    u.set_basis_state(basis);
    g.apply_circuit(grouped);
    u.apply_circuit(ungrouped);
    for (std::uint64_t row = 0; row < 4; ++row)
      worst = std::max(worst, std::abs(g.amplitude(row) - u.amplitude(row)));
  }
  EXPECT_LT(worst, 1e-12);

  // And both match the dense reference e^{i·t·H} (commuting ⇒ no Trotter
  // error even in one step).
  RealMatrix h(4, 4);
  const ComplexMatrix dense = sum.matrix();
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) h(r, c) = dense(r, c).real();
  const ComplexMatrix reference = unitary_exp(h, time);
  double vs_reference = 0.0;
  for (std::uint64_t col = 0; col < 4; ++col) {
    Statevector g(2);
    g.set_basis_state(col);
    g.apply_circuit(grouped);
    for (std::uint64_t row = 0; row < 4; ++row)
      vs_reference = std::max(vs_reference,
                              std::abs(g.amplitude(row) - reference(row, col)));
  }
  EXPECT_LT(vs_reference, 1e-12);
}

}  // namespace
}  // namespace qtda
