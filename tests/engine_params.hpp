/// \file engine_params.hpp
/// \brief The engine configurations the backend-parameterized suites run:
/// the statevector engine with serial sweeps, the same engine with its
/// sweeps split into kTestShards shared-pool chunks, and the exact
/// density-matrix engine.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "quantum/backend.hpp"

namespace qtda::testing {

enum class EngineUnderTest {
  kStatevector,         ///< serial sweeps
  kShardedStatevector,  ///< sweeps split into kTestShards chunks
  kDensityMatrix,
};

/// The chunk count of the sharded configuration: not a power of two, so
/// chunk edges fall inside gate runs.
inline constexpr std::size_t kTestShards = 3;

inline constexpr EngineUnderTest kAllEngines[] = {
    EngineUnderTest::kStatevector, EngineUnderTest::kShardedStatevector,
    EngineUnderTest::kDensityMatrix};

inline SimulatorKind engine_kind(EngineUnderTest engine) {
  return engine == EngineUnderTest::kDensityMatrix
             ? SimulatorKind::kDensityMatrix
             : SimulatorKind::kStatevector;
}

inline std::size_t engine_shards(EngineUnderTest engine) {
  return engine == EngineUnderTest::kShardedStatevector ? kTestShards : 1;
}

/// Test-name suffix of a configuration.
inline std::string engine_param_name(
    const ::testing::TestParamInfo<EngineUnderTest>& info) {
  switch (info.param) {
    case EngineUnderTest::kStatevector: return "statevector";
    case EngineUnderTest::kShardedStatevector: return "sharded_statevector";
    case EngineUnderTest::kDensityMatrix: return "density_matrix";
  }
  return "unknown";
}

}  // namespace qtda::testing
