/// \file unit_output_check.hpp
/// \brief The output check every unitary micro bench ends with.
#pragma once

#include <benchmark/benchmark.h>

#include <cmath>
#include <complex>
#include <vector>

/// Fails the run unless every amplitude is finite and normal (or zero) and
/// the amplitudes still form a unit vector.
inline bool check_unit_output(benchmark::State& state,
                              const std::vector<std::complex<double>>& y) {
  double out_norm = 0.0;
  for (const auto& v : y) {
    for (const double part : {v.real(), v.imag()}) {
      if (!std::isfinite(part) ||
          (part != 0.0 && std::fpclassify(part) != FP_NORMAL)) {
        state.SkipWithError("output is not finite and normal");
        return false;
      }
    }
    out_norm += std::norm(v);
  }
  if (std::abs(out_norm - 1.0) > 1e-9) {
    state.SkipWithError("output lost unit norm");
    return false;
  }
  return true;
}
