/// \file server_test_access.hpp
/// \brief Test-only access to BettiServer internals (its friend struct).
///
/// One definition shared by every test file that needs it, so the friend
/// declaration in serve/server.hpp names a single class.
#pragma once

#include <functional>
#include <utility>

#include "serve/artifact_cache.hpp"
#include "serve/server.hpp"

namespace qtda {

struct BettiServerTestAccess {
  /// Reaches BettiServer's worker seam: \p hold runs on a worker after it
  /// dequeues a batch and before it executes it.
  static void hold_workers(BettiServer& server, std::function<void()> hold) {
    server.before_execute_ = std::move(hold);
  }

  /// The server's artifact store, for tests that inspect cached entries.
  static ArtifactStore& store(BettiServer& server) { return server.store_; }
};

}  // namespace qtda
