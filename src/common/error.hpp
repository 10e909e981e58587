/// \file error.hpp
/// \brief Error handling primitives shared by every qtda module.
///
/// Contract violations (bad arguments, broken invariants) throw
/// qtda::Error via the QTDA_REQUIRE macro.  Internal consistency checks
/// that should be impossible to trigger use QTDA_ASSERT, which is compiled
/// out in release builds unless QTDA_ENABLE_ASSERTS is defined.
#pragma once

#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>

namespace qtda {

/// Exception thrown on contract violations across the library.
class Error : public std::runtime_error {
 public:
  /// \p location_size: length of the source-location prefix of \p what.
  explicit Error(const std::string& what, std::size_t location_size = 0)
      : std::runtime_error(what), location_size_(location_size) {}

  /// what() without its source location: the text fit for a remote peer.
  const char* message() const noexcept { return what() + location_size_; }

 private:
  std::size_t location_size_;
};

namespace detail {

[[noreturn]] inline void throw_error(const char* condition, const char* file,
                                     int line, const std::string& message) {
  std::ostringstream os;
  os << "qtda error at " << file << ':' << line << " — ";
  const auto location_size = static_cast<std::size_t>(os.tellp());
  os << "requirement (" << condition << ") failed";
  if (!message.empty()) os << ": " << message;
  throw Error(os.str(), location_size);
}

}  // namespace detail
}  // namespace qtda

/// Throws qtda::Error when \p cond is false.  \p msg is streamed, so
/// `QTDA_REQUIRE(k < n, "k=" << k << " out of range")` works.
#define QTDA_REQUIRE(cond, msg)                                            \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::ostringstream qtda_require_os_;                                 \
      qtda_require_os_ << msg;                                             \
      ::qtda::detail::throw_error(#cond, __FILE__, __LINE__,               \
                                  qtda_require_os_.str());                 \
    }                                                                      \
  } while (false)

/// Internal invariant check; active in all builds (cheap checks only).
#define QTDA_ASSERT(cond, msg) QTDA_REQUIRE(cond, msg)
