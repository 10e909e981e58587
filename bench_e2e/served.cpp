/// \file served.cpp
/// \brief Closed-loop served passes and the direct handle pass.
///
/// A served pass runs the daemon's defaults — ServerOptions{} (one worker,
/// batching on, 256 MB cache, unbounded queue, telemetry on) over a
/// Unix-domain socket — from empty caches.  Clients are closed loop: each
/// sends its next request only after the previous response arrived, as the
/// experiment programs that consume these estimates do.  Responses are
/// checked after the timed window closes.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "linalg/expm_multiply.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace qtda::e2e {

namespace {

struct Usage {
  double cpu_s = 0.0;
  double ctx_switches = 0.0;
};

/// Machine-wide (steal, total) CPU jiffies from /proc/stat.  Steal is time
/// the hypervisor ran something else while this machine's CPUs wanted to
/// run.
std::pair<double, double> steal_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0.0, steal = 0.0, value = 0.0;
  for (int field = 0; field < 10 && stat >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

Usage usage_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return {seconds(usage.ru_utime) + seconds(usage.ru_stime),
          static_cast<double>(usage.ru_nvcsw + usage.ru_nivcsw)};
}

/// Returns freed heap pages to the kernel (the truth computation and the
/// previous pass leave some behind) and restarts the resident-set
/// high-water mark, so each pass reports the peak its own serving reached.
/// False when the kernel does not allow the reset.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

/// Peak resident set size in MiB: VmHWM since the last reset, or the
/// process lifetime peak when the reset is unavailable.
double peak_rss_mb(bool since_reset) {
  if (since_reset) {
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
      double kib = 0.0;
      if (key == "VmHWM:" && status >> kib) return kib / 1024.0;
      status.ignore(1 << 12, '\n');
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

PassResult served_pass(const std::string& name, std::uint64_t seed,
                       bool small, const Truth& truth,
                       const std::string& socket_path, bool scrape) {
  PassResult result;
  // Caches empty at the start, including the process-wide expm memo, and a
  // scrape that covers this pass only.
  expm_coefficient_cache_clear();
  telemetry::registry().reset_values();
  const bool peak_reset = reset_peak_rss();

  const Clock::time_point setup_start = Clock::now();
  const Workload workload = make_workload(name, seed, small);
  UnixSocketTransport transport(socket_path);
  BettiServer server{ServerOptions{}};
  server.start(transport);
  std::vector<std::unique_ptr<ServeClient>> clients;
  for (std::size_t c = 0; c < workload.clients; ++c)
    clients.push_back(
        std::make_unique<ServeClient>(connect_unix(socket_path)));

  const std::size_t n = workload.requests.size();
  std::vector<std::optional<EstimateResponse>> responses(n);
  std::vector<std::string> errors(n);
  std::vector<double> latency_ms(n, 0.0);
  std::atomic<std::size_t> next{0};

  const Clock::time_point start = Clock::now();
  result.setup_s = seconds_between(setup_start, start);
  const Usage before = usage_now();
  const auto steal_before = steal_jiffies();
  std::vector<std::thread> threads;
  for (auto& client : clients)
    threads.emplace_back([&, raw = client.get()] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n) return;
        const Clock::time_point sent = Clock::now();
        try {
          responses[i] = raw->estimate(workload.requests[i]);
        } catch (const std::exception& error) {
          errors[i] = error.what();
        }
        latency_ms[i] = 1e3 * seconds_between(sent, Clock::now());
      }
    });
  for (std::thread& thread : threads) thread.join();
  const Clock::time_point end = Clock::now();
  const Usage after = usage_now();
  const auto steal_after = steal_jiffies();
  result.steal_frac =
      (steal_after.first - steal_before.first) /
      std::max(1.0, steal_after.second - steal_before.second);
  result.wall_s = seconds_between(start, end);
  result.cpu_s = after.cpu_s - before.cpu_s;
  result.ctx_switches = after.ctx_switches - before.ctx_switches;
  result.peak_rss_mb = peak_rss_mb(peak_reset);

  if (scrape) result.scrape = clients.front()->metrics();
  server.stop();

  for (std::size_t i = 0; i < n; ++i) {
    if (!responses[i].has_value()) {
      result.tally.fail("request " + std::to_string(i) + ": " + errors[i]);
      continue;
    }
    if (result.tally.check(*responses[i], i, truth))
      result.latency_ms.push_back(latency_ms[i]);
  }
  return result;
}

std::vector<double> handle_pass(const Workload& workload, const Truth& truth,
                                Tally& tally) {
  expm_coefficient_cache_clear();
  BettiServer server{ServerOptions{}};
  std::vector<double> ms;
  ms.reserve(workload.requests.size());
  for (std::size_t i = 0; i < workload.requests.size(); ++i) {
    const Clock::time_point start = Clock::now();
    const EstimateResponse response = server.handle(workload.requests[i]);
    ms.push_back(1e3 * seconds_between(start, Clock::now()));
    tally.check(response, i, truth);
  }
  return ms;
}

}  // namespace qtda::e2e
