/// \file serve_client.cpp
/// \brief Command-line client for a running qtda_serve daemon.
///
///   serve_client --socket /tmp/qtda_serve.sock --eps 1.0 --k 1 --t 4
///                --shots 1000 --seed 42 --points "0,0;1,0;0.5,0.87"
///   serve_client --socket /tmp/qtda_serve.sock --stats
///   serve_client --socket /tmp/qtda_serve.sock --shutdown
///
/// With no --points, sends a demo request for the unit circle (8 points,
/// β₁ = 1).  Prints the raw response line — scripts can parse the key=value
/// pairs directly.  Exits 1 with a one-line error when no daemon listens on
/// the socket.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "serve/client.hpp"
#include "serve/transport.hpp"

namespace {

using namespace qtda;

std::vector<std::vector<double>> parse_cli_points(const std::string& text) {
  // Reuse the protocol's own parser by round-tripping through a request
  // line — guarantees the CLI accepts exactly what the wire accepts.
  return parse_request("estimate points=" + text).points;
}

std::vector<std::vector<double>> demo_circle() {
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 8; ++i) {
    const double angle = 6.283185307179586 * i / 8.0;
    points.push_back({std::cos(angle), std::sin(angle)});
  }
  return points;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string path = args.get_string("socket", "/tmp/qtda_serve.sock");
  std::shared_ptr<Connection> connection;
  try {
    connection = connect_unix(path);
  } catch (const Error&) {
    std::fprintf(stderr, "serve_client: no daemon listening on %s\n",
                 path.c_str());
    return 1;
  }
  ServeClient client(std::move(connection));

  if (args.get_bool("stats")) {
    std::printf("%s\n", client.stats().c_str());
    return 0;
  }
  if (args.get_bool("shutdown")) {
    client.shutdown();
    std::printf("server acknowledged shutdown\n");
    return 0;
  }

  EstimateRequest request;
  const std::string points = args.get_string("points", "");
  request.points = points.empty() ? demo_circle() : parse_cli_points(points);
  request.epsilon = args.get_double("eps", 1.0);
  request.k = static_cast<int>(args.get_int("k", 1));
  request.options.precision_qubits =
      static_cast<std::size_t>(args.get_int("t", 4));
  request.options.shots = static_cast<std::size_t>(args.get_int("shots", 1000));
  request.options.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  request.deadline_ms =
      static_cast<std::uint64_t>(args.get_int("deadline-ms", 0));

  const std::string id = client.send(request);
  const EstimateResponse response = client.receive(id);
  std::printf("%s\n", format_response(response).c_str());
  return response.ok ? 0 : 1;
}
