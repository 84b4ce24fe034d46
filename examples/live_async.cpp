// Live deployment: the full stack on real threads and real transports.
//
// Everything in the other examples runs on the deterministic round-based
// simulator (the paper's methodology).  This example runs the same
// protocols — RPS, T-Man, Polystyrene — as a fleet of AsyncNode threads
// exchanging framed messages, with heartbeat-timeout failure detection:
// the paper's actual system model (§III-A, "message-passing nodes …
// reliable channels (e.g. TCP)").
//
//   $ ./live_async          # in-process transport (fast)
//   $ ./live_async --tcp    # real localhost TCP sockets
//
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "net/live_cluster.hpp"
#include "shape/grid_torus.hpp"

int main(int argc, char** argv) {
  using namespace poly;
  using namespace std::chrono_literals;

  const bool use_tcp = argc > 1 && std::strcmp(argv[1], "--tcp") == 0;

  // A small torus: 96 live nodes is plenty to watch the mechanism work in
  // wall-clock time (each node is 2-3 real threads).
  shape::GridTorusShape shape(12, 8);

  net::AsyncConfig config;
  config.tick = std::chrono::milliseconds(15);
  config.origin_timeout = std::chrono::milliseconds(250);
  config.replication = 3;

  std::printf("Starting %zu live nodes over %s...\n", shape.size(),
              use_tcp ? "localhost TCP" : "in-process transport");
  net::LiveCluster cluster(shape.space_ptr(), shape.generate(), config, 42,
                           use_tcp);
  cluster.start();

  std::this_thread::sleep_for(600ms);
  std::printf("converged:      homogeneity=%.3f reliability=%.1f%% "
              "(%zu nodes)\n",
              cluster.homogeneity(), cluster.reliability() * 100.0,
              cluster.alive_count());

  std::puts("\nkilling every node in the right half of the torus "
            "(kill -9 semantics)...");
  const std::size_t crashed = cluster.crash_region(
      [&](const space::Point& p) { return shape.in_failure_half(p); });
  std::printf("%zu nodes crashed, %zu survive\n", crashed,
              cluster.alive_count());

  // Watch the recovery in real time.
  for (int i = 1; i <= 6; ++i) {
    std::this_thread::sleep_for(500ms);
    std::printf("t+%.1fs:  homogeneity=%.3f  reliability=%.1f%%\n",
                0.5 * i, cluster.homogeneity(),
                cluster.reliability() * 100.0);
  }

  std::puts("\nre-provisioning 12 fresh (stateless) nodes...");
  std::size_t injected = 0;
  for (const auto& pos : shape.reinjection_positions(12)) {
    cluster.inject(pos);
    ++injected;
  }
  std::this_thread::sleep_for(1500ms);
  std::printf("after re-provisioning (%zu nodes): homogeneity=%.3f "
              "reliability=%.1f%%\n",
              cluster.alive_count(), cluster.homogeneity(),
              cluster.reliability() * 100.0);

  cluster.stop();
  const bool ok = cluster.reliability() > 0.85;
  std::printf("\n%s: the data shape %s the datacenter loss.\n",
              ok ? "SUCCESS" : "FAILURE",
              ok ? "survived" : "did not survive");
  return ok ? 0 : 1;
}
