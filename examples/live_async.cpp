// Live deployment: the full stack, paced by the wall clock.
//
// Everything in the other examples runs on the deterministic round-based
// simulator (the paper's methodology).  This example runs the same
// protocols — RPS, T-Man, Polystyrene — as a fleet of AsyncNodes
// exchanging framed messages, with heartbeat-timeout failure detection:
// the paper's actual system model (§III-A, "message-passing nodes …
// reliable channels (e.g. TCP)").  The fleet runs in real time: every node
// ticks on one loop thread, which sleeps until the next event is due.
//
//   $ ./live_async          # in-process hub
//   $ ./live_async --tcp    # real localhost TCP sockets
//
// Both run the same 96-node torus on one thread.  Over TCP the loop's
// sleep is one poll over every node's sockets, and it reads and delivers
// the frames between events.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "engine/event_cluster.hpp"
#include "shape/grid_torus.hpp"

int main(int argc, char** argv) {
  using namespace poly;
  using namespace std::chrono_literals;

  const bool use_tcp = argc > 1 && std::strcmp(argv[1], "--tcp") == 0;
  if (use_tcp) {
    // Every ordered pair of nodes that talks holds a connection, two
    // descriptors on one host: about 11,000 at the peak, above many
    // shells' default soft limit.  Take what the hard limit allows.
    rlimit files{};
    if (::getrlimit(RLIMIT_NOFILE, &files) == 0) {
      files.rlim_cur = files.rlim_max;
      ::setrlimit(RLIMIT_NOFILE, &files);
    }
  }

  // A small torus is plenty to watch the mechanism work in wall-clock
  // time.
  shape::GridTorusShape shape(12, 8);

  engine::EventClusterConfig config;
  config.node.tick = std::chrono::milliseconds(15);
  config.node.origin_timeout = std::chrono::milliseconds(250);
  config.node.replication = 3;
  config.drive =
      use_tcp ? engine::Drive::kWallClockTcp : engine::Drive::kWallClock;

  std::printf("Starting %zu live nodes over %s...\n", shape.size(),
              use_tcp ? "localhost TCP" : "the in-process hub");
  engine::EventCluster cluster(shape.space_ptr(), shape.generate(), config,
                               42);

  cluster.run_for(600ms);
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
    cluster.run_for(500ms);
    std::printf("t+%.1fs:  homogeneity=%.3f  reliability=%.1f%%\n",
                0.5 * i, cluster.homogeneity(),
                cluster.reliability() * 100.0);
  }

  const std::size_t fresh = shape.size() / 8;
  std::printf("\nre-provisioning %zu fresh (stateless) nodes...\n", fresh);
  for (const auto& pos : shape.reinjection_positions(fresh))
    cluster.inject(pos);
  cluster.run_for(1500ms);
  std::printf("after re-provisioning (%zu nodes): homogeneity=%.3f "
              "reliability=%.1f%%\n",
              cluster.alive_count(), cluster.homogeneity(),
              cluster.reliability() * 100.0);

  const bool ok = cluster.reliability() > 0.85;
  std::printf("\n%s: the data shape %s the datacenter loss.\n",
              ok ? "SUCCESS" : "FAILURE",
              ok ? "survived" : "did not survive");
  return ok ? 0 : 1;
}
