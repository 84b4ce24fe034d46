// fleetbench — the repository's end-to-end benchmark (see README.md).
//
// One process runs one workload through the library's public API:
//
//   steady_6k            EventCluster, 80x80 torus, K=4, steady rounds
//   catastrophe_traffic  EventCluster + TrafficPlane, 80x40 torus, K=4:
//                        traffic, crash of the failure half, recover_all
//   paper_sync           scenario::Simulation, 80x40 torus, K=4: the
//                        paper's converge / crash / re-inject phases
//
// A run repeats the workload in passes (fresh construction each pass, the
// same seed) until --seconds of passes have elapsed, so every pass must
// reproduce the same simulated outputs (checked through a fingerprint),
// and set-up time is the median over several set-ups.  The timeline of a
// pass is fixed in rounds: host speed never changes what is simulated.
//
// With --trace 1, passes alternate untraced and traced.  A traced pass
// wraps a span around every public call the benchmark makes into a layer
// and, outside the timed window, runs the isolated layer probes (kernel,
// codecs, routing) at the pass's own state.  The untraced passes give the
// tracing overhead.
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics — the end-to-end ones untraced, traced the per-layer
// ones of the layers the workload exercises (run.py checks the names
// against BENCHMARK.json and lists bypassed layers as 0).  Any failed
// check exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "engine/event_cluster.hpp"
#include "engine/event_engine.hpp"
#include "net/messages.hpp"
#include "scenario/simulation.hpp"
#include "shape/grid_torus.hpp"
#include "traffic/workload.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace {

using namespace poly;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile (q in (0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- tracing -----------------------------------------------------------------

/// One timed call into a layer.  `parent` indexes the enclosing span
/// (-1 for a root); `round` is the pass-local round counter at entry.
struct Span {
  const char* layer;
  const char* name;
  std::int64_t t0;
  std::int64_t t1;
  std::int32_t parent;
  std::int32_t round;
  std::int32_t pass;
};

/// In-memory span recorder.  Benchmark code holds a Tracer* that is null
/// in untraced passes, so untraced passes pay one branch per call site.
class Tracer {
 public:
  Tracer() { spans_.reserve(std::size_t{1} << 16); }

  void begin_pass(int pass) {
    pass_ = pass;
    first_ = spans_.size();
    round_ = 0;
  }
  void set_round(int round) { round_ = round; }

  std::int32_t open(const char* layer, const char* name) {
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({layer, name, now_ns(), 0, current_, round_, pass_});
    current_ = id;
    return id;
  }
  void close(std::int32_t id) {
    spans_[id].t1 = now_ns();
    current_ = spans_[id].parent;
  }

  /// Spans of the current pass.
  std::vector<Span> pass_spans() const {
    return {spans_.begin() + static_cast<std::ptrdiff_t>(first_),
            spans_.end()};
  }
  const std::vector<Span>& all() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
  std::size_t first_ = 0;
  std::int32_t current_ = -1;
  std::int32_t round_ = 0;
  std::int32_t pass_ = 0;
};

/// RAII span; a no-op when the tracer is null.
class Scope {
 public:
  Scope(Tracer* t, const char* layer, const char* name)
      : t_(t), id_(t ? t->open(layer, name) : -1) {}
  ~Scope() {
    if (t_) t_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  std::int32_t id_;
};

/// Durations (ms) of the spans named `name` that started in rounds
/// [round_lo, round_hi).
std::vector<double> span_ms(const std::vector<Span>& spans, const char* name,
                            int round_lo = 0, int round_hi = 1 << 30) {
  std::vector<double> out;
  for (const auto& sp : spans)
    if (std::strcmp(sp.name, name) == 0 && sp.round >= round_lo &&
        sp.round < round_hi)
      out.push_back(static_cast<double>(sp.t1 - sp.t0) / 1e6);
  return out;
}

// ---- fingerprint -------------------------------------------------------------

/// FNV-1a over 64-bit words: a digest of a pass's simulated outputs.
struct Fingerprint {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
};

// ---- pass results ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string base;  ///< printed with derived metrics
};

struct PassResult {
  double setup_s = 0.0;
  std::vector<double> round_s;      ///< host seconds per timed round
  std::vector<double> round_alive;  ///< alive nodes in that round
  std::uint64_t fingerprint = 0;
  /// Operations the program must complete whatever the workload does to
  /// the fleet: a failed one is a defect, not a simulated outcome (what a
  /// crash costs is in success_rate and reliability).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> outputs;      ///< simulated (user-facing) outputs
  std::vector<Metric> layers;       ///< traced passes only
  std::vector<std::string> violations;

  double timed_s() const {
    return std::accumulate(round_s.begin(), round_s.end(), 0.0);
  }
  double node_rounds() const {
    return std::accumulate(round_alive.begin(), round_alive.end(), 0.0);
  }
  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
  void layer(const std::string& name, double value, const char* unit,
             std::string base = {}) {
    layers.push_back({name, value, unit, std::move(base)});
  }
  void output(const std::string& name, double value, const char* unit) {
    outputs.push_back({name, value, unit, {}});
  }
};

/// Times one round of the window: everything between two calls is that
/// round's host time (the protocol step plus any crash, recover or
/// measure call the round makes).
class RoundClock {
 public:
  explicit RoundClock(PassResult& r) : r_(r) {}
  void start() { t0_ = now_ns(); }
  void stop(double alive) {
    r_.round_s.push_back(static_cast<double>(now_ns() - t0_) / 1e9);
    r_.round_alive.push_back(alive);
  }

 private:
  PassResult& r_;
  std::int64_t t0_ = 0;
};

// ---- layer probes ------------------------------------------------------------

/// Kernel alone: ns per event on an EventEngine holding `depth` pending
/// events whose delays follow the fleet's mix — one tick period per
/// `events_per_node_round` events, link latency for the rest.
double probe_kernel(std::size_t depth, double events_per_node_round,
                    engine::SimTime period, engine::SimTime link,
                    std::uint64_t seed) {
  using engine::SimTime;
  if (depth == 0) return 0.0;
  engine::EventEngine eng(seed);
  util::Rng rng(seed ^ 0x6b65726e656cull);
  constexpr std::size_t kDelays = 4096;
  std::vector<SimTime> delays(kDelays);
  const double tick_share = std::clamp(ratio(1.0, events_per_node_round),
                                       0.0, 1.0);
  for (auto& d : delays) d = rng.uniform01() < tick_share ? period : link;
  struct Timer {
    engine::EventEngine* eng;
    const std::vector<SimTime>* delays;
    std::size_t* cursor;
    void operator()() const {
      const SimTime d = (*delays)[(*cursor)++ % kDelays];
      eng->schedule_after(d, Timer{eng, delays, cursor});
    }
  };
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < depth; ++i)
    eng.schedule_after(SimTime{rng.uniform_i64(0, period.count() - 1)},
                       Timer{&eng, &delays, &cursor});
  // Warm the wheel and slab, then time a fixed event count.
  constexpr std::size_t kWarm = 200'000;
  constexpr std::size_t kTimed = 2'000'000;
  std::size_t done = 0;
  while (done < kWarm) done += eng.run_until(eng.now() + link);
  done = 0;
  const auto t0 = now_ns();
  while (done < kTimed) done += eng.run_until(eng.now() + link);
  return static_cast<double>(now_ns() - t0) / static_cast<double>(done);
}

struct CodecProbe {
  double ns_per_frame = 0.0;
  double bytes_per_frame = 0.0;
};

/// Wire codecs alone: encode_* then decode_*_into of the per-tick frame
/// mix — RPS request/response, T-Man request/response, K backup pushes,
/// migrate request/response — built from sampled live nodes' views and
/// guest sets.
CodecProbe probe_codecs(engine::EventCluster& fleet) {
  const net::AsyncConfig& cfg = fleet.config().node;
  struct NodeWire {
    net::LiveNodeId id;
    net::Address addr;
    space::Point pos;
    std::vector<net::WirePeer> peers;
    std::vector<net::WireDescriptor> descriptors;
    std::vector<net::WirePoint> guests;
  };
  struct Ctx {
    NodeWire* w;
    std::size_t rps_shuffle;
    std::size_t tman_msg;
  };
  std::vector<NodeWire> nodes;
  const auto& alive = fleet.alive_ids();
  std::vector<std::uint32_t> ids(alive.begin(), alive.end());
  std::sort(ids.begin(), ids.end());
  constexpr std::size_t kNodes = 64;
  const std::size_t stride = std::max<std::size_t>(1, ids.size() / kNodes);
  for (std::size_t i = 0; i < ids.size() && nodes.size() < kNodes;
       i += stride) {
    net::AsyncNode& node = fleet.node(ids[i]);
    NodeWire w{node.id(), node.address(), node.position(), {}, {}, {}};
    w.descriptors.push_back({w.id, w.addr, w.pos, 1});
    Ctx ctx{&w, cfg.rps_shuffle, cfg.tman_msg};
    node.for_each_view_member(
        [](void* c, net::LiveNodeId id, const space::Point& p,
           std::uint64_t version) {
          auto& x = *static_cast<Ctx*>(c);
          const std::string addr = "node-" + std::to_string(id);
          if (x.w->peers.size() < x.rps_shuffle)
            x.w->peers.push_back({id, addr, 0, p, version});
          if (x.w->descriptors.size() < x.tman_msg)
            x.w->descriptors.push_back({id, addr, p, version});
        },
        &ctx);
    for (const auto& g : node.guests()) w.guests.push_back({g.id, g.pos});
    nodes.push_back(std::move(w));
  }
  if (nodes.empty()) return {};

  std::vector<std::uint8_t> buf;
  std::vector<net::WirePeer> in_peers;
  std::vector<net::WireDescriptor> in_desc;
  std::vector<net::WirePoint> in_points;
  std::uint64_t sink = 0;
  std::size_t frames = 0;
  std::size_t bytes = 0;
  auto round_trip = [&](auto&& encode) {
    util::ByteWriter w(std::move(buf));
    encode(w);
    buf = w.take();
    bytes += buf.size();
    ++frames;
    util::ByteReader r(buf);
    const net::Header h = net::decode_header(r);
    switch (h.type) {
      case net::MsgType::kRpsShuffleReq:
      case net::MsgType::kRpsShuffleResp:
        net::decode_peers_into(r, in_peers);
        sink += in_peers.size();
        break;
      case net::MsgType::kTmanReq:
      case net::MsgType::kTmanResp:
        net::decode_descriptors_into(r, in_desc);
        sink += in_desc.size();
        break;
      case net::MsgType::kBackupPush:
        net::decode_points_into(r, in_points);
        sink += in_points.size();
        break;
      case net::MsgType::kMigrateReq:
        sink += static_cast<std::uint64_t>(net::decode_point(r).c[0]);
        net::decode_points_into(r, in_points);
        sink += in_points.size();
        break;
      case net::MsgType::kMigrateResp:
        sink += r.u8();
        net::decode_points_into(r, in_points);
        sink += in_points.size();
        break;
    }
  };
  auto one_tick = [&](const NodeWire& n) {
    using net::MsgType;
    auto hdr = [&](MsgType t) { return net::Header{t, n.id, n.addr}; };
    round_trip([&](util::ByteWriter& w) {
      net::encode_rps(w, hdr(MsgType::kRpsShuffleReq), n.peers);
    });
    round_trip([&](util::ByteWriter& w) {
      net::encode_rps(w, hdr(MsgType::kRpsShuffleResp), n.peers);
    });
    round_trip([&](util::ByteWriter& w) {
      net::encode_tman(w, hdr(MsgType::kTmanReq), n.descriptors);
    });
    round_trip([&](util::ByteWriter& w) {
      net::encode_tman(w, hdr(MsgType::kTmanResp), n.descriptors);
    });
    for (std::size_t k = 0; k < cfg.replication; ++k)
      round_trip([&](util::ByteWriter& w) {
        net::encode_backup_push(w, hdr(MsgType::kBackupPush), n.guests);
      });
    round_trip([&](util::ByteWriter& w) {
      net::encode_migrate_req(w, hdr(MsgType::kMigrateReq), n.pos, n.guests);
    });
    round_trip([&](util::ByteWriter& w) {
      net::encode_migrate_resp(w, hdr(MsgType::kMigrateResp), true,
                               n.guests);
    });
  };
  for (const auto& n : nodes) one_tick(n);  // warm buffers
  frames = bytes = 0;
  constexpr std::size_t kIters = 200;
  const auto t0 = now_ns();
  for (std::size_t it = 0; it < kIters; ++it)
    for (const auto& n : nodes) one_tick(n);
  const double ns = static_cast<double>(now_ns() - t0);
  if (sink == 0) std::puts("(codec probe decoded nothing)");
  return {ns / static_cast<double>(frames),
          static_cast<double>(bytes) / static_cast<double>(frames)};
}

/// Routing alone: ns per closest_view_member call with the traffic
/// plane's alive filter, over sampled (alive node, key) pairs.
double probe_routing(engine::EventCluster& fleet, std::uint64_t seed) {
  const auto& alive = fleet.alive_ids();
  const auto& points = fleet.points();
  if (alive.empty() || points.empty()) return 0.0;
  util::Rng rng(seed ^ 0x726f757465ull);
  constexpr std::size_t kSamples = 20'000;
  std::vector<std::uint32_t> from(kSamples);
  std::vector<space::Point> key(kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) {
    from[i] = alive[rng.index(alive.size())];
    key[i] = points[rng.index(points.size())].pos;
  }
  double sink = 0.0;
  const auto t0 = now_ns();
  for (std::size_t i = 0; i < kSamples; ++i) {
    const auto hop = fleet.node(from[i]).closest_view_member(
        key[i],
        [](void* ctx, net::LiveNodeId id) {
          return !static_cast<engine::EventCluster*>(ctx)->crashed(id);
        },
        &fleet);
    sink += hop.distance;
  }
  const double ns = static_cast<double>(now_ns() - t0) / kSamples;
  if (!(sink >= 0.0)) std::puts("(routing probe saw a negative distance)");
  return ns;
}

// ---- fleet helpers -------------------------------------------------------------

constexpr std::size_t kReplication = 4;  // K, as in the paper's Table II row

void fleet_round(engine::EventCluster& fleet, Tracer* tr) {
  Scope s(tr, "engine.fleet", "EventCluster::run_rounds(1)");
  fleet.run_rounds(1);
}

/// A fleet workload's set-up: construction plus `rounds` warm-up rounds.
/// `round` counts rounds for the span round ids.
std::unique_ptr<engine::EventCluster> setup_fleet(
    const shape::GridTorusShape& shape,
    const std::vector<space::DataPoint>& points, std::uint64_t seed,
    std::size_t rounds, int& round, Tracer* tr) {
  Scope setup(tr, "bench", "setup");
  engine::EventClusterConfig cfg;
  cfg.node.replication = kReplication;
  std::unique_ptr<engine::EventCluster> fleet;
  {
    Scope s(tr, "engine.fleet", "EventCluster::EventCluster");
    fleet = std::make_unique<engine::EventCluster>(shape.space_ptr(), points,
                                                   cfg, seed);
  }
  Scope warm(tr, "engine.fleet", "warmup");
  for (std::size_t i = 0; i < rounds; ++i) {
    if (tr) tr->set_round(round);
    ++round;
    fleet_round(*fleet, tr);
  }
  return fleet;
}

double fleet_homogeneity(engine::EventCluster& fleet, Tracer* tr) {
  Scope s(tr, "net.fleet_metrics", "EventCluster::homogeneity");
  return fleet.homogeneity();
}

double fleet_reliability(engine::EventCluster& fleet, Tracer* tr) {
  Scope s(tr, "net.fleet_metrics", "EventCluster::reliability");
  return fleet.reliability();
}

/// Window-wide fleet counters (engine events, hub frames).
struct FleetCounts {
  std::uint64_t events = 0, sent = 0, delivered = 0, dropped = 0;
  static FleetCounts of(const engine::EventCluster& f,
                        const engine::EventEngine& e) {
    return {e.events_executed(), f.hub().frames_sent(),
            f.hub().frames_delivered(), f.hub().frames_dropped()};
  }
};

/// Per-layer metrics common to both fleet workloads (traced passes only):
/// set-up and measure spans, counts, probes, memory.  `extra_explained` is
/// the window share already attributed (routing, measure calls).
void fleet_layers(PassResult& r, engine::EventCluster& fleet,
                  const FleetCounts& c0, const FleetCounts& c1,
                  std::uint64_t seed, double extra_explained, Tracer* tr) {
  const double nr = r.node_rounds();
  const double timed_ns = r.timed_s() * 1e9;
  const double events = static_cast<double>(c1.events - c0.events);
  const double sent = static_cast<double>(c1.sent - c0.sent);
  const double delivered = static_cast<double>(c1.delivered - c0.delivered);
  const double epnr = ratio(events, nr);
  const std::size_t pending = fleet.engine().pending();
  r.layer("engine.events_per_node_round", epnr, "count",
          std::to_string(static_cast<std::uint64_t>(events)) + " events / " +
              std::to_string(static_cast<std::uint64_t>(nr)) +
              " node-rounds");
  r.layer("engine.pending_events", static_cast<double>(pending), "count");
  const double kns =
      probe_kernel(pending, epnr, fleet.round_period(),
                   fleet.config().latency_min, seed);
  const double kshare = ratio(kns * events, timed_ns);
  r.layer("engine.kernel_ns_per_event", kns, "ns");
  r.layer("engine.kernel_share", kshare, "share",
          "probe ns/event x window events / window ns");
  r.layer("hub.frames_per_node_round", ratio(sent, nr), "count",
          std::to_string(static_cast<std::uint64_t>(sent)) + " frames");
  r.layer("hub.delivered_share", ratio(delivered, sent), "share",
          "delivered / sent in window");
  const CodecProbe codec = probe_codecs(fleet);
  const double cshare = ratio(codec.ns_per_frame * sent, timed_ns);
  r.layer("codec.ns_per_frame", codec.ns_per_frame, "ns");
  r.layer("codec.bytes_per_frame", codec.bytes_per_frame, "B");
  r.layer("codec.share", cshare, "share",
          "probe ns/frame x window frames / window ns");
  r.layer("net.residual_share", 1.0 - kshare - cshare - extra_explained,
          "share", "1 - kernel - codec - routing - measure/crash/recover");
  const auto spans = tr->pass_spans();
  r.layer("cluster.ctor_ms", sum(span_ms(spans, "EventCluster::EventCluster")),
          "ms");
  r.layer("cluster.warmup_ms", sum(span_ms(spans, "warmup")), "ms");
  const auto hom = span_ms(spans, "EventCluster::homogeneity");
  const auto rel = span_ms(spans, "EventCluster::reliability");
  r.layer("fleet_metrics.ms_per_call",
          ratio(sum(hom) + sum(rel),
                static_cast<double>(hom.size() + rel.size())),
          "ms");
  engine::MemoryBreakdown mem;
  {
    Scope s(tr, "engine.fleet", "EventCluster::memory_breakdown");
    mem = fleet.memory_breakdown();
  }
  constexpr double kMB = 1024.0 * 1024.0;
  r.layer("mem.bytes_per_node",
          ratio(static_cast<double>(mem.total()),
                static_cast<double>(fleet.size())),
          "B");
  r.layer("mem.arena_mb", static_cast<double>(mem.arena_reserved) / kMB,
          "MB");
  r.layer("mem.hub_mb", static_cast<double>(mem.hub_bytes) / kMB, "MB");
  r.layer("mem.state_heap_mb", static_cast<double>(mem.state_heap) / kMB,
          "MB");
}

// ---- steady_6k -----------------------------------------------------------------

constexpr std::size_t kSteadyWarmup = 10;
constexpr std::size_t kSteadyRounds = 40;

PassResult run_steady(std::uint64_t seed, Tracer* tr) {
  PassResult r;
  const shape::GridTorusShape shape(80, 80);
  const auto points = shape.generate();  // inputs: outside set-up
  const auto s0 = now_ns();
  int round = 0;
  const auto fleet = setup_fleet(shape, points, seed, kSteadyWarmup, round, tr);
  r.setup_s = static_cast<double>(now_ns() - s0) / 1e9;

  const int w0 = round;
  const FleetCounts c0 = FleetCounts::of(*fleet, fleet->engine());
  const std::uint64_t rej0 = fleet->frames_rejected();
  RoundClock clock(r);
  {
    Scope window(tr, "bench", "window");
    for (std::size_t i = 0; i < kSteadyRounds; ++i) {
      if (tr) tr->set_round(round);
      ++round;
      clock.start();
      fleet_round(*fleet, tr);
      clock.stop(static_cast<double>(fleet->alive_count()));
    }
  }
  const FleetCounts c1 = FleetCounts::of(*fleet, fleet->engine());
  const std::uint64_t rejected = fleet->frames_rejected() - rej0;

  // Outside the window: the end state the checks and fingerprint read.
  const double rel = fleet_reliability(*fleet, tr);
  const double hom = fleet_homogeneity(*fleet, tr);
  const std::uint64_t dropped = c1.dropped - c0.dropped;
  r.attempted = c1.sent - c0.sent;
  r.failed = dropped + rejected;
  r.output("success_rate",
           ratio(static_cast<double>(r.attempted - r.failed),
                 static_cast<double>(r.attempted)),
           "share");
  r.output("reliability", rel, "share");
  r.output("homogeneity", hom, "distance");
  r.check(fleet->alive_count() == fleet->size(), "a node is not alive");
  r.check(rel == 1.0, "reliability " + std::to_string(rel) + " != 1");
  r.check(rejected == 0, std::to_string(rejected) + " frames rejected");
  r.check(dropped == 0, std::to_string(dropped) + " frames dropped");
  r.check(r.attempted > 0, "no frames sent");

  Fingerprint fp;
  fp.add(c1.events - c0.events);
  fp.add(r.attempted);
  fp.add(c1.delivered - c0.delivered);
  fp.add(r.failed);
  fp.add(rel);
  fp.add(hom);
  for (const auto& p : fleet->alive_positions()) {
    fp.add(p.c[0]);
    fp.add(p.c[1]);
  }
  r.fingerprint = fp.h;

  if (tr) {
    const auto spans = tr->pass_spans();
    r.layer("cluster.round_ms.steady",
            median(span_ms(spans, "EventCluster::run_rounds(1)", w0, round)),
            "ms");
    fleet_layers(r, *fleet, c0, c1, seed, 0.0, tr);
  }
  return r;
}

// ---- catastrophe_traffic --------------------------------------------------------

constexpr std::size_t kCatConverge = 20;
constexpr std::size_t kCatBefore = 10;
constexpr std::size_t kCatDuring = 30;
constexpr std::size_t kCatAfter = 20;
constexpr std::size_t kCatMeasureEvery = 10;
static_assert((kCatBefore + kCatDuring) % kCatMeasureEvery == 0);
constexpr std::size_t kCatMaxDrain = 50;

PassResult run_catastrophe(std::uint64_t seed, Tracer* tr) {
  PassResult r;
  const shape::GridTorusShape shape(80, 40);
  const auto points = shape.generate();
  const auto s0 = now_ns();
  int round = 0;
  const auto fleet = setup_fleet(shape, points, seed, kCatConverge, round, tr);
  r.setup_s = static_cast<double>(now_ns() - s0) / 1e9;

  // Open loop: one request per node per round, arrivals uniform in
  // virtual time — the generator is never late.
  traffic::TrafficConfig tcfg;
  tcfg.rate_per_round = fleet->size();
  tcfg.mix = traffic::Mix::kMixed;

  const int w0 = round;
  const FleetCounts c0 = FleetCounts::of(*fleet, fleet->engine());
  const std::uint64_t rej0 = fleet->frames_rejected();
  RoundClock clock(r);
  Fingerprint fp;
  std::vector<double> routing_ns;   // probe per phase end
  std::vector<double> phase_hops;   // completed-request hops per phase
  std::vector<traffic::TrafficCounters> phases;
  std::vector<int> phase_end;
  double h_crash = 0.0, rel_crash = 0.0, href_crash = 0.0, rel_after = 0.0;
  std::size_t drain_rounds = 0;
  bool drained = false;
  {
    Scope window(tr, "bench", "window");
    std::size_t measured = 0;
    double h_last = 0.0, rel_last = 0.0;
    auto step = [&](auto&& before_round) {
      if (tr) tr->set_round(round);
      ++round;
      clock.start();
      before_round();
      fleet_round(*fleet, tr);
      if (++measured % kCatMeasureEvery == 0) {
        h_last = fleet_homogeneity(*fleet, tr);
        rel_last = fleet_reliability(*fleet, tr);
        fp.add(h_last);
        fp.add(rel_last);
      }
      clock.stop(static_cast<double>(fleet->alive_count()));
    };
    auto end_phase = [&] {
      traffic::TrafficCounters c;
      {
        Scope s(tr, "traffic", "TrafficPlane::take_interval");
        c = fleet->traffic_plane()->take_interval();
      }
      phases.push_back(c);
      phase_end.push_back(round);
      phase_hops.push_back(static_cast<double>(c.hops_total));
      if (tr) routing_ns.push_back(probe_routing(*fleet, seed));
    };
    auto none = [] {};
    for (std::size_t i = 0; i < kCatBefore; ++i)
      step([&] {
        if (i == 0) fleet->start_traffic(tcfg);
      });
    end_phase();
    for (std::size_t i = 0; i < kCatDuring; ++i)
      step([&] {
        if (i != 0) return;
        Scope s(tr, "engine.fleet", "EventCluster::crash_region");
        fleet->crash_region(
            [&](const space::Point& p) { return shape.in_failure_half(p); });
      });
    // The crash phase ends on a measured round (40 is a multiple of 10).
    h_crash = h_last;
    rel_crash = rel_last;
    href_crash = shape.reference_homogeneity(fleet->alive_count());
    end_phase();
    for (std::size_t i = 0; i < kCatAfter; ++i)
      step([&] {
        if (i != 0) return;
        Scope s(tr, "engine.fleet", "EventCluster::recover_all");
        fleet->recover_all();
      });
    // Final drain: no new arrivals; in-flight requests finish.
    fleet->stop_traffic();
    while (fleet->traffic_inflight() > 0 && drain_rounds < kCatMaxDrain) {
      step(none);
      ++drain_rounds;
    }
    drained = fleet->traffic_inflight() == 0;
    rel_after = fleet_reliability(*fleet, tr);
    end_phase();
  }
  const FleetCounts c1 = FleetCounts::of(*fleet, fleet->engine());
  const std::uint64_t rejected = fleet->frames_rejected() - rej0;
  const traffic::TrafficCounters& tot = fleet->traffic_plane()->totals();

  // Requests the routing gives up on while half the fleet is down are the
  // measured outcome (success_rate); a failed operation is a request still
  // unresolved after the drain.
  const std::uint64_t resolved = tot.completed + tot.failed;
  r.attempted = tot.launched;
  r.failed = tot.launched - std::min(resolved, tot.launched);
  r.output("success_rate", ratio(static_cast<double>(tot.completed),
                                 static_cast<double>(tot.launched)),
           "share");
  r.output("p50_latency_ms", tot.latency.quantile_ms(0.5), "sim_ms");
  r.output("p999_latency_ms", tot.latency.quantile_ms(0.999), "sim_ms");
  r.output("latency_samples", static_cast<double>(tot.latency.count()),
           "count");
  r.output("reliability", rel_crash, "share");
  r.output("reliability_after_recover", rel_after, "share");
  r.output("homogeneity_ratio", ratio(h_crash, href_crash), "ratio");
  r.check(drained, "traffic did not drain in " +
                       std::to_string(kCatMaxDrain) + " rounds");
  r.check(tot.launched == tot.completed + tot.failed,
          "launched != completed + failed after the drain");
  r.check(rejected == 0, std::to_string(rejected) + " frames rejected");
  r.check(rel_after >= rel_crash,
          "reliability after recover_all below reliability during the crash");
  r.check(tot.launched > 0 && tot.completed > 0, "no request completed");

  fp.add(c1.events - c0.events);
  fp.add(c1.sent - c0.sent);
  fp.add(c1.delivered - c0.delivered);
  fp.add(tot.launched);
  fp.add(tot.completed);
  fp.add(tot.failed);
  fp.add(tot.hops_total);
  for (const auto b : tot.latency.serialize()) fp.add(std::uint64_t{b});
  fp.add(static_cast<std::uint64_t>(drain_rounds));
  fp.add(rel_after);
  r.fingerprint = fp.h;

  if (tr) {
    const auto spans = tr->pass_spans();
    r.layer("cluster.crash_ms",
            sum(span_ms(spans, "EventCluster::crash_region")), "ms");
    r.layer("cluster.recover_ms",
            sum(span_ms(spans, "EventCluster::recover_all")), "ms");
    const char* names[] = {"cluster.round_ms.before", "cluster.round_ms.during",
                           "cluster.round_ms.after"};
    int lo = w0;
    for (std::size_t p = 0; p < 3; ++p) {
      r.layer(names[p],
              median(span_ms(spans, "EventCluster::run_rounds(1)", lo,
                             phase_end[p])),
              "ms");
      lo = phase_end[p];
    }
    const double timed_ns = r.timed_s() * 1e9;
    double routing_share = 0.0;
    for (std::size_t p = 0; p < 3; ++p)
      routing_share += ratio(routing_ns[p] * phase_hops[p], timed_ns);
    r.layer("routing.ns_per_hop", mean(routing_ns), "ns",
            "mean of the before/during/after probes");
    r.layer("routing.share", routing_share, "share",
            "probe ns/hop x completed-request hops / window ns");
    double measure_ms = 0.0;
    for (const char* name :
         {"EventCluster::homogeneity", "EventCluster::reliability",
          "EventCluster::crash_region", "EventCluster::recover_all",
          "TrafficPlane::take_interval"})
      measure_ms += sum(span_ms(spans, name, w0, round));
    fleet_layers(r, *fleet, c0, c1, seed,
                 routing_share + ratio(measure_ms * 1e6, timed_ns), tr);
    r.layer("traffic.hops_per_request",
            ratio(static_cast<double>(tot.hops_total),
                  static_cast<double>(tot.completed)),
            "count", "completed requests only");
    const char* failed_names[] = {"traffic.failed_share.before",
                                  "traffic.failed_share.during",
                                  "traffic.failed_share.after"};
    for (std::size_t p = 0; p < 3; ++p)
      r.layer(failed_names[p],
              ratio(static_cast<double>(phases[p].failed),
                    static_cast<double>(phases[p].launched)),
              "share",
              std::to_string(phases[p].failed) + " / " +
                  std::to_string(phases[p].launched) + " launched");
    r.layer("traffic.inflight_peak",
            static_cast<double>(fleet->traffic_plane()->high_water()),
            "count");
  }
  return r;
}

// ---- paper_sync ------------------------------------------------------------------

constexpr std::size_t kSyncConverge = 20;
constexpr std::size_t kSyncFailure = 30;
constexpr std::size_t kSyncReinject = 30;

PassResult run_paper_sync(std::uint64_t seed, Tracer* tr) {
  PassResult r;
  const shape::GridTorusShape shape(80, 40);
  scenario::SimulationConfig cfg;
  cfg.seed = seed;
  cfg.poly.replication = kReplication;
  const auto s0 = now_ns();
  std::unique_ptr<scenario::Simulation> sim;
  int round = 0;
  // Untraced passes call the public run_round(); traced passes make the
  // same four calls one by one (the fingerprint check proves they agree).
  auto sync_round = [&] {
    if (!tr) {
      sim->run_round();
      return;
    }
    {
      Scope s(tr, "rps", "RpsProtocol::round");
      sim->rps().round();
    }
    {
      Scope s(tr, "tman", "TopologyConstruction::round");
      sim->topology().round();
    }
    {
      Scope s(tr, "core", "PolystyreneLayer::round");
      sim->polystyrene()->round();
    }
    Scope s(tr, "sim", "Network::advance_round");
    sim->network().advance_round();
  };
  {
    Scope setup(tr, "bench", "setup");
    {
      Scope s(tr, "scenario", "Simulation::Simulation");
      sim = std::make_unique<scenario::Simulation>(shape, cfg);
    }
    for (std::size_t i = 0; i < kSyncConverge; ++i) {
      if (tr) tr->set_round(round);
      ++round;
      sync_round();
    }
  }
  r.setup_s = static_cast<double>(now_ns() - s0) / 1e9;

  const std::size_t n_points = sim->initial_points().size();
  const int w0 = round;
  RoundClock clock(r);
  Fingerprint fp;
  double reshaping = 0.0;
  double rel_crash = 0.0, h_crash = 0.0, href_crash = 0.0;
  std::size_t crashed = 0;
  {
    Scope window(tr, "bench", "window");
    auto step = [&](bool crash, bool reinject) {
      if (tr) tr->set_round(round);
      ++round;
      clock.start();
      if (crash) {
        Scope s(tr, "scenario", "Simulation::crash_failure_half");
        crashed = sim->crash_failure_half();
      }
      if (reinject) {
        Scope s(tr, "scenario", "Simulation::reinject");
        sim->reinject(crashed);
      }
      sync_round();
      double h;
      double href;
      {
        Scope s(tr, "metrics", "Simulation::homogeneity");
        h = sim->homogeneity();
        href = sim->reference_homogeneity();
      }
      clock.stop(static_cast<double>(sim->network().num_alive()));
      fp.add(h);
      return std::pair{h, href};
    };
    for (std::size_t i = 0; i < kSyncFailure; ++i) {
      const auto [h, href] = step(i == 0, false);
      if (reshaping == 0.0 && h < href) reshaping = static_cast<double>(i + 1);
      h_crash = h;
      href_crash = href;
    }
    {
      Scope s(tr, "metrics", "Simulation::reliability");
      rel_crash = sim->reliability();
    }
    for (std::size_t i = 0; i < kSyncReinject; ++i) step(false, i == 0);
  }
  // Outside the window.  The points the crash costs are the measured
  // outcome (reliability); the operations are the points that survived
  // it, and one fails if it is lost in the re-inject phase, where no node
  // fails.
  double rel_end;
  {
    Scope s(tr, "metrics", "Simulation::reliability");
    rel_end = sim->reliability();
  }
  auto hosted = [&](double rel) {
    return static_cast<std::uint64_t>(
        std::llround(rel * static_cast<double>(n_points)));
  };
  r.attempted = hosted(rel_crash);
  r.failed = r.attempted - std::min(hosted(rel_end), r.attempted);
  r.output("success_rate",
           ratio(static_cast<double>(r.attempted),
                 static_cast<double>(n_points)),
           "share");
  r.output("reliability", rel_crash, "share");
  r.output("reliability_after_reinject", rel_end, "share");
  r.output("homogeneity_ratio", ratio(h_crash, href_crash), "ratio");
  r.output("reshaping_rounds", reshaping, "rounds");
  r.output("points_per_node", sim->avg_points_per_node(), "count");
  r.check(reshaping > 0.0, "not reshaped within the crash phase");
  r.check(crashed > 0, "the crash removed no node");
  r.check(r.failed == 0, std::to_string(r.failed) +
                             " points lost after the crash phase");

  fp.add(rel_crash);
  fp.add(rel_end);
  fp.add(reshaping);
  fp.add(static_cast<std::uint64_t>(crashed));
  const auto& meter = sim->network().traffic();
  std::array<double, 4> msgs{};
  const sim::Channel channels[] = {sim::Channel::kRps, sim::Channel::kTman,
                                   sim::Channel::kBackup,
                                   sim::Channel::kMigration};
  for (std::size_t rr = static_cast<std::size_t>(w0); rr < meter.rounds();
       ++rr)
    for (std::size_t c = 0; c < 4; ++c) {
      const double v = meter.per_node(rr, channels[c]);
      msgs[c] += v;
      fp.add(v);
    }
  r.fingerprint = fp.h;

  if (tr) {
    const auto spans = tr->pass_spans();
    const double rounds = static_cast<double>(round - w0);
    r.layer("scenario.ctor_ms",
            sum(span_ms(spans, "Simulation::Simulation")), "ms");
    r.layer("rps.ms_per_round",
            mean(span_ms(spans, "RpsProtocol::round", w0, round)), "ms");
    r.layer("tman.ms_per_round",
            mean(span_ms(spans, "TopologyConstruction::round", w0, round)),
            "ms");
    r.layer("core.ms_per_round",
            mean(span_ms(spans, "PolystyreneLayer::round", w0, round)),
            "ms");
    r.layer("sim.ms_per_round",
            mean(span_ms(spans, "Network::advance_round", w0, round)),
            "ms");
    const char* names[] = {"sim.msgs_per_node_round.rps",
                           "sim.msgs_per_node_round.tman",
                           "sim.msgs_per_node_round.backup",
                           "sim.msgs_per_node_round.migration"};
    for (std::size_t c = 0; c < 4; ++c)
      r.layer(names[c], msgs[c] / rounds, "units",
              "TrafficMeter cost units per alive node, window mean");
    r.layer("core.points_per_node", sim->avg_points_per_node(), "count");
    std::vector<double> measures =
        span_ms(spans, "Simulation::homogeneity", w0, round);
    r.layer("metrics.ms_per_measure", mean(measures), "ms");
  }
  return r;
}

// ---- main --------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< required; run.py passes run_seconds
  bool trace = false;
  std::string spans_out;
  bool mem_probe = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "fleetbench: %s\n"
               "usage: fleetbench --workload steady_6k|catastrophe_traffic|"
               "paper_sync --seconds S [--seed N] [--trace 0|1] "
               "[--spans FILE]\n"
               "       fleetbench --mem-probe\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      const std::string v = value();
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("bad --seed");
    } else if (a == "--seconds") {
      const std::string v = value();
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0.0))
        usage("bad --seconds");
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--spans") {
      o.spans_out = value();
    } else if (a == "--mem-probe") {
      o.mem_probe = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!o.mem_probe && o.seconds == 0.0) usage("missing --seconds");
  return o;
}

/// Host memory-latency diagnostic: a dependent-load chase over a 32 MiB
/// random cycle.  Printed before each workload so a contended window can
/// be told from a slow change; never a gated metric.
void mem_probe() {
  constexpr std::size_t kEntries = std::size_t{8} << 20;  // 32 MiB of u32
  constexpr std::size_t kLoads = std::size_t{4} << 20;
  std::vector<std::uint32_t> next(kEntries);
  std::iota(next.begin(), next.end(), 0u);
  util::Rng rng(0x6d656d6f7279ull);
  for (std::size_t i = kEntries - 1; i > 0; --i)  // Sattolo: one cycle
    std::swap(next[i], next[rng.index(i)]);
  std::uint32_t at = 0;
  const auto t0 = now_ns();
  for (std::size_t i = 0; i < kLoads; ++i) at = next[at];
  const double ns = static_cast<double>(now_ns() - t0) / kLoads;
  std::printf("host memory latency: %.1f ns/load (32 MiB chase, %zu loads, "
              "end %u)\n",
              ns, kLoads, at);
}

void write_spans(const Options& o, const Tracer& tr) {
  if (o.spans_out.empty()) return;
  std::FILE* f = std::fopen(o.spans_out.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "fleetbench: cannot write %s\n",
                 o.spans_out.c_str());
    return;
  }
  for (const auto& s : tr.all())
    std::fprintf(f,
                 "{\"pass\":%d,\"round\":%d,\"layer\":\"%s\",\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d}\n",
                 s.pass, s.round, s.layer, s.name,
                 static_cast<long long>(s.t0), static_cast<long long>(s.t1),
                 s.parent);
  std::fclose(f);
  std::printf("spans: %zu written to %s\n", tr.all().size(),
              o.spans_out.c_str());
}

/// Layer table of one traced pass: calls, total, self (total minus the
/// direct children), share of the pass's root-span time.
void print_layer_table(const std::vector<Span>& spans, std::size_t first) {
  struct Row {
    std::size_t calls = 0;
    double total = 0.0, self = 0.0;
  };
  std::map<std::string, Row> rows;
  std::vector<double> child(spans.size(), 0.0);
  double root_total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double d = static_cast<double>(spans[i].t1 - spans[i].t0);
    const auto p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) >= first)
      child[static_cast<std::size_t>(p) - first] += d;
    else
      root_total += d;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double d = static_cast<double>(spans[i].t1 - spans[i].t0);
    Row& row = rows[spans[i].layer];
    ++row.calls;
    row.total += d;
    row.self += d - child[i];
  }
  std::printf("  %-20s %10s %12s %12s %8s\n", "layer", "calls", "total_ms",
              "self_ms", "share");
  for (const auto& [layer, row] : rows)
    std::printf("  %-20s %10zu %12.2f %12.2f %8.4f\n", layer.c_str(),
                row.calls, row.total / 1e6, row.self / 1e6,
                ratio(row.self, root_total));
}

/// Bookkeeping cost of one span (open + close) on this host, in ns.
double span_cost_ns() {
  Tracer t;
  constexpr int kSpans = 50'000;
  const auto t0 = now_ns();
  for (int i = 0; i < kSpans; ++i) Scope s(&t, "bench", "probe");
  return static_cast<double>(now_ns() - t0) / kSpans;
}

using WorkloadFn = PassResult (*)(std::uint64_t, Tracer*);

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.mem_probe) {
    mem_probe();
    return 0;
  }
  WorkloadFn fn = nullptr;
  if (o.workload == "steady_6k") fn = run_steady;
  if (o.workload == "catastrophe_traffic") fn = run_catastrophe;
  if (o.workload == "paper_sync") fn = run_paper_sync;
  if (!fn) usage(("unknown workload '" + o.workload + "'").c_str());

  std::printf("fleetbench %s: seed %llu, %.0f s, trace %d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  Tracer tracer;
  std::vector<PassResult> untraced, traced;
  // Peak RSS is read after the first pass: later passes rebuild the fleet
  // in a heap the earlier ones left fragmented, and how many passes fit in
  // --seconds depends on host speed.
  double first_pass_rss_mb = 0.0;
  const auto t_start = now_ns();
  // At least three untraced passes (the set-up median), or one of each
  // kind when tracing; then another pass while it is expected to end
  // within --seconds, so a run's length does not overshoot by a pass.
  for (int pass = 0;; ++pass) {
    const bool traced_pass = o.trace && pass % 2 == 1;
    if (traced_pass) tracer.begin_pass(pass);
    PassResult r = fn(o.seed, traced_pass ? &tracer : nullptr);
    std::printf("  pass %d%s: setup %.3f s, %zu timed rounds in %.3f s, "
                "fingerprint %016llx\n",
                pass, traced_pass ? " (traced)" : "", r.setup_s,
                r.round_s.size(), r.timed_s(),
                static_cast<unsigned long long>(r.fingerprint));
    (traced_pass ? traced : untraced).push_back(std::move(r));
    if (pass == 0) first_pass_rss_mb = peak_rss_mb();
    const double elapsed = static_cast<double>(now_ns() - t_start) / 1e9;
    const int min_passes = o.trace ? 2 : 3;
    if (pass + 1 >= min_passes && elapsed * (pass + 2) / (pass + 1) > o.seconds)
      break;
  }

  // Checks: every pass agrees with the first (same seed, same outputs),
  // traced passes included, and each pass's own checks hold.
  const PassResult& ref = untraced.front();
  std::vector<std::string> violations = ref.violations;
  for (const auto* set : {&untraced, &traced})
    for (const auto& r : *set)
      if (r.fingerprint != ref.fingerprint)
        violations.push_back("fingerprint differs between passes");

  std::printf("\nsimulated outputs (identical in every pass):\n");
  for (const auto& m : ref.outputs)
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  %-28s %016llx\n", "fingerprint",
              static_cast<unsigned long long>(ref.fingerprint));
  std::printf("  operations attempted %llu, failed %llu (per pass)\n",
              static_cast<unsigned long long>(ref.attempted),
              static_cast<unsigned long long>(ref.failed));

  std::uint64_t attempted = 0, failed = 0;
  for (const auto* set : {&untraced, &traced})
    for (const auto& r : *set) {
      attempted += r.attempted;
      failed += r.failed;
    }

  // End-to-end metrics: untraced passes only.
  std::vector<double> setups, per_node_us;
  double node_rounds = 0.0, timed = 0.0;
  for (const auto& r : untraced) {
    setups.push_back(r.setup_s);
    node_rounds += r.node_rounds();
    timed += r.timed_s();
    for (std::size_t i = 0; i < r.round_s.size(); ++i)
      per_node_us.push_back(r.round_s[i] * 1e6 / r.round_alive[i]);
  }
  auto output = [&](const char* name) {
    for (const auto& m : ref.outputs)
      if (m.name == name) return m.value;
    return 0.0;
  };
  std::vector<Metric> e2e = {
      {"setup_s", median(setups), "s",
       "median of " + std::to_string(setups.size()) + " set-ups"},
      {"node_rounds_per_s", ratio(node_rounds, timed), "1/s",
       std::to_string(static_cast<std::uint64_t>(node_rounds)) +
           " node-rounds / " + std::to_string(timed) + " s"},
      {"node_round_us_p50", quantile(per_node_us, 0.5), "us",
       std::to_string(per_node_us.size()) + " rounds"},
      {"node_round_us_p90", quantile(per_node_us, 0.9), "us",
       std::to_string(per_node_us.size()) + " rounds"},
      {"peak_rss_mb", first_pass_rss_mb, "MB",
       "getrusage ru_maxrss after the first pass"},
      {"success_rate", output("success_rate"), "share",
       "frames delivered, requests completed or points kept / offered"},
      {"reliability", output("reliability"), "share",
       "end of the crash phase (steady_6k: end of the window)"},
  };

  std::vector<Metric> layers;
  if (o.trace) {
    const PassResult& t = traced.front();
    std::vector<double> tr_us;
    for (const auto& r : traced)
      for (std::size_t i = 0; i < r.round_s.size(); ++i)
        tr_us.push_back(r.round_s[i] * 1e6 / r.round_alive[i]);
    const double overhead =
        ratio(median(tr_us), median(per_node_us)) - 1.0;
    std::size_t spans = 0;
    for (const auto& sp : tracer.all()) spans += sp.pass == 1;
    const double span_ns = span_cost_ns();
    std::printf("\ntracing overhead: traced / untraced median round - 1 = "
                "%.4f (%zu traced, %zu untraced passes); span bookkeeping "
                "alone: %zu spans x %.0f ns = %.2g of a traced pass's window\n",
                overhead, traced.size(), untraced.size(), spans, span_ns,
                ratio(static_cast<double>(spans) * span_ns,
                      t.timed_s() * 1e9));
    layers = t.layers;
    layers.push_back({"trace.overhead_share", overhead, "share",
                      "traced / untraced median round - 1"});
    std::printf("\nper-layer spans (first traced pass):\n");
    std::vector<Span> pass_spans;
    std::size_t first = 0;
    for (std::size_t i = 0; i < tracer.all().size(); ++i)
      if (tracer.all()[i].pass == 1) {
        if (pass_spans.empty()) first = i;
        pass_spans.push_back(tracer.all()[i]);
      }
    print_layer_table(pass_spans, first);
    std::printf("\nper-layer metrics (layers this workload bypasses are "
                "listed as 0 by run.py):\n");
    for (const auto& m : layers)
      std::printf("  %-36s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.base.c_str());
    write_spans(o, tracer);
  } else {
    std::printf("\nend-to-end metrics:\n");
    for (const auto& m : e2e)
      std::printf("  %-20s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.base.c_str());
  }

  const auto& out = o.trace ? layers : e2e;
  for (const auto& m : out)
    if (!std::isfinite(m.value))
      violations.push_back("metric " + m.name + " is not finite");
  for (const auto& v : violations) std::printf("CHECK FAILED: %s\n", v.c_str());
  const bool correct = violations.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < out.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", out[i].name.c_str(),
                std::isfinite(out[i].value) ? out[i].value : 0.0,
                out[i].unit.c_str());
  std::printf("}}\n");
  return correct ? 0 : 1;
}
