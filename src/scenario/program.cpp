#include "scenario/program.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "scenario/snapshot.hpp"
#include "space/torus.hpp"

namespace poly::scenario {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::string location(const std::string& file, int line) {
  return line > 0 ? file + ":" + std::to_string(line) : file;
}

/// %.17g — shortest form that round-trips a double through the serializer.
std::string fmt_g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Trim to the shortest representation that still parses back exactly.
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[40];
    std::snprintf(shorter, sizeof shorter, "%.*g", prec, v);
    if (std::strtod(shorter, nullptr) == v) return shorter;
  }
  return buf;
}

/// The metric vocabulary of `expect`, with per-mode availability (sync
/// cannot observe frame traffic; events cannot observe points/node).
struct ExpectMetric {
  const char* name;
  bool sync_ok;
  bool events_ok;
};
constexpr ExpectMetric kExpectMetrics[] = {
    {"homogeneity", true, true},
    {"proximity", true, true},
    {"reliability", true, true},
    {"alive", true, true},
    {"points_per_node", true, false},
    {"frames", false, true},
    {"frames_rejected", false, true},
    {"frames_blackholed", false, true},
    {"frames_duplicated", false, true},
    {"frames_corrupted", false, true},
    {"frames_reordered", false, true},
    {"stall_rounds", false, true},
    {"recoveries", false, true},
    // Traffic-plane metrics (docs/TRAFFIC.md) — the workload runs on the
    // event engine only.
    {"requests", false, true},
    {"requests_failed", false, true},
    {"success_rate", false, true},
    {"p50_latency_ms", false, true},
    {"p99_latency_ms", false, true},
    {"p999_latency_ms", false, true},
    {"mean_hops", false, true},
};

const ExpectMetric* find_expect_metric(const std::string& name) {
  for (const auto& m : kExpectMetrics)
    if (name == m.name) return &m;
  return nullptr;
}

std::string expect_metric_names() {
  std::string out;
  for (const auto& m : kExpectMetrics) {
    if (!out.empty()) out += ", ";
    out += m.name;
  }
  return out;
}

std::optional<Expect::Op> parse_expect_op(const std::string& s) {
  if (s == "<") return Expect::Op::kLt;
  if (s == "<=") return Expect::Op::kLe;
  if (s == ">") return Expect::Op::kGt;
  if (s == ">=") return Expect::Op::kGe;
  if (s == "==") return Expect::Op::kEq;
  if (s == "!=") return Expect::Op::kNe;
  return std::nullopt;
}

const char* to_string(Expect::Op op) {
  switch (op) {
    case Expect::Op::kLt: return "<";
    case Expect::Op::kLe: return "<=";
    case Expect::Op::kGt: return ">";
    case Expect::Op::kGe: return ">=";
    case Expect::Op::kEq: return "==";
    case Expect::Op::kNe: return "!=";
  }
  return "?";
}

bool eval_expect_op(Expect::Op op, double lhs, double rhs) {
  switch (op) {
    case Expect::Op::kLt: return lhs < rhs;
    case Expect::Op::kLe: return lhs <= rhs;
    case Expect::Op::kGt: return lhs > rhs;
    case Expect::Op::kGe: return lhs >= rhs;
    case Expect::Op::kEq: return lhs == rhs;
    case Expect::Op::kNe: return lhs != rhs;
  }
  return false;
}

/// The measured value an expect compares against.  `reliability` goes
/// through the runtime (sync's RoundMetrics carries NaN there; the direct
/// query works in every mode).
double expect_value(const std::string& metric, const RoundMetrics& m,
                    const Runtime& rt) {
  if (metric == "homogeneity") return m.homogeneity;
  if (metric == "proximity") return m.proximity;
  if (metric == "reliability") return rt.reliability();
  if (metric == "alive") return static_cast<double>(m.alive);
  if (metric == "points_per_node") return m.points_per_node;
  if (metric == "frames") return static_cast<double>(m.frames);
  if (metric == "frames_rejected")
    return static_cast<double>(m.frames_rejected);
  if (metric == "frames_blackholed")
    return static_cast<double>(m.frames_blackholed);
  if (metric == "frames_duplicated")
    return static_cast<double>(m.frames_duplicated);
  if (metric == "frames_corrupted")
    return static_cast<double>(m.frames_corrupted);
  if (metric == "frames_reordered")
    return static_cast<double>(m.frames_reordered);
  if (metric == "stall_rounds") return static_cast<double>(m.stall_rounds);
  if (metric == "recoveries") return static_cast<double>(m.recoveries);
  if (metric == "requests") return static_cast<double>(m.requests);
  if (metric == "requests_failed")
    return static_cast<double>(m.requests_failed);
  if (metric == "success_rate") return m.success_rate;
  if (metric == "p50_latency_ms") return m.p50_latency_ms;
  if (metric == "p99_latency_ms") return m.p99_latency_ms;
  if (metric == "p999_latency_ms") return m.p999_latency_ms;
  if (metric == "mean_hops") return m.mean_hops;
  return std::numeric_limits<double>::quiet_NaN();  // unreachable: validated
}

const char* traffic_mix_token(TrafficMix mix) {
  switch (mix) {
    case TrafficMix::kGet: return "get";
    case TrafficMix::kPut: return "put";
    case TrafficMix::kMixed: break;
  }
  return "mixed";
}

const char* link_dir_token(LinkDirection dir) {
  switch (dir) {
    case LinkDirection::kInto: return "in";
    case LinkDirection::kOutOf: return "out";
    case LinkDirection::kBoth: break;
  }
  return "both";
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (tok[0] == '#') break;  // comment to end of line
    out.push_back(std::move(tok));
  }
  return out;
}

class Parser {
 public:
  Parser(const std::string& text, const std::string& filename)
      : text_(text), file_(filename) {}

  ScenarioProgram parse() {
    ScenarioProgram p;
    p.file = file_;
    p.name = default_name();

    std::istringstream is(text_);
    std::string raw;
    while (std::getline(is, raw)) {
      ++line_;
      const auto tok = tokenize(raw);
      if (tok.empty()) continue;
      if (!in_timeline_ && header_directive(p, tok)) continue;
      in_timeline_ = true;
      stage(p, tok);
    }

    if (p.shape_spec.empty())
      fail(0, "missing required 'shape' directive (e.g. shape grid:80x40)");
    check_shapes(p);
    check_expects(p);
    return p;
  }

 private:
  [[noreturn]] void fail(int line, const std::string& msg) const {
    throw ProgramError(file_, line, msg);
  }

  std::string default_name() const {
    std::string stem = file_;
    if (const auto slash = stem.find_last_of('/');
        slash != std::string::npos)
      stem = stem.substr(slash + 1);
    if (stem.size() > 5 && stem.ends_with(".poly"))
      stem = stem.substr(0, stem.size() - 5);
    return stem;
  }

  std::size_t parse_count(const std::string& tok, const char* what,
                          std::size_t min = 1) const {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0' || tok[0] == '-')
      fail(line_, std::string("bad ") + what + " '" + tok +
                      "' (want a non-negative integer)");
    if (v < min)
      fail(line_, std::string(what) + " must be >= " + std::to_string(min) +
                      ", got " + tok);
    return static_cast<std::size_t>(v);
  }

  double parse_double(const std::string& tok, const char* what) const {
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0' || !std::isfinite(v))
      fail(line_, std::string("bad ") + what + " '" + tok + "'");
    return v;
  }

  /// Parses four zone corners starting at `tok[base]` into `s`; rejects
  /// empty rectangles (shared by crash/partition/degrade/stall zones).
  void parse_zone(Stage& s, const std::vector<std::string>& tok,
                  std::size_t base, const char* verb) const {
    s.x0 = parse_double(tok[base + 0], "zone x0");
    s.y0 = parse_double(tok[base + 1], "zone y0");
    s.x1 = parse_double(tok[base + 2], "zone x1");
    s.y1 = parse_double(tok[base + 3], "zone y1");
    if (s.x1 <= s.x0 || s.y1 <= s.y0)
      fail(line_, std::string("empty ") + verb +
                      " zone (want x0 < x1 and y0 < y1)");
  }

  void expect_args(const std::vector<std::string>& tok, std::size_t n,
                   const char* usage) const {
    if (tok.size() != n)
      fail(line_, "'" + tok[0] + "' wants " + usage + ", got " +
                      std::to_string(tok.size() - 1) + " argument(s)");
  }

  void record(ScenarioProgram& p, const std::string& key) {
    for (const auto& [k, l] : p.directive_lines)
      if (k == key)
        fail(line_, "duplicate '" + key + "' (first set on line " +
                        std::to_string(l) + ")");
    p.directive_lines.emplace_back(key, line_);
  }

  /// Returns true when `tok` was a header directive.
  bool header_directive(ScenarioProgram& p,
                        const std::vector<std::string>& tok) {
    const std::string& key = tok[0];
    if (key == "name") {
      expect_args(tok, 2, "one word");
      record(p, key);
      p.name = tok[1];
    } else if (key == "shape") {
      expect_args(tok, 2, "one spec (grid:WxH, ring:N, cube:XxYxZ)");
      record(p, key);
      std::string err;
      if (!shape::make_shape(tok[1], &err)) fail(line_, err);
      p.shape_spec = tok[1];
    } else if (key == "engine") {
      expect_args(tok, 2, "sync|events|live");
      record(p, key);
      const auto mode = engine_mode_from_string(tok[1]);
      if (!mode)
        fail(line_, "unknown engine '" + tok[1] +
                        "' (want sync, events, or live)");
      p.options.engine = *mode;
    } else if (key == "seed") {
      expect_args(tok, 2, "one integer");
      record(p, key);
      p.options.config.seed = parse_count(tok[1], "seed", 0);
    } else if (key == "reps") {
      expect_args(tok, 2, "one integer");
      record(p, key);
      p.reps = parse_count(tok[1], "reps");
    } else if (key == "k") {
      expect_args(tok, 2, "one integer");
      record(p, key);
      p.options.config.poly.replication = parse_count(tok[1], "k");
    } else if (key == "split") {
      expect_args(tok, 2, "basic|pd|md|advanced");
      record(p, key);
      try {
        p.options.config.poly.split_kind =
            core::split_kind_from_string(tok[1]);
      } catch (const std::invalid_argument&) {
        fail(line_, "unknown split '" + tok[1] +
                        "' (want basic, pd, md, or advanced)");
      }
    } else if (key == "substrate") {
      expect_args(tok, 2, "tman|vicinity");
      record(p, key);
      if (tok[1] == "tman")
        p.options.config.substrate = Substrate::kTman;
      else if (tok[1] == "vicinity")
        p.options.config.substrate = Substrate::kVicinity;
      else
        fail(line_, "unknown substrate '" + tok[1] +
                        "' (want tman or vicinity)");
    } else if (key == "polystyrene") {
      expect_args(tok, 2, "on|off");
      record(p, key);
      if (tok[1] == "on")
        p.options.config.polystyrene = true;
      else if (tok[1] == "off")
        p.options.config.polystyrene = false;
      else
        fail(line_, "polystyrene wants on or off, got '" + tok[1] + "'");
    } else if (key == "fd-delay") {
      expect_args(tok, 2, "one integer");
      record(p, key);
      p.options.config.fd_delay_rounds =
          parse_count(tok[1], "fd-delay", 0);
    } else if (key == "fd-fp") {
      expect_args(tok, 2, "one rate");
      record(p, key);
      p.options.config.fd_false_positive_rate =
          parse_double(tok[1], "fd-fp rate");
      if (p.options.config.fd_false_positive_rate < 0.0 ||
          p.options.config.fd_false_positive_rate >= 1.0)
        fail(line_, "fd-fp rate " + tok[1] + " out of [0, 1)");
    } else {
      return false;  // not a header directive — first timeline stage
    }
    return true;
  }

  void stage(ScenarioProgram& p, const std::vector<std::string>& tok) {
    // `expect` is an assertion, not a stage — position-independent, keyed
    // by completed-round count (or `end`), collected outside the timeline.
    if (tok[0] == "expect") {
      expect_args(tok, 6, "<metric> <op> <value> @ <round|end>");
      Expect e;
      e.line = line_;
      e.metric = tok[1];
      if (find_expect_metric(e.metric) == nullptr)
        fail(line_, "unknown expect metric '" + tok[1] + "' (want one of " +
                        expect_metric_names() + ")");
      const auto op = parse_expect_op(tok[2]);
      if (!op)
        fail(line_, "unknown expect comparison '" + tok[2] +
                        "' (want <, <=, >, >=, ==, or !=)");
      e.op = *op;
      e.value = parse_double(tok[3], "expect value");
      if (tok[4] != "@")
        fail(line_, "'expect' wants: expect <metric> <op> <value> @ "
                    "<round|end>");
      if (tok[5] == "end")
        e.at_end = true;
      else
        e.round = parse_count(tok[5], "expect round");
      p.expects.push_back(std::move(e));
      return;
    }

    Stage s;
    s.line = line_;
    const std::string& verb = tok[0];

    if (verb == "run") {
      expect_args(tok, 2, "a round count");
      s.kind = Stage::Kind::kRun;
      s.rounds = parse_count(tok[1], "round count");
    } else if (verb == "grow") {
      expect_args(tok, 2, "a node count or 'crashed'");
      s.kind = Stage::Kind::kGrow;
      if (tok[1] == "crashed") {
        if (!crash_seen_)
          fail(line_, "'grow crashed' needs a crash or churn stage before "
                      "it");
        s.grow_crashed = true;
      } else {
        s.count = parse_count(tok[1], "node count");
      }
    } else if (verb == "crash") {
      s.kind = Stage::Kind::kCrash;
      if (tok.size() < 2)
        fail(line_, "'crash' wants half, frac F, zone X0 Y0 X1 Y1, or "
                    "ids A,B,…");
      const std::string& sel = tok[1];
      if (sel == "half") {
        expect_args(tok, 2, "no further arguments");
        s.selector = Stage::CrashSelector::kHalf;
      } else if (sel == "frac") {
        expect_args(tok, 3, "one fraction");
        s.selector = Stage::CrashSelector::kFrac;
        s.frac = parse_double(tok[2], "crash fraction");
        if (s.frac <= 0.0 || s.frac > 1.0)
          fail(line_, "crash fraction " + tok[2] + " out of (0, 1]");
      } else if (sel == "zone") {
        expect_args(tok, 6, "four corner coordinates X0 Y0 X1 Y1");
        s.selector = Stage::CrashSelector::kZone;
        s.x0 = parse_double(tok[2], "zone x0");
        s.y0 = parse_double(tok[3], "zone y0");
        s.x1 = parse_double(tok[4], "zone x1");
        s.y1 = parse_double(tok[5], "zone y1");
        if (s.x1 <= s.x0 || s.y1 <= s.y0)
          fail(line_, "empty crash zone (want x0 < x1 and y0 < y1)");
      } else if (sel == "ids") {
        expect_args(tok, 3, "a comma-separated id list");
        s.selector = Stage::CrashSelector::kIds;
        std::istringstream is(tok[2]);
        std::string part;
        while (std::getline(is, part, ','))
          s.ids.push_back(parse_count(part, "node id", 0));
        if (s.ids.empty()) fail(line_, "empty crash id list");
      } else {
        fail(line_, "unknown crash selector '" + sel +
                        "' (want half, frac, zone, or ids)");
      }
      crash_seen_ = true;
    } else if (verb == "churn") {
      expect_args(tok, 3, "a percentage and a round count");
      s.kind = Stage::Kind::kChurn;
      s.frac = parse_double(tok[1], "churn percentage");
      if (s.frac <= 0.0 || s.frac > 100.0)
        fail(line_, "churn percentage " + tok[1] + " out of (0, 100]");
      s.rounds = parse_count(tok[2], "round count");
      crash_seen_ = true;
    } else if (verb == "flash-crowd") {
      expect_args(tok, 3, "a node count and a round count");
      s.kind = Stage::Kind::kFlashCrowd;
      s.count = parse_count(tok[1], "node count");
      s.rounds = parse_count(tok[2], "round count");
    } else if (verb == "morph") {
      if (tok.size() < 2)
        fail(line_, "'morph' wants drift DX DY N or shape SPEC N");
      if (tok[1] == "drift") {
        expect_args(tok, 5, "drift DX DY N");
        s.kind = Stage::Kind::kMorphDrift;
        s.dx = parse_double(tok[2], "drift dx");
        s.dy = parse_double(tok[3], "drift dy");
        s.rounds = parse_count(tok[4], "round count");
      } else if (tok[1] == "shape") {
        expect_args(tok, 4, "shape SPEC N");
        s.kind = Stage::Kind::kMorphShape;
        std::string err;
        if (!shape::make_shape(tok[2], &err))
          fail(line_, "morph to unknown shape: " + err);
        s.shape_spec = tok[2];
        s.rounds = parse_count(tok[3], "round count");
      } else {
        fail(line_, "unknown morph mode '" + tok[1] +
                        "' (want drift or shape)");
      }
    } else if (verb == "migrate") {
      expect_args(tok, 4, "DX DY N");
      s.kind = Stage::Kind::kMigrate;
      s.dx = parse_double(tok[1], "migrate dx");
      s.dy = parse_double(tok[2], "migrate dy");
      s.rounds = parse_count(tok[3], "round count");
    } else if (verb == "snapshot") {
      s.kind = Stage::Kind::kSnapshot;
      for (std::size_t i = 1; i < tok.size(); ++i) {
        if (i > 1) s.label += ' ';
        s.label += tok[i];
      }
    } else if (verb == "measure") {
      if (tok.size() != 3 || tok[1] != "every")
        fail(line_, "'measure' wants: measure every R");
      s.kind = Stage::Kind::kMeasureEvery;
      s.rounds = parse_count(tok[2], "measure cadence");
    } else if (verb == "partition") {
      expect_args(tok, 8, "zone X0 Y0 X1 Y1 heal N");
      if (tok[1] != "zone" || tok[6] != "heal")
        fail(line_, "'partition' wants: partition zone X0 Y0 X1 Y1 heal N");
      s.kind = Stage::Kind::kPartition;
      s.selector = Stage::CrashSelector::kZone;
      parse_zone(s, tok, 2, "partition");
      s.rounds = parse_count(tok[7], "heal round count", 0);
    } else if (verb == "degrade") {
      expect_args(tok, 13,
                  "zone X0 Y0 X1 Y1 in|out|both drop D jitter MS heal N");
      if (tok[1] != "zone" || tok[7] != "drop" || tok[9] != "jitter" ||
          tok[11] != "heal")
        fail(line_, "'degrade' wants: degrade zone X0 Y0 X1 Y1 "
                    "in|out|both drop D jitter MS heal N");
      s.kind = Stage::Kind::kDegrade;
      s.selector = Stage::CrashSelector::kZone;
      parse_zone(s, tok, 2, "degrade");
      if (tok[6] == "in")
        s.dir = LinkDirection::kInto;
      else if (tok[6] == "out")
        s.dir = LinkDirection::kOutOf;
      else if (tok[6] == "both")
        s.dir = LinkDirection::kBoth;
      else
        fail(line_, "unknown degrade direction '" + tok[6] +
                        "' (want in, out, or both)");
      s.drop = parse_double(tok[8], "degrade drop rate");
      if (s.drop < 0.0 || s.drop >= 1.0)
        fail(line_, "degrade drop rate " + tok[8] + " out of [0, 1)");
      s.jitter_ms = parse_double(tok[10], "degrade jitter");
      if (s.jitter_ms < 0.0)
        fail(line_, "degrade jitter " + tok[10] + " must be >= 0 ms");
      if (s.drop == 0.0 && s.jitter_ms == 0.0)
        fail(line_, "degrade with drop 0 and jitter 0 does nothing");
      s.rounds = parse_count(tok[12], "heal round count", 0);
    } else if (verb == "corrupt" || verb == "duplicate") {
      expect_args(tok, 4, "P heal N");
      if (tok[2] != "heal")
        fail(line_, "'" + verb + "' wants: " + verb + " P heal N");
      s.kind = verb == "corrupt" ? Stage::Kind::kCorrupt
                                 : Stage::Kind::kDuplicate;
      s.frac = parse_double(tok[1], (verb + " probability").c_str());
      if (s.frac <= 0.0 || s.frac > 1.0)
        fail(line_, verb + " probability " + tok[1] + " out of (0, 1]");
      s.rounds = parse_count(tok[3], "heal round count", 0);
    } else if (verb == "reorder") {
      expect_args(tok, 6, "P jitter MS heal N");
      if (tok[2] != "jitter" || tok[4] != "heal")
        fail(line_, "'reorder' wants: reorder P jitter MS heal N");
      s.kind = Stage::Kind::kReorder;
      s.frac = parse_double(tok[1], "reorder probability");
      if (s.frac <= 0.0 || s.frac > 1.0)
        fail(line_, "reorder probability " + tok[1] + " out of (0, 1]");
      s.jitter_ms = parse_double(tok[3], "reorder jitter");
      if (s.jitter_ms <= 0.0)
        fail(line_, "reorder jitter " + tok[3] + " must be > 0 ms");
      s.rounds = parse_count(tok[5], "heal round count", 0);
    } else if (verb == "stall") {
      s.kind = Stage::Kind::kStall;
      if (tok.size() < 2)
        fail(line_, "'stall' wants zone X0 Y0 X1 Y1 N or frac F N");
      if (tok[1] == "zone") {
        expect_args(tok, 7, "zone X0 Y0 X1 Y1 N");
        s.selector = Stage::CrashSelector::kZone;
        parse_zone(s, tok, 2, "stall");
        s.rounds = parse_count(tok[6], "stall round count");
      } else if (tok[1] == "frac") {
        expect_args(tok, 4, "frac F N");
        s.selector = Stage::CrashSelector::kFrac;
        s.frac = parse_double(tok[2], "stall fraction");
        if (s.frac <= 0.0 || s.frac > 1.0)
          fail(line_, "stall fraction " + tok[2] + " out of (0, 1]");
        s.rounds = parse_count(tok[3], "stall round count");
      } else {
        fail(line_, "unknown stall selector '" + tok[1] +
                        "' (want zone or frac)");
      }
    } else if (verb == "recover") {
      s.kind = Stage::Kind::kRecover;
      if (tok.size() < 2)
        fail(line_, "'recover' wants all, frac F, or ids A,B,…");
      if (tok[1] == "all") {
        expect_args(tok, 2, "no further arguments");
        s.recover = Stage::RecoverSelector::kAll;
      } else if (tok[1] == "frac") {
        expect_args(tok, 3, "one fraction");
        s.recover = Stage::RecoverSelector::kFrac;
        s.frac = parse_double(tok[2], "recover fraction");
        if (s.frac <= 0.0 || s.frac > 1.0)
          fail(line_, "recover fraction " + tok[2] + " out of (0, 1]");
      } else if (tok[1] == "ids") {
        expect_args(tok, 3, "a comma-separated id list");
        s.recover = Stage::RecoverSelector::kIds;
        std::istringstream is(tok[2]);
        std::string part;
        while (std::getline(is, part, ','))
          s.ids.push_back(parse_count(part, "node id", 0));
        if (s.ids.empty()) fail(line_, "empty recover id list");
      } else {
        fail(line_, "unknown recover selector '" + tok[1] +
                        "' (want all, frac, or ids)");
      }
    } else if (verb == "traffic") {
      expect_args(tok, 3, "<rate> get|put|mixed");
      s.kind = Stage::Kind::kTraffic;
      s.count = parse_count(tok[1], "traffic rate");
      if (tok[2] == "get")
        s.mix = TrafficMix::kGet;
      else if (tok[2] == "put")
        s.mix = TrafficMix::kPut;
      else if (tok[2] == "mixed")
        s.mix = TrafficMix::kMixed;
      else
        fail(line_, "unknown traffic mix '" + tok[2] +
                        "' (want get, put, or mixed)");
    } else if (verb == "drain") {
      expect_args(tok, 1, "no arguments");
      s.kind = Stage::Kind::kDrain;
    } else {
      fail(line_, "unknown stage '" + verb +
                      "' (want run, grow, crash, churn, flash-crowd, "
                      "morph, migrate, snapshot, measure, partition, "
                      "degrade, corrupt, duplicate, reorder, stall, "
                      "recover, traffic, drain, or expect)");
    }
    p.timeline.push_back(std::move(s));
  }

  /// Morph-shape targets must fit inside the torus the base shape created
  /// (positions cannot leave the metric space); checked here so a bad
  /// timeline fails at parse time, not 80 rounds into a run.
  void check_shapes(const ScenarioProgram& p) const {
    bool any_morph_shape = false;
    for (const auto& s : p.timeline)
      if (s.kind == Stage::Kind::kMorphShape) any_morph_shape = true;
    if (!any_morph_shape) return;

    const auto base = shape::make_shape(p.shape_spec);
    const auto* torus =
        dynamic_cast<const space::TorusSpace*>(&base->space());
    if (torus == nullptr)
      throw ProgramError(p.file, 0,
                         "morph shape needs a grid:WxH base shape, not " +
                             p.shape_spec);
    for (const auto& s : p.timeline) {
      if (s.kind != Stage::Kind::kMorphShape) continue;
      const auto target = shape::make_shape(s.shape_spec);
      const auto* tt =
          dynamic_cast<const space::TorusSpace*>(&target->space());
      if (tt == nullptr)
        throw ProgramError(p.file, s.line,
                           "morph shape target must be a grid:WxH, not " +
                               s.shape_spec);
      if (tt->width() > torus->width() || tt->height() > torus->height())
        throw ProgramError(
            p.file, s.line,
            "morph target " + s.shape_spec + " does not fit the " +
                fmt_g(torus->width()) + "x" + fmt_g(torus->height()) +
                " torus of " + p.shape_spec);
    }
  }

  /// An expect keyed past the last executed round would silently never
  /// fire — reject it at parse time.
  void check_expects(const ScenarioProgram& p) const {
    const std::size_t total = p.total_rounds();
    for (const auto& e : p.expects)
      if (!e.at_end && e.round > total)
        throw ProgramError(p.file, e.line,
                           "expect @ round " + std::to_string(e.round) +
                               " but the timeline only runs " +
                               std::to_string(total) + " rounds");
  }

  const std::string& text_;
  std::string file_;
  int line_ = 0;
  bool in_timeline_ = false;
  bool crash_seen_ = false;
};

std::string engine_header_value(const ScenarioProgram& p) {
  return to_string(p.options.engine);
}

}  // namespace

ProgramError::ProgramError(const std::string& file, int line,
                           const std::string& msg)
    : std::runtime_error(location(file, line) + ": " + msg),
      file_(file),
      line_(line) {}

int ScenarioProgram::line_of(const std::string& directive) const {
  for (const auto& [k, l] : directive_lines)
    if (k == directive) return l;
  return 0;
}

std::size_t ScenarioProgram::total_rounds() const noexcept {
  std::size_t n = 0;
  for (const auto& s : timeline) {
    switch (s.kind) {
      case Stage::Kind::kRun:
      case Stage::Kind::kChurn:
      case Stage::Kind::kFlashCrowd:
      case Stage::Kind::kMorphDrift:
      case Stage::Kind::kMorphShape:
      case Stage::Kind::kMigrate:
        n += s.rounds;
        break;
      default:
        // Instantaneous stages; the fault verbs' `rounds` is a heal bound
        // or stall span, not executed rounds.  `drain` does run rounds,
        // but how many depends on the in-flight population — expects
        // about the post-drain state must use `@ end`.
        break;
    }
  }
  return n;
}

ScenarioProgram parse_program(const std::string& text,
                              const std::string& filename) {
  return Parser(text, filename).parse();
}

ScenarioProgram load_program(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw ProgramError(path, 0, "cannot read scenario file");
  std::ostringstream os;
  os << f.rdbuf();
  return parse_program(os.str(), path);
}

std::string serialize(const ScenarioProgram& p) {
  std::ostringstream os;
  os << "name " << p.name << '\n';
  os << "shape " << p.shape_spec << '\n';
  os << "engine " << engine_header_value(p) << '\n';
  const SimulationConfig& c = p.options.config;
  os << "seed " << c.seed << '\n';
  os << "reps " << p.reps << '\n';
  os << "k " << c.poly.replication << '\n';
  os << "split " << core::to_string(c.poly.split_kind) << '\n';
  os << "substrate "
     << (c.substrate == Substrate::kVicinity ? "vicinity" : "tman") << '\n';
  os << "polystyrene " << (c.polystyrene ? "on" : "off") << '\n';
  if (c.fd_delay_rounds != 0) os << "fd-delay " << c.fd_delay_rounds << '\n';
  if (c.fd_false_positive_rate != 0.0)
    os << "fd-fp " << fmt_g(c.fd_false_positive_rate) << '\n';
  os << '\n';

  for (const auto& s : p.timeline) {
    switch (s.kind) {
      case Stage::Kind::kRun:
        os << "run " << s.rounds;
        break;
      case Stage::Kind::kGrow:
        if (s.grow_crashed)
          os << "grow crashed";
        else
          os << "grow " << s.count;
        break;
      case Stage::Kind::kCrash:
        switch (s.selector) {
          case Stage::CrashSelector::kHalf:
            os << "crash half";
            break;
          case Stage::CrashSelector::kFrac:
            os << "crash frac " << fmt_g(s.frac);
            break;
          case Stage::CrashSelector::kZone:
            os << "crash zone " << fmt_g(s.x0) << ' ' << fmt_g(s.y0) << ' '
               << fmt_g(s.x1) << ' ' << fmt_g(s.y1);
            break;
          case Stage::CrashSelector::kIds:
            os << "crash ids ";
            for (std::size_t i = 0; i < s.ids.size(); ++i)
              os << (i ? "," : "") << s.ids[i];
            break;
        }
        break;
      case Stage::Kind::kChurn:
        os << "churn " << fmt_g(s.frac) << ' ' << s.rounds;
        break;
      case Stage::Kind::kFlashCrowd:
        os << "flash-crowd " << s.count << ' ' << s.rounds;
        break;
      case Stage::Kind::kMorphDrift:
        os << "morph drift " << fmt_g(s.dx) << ' ' << fmt_g(s.dy) << ' '
           << s.rounds;
        break;
      case Stage::Kind::kMorphShape:
        os << "morph shape " << s.shape_spec << ' ' << s.rounds;
        break;
      case Stage::Kind::kMigrate:
        os << "migrate " << fmt_g(s.dx) << ' ' << fmt_g(s.dy) << ' '
           << s.rounds;
        break;
      case Stage::Kind::kSnapshot:
        os << "snapshot";
        if (!s.label.empty()) os << ' ' << s.label;
        break;
      case Stage::Kind::kMeasureEvery:
        os << "measure every " << s.rounds;
        break;
      case Stage::Kind::kPartition:
        os << "partition zone " << fmt_g(s.x0) << ' ' << fmt_g(s.y0) << ' '
           << fmt_g(s.x1) << ' ' << fmt_g(s.y1) << " heal " << s.rounds;
        break;
      case Stage::Kind::kDegrade:
        os << "degrade zone " << fmt_g(s.x0) << ' ' << fmt_g(s.y0) << ' '
           << fmt_g(s.x1) << ' ' << fmt_g(s.y1) << ' '
           << link_dir_token(s.dir) << " drop " << fmt_g(s.drop)
           << " jitter " << fmt_g(s.jitter_ms) << " heal " << s.rounds;
        break;
      case Stage::Kind::kCorrupt:
        os << "corrupt " << fmt_g(s.frac) << " heal " << s.rounds;
        break;
      case Stage::Kind::kDuplicate:
        os << "duplicate " << fmt_g(s.frac) << " heal " << s.rounds;
        break;
      case Stage::Kind::kReorder:
        os << "reorder " << fmt_g(s.frac) << " jitter " << fmt_g(s.jitter_ms)
           << " heal " << s.rounds;
        break;
      case Stage::Kind::kStall:
        if (s.selector == Stage::CrashSelector::kZone)
          os << "stall zone " << fmt_g(s.x0) << ' ' << fmt_g(s.y0) << ' '
             << fmt_g(s.x1) << ' ' << fmt_g(s.y1) << ' ' << s.rounds;
        else
          os << "stall frac " << fmt_g(s.frac) << ' ' << s.rounds;
        break;
      case Stage::Kind::kRecover:
        switch (s.recover) {
          case Stage::RecoverSelector::kAll:
            os << "recover all";
            break;
          case Stage::RecoverSelector::kFrac:
            os << "recover frac " << fmt_g(s.frac);
            break;
          case Stage::RecoverSelector::kIds:
            os << "recover ids ";
            for (std::size_t i = 0; i < s.ids.size(); ++i)
              os << (i ? "," : "") << s.ids[i];
            break;
        }
        break;
      case Stage::Kind::kTraffic:
        os << "traffic " << s.count << ' ' << traffic_mix_token(s.mix);
        break;
      case Stage::Kind::kDrain:
        os << "drain";
        break;
    }
    os << '\n';
  }

  if (!p.expects.empty()) {
    os << '\n';
    for (const auto& e : p.expects) {
      os << "expect " << e.metric << ' ' << to_string(e.op) << ' '
         << fmt_g(e.value) << " @ ";
      if (e.at_end)
        os << "end";
      else
        os << e.round;
      os << '\n';
    }
  }
  return os.str();
}

void validate_for_mode(const ScenarioProgram& p, EngineMode mode) {
  const char* m = to_string(mode);

  // The fault plane lives in the event hub — every chaos / recovery verb
  // needs engine events, in any other mode the stage cannot execute.
  if (mode != EngineMode::kEvents) {
    for (const auto& s : p.timeline) {
      const char* verb = nullptr;
      switch (s.kind) {
        case Stage::Kind::kPartition: verb = "partition"; break;
        case Stage::Kind::kDegrade: verb = "degrade"; break;
        case Stage::Kind::kCorrupt: verb = "corrupt"; break;
        case Stage::Kind::kDuplicate: verb = "duplicate"; break;
        case Stage::Kind::kReorder: verb = "reorder"; break;
        case Stage::Kind::kStall: verb = "stall"; break;
        case Stage::Kind::kRecover: verb = "recover"; break;
        case Stage::Kind::kTraffic: verb = "traffic"; break;
        case Stage::Kind::kDrain: verb = "drain"; break;
        default: break;
      }
      if (verb != nullptr)
        throw ProgramError(p.file, s.line,
                           std::string("'") + verb +
                               "' needs engine events (the fault and "
                               "traffic planes live in the event hub), "
                               "not " + m);
    }
  }

  // Expects replay against a fixed trajectory, and each metric must be
  // observable under the mode that runs.
  for (const auto& e : p.expects) {
    if (mode == EngineMode::kLive)
      throw ProgramError(p.file, e.line,
                         "expect needs a deterministic trajectory; engine "
                         "live is not reproducible");
    const auto* info = find_expect_metric(e.metric);
    if (info == nullptr) continue;  // unreachable: parse already rejected
    if (mode == EngineMode::kSync && !info->sync_ok)
      throw ProgramError(p.file, e.line,
                         "metric '" + e.metric +
                             "' is events-only (sync mode has no frame "
                             "traffic)");
    if (mode == EngineMode::kEvents && !info->events_ok)
      throw ProgramError(p.file, e.line,
                         "metric '" + e.metric + "' is sync-only");
  }

  if (mode == EngineMode::kSync) return;

  const SimulationConfig& c = p.options.config;
  if (!c.polystyrene)
    throw ProgramError(p.file, p.line_of("polystyrene"),
                       std::string("engine ") + m +
                           " runs the full Polystyrene stack; "
                           "'polystyrene off' needs engine sync");
  if (c.substrate != Substrate::kTman)
    throw ProgramError(p.file, p.line_of("substrate"),
                       std::string("engine ") + m +
                           " runs on T-Man; 'substrate vicinity' needs "
                           "engine sync");
  if (c.fd_delay_rounds != 0)
    throw ProgramError(p.file, p.line_of("fd-delay"),
                       std::string("engine ") + m +
                           " has its own failure detection; fd-delay "
                           "needs engine sync");
  if (c.fd_false_positive_rate != 0.0)
    throw ProgramError(p.file, p.line_of("fd-fp"),
                       std::string("engine ") + m +
                           " has its own failure detection; fd-fp needs "
                           "engine sync");

  for (const auto& s : p.timeline) {
    if (s.kind == Stage::Kind::kMorphDrift ||
        s.kind == Stage::Kind::kMorphShape ||
        s.kind == Stage::Kind::kMigrate)
      throw ProgramError(p.file, s.line,
                         std::string("morph/migrate stages need engine "
                                     "sync, not ") +
                             m);
    if (mode == EngineMode::kLive &&
        (s.kind == Stage::Kind::kChurn ||
         (s.kind == Stage::Kind::kCrash &&
          s.selector == Stage::CrashSelector::kFrac)))
      throw ProgramError(p.file, s.line,
                         "churn / crash frac need a deterministic cluster "
                         "RNG; engine live has none (use sync or events)");
  }
}

ProgramRun run_program_once(const shape::Shape& shape,
                            const ScenarioProgram& p,
                            const ScenarioOptions& options) {
  auto rt = make_cluster(shape, options);
  ProgramRun run;

  std::size_t cadence = std::max<std::size_t>(1, p.measure_every);
  std::size_t since_measure = 0;
  bool crash_seen = false;
  std::size_t crash_round = 0;
  // Reshaping is looked for from the first crash until the first later
  // stage that injects nodes: the post-crash H is the survivors', so
  // fresh nodes would pull homogeneity under it without any repair.
  bool reshape_window = false;
  std::size_t crashed_since_grow = 0;
  double morph_w = -1.0;  // current morph-shape extent (lazily = base's)
  double morph_h = -1.0;

  auto note = [&](const std::string& text) {
    run.events.push_back({rt->rounds_run(), false, text, {}, {}, {}});
  };

  auto measure_now = [&]() {
    since_measure = 0;
    run.rounds.push_back(rt->measure());
    const auto& m = run.rounds.back();
    if (reshape_window && std::isnan(run.reshaping_rounds) &&
        m.homogeneity < run.reference_h_after_crash)
      run.reshaping_rounds =
          static_cast<double>(rt->rounds_run() - crash_round);
  };

  // Expect evaluation measures freshly at the trigger point so a sparse
  // measure cadence cannot shift what an assertion sees.
  auto check_expects_at = [&](bool at_end) {
    for (const auto& e : p.expects) {
      if (e.at_end != at_end) continue;
      if (!at_end && e.round != rt->rounds_run()) continue;
      const RoundMetrics m = rt->measure();
      const double actual = expect_value(e.metric, m, *rt);
      if (!eval_expect_op(e.op, actual, e.value))
        throw ProgramError(
            p.file, e.line,
            "expect failed: " + e.metric + " = " + fmt_g(actual) +
                ", want " + to_string(e.op) + " " + fmt_g(e.value) +
                (at_end ? std::string(" @ end")
                        : " @ round " + std::to_string(e.round)));
    }
  };

  auto step = [&]() {
    rt->run_round();
    if (++since_measure >= cadence) measure_now();
    check_expects_at(false);
  };

  auto heal_text = [](std::size_t rounds) {
    return rounds != 0
               ? ", heal after " + std::to_string(rounds) + " rounds"
               : std::string(", never heals");
  };

  auto record_crash = [&](std::size_t n, const std::string& how) {
    run.crashed += n;
    crashed_since_grow += n;
    if (!crash_seen) {
      crash_seen = true;
      reshape_window = true;
      crash_round = rt->rounds_run();
      run.reference_h_after_crash =
          shape.reference_homogeneity(rt->alive_count());
    }
    note("crashed " + std::to_string(n) + " nodes (" + how + ")");
  };

  for (const auto& s : p.timeline) {
    if (s.kind == Stage::Kind::kGrow || s.kind == Stage::Kind::kFlashCrowd ||
        s.kind == Stage::Kind::kChurn)
      reshape_window = false;
    switch (s.kind) {
      case Stage::Kind::kRun:
        for (std::size_t r = 0; r < s.rounds; ++r) step();
        break;

      case Stage::Kind::kGrow: {
        const std::size_t want = s.grow_crashed ? crashed_since_grow
                                                : s.count;
        const std::size_t n = rt->inject(want);
        run.injected += n;
        crashed_since_grow = 0;
        note("injected " + std::to_string(n) +
             " fresh nodes (parallel grid)");
        break;
      }

      case Stage::Kind::kCrash:
        switch (s.selector) {
          case Stage::CrashSelector::kHalf:
            record_crash(rt->crash_half(), "failure half");
            break;
          case Stage::CrashSelector::kFrac:
            record_crash(
                rt->crash_random(static_cast<std::size_t>(
                    s.frac * static_cast<double>(rt->alive_count()))),
                "random " + fmt_g(s.frac) + " of alive");
            break;
          case Stage::CrashSelector::kZone:
            record_crash(rt->crash_region([&](const space::Point& pt) {
                           return pt.x() >= s.x0 && pt.x() < s.x1 &&
                                  pt.y() >= s.y0 && pt.y() < s.y1;
                         }),
                         "zone " + fmt_g(s.x0) + "," + fmt_g(s.y0) + " to " +
                             fmt_g(s.x1) + "," + fmt_g(s.y1));
            break;
          case Stage::CrashSelector::kIds:
            record_crash(rt->crash_ids(s.ids), "explicit ids");
            break;
        }
        break;

      case Stage::Kind::kChurn: {
        note("churn " + fmt_g(s.frac) + "%/round for " +
             std::to_string(s.rounds) + " rounds");
        for (std::size_t r = 0; r < s.rounds; ++r) {
          const auto n = static_cast<std::size_t>(
              static_cast<double>(rt->alive_count()) * s.frac / 100.0);
          if (n > 0) {
            run.crashed += rt->crash_random(n);
            crashed_since_grow += n;
            run.injected += rt->inject(n);
          }
          step();
        }
        break;
      }

      case Stage::Kind::kFlashCrowd: {
        note("flash crowd: " + std::to_string(s.count) + " joins over " +
             std::to_string(s.rounds) + " rounds");
        for (std::size_t r = 0; r < s.rounds; ++r) {
          const std::size_t n =
              s.count * (r + 1) / s.rounds - s.count * r / s.rounds;
          if (n > 0) run.injected += rt->inject(n);
          step();
        }
        break;
      }

      case Stage::Kind::kMorphDrift: {
        note("morph drift (" + fmt_g(s.dx) + ", " + fmt_g(s.dy) +
             ")/round for " + std::to_string(s.rounds) + " rounds");
        for (std::size_t r = 0; r < s.rounds; ++r) {
          rt->morph([&](const space::Point& pt) {
            return space::Point{pt.x() + s.dx, pt.y() + s.dy};
          });
          step();
        }
        break;
      }

      case Stage::Kind::kMorphShape: {
        // Scale the target about the origin, one compounding per-round
        // factor per axis, so after N rounds the extent is exactly the
        // target's.  Parse-time validation guarantees grid→grid and fit.
        const auto target = shape::make_shape(s.shape_spec);
        const auto& tt =
            dynamic_cast<const space::TorusSpace&>(target->space());
        const auto& base =
            dynamic_cast<const space::TorusSpace&>(shape.space());
        if (morph_w <= 0.0) {
          morph_w = base.width();
          morph_h = base.height();
        }
        const double fx = std::pow(tt.width() / morph_w,
                                   1.0 / static_cast<double>(s.rounds));
        const double fy = std::pow(tt.height() / morph_h,
                                   1.0 / static_cast<double>(s.rounds));
        note("morph to " + s.shape_spec + " over " +
             std::to_string(s.rounds) + " rounds");
        for (std::size_t r = 0; r < s.rounds; ++r) {
          rt->morph([&](const space::Point& pt) {
            return space::Point{pt.x() * fx, pt.y() * fy};
          });
          step();
        }
        morph_w = tt.width();
        morph_h = tt.height();
        break;
      }

      case Stage::Kind::kMigrate: {
        const double sx = s.dx / static_cast<double>(s.rounds);
        const double sy = s.dy / static_cast<double>(s.rounds);
        note("migrate by (" + fmt_g(s.dx) + ", " + fmt_g(s.dy) + ") over " +
             std::to_string(s.rounds) + " rounds");
        for (std::size_t r = 0; r < s.rounds; ++r) {
          rt->morph([&](const space::Point& pt) {
            return space::Point{pt.x() + sx, pt.y() + sy};
          });
          step();
        }
        break;
      }

      case Stage::Kind::kSnapshot: {
        ProgramEvent ev;
        ev.round = rt->rounds_run();
        ev.is_snapshot = true;
        ev.text = s.label.empty() ? "r" + std::to_string(ev.round)
                                  : s.label;
        if (auto* sim = rt->sim()) {
          ev.summary = summary_line(*sim);
        } else {
          const auto m = rt->measure();
          char buf[160];
          std::snprintf(buf, sizeof buf,
                        "round=%llu alive=%zu homogeneity=%.3f (H=%.3f) "
                        "proximity=%.3f reliability=%.3f",
                        static_cast<unsigned long long>(rt->rounds_run()),
                        m.alive, m.homogeneity, m.reference_h, m.proximity,
                        m.reliability);
          ev.summary = buf;
        }
        ev.positions = rt->alive_positions();
        ev.map = ascii_density_map(shape.space(), ev.positions);
        run.events.push_back(std::move(ev));
        break;
      }

      case Stage::Kind::kMeasureEvery:
        cadence = s.rounds;
        since_measure = 0;
        break;

      case Stage::Kind::kPartition: {
        const std::size_t n = rt->partition_region(
            [&](const space::Point& pt) {
              return pt.x() >= s.x0 && pt.x() < s.x1 && pt.y() >= s.y0 &&
                     pt.y() < s.y1;
            },
            s.rounds);
        note("partitioned " + std::to_string(n) + " nodes (zone " +
             fmt_g(s.x0) + "," + fmt_g(s.y0) + " to " + fmt_g(s.x1) + "," +
             fmt_g(s.y1) + heal_text(s.rounds) + ")");
        break;
      }

      case Stage::Kind::kDegrade: {
        const std::size_t n = rt->degrade_region(
            [&](const space::Point& pt) {
              return pt.x() >= s.x0 && pt.x() < s.x1 && pt.y() >= s.y0 &&
                     pt.y() < s.y1;
            },
            s.dir, s.drop, s.jitter_ms, s.rounds);
        note("degraded links of " + std::to_string(n) + " nodes (" +
             link_dir_token(s.dir) + ", drop " + fmt_g(s.drop) +
             ", jitter " + fmt_g(s.jitter_ms) + "ms" + heal_text(s.rounds) +
             ")");
        break;
      }

      case Stage::Kind::kCorrupt:
        rt->corrupt_frames(s.frac, s.rounds);
        note("corrupting frames (p " + fmt_g(s.frac) + heal_text(s.rounds) +
             ")");
        break;

      case Stage::Kind::kDuplicate:
        rt->duplicate_frames(s.frac, s.rounds);
        note("duplicating frames (p " + fmt_g(s.frac) + heal_text(s.rounds) +
             ")");
        break;

      case Stage::Kind::kReorder:
        rt->reorder_frames(s.frac, s.jitter_ms, s.rounds);
        note("reordering frames (p " + fmt_g(s.frac) + ", jitter " +
             fmt_g(s.jitter_ms) + "ms" + heal_text(s.rounds) + ")");
        break;

      case Stage::Kind::kStall: {
        std::size_t n = 0;
        std::string how;
        if (s.selector == Stage::CrashSelector::kZone) {
          n = rt->stall_region(
              [&](const space::Point& pt) {
                return pt.x() >= s.x0 && pt.x() < s.x1 && pt.y() >= s.y0 &&
                       pt.y() < s.y1;
              },
              s.rounds);
          how = "zone " + fmt_g(s.x0) + "," + fmt_g(s.y0) + " to " +
                fmt_g(s.x1) + "," + fmt_g(s.y1);
        } else {
          n = rt->stall_random(
              static_cast<std::size_t>(
                  s.frac * static_cast<double>(rt->alive_count())),
              s.rounds);
          how = "random " + fmt_g(s.frac) + " of alive";
        }
        note("stalled " + std::to_string(n) + " nodes for " +
             std::to_string(s.rounds) + " rounds (" + how + ")");
        break;
      }

      case Stage::Kind::kRecover: {
        std::size_t n = 0;
        std::string how;
        switch (s.recover) {
          case Stage::RecoverSelector::kAll:
            n = rt->recover_all();
            how = "all crashed";
            break;
          case Stage::RecoverSelector::kFrac: {
            const std::size_t candidates =
                run.crashed > run.recovered ? run.crashed - run.recovered
                                            : 0;
            n = rt->recover_random(static_cast<std::size_t>(
                s.frac * static_cast<double>(candidates)));
            how = "random " + fmt_g(s.frac) + " of crashed";
            break;
          }
          case Stage::RecoverSelector::kIds:
            n = rt->recover_ids(s.ids);
            how = "explicit ids";
            break;
        }
        run.recovered += n;
        note("recovered " + std::to_string(n) + " nodes (" + how + ")");
        break;
      }

      case Stage::Kind::kTraffic:
        rt->start_traffic(s.count, s.mix);
        note("traffic " + std::to_string(s.count) + "/round (" +
             traffic_mix_token(s.mix) + ")");
        break;

      case Stage::Kind::kDrain: {
        rt->stop_traffic();
        std::size_t drained = 0;
        while (rt->traffic_inflight() > 0) {
          if (++drained > 10000)
            throw ProgramError(p.file, s.line,
                               "drain ran 10000 rounds with traffic still "
                               "in flight — the workload is not draining");
          step();
        }
        note("drained in-flight traffic (" + std::to_string(drained) +
             " rounds)");
        break;
      }
    }
  }

  // The last executed round is always measured, so "final" values exist
  // even at a sparse cadence.
  if (rt->rounds_run() > 0 && since_measure != 0) measure_now();

  check_expects_at(true);

  run.reliability = rt->reliability();
  run.rounds_total = rt->rounds_run();
  return run;
}

util::SeriesAggregator ProgramResult::series(
    double RoundMetrics::*metric) const {
  util::SeriesAggregator out;
  for (const auto& run : runs) {
    std::vector<double> values;
    values.reserve(run.rounds.size());
    for (const auto& m : run.rounds) values.push_back(m.*metric);
    out.add_run(values);
  }
  return out;
}

util::MeanCi ProgramResult::reshaping_ci() const {
  std::vector<double> ok;
  for (const auto& run : runs)
    if (!std::isnan(run.reshaping_rounds)) ok.push_back(run.reshaping_rounds);
  return util::mean_ci(ok);
}

util::MeanCi ProgramResult::reliability_ci() const {
  std::vector<double> all;
  for (const auto& run : runs) all.push_back(run.reliability);
  return util::mean_ci(all);
}

std::size_t ProgramResult::never_reshaped() const {
  return static_cast<std::size_t>(
      std::count_if(runs.begin(), runs.end(), [](const ProgramRun& run) {
        return std::isnan(run.reshaping_rounds);
      }));
}

ProgramResult run_program(const ScenarioProgram& p) {
  std::string err;
  const auto shape = shape::make_shape(p.shape_spec, &err);
  if (!shape) throw ProgramError(p.file, p.line_of("shape"), err);
  validate_for_mode(p, p.options.engine);

  const std::size_t reps = std::max<std::size_t>(1, p.reps);
  ProgramResult out;
  out.program = p;
  out.runs.resize(reps);
  // A throw on a worker thread (a failed expect, mostly) must not
  // std::terminate — capture per repetition, rethrow the lowest index
  // after the join so the diagnostic is deterministic.
  std::vector<std::exception_ptr> errors(reps);

  auto run_rep = [&](std::size_t i) noexcept {
    try {
      ScenarioOptions opt = p.options;
      opt.config.seed = p.options.config.seed + i;
      out.runs[i] = run_program_once(*shape, p, opt);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  // Live mode runs real threads per node — keep repetitions sequential.
  std::size_t workers = p.options.engine == EngineMode::kLive
                            ? 1
                            : std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  workers = std::min(workers, reps);
  if (workers <= 1) {
    for (std::size_t i = 0; i < reps; ++i) run_rep(i);
  } else {
    // Work-stealing over repetition indices; every repetition is seeded
    // independently so the schedule cannot affect results.
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= reps) return;
        run_rep(i);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  for (std::size_t i = 0; i < reps; ++i)
    if (errors[i]) std::rethrow_exception(errors[i]);
  return out;
}

void print_events(const ProgramResult& result,
                  const std::optional<std::string>& csv_dir) {
  for (const auto& ev : result.first().events) {
    if (!ev.is_snapshot) {
      std::printf("## round %zu: %s\n", ev.round, ev.text.c_str());
      continue;
    }
    std::printf("\n## round %zu: snapshot %s\n%s\n", ev.round,
                ev.text.c_str(), ev.summary.c_str());
    std::fputs(ev.map.c_str(), stdout);
    if (csv_dir) {
      std::string label = ev.text;
      for (char& c : label)
        if (c == ' ' || c == '/') c = '_';
      const std::string path = *csv_dir + "/" + result.program.name + "_" +
                               label + "_r" + std::to_string(ev.round) +
                               ".csv";
      std::ofstream f(path);
      if (f) {
        f << "x,y\n";
        for (const auto& pt : ev.positions)
          f << pt.x() << ',' << pt.y() << '\n';
        if (f) std::printf("(positions written to %s)\n", path.c_str());
      }
    }
    std::puts("");
  }
}

util::Table series_table_for(const ProgramResult& r) {
  const EngineMode mode = r.program.options.engine;
  const bool aggregated = r.runs.size() > 1;
  const ProgramRun& first = r.first();

  std::vector<std::string> headers{"round", "alive", "homogeneity", "H",
                                   "proximity"};
  if (mode == EngineMode::kSync) {
    headers.push_back("points/node");
    headers.push_back("msg/node");
  } else {
    headers.push_back("reliability");
    if (mode == EngineMode::kEvents) headers.push_back("frames");
  }
  // Traffic columns (cumulative since the first `traffic` verb) when the
  // workload ran: the series then shows the before/during/after service
  // arc directly.  Aggregated (reps > 1) tables keep the protocol-only
  // shape — per-rep traffic spreads belong to a later stats row.
  const bool traffic_cols =
      mode == EngineMode::kEvents && !aggregated &&
      std::any_of(first.rounds.begin(), first.rounds.end(),
                  [](const RoundMetrics& m) {
                    return m.requests + m.requests_failed > 0;
                  });
  if (traffic_cols)
    for (const char* h : {"requests", "success", "p50_ms", "p99_ms",
                          "p999_ms", "hops"})
      headers.push_back(h);

  // Aggregated tables print mean ± ci95 across repetitions per cell.
  util::SeriesAggregator homogeneity, proximity, points, msg, reliability;
  if (aggregated) {
    homogeneity = r.series(&RoundMetrics::homogeneity);
    proximity = r.series(&RoundMetrics::proximity);
    if (mode == EngineMode::kSync) {
      points = r.series(&RoundMetrics::points_per_node);
      msg = r.series(&RoundMetrics::msg_paper);
    } else {
      reliability = r.series(&RoundMetrics::reliability);
    }
  }

  util::Table table(std::move(headers));
  for (std::size_t i = 0; i < first.rounds.size(); ++i) {
    const auto& m = first.rounds[i];
    std::vector<std::string> row{std::to_string(m.round),
                                 std::to_string(m.alive)};
    if (aggregated) {
      row.push_back(homogeneity.row(i).str(3));
      row.push_back(util::fmt(m.reference_h, 3));
      row.push_back(proximity.row(i).str(3));
      if (mode == EngineMode::kSync) {
        row.push_back(points.row(i).str(2));
        row.push_back(msg.row(i).str(1));
      } else {
        row.push_back(reliability.row(i).str(3));
        if (mode == EngineMode::kEvents)
          row.push_back(std::to_string(m.frames));
      }
    } else {
      row.push_back(util::fmt(m.homogeneity, 3));
      row.push_back(util::fmt(m.reference_h, 3));
      row.push_back(util::fmt(m.proximity, 3));
      if (mode == EngineMode::kSync) {
        row.push_back(util::fmt(m.points_per_node, 2));
        row.push_back(util::fmt(m.msg_paper, 1));
      } else {
        row.push_back(util::fmt(m.reliability, 3));
        if (mode == EngineMode::kEvents)
          row.push_back(std::to_string(m.frames));
      }
    }
    if (traffic_cols) {
      if (m.requests + m.requests_failed == 0) {
        for (int c = 0; c < 6; ++c) row.push_back("-");
      } else {
        row.push_back(std::to_string(m.requests));
        row.push_back(util::fmt(m.success_rate, 4));
        row.push_back(util::fmt(m.p50_latency_ms, 2));
        row.push_back(util::fmt(m.p99_latency_ms, 2));
        row.push_back(util::fmt(m.p999_latency_ms, 2));
        row.push_back(util::fmt(m.mean_hops, 1));
      }
    }
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace poly::scenario
