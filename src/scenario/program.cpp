#include "scenario/program.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "engine/event_cluster.hpp"
#include "scenario/snapshot.hpp"
#include "space/torus.hpp"

namespace poly::scenario {

/// run_program_once's state: the cluster, the run record, and what the
/// stages carry from one to the next.  Each verb's execution function
/// works on it.
struct Execution {
  Execution(const ScenarioProgram& p, const shape::Shape& shape,
            const ScenarioOptions& options)
      : p(p),
        shape(shape),
        mode(options.engine),
        cadence(std::max<std::size_t>(1, p.measure_every)),
        rt_(make_cluster(shape, options)) {}

  const ScenarioProgram& p;
  const shape::Shape& shape;
  const EngineMode mode;
  ProgramRun run{};
  std::size_t cadence = 1;
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

  /// The cluster, to read.
  const Runtime& cluster() const { return *rt_; }
  /// The cluster, to change: every change goes through here (or through
  /// sim() / fleet()), which drops the kept measurement.
  Runtime& change() {
    kept_.reset();
    return *rt_;
  }
  /// The engine itself, for the rows only it runs (validate_for_mode has
  /// matched the row's engines against the cluster's).  Like change(),
  /// each drops the kept measurement.
  Simulation& sim();
  engine::EventCluster& fleet();
  /// The cluster's metrics now, measured at most once between changes.
  const Measurement& measured() {
    if (!kept_) kept_ = measure(*rt_, shape);
    return *kept_;
  }

  void note(const std::string& text) {
    run.events.push_back({cluster().rounds_run(), false, text, {}, {}, {}});
  }
  void measure_now();
  void check_expects(bool at_end);
  void step();
  void record_crash(std::size_t n, const std::string& how);

 private:
  std::unique_ptr<Runtime> rt_;
  std::optional<Measurement> kept_;
};

namespace {

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

constexpr unsigned bit(EngineMode mode) {
  return 1u << static_cast<unsigned>(mode);
}
constexpr unsigned kSync = bit(EngineMode::kSync);
/// The AsyncNode fleet, on either clock.
constexpr unsigned kFleet = bit(EngineMode::kEvents) | bit(EngineMode::kLive);
constexpr unsigned kAll = kSync | kFleet;

/// The non-empty pieces of `text` between `sep`s.
std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t end = std::min(text.find(sep, at), text.size());
    if (end > at) out.push_back(text.substr(at, end - at));
    at = end + 1;
  }
  return out;
}

std::vector<std::string_view> words(std::string_view grammar) {
  return split(grammar, ' ');
}

/// "a", "a or b", "a, b, or c", … — the alternatives a diagnostic offers.
std::string one_of(const std::vector<std::string_view>& alts) {
  std::string out;
  for (std::size_t i = 0; i < alts.size(); ++i) {
    if (i > 0) out += alts.size() > 2 ? ", " : " ";
    if (i > 0 && i + 1 == alts.size()) out += "or ";
    out += alts[i];
  }
  return out;
}

/// The alternative of an `a|b|c` choice that enumerator `e` stands for.
template <class Enum>
std::string choice_at(std::string_view alts, Enum e) {
  return std::string(split(alts, '|').at(static_cast<std::size_t>(e)));
}

std::string engine_list(unsigned engines) {
  std::vector<std::string_view> names;
  for (auto m : {EngineMode::kSync, EngineMode::kEvents, EngineMode::kLive})
    if ((engines & bit(m)) != 0) names.emplace_back(to_string(m));
  return one_of(names);
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

/// File:line diagnostics and the token checks every grammar shares.
class Reader {
 public:
  explicit Reader(std::string file) : file_(std::move(file)) {}

  [[noreturn]] void fail(int line, const std::string& msg) const {
    throw ProgramError(file_, line, msg);
  }
  [[noreturn]] void fail(const std::string& msg) const { fail(line_, msg); }

  std::size_t count(const std::string& tok, const std::string& noun,
                    std::size_t min) const {
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0' || tok[0] == '-' ||
        errno == ERANGE)
      fail("bad " + noun + " '" + tok + "' (want a non-negative integer)");
    if (v < min)
      fail(noun + " must be >= " + std::to_string(min) + ", got " + tok);
    return static_cast<std::size_t>(v);
  }

  double real(const std::string& tok, const std::string& noun) const {
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0' || !std::isfinite(v))
      fail("bad " + noun + " '" + tok + "'");
    return v;
  }

  /// A real in (lo, hi], or in [lo, hi) when `closed_low`.
  double real_in(const std::string& tok, const std::string& noun, double lo,
                 double hi, bool closed_low = false) const {
    const double v = real(tok, noun);
    if (closed_low ? (v < lo || v >= hi) : (v <= lo || v > hi)) {
      char range[64];
      std::snprintf(range, sizeof range,
                    closed_low ? "[%g, %g)" : "(%g, %g]", lo, hi);
      fail(noun + " " + tok + " out of " + range);
    }
    return v;
  }

  /// The index of `tok` among the `a|b|c` alternatives.
  std::size_t choice(std::string_view alts, const std::string& tok,
                     const std::string& noun) const {
    const auto list = split(alts, '|');
    for (std::size_t i = 0; i < list.size(); ++i)
      if (list[i] == tok) return i;
    fail("unknown " + noun + " '" + tok + "' (want " + one_of(list) + ")");
  }

 protected:
  std::string file_;
  int line_ = 0;
};

// ---- slots ------------------------------------------------------------------

/// The typed slots of verb grammars.  Each fixes how many tokens it takes,
/// its parse and range check (and the noun its diagnostics use), how it
/// prints, and the Stage field it fills.
enum class Slot {
  kRounds, kHeal, kNodes, kRate, kFraction, kPercent, kProbability, kDrop,
  kJitter, kZone, kIds, kOffset, kShape, kLabel, kDirection, kMix,
};

constexpr std::string_view kDirections = "in|out|both";
constexpr std::string_view kMixes = "get|put|mixed";
/// The largest <ms>: one virtual day, so that converting it to
/// engine::SimTime nanoseconds stays far inside int64.
constexpr std::size_t kMaxJitterMs = 24 * 3600 * 1000;

struct SlotType {
  std::string_view key;  ///< how a grammar writes the slot
  Slot slot;
  std::size_t width;     ///< tokens taken; 0 = the rest of the line
};

constexpr SlotType kSlotTypes[] = {
    {"<rounds>", Slot::kRounds, 1},    {"<heal>", Slot::kHeal, 1},
    {"<nodes>", Slot::kNodes, 1},      {"<rate>", Slot::kRate, 1},
    {"<fraction>", Slot::kFraction, 1}, {"<percent>", Slot::kPercent, 1},
    {"<probability>", Slot::kProbability, 1},
    {"<drop>", Slot::kDrop, 1},        {"<ms>", Slot::kJitter, 1},
    {"<zone>", Slot::kZone, 4},        {"<ids>", Slot::kIds, 1},
    {"<offset>", Slot::kOffset, 2},    {"<shape>", Slot::kShape, 1},
    {"[label]", Slot::kLabel, 0},      {kDirections, Slot::kDirection, 1},
    {kMixes, Slot::kMix, 1},
};

/// The slot a grammar word names; nullptr for a literal word.
const SlotType* find_slot(std::string_view word) {
  for (const auto& t : kSlotTypes)
    if (t.key == word) return &t;
  return nullptr;
}

/// Parses one slot's tokens into `s`; `verb` names it in diagnostics.
void fill_slot(const Reader& in, Slot slot, std::span<const std::string> t,
               const std::string& verb, Stage& s) {
  switch (slot) {
    case Slot::kRounds: s.rounds = in.count(t[0], "round count", 1); return;
    case Slot::kHeal: s.rounds = in.count(t[0], "heal round count", 0); return;
    case Slot::kNodes: s.count = in.count(t[0], "node count", 1); return;
    case Slot::kRate: s.count = in.count(t[0], verb + " rate", 1); return;
    case Slot::kFraction:
      s.frac = in.real_in(t[0], verb + " fraction", 0.0, 1.0);
      return;
    case Slot::kPercent:
      s.frac = in.real_in(t[0], verb + " percentage", 0.0, 100.0);
      return;
    case Slot::kProbability:
      s.frac = in.real_in(t[0], verb + " probability", 0.0, 1.0);
      return;
    case Slot::kDrop:
      s.drop = in.real_in(t[0], verb + " drop rate", 0.0, 1.0, true);
      return;
    case Slot::kJitter:
      s.jitter_ms = in.real(t[0], verb + " jitter");
      if (s.jitter_ms < 0.0)
        in.fail(verb + " jitter " + t[0] + " must be >= 0 ms");
      if (s.jitter_ms > static_cast<double>(kMaxJitterMs))
        in.fail(verb + " jitter " + t[0] + " is above one virtual day (" +
                std::to_string(kMaxJitterMs) + " ms)");
      return;
    case Slot::kZone:
      s.zone = {in.real(t[0], "zone x0"), in.real(t[1], "zone y0"),
                in.real(t[2], "zone x1"), in.real(t[3], "zone y1")};
      if (s.zone.x1 <= s.zone.x0 || s.zone.y1 <= s.zone.y0)
        in.fail("empty " + verb + " zone (want x0 < x1 and y0 < y1)");
      return;
    case Slot::kIds: {
      std::istringstream is(t[0]);
      for (std::string id; std::getline(is, id, ',');)
        s.ids.push_back(in.count(id, "node id", 0));
      return;
    }
    case Slot::kOffset:
      s.dx = in.real(t[0], verb + " dx");
      s.dy = in.real(t[1], verb + " dy");
      return;
    case Slot::kShape: {
      std::string err;
      if (!shape::make_shape(t[0], &err))
        in.fail(verb + " to unknown shape: " + err);
      s.shape_spec = t[0];
      return;
    }
    case Slot::kLabel:
      for (const auto& word : t) {
        if (!s.label.empty()) s.label += ' ';
        s.label += word;
      }
      return;
    case Slot::kDirection:
      s.dir = static_cast<fault::Direction>(
          in.choice(kDirections, t[0], verb + " direction"));
      return;
    case Slot::kMix:
      s.mix =
          static_cast<traffic::Mix>(in.choice(kMixes, t[0], verb + " mix"));
      return;
  }
}

std::string print_slot(Slot slot, const Stage& s) {
  switch (slot) {
    case Slot::kRounds:
    case Slot::kHeal: return std::to_string(s.rounds);
    case Slot::kNodes:
    case Slot::kRate: return std::to_string(s.count);
    case Slot::kFraction:
    case Slot::kPercent:
    case Slot::kProbability: return fmt_g(s.frac);
    case Slot::kDrop: return fmt_g(s.drop);
    case Slot::kJitter: return fmt_g(s.jitter_ms);
    case Slot::kZone:
      return fmt_g(s.zone.x0) + ' ' + fmt_g(s.zone.y0) + ' ' +
             fmt_g(s.zone.x1) + ' ' + fmt_g(s.zone.y1);
    case Slot::kIds: {
      std::string out;
      for (const std::size_t id : s.ids)
        out += (out.empty() ? "" : ",") + std::to_string(id);
      return out;
    }
    case Slot::kOffset: return fmt_g(s.dx) + ' ' + fmt_g(s.dy);
    case Slot::kShape: return s.shape_spec;
    case Slot::kLabel: return s.label;
    case Slot::kDirection: return choice_at(kDirections, s.dir);
    case Slot::kMix: return choice_at(kMixes, s.mix);
  }
  return {};
}

// ---- verb execution ---------------------------------------------------------

std::string zone_text(const Zone& z) {
  return "zone " + fmt_g(z.x0) + "," + fmt_g(z.y0) + " to " + fmt_g(z.x1) +
         "," + fmt_g(z.y1);
}

std::string heal_text(std::size_t rounds) {
  return rounds != 0 ? ", heal after " + std::to_string(rounds) + " rounds"
                     : std::string(", never heals");
}

/// How many of `n` nodes a fractional verb picks.
std::size_t share(double frac, std::size_t n) {
  return static_cast<std::size_t>(frac * static_cast<double>(n));
}

/// The region predicate of a zone verb: original positions inside `z`.
std::function<bool(const space::Point&)> in_zone(const Zone& z) {
  return [&z](const space::Point& pt) { return z.contains(pt); };
}

/// A <ms> slot as engine time (the parser caps it at one virtual day).
engine::SimTime sim_ms(double ms) {
  return std::chrono::duration_cast<engine::SimTime>(
      std::chrono::duration<double, std::milli>(ms));
}

void exec_run(Execution& x, const Stage& s) {
  for (std::size_t r = 0; r < s.rounds; ++r) x.step();
}

void grow(Execution& x, std::size_t want) {
  x.reshape_window = false;
  const std::size_t n = x.change().inject(want);
  x.run.injected += n;
  x.crashed_since_grow = 0;
  x.note("injected " + std::to_string(n) + " fresh nodes (parallel grid)");
}
void exec_grow(Execution& x, const Stage& s) { grow(x, s.count); }
void exec_grow_crashed(Execution& x, const Stage&) {
  grow(x, x.crashed_since_grow);
}

void exec_crash_half(Execution& x, const Stage&) {
  const std::size_t n = x.change().crash_region(
      [&](const space::Point& pt) { return x.shape.in_failure_half(pt); });
  x.record_crash(n, "failure half");
}
void exec_crash_frac(Execution& x, const Stage& s) {
  const std::size_t want = share(s.frac, x.cluster().alive_count());
  x.record_crash(x.change().crash_random(want),
                 "random " + fmt_g(s.frac) + " of alive");
}
void exec_crash_zone(Execution& x, const Stage& s) {
  x.record_crash(x.change().crash_region(in_zone(s.zone)),
                 zone_text(s.zone));
}
void exec_crash_ids(Execution& x, const Stage& s) {
  x.record_crash(x.change().crash_ids(s.ids), "explicit ids");
}

void exec_churn(Execution& x, const Stage& s) {
  x.reshape_window = false;
  x.note("churn " + fmt_g(s.frac) + "%/round for " +
         std::to_string(s.rounds) + " rounds");
  for (std::size_t r = 0; r < s.rounds; ++r) {
    const auto n = static_cast<std::size_t>(
        static_cast<double>(x.cluster().alive_count()) * s.frac / 100.0);
    if (n > 0) {
      x.run.crashed += x.change().crash_random(n);
      x.crashed_since_grow += n;
      x.run.injected += x.change().inject(n);
    }
    x.step();
  }
}

void exec_flash_crowd(Execution& x, const Stage& s) {
  x.reshape_window = false;
  x.note("flash crowd: " + std::to_string(s.count) + " joins over " +
         std::to_string(s.rounds) + " rounds");
  for (std::size_t r = 0; r < s.rounds; ++r) {
    const std::size_t n =
        s.count * (r + 1) / s.rounds - s.count * r / s.rounds;
    if (n > 0) x.run.injected += x.change().inject(n);
    x.step();
  }
}

/// Moves the target by `transform` ahead of each of `rounds` rounds.
void morph_rounds(
    Execution& x, std::size_t rounds,
    const std::function<space::Point(const space::Point&)>& transform) {
  for (std::size_t r = 0; r < rounds; ++r) {
    x.sim().morph_shape(transform);
    x.step();
  }
}

void exec_morph_drift(Execution& x, const Stage& s) {
  x.note("morph drift (" + fmt_g(s.dx) + ", " + fmt_g(s.dy) +
         ")/round for " + std::to_string(s.rounds) + " rounds");
  morph_rounds(x, s.rounds, [&](const space::Point& pt) {
    return space::Point{pt.x() + s.dx, pt.y() + s.dy};
  });
}

void exec_morph_shape(Execution& x, const Stage& s) {
  // Scale the target about the origin, one compounding per-round factor
  // per axis, so after N rounds the extent is exactly the target's.
  // run_program checked that both shapes are grids and the target fits.
  const auto target = shape::make_shape(s.shape_spec);
  const auto& tt = dynamic_cast<const space::TorusSpace&>(target->space());
  if (x.morph_w <= 0.0) {
    const auto& base = dynamic_cast<const space::TorusSpace&>(x.shape.space());
    x.morph_w = base.width();
    x.morph_h = base.height();
  }
  const double fx =
      std::pow(tt.width() / x.morph_w, 1.0 / static_cast<double>(s.rounds));
  const double fy =
      std::pow(tt.height() / x.morph_h, 1.0 / static_cast<double>(s.rounds));
  x.note("morph to " + s.shape_spec + " over " + std::to_string(s.rounds) +
         " rounds");
  morph_rounds(x, s.rounds, [&](const space::Point& pt) {
    return space::Point{pt.x() * fx, pt.y() * fy};
  });
  x.morph_w = tt.width();
  x.morph_h = tt.height();
}

void exec_migrate(Execution& x, const Stage& s) {
  const double sx = s.dx / static_cast<double>(s.rounds);
  const double sy = s.dy / static_cast<double>(s.rounds);
  x.note("migrate by (" + fmt_g(s.dx) + ", " + fmt_g(s.dy) + ") over " +
         std::to_string(s.rounds) + " rounds");
  morph_rounds(x, s.rounds, [&](const space::Point& pt) {
    return space::Point{pt.x() + sx, pt.y() + sy};
  });
}

void exec_snapshot(Execution& x, const Stage& s) {
  ProgramEvent ev;
  ev.round = x.cluster().rounds_run();
  ev.is_snapshot = true;
  ev.text = s.label.empty() ? "r" + std::to_string(ev.round) : s.label;
  if (x.mode == EngineMode::kSync) {
    ev.summary = summary_line(x.sim());
  } else {
    const Measurement& m = x.measured();
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "round=%zu alive=%.0f homogeneity=%.3f (H=%.3f) "
                  "proximity=%.3f reliability=%.3f",
                  ev.round, m["alive"], m["homogeneity"], m["reference_h"],
                  m["proximity"], m["reliability"]);
    ev.summary = buf;
  }
  ev.positions = x.cluster().alive_positions();
  ev.map = ascii_density_map(x.shape.space(), ev.positions);
  x.run.events.push_back(std::move(ev));
}

void exec_measure_every(Execution& x, const Stage& s) {
  x.cadence = s.rounds;
  x.since_measure = 0;
}

void exec_partition(Execution& x, const Stage& s) {
  const std::size_t n = x.fleet().partition_region(in_zone(s.zone), s.rounds);
  x.note("partitioned " + std::to_string(n) + " nodes (" + zone_text(s.zone) +
         heal_text(s.rounds) + ")");
}

void exec_degrade(Execution& x, const Stage& s) {
  const std::size_t n = x.fleet().degrade_region(
      in_zone(s.zone), s.dir, s.drop, sim_ms(s.jitter_ms), s.rounds);
  x.note("degraded links of " + std::to_string(n) + " nodes (" +
         choice_at(kDirections, s.dir) + ", drop " + fmt_g(s.drop) +
         ", jitter " + fmt_g(s.jitter_ms) + "ms" + heal_text(s.rounds) + ")");
}

void exec_corrupt(Execution& x, const Stage& s) {
  x.fleet().corrupt_frames(s.frac, s.rounds);
  x.note("corrupting frames (p " + fmt_g(s.frac) + heal_text(s.rounds) + ")");
}

void exec_duplicate(Execution& x, const Stage& s) {
  x.fleet().duplicate_frames(s.frac, s.rounds);
  x.note("duplicating frames (p " + fmt_g(s.frac) + heal_text(s.rounds) +
         ")");
}

void exec_reorder(Execution& x, const Stage& s) {
  x.fleet().reorder_frames(s.frac, sim_ms(s.jitter_ms), s.rounds);
  x.note("reordering frames (p " + fmt_g(s.frac) + ", jitter " +
         fmt_g(s.jitter_ms) + "ms" + heal_text(s.rounds) + ")");
}

void stalled(Execution& x, const Stage& s, std::size_t n,
             const std::string& how) {
  x.note("stalled " + std::to_string(n) + " nodes for " +
         std::to_string(s.rounds) + " rounds (" + how + ")");
}
void exec_stall_zone(Execution& x, const Stage& s) {
  stalled(x, s, x.fleet().stall_region(in_zone(s.zone), s.rounds),
          zone_text(s.zone));
}
void exec_stall_frac(Execution& x, const Stage& s) {
  const std::size_t want = share(s.frac, x.cluster().alive_count());
  stalled(x, s, x.fleet().stall_random(want, s.rounds),
          "random " + fmt_g(s.frac) + " of alive");
}

void recovered(Execution& x, std::size_t n, const std::string& how) {
  x.run.recovered += n;
  x.note("recovered " + std::to_string(n) + " nodes (" + how + ")");
}
void exec_recover_all(Execution& x, const Stage&) {
  recovered(x, x.fleet().recover_all(), "all crashed");
}
void exec_recover_frac(Execution& x, const Stage& s) {
  const std::size_t candidates =
      x.run.crashed > x.run.recovered ? x.run.crashed - x.run.recovered : 0;
  recovered(x, x.fleet().recover_random(share(s.frac, candidates)),
            "random " + fmt_g(s.frac) + " of crashed");
}
void exec_recover_ids(Execution& x, const Stage& s) {
  engine::EventCluster& fleet = x.fleet();
  std::size_t n = 0;
  for (std::size_t id : s.ids) n += fleet.recover_node(id) ? 1 : 0;
  recovered(x, n, "explicit ids");
}

void exec_traffic(Execution& x, const Stage& s) {
  x.fleet().start_traffic({.rate_per_round = s.count, .mix = s.mix});
  x.note("traffic " + std::to_string(s.count) + "/round (" +
         choice_at(kMixes, s.mix) + ")");
}

void exec_drain(Execution& x, const Stage& s) {
  engine::EventCluster& fleet = x.fleet();
  fleet.stop_traffic();
  std::size_t drained = 0;
  while (fleet.traffic_inflight() > 0) {
    if (++drained > 10000)
      throw ProgramError(x.p.file, s.line,
                         "drain ran 10000 rounds with traffic still in "
                         "flight — the workload is not draining");
    x.step();
  }
  x.note("drained in-flight traffic (" + std::to_string(drained) +
         " rounds)");
}

// ---- the verb table ---------------------------------------------------------

const char* after_a_crash(const Stage&, std::span<const Stage> earlier) {
  const bool crashed =
      std::any_of(earlier.begin(), earlier.end(), [](const Stage& e) {
        const auto verb = words(e.verb->grammar).front();
        return verb == "crash" || verb == "churn";
      });
  return crashed ? nullptr
                 : "'grow crashed' needs a crash or churn stage before it";
}

const char* degrades_something(const Stage& s, std::span<const Stage>) {
  return s.drop == 0.0 && s.jitter_ms == 0.0
             ? "degrade with drop 0 and jitter 0 does nothing"
             : nullptr;
}

const char* reorder_jitter_positive(const Stage& s, std::span<const Stage>) {
  return s.jitter_ms > 0.0 ? nullptr : "reorder jitter must be > 0 ms";
}

// Morph/migrate need the sync simulator; the fault, stall, recovery and
// traffic planes live in the AsyncNode fleet.
const Verb kVerbs[] = {
    {"run <rounds>", kAll, true, exec_run},
    {"grow <nodes>", kAll, false, exec_grow},
    {"grow crashed", kAll, false, exec_grow_crashed, after_a_crash},
    {"crash half", kAll, false, exec_crash_half},
    {"crash frac <fraction>", kAll, false, exec_crash_frac},
    {"crash zone <zone>", kAll, false, exec_crash_zone},
    {"crash ids <ids>", kAll, false, exec_crash_ids},
    {"churn <percent> <rounds>", kAll, true, exec_churn},
    {"flash-crowd <nodes> <rounds>", kAll, true, exec_flash_crowd},
    {"morph drift <offset> <rounds>", kSync, true, exec_morph_drift},
    {"morph shape <shape> <rounds>", kSync, true, exec_morph_shape},
    {"migrate <offset> <rounds>", kSync, true, exec_migrate},
    {"snapshot [label]", kAll, false, exec_snapshot},
    {"measure every <rounds>", kAll, false, exec_measure_every},
    {"partition zone <zone> heal <heal>", kFleet, false, exec_partition},
    {"degrade zone <zone> in|out|both drop <drop> jitter <ms> heal <heal>",
     kFleet, false, exec_degrade, degrades_something},
    {"corrupt <probability> heal <heal>", kFleet, false, exec_corrupt},
    {"duplicate <probability> heal <heal>", kFleet, false, exec_duplicate},
    {"reorder <probability> jitter <ms> heal <heal>", kFleet, false,
     exec_reorder, reorder_jitter_positive},
    {"stall zone <zone> <rounds>", kFleet, false, exec_stall_zone},
    {"stall frac <fraction> <rounds>", kFleet, false, exec_stall_frac},
    {"recover all", kFleet, false, exec_recover_all},
    {"recover frac <fraction>", kFleet, false, exec_recover_frac},
    {"recover ids <ids>", kFleet, false, exec_recover_ids},
    {"traffic <rate> get|put|mixed", kFleet, false, exec_traffic},
    {"drain", kFleet, false, exec_drain},
};

// ---- header directives ------------------------------------------------------

/// A directive's value token, with the checks its field applies.
struct Value {
  const Reader& in;
  const std::string& tok;
  const std::string& key;

  std::size_t count(std::size_t min) const { return in.count(tok, key, min); }
};

/// One header directive: its key, its value's grammar, and the program
/// field it prints (`get`) and writes (`set`).
struct Directive {
  const char* key;
  const char* grammar;  ///< a choice (`on|off`) or a slot (`<integer>`)
  /// Why a non-default value needs engine sync ("engine events <why>");
  /// nullptr when every engine reads the field.
  const char* sync_only;
  bool omit_default;  ///< serialize() leaves the directive out at its default
  std::string (*get)(const ScenarioProgram&);
  void (*set)(ScenarioProgram&, const Value&);
};

// `p` is the program, `v` the value; choices arrive already checked.
const Directive kDirectives[] = {
    {"name", "<word>", nullptr, false, [](auto& p) { return p.name; },
     [](auto& p, auto& v) { p.name = v.tok; }},
    {"shape", "<shape>", nullptr, false, [](auto& p) { return p.shape_spec; },
     [](auto& p, auto& v) {
       std::string err;
       if (!shape::make_shape(v.tok, &err)) v.in.fail(err);
       p.shape_spec = v.tok;
     }},
    {"engine", "sync|events|live", nullptr, false,
     [](auto& p) { return std::string(to_string(p.options.engine)); },
     [](auto& p, auto& v) {
       p.options.engine = *engine_mode_from_string(v.tok);
     }},
    {"seed", "<integer>", nullptr, false,
     [](auto& p) { return std::to_string(p.options.config.seed); },
     [](auto& p, auto& v) { p.options.config.seed = v.count(0); }},
    {"reps", "<integer>", nullptr, false,
     [](auto& p) { return std::to_string(p.reps); },
     [](auto& p, auto& v) { p.reps = v.count(1); }},
    {"k", "<integer>", nullptr, false,
     [](auto& p) { return std::to_string(p.options.config.poly.replication); },
     [](auto& p, auto& v) { p.options.config.poly.replication = v.count(1); }},
    {"split", "basic|pd|md|advanced", nullptr, false,
     [](auto& p) { return core::to_string(p.options.config.poly.split_kind); },
     [](auto& p, auto& v) {
       p.options.config.poly.split_kind = core::split_kind_from_string(v.tok);
     }},
    {"substrate", "tman|vicinity", "runs on T-Man", false,
     [](auto& p) {
       return std::string(p.options.config.substrate == Substrate::kVicinity
                              ? "vicinity"
                              : "tman");
     },
     [](auto& p, auto& v) {
       p.options.config.substrate =
           v.tok == "vicinity" ? Substrate::kVicinity : Substrate::kTman;
     }},
    {"polystyrene", "on|off", "runs the full Polystyrene stack", false,
     [](auto& p) {
       return std::string(p.options.config.polystyrene ? "on" : "off");
     },
     [](auto& p, auto& v) { p.options.config.polystyrene = v.tok == "on"; }},
    {"fd-delay", "<integer>", "has its own failure detection", true,
     [](auto& p) { return std::to_string(p.options.config.fd_delay_rounds); },
     [](auto& p, auto& v) { p.options.config.fd_delay_rounds = v.count(0); }},
    {"fd-fp", "<probability>", "has its own failure detection", true,
     [](auto& p) { return fmt_g(p.options.config.fd_false_positive_rate); },
     [](auto& p, auto& v) {
       p.options.config.fd_false_positive_rate =
           v.in.real_in(v.tok, "fd-fp rate", 0.0, 1.0, /*closed_low=*/true);
     }},
};

// ---- expect -----------------------------------------------------------------

/// `expect` comparisons, in Expect::Op order.
constexpr std::string_view kOps = "<|<=|>|>=|==|!=";
constexpr const char* kExpectGrammar =
    "expect <metric> <op> <value> @ <round|end>";

bool holds(Expect::Op op, double lhs, double rhs) {
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

// ---- the parser -------------------------------------------------------------

/// Morph-shape targets must be grids that fit inside the torus of the shape
/// that runs (positions cannot leave the metric space).  Checked at parse
/// time, so a bad timeline fails before round 1, and again by run_program,
/// since callers (`poly_scenario --shape`) may override the shape.
void check_morph_shapes(const ScenarioProgram& p) {
  std::unique_ptr<shape::Shape> base;
  const space::TorusSpace* torus = nullptr;
  for (const auto& s : p.timeline) {
    if (s.shape_spec.empty()) continue;  // only `morph shape` names a shape
    if (base == nullptr) {
      base = shape::make_shape(p.shape_spec);
      torus = dynamic_cast<const space::TorusSpace*>(&base->space());
      if (torus == nullptr)
        throw ProgramError(p.file, 0,
                           "morph shape needs a grid:WxH base shape, not " +
                               p.shape_spec);
    }
    const auto target = shape::make_shape(s.shape_spec);
    const auto* tt = dynamic_cast<const space::TorusSpace*>(&target->space());
    if (tt == nullptr)
      throw ProgramError(p.file, s.line,
                         "morph shape target must be a grid:WxH, not " +
                             s.shape_spec);
    if (tt->width() > torus->width() || tt->height() > torus->height())
      throw ProgramError(p.file, s.line,
                         "morph target " + s.shape_spec + " does not fit the " +
                             fmt_g(torus->width()) + "x" +
                             fmt_g(torus->height()) + " torus of " +
                             p.shape_spec);
  }
}

class Parser : Reader {
 public:
  Parser(const std::string& text, const std::string& filename)
      : Reader(filename), text_(text) {}

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
      if (tok[0] == "expect")
        expect(p, tok);
      else
        stage(p, tok);
    }

    if (p.shape_spec.empty())
      fail(0, "missing required 'shape' directive (e.g. shape grid:80x40)");
    check_morph_shapes(p);
    check_expect_rounds(p);
    return p;
  }

 private:
  std::string default_name() const {
    std::string stem = file_;
    if (const auto slash = stem.find_last_of('/');
        slash != std::string::npos)
      stem = stem.substr(slash + 1);
    if (stem.size() > 5 && stem.ends_with(".poly"))
      stem = stem.substr(0, stem.size() - 5);
    return stem;
  }

  /// Names what a verb wants: its grammar after the verb word.
  [[noreturn]] void wants(const std::vector<std::string>& tok,
                          std::string_view grammar) const {
    const std::size_t space = grammar.find(' ');
    fail("'" + tok[0] + "' wants " +
         (space == std::string_view::npos
              ? "no arguments"
              : std::string(grammar.substr(space + 1))) +
         ", got " + std::to_string(tok.size() - 1) + " argument(s)");
  }

  /// Returns true when `tok` was a header directive.
  bool header_directive(ScenarioProgram& p,
                        const std::vector<std::string>& tok) {
    const auto* d = std::find_if(
        std::begin(kDirectives), std::end(kDirectives),
        [&](const Directive& row) { return tok[0] == row.key; });
    if (d == std::end(kDirectives)) return false;  // the first stage
    if (tok.size() != 2) wants(tok, std::string(d->key) + " " + d->grammar);
    if (const int first = p.line_of(tok[0]))
      fail("duplicate '" + tok[0] + "' (first set on line " +
           std::to_string(first) + ")");
    p.directive_lines.emplace_back(tok[0], line_);
    if (std::string_view(d->grammar).find('|') != std::string_view::npos)
      choice(d->grammar, tok[1], tok[0]);
    d->set(p, Value{*this, tok[1], tok[0]});
    return true;
  }

  /// The verb row `tok` names.  Rows sharing a verb are told apart by their
  /// second word: a literal selector, or a slot (`grow <nodes>`) that takes
  /// whatever no selector matched.
  const Verb& select(const std::vector<std::string>& tok) const {
    std::vector<std::string_view> verbs, selectors;
    std::vector<const Verb*> forms;
    const Verb* open = nullptr;
    for (const auto& v : kVerbs) {
      const auto w = words(v.grammar);
      if (verbs.empty() || verbs.back() != w[0]) verbs.push_back(w[0]);
      if (w[0] != tok[0]) continue;
      forms.push_back(&v);
      if (w.size() < 2 || find_slot(w[1]) != nullptr)
        open = &v;
      else if (tok.size() > 1 && tok[1] == w[1])
        return v;
      else
        selectors.push_back(w[1]);
    }
    if (open != nullptr) return *open;
    if (forms.empty()) {
      verbs.emplace_back("expect");
      fail("unknown stage '" + tok[0] + "' (want " + one_of(verbs) + ")");
    }
    // A lone form: stage() says what its literal words want.
    if (forms.size() == 1) return *forms.front();
    if (tok.size() < 2) fail("'" + tok[0] + "' wants " + one_of(selectors));
    fail("unknown " + tok[0] + " selector '" + tok[1] + "' (want " +
         one_of(selectors) + ")");
  }

  void stage(ScenarioProgram& p, const std::vector<std::string>& tok) {
    const Verb& verb = select(tok);
    Stage s;
    s.verb = &verb;
    s.line = line_;
    std::size_t at = 0;
    for (const auto word : words(verb.grammar)) {
      const SlotType* slot = find_slot(word);
      const std::size_t n = slot == nullptr  ? 1
                            : slot->width > 0 ? slot->width
                                              : tok.size() - at;  // [label]
      if (at + n > tok.size()) wants(tok, verb.grammar);
      if (slot != nullptr)
        fill_slot(*this, slot->slot,
                  std::span<const std::string>(tok).subspan(at, n), tok[0], s);
      else if (tok[at] != word)
        fail("'" + tok[0] + "' wants: " + verb.grammar);
      at += n;
    }
    if (at != tok.size()) wants(tok, verb.grammar);
    if (verb.check != nullptr)
      if (const char* err = verb.check(s, p.timeline)) fail(err);
    p.timeline.push_back(std::move(s));
  }

  // `expect` is an assertion, not a stage — position-independent, keyed
  // by completed-round count (or `end`), collected outside the timeline.
  void expect(ScenarioProgram& p, const std::vector<std::string>& tok) {
    if (tok.size() != 6) wants(tok, kExpectGrammar);
    Expect e;
    e.line = line_;
    e.metric = tok[1];
    if (find_metric(e.metric) == nullptr) {
      std::string names;
      for (const Metric& m : metric_table())
        names += (names.empty() ? "" : ", ") + std::string(m.name);
      fail("unknown expect metric '" + tok[1] + "' (want one of " + names +
           ")");
    }
    e.op = static_cast<Expect::Op>(choice(kOps, tok[2], "expect comparison"));
    e.value = real(tok[3], "expect value");
    if (tok[4] != "@") fail(std::string("'expect' wants: ") + kExpectGrammar);
    if (tok[5] == "end")
      e.at_end = true;
    else
      e.round = count(tok[5], "expect round", 1);
    p.expects.push_back(std::move(e));
  }

  /// An expect keyed past the last executed round would silently never
  /// fire — reject it at parse time.
  void check_expect_rounds(const ScenarioProgram& p) const {
    const std::size_t total = p.total_rounds();
    for (const auto& e : p.expects)
      if (!e.at_end && e.round > total)
        fail(e.line, "expect @ round " + std::to_string(e.round) +
                         " but the timeline only runs " +
                         std::to_string(total) + " rounds");
  }

  const std::string& text_;
  bool in_timeline_ = false;
};

}  // namespace

ProgramError::ProgramError(const std::string& file, int line,
                           const std::string& msg)
    : std::runtime_error(location(file, line) + ": " + msg),
      file_(file),
      line_(line) {}

std::span<const Verb> verb_table() noexcept { return kVerbs; }

int ScenarioProgram::line_of(const std::string& directive) const {
  for (const auto& [k, l] : directive_lines)
    if (k == directive) return l;
  return 0;
}

std::size_t ScenarioProgram::total_rounds() const noexcept {
  // Fault verbs' heal bounds and stall spans are not executed rounds, and
  // neither are drain's: how many it runs depends on the in-flight
  // population, so expects about the post-drain state use `@ end`.
  std::size_t n = 0;
  for (const auto& s : timeline)
    if (s.verb->timed) n += s.rounds;
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
  const ScenarioProgram defaults;
  for (const auto& d : kDirectives) {
    const std::string value = d.get(p);
    if (!d.omit_default || value != d.get(defaults))
      os << d.key << ' ' << value << '\n';
  }
  os << '\n';

  for (const auto& s : p.timeline) {
    std::string line;
    for (const auto word : words(s.verb->grammar)) {
      const SlotType* slot = find_slot(word);
      const std::string text =
          slot != nullptr ? print_slot(slot->slot, s) : std::string(word);
      if (text.empty()) continue;  // a snapshot without a label
      line += (line.empty() ? "" : " ") + text;
    }
    os << line << '\n';
  }

  if (!p.expects.empty()) {
    os << '\n';
    for (const auto& e : p.expects)
      os << "expect " << e.metric << ' ' << choice_at(kOps, e.op) << ' '
         << fmt_g(e.value) << " @ "
         << (e.at_end ? "end" : std::to_string(e.round)) << '\n';
  }
  return os.str();
}

void validate_for_mode(const ScenarioProgram& p, EngineMode mode) {
  const std::string m = to_string(mode);
  for (const auto& s : p.timeline)
    if ((s.verb->engines & bit(mode)) == 0)
      throw ProgramError(p.file, s.line,
                         "'" + std::string(s.verb->grammar) +
                             "' needs engine " + engine_list(s.verb->engines) +
                             ", not " + m);

  // Expects replay against a fixed trajectory, and each metric must be
  // observable under the engine that runs.
  for (const auto& e : p.expects) {
    const Metric* metric = find_metric(e.metric);
    if (metric == nullptr)
      throw ProgramError(p.file, e.line,
                         "unknown expect metric '" + e.metric + "'");
    if (!metric->measures(mode))
      throw ProgramError(p.file, e.line,
                         "metric '" + e.metric + "' needs engine " +
                             engine_list(metric->engines()) + ", not " + m);
  }

  if (mode == EngineMode::kSync) return;
  const ScenarioProgram defaults;
  for (const auto& d : kDirectives) {
    if (d.sync_only == nullptr) continue;
    const std::string value = d.get(p);
    if (value != d.get(defaults))
      throw ProgramError(p.file, p.line_of(d.key),
                         "engine " + m + " " + d.sync_only + "; '" + d.key +
                             " " + value + "' needs engine sync");
  }
}

Simulation& Execution::sim() {
  Simulation* sim = change().sim();
  if (sim == nullptr)
    throw std::logic_error(
        std::string("morph/migrate stages need --engine sync; this cluster "
                    "runs ") +
        to_string(mode));
  return *sim;
}

engine::EventCluster& Execution::fleet() {
  engine::EventCluster* fleet = change().fleet();
  if (fleet == nullptr)
    throw std::logic_error(
        std::string("fault, recover and traffic verbs need --engine events "
                    "or live; this cluster runs ") +
        to_string(mode));
  return *fleet;
}

void Execution::measure_now() {
  since_measure = 0;
  run.rounds.push_back(measured());
  if (reshape_window && std::isnan(run.reshaping_rounds) &&
      run.rounds.back()["homogeneity"] < run.reference_h_after_crash)
    run.reshaping_rounds =
        static_cast<double>(cluster().rounds_run() - crash_round);
}

// Expects read the cluster at their trigger point, so a sparse measure
// cadence cannot shift what an assertion sees; all expects of one trigger
// share one measurement.
void Execution::check_expects(bool at_end) {
  for (const auto& e : p.expects) {
    if (e.at_end != at_end) continue;
    if (!at_end && e.round != cluster().rounds_run()) continue;
    const double actual = measured()[e.metric];
    if (!holds(e.op, actual, e.value))
      throw ProgramError(
          p.file, e.line,
          "expect failed: " + e.metric + " = " + fmt_g(actual) + ", want " +
              choice_at(kOps, e.op) + " " + fmt_g(e.value) +
              (at_end ? std::string(" @ end")
                      : " @ round " + std::to_string(e.round)));
  }
}

void Execution::step() {
  change().run_round();
  if (++since_measure >= cadence) measure_now();
  check_expects(false);
}

void Execution::record_crash(std::size_t n, const std::string& how) {
  run.crashed += n;
  crashed_since_grow += n;
  if (!crash_seen) {
    crash_seen = true;
    reshape_window = true;
    crash_round = cluster().rounds_run();
    run.reference_h_after_crash =
        shape.reference_homogeneity(cluster().alive_count());
  }
  note("crashed " + std::to_string(n) + " nodes (" + how + ")");
}

ProgramRun run_program_once(const shape::Shape& shape,
                            const ScenarioProgram& p,
                            const ScenarioOptions& options) {
  Execution x(p, shape, options);
  for (const auto& s : p.timeline) s.verb->exec(x, s);

  // The last executed round is always measured, so "final" values exist
  // even at a sparse cadence.
  if (x.cluster().rounds_run() > 0 && x.since_measure != 0) x.measure_now();

  x.check_expects(true);

  x.run.reliability = x.measured()["reliability"];
  x.run.rounds_total = x.cluster().rounds_run();
  return std::move(x.run);
}

std::vector<std::size_t> ProgramResult::measured_rounds() const {
  std::vector<std::size_t> rounds;
  for (const auto& run : runs)
    for (const auto& m : run.rounds) rounds.push_back(m.round);
  std::sort(rounds.begin(), rounds.end());
  rounds.erase(std::unique(rounds.begin(), rounds.end()), rounds.end());
  return rounds;
}

util::SeriesAggregator ProgramResult::series(std::string_view metric) const {
  const std::vector<std::size_t> rounds = measured_rounds();
  util::SeriesAggregator out;
  for (const auto& run : runs)
    for (const auto& m : run.rounds) {
      const auto row = std::lower_bound(rounds.begin(), rounds.end(), m.round);
      out.add(static_cast<std::size_t>(row - rounds.begin()), m[metric]);
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
  check_morph_shapes(p);
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

  std::size_t workers = std::thread::hardware_concurrency();
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
  std::vector<const Metric*> cols;
  std::vector<std::string> headers{"round"};
  for (const Metric& row : metric_table()) {
    if (!row.measures(r.program.options.engine)) continue;
    cols.push_back(&row);
    headers.emplace_back(row.name);
  }
  std::vector<util::SeriesAggregator> spread;
  if (r.runs.size() > 1)
    for (const Metric* col : cols) spread.push_back(r.series(col->name));

  util::Table table(std::move(headers));
  // With one repetition, row i is its i-th measurement.
  const ProgramRun& first = r.first();
  const std::vector<std::size_t> rounds = r.measured_rounds();
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    std::vector<std::string> row{std::to_string(rounds[i])};
    for (std::size_t c = 0; c < cols.size(); ++c)
      row.push_back(spread.empty() ? cols[c]->cell(first.rounds[i][*cols[c]])
                                   : cols[c]->cell(spread[c].row(i)));
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace poly::scenario
