// Tests for the scenario compiler (scenario/program.hpp): parsing and the
// canonical serializer round-trip, file:line diagnostics on malformed
// input, per-engine validation, and small end-to-end runs checking the
// determinism contract, the crash/grow accounting, repetitions, the
// reshaping-time window, and a bit-for-bit pin of the paper's timeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/event_cluster.hpp"
#include "scenario/program.hpp"
#include "util/bench_io.hpp"

namespace {

using poly::scenario::EngineMode;
using poly::scenario::Measurement;
using poly::scenario::Metric;
using poly::scenario::ProgramError;
using poly::scenario::ScenarioOptions;
using poly::scenario::ScenarioProgram;
using poly::scenario::Stage;
using poly::scenario::Substrate;
using poly::scenario::find_metric;
using poly::scenario::load_program;
using poly::scenario::make_cluster;
using poly::scenario::measure;
using poly::scenario::metric_table;
using poly::scenario::parse_program;
using poly::scenario::run_program;
using poly::scenario::serialize;
using poly::scenario::validate_for_mode;
using poly::scenario::verb_table;
using poly::traffic::Mix;

/// Expects `parse_program(text)` to throw with the given 1-based line and
/// a message containing `needle`.
void expect_parse_error(const std::string& text, int line,
                        const std::string& needle) {
  try {
    parse_program(text, "bad.poly");
    FAIL() << "expected ProgramError for:\n" << text;
  } catch (const ProgramError& e) {
    EXPECT_EQ(e.line(), line) << e.what();
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message '" << e.what() << "' lacks '" << needle << "'";
    EXPECT_EQ(e.file(), "bad.poly");
  }
}

/// Every row of two measured rounds is equal, bit for bit (NaN matches
/// NaN): the determinism contract.
void expect_same(const Measurement& a, const Measurement& b) {
  EXPECT_EQ(a.round, b.round);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    const double x = a.values[i];
    const double y = b.values[i];
    EXPECT_TRUE(x == y || (std::isnan(x) && std::isnan(y)))
        << "round " << a.round << " " << metric_table()[i].name << ": " << x
        << " != " << y;
  }
}

// ---- parsing ----------------------------------------------------------------

TEST(ProgramParse, HeaderAndTimeline) {
  const auto p = parse_program(
      "# catastrophe timeline\n"
      "name demo\n"
      "shape grid:8x8\n"
      "engine events\n"
      "seed 7\n"
      "reps 3\n"
      "k 2\n"
      "split basic\n"
      "\n"
      "run 10\n"
      "crash frac 0.25\n"
      "grow crashed\n"
      "snapshot after repair\n"
      "measure every 5\n",
      "demo.poly");

  EXPECT_EQ(p.name, "demo");
  EXPECT_EQ(p.shape_spec, "grid:8x8");
  EXPECT_EQ(p.options.engine, EngineMode::kEvents);
  EXPECT_EQ(p.options.config.seed, 7u);
  EXPECT_EQ(p.reps, 3u);
  EXPECT_EQ(p.options.config.poly.replication, 2u);

  ASSERT_EQ(p.timeline.size(), 5u);
  EXPECT_STREQ(p.timeline[0].verb->grammar, "run <rounds>");
  EXPECT_EQ(p.timeline[0].rounds, 10u);
  EXPECT_STREQ(p.timeline[1].verb->grammar, "crash frac <fraction>");
  EXPECT_DOUBLE_EQ(p.timeline[1].frac, 0.25);
  EXPECT_STREQ(p.timeline[2].verb->grammar, "grow crashed");
  EXPECT_EQ(p.timeline[3].label, "after repair");
  EXPECT_STREQ(p.timeline[4].verb->grammar, "measure every <rounds>");
  EXPECT_EQ(p.timeline[4].rounds, 5u);
  EXPECT_EQ(p.total_rounds(), 10u);
}

TEST(ProgramParse, NameDefaultsToFileStem) {
  const auto p =
      parse_program("shape grid:4x4\nrun 1\n", "scenarios/smoke_test.poly");
  EXPECT_EQ(p.name, "smoke_test");
}

TEST(ProgramParse, HeaderDirectiveAfterFirstStageIsAStageError) {
  // Once the timeline starts, header words are no longer recognised.
  expect_parse_error("shape grid:4x4\nrun 1\nseed 3\n", 3, "unknown stage");
}

TEST(ProgramParse, SerializeRoundTrips) {
  const std::string text =
      "name roundtrip\n"
      "shape grid:16x8\n"
      "engine sync\n"
      "seed 5\n"
      "reps 2\n"
      "k 8\n"
      "split pd\n"
      "substrate vicinity\n"
      "fd-delay 2\n"
      "fd-fp 0.01\n"
      "run 20\n"
      "crash zone 1 1 5.5 4\n"
      "grow 32\n"
      "churn 2.5 10\n"
      "flash-crowd 64 8\n"
      "morph drift 0.25 -0.5 10\n"
      "morph shape grid:8x8 10\n"
      "migrate 4 2 10\n"
      "snapshot the end\n"
      "measure every 2\n"
      "crash ids 1,2,3\n";
  const auto p = parse_program(text, "roundtrip.poly");
  const auto canon = serialize(p);
  const auto p2 = parse_program(canon, "roundtrip2.poly");
  // The canonical form is a fixpoint, and re-parsing reproduces the
  // program.
  EXPECT_EQ(serialize(p2), canon);
  EXPECT_EQ(p2.name, p.name);
  EXPECT_EQ(p2.shape_spec, p.shape_spec);
  EXPECT_TRUE(p2.options.config == p.options.config);
  ASSERT_EQ(p2.timeline.size(), p.timeline.size());
  for (std::size_t i = 0; i < p.timeline.size(); ++i) {
    EXPECT_EQ(p2.timeline[i].verb, p.timeline[i].verb) << "stage " << i;
    EXPECT_EQ(p2.timeline[i].rounds, p.timeline[i].rounds) << "stage " << i;
    EXPECT_EQ(p2.timeline[i].ids, p.timeline[i].ids) << "stage " << i;
  }
}

TEST(ProgramParse, CheckedInScenariosRoundTrip) {
  // serialize(parse(f)) is a fixpoint for every checked-in program, and it
  // re-parses to the same header, verb rows, slot values and expects.
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(POLY_SCENARIO_DIR))
    if (entry.path().extension() == ".poly") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 16u);
  // The canonical text puts stages on other lines.
  const auto values = [](std::vector<Stage> timeline) {
    for (auto& s : timeline) s.line = 0;
    return timeline;
  };
  for (const auto& file : files) {
    SCOPED_TRACE(file.string());
    const auto p = load_program(file.string());
    const auto canon = serialize(p);
    const auto p2 = parse_program(canon, "canon.poly");
    EXPECT_EQ(serialize(p2), canon);
    EXPECT_EQ(p2.name, p.name);
    EXPECT_EQ(p2.shape_spec, p.shape_spec);
    EXPECT_EQ(p2.options.engine, p.options.engine);
    EXPECT_TRUE(p2.options.config == p.options.config);
    EXPECT_EQ(p2.reps, p.reps);
    EXPECT_TRUE(values(p2.timeline) == values(p.timeline));
    ASSERT_EQ(p2.expects.size(), p.expects.size());
    for (std::size_t i = 0; i < p.expects.size(); ++i) {
      EXPECT_EQ(p2.expects[i].metric, p.expects[i].metric);
      EXPECT_EQ(p2.expects[i].op, p.expects[i].op);
      EXPECT_EQ(p2.expects[i].value, p.expects[i].value);
      EXPECT_EQ(p2.expects[i].round, p.expects[i].round);
      EXPECT_EQ(p2.expects[i].at_end, p.expects[i].at_end);
    }
  }
}

// ---- diagnostics ------------------------------------------------------------

TEST(ProgramDiagnostics, UnknownStageNamesTheLine) {
  expect_parse_error("shape grid:4x4\nrun 5\nexplode 3\n", 3,
                     "unknown stage 'explode'");
}

TEST(ProgramDiagnostics, MissingShapeIsWholeFile) {
  expect_parse_error("name x\nrun 5\n", 0, "missing required 'shape'");
}

TEST(ProgramDiagnostics, CrashFracOutOfRange) {
  expect_parse_error("shape grid:4x4\ncrash frac 1.5\n", 2, "out of (0, 1]");
  expect_parse_error("shape grid:4x4\ncrash frac 0\n", 2, "out of (0, 1]");
}

TEST(ProgramDiagnostics, ChurnPercentageOutOfRange) {
  expect_parse_error("shape grid:4x4\nchurn 150 10\n", 2, "out of (0, 100]");
}

TEST(ProgramDiagnostics, EmptyCrashZone) {
  expect_parse_error("shape grid:4x4\ncrash zone 5 5 5 9\n", 2,
                     "empty crash zone");
}

TEST(ProgramDiagnostics, CrashWithUnknownSelector) {
  expect_parse_error("shape grid:4x4\ncrash everything\n", 2,
                     "unknown crash selector");
}

TEST(ProgramDiagnostics, DuplicateHeaderDirective) {
  expect_parse_error("shape grid:4x4\nseed 1\nseed 2\nrun 1\n", 3,
                     "duplicate 'seed'");
}

TEST(ProgramDiagnostics, GrowCrashedNeedsACrash) {
  expect_parse_error("shape grid:4x4\nrun 5\ngrow crashed\n", 3,
                     "'grow crashed' needs a crash");
}

TEST(ProgramDiagnostics, NonIntegerRoundCount) {
  expect_parse_error("shape grid:4x4\nrun ten\n", 2, "bad round count");
}

TEST(ProgramDiagnostics, OutOfRangeCountIsRejected) {
  // strtoull saturates at 2^64-1; that must not pass for a round count or
  // a seed.
  expect_parse_error("shape grid:4x4\nrun 99999999999999999999\n", 2,
                     "bad round count");
  expect_parse_error("shape grid:4x4\nseed 99999999999999999999\nrun 1\n",
                     2, "bad seed");
}

TEST(ProgramDiagnostics, UnknownEngine) {
  expect_parse_error("shape grid:4x4\nengine quantum\nrun 1\n", 2,
                     "unknown engine 'quantum'");
}

TEST(ProgramDiagnostics, MorphTargetMustFitTheBaseTorus) {
  expect_parse_error("shape grid:8x4\nmorph shape grid:16x4 5\n", 2,
                     "does not fit");
}

TEST(ProgramDiagnostics, MorphShapeNeedsAGridBase) {
  expect_parse_error("shape ring:64\nmorph shape grid:4x4 5\n", 0,
                     "needs a grid:WxH base shape");
}

TEST(ProgramDiagnostics, FdFpRateOutOfRange) {
  expect_parse_error("shape grid:4x4\nfd-fp 1.5\nrun 1\n", 2,
                     "out of [0, 1)");
}

TEST(ProgramDiagnostics, JitterAboveOneVirtualDay) {
  // Past one virtual day, a <ms> slot would overflow engine::SimTime's
  // int64 nanoseconds when the fault is installed.
  const std::string hdr = "shape grid:8x8\nengine events\n";
  expect_parse_error(hdr + "reorder 0.5 jitter 1e300 heal 5\n", 3,
                     "reorder jitter 1e300 is above one virtual day");
  expect_parse_error(
      hdr + "degrade zone 0 0 8 8 both drop 0 jitter 1e300 heal 0\n", 3,
      "degrade jitter 1e300 is above one virtual day");
  EXPECT_NO_THROW(parse_program(hdr + "reorder 0.5 jitter 86400000 heal 5\n"));
}

TEST(ProgramDiagnostics, WhatIncludesFileAndLine) {
  try {
    parse_program("shape grid:4x4\nrun -3\n", "demo.poly");
    FAIL() << "expected ProgramError";
  } catch (const ProgramError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("demo.poly:2: ", 0), 0u)
        << e.what();
  }
}

// ---- per-engine validation --------------------------------------------------

TEST(ProgramValidate, MorphNeedsSync) {
  auto p = parse_program("shape grid:8x8\nmorph drift 0.5 0 5\n");
  EXPECT_NO_THROW(validate_for_mode(p, EngineMode::kSync));
  EXPECT_THROW(validate_for_mode(p, EngineMode::kEvents), ProgramError);
  EXPECT_THROW(validate_for_mode(p, EngineMode::kLive), ProgramError);
}

TEST(ProgramValidate, TmanOnlyNeedsSync) {
  auto p = parse_program("shape grid:8x8\npolystyrene off\nrun 5\n");
  EXPECT_NO_THROW(validate_for_mode(p, EngineMode::kSync));
  try {
    validate_for_mode(p, EngineMode::kEvents);
    FAIL() << "expected ProgramError";
  } catch (const ProgramError& e) {
    // The diagnostic points at the offending header line.
    EXPECT_EQ(e.line(), 2) << e.what();
  }
}

TEST(ProgramValidate, ChurnRunsUnderEveryEngine) {
  auto p = parse_program("shape grid:8x8\nchurn 5 10\n");
  EXPECT_NO_THROW(validate_for_mode(p, EngineMode::kSync));
  EXPECT_NO_THROW(validate_for_mode(p, EngineMode::kEvents));
  EXPECT_NO_THROW(validate_for_mode(p, EngineMode::kLive));
}

TEST(ProgramValidate, EveryVerbRowRunsUnderExactlyItsEngines) {
  // One sample line per row of the verb table, with the engines it runs
  // under written out here rather than read from the table.  Each sample
  // validates under exactly those engines and then executes under each of
  // them: a row whose engine bits name an engine its execution function
  // cannot call fails here, not in a user's run.  Live is the events fleet
  // on the wall clock, so it runs exactly the rows events runs.
  struct Sample {
    const char* line;
    bool sync, events;
  };
  const Sample samples[] = {
      {"run 5", true, true},
      {"grow 4", true, true},
      {"grow crashed", true, true},
      {"crash half", true, true},
      {"crash frac 0.5", true, true},
      {"crash zone 0 0 4 4", true, true},
      {"crash ids 1,2", true, true},
      {"churn 5 10", true, true},
      {"flash-crowd 8 4", true, true},
      {"morph drift 1 0 5", true, false},
      {"morph shape grid:4x4 5", true, false},
      {"migrate 4 2 10", true, false},
      {"snapshot a label", true, true},
      {"measure every 2", true, true},
      {"partition zone 0 0 1 1 heal 0", false, true},
      {"degrade zone 0 0 4 8 in drop 0.25 jitter 1.5 heal 0", false, true},
      {"corrupt 0.05 heal 8", false, true},
      {"duplicate 0.1 heal 0", false, true},
      {"reorder 0.2 jitter 3 heal 4", false, true},
      {"stall zone 0 0 4 8 6", false, true},
      {"stall frac 0.5 3", false, true},
      {"recover all", false, true},
      {"recover frac 0.5", false, true},
      {"recover ids 1,2,3", false, true},
      {"traffic 100 mixed", false, true},
      {"drain", false, true},
  };
  std::set<std::string> rows;  // the grammars the samples parsed to
  for (const auto& sample : samples) {
    SCOPED_TRACE(sample.line);
    // `grow crashed` needs an earlier crash; `crash half` runs anywhere.
    const auto p = parse_program(std::string("shape grid:8x8\ncrash half\n") +
                                 sample.line + "\n");
    rows.insert(p.timeline.back().verb->grammar);
    const std::pair<EngineMode, bool> engines[] = {
        {EngineMode::kSync, sample.sync},
        {EngineMode::kEvents, sample.events},
        {EngineMode::kLive, sample.events},
    };
    for (const auto& [mode, runs] : engines) {
      if (!runs) {
        EXPECT_THROW(validate_for_mode(p, mode), ProgramError)
            << to_string(mode);
        continue;
      }
      EXPECT_NO_THROW(validate_for_mode(p, mode)) << to_string(mode);
      ScenarioProgram run = p;
      run.options.engine = mode;
      EXPECT_NO_THROW(run_program(run)) << to_string(mode);
    }
  }
  EXPECT_EQ(rows.size(), std::size(samples));  // one sample per row
  EXPECT_EQ(verb_table().size(), std::size(samples));
}

// ---- execution --------------------------------------------------------------

TEST(ProgramRun, CrashAndGrowAccounting) {
  const auto p = parse_program(
      "shape grid:8x8\n"
      "run 5\n"
      "crash half\n"
      "run 5\n"
      "grow crashed\n"
      "run 5\n"
      "grow 10\n"
      "run 1\n");
  const auto r = run_program(p);
  EXPECT_EQ(r.first().crashed, 32u);
  EXPECT_EQ(r.first().injected, 42u);
  EXPECT_EQ(r.first().rounds_total, 16u);
  ASSERT_FALSE(r.first().rounds.empty());
  EXPECT_EQ(r.first().rounds.back()["alive"], 74.0);
  EXPECT_FALSE(std::isnan(r.first().reference_h_after_crash));
  const auto rel = r.reliability_ci();
  EXPECT_GE(rel.mean, 0.0);
  EXPECT_LE(rel.mean, 1.0);
}

TEST(ProgramRun, MeasureCadenceThinsTheSeries) {
  const auto every = parse_program(
      "shape grid:6x6\nmeasure every 5\nrun 20\n");
  const auto r = run_program(every);
  // Rounds 4, 9, 14, 19 at cadence 5.
  ASSERT_EQ(r.first().rounds.size(), 4u);
  EXPECT_EQ(r.first().rounds.front().round, 4u);
  EXPECT_EQ(r.first().rounds.back().round, 19u);
}

TEST(ProgramRun, SnapshotProducesMapAndPositions) {
  const auto p = parse_program(
      "shape grid:6x6\nrun 3\nsnapshot mid run\nrun 2\n");
  const auto r = run_program(p);
  bool saw = false;
  for (const auto& e : r.first().events) {
    if (!e.is_snapshot) continue;
    saw = true;
    EXPECT_EQ(e.text, "mid run");
    EXPECT_EQ(e.round, 3u);
    EXPECT_FALSE(e.map.empty());
    EXPECT_EQ(e.positions.size(), 36u);
  }
  EXPECT_TRUE(saw);
}

TEST(ProgramRun, SameSeedSameTrajectorySync) {
  const auto p = parse_program(
      "shape grid:8x8\nseed 11\nrun 5\ncrash frac 0.25\nrun 10\n");
  const auto a = run_program(p).first();
  const auto b = run_program(p).first();
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i)
    expect_same(a.rounds[i], b.rounds[i]);
  EXPECT_EQ(a.crashed, b.crashed);
}

TEST(ProgramRun, SameSeedSameTrajectoryEvents) {
  const auto p = parse_program(
      "shape grid:6x6\nengine events\nseed 3\nrun 4\ncrash frac 0.2\n"
      "run 6\n");
  const auto a = run_program(p).first();
  const auto b = run_program(p).first();
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i)
    expect_same(a.rounds[i], b.rounds[i]);
}

TEST(ProgramRun, LiveReplaysEventsBitForBit) {
  // The chaos, recovery and traffic planes under both clocks: live runs
  // the events fleet paced by the wall clock, so every measured round
  // matches, every metric of it, bit for bit (NaN included).
  auto p = parse_program(
      "shape grid:8x8\nseed 5\nrun 6\ncrash frac 0.25\n"
      "partition zone 0 0 4 8 heal 6\ntraffic 16 mixed\nrun 8\n"
      "recover all\nrun 6\ndrain\n"
      "expect recoveries == 16 @ end\n");
  p.options.engine = EngineMode::kEvents;
  const auto events = run_program(p).first();
  p.options.engine = EngineMode::kLive;
  // DETLINT-ALLOW(nondet-source): times the live run against its lower
  // bound; the wall clock never feeds the compared trajectory
  const auto start = std::chrono::steady_clock::now();
  const auto live = run_program(p).first();
  // DETLINT-ALLOW(nondet-source): end of the same wall-time measurement
  const auto took = std::chrono::steady_clock::now() - start;

  ASSERT_EQ(live.rounds.size(), events.rounds.size());
  ASSERT_GE(events.rounds_total, 20u);
  EXPECT_GT(events.rounds.back()["requests"], 0.0);
  for (std::size_t i = 0; i < events.rounds.size(); ++i)
    expect_same(live.rounds[i], events.rounds[i]);
  EXPECT_EQ(live.reliability, events.reliability);
  // One round is one 25 ms tick of wall time.
  EXPECT_GE(took, std::chrono::milliseconds(25) *
                      static_cast<int>(live.rounds_total));
}

TEST(ProgramRun, RepsAggregateIndependentSeeds) {
  const auto p = parse_program(
      "shape grid:6x6\nreps 3\nrun 5\ncrash half\nrun 10\n");
  const auto r = run_program(p);
  EXPECT_EQ(r.runs.size(), 3u);
  EXPECT_EQ(r.reliability_ci().n, 3u);
  const auto homogeneity = r.series("homogeneity");
  ASSERT_EQ(homogeneity.rounds(), 15u);
  EXPECT_EQ(homogeneity.row(0).n, 3u);
}

TEST(ProgramRun, RepsEqualSingleRunsAtConsecutiveSeeds) {
  // Repetition i is run_program_once at seed base+i, whatever the worker
  // pool's schedule.
  const auto p = parse_program(
      "shape grid:10x10\nseed 5\nreps 4\nrun 10\ncrash half\nrun 20\n");
  const auto r = run_program(p);
  ASSERT_EQ(r.runs.size(), 4u);
  const auto shape = poly::shape::make_shape(p.shape_spec);
  for (std::size_t i = 0; i < 4; ++i) {
    auto options = p.options;
    options.config.seed = 5 + i;
    const auto once = poly::scenario::run_program_once(*shape, p, options);
    const auto& rep = r.runs[i];
    ASSERT_EQ(rep.rounds.size(), once.rounds.size()) << "rep " << i;
    for (std::size_t j = 0; j < once.rounds.size(); ++j)
      expect_same(rep.rounds[j], once.rounds[j]);
    EXPECT_EQ(std::isnan(rep.reshaping_rounds),
              std::isnan(once.reshaping_rounds));
    if (!std::isnan(once.reshaping_rounds)) {
      EXPECT_EQ(rep.reshaping_rounds, once.reshaping_rounds);
    }
    EXPECT_EQ(rep.reliability, once.reliability) << "rep " << i;
  }
}

TEST(ProgramRun, ReshapingTimeNamesTheFirstRoundBelowH) {
  const auto p = parse_program(
      "shape grid:16x8\nseed 11\nrun 10\ncrash half\nrun 20\n");
  const auto r = run_program(p).first();
  ASSERT_FALSE(std::isnan(r.reshaping_rounds));
  EXPECT_GE(r.reshaping_rounds, 1.0);
  EXPECT_LE(r.reshaping_rounds, 20.0);
  // The crash round counts as round 1 of the repair: round id 10 + t - 1
  // is the first measured below the post-crash reference H.
  const auto named = static_cast<std::size_t>(10 + r.reshaping_rounds - 1);
  EXPECT_LT(r.rounds[named]["homogeneity"], r.reference_h_after_crash);
  for (std::size_t i = 10; i < named; ++i)
    EXPECT_GE(r.rounds[i]["homogeneity"], r.reference_h_after_crash);
}

TEST(ProgramRun, NoCrashMeansFullReliabilityAndNoReshaping) {
  const auto p = parse_program("shape grid:8x8\nrun 5\n");
  const auto r = run_program(p).first();
  EXPECT_EQ(r.rounds.size(), 5u);
  EXPECT_EQ(r.crashed, 0u);
  EXPECT_DOUBLE_EQ(r.reliability, 1.0);
  EXPECT_TRUE(std::isnan(r.reshaping_rounds));
  EXPECT_TRUE(std::isnan(r.reference_h_after_crash));
}

TEST(ProgramRun, ReinjectionClosesTheReshapingWindow) {
  // Bare T-Man never repairs the crashed half (paper Fig. 6a); the fresh
  // nodes of `grow crashed` pull homogeneity under the survivors' H, which
  // must not count as reshaping.
  const auto r = run_program(parse_program(
      "shape grid:16x8\nreps 2\npolystyrene off\nrun 10\ncrash half\n"
      "run 20\ngrow crashed\nrun 20\n"));
  EXPECT_EQ(r.never_reshaped(), 2u);
  EXPECT_EQ(r.reshaping_ci().n, 0u);
}

TEST(ProgramRun, ThreePhaseTimelineIsPinnedBitForBit) {
  // The paper's converge / crash / repair / re-inject timeline at test
  // scale, on both substrates.  The T-Man constants were captured from the
  // three-phase harness this runner replaced (run_three_phase,
  // run_experiment) before it was deleted: they prove the port changed no
  // simulated number.  The Vicinity constants were re-pinned once when
  // gossip-buffer selection (tman::pick_closest) took a strict order:
  // Vicinity's RPS slice repeats view entries at the same distance with
  // other ages, and such a tie now resolves view-first by rule, where the
  // old nth_element-and-sort left it to the algorithm.
  struct Pin {
    double homogeneity, proximity, msg_paper, reshaping, reliability;
  };
  struct Substrate {
    const char* name;
    Pin pins[2];
  };
  const Substrate substrates[] = {
      {"tman",
       {{0.0546875, 0.98980809752054832, 125.984375, 4, 0.9765625},
        {0.061159586912079608, 0.9833087785330229, 125.90625, 4,
         0.953125}}},
      {"vicinity",
       {{0.068024271728019906, 0.99475713766074281, 125.9765625, 3,
         0.9765625},
        {0.050111043456039804, 0.98595026479394687, 125.71875, 3,
         0.953125}}},
  };
  for (const auto& sub : substrates) {
    const auto r = run_program(parse_program(
        std::string("shape grid:16x8\nseed 11\nreps 2\nsubstrate ") +
        sub.name + "\nrun 10\ncrash half\nrun 20\ngrow crashed\nrun 20\n"));
    ASSERT_EQ(r.runs.size(), 2u) << sub.name;
    for (std::size_t i = 0; i < 2; ++i) {
      const auto& run = r.runs[i];
      const Pin& pin = sub.pins[i];
      ASSERT_EQ(run.rounds.size(), 50u) << sub.name;
      const auto& last = run.rounds.back();
      SCOPED_TRACE(std::string(sub.name) + " rep " + std::to_string(i));
      EXPECT_EQ(last["homogeneity"], pin.homogeneity);
      EXPECT_EQ(last["proximity"], pin.proximity);
      EXPECT_EQ(last["msg_paper"], pin.msg_paper);
      EXPECT_EQ(run.reshaping_rounds, pin.reshaping)
          << sub.name << " rep " << i;
      EXPECT_EQ(run.reliability, pin.reliability) << sub.name << " rep " << i;
    }
  }
}

TEST(ProgramRun, SyncMeasuresReliabilityEveryRound) {
  // Like the fleet engines, sync measures reliability each round, so the
  // last row agrees with the run's end-of-run scalar.
  const auto r = run_program(parse_program(
                                 "shape grid:8x8\nseed 3\nrun 5\ncrash half\n"
                                 "run 5\n"))
                     .first();
  ASSERT_EQ(r.rounds.size(), 10u);
  EXPECT_EQ(r.rounds.front()["reliability"], 1.0);
  EXPECT_EQ(r.rounds.back()["reliability"], r.reliability);
}

TEST(ProgramRun, MorphTargetIsCheckedAgainstTheShapeThatRuns) {
  // Callers override the parsed shape (poly_scenario --shape); the morph
  // target must fit the torus that actually runs, not the file's.
  auto p = parse_program("shape grid:8x8\nrun 1\nmorph shape grid:8x8 2\n",
                         "morph.poly");
  const auto expect_run_error = [&](int line, const std::string& needle) {
    try {
      run_program(p);
      FAIL() << "expected ProgramError on " << p.shape_spec;
    } catch (const ProgramError& e) {
      EXPECT_EQ(e.line(), line) << e.what();
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  p.shape_spec = "grid:4x4";
  expect_run_error(3, "does not fit");
  p.shape_spec = "ring:64";
  expect_run_error(0, "needs a grid:WxH base shape");
}

TEST(ProgramRun, FleetEnginesRejectSyncOnlyConfig) {
  const auto shape = poly::shape::make_shape("grid:8x8");
  ScenarioOptions options;
  options.engine = EngineMode::kEvents;
  options.config.seed = 3;
  options.config.poly.replication = 2;
  options.config.poly.split_kind = poly::core::SplitKind::kBasic;
  EXPECT_NO_THROW(make_cluster(*shape, options));  // the knobs it reads
  options.config.tman.msg_size = 5;
  EXPECT_THROW(make_cluster(*shape, options), std::invalid_argument);
}

TEST(ProgramRun, InvalidForEngineThrowsBeforeRunning) {
  auto p = parse_program("shape grid:6x6\nmorph drift 1 0 5\n");
  p.options.engine = EngineMode::kEvents;
  EXPECT_THROW(run_program(p), ProgramError);
}

// ---- fault verbs and expects ------------------------------------------------

TEST(FaultProgram, FaultVerbsAndExpectsRoundTrip) {
  const std::string text =
      "name chaos\n"
      "shape grid:8x8\n"
      "engine events\n"
      "run 10\n"
      "partition zone 0 0 4 8 heal 12\n"
      "degrade zone 0 0 4 8 in drop 0.25 jitter 1.5 heal 0\n"
      "corrupt 0.05 heal 8\n"
      "duplicate 0.1 heal 0\n"
      "reorder 0.2 jitter 3 heal 4\n"
      "stall zone 0 0 4 8 6\n"
      "stall frac 0.5 3\n"
      "crash frac 0.25\n"
      "recover all\n"
      "recover frac 0.5\n"
      "recover ids 1,2,3\n"
      "run 10\n"
      "expect frames_blackholed > 100 @ 15\n"
      "expect recoveries >= 1 @ end\n";
  const auto p = parse_program(text, "chaos.poly");
  ASSERT_EQ(p.expects.size(), 2u);
  EXPECT_EQ(p.expects[0].metric, "frames_blackholed");
  EXPECT_EQ(p.expects[0].round, 15u);
  EXPECT_FALSE(p.expects[0].at_end);
  EXPECT_TRUE(p.expects[1].at_end);
  // Only run stages execute rounds; fault `rounds` are heal/stall spans.
  EXPECT_EQ(p.total_rounds(), 20u);

  const auto canon = serialize(p);
  const auto p2 = parse_program(canon, "chaos2.poly");
  EXPECT_EQ(serialize(p2), canon);
  ASSERT_EQ(p2.timeline.size(), p.timeline.size());
  for (std::size_t i = 0; i < p.timeline.size(); ++i) {
    EXPECT_EQ(p2.timeline[i].verb, p.timeline[i].verb) << "stage " << i;
    EXPECT_EQ(p2.timeline[i].rounds, p.timeline[i].rounds) << "stage " << i;
    EXPECT_DOUBLE_EQ(p2.timeline[i].frac, p.timeline[i].frac)
        << "stage " << i;
    EXPECT_DOUBLE_EQ(p2.timeline[i].drop, p.timeline[i].drop)
        << "stage " << i;
    EXPECT_DOUBLE_EQ(p2.timeline[i].jitter_ms, p.timeline[i].jitter_ms)
        << "stage " << i;
    EXPECT_EQ(p2.timeline[i].dir, p.timeline[i].dir) << "stage " << i;
  }
  ASSERT_EQ(p2.expects.size(), 2u);
  EXPECT_EQ(p2.expects[0].op, p.expects[0].op);
  EXPECT_DOUBLE_EQ(p2.expects[0].value, p.expects[0].value);
}

TEST(FaultProgram, Diagnostics) {
  const std::string hdr = "shape grid:8x8\nengine events\n";
  expect_parse_error(hdr + "partition zone 4 0 0 8 heal 5\n", 3,
                     "empty partition zone");
  expect_parse_error(hdr + "degrade zone 0 0 4 8 up drop 0.1 jitter 1 heal 0\n",
                     3, "unknown degrade direction");
  expect_parse_error(hdr + "degrade zone 0 0 4 8 in drop 1.5 jitter 1 heal 0\n",
                     3, "out of [0, 1)");
  expect_parse_error(hdr + "corrupt 0 heal 5\n", 3, "out of (0, 1]");
  expect_parse_error(hdr + "reorder 0.5 jitter 0 heal 5\n", 3,
                     "must be > 0 ms");
  expect_parse_error(hdr + "stall frac 2 5\n", 3, "out of (0, 1]");
  expect_parse_error(hdr + "recover sideways\n", 3,
                     "unknown recover selector");
  expect_parse_error(hdr + "expect bogus > 1 @ end\n", 3,
                     "unknown expect metric");
  expect_parse_error(hdr + "expect alive >< 1 @ end\n", 3,
                     "unknown expect comparison");
  expect_parse_error(hdr + "run 5\nexpect alive > 1 @ 9\n", 4,
                     "only runs 5 rounds");
}

TEST(FaultProgram, ValidationRules) {
  // Fault verbs need the fleet: events or live.
  {
    auto p = parse_program(
        "shape grid:6x6\nengine events\nrun 2\ncorrupt 0.1 heal 0\n");
    EXPECT_NO_THROW(validate_for_mode(p, EngineMode::kEvents));
    EXPECT_NO_THROW(validate_for_mode(p, EngineMode::kLive));
    EXPECT_THROW(validate_for_mode(p, EngineMode::kSync), ProgramError);
  }
  // Expects run under every engine (live replays events' trajectory)…
  {
    auto p = parse_program(
        "shape grid:6x6\nrun 2\nexpect alive > 1 @ end\n");
    EXPECT_NO_THROW(validate_for_mode(p, EngineMode::kSync));
    EXPECT_NO_THROW(validate_for_mode(p, EngineMode::kLive));
  }
  // …per metric: frame counters need the fleet, points/node needs sync.
  {
    auto p = parse_program(
        "shape grid:6x6\nrun 2\nexpect frames_rejected == 0 @ end\n");
    EXPECT_THROW(validate_for_mode(p, EngineMode::kSync), ProgramError);
    EXPECT_NO_THROW(validate_for_mode(p, EngineMode::kEvents));
    EXPECT_NO_THROW(validate_for_mode(p, EngineMode::kLive));
  }
  {
    auto p = parse_program(
        "shape grid:6x6\nrun 2\nexpect points_per_node > 0 @ end\n");
    EXPECT_NO_THROW(validate_for_mode(p, EngineMode::kSync));
    EXPECT_THROW(validate_for_mode(p, EngineMode::kEvents), ProgramError);
  }
}

TEST(FaultProgram, PassingExpectsRunClean) {
  const auto p = parse_program(
      "shape grid:6x6\nengine events\nseed 3\nrun 4\n"
      "expect alive == 36 @ 2\nexpect frames > 0 @ end\n"
      "expect frames_rejected == 0 @ end\n");
  EXPECT_NO_THROW(run_program(p));
}

TEST(FaultProgram, FailingExpectAbortsWithFileAndLine) {
  const auto p = parse_program(
      "shape grid:6x6\nengine events\nseed 3\nrun 4\n"
      "expect alive == 1 @ end\n",
      "failing.poly");
  try {
    run_program(p);
    FAIL() << "expected ProgramError";
  } catch (const ProgramError& e) {
    EXPECT_EQ(e.file(), "failing.poly");
    EXPECT_EQ(e.line(), 5);
    EXPECT_NE(std::string(e.what()).find("expect failed: alive = 36"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultProgram, FailingExpectOnWorkerRepDoesNotTerminate) {
  // reps > 1 runs repetitions on a thread pool; a failing expect there
  // must surface as the same ProgramError, not std::terminate.
  const auto p = parse_program(
      "shape grid:6x6\nengine events\nseed 3\nreps 3\nrun 4\n"
      "expect alive == 1 @ 2\n");
  EXPECT_THROW(run_program(p), ProgramError);
}

TEST(FaultProgram, ChaosScenarioRunsDeterministically) {
  const auto p = parse_program(
      "shape grid:6x6\nengine events\nseed 3\nrun 4\n"
      "partition zone 0 0 3 6 heal 4\ncorrupt 0.2 heal 6\n"
      "stall frac 0.25 2\nrun 8\ncrash frac 0.2\nrun 2\nrecover all\n"
      "run 6\n");
  const auto a = run_program(p).first();
  const auto b = run_program(p).first();
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i)
    expect_same(a.rounds[i], b.rounds[i]);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_GT(a.rounds.back()["frames_blackholed"], 0.0);
  EXPECT_GT(a.rounds.back()["stall_rounds"], 0.0);
  EXPECT_EQ(a.recovered, a.crashed);
}

// ---- traffic verbs ----------------------------------------------------------

TEST(TrafficProgram, ParseAndSerializeRoundTrip) {
  const std::string text =
      "name served\n"
      "shape grid:8x8\n"
      "engine events\n"
      "run 5\n"
      "traffic 500 get\n"
      "run 5\n"
      "traffic 250 put\n"
      "run 5\n"
      "traffic 125 mixed\n"
      "drain\n"
      "expect requests > 0 @ end\n"
      "expect success_rate >= 0.5 @ end\n";
  const auto p = parse_program(text, "served.poly");

  ASSERT_EQ(p.timeline.size(), 7u);
  EXPECT_STREQ(p.timeline[1].verb->grammar,
               "traffic <rate> get|put|mixed");
  EXPECT_EQ(p.timeline[1].count, 500u);
  EXPECT_EQ(p.timeline[1].mix, Mix::kGet);
  EXPECT_EQ(p.timeline[3].mix, Mix::kPut);
  EXPECT_EQ(p.timeline[5].mix, Mix::kMixed);
  EXPECT_STREQ(p.timeline[6].verb->grammar, "drain");
  // traffic/drain execute no scheduled rounds themselves (drain's rounds
  // are demand-driven); only the runs count.
  EXPECT_EQ(p.total_rounds(), 15u);
  ASSERT_EQ(p.expects.size(), 2u);
  EXPECT_EQ(p.expects[0].metric, "requests");
  EXPECT_EQ(p.expects[1].metric, "success_rate");

  const auto canon = serialize(p);
  const auto p2 = parse_program(canon, "served2.poly");
  EXPECT_EQ(serialize(p2), canon);
  ASSERT_EQ(p2.timeline.size(), p.timeline.size());
  for (std::size_t i = 0; i < p.timeline.size(); ++i) {
    EXPECT_EQ(p2.timeline[i].verb, p.timeline[i].verb) << "stage " << i;
    EXPECT_EQ(p2.timeline[i].count, p.timeline[i].count) << "stage " << i;
    EXPECT_EQ(p2.timeline[i].mix, p.timeline[i].mix) << "stage " << i;
  }
}

TEST(TrafficProgram, Diagnostics) {
  const std::string hdr = "shape grid:8x8\nengine events\n";
  expect_parse_error(hdr + "traffic 500 burst\n", 3, "unknown traffic mix");
  expect_parse_error(hdr + "traffic lots mixed\n", 3, "bad traffic rate");
  expect_parse_error(hdr + "traffic 500\n", 3, "wants <rate> get|put|mixed");
  expect_parse_error(hdr + "drain now\n", 3, "wants no arguments");
}

TEST(TrafficProgram, TrafficVerbsNeedAFleetEngine) {
  auto p = parse_program(
      "shape grid:6x6\nengine events\nrun 2\ntraffic 100 mixed\n"
      "run 2\ndrain\n");
  EXPECT_NO_THROW(validate_for_mode(p, EngineMode::kEvents));
  EXPECT_NO_THROW(validate_for_mode(p, EngineMode::kLive));
  EXPECT_THROW(validate_for_mode(p, EngineMode::kSync), ProgramError);
}

TEST(TrafficProgram, TrafficMetricsAreFleetOnly) {
  for (const char* metric :
       {"requests", "requests_failed", "success_rate", "p50_latency_ms",
        "p99_latency_ms", "p999_latency_ms", "mean_hops"}) {
    auto p = parse_program("shape grid:6x6\nrun 2\nexpect " +
                           std::string(metric) + " >= 0 @ end\n");
    EXPECT_THROW(validate_for_mode(p, EngineMode::kSync), ProgramError)
        << metric;
    EXPECT_NO_THROW(validate_for_mode(p, EngineMode::kEvents)) << metric;
    EXPECT_NO_THROW(validate_for_mode(p, EngineMode::kLive)) << metric;
  }
}

TEST(TrafficProgram, EndToEndServesAndDrains) {
  // A small fleet serves a few rounds of load through a crash; the run
  // must complete requests, drain to zero in flight, and pass its own
  // SLO expects.
  const auto p = parse_program(
      "shape grid:8x8\nengine events\nseed 5\nrun 10\n"
      "traffic 50 mixed\nrun 20\ncrash frac 0.25\nrun 20\ndrain\n"
      "expect requests > 500 @ end\n"
      "expect success_rate >= 0.8 @ end\n"
      "expect mean_hops < 16 @ end\n");
  const auto r = run_program(p);
  ASSERT_FALSE(r.first().rounds.empty());
  const auto& last = r.first().rounds.back();
  EXPECT_GT(last["requests"], 500.0);
  EXPECT_EQ(last["requests_inflight"], 0.0);
  EXPECT_GE(last["success_rate"], 0.8);
  EXPECT_GT(last["p50_latency_ms"], 0.0);
  EXPECT_GE(last["p999_latency_ms"], last["p99_latency_ms"]);
  EXPECT_GE(last["p99_latency_ms"], last["p50_latency_ms"]);
}

TEST(TrafficProgram, SameSeedSameTraffic) {
  const auto p = parse_program(
      "shape grid:8x8\nengine events\nseed 9\nrun 5\n"
      "traffic 40 mixed\nrun 15\ncrash frac 0.25\nrun 10\ndrain\n");
  const auto a = run_program(p).first();
  const auto b = run_program(p).first();
  // Rounds measured before the traffic verb read the traffic metrics as
  // not produced (NaN); bit-equality (NaN matches NaN) is the contract.
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i)
    expect_same(a.rounds[i], b.rounds[i]);
  EXPECT_TRUE(std::isnan(a.rounds.front()["requests"]));
  EXPECT_GT(a.rounds.back()["requests"], 0.0);
}

// ---- the metric table -------------------------------------------------------

constexpr EngineMode kModes[] = {EngineMode::kSync, EngineMode::kEvents,
                                 EngineMode::kLive};

/// The traffic scenario's smoke cut, as `poly_scenario --smoke --shape
/// grid:16x16` runs it: a fleet through traffic, crash, recovery and drain.
ScenarioProgram traffic_smoke() {
  auto p = load_program(std::string(POLY_SCENARIO_DIR) +
                        "/traffic_through_catastrophe.poly");
  p.shape_spec = "grid:16x16";
  p.reps = 1;
  for (auto& s : p.timeline)
    if (s.verb->timed) s.rounds = std::min<std::size_t>(s.rounds, 10);
  p.expects.clear();
  return p;
}

/// "round", then the name of every row `mode` measures, in table order.
std::vector<std::string> measured_columns(EngineMode mode) {
  std::vector<std::string> names{"round"};
  for (const Metric& row : metric_table())
    if (row.measures(mode)) names.emplace_back(row.name);
  return names;
}

TEST(MetricTable, SeriesAndJsonCarryExactlyTheMeasuredRows) {
  const std::string path = ::testing::TempDir() + "BENCH_metric_table.json";
  const ScenarioProgram programs[] = {
      parse_program("shape grid:8x8\nrun 3\ncrash half\nrun 2\n"),
      traffic_smoke()};
  for (const auto& p : programs) {
    SCOPED_TRACE(to_string(p.options.engine));
    const auto table = poly::scenario::series_table_for(run_program(p));
    const auto want = measured_columns(p.options.engine);
    EXPECT_EQ(table.headers(), want);

    ASSERT_TRUE(poly::bench::write_bench_json(table, {}, "table", path));
    std::ifstream f(path);
    std::stringstream text;
    text << f.rdbuf();
    const std::string json = text.str();
    const auto open = json.find("\"headers\": [");
    ASSERT_NE(open, std::string::npos);
    const auto close = json.find(']', open);
    std::vector<std::string> headers;
    std::istringstream list(json.substr(open + 12, close - open - 12));
    for (std::string cell; std::getline(list, cell, ',');) {
      const auto q0 = cell.find('"');
      headers.push_back(cell.substr(q0 + 1, cell.rfind('"') - q0 - 1));
    }
    EXPECT_EQ(headers, want);
  }
  std::filesystem::remove(path);
}

TEST(MetricTable, ExpectOnAnUnmeasuredRowFailsBeforeRoundOne) {
  for (const Metric& row : metric_table()) {
    for (const EngineMode mode : kModes) {
      SCOPED_TRACE(std::string(row.name) + " under " + to_string(mode));
      // A thousand live rounds would take 25 s of wall time: the check
      // must come before the first of them.
      auto p = parse_program("shape grid:4x4\nrun 1000\nexpect " +
                                 std::string(row.name) + " >= 0 @ end\n",
                             "unmeasured.poly");
      p.options.engine = mode;
      if (row.measures(mode)) {
        EXPECT_NO_THROW(validate_for_mode(p, mode));
        continue;
      }
      try {
        run_program(p);
        ADD_FAILURE() << "expected ProgramError";
      } catch (const ProgramError& e) {
        EXPECT_EQ(e.line(), 3);
        EXPECT_NE(std::string(e.what()).find("needs engine"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(MetricTable, NamesReadTheEnginesOwnAccessors) {
  const auto shape = poly::shape::make_shape("grid:8x8");
  {
    auto rt = make_cluster(*shape, ScenarioOptions{});
    for (int r = 0; r < 6; ++r) rt->run_round();
    rt->crash_random(20);
    rt->run_round();
    const Measurement m = measure(*rt, *shape);
    const poly::scenario::Simulation& sim = *rt->sim();
    const std::size_t last = sim.network().round() - 1;
    const std::pair<const char*, double> want[] = {
        {"alive", static_cast<double>(sim.network().num_alive())},
        {"homogeneity", sim.homogeneity()},
        {"reference_h", sim.reference_homogeneity()},
        {"proximity", sim.proximity()},
        {"reliability", sim.reliability()},
        {"points_per_node", sim.avg_points_per_node()},
        {"msg_paper", sim.message_cost_per_node(last)},
        {"msg_tman", sim.network().traffic().per_node(
                         last, poly::sim::Channel::kTman)},
        {"msg_rps", sim.network().traffic().per_node(
                        last, poly::sim::Channel::kRps)},
    };
    EXPECT_EQ(m.round, last);
    for (const auto& [name, value] : want) EXPECT_EQ(m[name], value) << name;
    EXPECT_EQ(m["alive"], 44.0);
  }
  ScenarioOptions options;
  options.engine = EngineMode::kEvents;
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  {
    // Corruption runs without traffic here: a corrupted view entry can
    // name a node id the fleet does not have, and the traffic plane's
    // routing does not bounds-check the ids it hops to.
    auto rt = make_cluster(*shape, options);
    rt->fleet()->corrupt_frames(0.05, 6);
    for (int r = 0; r < 6; ++r) rt->run_round();
    const Measurement m = measure(*rt, *shape);
    const auto& fleet = *rt->fleet();
    EXPECT_EQ(m["frames_corrupted"],
              count(fleet.fault_counters().frames_corrupted));
    EXPECT_EQ(m["frames_rejected"], count(fleet.frames_rejected()));
    EXPECT_GT(m["frames_rejected"], 0.0);
  }
  auto rt = make_cluster(*shape, options);
  poly::engine::EventCluster& fleet = *rt->fleet();
  for (int r = 0; r < 5; ++r) rt->run_round();
  EXPECT_TRUE(std::isnan(measure(*rt, *shape)["requests"]));
  fleet.start_traffic({.rate_per_round = 30, .mix = Mix::kMixed});
  fleet.partition_region(
      [](const poly::space::Point& p) { return p.x() < 2.0; }, 4);
  fleet.duplicate_frames(0.05, 6);
  fleet.reorder_frames(0.05, std::chrono::milliseconds(3), 6);
  fleet.stall_random(4, 2);
  for (int r = 0; r < 4; ++r) rt->run_round();
  rt->crash_random(8);
  for (int r = 0; r < 3; ++r) rt->run_round();
  fleet.recover_random(4);
  for (int r = 0; r < 3; ++r) rt->run_round();

  const Measurement m = measure(*rt, *shape);
  const auto& faults = fleet.fault_counters();
  const auto& t = fleet.traffic_plane()->totals();
  const std::pair<const char*, double> want[] = {
      {"alive", count(fleet.alive_count())},
      {"homogeneity", fleet.homogeneity()},
      {"reference_h", shape->reference_homogeneity(fleet.alive_count())},
      {"proximity", fleet.proximity()},
      {"reliability", fleet.reliability()},
      {"frames", count(fleet.hub().frames_sent())},
      {"frames_blackholed", count(faults.frames_blackholed)},
      {"frames_duplicated", count(faults.frames_duplicated)},
      {"frames_reordered", count(faults.frames_reordered)},
      {"stall_rounds", count(faults.stall_rounds)},
      {"recoveries", count(faults.recoveries)},
      {"requests", count(t.completed)},
      {"requests_get", count(t.gets)},
      {"requests_put", count(t.puts)},
      {"requests_failed", count(t.failed)},
      {"requests_inflight", count(fleet.traffic_inflight())},
      {"success_rate", count(t.completed) / count(t.completed + t.failed)},
      {"p50_latency_ms", t.latency.quantile_ms(0.5)},
      {"p99_latency_ms", t.latency.quantile_ms(0.99)},
      {"p999_latency_ms", t.latency.quantile_ms(0.999)},
      {"mean_hops", count(t.hops_total) / count(t.completed)},
  };
  EXPECT_EQ(m.round, 14u);
  for (const auto& [name, value] : want) {
    EXPECT_EQ(m[name], value) << name;
    EXPECT_GT(value, 0.0) << name << " should be exercised";
  }
  EXPECT_EQ(m["requests_get"] + m["requests_put"], m["requests"]);
  // Rows the fleet does not measure read as not produced.
  EXPECT_TRUE(std::isnan(m["points_per_node"]));
  EXPECT_TRUE(std::isnan(m["msg_paper"]));
  EXPECT_THROW(m["no_such_metric"], std::invalid_argument);
}

TEST(MetricTable, RepsTableAggregatesEveryColumn) {
  auto p = traffic_smoke();
  p.reps = 2;
  const auto table = poly::scenario::series_table_for(run_program(p));
  ASSERT_EQ(table.headers(), measured_columns(EngineMode::kEvents));
  ASSERT_GE(table.rows(), 3u);
  const auto& rows = table.data();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 1; c < rows[r].size(); ++c) {
      const std::string& cell = rows[r][c];
      const bool traffic_before_verb =
          r == 0 && find_metric(table.headers()[c])->traffic != nullptr;
      // Traffic before the first `traffic` verb is not produced in any
      // repetition; every other cell is mean ± ci95 across them.
      const std::string want = traffic_before_verb ? "-" : " ± ";
      EXPECT_NE(cell.find(want), std::string::npos)
          << table.headers()[c] << " row " << r << ": " << cell;
    }
  }
}

TEST(MetricTable, RepsAggregateByRoundNotRowIndex) {
  // After `drain`, repetitions end at different rounds (here 41, 41 and
  // 40).  Each table row is one round, and each cell aggregates exactly
  // the repetitions that measured that round.
  auto p = load_program(std::string(POLY_SCENARIO_DIR) +
                        "/traffic_gray_links.poly");
  ASSERT_EQ(p.reps, 3u);
  p.expects.clear();
  const auto result = run_program(p);
  std::set<std::size_t> all, last;
  for (const auto& run : result.runs) {
    for (const Measurement& m : run.rounds) all.insert(m.round);
    last.insert(run.rounds.back().round);
  }
  ASSERT_GT(last.size(), 1u) << "the repetitions all ended at one round";
  const std::vector<std::size_t> rounds(all.begin(), all.end());
  EXPECT_EQ(result.measured_rounds(), rounds);

  const auto table = poly::scenario::series_table_for(result);
  ASSERT_EQ(table.rows(), rounds.size());
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const auto& row = table.data()[r];
    EXPECT_EQ(row[0], std::to_string(rounds[r]));
    for (std::size_t c = 1; c < row.size(); ++c) {
      const Metric& metric = *find_metric(table.headers()[c]);
      std::vector<double> values;
      for (const auto& run : result.runs)
        for (const Measurement& m : run.rounds)
          if (m.round == rounds[r]) values.push_back(m[metric]);
      ASSERT_FALSE(values.empty());
      EXPECT_EQ(row[c], metric.cell(poly::util::mean_ci(values)))
          << metric.name << " at round " << rounds[r];
    }
  }
}

TEST(MetricTable, ScenariosDocListsExactlyTheTable) {
  // docs/SCENARIOS.md promises its metric table mirrors the code one for
  // one: every row's name and engines, in table order.
  std::ifstream doc(std::string(POLY_SCENARIO_DIR) + "/../docs/SCENARIOS.md");
  ASSERT_TRUE(doc.good());
  std::vector<std::string> listed;
  bool inside = false;
  for (std::string line; std::getline(doc, line);) {
    if (line.starts_with("| metric | engines")) {
      inside = true;
      continue;
    }
    if (!inside || line.starts_with("|---")) continue;
    if (!line.starts_with("| `")) break;
    const auto name_end = line.find('`', 3);
    const auto cell_end = line.find('|', name_end);
    const auto engines_end = line.find('|', cell_end + 1);
    std::string engines = line.substr(cell_end + 1, engines_end - cell_end - 1);
    engines.erase(0, engines.find_first_not_of(' '));
    engines.erase(engines.find_last_not_of(' ') + 1);
    listed.push_back(line.substr(3, name_end - 3) + " " + engines);
  }
  std::vector<std::string> want;
  for (const Metric& row : metric_table())
    want.push_back(std::string(row.name) + " " +
                   (row.measures(EngineMode::kSync) ? "S" : "") +
                   (row.measures(EngineMode::kSync) &&
                            row.measures(EngineMode::kEvents)
                        ? " "
                        : "") +
                   (row.measures(EngineMode::kEvents) ? "E L" : ""));
  EXPECT_EQ(listed, want);
}

}  // namespace
