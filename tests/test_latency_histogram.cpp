// Property tests for util::LatencyHistogram against exact percentiles.
//
// The histogram's contract (src/util/latency_histogram.hpp) is a provable
// quantile bound: quantile(q) lies in [exact, exact * (1 + 1/32)], where
// `exact` is the rank-ceil(q·count) order statistic of the recorded
// values.  These tests check that bound on randomized workloads — uniform
// and heavy-tailed (the distribution shape latency data actually has) —
// plus the algebra the traffic plane relies on: merge associativity and
// commutativity (per-shard histograms combine in any order), record/merge
// equivalence, and a bit-stable serialization (pinned by hash, so a
// layout or endianness regression fails loudly).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/latency_histogram.hpp"
#include "util/rng.hpp"

namespace {

using poly::util::LatencyHistogram;
using poly::util::Rng;

/// The reference implementation: rank-ceil(q·n) order statistic of the
/// sorted sample, exactly as the histogram header documents.
std::uint64_t exact_quantile(std::vector<std::uint64_t> values, double q) {
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  // Same ceil(q*n) arithmetic as LatencyHistogram::quantile, so the two
  // sides always ask for the same order statistic.
  auto rank = static_cast<std::uint64_t>(q * n);
  if (static_cast<double>(rank) < q * n) ++rank;
  if (rank < 1) rank = 1;
  if (rank > values.size()) rank = values.size();
  return values[rank - 1];
}

void expect_bound(const LatencyHistogram& h,
                  const std::vector<std::uint64_t>& values, double q) {
  const std::uint64_t exact = exact_quantile(values, q);
  const std::uint64_t est = h.quantile(q);
  EXPECT_GE(est, exact) << "q=" << q;
  const double bound = static_cast<double>(exact) *
                       (1.0 + LatencyHistogram::kMaxRelativeError);
  EXPECT_LE(static_cast<double>(est), bound + 1.0) << "q=" << q;
}

constexpr double kProbes[] = {0.01, 0.1, 0.25, 0.5,   0.75,
                              0.9,  0.99, 0.999, 1.0};

// ---- bucket geometry -------------------------------------------------------

TEST(LatencyHistogram, BucketEdgesAreConsistent) {
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    // Magnitude-uniform values: every octave gets exercised.
    const std::uint64_t v =
        rng.next_u64() >> rng.index(64);
    const std::size_t idx = LatencyHistogram::bucket_index(v);
    ASSERT_LT(idx, LatencyHistogram::kBuckets);
    const std::uint64_t edge = LatencyHistogram::bucket_upper_edge(idx);
    ASSERT_GE(edge, v);
    // The inclusive upper edge maps to its own bucket; the next value
    // starts the next bucket.
    ASSERT_EQ(LatencyHistogram::bucket_index(edge), idx);
    if (edge != ~0ull) {
      ASSERT_EQ(LatencyHistogram::bucket_index(edge + 1), idx + 1);
    }
    // The documented error: bucket width is at most lower_edge / 32.
    if (v >= LatencyHistogram::kSubBuckets) {
      const std::uint64_t lower =
          idx == 0 ? 0 : LatencyHistogram::bucket_upper_edge(idx - 1) + 1;
      ASSERT_LE(edge - lower + 1, lower / LatencyHistogram::kSubBuckets)
          << "bucket " << idx;
    }
  }
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  LatencyHistogram h;
  std::vector<std::uint64_t> values;
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.index(LatencyHistogram::kSubBuckets);
    h.record(v);
    values.push_back(v);
  }
  // Below kSubBuckets each integer has its own bucket — quantiles exact.
  for (double q : kProbes)
    EXPECT_EQ(h.quantile(q), exact_quantile(values, q)) << "q=" << q;
}

// ---- randomized quantile bound --------------------------------------------

TEST(LatencyHistogram, UniformWorkloadMeetsErrorBound) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    LatencyHistogram h;
    std::vector<std::uint64_t> values;
    Rng rng(seed);
    for (int i = 0; i < 20000; ++i) {
      // Uniform over a few ms in ns — the traffic plane's actual unit.
      const std::uint64_t v =
          static_cast<std::uint64_t>(rng.uniform_i64(0, 50'000'000));
      h.record(v);
      values.push_back(v);
    }
    ASSERT_EQ(h.count(), values.size());
    for (double q : kProbes) expect_bound(h, values, q);
    EXPECT_EQ(h.min(), *std::min_element(values.begin(), values.end()));
    EXPECT_EQ(h.max(), *std::max_element(values.begin(), values.end()));
  }
}

TEST(LatencyHistogram, HeavyTailWorkloadMeetsErrorBound) {
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    LatencyHistogram h;
    std::vector<std::uint64_t> values;
    Rng rng(seed);
    for (int i = 0; i < 20000; ++i) {
      // Pareto-ish: 1/u over u ∈ (0,1], scaled — many small values, a
      // tail spanning six orders of magnitude (the shape that defeats
      // linear-bucket histograms).
      const double u =
          (static_cast<double>(rng.next_u64() >> 11) + 1.0) / 9.0072e15;
      std::uint64_t v = static_cast<std::uint64_t>(1000.0 / u);
      h.record(v);
      values.push_back(v);
    }
    for (double q : kProbes) expect_bound(h, values, q);
  }
}

// ---- merge algebra ---------------------------------------------------------

TEST(LatencyHistogram, MergeEqualsConcatenatedRecording) {
  LatencyHistogram a, b, whole;
  Rng rng(21);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t v = rng.next_u64() >> rng.index(40);
    (i % 2 ? a : b).record(v);
    whole.record(v);
  }
  LatencyHistogram merged = a;
  merged.merge(b);
  EXPECT_TRUE(merged == whole);
  EXPECT_EQ(merged.serialize(), whole.serialize());
}

TEST(LatencyHistogram, MergeIsAssociativeAndCommutative) {
  LatencyHistogram shard[3];
  Rng rng(33);
  for (int i = 0; i < 6000; ++i)
    shard[rng.index(3)].record(rng.next_u64() >> rng.index(48));

  LatencyHistogram ab_c = shard[0];
  ab_c.merge(shard[1]);
  ab_c.merge(shard[2]);

  LatencyHistogram bc = shard[1];
  bc.merge(shard[2]);
  LatencyHistogram a_bc = shard[0];
  a_bc.merge(bc);

  LatencyHistogram cba = shard[2];
  cba.merge(shard[1]);
  cba.merge(shard[0]);

  EXPECT_TRUE(ab_c == a_bc);
  EXPECT_TRUE(ab_c == cba);
  EXPECT_EQ(ab_c.serialize(), cba.serialize());
}

TEST(LatencyHistogram, MergeWithEmptyIsIdentity) {
  LatencyHistogram h, empty;
  h.record(17);
  h.record(123456789);
  LatencyHistogram merged = h;
  merged.merge(empty);
  EXPECT_TRUE(merged == h);
  LatencyHistogram other = empty;
  other.merge(h);
  EXPECT_TRUE(other == h);
}

// ---- serialization ---------------------------------------------------------

TEST(LatencyHistogram, SerializeRoundTrips) {
  LatencyHistogram h;
  Rng rng(44);
  for (int i = 0; i < 3000; ++i) h.record(rng.next_u64() >> rng.index(30));
  const auto bytes = h.serialize();
  LatencyHistogram back;
  ASSERT_TRUE(back.deserialize(bytes));
  EXPECT_TRUE(back == h);
  EXPECT_EQ(back.serialize(), bytes);
  // Malformed input is rejected, not partially applied.
  auto truncated = bytes;
  truncated.pop_back();
  EXPECT_FALSE(back.deserialize(truncated));
  EXPECT_TRUE(back == h);
}

TEST(LatencyHistogram, SerializationIsBitStable) {
  // Golden pin: identical content must serialize identically on every
  // platform and in every future build.  FNV-1a over the bytes of a
  // fixed recording — if the layout, width, or endianness of the format
  // ever changes, update this constant in the same PR that documents the
  // format break.
  LatencyHistogram h;
  for (std::uint64_t v : {0ull, 1ull, 31ull, 32ull, 33ull, 1000ull,
                          1'000'000ull, 123'456'789ull, ~0ull})
    h.record(v);
  const auto bytes = h.serialize();
  EXPECT_EQ(bytes.size(), 8 * (4 + LatencyHistogram::kBuckets));
  std::uint64_t fnv = 1469598103934665603ull;
  for (std::uint8_t b : bytes) {
    fnv ^= b;
    fnv *= 1099511628211ull;
  }
  EXPECT_EQ(fnv, 16789331589671905307ull) << "serialized hash drifted";
}

TEST(LatencyHistogram, EmptyAndClearBehave) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.99), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  h.record(42);
  h.clear();
  LatencyHistogram fresh;
  EXPECT_TRUE(h == fresh);
}

}  // namespace
