// Tests of the benchmark's own measurement helpers (helpers.h).
#include "helpers.h"

#include <gtest/gtest.h>

#include <numeric>

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankOnSortedSamples) {
  const std::vector<double> v = one_to(100);
  EXPECT_EQ(percentile_sorted(v, 0.50), 50.0);
  EXPECT_EQ(percentile_sorted(v, 0.99), 99.0);
  EXPECT_EQ(percentile_sorted(v, 1.00), 100.0);
  EXPECT_EQ(percentile_sorted({7.0}, 0.5), 7.0);
  EXPECT_EQ(percentile_sorted({}, 0.5), 0.0);
}

TEST(Percentile, SamplesBeyondCountsStrictlyGreaterRanks) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(1000, 0.999), 1u);
  EXPECT_EQ(samples_beyond(20, 0.5), 10u);
  EXPECT_EQ(samples_beyond(5, 1.0), 0u);
}

TEST(Percentile, HighestSupportedNeedsTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(19), 0.0);  // not even the median
  EXPECT_EQ(highest_supported_percentile(20), 0.5);
  EXPECT_EQ(highest_supported_percentile(100), 0.9);
  EXPECT_EQ(highest_supported_percentile(999), 0.95);
  EXPECT_EQ(highest_supported_percentile(1000), 0.99);
  EXPECT_EQ(highest_supported_percentile(9999), 0.99);
  EXPECT_EQ(highest_supported_percentile(10000), 0.999);
  EXPECT_EQ(highest_supported_percentile(100000), 0.9999);
}

TEST(Percentile, SummaryReportsCountAndSupportedTail) {
  std::vector<double> v = one_to(1000);
  std::reverse(v.begin(), v.end());  // summarize sorts its own copy
  const TimingSummary s = summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.p99, 990.0);
  EXPECT_EQ(s.tail_q, 0.99);
  EXPECT_EQ(s.tail, 990.0);
  EXPECT_TRUE(s.p99_supported);
  EXPECT_FALSE(summarize(one_to(500)).p99_supported);
}

TEST(SampleWindow, KeepsTheLatestCapacitySamples) {
  SampleWindow w(3);
  EXPECT_TRUE(w.values().empty());
  w.add(1);
  w.add(2);
  EXPECT_EQ(w.values(), (std::vector<double>{1, 2}));
  w.add(3);
  w.add(4);
  EXPECT_EQ(w.seen(), 4u);
  EXPECT_EQ(w.values(), (std::vector<double>{2, 3, 4}));
}

TEST(SampleWindow, ValuesAreOldestFirstAfterWrapping) {
  SampleWindow w(3);
  for (double v : {1, 2, 3, 4, 5}) w.add(v);
  EXPECT_EQ(w.values(), (std::vector<double>{3, 4, 5}));
}

TEST(LeastContended, PoolsTheWindowsWithLowestMedians) {
  // Windows of 4: slow, fast, slow, fast, slow, fast, slow, fast.
  std::vector<double> v;
  for (int w = 0; w < 8; ++w) {
    for (int i = 0; i < 4; ++i) v.push_back(w % 2 ? 100 + i : 160 + i);
  }
  const TimingSummary s = least_contended(v, 4, 0.5);
  EXPECT_EQ(s.count, 16u);
  EXPECT_EQ(s.p50, 101.0);
  EXPECT_EQ(s.p99, 103.0);
  // keep=1 is the plain summary; a partial last window is dropped.
  v.push_back(1);
  EXPECT_EQ(least_contended(v, 4, 1.0).count, 32u);
  EXPECT_EQ(least_contended(v, 4, 1.0).p50, summarize({v.begin(), v.end() - 1}).p50);
  // Always at least one window.
  EXPECT_EQ(least_contended(v, 4, 0.01).count, 4u);
  EXPECT_EQ(least_contended({}, 4, 0.25).count, 0u);
  // A minimum pool rounds up to whole windows, fastest first, and stops at
  // the windows there are.
  EXPECT_EQ(least_contended(v, 4, 0.01, 6).count, 8u);
  EXPECT_EQ(least_contended(v, 4, 0.01, 6).p99, 103.0);
  EXPECT_EQ(least_contended(v, 4, 0.01, 1000).count, 32u);
  EXPECT_EQ(least_contended({}, 4, 0.25, 8).count, 0u);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Spans, NestingSetsParents) {
  SpanLog log;
  const int outer = log.begin("outer", 0);
  const int inner = log.begin("inner", 10);
  log.end(inner, 20);
  log.add("sibling", 30, 40);
  log.end(outer, 100);
  ASSERT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, outer);
  EXPECT_EQ(log.spans()[2].parent, outer);
}

TEST(Spans, SelfTimeSubtractsChildCoverage) {
  SpanLog log;
  const int root = log.begin("reaction", 0);
  log.add("poll", 10, 30);
  log.add("build", 40, 70);
  log.end(root, 100);
  const std::vector<std::int64_t> self = log.self_ns();
  EXPECT_EQ(self[0], 100 - 20 - 30);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
}

TEST(Spans, SelfTimeCountsOverlappingChildrenOnce) {
  // Children recorded after the fact may overlap or stick out of the parent.
  SpanLog log;
  const int root = log.begin("parent", 0);
  log.add("a", 10, 50);
  log.add("b", 40, 60);
  log.add("c", 90, 130);
  log.end(root, 100);
  // Covered: [10,60) and [90,100) = 60 of 100.
  EXPECT_EQ(log.self_ns()[0], 40);
}

TEST(Spans, SelfByNameAggregatesGrandchildrenOnlyOnce) {
  SpanLog log;
  const int root = log.begin("reaction", 0);
  const int deploy = log.begin("deploy", 10);
  log.add("verify", 20, 25);
  log.end(deploy, 50);
  log.end(root, 60);
  const auto by_name = log.self_by_name();
  EXPECT_EQ(by_name.at("reaction").second, 60 - 40);
  EXPECT_EQ(by_name.at("deploy").second, 40 - 5);
  EXPECT_EQ(by_name.at("verify").second, 5);
  EXPECT_EQ(by_name.at("verify").first, 1u);
}

TEST(Spans, ScopedSpanWithNullLogRecordsNothing) {
  { ScopedSpan s(nullptr, "untraced"); }
  SpanLog log;
  { ScopedSpan s(&log, "traced"); }
  EXPECT_EQ(log.spans().size(), 1u);
  EXPECT_EQ(in_span(nullptr, "x", [] { return 7; }), 7);
}

TEST(Tally, ErrorFracIsFailedOverAttempted) {
  Tally t;
  EXPECT_EQ(t.error_frac(), 0.0);
  t.record(true);
  t.record(false);
  t.add(8, 1);
  EXPECT_EQ(t.attempted(), 10u);
  EXPECT_EQ(t.failed(), 2u);
  EXPECT_DOUBLE_EQ(t.error_frac(), 0.2);
}

TEST(Tally, FailuresNeverExceedAttempts) {
  Tally t;
  t.add(4, 9);  // a count off by more than the operations it covers
  EXPECT_EQ(t.failed(), 4u);
  EXPECT_DOUBLE_EQ(t.error_frac(), 1.0);
  EXPECT_EQ(count_gap(3, 10), 7u);
  EXPECT_EQ(count_gap(10, 3), 7u);
}

}  // namespace
}  // namespace perfbench
