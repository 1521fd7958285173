// Regression test for util::bump, the locked add that control-plane folds
// use (MetricsRegistry::remove_source, Engine::reconcile, deploy counts):
// several threads may fold into one counter, so bump must be an atomic
// read-modify-write — with a plain add these tests lose increments and
// fail. Per-packet counts never take this path: each has one writer
// (util::owner_add, util::shard_add). Run under TSan by tools/ci.sh.
#include "util/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace linuxfp::util {
namespace {

TEST(MetricsConcurrency, EightThreadsLoseNoCounts) {
  MetricsRegistry reg;
  Counter* shared = reg.counter("engine.test.shared");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([shared] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) bump(shared);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(reg.value("engine.test.shared"), kThreads * kPerThread);
}

TEST(MetricsConcurrency, MixedNamesAndStrides) {
  // Concurrent bumps across several counters with varying strides: each
  // counter must end at exactly the sum of what was added to it.
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIters = 20000;
  std::vector<Counter*> counters;
  for (int c = 0; c < 4; ++c) {
    counters.push_back(reg.counter("mix." + std::to_string(c)));
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counters, t] {
      for (std::uint64_t i = 0; i < kIters; ++i) {
        bump(counters[(t + i) % counters.size()],
             1 + (i % 3));  // strides 1..3
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every thread contributes sum over i of (1 + i%3) split across the four
  // counters; the grand total is exact regardless of interleaving.
  std::uint64_t total = 0;
  for (Counter* c : counters) total += counter_value(c);
  std::uint64_t expect_per_thread = 0;
  for (std::uint64_t i = 0; i < kIters; ++i) expect_per_thread += 1 + (i % 3);
  EXPECT_EQ(total, kThreads * expect_per_thread);
}

}  // namespace
}  // namespace linuxfp::util
