// End-to-end classifier differential (DESIGN.md §17): twin gateway testbeds —
// identical except one compiles its rule tables into the tuple-space
// classifier — must produce identical verdicts and identical per-rule hit
// counters for every packet, while the compiled twin spends measurably fewer
// cycles. A second test is the generation-coherence regression: a
// flowcache-cached verdict must die the moment a rule mutation triggers a
// classifier rebuild mid-stream.
#include <gtest/gtest.h>

#include <string>

#include "core/controller.h"
#include "kernel/nf_classifier.h"
#include "sim/testbed.h"

namespace linuxfp::core {
namespace {

sim::ScenarioConfig gateway_config(bool classifier) {
  sim::ScenarioConfig cfg;
  cfg.filter_rules = 300;
  cfg.accel = sim::Accel::kLinuxFpXdp;
  cfg.rule_classifier = classifier;
  return cfg;
}

void compare_rule_hits(kern::Kernel& a, kern::Kernel& b, const char* where) {
  auto da = a.netfilter().dump();
  auto db = b.netfilter().dump();
  ASSERT_EQ(da.size(), db.size()) << where;
  for (std::size_t c = 0; c < da.size(); ++c) {
    ASSERT_EQ(da[c]->name, db[c]->name) << where;
    ASSERT_EQ(da[c]->rules.size(), db[c]->rules.size()) << where;
    for (std::size_t r = 0; r < da[c]->rules.size(); ++r) {
      EXPECT_EQ(da[c]->rules[r].hits, db[c]->rules[r].hits)
          << where << " chain " << da[c]->name << " rule " << r;
      EXPECT_EQ(da[c]->rules[r].hit_bytes, db[c]->rules[r].hit_bytes)
          << where << " chain " << da[c]->name << " rule " << r;
    }
  }
}

TEST(ClassifierDiff, GatewayVerdictsAndHitCountersIdentical) {
  sim::LinuxTestbed lin(gateway_config(false));
  sim::LinuxTestbed clf(gateway_config(true));
  ASSERT_TRUE(clf.kernel().netfilter().classifier_enabled());
  ASSERT_FALSE(lin.kernel().netfilter().classifier_enabled());

  std::uint64_t lin_cycles = 0;
  std::uint64_t clf_cycles = 0;
  for (int i = 0; i < 400; ++i) {
    sim::ProcessOutcome a, b;
    if (i % 3 == 2) {
      // Every third packet sources from a blacklisted address, walking the
      // whole rule window so deep rules accrue hits.
      int entry = (i / 3) % 300;
      a = lin.process(lin.blacklisted_packet(entry, 7));
      b = clf.process(clf.blacklisted_packet(entry, 7));
      EXPECT_TRUE(a.dropped_by_policy) << "pkt " << i;
    } else {
      a = lin.process(lin.forward_packet(i % 50, static_cast<std::uint16_t>(i % 16)));
      b = clf.process(clf.forward_packet(i % 50, static_cast<std::uint16_t>(i % 16)));
      EXPECT_TRUE(a.forwarded) << "pkt " << i;
    }
    ASSERT_EQ(a.forwarded, b.forwarded) << "pkt " << i;
    ASSERT_EQ(a.dropped_by_policy, b.dropped_by_policy) << "pkt " << i;
    ASSERT_EQ(a.fast_path, b.fast_path) << "pkt " << i;
    lin_cycles += a.cycles;
    clf_cycles += b.cycles;
  }
  compare_rule_hits(lin.kernel(), clf.kernel(), "gateway");
  // The compiled index stayed current throughout and actually paid off:
  // at 300 rules the scan is a large share of total per-packet cycles
  // (fib/redirect/driver stages bound the end-to-end win; the ruleset-scale
  // bench measures the >=10x regime at 10k rules).
  EXPECT_TRUE(clf.kernel().netfilter().classifier()->ready(
      clf.kernel().netfilter().generation()));
  EXPECT_LT(clf_cycles * 4, lin_cycles * 3);
}

TEST(ClassifierDiff, UserChainJumpsStayIdentical) {
  sim::ScenarioConfig base = gateway_config(false);
  base.filter_rules = 0;
  sim::ScenarioConfig compiled = base;
  compiled.rule_classifier = true;
  sim::LinuxTestbed lin(base);
  sim::LinuxTestbed clf(compiled);
  for (sim::LinuxTestbed* tb : {&lin, &clf}) {
    tb->run("iptables -N GUESTS");
    tb->run("iptables -A FORWARD -s 10.10.1.0/24 -j GUESTS");
    for (int i = 0; i < 40; ++i) {
      tb->run("iptables -A GUESTS -d 10." + std::to_string(100 + i) +
              ".0.0/24 -p udp --dport 9 -j DROP");
    }
    tb->run("iptables -A GUESTS -p udp --dport 7 -j ACCEPT");
    tb->run("iptables -A FORWARD -p udp -j DROP");
  }
  for (int i = 0; i < 200; ++i) {
    sim::ProcessOutcome a =
        lin.process(lin.forward_packet(i % 50, static_cast<std::uint16_t>(i)));
    sim::ProcessOutcome b =
        clf.process(clf.forward_packet(i % 50, static_cast<std::uint16_t>(i)));
    ASSERT_EQ(a.forwarded, b.forwarded) << "pkt " << i;
    ASSERT_EQ(a.dropped_by_policy, b.dropped_by_policy) << "pkt " << i;
    EXPECT_TRUE(a.forwarded) << "pkt " << i;  // dport 7 traffic is whitelisted
  }
  compare_rule_hits(lin.kernel(), clf.kernel(), "user-chains");
}

TEST(ClassifierDiff, CachedVerdictDiesAcrossClassifierRebuild) {
  // Flow cache + classifier together: a memoized ACCEPT verdict recorded
  // against the compiled index must be invalidated by the generation-vector
  // check when a rule mutation rebuilds the classifier mid-stream — the very
  // next packet of the cached flow must hit the new DROP rule.
  sim::ScenarioConfig cfg = gateway_config(true);
  cfg.filter_rules = 50;
  cfg.flow_cache = true;
  sim::LinuxTestbed tb(cfg);

  // Stream one flow until its verdict is demonstrably served from the cache.
  for (int i = 0; i < 32; ++i) {
    sim::ProcessOutcome out = tb.process(tb.forward_packet(3, 11));
    ASSERT_TRUE(out.forwarded) << "warmup pkt " << i;
  }
  engine::FlowCacheStats warm = tb.controller()->deployer().flow_cache_stats();
  ASSERT_GT(warm.hits, 0u);

  // Head-insert a DROP matching the cached flow's source: insert_rule takes
  // the chain-rebuild path in the classifier, and the netfilter generation
  // bump must ripple through the flowcache generation vector.
  std::uint64_t gen_before = tb.kernel().netfilter().generation();
  tb.run("iptables -I FORWARD 1 -s 10.10.1.2 -j DROP");
  EXPECT_GT(tb.kernel().netfilter().generation(), gen_before);
  ASSERT_TRUE(tb.kernel().netfilter().classifier()->ready(
      tb.kernel().netfilter().generation()));

  sim::ProcessOutcome out = tb.process(tb.forward_packet(3, 11));
  EXPECT_FALSE(out.forwarded);
  EXPECT_TRUE(out.dropped_by_policy);
  engine::FlowCacheStats after = tb.controller()->deployer().flow_cache_stats();
  EXPECT_GT(after.invalidations + after.replay_mismatch, warm.invalidations +
                                                             warm.replay_mismatch);
}

}  // namespace
}  // namespace linuxfp::core
