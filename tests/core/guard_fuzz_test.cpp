// Guard differential fuzz: a guarded, accelerated DUT against a pure-Linux
// twin under random firewall policies and random traffic, with faults
// injected at the guard's own seams (forced divergence, breaker trips racing
// redeploys). The contract is stronger than detection: at every instant —
// before, during and after a quarantine — the guarded DUT's emitted packet
// stream is byte-identical to the twin's, because shadow execution serves
// via the slow path and quarantine degrades to exactly the slow path (with
// the flow cache epoch-flushed). Divergence handling must never itself
// diverge.
#include <gtest/gtest.h>

#include "core/controller.h"
#include "core/guard.h"
#include "tests/kernel/test_topo.h"
#include "util/fault.h"
#include "util/rng.h"

namespace linuxfp::core {
namespace {

using linuxfp::testing::RouterDut;

std::string random_rule(util::Rng& rng) {
  std::string rule = "iptables -A FORWARD";
  if (rng.next_below(4) == 0) rule += " !";
  rule += " -d 10." + std::to_string(100 + rng.next_below(10)) + "." +
          std::to_string(rng.next_below(2)) + ".0/24";
  if (rng.next_below(2) == 0) {
    rule += rng.next_below(2) == 0 ? " -p udp" : " -p tcp";
  }
  rule += rng.next_below(3) == 0 ? " -j ACCEPT" : " -j DROP";
  return rule;
}

struct GuardedTwins {
  RouterDut fast, slow;
  std::unique_ptr<Controller> controller;
  GuardUnit* unit = nullptr;
  util::Rng rng;
  std::uint64_t sent = 0;

  explicit GuardedTwins(std::uint64_t seed) : rng(seed * 16127 + 3) {
    fast.add_prefixes(20);
    slow.add_prefixes(20);
    int n_rules = 1 + static_cast<int>(rng.next_below(8));
    for (int i = 0; i < n_rules; ++i) {
      std::string rule = random_rule(rng);
      auto s1 = kern::run_command(fast.kernel, rule);
      auto s2 = kern::run_command(slow.kernel, rule);
      EXPECT_EQ(s1.ok(), s2.ok()) << rule;
    }
    ControllerOptions opts;
    opts.flow_cache = true;  // quarantine must epoch-flush cached verdicts
    opts.guard.enabled = true;
    opts.guard.canary_packets = 4;
    opts.guard.sample_every = 2;
    opts.guard.half_open_packets = 4;
    opts.guard.reprobe_base_ns = 1'000'000;
    opts.guard.reprobe_jitter = 0.0;
    controller = std::make_unique<Controller>(fast.kernel, opts);
    controller->start();
    unit = controller->guard()->unit("eth0", ebpf::HookType::kXdp);
  }

  // One random packet into both twins; asserts the emitted streams stay
  // byte-identical.
  void step() {
    int prefix = static_cast<int>(rng.next_below(20));
    auto flow = static_cast<std::uint16_t>(rng.next_below(32));
    kern::CycleTrace tf, ts;
    fast.kernel.rx(fast.eth0_ifindex(), fast.packet_to_prefix(prefix, flow),
                   tf);
    slow.kernel.rx(slow.eth0_ifindex(), slow.packet_to_prefix(prefix, flow),
                   ts);
    ++sent;
    ASSERT_EQ(fast.tx_eth1.size(), slow.tx_eth1.size()) << "packet " << sent;
    if (!fast.tx_eth1.empty()) {
      const net::Packet& a = fast.tx_eth1.back();
      const net::Packet& b = slow.tx_eth1.back();
      ASSERT_EQ(a.size(), b.size()) << "packet " << sent;
      ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size()))
          << "packet " << sent;
    }
  }

  void check_drop_parity() {
    auto drop_of = [](const kern::Kernel& k, kern::Drop r) {
      auto it = k.counters().drops.find(r);
      return it == k.counters().drops.end() ? 0ull : it->second;
    };
    std::uint64_t fast_policy = drop_of(fast.kernel, kern::Drop::kPolicy) +
                                drop_of(fast.kernel, kern::Drop::kXdpDrop);
    EXPECT_EQ(fast_policy, drop_of(slow.kernel, kern::Drop::kPolicy));
    for (kern::Drop r : {kern::Drop::kNoRoute, kern::Drop::kTtlExceeded,
                         kern::Drop::kMalformed}) {
      EXPECT_EQ(drop_of(fast.kernel, r), drop_of(slow.kernel, r))
          << kern::drop_name(r);
    }
  }
};

TEST(GuardFuzz, ForcedDivergenceQuarantinesWithoutEverDiverging) {
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    util::FaultScope faults(seed);
    GuardedTwins t(seed);
    ASSERT_NE(t.unit, nullptr);

    // Phase 1: canary + promotion under random policy. Equivalence holds
    // packet-for-packet while the guard is still shadow-comparing.
    for (int i = 0; i < 60 && !::testing::Test::HasFatalFailure(); ++i) {
      t.step();
    }
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_EQ(t.unit->mode(), GuardMode::kActive) << "seed " << seed;

    // Phase 2: a synthesis bug ships — the nth sampled shadow expectation is
    // corrupted. The guarded DUT must keep emitting the twin's exact stream
    // (the diverging packet is served by the slow path) while the breaker
    // trips.
    // fail_times counts from rule installation (fail_nth counts from arming,
    // and phase 1's shadow runs already hit this point).
    faults->fail_times(util::kFaultGuardVerdict, 1);
    int spins = 0;
    while (t.unit->mode() != GuardMode::kQuarantined && spins++ < 300) {
      t.step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    ASSERT_EQ(t.unit->mode(), GuardMode::kQuarantined) << "seed " << seed;
    faults->clear(util::kFaultGuardVerdict);
    EXPECT_GE(t.unit->stats().divergences, 1u);

    // Quarantine completion: PASS fallback active, flow epoch bumped.
    ebpf::Attachment* att =
        t.controller->deployer().attachment("eth0", ebpf::HookType::kXdp);
    ASSERT_NE(att, nullptr);
    std::uint64_t epoch_before = att->flow_epoch();
    t.controller->run_once();
    EXPECT_GT(att->flow_epoch(), epoch_before) << "seed " << seed;
    EXPECT_EQ(att->programs()[att->active_prog_id()].name, "lfp_pass");
    EXPECT_TRUE(t.controller->health().degraded);

    // Phase 3: quarantined = exactly the slow path. Zero post-quarantine
    // divergence, zero fast-path verdicts, byte-identical streams, coherent
    // drop accounting.
    const std::uint64_t div_at_quarantine = t.unit->stats().divergences;
    const std::uint64_t fast_pkts =
        t.fast.kernel.counters().fast_path_packets;
    for (int i = 0; i < 100; ++i) {
      t.step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(t.unit->stats().divergences, div_at_quarantine)
        << "seed " << seed;
    EXPECT_EQ(t.fast.kernel.counters().fast_path_packets, fast_pkts)
        << "seed " << seed;
    t.check_drop_parity();

    // Phase 4: re-probe, half-open, clean close — and the fast path resumes
    // without breaking equivalence.
    std::uint64_t reprobe = t.controller->guard()->next_reprobe_ns();
    ASSERT_NE(reprobe, 0u);
    t.fast.kernel.set_now_ns(
        std::max(reprobe, t.fast.kernel.now_ns() + 1));
    t.controller->run_once();
    ASSERT_EQ(t.unit->mode(), GuardMode::kHalfOpen) << "seed " << seed;
    spins = 0;
    while (t.unit->mode() != GuardMode::kActive && spins++ < 300) {
      t.step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    ASSERT_EQ(t.unit->mode(), GuardMode::kActive) << "seed " << seed;
    t.fast.kernel.set_now_ns(t.fast.kernel.now_ns() + 1);
    t.controller->run_once();
    EXPECT_FALSE(t.controller->health().degraded) << "seed " << seed;
    for (int i = 0; i < 50; ++i) {
      t.step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GT(t.fast.kernel.counters().fast_path_packets, fast_pkts)
        << "seed " << seed;
    t.check_drop_parity();
  }
}

TEST(GuardFuzz, BreakerTripRacingRedeployStaysEquivalent) {
  for (std::uint64_t seed : {21ull, 22ull}) {
    util::FaultScope faults(seed);
    GuardedTwins t(seed);
    ASSERT_NE(t.unit, nullptr);
    for (int i = 0; i < 30; ++i) {
      t.step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    ASSERT_EQ(t.unit->mode(), GuardMode::kActive);

    // The breaker trips (forced) in the same reaction that deploys a config
    // change on both twins: the freshly deployed program must come up in
    // half-open probing — never trusted-active — and the streams stay equal.
    faults->fail_times(util::kFaultGuardBreaker, 1);
    std::string rule = random_rule(t.rng);
    EXPECT_EQ(kern::run_command(t.fast.kernel, rule).ok(),
              kern::run_command(t.slow.kernel, rule).ok());
    t.controller->run_once();
    EXPECT_EQ(t.unit->trip_reason(), TripReason::kForced);
    EXPECT_TRUE(t.unit->mode() == GuardMode::kQuarantined ||
                t.unit->mode() == GuardMode::kHalfOpen);
    EXPECT_TRUE(t.controller->health().degraded);

    for (int i = 0; i < 60; ++i) {
      t.step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Recover fully (quarantined -> reprobe; half-open -> close).
    if (t.unit->mode() == GuardMode::kQuarantined) {
      std::uint64_t reprobe = t.controller->guard()->next_reprobe_ns();
      ASSERT_NE(reprobe, 0u);
      t.fast.kernel.set_now_ns(std::max(reprobe, t.fast.kernel.now_ns() + 1));
      t.controller->run_once();
      ASSERT_EQ(t.unit->mode(), GuardMode::kHalfOpen);
    }
    int spins = 0;
    while (t.unit->mode() != GuardMode::kActive && spins++ < 300) {
      t.step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(t.unit->mode(), GuardMode::kActive) << "seed " << seed;
    t.fast.kernel.set_now_ns(t.fast.kernel.now_ns() + 1);
    t.controller->run_once();
    EXPECT_FALSE(t.controller->health().degraded) << "seed " << seed;
    t.check_drop_parity();
  }
}

}  // namespace
}  // namespace linuxfp::core
