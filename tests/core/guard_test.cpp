// Equivalence-guard state machine suite (DESIGN.md §13): canary shadow mode
// serving via the slow path until promotion, sampled shadow execution after
// promotion, injected divergence tripping the breaker into quarantine, the
// half-open re-probe cycle closing it again, and the interactions with
// config churn and deploy failures mid-canary.
#include <gtest/gtest.h>

#include "core/controller.h"
#include "core/guard.h"
#include "core/status.h"
#include "engine/rss.h"
#include "tests/kernel/test_topo.h"
#include "util/fault.h"

namespace linuxfp::core {
namespace {

using linuxfp::testing::RouterDut;

ControllerOptions guarded_options(std::uint32_t canary,
                                  std::uint32_t sample_every,
                                  std::uint32_t half_open = 2) {
  ControllerOptions opts;
  opts.guard.enabled = true;
  opts.guard.canary_packets = canary;
  opts.guard.sample_every = sample_every;
  opts.guard.half_open_packets = half_open;
  opts.guard.reprobe_base_ns = 1'000'000;  // 1 ms, keeps tests brisk
  opts.guard.reprobe_jitter = 0.0;
  return opts;
}

// One forwarded packet through the DUT; asserts it reached eth1 and reports
// whether the fast path settled it.
bool forward_one(RouterDut& dut, int prefix, std::uint16_t flow) {
  std::size_t before = dut.tx_eth1.size();
  kern::CycleTrace t;
  auto summary =
      dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(prefix, flow), t);
  EXPECT_EQ(summary.drop, kern::Drop::kNone);
  EXPECT_EQ(dut.tx_eth1.size(), before + 1);
  return summary.fast_path;
}

TEST(Guard, CanaryServesSlowPathThenPromotes) {
  RouterDut dut;
  dut.add_prefixes(4);
  Controller controller(dut.kernel, guarded_options(8, 0));
  controller.start();

  GuardUnit* unit =
      controller.guard()->unit("eth0", ebpf::HookType::kXdp);
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->mode(), GuardMode::kShadow);

  // Every canary packet is served by the slow path (shadow verdicts are
  // computed on a copy and discarded) yet still forwarded correctly.
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(forward_one(dut, i % 4, static_cast<std::uint16_t>(i)));
  }
  EXPECT_EQ(unit->mode(), GuardMode::kActive);
  GuardUnitStats s = unit->stats();
  EXPECT_EQ(s.promotions, 1u);
  EXPECT_EQ(s.divergences, 0u);
  EXPECT_GE(s.compares, 8u);

  // Promoted with sampling disabled: the fast path serves everything.
  EXPECT_TRUE(forward_one(dut, 0, 99));

  const GuardTotals t = controller.guard()->totals();
  EXPECT_EQ(t.promotions, 1u);
  EXPECT_EQ(t.divergences, 0u);
  EXPECT_FALSE(controller.health().degraded);
}

TEST(Guard, SampledShadowKeepsComparingAfterPromotion) {
  RouterDut dut;
  dut.add_prefixes(4);
  Controller controller(dut.kernel, guarded_options(1, 2));
  controller.start();
  GuardUnit* unit = controller.guard()->unit("eth0", ebpf::HookType::kXdp);
  ASSERT_NE(unit, nullptr);

  forward_one(dut, 0, 0);  // canary length 1: first clean compare promotes
  ASSERT_EQ(unit->mode(), GuardMode::kActive);

  std::uint64_t fast = 0;
  for (int i = 0; i < 64; ++i) {
    if (forward_one(dut, i % 4, static_cast<std::uint16_t>(i))) ++fast;
  }
  GuardUnitStats s = unit->stats();
  // With K=2 roughly half the flows stay on the (compared) slow path and the
  // rest run the fast path untouched; both populations must be non-empty.
  EXPECT_GT(s.sampled, 0u);
  EXPECT_GT(fast, 0u);
  EXPECT_EQ(s.divergences, 0u);
  EXPECT_EQ(unit->mode(), GuardMode::kActive);
}

TEST(Guard, SamplerIsDeterministicAndUncorrelatedWithReta) {
  // ~1-in-K rate over a hash population, deterministic per hash.
  std::uint64_t sampled = 0;
  for (std::uint32_t h = 0; h < 100'000; ++h) {
    bool a = EquivalenceGuard::sampled_hash(h, 64);
    bool b = EquivalenceGuard::sampled_hash(h, 64);
    EXPECT_EQ(a, b);
    if (a) ++sampled;
  }
  EXPECT_GT(sampled, 1000u);  // 100k/64 ~ 1563
  EXPECT_LT(sampled, 2200u);
  // Not a function of the RETA index bits: hashes sharing low 7 bits must
  // not share the sampling decision.
  bool all_same = true;
  bool first = EquivalenceGuard::sampled_hash(5, 64);
  for (std::uint32_t i = 1; i < 64; ++i) {
    if (EquivalenceGuard::sampled_hash(5 + (i << 7), 64) != first) {
      all_same = false;
      break;
    }
  }
  EXPECT_FALSE(all_same);
}

TEST(Guard, InjectedDivergenceQuarantinesThenHalfOpenRecovers) {
  util::FaultScope faults(201);
  RouterDut dut;
  dut.add_prefixes(4);
  Controller controller(dut.kernel, guarded_options(2, 1));
  controller.start();
  GuardUnit* unit = controller.guard()->unit("eth0", ebpf::HookType::kXdp);
  ASSERT_NE(unit, nullptr);

  forward_one(dut, 0, 0);
  forward_one(dut, 1, 1);
  ASSERT_EQ(unit->mode(), GuardMode::kActive);

  ebpf::Attachment* att =
      controller.deployer().attachment("eth0", ebpf::HookType::kXdp);
  ASSERT_NE(att, nullptr);
  const std::uint64_t epoch_before = att->flow_epoch();

  // A synthesis bug ships: every recorded fast-path expectation is corrupted
  // (guard.verdict models the program misforwarding). sample_every=1 means
  // the very next packet is compared — and, crucially, it is still forwarded
  // correctly because shadow execution serves via the slow path.
  faults->fail_always(util::kFaultGuardVerdict);
  EXPECT_FALSE(forward_one(dut, 2, 2));
  EXPECT_EQ(unit->mode(), GuardMode::kQuarantined);
  EXPECT_EQ(unit->trip_reason(), TripReason::kDivergence);
  EXPECT_EQ(unit->stats().divergences, 1u);
  faults->clear(util::kFaultGuardVerdict);

  // The controller completes the quarantine: PASS fallback swapped in
  // (bumping the flow epoch so cached verdicts flush), health degraded with
  // a monotonic timestamp.
  controller.run_once();
  EXPECT_GT(att->flow_epoch(), epoch_before);
  EXPECT_EQ(att->programs()[att->active_prog_id()].name, "lfp_pass");
  HealthStatus h = controller.health();
  EXPECT_TRUE(h.degraded);
  EXPECT_EQ(controller.guard()->totals().quarantines, 1u);
  EXPECT_EQ(h.last_degraded_ns, dut.kernel.now_ns());
  EXPECT_GE(h.failures_by_code.at("guard.quarantine"), 1u);

  // Quarantined behaviour is the exact slow path: traffic keeps flowing,
  // nothing is compared, no further divergence is possible.
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(forward_one(dut, i % 4, static_cast<std::uint16_t>(i)));
  }
  EXPECT_EQ(unit->stats().divergences, 1u);
  EXPECT_GT(unit->stats().quarantine_passes, 0u);

  // Backoff elapses -> re-probe redeploy -> half-open shadow probing.
  std::uint64_t reprobe = controller.guard()->next_reprobe_ns();
  ASSERT_GT(reprobe, dut.kernel.now_ns());
  dut.kernel.set_now_ns(reprobe);
  controller.run_once();
  EXPECT_EQ(unit->mode(), GuardMode::kHalfOpen);
  EXPECT_EQ(unit->stats().half_open_probes, 1u);

  // Clean probes close the breaker; the controller clears degradation with
  // a recovery timestamp.
  EXPECT_FALSE(forward_one(dut, 0, 7));
  EXPECT_FALSE(forward_one(dut, 1, 8));
  EXPECT_EQ(unit->mode(), GuardMode::kActive);
  dut.kernel.set_now_ns(dut.kernel.now_ns() + 1'000'000);
  controller.run_once();
  h = controller.health();
  EXPECT_FALSE(h.degraded);
  EXPECT_EQ(controller.guard()->totals().closes, 1u);
  EXPECT_EQ(h.last_recovered_ns, dut.kernel.now_ns());
  EXPECT_GE(h.last_recovered_ns, h.last_degraded_ns);

  // Fully healed: the fast path serves again (sampled flows excepted).
  GuardUnitStats s = unit->stats();
  EXPECT_EQ(s.closes, 1u);
  EXPECT_EQ(s.quarantines, 1u);
}

TEST(Guard, ConfigChurnMidCanaryRestartsShadow) {
  RouterDut dut;
  dut.add_prefixes(4);
  Controller controller(dut.kernel, guarded_options(8, 0));
  controller.start();
  GuardUnit* unit = controller.guard()->unit("eth0", ebpf::HookType::kXdp);
  ASSERT_NE(unit, nullptr);

  for (int i = 0; i < 3; ++i) forward_one(dut, i % 4, 1);
  ASSERT_EQ(unit->mode(), GuardMode::kShadow);

  // Config churn mid-canary: the redeploy replaces the program under test,
  // so the canary restarts from zero — 3 old compares must not count.
  dut.add_prefixes(5);
  controller.run_once();
  EXPECT_EQ(unit->mode(), GuardMode::kShadow);
  for (int i = 0; i < 7; ++i) forward_one(dut, i % 4, 2);
  EXPECT_EQ(unit->mode(), GuardMode::kShadow);  // 7 < 8: not yet
  forward_one(dut, 0, 3);
  EXPECT_EQ(unit->mode(), GuardMode::kActive);

  // Churn after promotion demotes back to shadow (re-canary the new build).
  dut.add_prefixes(6);
  controller.run_once();
  EXPECT_EQ(unit->mode(), GuardMode::kShadow);
}

TEST(Guard, DeployFailureMidCanaryKeepsSlowPathAndRecanaries) {
  util::FaultScope faults(202);
  RouterDut dut;
  dut.add_prefixes(2);
  Controller controller(dut.kernel, guarded_options(4, 0));
  controller.start();
  GuardUnit* unit = controller.guard()->unit("eth0", ebpf::HookType::kXdp);
  ASSERT_NE(unit, nullptr);
  forward_one(dut, 0, 0);
  forward_one(dut, 1, 1);
  ASSERT_EQ(unit->mode(), GuardMode::kShadow);

  // Rollback mid-canary: the redeploy fails, the device degrades to PASS and
  // the half-finished canary is abandoned (the program it was judging is
  // gone). Traffic keeps flowing on the slow path throughout.
  faults->fail_always(util::kFaultLoaderLoad);
  dut.add_prefixes(3);
  auto reaction = controller.run_once();
  EXPECT_TRUE(reaction.deploy_failed);
  EXPECT_EQ(unit->mode(), GuardMode::kShadow);
  EXPECT_FALSE(forward_one(dut, 0, 2));
  HealthStatus h = controller.health();
  EXPECT_TRUE(h.degraded);
  EXPECT_EQ(h.last_degraded_ns, dut.kernel.now_ns());

  // Retry succeeds: a fresh canary runs to completion.
  faults->clear(util::kFaultLoaderLoad);
  ASSERT_NE(h.next_retry_ns, 0u);
  dut.kernel.set_now_ns(h.next_retry_ns);
  controller.run_once();
  EXPECT_EQ(unit->mode(), GuardMode::kShadow);
  for (int i = 0; i < 4; ++i) forward_one(dut, i % 2, 5);
  EXPECT_EQ(unit->mode(), GuardMode::kActive);
  EXPECT_FALSE(controller.health().degraded);
}

TEST(Guard, ForcedBreakerTripDuringRedeployQuarantinesAndRecovers) {
  util::FaultScope faults(203);
  RouterDut dut;
  dut.add_prefixes(2);
  Controller controller(dut.kernel, guarded_options(1, 0));
  controller.start();
  GuardUnit* unit = controller.guard()->unit("eth0", ebpf::HookType::kXdp);
  ASSERT_NE(unit, nullptr);
  forward_one(dut, 0, 0);
  ASSERT_EQ(unit->mode(), GuardMode::kActive);

  // guard.breaker fires during the same run_once that is also redeploying a
  // config change — the trip must win (the fresh program enters half-open
  // probing, not trusted-active).
  faults->fail_nth(util::kFaultGuardBreaker, 1);
  dut.add_prefixes(3);
  controller.run_once();
  // The breaker tripped eth0's unit (forced) and the quarantine completed in
  // the same maintenance pass; the subsequent redeploy of the changed config
  // re-entered it as half-open.
  EXPECT_EQ(unit->trip_reason(), TripReason::kForced);
  EXPECT_TRUE(unit->mode() == GuardMode::kQuarantined ||
              unit->mode() == GuardMode::kHalfOpen);
  EXPECT_TRUE(controller.health().degraded);
  EXPECT_EQ(controller.guard()->totals().quarantines, 1u);

  if (unit->mode() == GuardMode::kQuarantined) {
    std::uint64_t reprobe = controller.guard()->next_reprobe_ns();
    ASSERT_NE(reprobe, 0u);
    dut.kernel.set_now_ns(std::max(reprobe, dut.kernel.now_ns() + 1));
    controller.run_once();
    ASSERT_EQ(unit->mode(), GuardMode::kHalfOpen);
  }
  forward_one(dut, 0, 1);
  forward_one(dut, 1, 2);
  EXPECT_EQ(unit->mode(), GuardMode::kActive);
  dut.kernel.set_now_ns(dut.kernel.now_ns() + 1'000'000);
  controller.run_once();
  EXPECT_FALSE(controller.health().degraded);
  EXPECT_EQ(controller.guard()->totals().closes, 1u);
}

TEST(Guard, StatusReportsGuardSection) {
  RouterDut dut;
  dut.add_prefixes(2);
  Controller controller(dut.kernel, guarded_options(1, 4));
  controller.start();
  forward_one(dut, 0, 0);

  util::Json j = status_json(controller);
  ASSERT_TRUE(j.object_items().contains("guard"));
  const util::Json& g = j.at("guard");
  EXPECT_GE(g.at("units").size(), 2u);  // eth0 + eth1
  EXPECT_GE(g.at("compares").as_int(), 1);
  const util::Json& h = j.at("health");
  EXPECT_TRUE(h.object_items().contains("last_degraded_ns"));
  EXPECT_TRUE(h.object_items().contains("last_recovered_ns"));

  std::string prom = prometheus_status(controller);
  EXPECT_NE(prom.find("linuxfp_guard_compares"), std::string::npos);
  EXPECT_NE(prom.find("linuxfp_controller_last_degraded_ns"),
            std::string::npos);
}

}  // namespace
}  // namespace linuxfp::core
