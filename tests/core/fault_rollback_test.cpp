// Fault-injection rollback tests: every registered injection point in the
// deploy pipeline fires, and the contract under test is always the same —
// the datapath never loses its working program (traffic keeps flowing via
// the slow path), the controller reports degraded health with per-point
// failure counters, and a backoff retry recovers once the fault clears.
#include <gtest/gtest.h>

#include "core/controller.h"
#include "core/status.h"
#include "tests/kernel/test_topo.h"
#include "util/fault.h"

namespace linuxfp::core {
namespace {

using linuxfp::testing::RouterDut;

// Sends one packet to prefix 0 and asserts it was forwarded (on either
// path) — the "never leaves the datapath without a working program" check.
void expect_forwarded(RouterDut& dut, bool expect_fast) {
  std::size_t before = dut.tx_eth1.size();
  kern::CycleTrace t;
  auto summary = dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(0), t);
  EXPECT_EQ(summary.drop, kern::Drop::kNone);
  EXPECT_EQ(summary.fast_path, expect_fast);
  EXPECT_EQ(dut.tx_eth1.size(), before + 1);
}

// Advances simulated time to the controller's pending retry deadline and
// runs one reaction.
Reaction fire_retry(RouterDut& dut, Controller& controller) {
  HealthStatus h = controller.health();
  EXPECT_NE(h.next_retry_ns, 0u);
  dut.kernel.set_now_ns(h.next_retry_ns);
  return controller.run_once();
}

TEST(FaultRollback, LoaderLoadFaultDegradesThenRecovers) {
  util::FaultScope faults(101);
  RouterDut dut;
  dut.add_prefixes(2);
  Controller controller(dut.kernel);
  controller.start();
  expect_forwarded(dut, true);

  faults->fail_always(util::kFaultLoaderLoad);
  dut.add_prefixes(3);  // signature change -> redeploy attempt
  auto reaction = controller.run_once();
  EXPECT_TRUE(reaction.deploy_failed);
  // Both physical devices (eth0, eth1) fail their deploy.
  EXPECT_EQ(reaction.failed_devices, 2u);

  HealthStatus h = controller.health();
  EXPECT_TRUE(h.degraded);
  EXPECT_EQ(h.consecutive_failures, 1u);
  EXPECT_GE(h.deploy_failures, 1u);
  EXPECT_EQ(h.failures_by_code.at("fault.loader.load"), 2u);
  EXPECT_NE(h.next_retry_ns, 0u);
  // Degraded: the device is parked on the PASS fallback, traffic takes the
  // slow path but keeps flowing.
  expect_forwarded(dut, false);

  faults->clear(util::kFaultLoaderLoad);
  auto retry = fire_retry(dut, controller);
  EXPECT_FALSE(retry.deploy_failed);
  h = controller.health();
  EXPECT_FALSE(h.degraded);
  EXPECT_EQ(h.recoveries, 1u);
  EXPECT_EQ(h.consecutive_failures, 0u);
  EXPECT_EQ(h.next_retry_ns, 0u);
  expect_forwarded(dut, true);
}

TEST(FaultRollback, VerifierRejectionRollsBackToSlowPath) {
  util::FaultScope faults(102);
  RouterDut dut;
  dut.add_prefixes(2);
  Controller controller(dut.kernel);
  controller.start();
  expect_forwarded(dut, true);

  faults->fail_always(util::kFaultVerifier);
  dut.run("iptables -A FORWARD -d 10.100.0.0/24 -j DROP");
  auto reaction = controller.run_once();
  EXPECT_TRUE(reaction.deploy_failed);
  EXPECT_EQ(controller.health().failures_by_code.count("fault.verifier.verify"),
            1u);

  // The new rule must be enforced even while degraded: the slow path drops
  // the blocked prefix. Keeping the (stale, rule-less) old program would
  // have forwarded it — this is the coherence argument for degrade-to-PASS.
  std::size_t tx_before = dut.tx_eth1.size();
  kern::CycleTrace t;
  auto blocked =
      dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(0), t);
  EXPECT_EQ(blocked.drop, kern::Drop::kPolicy);
  EXPECT_FALSE(blocked.fast_path);
  EXPECT_EQ(dut.tx_eth1.size(), tx_before);

  faults->clear(util::kFaultVerifier);
  auto retry = fire_retry(dut, controller);
  EXPECT_FALSE(retry.deploy_failed);
  EXPECT_FALSE(controller.health().degraded);
  // Recovered fast path enforces the same drop (now as XDP_DROP).
  kern::CycleTrace t2;
  auto blocked2 =
      dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(0), t2);
  EXPECT_NE(blocked2.drop, kern::Drop::kNone);
  EXPECT_TRUE(blocked2.fast_path);
  EXPECT_EQ(dut.tx_eth1.size(), tx_before);
}

TEST(FaultRollback, AttachFaultOnFreshDeviceLeavesNativeSlowPath) {
  util::FaultScope faults(103);
  faults->fail_always(util::kFaultDeployerAttach);
  RouterDut dut;
  dut.add_prefixes(2);
  Controller controller(dut.kernel);
  auto reaction = controller.start();
  EXPECT_TRUE(reaction.deploy_failed);
  // No attachment was ever installed: the device runs plain Linux.
  EXPECT_EQ(controller.deployer().attachment_count(), 0u);
  expect_forwarded(dut, false);
  EXPECT_GE(controller.health()
                .failures_by_code.at("fault.deployer.attach"), 1u);

  faults->clear(util::kFaultDeployerAttach);
  auto retry = fire_retry(dut, controller);
  EXPECT_FALSE(retry.deploy_failed);
  EXPECT_EQ(controller.deployer().attachment_count(), 2u);
  expect_forwarded(dut, true);
}

TEST(FaultRollback, MapUpdateFaultFailsAtomicSwapAndRollsBack) {
  util::FaultScope faults(104);
  RouterDut dut;
  dut.add_prefixes(2);
  Controller controller(dut.kernel);
  controller.start();
  ebpf::Attachment* att =
      controller.deployer().attachment("eth0", ebpf::HookType::kXdp);
  ASSERT_NE(att, nullptr);
  std::size_t progs_before = att->programs().size();

  // The dispatcher entry swap is a prog-array update: failing maps.update
  // once makes the final (atomic) transaction step fail after the program
  // already loaded, forcing a full rollback.
  faults->fail_times(util::kFaultMapUpdate, 1);
  dut.add_prefixes(3);
  auto reaction = controller.run_once();
  EXPECT_TRUE(reaction.deploy_failed);
  HealthStatus h = controller.health();
  EXPECT_GE(h.device_rollbacks, 1u);
  EXPECT_EQ(h.failures_by_code.at("fault.maps.update"), 1u);
  // Rollback unloaded everything the failed transaction loaded (the PASS
  // fallback program may have been added once, but nothing leaks per retry).
  EXPECT_LE(att->programs().size(), progs_before + 1);
  expect_forwarded(dut, false);

  // fail_times(1) is exhausted: the scheduled retry succeeds on its own.
  auto retry = fire_retry(dut, controller);
  EXPECT_FALSE(retry.deploy_failed);
  EXPECT_EQ(controller.health().recoveries, 1u);
  expect_forwarded(dut, true);
}

TEST(FaultRollback, NetlinkDumpFaultKeepsStaleButCoherentView) {
  util::FaultScope faults(105);
  RouterDut dut;
  dut.add_prefixes(2);
  Controller controller(dut.kernel);
  // Change events carry their objects and never dump, so the fault bites
  // where dumps happen: the start-up sync and the re-sync of a stale table.
  faults->fail_always(util::kFaultNetlinkDump);
  controller.start();
  std::size_t routes_before = controller.view().routes.size();

  dut.add_prefixes(3);
  controller.run_once();
  HealthStatus h = controller.health();
  EXPECT_GE(h.introspection_errors, 1u);
  // The re-sync failed too, so the route table stays as it was: the queued
  // route events are not applied to a stale table (a torn half-refresh).
  EXPECT_EQ(controller.view().routes.size(), routes_before);
  // Coherence holds regardless: with no view there is no fast path yet, and
  // the slow path forwards.
  expect_forwarded(dut, false);

  faults->clear(util::kFaultNetlinkDump);
  dut.add_prefixes(4);
  controller.run_once();
  EXPECT_GT(controller.view().routes.size(), routes_before);
  expect_forwarded(dut, true);
}

TEST(FaultRollback, KernelCommandFaultReportsErrorWithoutMutatingState) {
  util::FaultScope faults(106);
  RouterDut dut;
  std::size_t routes = dut.kernel.fib().size();
  faults->fail_always(util::kFaultKernelCommand);
  auto st = kern::run_command(dut.kernel,
                              "ip route add 10.150.0.0/24 via 10.10.2.2 dev eth1");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "fault.kernel.command");
  EXPECT_EQ(dut.kernel.fib().size(), routes);
  faults->clear(util::kFaultKernelCommand);
  EXPECT_TRUE(kern::run_command(
                  dut.kernel,
                  "ip route add 10.150.0.0/24 via 10.10.2.2 dev eth1")
                  .ok());
}

TEST(FaultRollback, BackoffGrowsExponentiallyAndIsBounded) {
  util::FaultScope faults(107);
  RouterDut dut;
  dut.add_prefixes(2);
  Controller controller(dut.kernel);
  controller.start();

  faults->fail_always(util::kFaultLoaderLoad);
  dut.add_prefixes(3);
  controller.run_once();

  const BackoffPolicy policy;  // controller defaults
  std::vector<std::uint64_t> delays;
  for (int i = 0; i < 12; ++i) {
    HealthStatus h = controller.health();
    ASSERT_NE(h.next_retry_ns, 0u);
    delays.push_back(h.next_retry_ns - dut.kernel.now_ns());
    // Before the deadline nothing happens.
    dut.kernel.set_now_ns(h.next_retry_ns - 1);
    auto r = controller.run_once();
    EXPECT_FALSE(r.changed);
    auto retry = fire_retry(dut, controller);
    EXPECT_TRUE(retry.deploy_failed);
  }
  for (std::uint64_t d : delays) {
    EXPECT_LE(d, static_cast<std::uint64_t>(
                     static_cast<double>(policy.max_ns) * (1.0 + policy.jitter)));
    EXPECT_GE(d, static_cast<std::uint64_t>(
                     static_cast<double>(policy.base_ns) * (1.0 - policy.jitter)));
  }
  // Exponential growth dominates the jitter: by the 8th consecutive failure
  // the delay must have grown well past the first one.
  EXPECT_GT(delays[7], delays[0] * 8);
  // And it saturates at the cap.
  EXPECT_GE(delays.back(),
            static_cast<std::uint64_t>(
                static_cast<double>(policy.max_ns) * (1.0 - policy.jitter)));

  faults->clear(util::kFaultLoaderLoad);
  auto recovered = fire_retry(dut, controller);
  EXPECT_FALSE(recovered.deploy_failed);
  HealthStatus h = controller.health();
  EXPECT_FALSE(h.degraded);
  EXPECT_EQ(h.consecutive_failures, 0u);
  EXPECT_EQ(h.deploy_failures, 13u);
  expect_forwarded(dut, true);
}

TEST(FaultRollback, SeededScheduleReplaysIdentically) {
  auto run_scenario = [](std::uint64_t seed) {
    util::FaultScope faults(seed);
    ASSERT_TRUE(
        faults->install_schedule("loader.load:p=0.5;maps.update:p=0.3").ok());
    RouterDut dut;
    dut.add_prefixes(2);
    Controller controller(dut.kernel);
    controller.start();
    for (int i = 0; i < 6; ++i) {
      dut.add_prefixes(3 + i);
      controller.run_once();
      if (controller.health().next_retry_ns != 0) {
        dut.kernel.set_now_ns(controller.health().next_retry_ns);
        controller.run_once();
      }
    }
    HealthStatus h = controller.health();
    std::uint64_t fires = util::FaultInjector::global().fires("loader.load") +
                          util::FaultInjector::global().fires("maps.update");
    SCOPED_TRACE("seed " + std::to_string(seed));
    static std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
        first_run;
    auto it = first_run.find(seed);
    if (it == first_run.end()) {
      first_run[seed] = {h.deploy_failures, fires};
    } else {
      EXPECT_EQ(it->second.first, h.deploy_failures);
      EXPECT_EQ(it->second.second, fires);
    }
  };
  // Same seed twice -> bit-identical failure history; different seed -> the
  // schedule is actually seed-driven (not asserted equal).
  run_scenario(4242);
  run_scenario(4242);
  run_scenario(777);
}

TEST(FaultRollback, StatusReportExposesHealthAndFaultTable) {
  util::FaultScope faults(108);
  RouterDut dut;
  dut.add_prefixes(2);
  Controller controller(dut.kernel);
  controller.start();
  faults->fail_always(util::kFaultLoaderLoad);
  dut.add_prefixes(3);
  controller.run_once();

  util::Json status = status_json(controller);
  EXPECT_TRUE(status.at("health").at("degraded").as_bool());
  EXPECT_GE(status.at("health")
                .at("failures_by_code")
                .at("fault.loader.load")
                .as_int(),
            1);
  ASSERT_TRUE(status.contains("fault_injection"));
  bool saw_point = false;
  for (std::size_t i = 0; i < status.at("fault_injection").size(); ++i) {
    const util::Json& p = status.at("fault_injection").at(i);
    if (p.at("point").as_string() == "loader.load") {
      saw_point = true;
      EXPECT_GE(p.at("fires").as_int(), 1);
    }
  }
  EXPECT_TRUE(saw_point);
  std::string text = format_status(controller);
  EXPECT_NE(text.find("DEGRADED"), std::string::npos);
}

}  // namespace
}  // namespace linuxfp::core
