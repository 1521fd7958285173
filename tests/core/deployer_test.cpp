// Deployer tests: atomic redeploys under traffic (design decision 4 in
// DESIGN.md — no packet observes a missing program across configuration
// churn), chain-index management in tail-call mode, and withdrawal.
#include "core/deployer.h"

#include <gtest/gtest.h>

#include "core/controller.h"
#include "tests/kernel/test_topo.h"
#include "util/rng.h"

namespace linuxfp::core {
namespace {

using linuxfp::testing::RouterDut;

TEST(Deployer, RedeployUnderTrafficNeverAborts) {
  RouterDut dut;
  dut.add_prefixes(4);
  Controller controller(dut.kernel);
  controller.start();

  util::Rng rng(99);
  int rules = 0;
  for (int step = 0; step < 300; ++step) {
    // Interleave traffic with config churn that forces redeploys.
    kern::CycleTrace t;
    auto summary = dut.kernel.rx(dut.eth0_ifindex(),
                                 dut.packet_to_prefix(step % 4), t);
    ASSERT_NE(summary.drop, kern::Drop::kMalformed);
    switch (rng.next_below(4)) {
      case 0:
        dut.run("iptables -A FORWARD -s 10.77." + std::to_string(rules++) +
                ".0/24 -j DROP");
        break;
      case 1:
        if (rules > 0) {
          dut.run("iptables -D FORWARD 1");
          --rules;
        }
        break;
      case 2:
        dut.run("ip route add 10.210." + std::to_string(rng.next_below(100)) +
                ".0/24 via 10.10.2.2 dev eth1");
        break;
      default:
        controller.run_once();
        break;
    }
  }
  controller.run_once();

  // Every attachment processed traffic with zero aborted programs.
  auto* att = controller.deployer().attachment("eth0", ebpf::HookType::kXdp);
  ASSERT_NE(att, nullptr);
  EXPECT_EQ(att->stats().aborted, 0u);
  EXPECT_GT(att->stats().runs, 0u);
}

TEST(Deployer, TailCallChainIndicesNeverCollide) {
  RouterDut dut;
  dut.add_prefixes(2);
  dut.run("iptables -A FORWARD -s 10.77.0.0/24 -j DROP");
  ControllerOptions opts;
  opts.chain = ChainMode::kTailCalls;
  Controller controller(dut.kernel, opts);
  controller.start();

  // Force several resyntheses; each deploy takes fresh prog-array slots, so
  // packets in flight during the swap still find their chain.
  for (int i = 1; i <= 5; ++i) {
    dut.run("iptables -A FORWARD -s 10.78." + std::to_string(i) +
            ".0/24 -j DROP");
    controller.run_once();
    kern::CycleTrace t;
    auto summary =
        dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(0), t);
    ASSERT_TRUE(summary.fast_path) << "redeploy " << i;
    ASSERT_EQ(dut.tx_eth1.size(), static_cast<std::size_t>(i));
  }
  auto* att = controller.deployer().attachment("eth0", ebpf::HookType::kXdp);
  EXPECT_EQ(att->stats().aborted, 0u);
  EXPECT_GT(controller.deployer().next_chain_index("eth0",
                                                   ebpf::HookType::kXdp),
            10u);
}

TEST(Deployer, WithdrawalInstallsPassProgram) {
  RouterDut dut;
  dut.add_prefixes(2);
  Controller controller(dut.kernel);
  controller.start();
  auto* att = controller.deployer().attachment("eth0", ebpf::HookType::kXdp);
  ASSERT_NE(att, nullptr);

  dut.run("sysctl -w net.ipv4.ip_forward=0");
  controller.run_once();

  // Attachment persists but swaps to PASS; Linux handles (and drops,
  // forwarding now being off).
  kern::CycleTrace t;
  auto summary =
      dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(0), t);
  EXPECT_FALSE(summary.fast_path);
  EXPECT_EQ(summary.drop, kern::Drop::kNotForUs);

  // Re-enable: acceleration returns through the same attachment.
  dut.run("sysctl -w net.ipv4.ip_forward=1");
  controller.run_once();
  kern::CycleTrace t2;
  auto back = dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(0), t2);
  EXPECT_TRUE(back.fast_path);
  EXPECT_EQ(controller.deployer().attachment("eth0", ebpf::HookType::kXdp),
            att);
}

// Programs of `att` that still hold code (a released program keeps its id
// and name, but no instructions).
std::size_t programs_with_code(const ebpf::Attachment& att) {
  std::size_t n = 0;
  for (const ebpf::Program& p : att.programs()) n += !p.insns.empty();
  return n;
}

// Every deploy releases the object its swap replaced: 1,000 route add/del
// pairs redeploy the router 2,000 times, yet eth0 keeps code only for the
// dispatcher, the active FPM and at most the PASS program, and it still
// forwards on the fast path.
TEST(Deployer, ReplacedProgramsAreReleased) {
  RouterDut dut;
  dut.add_prefixes(2);
  Controller controller(dut.kernel);
  controller.start();
  auto* att = controller.deployer().attachment("eth0", ebpf::HookType::kXdp);
  ASSERT_NE(att, nullptr);
  for (int i = 0; i < 1000; ++i) {
    dut.run("ip route add 10.210.0.0/24 via 10.10.2.2 dev eth1");
    controller.run_once();
    dut.run("ip route del 10.210.0.0/24");
    controller.run_once();
  }
  EXPECT_GT(att->programs().size(), 2000u);  // ids never move
  EXPECT_LE(programs_with_code(*att), 3u);
  kern::CycleTrace t;
  auto summary =
      dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(0), t);
  EXPECT_TRUE(summary.fast_path);
  EXPECT_EQ(dut.tx_eth1.size(), 1u);
  EXPECT_EQ(att->stats().aborted, 0u);
}

// In tail-call mode a release also erases the replaced chain's prog-array
// entries: the dispatcher's prog array holds only the active object (its
// entry at index 0 and its chain), and the chain still runs.
TEST(Deployer, ReleasedChainsLeaveTheProgArray) {
  RouterDut dut;
  dut.add_prefixes(2);
  dut.run("iptables -A FORWARD -s 10.77.0.0/24 -j DROP");
  ControllerOptions opts;
  opts.chain = ChainMode::kTailCalls;
  Controller controller(dut.kernel, opts);
  controller.start();
  auto* att = controller.deployer().attachment("eth0", ebpf::HookType::kXdp);
  ASSERT_NE(att, nullptr);
  for (int i = 1; i <= 20; ++i) {
    dut.run("iptables -A FORWARD -s 10.78." + std::to_string(i) +
            ".0/24 -j DROP");
    controller.run_once();
  }
  const std::size_t active = programs_with_code(*att) - 1;  // no dispatcher
  EXPECT_GT(active, 1u);  // a chain
  EXPECT_EQ(att->maps().get(0)->size(), active);
  kern::CycleTrace t;
  auto summary =
      dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(0), t);
  EXPECT_TRUE(summary.fast_path);
  EXPECT_EQ(dut.tx_eth1.size(), 1u);
  EXPECT_EQ(att->stats().aborted, 0u);
}

TEST(Deployer, ReportAccountsProgramsAndInsns) {
  RouterDut dut;
  dut.add_prefixes(2);
  Controller controller(dut.kernel);
  auto reaction = controller.start();
  EXPECT_EQ(reaction.graphs, 2u);     // eth0 + eth1
  EXPECT_EQ(reaction.programs, 2u);   // one inline program per device
  EXPECT_GT(reaction.insns, 100u);
  EXPECT_EQ(controller.deployer().attachment_count(), 2u);
}

}  // namespace
}  // namespace linuxfp::core
