// Deployer tests: atomic redeploys under traffic (design decision 4 in
// DESIGN.md — no packet observes a missing program across configuration
// churn), chain-index management in tail-call mode, and withdrawal.
#include "core/deployer.h"

#include <gtest/gtest.h>

#include "core/controller.h"
#include "net/headers.h"
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

// A route's worth of FORWARD churn in tail-call mode: every rule event
// redeploys eth0 and eth1 with a fresh chain. The chain index wraps around
// the dispatcher's 256-entry prog array instead of running off its end, so
// the fast path survives every redeploy.
TEST(Deployer, TailCallChainsKeepTheFastPathUnderChurn) {
  RouterDut dut;
  dut.add_prefixes(2);
  dut.run("iptables -A FORWARD -s 10.77.0.0/24 -j DROP");
  ControllerOptions opts;
  opts.chain = ChainMode::kTailCalls;
  Controller controller(dut.kernel, opts);
  controller.start();
  for (int i = 0; i < 1000; ++i) {
    dut.run("iptables -A FORWARD -s 10." + std::to_string(78 + i / 250) +
            "." + std::to_string(i % 250) + ".0/24 -j DROP");
    const Reaction r = controller.run_once();
    ASSERT_TRUE(r.changed) << "event " << i;
    ASSERT_FALSE(r.deploy_failed) << "event " << i;
    kern::CycleTrace t;
    const auto summary =
        dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(0), t);
    ASSERT_TRUE(summary.fast_path) << "event " << i;
  }
  EXPECT_EQ(controller.deployer().rollbacks(), 0u);
  EXPECT_EQ(dut.tx_eth1.size(), 1000u);
  auto* att = controller.deployer().attachment("eth0", ebpf::HookType::kXdp);
  ASSERT_NE(att, nullptr);
  EXPECT_EQ(att->stats().aborted, 0u);
}

// A container host: a bridge whose veth pod ports each carry a bridge-port
// FPM (attach_bridge_ports).
struct PodHost {
  kern::Kernel kernel{"host"};

  explicit PodHost(int pods) {
    run("ip link add br0 type bridge");
    run("ip link set br0 up");
    for (int i = 0; i < pods; ++i) add_pod("pod" + std::to_string(i));
  }

  void run(const std::string& cmd) {
    auto st = kern::run_command(kernel, cmd);
    ASSERT_TRUE(st.ok()) << cmd << " — " << st.error().message;
  }

  // Each pod's peer gets a name of its own, re-creations included.
  void add_pod(const std::string& name) {
    run("ip link add " + name + " type veth peer name ns" +
        std::to_string(peers++));
    run("ip link set " + name + " up");
    run("ip link set " + name + " master br0");
  }

  int peers = 0;
};

ControllerOptions pod_options() {
  ControllerOptions opts;
  opts.attach_bridge_ports = true;
  return opts;
}

// A device deleted and re-created under its name is another device: the
// deleted one's slot is freed, and the new one gets a slot, a hook program
// and a fast path of its own.
TEST(Deployer, RecreatedDeviceGetsItsFastPathBack) {
  PodHost host(2);
  Controller controller(host.kernel, pod_options());
  ASSERT_FALSE(controller.start().deploy_failed);
  ASSERT_NE(controller.deployer().attachment("pod1", ebpf::HookType::kXdp),
            nullptr);
  const std::size_t slots = controller.deployer().attachment_count();

  host.run("ip link del pod1");
  controller.run_once();
  EXPECT_EQ(controller.deployer().attachment("pod1", ebpf::HookType::kXdp),
            nullptr);
  EXPECT_EQ(controller.deployer().attachment_count(), slots - 1);

  host.add_pod("pod1");
  const Reaction r = controller.run_once();
  EXPECT_FALSE(r.deploy_failed);
  kern::NetDevice* pod1 = host.kernel.dev_by_name("pod1");
  ebpf::Attachment* att =
      controller.deployer().attachment("pod1", ebpf::HookType::kXdp);
  ASSERT_NE(att, nullptr);
  EXPECT_EQ(pod1->xdp_prog(), att);
  EXPECT_EQ(att->programs()[att->active_prog_id()].name, "lfp_pod1");
  EXPECT_EQ(controller.deployer().attachment_count(), slots);

  // A frame in through the new pod1 runs its bridge FPM.
  net::FlowKey f;
  f.src_ip = net::Ipv4Addr::parse("10.20.0.2").value();
  f.dst_ip = net::Ipv4Addr::parse("10.20.0.3").value();
  f.proto = net::kIpProtoUdp;
  f.src_port = 1000;
  f.dst_port = 7;
  kern::CycleTrace t;
  host.kernel.rx(pod1->ifindex(),
                 net::build_udp_packet(net::MacAddr::from_id(0x701),
                                       net::MacAddr::from_id(0x702), f, 64),
                 t);
  EXPECT_EQ(att->stats().runs, 1u);
  EXPECT_EQ(att->stats().aborted, 0u);
}

// Deleted devices free their slots: 1,000 uniquely named pods come and go,
// half of them parked on PASS (link down) before their deletion, and the
// deployer ends with the slots it started with. With the guard on, each
// freed slot's guard unit goes too, so the guard's bounded unit ids
// (kMaxUnits, fewer than the pods) are reused.
TEST(Deployer, DeletedDevicesFreeTheirSlots) {
  for (bool guarded : {false, true}) {
    SCOPED_TRACE(guarded ? "guard on" : "guard off");
    PodHost host(2);
    ControllerOptions opts = pod_options();
    opts.guard.enabled = guarded;
    opts.guard.expectation_slots = 16;
    Controller controller(host.kernel, opts);
    controller.start();
    const std::size_t slots = controller.deployer().attachment_count();
    ASSERT_EQ(slots, 2u);
    for (int i = 0; i < 1000; ++i) {
      const std::string name = "tmp" + std::to_string(i);
      host.add_pod(name);
      controller.run_once();
      ASSERT_NE(controller.deployer().attachment(name, ebpf::HookType::kXdp),
                nullptr)
          << name;
      if (i % 2) {
        host.run("ip link set " + name + " down");
        controller.run_once();
      }
      host.run("ip link del " + name);
      controller.run_once();
      ASSERT_EQ(controller.deployer().attachment_count(), slots) << name;
    }
    if (guarded) {
      EXPECT_EQ(controller.guard()->units().size(), slots);
    }
  }
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
