// Direct tests of the synthesized FPM code paths: fast/slow equivalence for
// bridged traffic under br_netfilter, VLAN-filtered bridges, the
// local-address early punt, and the conntrack gate.
#include <gtest/gtest.h>

#include "core/controller.h"
#include "core/synthesizer.h"
#include "ebpf/kernel_helpers.h"
#include "ebpf/loader.h"
#include "kernel/commands.h"
#include "tests/kernel/test_topo.h"

namespace linuxfp::core {
namespace {

struct BridgeRig {
  kern::Kernel kernel{"br-host"};
  std::vector<net::Packet> tx_p1, tx_p2;
  net::MacAddr host_a = net::MacAddr::from_id(0xA);
  net::MacAddr host_b = net::MacAddr::from_id(0xB);
  int p1 = 0, p2 = 0;

  BridgeRig() {
    kernel.add_phys_dev("p1").set_phys_tx(
        [this](net::Packet&& p) { tx_p1.push_back(std::move(p)); });
    kernel.add_phys_dev("p2").set_phys_tx(
        [this](net::Packet&& p) { tx_p2.push_back(std::move(p)); });
    cmd("brctl addbr br0");
    for (const char* d : {"p1", "p2", "br0"}) {
      cmd(std::string("ip link set ") + d + " up");
    }
    cmd("brctl addif br0 p1");
    cmd("brctl addif br0 p2");
    p1 = kernel.dev_by_name("p1")->ifindex();
    p2 = kernel.dev_by_name("p2")->ifindex();
    // Pre-learn both stations so the fast path has FDB hits.
    kernel.bridge_by_name("br0")->fdb_learn(host_a, 0, p1, kernel.now_ns());
    kernel.bridge_by_name("br0")->fdb_learn(host_b, 0, p2, kernel.now_ns());
  }

  void cmd(const std::string& c) {
    auto st = kern::run_command(kernel, c);
    ASSERT_TRUE(st.ok()) << c << ": " << st.error().message;
  }

  net::Packet a_to_b(const std::string& src_ip, std::uint16_t dport) {
    net::FlowKey f;
    f.src_ip = net::Ipv4Addr::parse(src_ip).value();
    f.dst_ip = net::Ipv4Addr::parse("192.168.0.20").value();
    f.proto = net::kIpProtoTcp;
    f.src_port = 555;
    f.dst_port = dport;
    return net::build_tcp_packet(host_a, host_b, f, 0x18, 64);
  }
};

TEST(FpmBridgeNetfilter, FastPathEnforcesForwardChain) {
  BridgeRig rig;
  rig.cmd("sysctl -w net.bridge.bridge-nf-call-iptables=1");
  rig.cmd("iptables -A FORWARD -p tcp --dport 8080 -j DROP");

  ControllerOptions opts;
  opts.attach_bridge_ports = true;
  opts.attach_physical = false;
  Controller controller(rig.kernel, opts);
  controller.start();

  // The bridge FPM must carry the br_netfilter sub-config.
  const util::Json& graphs = controller.current_graphs();
  ASSERT_GT(graphs.size(), 0u);
  EXPECT_TRUE(graphs.at(0)
                  .at("nodes")
                  .at("bridge")
                  .at("conf")
                  .at("br_netfilter")
                  .as_bool());

  // Allowed port: forwarded on the fast path.
  kern::CycleTrace t1;
  auto ok = rig.kernel.rx(rig.p1, rig.a_to_b("192.168.0.10", 80), t1);
  EXPECT_TRUE(ok.fast_path);
  EXPECT_EQ(rig.tx_p2.size(), 1u);

  // Blocked port: dropped ON THE FAST PATH, not forwarded.
  kern::CycleTrace t2;
  auto blocked = rig.kernel.rx(rig.p1, rig.a_to_b("192.168.0.10", 8080), t2);
  EXPECT_TRUE(blocked.fast_path);
  EXPECT_EQ(blocked.drop, kern::Drop::kXdpDrop);
  EXPECT_EQ(rig.tx_p2.size(), 1u);
}

TEST(FpmBridgeNetfilter, FastSlowVerdictsIdentical) {
  BridgeRig fast_rig, slow_rig;
  for (BridgeRig* rig : {&fast_rig, &slow_rig}) {
    rig->cmd("sysctl -w net.bridge.bridge-nf-call-iptables=1");
    rig->cmd("iptables -A FORWARD -s 10.66.0.0/16 -j DROP");
    rig->cmd("iptables -A FORWARD -p tcp --dport 23 -j DROP");
  }
  ControllerOptions opts;
  opts.attach_bridge_ports = true;
  opts.attach_physical = false;
  Controller controller(fast_rig.kernel, opts);
  controller.start();

  struct Case {
    const char* src;
    std::uint16_t dport;
  } cases[] = {
      {"10.66.1.1", 80}, {"10.65.1.1", 80}, {"10.65.1.1", 23},
      {"10.66.255.1", 23}, {"192.168.0.10", 443},
  };
  for (const Case& c : cases) {
    kern::CycleTrace tf, ts;
    fast_rig.kernel.rx(fast_rig.p1, fast_rig.a_to_b(c.src, c.dport), tf);
    slow_rig.kernel.rx(slow_rig.p1, slow_rig.a_to_b(c.src, c.dport), ts);
    ASSERT_EQ(fast_rig.tx_p2.size(), slow_rig.tx_p2.size())
        << c.src << ":" << c.dport;
  }
  EXPECT_GT(fast_rig.kernel.counters().fast_path_packets, 0u);
}

TEST(FpmBridgeNetfilter, WithoutBrNfSysctlNoFilteringInBridge) {
  BridgeRig rig;
  rig.cmd("iptables -A FORWARD -p tcp --dport 8080 -j DROP");
  // bridge-nf-call-iptables NOT set: bridged traffic is not iptables
  // subject, on either path.
  ControllerOptions opts;
  opts.attach_bridge_ports = true;
  opts.attach_physical = false;
  Controller controller(rig.kernel, opts);
  controller.start();
  kern::CycleTrace t;
  auto summary = rig.kernel.rx(rig.p1, rig.a_to_b("10.0.0.1", 8080), t);
  EXPECT_TRUE(summary.fast_path);
  EXPECT_EQ(rig.tx_p2.size(), 1u);  // forwarded despite the DROP rule
}

TEST(FpmVlan, TaggedTrafficForwardedPerVlanFdb) {
  BridgeRig rig;
  rig.cmd("bridge vlan add dev p1 vid 100");
  rig.cmd("bridge vlan add dev p2 vid 100");
  // VLAN-scoped FDB entries.
  rig.kernel.bridge_by_name("br0")->fdb_learn(rig.host_a, 100, rig.p1,
                                              rig.kernel.now_ns());
  rig.kernel.bridge_by_name("br0")->fdb_learn(rig.host_b, 100, rig.p2,
                                              rig.kernel.now_ns());

  ControllerOptions opts;
  opts.attach_bridge_ports = true;
  opts.attach_physical = false;
  Controller controller(rig.kernel, opts);
  controller.start();

  net::Packet pkt = rig.a_to_b("192.168.0.10", 80);
  net::insert_vlan_tag(pkt, 100);
  kern::CycleTrace t;
  auto summary = rig.kernel.rx(rig.p1, std::move(pkt), t);
  EXPECT_TRUE(summary.fast_path);
  ASSERT_EQ(rig.tx_p2.size(), 1u);
  auto parsed = net::parse_packet(rig.tx_p2[0]);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->has_vlan);
  EXPECT_EQ(parsed->vlan_id, 100);

  // A VID not allowed on the egress port punts / is filtered, not forwarded.
  net::Packet bad = rig.a_to_b("192.168.0.10", 80);
  net::insert_vlan_tag(bad, 200);
  kern::CycleTrace t2;
  rig.kernel.rx(rig.p1, std::move(bad), t2);
  EXPECT_EQ(rig.tx_p2.size(), 1u);
}

TEST(FpmLocalPunt, TrafficToOwnAddressPuntsEarly) {
  linuxfp::testing::RouterDut dut;
  dut.add_prefixes(5);
  Controller controller(dut.kernel);
  controller.start();

  // Packet addressed to the router itself (eth0's address): slow path
  // (local delivery), even though a route would technically match.
  net::FlowKey f;
  f.src_ip = net::Ipv4Addr::parse("10.10.1.2").value();
  f.dst_ip = net::Ipv4Addr::parse("10.10.1.1").value();
  f.proto = net::kIpProtoUdp;
  f.src_port = 1;
  f.dst_port = 2;
  kern::CycleTrace t;
  auto summary = dut.kernel.rx(
      dut.eth0_ifindex(),
      net::build_udp_packet(dut.src_host_mac, dut.eth0_mac(), f, 64), t);
  EXPECT_FALSE(summary.fast_path);
  EXPECT_EQ(dut.kernel.counters().locally_delivered, 1u);
}

TEST(FpmStp, BlockedPortNotForwardedByFastPath) {
  BridgeRig rig;
  ControllerOptions opts;
  opts.attach_bridge_ports = true;
  opts.attach_physical = false;
  Controller controller(rig.kernel, opts);
  controller.start();

  // Force the egress port into blocking (as STP would).
  rig.kernel.bridge_by_name("br0")->port(rig.p2)->state =
      kern::StpState::kBlocking;
  kern::CycleTrace t;
  auto summary = rig.kernel.rx(rig.p1, rig.a_to_b("10.0.0.1", 80), t);
  // Fast path helper sees the port state and refuses; slow path agrees.
  EXPECT_TRUE(rig.tx_p2.empty());
  EXPECT_NE(summary.drop, kern::Drop::kNone);
}

TEST(FpmCustomSnippet, UnverifiableSnippetRejectedGracefully) {
  linuxfp::testing::RouterDut dut;
  dut.add_prefixes(2);
  Controller controller(dut.kernel);
  controller.start();

  controller.set_custom_snippet([](ebpf::ProgramBuilder& b) {
    b.ldx(ebpf::kR3, ebpf::kR7, 9999, ebpf::MemSize::kU64);  // unchecked
  });
  auto reaction = controller.run_once();
  EXPECT_EQ(reaction.programs, 0u);  // nothing deployed

  // The previously deployed fast path keeps serving traffic.
  kern::CycleTrace t;
  auto summary =
      dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(0), t);
  EXPECT_TRUE(summary.fast_path);
  EXPECT_EQ(dut.tx_eth1.size(), 1u);
}

}  // namespace
}  // namespace linuxfp::core
