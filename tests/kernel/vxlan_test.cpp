// VXLAN datapath tests: VTEP transmit (encap + underlay routing), receive
// (decap + inner forwarding), FDB-driven remote selection, failure modes.
#include <gtest/gtest.h>

#include "kernel/commands.h"
#include "kernel/kernel.h"

namespace linuxfp::kern {
namespace {

// Two hosts connected by a wire; each has a VTEP (vni 7) and a local stub
// subnet.
struct VxlanRig {
  Kernel left{"left"}, right{"right"};
  std::vector<net::Packet> wire_to_right, wire_to_left;

  VxlanRig() {
    setup(left, "192.168.0.1", 1);
    setup(right, "192.168.0.2", 2);
    left.dev_by_name("ens0")->set_phys_tx([this](net::Packet&& p) {
      wire_to_right.push_back(p);
      CycleTrace t;
      right.rx(right.dev_by_name("ens0")->ifindex(), std::move(p), t);
    });
    right.dev_by_name("ens0")->set_phys_tx([this](net::Packet&& p) {
      wire_to_left.push_back(p);
      CycleTrace t;
      left.rx(left.dev_by_name("ens0")->ifindex(), std::move(p), t);
    });
    // Cross-VTEP wiring (static, flannel-style).
    wire_vteps(left, right, "192.168.0.2", "10.77.2.0/24");
    wire_vteps(right, left, "192.168.0.1", "10.77.1.0/24");
  }

  void cmd(Kernel& k, const std::string& c) {
    auto st = run_command(k, c);
    ASSERT_TRUE(st.ok()) << c << ": " << st.error().message;
  }

  void setup(Kernel& k, const std::string& underlay, int index) {
    k.add_phys_dev("ens0");
    cmd(k, "ip link set ens0 up");
    cmd(k, "ip addr add " + underlay + "/24 dev ens0");
    cmd(k, "sysctl -w net.ipv4.ip_forward=1");
    k.add_vxlan_dev("vx0", 7, net::Ipv4Addr::parse(underlay).value(),
                    k.dev_by_name("ens0")->ifindex());
    cmd(k, "ip link set vx0 up");
    cmd(k, "ip addr add 10.77." + std::to_string(index) + ".1/24 dev vx0");
  }

  void wire_vteps(Kernel& k, Kernel& peer, const std::string& peer_underlay,
                  const std::string& peer_subnet) {
    std::string peer_vtep_mac = peer.dev_by_name("vx0")->mac().to_string();
    std::string peer_ens_mac = peer.dev_by_name("ens0")->mac().to_string();
    std::string gw = net::Ipv4Prefix::parse(peer_subnet)->host(1).to_string();
    cmd(k, "ip route add " + peer_subnet + " via " + gw + " dev vx0");
    cmd(k, "ip neigh add " + gw + " lladdr " + peer_vtep_mac +
               " dev vx0 nud permanent");
    cmd(k, "bridge fdb append " + peer_vtep_mac + " dev vx0 dst " +
               peer_underlay);
    cmd(k, "ip neigh add " + peer_underlay + " lladdr " + peer_ens_mac +
               " dev ens0 nud permanent");
  }
};

TEST(Vxlan, EncapsulatesWithCorrectOuterHeaders) {
  VxlanRig rig;
  // ICMP from left's vx0 address to right's vx0 address.
  net::Packet echo = net::build_icmp_echo(
      rig.left.dev_by_name("vx0")->mac(), net::MacAddr::zero(),
      net::Ipv4Addr::parse("10.77.1.1").value(),
      net::Ipv4Addr::parse("10.77.2.1").value(), false, 7, 1);
  CycleTrace t;
  rig.left.send_ip_packet(std::move(echo), t);

  ASSERT_GE(rig.wire_to_right.size(), 1u);
  auto outer = net::parse_packet(rig.wire_to_right[0]);
  ASSERT_TRUE(outer.has_value());
  EXPECT_EQ(outer->ip_src.to_string(), "192.168.0.1");
  EXPECT_EQ(outer->ip_dst.to_string(), "192.168.0.2");
  EXPECT_EQ(outer->ip_proto, net::kIpProtoUdp);
  EXPECT_EQ(outer->dst_port, net::kVxlanPort);
  net::VxlanView vx(rig.wire_to_right[0].data() + outer->l4_offset +
                    net::kUdpHdrLen);
  EXPECT_EQ(vx.vni(), 7u);
}

TEST(Vxlan, EndToEndPingAcrossOverlay) {
  VxlanRig rig;
  net::Packet echo = net::build_icmp_echo(
      rig.left.dev_by_name("vx0")->mac(), net::MacAddr::zero(),
      net::Ipv4Addr::parse("10.77.1.1").value(),
      net::Ipv4Addr::parse("10.77.2.1").value(), false, 7, 1);
  CycleTrace t;
  rig.left.send_ip_packet(std::move(echo), t);

  // right received, decapped, replied; the reply decapped back on left.
  EXPECT_EQ(rig.right.counters().icmp_echo_replies, 1u);
  EXPECT_GE(rig.wire_to_left.size(), 1u);
  EXPECT_EQ(rig.left.counters().locally_delivered, 1u);  // the echo reply
}

TEST(Vxlan, UnknownInnerMacDropsWithNoRoute) {
  VxlanRig rig;
  // Remove the FDB entry: encap cannot resolve a remote VTEP.
  rig.left.dev_by_name("vx0")->vxlan().vtep_fdb.clear();
  net::Packet echo = net::build_icmp_echo(
      rig.left.dev_by_name("vx0")->mac(), net::MacAddr::zero(),
      net::Ipv4Addr::parse("10.77.1.1").value(),
      net::Ipv4Addr::parse("10.77.2.1").value(), false, 7, 1);
  CycleTrace t;
  auto before = rig.left.mutable_counters().drops[Drop::kNoRoute];
  rig.left.send_ip_packet(std::move(echo), t);
  EXPECT_TRUE(rig.wire_to_right.empty());
  EXPECT_GT(rig.left.mutable_counters().drops[Drop::kNoRoute], before);
}

TEST(Vxlan, MismatchedVniNotDelivered) {
  VxlanRig rig;
  // Change right's VTEP to a different VNI: left's frames must not surface.
  rig.right.dev_by_name("vx0")->vxlan().vni = 99;
  net::Packet echo = net::build_icmp_echo(
      rig.left.dev_by_name("vx0")->mac(), net::MacAddr::zero(),
      net::Ipv4Addr::parse("10.77.1.1").value(),
      net::Ipv4Addr::parse("10.77.2.1").value(), false, 7, 1);
  CycleTrace t;
  rig.left.send_ip_packet(std::move(echo), t);
  EXPECT_EQ(rig.right.counters().icmp_echo_replies, 0u);
  EXPECT_GT(rig.right.mutable_counters().drops[Drop::kNoHandler], 0u);
}

TEST(Vxlan, DecapChargesCostModel) {
  VxlanRig rig;
  net::Packet echo = net::build_icmp_echo(
      rig.left.dev_by_name("vx0")->mac(), net::MacAddr::zero(),
      net::Ipv4Addr::parse("10.77.1.1").value(),
      net::Ipv4Addr::parse("10.77.2.1").value(), false, 7, 1);
  // send_ip_packet is not an rx() entry, so no kernel opens a trace record
  // for it: bind one to the CycleTrace directly.
  util::PacketTrace record;
  CycleTrace t;
  t.bind_packet_trace(&record);
  rig.left.send_ip_packet(std::move(echo), t);
  bool saw_encap = false;
  for (const util::TraceEvent& ev : record.events) {
    if (std::string(ev.stage) == "vxlan_encap") saw_encap = true;
  }
  EXPECT_TRUE(saw_encap);
}

}  // namespace
}  // namespace linuxfp::kern
