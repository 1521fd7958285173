// End-to-end slow-path tests: forwarding, ARP, ICMP, netfilter on the
// datapath, bridging, VLAN filtering, VXLAN and veth crossing — all via the
// public Kernel::rx/dev_xmit interface with packets built on the wire format.
#include <gtest/gtest.h>

#include "kernel/kernel.h"
#include "net/checksum.h"
#include "tests/kernel/test_topo.h"

namespace linuxfp::kern {
namespace {

using testing::RouterDut;

TEST(SlowPathForward, ForwardsAndRewrites) {
  RouterDut dut;
  dut.add_prefixes(50);

  net::Packet pkt = dut.packet_to_prefix(7);
  CycleTrace trace;
  auto summary = dut.kernel.rx(dut.eth0_ifindex(), std::move(pkt), trace);

  EXPECT_EQ(summary.drop, Drop::kNone);
  EXPECT_FALSE(summary.fast_path);
  ASSERT_EQ(dut.tx_eth1.size(), 1u);
  auto out = net::parse_packet(dut.tx_eth1[0]);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->eth_src, dut.eth1_mac());
  EXPECT_EQ(out->eth_dst, dut.sink_gw_mac);
  EXPECT_EQ(out->ttl, 63);  // decremented
  net::Ipv4View ip(dut.tx_eth1[0].data() + out->l3_offset);
  EXPECT_TRUE(ip.checksum_valid());
  EXPECT_EQ(dut.kernel.counters().forwarded, 1u);
  EXPECT_GT(trace.total(), 1000u);  // the slow path costs real cycles
}

TEST(SlowPathForward, NoRouteDrops) {
  RouterDut dut;
  dut.add_prefixes(5);
  net::FlowKey f;
  f.src_ip = net::Ipv4Addr::parse("10.10.1.2").value();
  f.dst_ip = net::Ipv4Addr::parse("99.99.99.99").value();
  net::Packet pkt =
      net::build_udp_packet(dut.src_host_mac, dut.eth0_mac(), f, 64);
  CycleTrace trace;
  auto summary = dut.kernel.rx(dut.eth0_ifindex(), std::move(pkt), trace);
  EXPECT_EQ(summary.drop, Drop::kNoRoute);
  EXPECT_TRUE(dut.tx_eth1.empty());
}

TEST(SlowPathForward, TtlExpiryDrops) {
  RouterDut dut;
  dut.add_prefixes(5);
  net::FlowKey f;
  f.src_ip = net::Ipv4Addr::parse("10.10.1.2").value();
  f.dst_ip = net::Ipv4Addr::parse("10.100.0.9").value();
  net::Packet pkt = net::build_udp_packet(dut.src_host_mac, dut.eth0_mac(), f,
                                          64, /*ttl=*/1);
  CycleTrace trace;
  auto summary = dut.kernel.rx(dut.eth0_ifindex(), std::move(pkt), trace);
  EXPECT_EQ(summary.drop, Drop::kTtlExceeded);
}

TEST(SlowPathForward, ForwardingDisabledDrops) {
  RouterDut dut;
  dut.add_prefixes(5);
  dut.run("sysctl -w net.ipv4.ip_forward=0");
  CycleTrace trace;
  auto summary =
      dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(0), trace);
  EXPECT_EQ(summary.drop, Drop::kNotForUs);
}

TEST(SlowPathForward, CorruptChecksumDropped) {
  RouterDut dut;
  dut.add_prefixes(5);
  net::Packet pkt = dut.packet_to_prefix(0);
  pkt.data()[net::kEthHdrLen + 10] ^= 0xFF;  // corrupt checksum
  CycleTrace trace;
  auto summary = dut.kernel.rx(dut.eth0_ifindex(), std::move(pkt), trace);
  EXPECT_EQ(summary.drop, Drop::kMalformed);
}

TEST(SlowPathArp, ResolvesNeighborAndFlushesQueue) {
  RouterDut dut;
  // Route via an unresolved gateway.
  dut.run("ip route add 10.55.0.0/24 via 10.10.2.99 dev eth1");

  net::FlowKey f;
  f.src_ip = net::Ipv4Addr::parse("10.10.1.2").value();
  f.dst_ip = net::Ipv4Addr::parse("10.55.0.1").value();
  net::Packet pkt =
      net::build_udp_packet(dut.src_host_mac, dut.eth0_mac(), f, 64);
  CycleTrace trace;
  auto summary = dut.kernel.rx(dut.eth0_ifindex(), std::move(pkt), trace);
  EXPECT_EQ(summary.drop, Drop::kNeighPending);

  // The kernel must have emitted an ARP request on eth1.
  ASSERT_EQ(dut.tx_eth1.size(), 1u);
  auto arp_out = net::parse_packet(dut.tx_eth1[0]);
  ASSERT_TRUE(arp_out.has_value());
  EXPECT_EQ(arp_out->ethertype, net::kEtherTypeArp);
  net::ArpView req(dut.tx_eth1[0].data() + net::kEthHdrLen);
  EXPECT_EQ(req.read().target_ip.to_string(), "10.10.2.99");
  EXPECT_EQ(req.read().sender_ip.to_string(), "10.10.2.1");

  // Deliver the ARP reply; the parked packet must flush.
  auto neighbor_mac = net::MacAddr::from_id(0x999);
  net::Packet reply = net::build_arp_reply(
      neighbor_mac, net::Ipv4Addr::parse("10.10.2.99").value(),
      dut.eth1_mac(), net::Ipv4Addr::parse("10.10.2.1").value());
  CycleTrace trace2;
  dut.kernel.rx(dut.eth1_ifindex(), std::move(reply), trace2);

  ASSERT_EQ(dut.tx_eth1.size(), 2u);  // request + flushed data packet
  auto flushed = net::parse_packet(dut.tx_eth1[1]);
  ASSERT_TRUE(flushed.has_value());
  EXPECT_EQ(flushed->eth_dst, neighbor_mac);
  EXPECT_EQ(flushed->ip_dst.to_string(), "10.55.0.1");
}

TEST(SlowPathArp, RespondsToRequestForOwnAddress) {
  RouterDut dut;
  net::Packet req = net::build_arp_request(
      dut.src_host_mac, net::Ipv4Addr::parse("10.10.1.2").value(),
      net::Ipv4Addr::parse("10.10.1.1").value());
  CycleTrace trace;
  dut.kernel.rx(dut.eth0_ifindex(), std::move(req), trace);
  ASSERT_EQ(dut.tx_eth0.size(), 1u);
  net::ArpView reply(dut.tx_eth0[0].data() + net::kEthHdrLen);
  auto fields = reply.read();
  EXPECT_EQ(fields.opcode, 2);
  EXPECT_EQ(fields.sender_ip.to_string(), "10.10.1.1");
  EXPECT_EQ(fields.sender_mac, dut.eth0_mac());
  EXPECT_EQ(fields.target_mac, dut.src_host_mac);
}

TEST(SlowPathArp, IgnoresRequestForForeignAddress) {
  RouterDut dut;
  net::Packet req = net::build_arp_request(
      dut.src_host_mac, net::Ipv4Addr::parse("10.10.1.2").value(),
      net::Ipv4Addr::parse("10.10.1.77").value());
  CycleTrace trace;
  dut.kernel.rx(dut.eth0_ifindex(), std::move(req), trace);
  EXPECT_TRUE(dut.tx_eth0.empty());
}

TEST(SlowPathIcmp, EchoReply) {
  RouterDut dut;
  net::Packet echo = net::build_icmp_echo(
      dut.src_host_mac, dut.eth0_mac(),
      net::Ipv4Addr::parse("10.10.1.2").value(),
      net::Ipv4Addr::parse("10.10.1.1").value(), /*is_reply=*/false, 42, 7);
  CycleTrace trace;
  dut.kernel.rx(dut.eth0_ifindex(), std::move(echo), trace);
  ASSERT_EQ(dut.tx_eth0.size(), 1u);
  auto out = net::parse_packet(dut.tx_eth0[0]);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->ip_proto, net::kIpProtoIcmp);
  EXPECT_EQ(out->ip_dst.to_string(), "10.10.1.2");
  net::IcmpView icmp(dut.tx_eth0[0].data() + out->l4_offset);
  EXPECT_EQ(icmp.type(), 0);  // reply
  EXPECT_EQ(icmp.ident(), 42);
  EXPECT_EQ(icmp.sequence(), 7);
  EXPECT_EQ(dut.kernel.counters().icmp_echo_replies, 1u);
}

TEST(SlowPathFilter, ForwardChainDropsOnPath) {
  RouterDut dut;
  dut.add_prefixes(5);
  dut.run("iptables -A FORWARD -d 10.100.0.0/24 -j DROP");
  CycleTrace trace;
  auto summary =
      dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(0), trace);
  EXPECT_EQ(summary.drop, Drop::kPolicy);
  EXPECT_TRUE(dut.tx_eth1.empty());
  // Other prefixes still forward.
  CycleTrace trace2;
  auto ok = dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(1), trace2);
  EXPECT_EQ(ok.drop, Drop::kNone);
  EXPECT_EQ(dut.tx_eth1.size(), 1u);
}

TEST(SlowPathFilter, FilterCostScalesWithRules) {
  RouterDut dut;
  dut.add_prefixes(5);
  CycleTrace base_trace;
  dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(0), base_trace);

  for (int i = 0; i < 100; ++i) {
    dut.run("iptables -A FORWARD -s 10.77." + std::to_string(i) +
            ".0/24 -j DROP");
  }
  CycleTrace filtered_trace;
  dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(0), filtered_trace);
  EXPECT_GT(filtered_trace.total(),
            base_trace.total() + 100 * dut.kernel.cost().ipt_per_rule);
}

TEST(SlowPathBridge, LearnsFloodsAndForwards) {
  Kernel k("br-host");
  std::vector<net::Packet> tx1, tx2, tx3;
  k.add_phys_dev("p1").set_phys_tx(
      [&](net::Packet&& p) { tx1.push_back(std::move(p)); });
  k.add_phys_dev("p2").set_phys_tx(
      [&](net::Packet&& p) { tx2.push_back(std::move(p)); });
  k.add_phys_dev("p3").set_phys_tx(
      [&](net::Packet&& p) { tx3.push_back(std::move(p)); });
  ASSERT_TRUE(run_command(k, "brctl addbr br0").ok());
  for (const char* d : {"p1", "p2", "p3", "br0"}) {
    ASSERT_TRUE(run_command(k, std::string("ip link set ") + d + " up").ok());
  }
  ASSERT_TRUE(run_command(k, "brctl addif br0 p1").ok());
  ASSERT_TRUE(run_command(k, "brctl addif br0 p2").ok());
  ASSERT_TRUE(run_command(k, "brctl addif br0 p3").ok());

  auto host_a = net::MacAddr::from_id(0xA);
  auto host_b = net::MacAddr::from_id(0xB);
  net::FlowKey f;
  f.src_ip = net::Ipv4Addr::parse("192.168.0.10").value();
  f.dst_ip = net::Ipv4Addr::parse("192.168.0.20").value();

  // Unknown destination: flood out every other port.
  CycleTrace t1;
  k.rx(k.dev_by_name("p1")->ifindex(),
       net::build_udp_packet(host_a, host_b, f, 64), t1);
  EXPECT_EQ(tx2.size(), 1u);
  EXPECT_EQ(tx3.size(), 1u);
  EXPECT_TRUE(tx1.empty());
  EXPECT_EQ(k.counters().flooded, 1u);

  // B replies from p2: A was learned, so unicast only to p1.
  net::FlowKey back;
  back.src_ip = f.dst_ip;
  back.dst_ip = f.src_ip;
  CycleTrace t2;
  k.rx(k.dev_by_name("p2")->ifindex(),
       net::build_udp_packet(host_b, host_a, back, 64), t2);
  EXPECT_EQ(tx1.size(), 1u);
  EXPECT_EQ(tx3.size(), 1u);  // unchanged
  EXPECT_EQ(k.counters().bridged, 1u);

  // Now A -> B is also unicast.
  CycleTrace t3;
  k.rx(k.dev_by_name("p1")->ifindex(),
       net::build_udp_packet(host_a, host_b, f, 64), t3);
  EXPECT_EQ(tx2.size(), 2u);
  EXPECT_EQ(tx3.size(), 1u);
}

TEST(SlowPathBridge, VlanFilteringDropsDisallowed) {
  Kernel k("br-host");
  std::vector<net::Packet> tx2;
  k.add_phys_dev("p1");
  k.add_phys_dev("p2").set_phys_tx(
      [&](net::Packet&& p) { tx2.push_back(std::move(p)); });
  ASSERT_TRUE(run_command(k, "brctl addbr br0").ok());
  for (const char* d : {"p1", "p2", "br0"}) {
    ASSERT_TRUE(run_command(k, std::string("ip link set ") + d + " up").ok());
  }
  ASSERT_TRUE(run_command(k, "brctl addif br0 p1").ok());
  ASSERT_TRUE(run_command(k, "brctl addif br0 p2").ok());
  ASSERT_TRUE(run_command(k, "bridge vlan add dev p1 vid 100").ok());
  // p2 does NOT allow vid 100.

  auto host_a = net::MacAddr::from_id(0xA);
  auto host_b = net::MacAddr::from_id(0xB);
  // Teach the FDB where B lives (static), so the drop is a VLAN effect.
  ASSERT_TRUE(run_command(k, "bridge fdb add " + host_b.to_string() +
                                 " dev p2 vlan 100")
                  .ok());
  net::FlowKey f;
  f.src_ip = net::Ipv4Addr::parse("192.168.0.10").value();
  f.dst_ip = net::Ipv4Addr::parse("192.168.0.20").value();
  net::Packet pkt = net::build_udp_packet(host_a, host_b, f, 64);
  net::insert_vlan_tag(pkt, 100);
  CycleTrace t;
  auto summary = k.rx(k.dev_by_name("p1")->ifindex(), std::move(pkt), t);
  EXPECT_EQ(summary.drop, Drop::kVlanFiltered);
  EXPECT_TRUE(tx2.empty());
}

TEST(SlowPathVeth, CrossKernelDelivery) {
  Kernel host("host");
  Kernel pod("pod");
  host.add_veth_to("veth-host", pod, "eth0");
  ASSERT_TRUE(host.set_link_up("veth-host", true).ok());
  ASSERT_TRUE(pod.set_link_up("eth0", true).ok());
  ASSERT_TRUE(pod.add_addr("eth0", net::IfAddr::parse("10.244.0.5/24").value())
                  .ok());

  // ICMP echo into the pod; the pod's kernel replies back across the veth.
  auto gw_mac = net::MacAddr::from_id(0x1);
  net::Packet echo = net::build_icmp_echo(
      gw_mac, pod.dev_by_name("eth0")->mac(),
      net::Ipv4Addr::parse("10.244.0.1").value(),
      net::Ipv4Addr::parse("10.244.0.5").value(), false, 1, 1);
  // Pod needs a route + neighbour back.
  ASSERT_TRUE(pod.add_neigh(net::Ipv4Addr::parse("10.244.0.1").value(),
                            gw_mac, "eth0", true)
                  .ok());
  CycleTrace t;
  host.dev_xmit(host.dev_by_name("veth-host")->ifindex(), std::move(echo), t);
  EXPECT_EQ(pod.counters().icmp_echo_replies, 1u);
  // The reply crossed back into the host kernel (rx on veth-host).
  EXPECT_EQ(host.dev_by_name("veth-host")->stats().rx_packets, 1u);
}

TEST(SlowPathStage, TraceRecordsHotSpotSequence) {
  RouterDut dut;
  dut.add_prefixes(5);
  util::TraceRing ring(1);
  dut.kernel.set_trace_ring(&ring);
  CycleTrace trace;
  dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(0), trace);
  dut.kernel.set_trace_ring(nullptr);
  ASSERT_EQ(ring.size(), 1u);
  std::vector<std::string> stages;
  for (const util::TraceEvent& ev : ring.latest().events) {
    if (std::string(ev.layer) == "slow") stages.push_back(ev.stage);
  }
  // The Fig 1 observation: forwarding traffic walks a fixed stage sequence.
  EXPECT_EQ(stages.front(), "driver_rx");
  EXPECT_NE(std::find(stages.begin(), stages.end(), "fib_lookup"),
            stages.end());
  EXPECT_NE(std::find(stages.begin(), stages.end(), "ip_forward"),
            stages.end());
  EXPECT_EQ(stages.back(), "driver_tx");
}

}  // namespace
}  // namespace linuxfp::kern
