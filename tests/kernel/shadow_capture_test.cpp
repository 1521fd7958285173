// Shadow capture at the stack's one adoption site: a hook program that
// shadows a packet leaves a guard cookie on it, and the kernel adopts the
// cookie where the stack takes the packet from the hook — an inline XDP
// pass, or netif_receive_skb after an engine worker ran the hook. These
// tests drive that hand-off with a fake program and a fake observer in
// place of the equivalence guard (core/guard.h).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kernel/kernel.h"
#include "tests/kernel/test_topo.h"

namespace linuxfp::kern {
namespace {

using testing::RouterDut;

// Passes every packet to the stack with `cookie` on it, as the guard does
// for a packet it shadows. With `retype`, it also rewrites the ethertype to
// one the stack has no handler for, so the packet ends where it entered.
class CookieProgram : public PacketProgram {
 public:
  explicit CookieProgram(std::uint64_t cookie, bool retype = false)
      : cookie_(cookie), retype_(retype) {}

  RunResult run(net::Packet& pkt, int ingress_ifindex,
                unsigned cpu = 0) override {
    (void)ingress_ifindex;
    (void)cpu;
    ++runs;
    pkt.guard_cookie = cookie_;
    if (retype_) net::EthernetView(pkt.data()).set_ethertype(0x88b5);
    return RunResult{};
  }
  std::string name() const override { return "cookie"; }

  int runs = 0;

 private:
  std::uint64_t cookie_;
  bool retype_;
};

struct Resolution {
  std::uint64_t cookie = 0;
  RxSummary summary;
  std::vector<ShadowEmission> emissions;
};

// Records what the kernel hands back, in order.
class RecordingObserver : public ShadowObserver {
 public:
  void on_shadow_resolved(std::uint64_t cookie, const RxSummary& summary,
                          std::vector<ShadowEmission>&& emissions) override {
    resolved.push_back(Resolution{cookie, summary, std::move(emissions)});
    events.push_back("resolve " + std::to_string(cookie));
  }
  void on_shadow_skipped(std::uint64_t cookie) override {
    skipped.push_back(cookie);
    events.push_back("skip " + std::to_string(cookie));
  }

  std::vector<Resolution> resolved;
  std::vector<std::uint64_t> skipped;
  std::vector<std::string> events;
};

std::string bytes_of(const net::Packet& p) {
  return std::string(reinterpret_cast<const char*>(p.data()), p.size());
}

class ShadowCapture : public ::testing::Test {
 protected:
  ShadowCapture() {
    dut.add_prefixes(4);
    dut.kernel.set_shadow_observer(&observer);
    // Transmits out eth1 note how many captures had resolved by then.
    dut.kernel.dev_by_name("eth1")->set_phys_tx([this](net::Packet&& p) {
      resolved_at_tx.push_back(observer.resolved.size());
      dut.tx_eth1.push_back(std::move(p));
    });
  }

  RouterDut dut;
  RecordingObserver observer;
  std::vector<std::size_t> resolved_at_tx;
};

TEST_F(ShadowCapture, InlineXdpPassResolvesOnceWhenRxEnds) {
  CookieProgram xdp(11);
  dut.kernel.dev_by_name("eth0")->attach_xdp(&xdp);

  CycleTrace trace;
  RxSummary summary =
      dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(1), trace);
  EXPECT_EQ(summary.drop, Drop::kNone);
  EXPECT_FALSE(summary.fast_path);

  // The packet left eth1 before its capture resolved, and it resolved once.
  ASSERT_EQ(dut.tx_eth1.size(), 1u);
  EXPECT_EQ(resolved_at_tx, std::vector<std::size_t>{0});
  ASSERT_EQ(observer.resolved.size(), 1u);
  EXPECT_TRUE(observer.skipped.empty());
  const Resolution& r = observer.resolved[0];
  EXPECT_EQ(r.cookie, 11u);
  EXPECT_EQ(r.summary.drop, Drop::kNone);
  EXPECT_FALSE(r.summary.fast_path);
  ASSERT_EQ(r.emissions.size(), 1u);
  EXPECT_EQ(r.emissions[0].ifindex, dut.eth1_ifindex());
  EXPECT_EQ(bytes_of(r.emissions[0].pkt), bytes_of(dut.tx_eth1[0]));
  EXPECT_EQ(dut.tx_eth1[0].guard_cookie, 0u);  // adopted off the packet
  dut.kernel.dev_by_name("eth0")->attach_xdp(nullptr);
}

TEST_F(ShadowCapture, NestedCookieOnVethReentryIsSkipped) {
  // eth0 -> route -> va, whose same-kernel peer vb runs a second shadowing
  // program; the stack on vb drops the retyped frame.
  auto [va, vb] = dut.kernel.add_veth_pair("va", "vb");
  dut.run("ip link set va up");
  dut.run("ip link set vb up");
  dut.run("ip addr add 10.10.3.1/24 dev va");
  dut.run("ip neigh add 10.10.3.2 lladdr " + vb->mac().to_string() +
          " dev va nud permanent");
  dut.run("ip route add 10.200.0.0/24 via 10.10.3.2 dev va");
  CookieProgram outer(21);
  CookieProgram inner(22, /*retype=*/true);
  dut.kernel.dev_by_name("eth0")->attach_xdp(&outer);
  vb->attach_xdp(&inner);

  net::FlowKey f;
  f.src_ip = net::Ipv4Addr::parse("10.10.1.2").value();
  f.dst_ip = net::Ipv4Addr::parse("10.200.0.9").value();
  f.proto = net::kIpProtoUdp;
  f.src_port = 1000;
  f.dst_port = 7;
  net::Packet pkt =
      net::build_udp_packet(dut.src_host_mac, dut.eth0_mac(), f, 64);
  CycleTrace trace;
  RxSummary summary =
      dut.kernel.rx(dut.eth0_ifindex(), std::move(pkt), trace);
  EXPECT_EQ(summary.drop, Drop::kNone);
  EXPECT_EQ(inner.runs, 1);

  // The nested cookie came back skipped while the outer capture was active;
  // the outer one resolved after it, with the veth transmit it captured.
  EXPECT_EQ(observer.events,
            (std::vector<std::string>{"skip 22", "resolve 21"}));
  ASSERT_EQ(observer.resolved.size(), 1u);
  ASSERT_EQ(observer.resolved[0].emissions.size(), 1u);
  EXPECT_EQ(observer.resolved[0].emissions[0].ifindex, va->ifindex());

  // Nothing stays armed: the next shadowed packet is adopted and resolved.
  dut.kernel.dev_by_name("eth0")->attach_xdp(nullptr);
  vb->attach_xdp(nullptr);
  net::Packet next = dut.packet_to_prefix(2);
  next.guard_cookie = 23;
  CycleTrace trace2;
  dut.kernel.netif_receive_skb(dut.eth0_ifindex(), std::move(next), trace2);
  EXPECT_EQ(observer.events, (std::vector<std::string>{
                                 "skip 22", "resolve 21", "resolve 23"}));
  ASSERT_EQ(observer.resolved.size(), 2u);
  ASSERT_EQ(observer.resolved[1].emissions.size(), 1u);
  EXPECT_EQ(observer.resolved[1].emissions[0].ifindex, dut.eth1_ifindex());
}

TEST_F(ShadowCapture, EngineStackEntryAdoptsAndResolves) {
  // The hook already ran on an engine worker: the entry must not run it
  // again, nor count the packet as received on the device.
  CookieProgram xdp(99);
  dut.kernel.dev_by_name("eth0")->attach_xdp(&xdp);
  const std::uint64_t rx_before =
      dut.kernel.dev_by_name("eth0")->stats().rx_packets;

  net::Packet pkt = dut.packet_to_prefix(3);
  pkt.guard_cookie = 31;
  CycleTrace trace;
  RxSummary summary =
      dut.kernel.netif_receive_skb(dut.eth0_ifindex(), std::move(pkt), trace);
  EXPECT_EQ(summary.drop, Drop::kNone);
  EXPECT_EQ(xdp.runs, 0);
  EXPECT_EQ(dut.kernel.dev_by_name("eth0")->stats().rx_packets, rx_before);

  ASSERT_EQ(dut.tx_eth1.size(), 1u);
  EXPECT_EQ(resolved_at_tx, std::vector<std::size_t>{0});
  ASSERT_EQ(observer.resolved.size(), 1u);
  const Resolution& r = observer.resolved[0];
  EXPECT_EQ(r.cookie, 31u);
  EXPECT_EQ(r.summary.drop, Drop::kNone);
  ASSERT_EQ(r.emissions.size(), 1u);
  EXPECT_EQ(r.emissions[0].ifindex, dut.eth1_ifindex());
  EXPECT_EQ(bytes_of(r.emissions[0].pkt), bytes_of(dut.tx_eth1[0]));
  EXPECT_EQ(dut.tx_eth1[0].guard_cookie, 0u);  // adopted off the packet
  dut.kernel.dev_by_name("eth0")->attach_xdp(nullptr);
}

TEST_F(ShadowCapture, EngineStackEntryToDownLinkResolvesLinkDown) {
  dut.run("ip link set eth0 down");
  net::Packet pkt = dut.packet_to_prefix(0);
  pkt.guard_cookie = 41;
  CycleTrace trace;
  RxSummary summary =
      dut.kernel.netif_receive_skb(dut.eth0_ifindex(), std::move(pkt), trace);
  EXPECT_EQ(summary.drop, Drop::kLinkDown);

  EXPECT_TRUE(dut.tx_eth1.empty());
  EXPECT_TRUE(observer.skipped.empty());
  ASSERT_EQ(observer.resolved.size(), 1u);
  EXPECT_EQ(observer.resolved[0].cookie, 41u);
  EXPECT_EQ(observer.resolved[0].summary.drop, Drop::kLinkDown);
  EXPECT_TRUE(observer.resolved[0].emissions.empty());
}

}  // namespace
}  // namespace linuxfp::kern
