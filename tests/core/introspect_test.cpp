#include "core/introspect.h"

#include <gtest/gtest.h>

#include "kernel/commands.h"
#include "kernel/kernel.h"

namespace linuxfp::core {
namespace {

TEST(Introspection, InitialSyncCapturesExistingConfig) {
  kern::Kernel k("host");
  k.add_phys_dev("eth0");
  ASSERT_TRUE(kern::run_command(k, "ip link set eth0 up").ok());
  ASSERT_TRUE(kern::run_command(k, "ip addr add 10.0.0.1/24 dev eth0").ok());
  ASSERT_TRUE(kern::run_command(k, "sysctl -w net.ipv4.ip_forward=1").ok());
  ASSERT_TRUE(
      kern::run_command(k, "ip route add 10.2.0.0/16 via 10.0.0.2 dev eth0")
          .ok());

  ServiceIntrospection si(k.netlink());
  si.initial_sync();
  const WorldView& v = si.view();
  ASSERT_EQ(v.links.size(), 1u);
  const LinkObject* eth0 = v.link_by_name("eth0");
  ASSERT_NE(eth0, nullptr);
  EXPECT_TRUE(eth0->up);
  EXPECT_EQ(eth0->addrs.size(), 1u);
  EXPECT_TRUE(v.ip_forward());
  EXPECT_EQ(v.routes.size(), 2u);  // connected + global
  EXPECT_EQ(v.global_route_count(), 1u);
}

TEST(Introspection, IncrementalEventsUpdateView) {
  kern::Kernel k("host");
  k.add_phys_dev("eth0");
  ServiceIntrospection si(k.netlink());
  si.initial_sync();
  EXPECT_FALSE(si.view().link_by_name("eth0")->up);

  ASSERT_TRUE(kern::run_command(k, "ip link set eth0 up").ok());
  EXPECT_TRUE(si.poll());
  EXPECT_TRUE(si.view().link_by_name("eth0")->up);

  ASSERT_TRUE(
      kern::run_command(k, "iptables -A FORWARD -s 1.2.3.0/24 -j DROP").ok());
  EXPECT_TRUE(si.poll());
  EXPECT_EQ(si.view().forward_rule_count(), 1u);

  EXPECT_FALSE(si.poll());  // no new events
}

TEST(Introspection, DynamicNeighborChurnDoesNotForceResynth) {
  kern::Kernel k("host");
  k.add_phys_dev("eth0");
  ServiceIntrospection si(k.netlink());
  si.initial_sync();

  // Static neighbour: relevant change.
  ASSERT_TRUE(kern::run_command(
                  k,
                  "ip neigh add 10.0.0.2 lladdr 02:00:00:00:00:05 dev eth0 "
                  "nud permanent")
                  .ok());
  EXPECT_TRUE(si.poll());
  EXPECT_EQ(si.view().neighbors.size(), 1u);

  // Dynamic neighbour: the view follows, but nothing forces a rebuild.
  ASSERT_TRUE(kern::run_command(
                  k, "ip neigh add 10.0.0.3 lladdr 02:00:00:00:00:06 dev eth0")
                  .ok());
  EXPECT_FALSE(si.poll());
  ASSERT_EQ(si.view().neighbors.size(), 2u);
  EXPECT_EQ(si.view().neighbors[1].ip, "10.0.0.3");
  EXPECT_TRUE(si.view().neighbors[1].dynamic);
}

TEST(Introspection, ChainDeletionIsVisible) {
  kern::Kernel k("host");
  ServiceIntrospection si(k.netlink());
  si.initial_sync();
  ASSERT_TRUE(kern::run_command(k, "iptables -N USER1").ok());
  EXPECT_TRUE(si.poll());
  EXPECT_TRUE(si.view().chains.count("USER1"));
  ASSERT_TRUE(kern::run_command(k, "iptables -X USER1").ok());
  EXPECT_TRUE(si.poll());
  EXPECT_FALSE(si.view().chains.count("USER1"));
}

TEST(Introspection, BridgePortChangesUpdateTheBridge) {
  kern::Kernel k("host");
  k.add_phys_dev("p1");
  k.add_veth_pair("v1", "w1");
  ASSERT_TRUE(kern::run_command(k, "brctl addbr br0").ok());
  ServiceIntrospection si(k.netlink());
  si.initial_sync();
  auto ports = [&si] {
    std::vector<std::string> names;
    for (const PortObject& p : si.view().link_by_name("br0")->ports) {
      names.push_back(p.ifname);
    }
    return names;
  };
  ASSERT_TRUE(kern::run_command(k, "brctl addif br0 p1").ok());
  ASSERT_TRUE(kern::run_command(k, "brctl addif br0 v1").ok());
  EXPECT_TRUE(si.poll());
  EXPECT_EQ(ports(), (std::vector<std::string>{"p1", "v1"}));
  ASSERT_TRUE(kern::run_command(k, "brctl delif br0 p1").ok());
  EXPECT_TRUE(si.poll());
  EXPECT_EQ(ports(), std::vector<std::string>{"v1"});
  // Deleting a device that is still a port removes it from the bridge.
  ASSERT_TRUE(kern::run_command(k, "ip link del v1").ok());
  EXPECT_TRUE(si.poll());
  EXPECT_TRUE(ports().empty());
}

TEST(Introspection, BridgeObjectsCarryPortsAndFlags) {
  kern::Kernel k("host");
  k.add_phys_dev("p1");
  ASSERT_TRUE(kern::run_command(k, "brctl addbr br0").ok());
  ASSERT_TRUE(kern::run_command(k, "brctl addif br0 p1").ok());
  ASSERT_TRUE(kern::run_command(k, "brctl stp br0 on").ok());
  ServiceIntrospection si(k.netlink());
  si.initial_sync();
  const LinkObject* br = si.view().link_by_name("br0");
  ASSERT_NE(br, nullptr);
  EXPECT_EQ(br->kind, "bridge");
  EXPECT_TRUE(br->stp);
  ASSERT_EQ(br->ports.size(), 1u);
  EXPECT_EQ(br->ports[0].ifname, "p1");
  const LinkObject* p1 = si.view().link_by_name("p1");
  EXPECT_EQ(p1->master, br->ifindex);
}

TEST(Introspection, RouteDeletionReflected) {
  kern::Kernel k("host");
  k.add_phys_dev("eth0");
  ASSERT_TRUE(kern::run_command(k, "ip link set eth0 up").ok());
  ASSERT_TRUE(
      kern::run_command(k, "ip route add 10.2.0.0/16 via 10.0.0.2 dev eth0")
          .ok());
  ServiceIntrospection si(k.netlink());
  si.initial_sync();
  EXPECT_EQ(si.view().routes.size(), 1u);
  ASSERT_TRUE(kern::run_command(k, "ip route del 10.2.0.0/16").ok());
  EXPECT_TRUE(si.poll());
  EXPECT_TRUE(si.view().routes.empty());
}

}  // namespace
}  // namespace linuxfp::core
