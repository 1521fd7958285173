#include "core/introspect.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

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

// What a failed comparison of link tables prints.
std::string links_text(const std::map<int, LinkObject>& links) {
  std::string out;
  for (const auto& [ifindex, l] : links) {
    out += std::to_string(ifindex) + " " + l.ifname + " " + l.kind +
           (l.up ? " up" : " down") + " master=" + std::to_string(l.master) +
           " state=" + l.stp_state + " pvid=" + std::to_string(l.pvid) +
           " stp=" + std::to_string(l.stp) +
           " vlan=" + std::to_string(l.vlan_filtering) + " addrs=[";
    for (const std::string& a : l.addrs) out += a + " ";
    out += "] ports=[";
    for (const PortObject& p : l.ports) {
      out += std::to_string(p.ifindex) + ":" + p.ifname + ":" + p.stp_state +
             ":" + std::to_string(p.pvid) + " ";
    }
    out += "]\n";
  }
  return out;
}

// The view built by applying events equals the one a fresh dump builds,
// links and bridge port lists included, after every event of a storm round
// and of the bridge-port events around it: a port change publishes the
// port's link only, and the bridge's port list is derived from those.
TEST(Introspection, AppliedViewEqualsFreshDump) {
  kern::Kernel k("host");
  auto run = [&k](const std::string& cmd) {
    auto st = kern::run_command(k, cmd);
    ASSERT_TRUE(st.ok()) << cmd << ": " << st.error().message;
  };
  for (const char* d : {"eth0", "eth1", "eth2", "eth3"}) {
    k.add_phys_dev(d);
    run(std::string("ip link set ") + d + " up");
  }
  run("ip addr add 10.10.2.1/24 dev eth1");
  run("sysctl -w net.ipv4.ip_forward=1");
  run("ip link add br0 type bridge");
  run("ip link set br0 up");
  int pods = 0;
  auto pod_add = [&] {
    const std::string n = std::to_string(pods++);
    run("ip link add pod" + n + " type veth peer name ns" + n);
    run("ip link set pod" + n + " up");
    run("ip link set pod" + n + " master br0");
  };
  for (int i = 0; i < 8; ++i) pod_add();

  ServiceIntrospection si(k.netlink());
  si.initial_sync();
  int events = 0;
  auto expect_fresh = [&](const std::string& where) {
    si.poll();
    ServiceIntrospection fresh(k.netlink());
    fresh.initial_sync();
    EXPECT_TRUE(si.view().links == fresh.view().links)
        << where << "\napplied:\n"
        << links_text(si.view().links) << "fresh:\n"
        << links_text(fresh.view().links);
    ++events;
  };
  int routes = 0;
  for (int block = 0; block < 4; ++block) {
    run("ip route add 10.101." + std::to_string(routes++) +
        ".0/24 via 10.10.2.2 dev eth1");
    expect_fresh("route add");
    run("iptables -A FORWARD -s 10.66.0." + std::to_string(block) +
        " -j DROP");
    expect_fresh("rule add");
    pod_add();
    expect_fresh("pod add");
    run("ip route del 10.101." + std::to_string(--routes) + ".0/24");
    expect_fresh("route del");
    run("ip link del pod" + std::to_string(--pods));
    expect_fresh("pod del");
  }
  for (const char* cmd : {
           "brctl stp br0 on",
           "bridge vlan add dev pod1 vid 10 pvid untagged",
           "bridge vlan add dev pod2 vid 20 pvid",
           "ip link set pod3 nomaster",
           "ip link set pod3 master br0",
           "ip addr add 10.20.0.1/24 dev br0",
           "ip addr del 10.20.0.1/24 dev br0",
           "brctl stp br0 off",
           "ip link set pod4 down",
           "ip link del br0",
       }) {
    run(cmd);
    expect_fresh(cmd);
  }
  EXPECT_EQ(events, 30);
  // The port list survived the bridge's own changes, in ifindex order.
  run("ip link add br1 type bridge");
  run("ip link set eth3 master br1");
  run("ip link set eth2 master br1");
  expect_fresh("second bridge");
  const LinkObject* br1 = si.view().link_by_name("br1");
  ASSERT_NE(br1, nullptr);
  ASSERT_EQ(br1->ports.size(), 2u);
  EXPECT_EQ(br1->ports[0].ifname, "eth2");
  EXPECT_EQ(br1->ports[1].ifname, "eth3");
  EXPECT_EQ(br1->ports[0].stp_state, "forwarding");
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
