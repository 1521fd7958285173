// The capability prune moves the graphs it is given, so pruning a moved
// graph set must give exactly what pruning a copy gives. Checked on the
// worlds the controller meets: none, one graph, the 68-graph container host
// of the reaction storm and the topology tests' shapes.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/capability.h"
#include "core/introspect.h"
#include "core/topology.h"
#include "ebpf/kernel_helpers.h"
#include "kernel/commands.h"
#include "kernel/kernel.h"

namespace linuxfp::core {
namespace {

struct World {
  std::string name;
  std::function<void(kern::Kernel&)> configure;
  TopologyOptions topology;
  std::size_t expected_graphs;
};

void run(kern::Kernel& k, const std::string& cmd) {
  auto st = kern::run_command(k, cmd);
  ASSERT_TRUE(st.ok()) << cmd << ": " << st.error().message;
}

void routed_uplinks(kern::Kernel& k, int n) {
  for (int i = 0; i < n; ++i) {
    const std::string d = "eth" + std::to_string(i);
    k.add_phys_dev(d);
    run(k, "ip link set " + d + " up");
    run(k, "ip addr add 10.10." + std::to_string(i + 1) + ".1/24 dev " + d);
  }
  run(k, "sysctl -w net.ipv4.ip_forward=1");
  run(k, "ip route add 10.100.0.0/24 via 10.10.1.2 dev eth0");
}

void bridge_with_pods(kern::Kernel& k, int pods) {
  run(k, "ip link add br0 type bridge");
  run(k, "ip link set br0 up");
  for (int i = 0; i < pods; ++i) {
    const std::string n = std::to_string(i);
    run(k, "ip link add pod" + n + " type veth peer name ns" + n);
    run(k, "ip link set pod" + n + " up");
    run(k, "ip link set pod" + n + " master br0");
  }
}

TopologyOptions bridge_ports() {
  TopologyOptions o;
  o.attach_bridge_ports = true;
  return o;
}

std::vector<World> worlds() {
  return {
      {"no graphs",
       [](kern::Kernel& k) {
         k.add_phys_dev("eth0");
         run(k, "ip link set eth0 up");
       },
       {}, 0},
      {"one router graph", [](kern::Kernel& k) { routed_uplinks(k, 1); }, {},
       1},
      // The reaction storm's container host: 4 routed uplinks and a bridge
      // with 64 pod ports.
      {"storm host",
       [](kern::Kernel& k) {
         routed_uplinks(k, 4);
         bridge_with_pods(k, 64);
       },
       bridge_ports(), 68},
      // Every node kind: a bridge with an address (bridge -> loadbalance ->
      // filter -> router), br_netfilter, STP and VLANs, an ipset rule, a
      // user chain and an ipvs service.
      {"bridge, filter, loadbalance",
       [](kern::Kernel& k) {
         routed_uplinks(k, 2);
         bridge_with_pods(k, 3);
         run(k, "ip addr add 10.20.0.1/24 dev br0");
         run(k, "brctl stp br0 on");
         run(k, "bridge vlan add dev pod0 vid 100");
         run(k, "sysctl -w net.bridge.bridge-nf-call-iptables=1");
         run(k, "ipset create blk hash:ip");
         run(k, "iptables -A FORWARD -m set --match-set blk src -j DROP");
         run(k, "iptables -N user");
         run(k, "iptables -A user -p tcp --dport 22 -j DROP");
         run(k, "iptables -A FORWARD -j user");
         run(k, "iptables -A FORWARD -o eth1 -j ACCEPT");
         run(k, "ipvsadm -A -t 10.0.0.100:80 -s rr");
         run(k, "ipvsadm -a -t 10.0.0.100:80 -r 10.10.2.5:8080 -w 2");
       },
       bridge_ports(), 5},
  };
}

util::Json build(kern::Kernel& k, const TopologyOptions& options) {
  ServiceIntrospection si(k.netlink());
  si.initial_sync();
  return TopologyManager(options).build(si.view());
}

// The helper sets the prune is checked under. "bridge, no filter" keeps the
// bridge FPM but loses the filter, and with it the router: a bridge node's
// next_nf to the router dangles and is stripped.
struct HelperSet {
  std::string name;
  std::unique_ptr<ebpf::HelperRegistry> registry;
};

std::vector<HelperSet> helper_sets(const kern::CostModel& cost) {
  std::vector<HelperSet> sets;
  sets.push_back({"full", std::make_unique<ebpf::HelperRegistry>()});
  ebpf::register_all_helpers(*sets.back().registry, cost);
  sets.push_back({"mainline", std::make_unique<ebpf::HelperRegistry>()});
  ebpf::register_mainline_helpers(*sets.back().registry, cost);
  sets.push_back(
      {"bridge, no filter", std::make_unique<ebpf::HelperRegistry>()});
  ebpf::register_mainline_helpers(*sets.back().registry, cost);
  sets.back().registry->register_helper(ebpf::kHelperFdbLookup, "fdb", {});
  return sets;
}

TEST(GraphSignature, PruneOfMovedGraphsEqualsPruneOfCopy) {
  bool saw_strip = false;
  bool saw_mainline_drop = false;
  for (const World& w : worlds()) {
    kern::Kernel k("host");
    w.configure(k);
    const util::Json raw = build(k, w.topology);
    for (const HelperSet& h : helper_sets(k.cost())) {
      const CapabilityManager cap(*h.registry);
      std::vector<std::string> dropped_copy;
      const util::Json from_copy = cap.prune(raw, &dropped_copy);
      util::Json moved = raw;
      std::vector<std::string> dropped_move;
      const util::Json from_move = cap.prune(std::move(moved), &dropped_move);
      EXPECT_EQ(from_move.dump(), from_copy.dump())
          << w.name << " / " << h.name;
      EXPECT_EQ(dropped_move, dropped_copy) << w.name << " / " << h.name;
      // The lvalue was copied, not consumed.
      EXPECT_EQ(raw.size(), w.expected_graphs) << w.name;

      for (const util::Json& g : from_copy.array_items()) {
        const util::Json& nodes = g.at("nodes");
        if (h.name == "mainline") {
          EXPECT_FALSE(nodes.contains("bridge")) << w.name;
          EXPECT_FALSE(nodes.contains("filter")) << w.name;
          EXPECT_FALSE(nodes.contains("loadbalance")) << w.name;
        }
        if (nodes.contains("bridge") && !nodes.contains("router")) {
          EXPECT_FALSE(nodes.at("bridge").contains("next_nf")) << w.name;
        }
      }
      for (const std::string& d : dropped_copy) {
        saw_mainline_drop |= h.name == "mainline" &&
                             d.find(":filter") != std::string::npos;
        saw_strip |= h.name == "bridge, no filter" &&
                     d.find("pod0:router") != std::string::npos;
      }
    }
  }
  EXPECT_TRUE(saw_mainline_drop);
  EXPECT_TRUE(saw_strip);
}

}  // namespace
}  // namespace linuxfp::core
