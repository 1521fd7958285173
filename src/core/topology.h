// Topology Manager: derives relationships between LinuxFP objects and emits
// the per-device processing graph (paper §IV-C2, Fig 3).
//
// A device's typed description (`DeviceGraph`) holds exactly what its graph
// JSON says. It is derived in two parts: the inputs every device shares
// (`shared_inputs(view)`: routes, rules, sysctls, services), computed once
// per change of those tables, and the per-device `describe(view, shared,
// link)`, the only graph builder. `describe(view)` and `build(view)` loop
// over it. `render(description)` writes the JSON. Equal descriptions render
// byte-identical graphs, so a caller that keeps the last description per
// device re-describes only the devices a change reaches and re-renders only
// those whose description changed (DESIGN.md §17).
//
// Graph shape (one graph per attachable device with at least one node):
//   {
//     "device": "ens1f0", "ifindex": 2, "hook": "xdp", "dev_mac": "...",
//     "nodes": {
//       "bridge": {"conf": {...}, "next_nf": "router"},
//       "loadbalance": {"conf": {...}, "next_nf": "router"},
//       "filter": {"conf": {...}, "next_nf": "router"},
//       "router": {"conf": {...}}
//     }
//   }
// Keys of "nodes" are FPMs in processing order; "conf" sub-keys specialize
// the synthesized code (e.g. VLAN parsing only when the bridge filters
// VLANs); "next_nf" records the processing dependency.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/objects.h"
#include "util/json.h"

namespace linuxfp::core {

// What the filter FPM specializes on, over every rule reachable from
// FORWARD. Computed once per description pass.
struct ForwardRules {
  // A rule matches L4 ports or conntrack state: the fast path must parse
  // ports (the conntrack key is the full 5-tuple).
  bool needs_ports = false;
  // A rule matches an ipset.
  bool uses_sets = false;
  // A rule matches the output interface (where the filter can run relative
  // to the FIB lookup).
  bool has_out_if = false;

  bool operator==(const ForwardRules&) const = default;
};

// The "conf" of a filter node, and of a bridge node's br_netfilter filter.
struct FilterConf {
  std::size_t rule_count = 0;  // rules in FORWARD itself
  ForwardRules forward;

  bool operator==(const FilterConf&) const = default;
};

struct BridgeNode {
  std::string bridge;
  int bridge_ifindex = 0;
  std::string bridge_mac;
  bool stp = false;
  bool vlan_filtering = false;
  // br_netfilter: bridged traffic traverses the FORWARD chain, so the bridge
  // FPM evaluates it too (set only while bridge-nf-call-iptables is on and
  // filtering is active).
  std::optional<FilterConf> filter;

  bool operator==(const BridgeNode&) const = default;
};

// A VIP endpoint baked into the load-balancer FPM.
struct ServiceEndpoint {
  std::string vip;
  int port = 0;
  int proto = 6;

  bool operator==(const ServiceEndpoint&) const = default;
};

struct LoadBalanceNode {
  std::vector<ServiceEndpoint> services;

  bool operator==(const LoadBalanceNode&) const = default;
};

struct RouterNode {
  std::size_t route_count = 0;  // global-scope routes
  // Addresses the routed device (or its bridge) owns, without prefix length.
  std::vector<std::string> local_addrs;

  bool operator==(const RouterNode&) const = default;
};

// One device's processing graph: exactly what render() writes, so two
// descriptions compare equal iff their graphs are byte-identical. A bridge
// node continues to the router node ("next_nf") when the graph has one.
struct DeviceGraph {
  std::string device;
  int ifindex = 0;
  std::string hook;
  std::string dev_mac;
  // Nodes in processing order.
  std::optional<BridgeNode> bridge;
  std::optional<LoadBalanceNode> loadbalance;
  std::optional<FilterConf> filter;
  std::optional<RouterNode> router;

  bool has_nodes() const {
    return bridge || loadbalance || filter || router;
  }
  bool operator==(const DeviceGraph&) const = default;
};

// What every device's description reads of the routes, rules, sysctls and
// services. The gates decide which nodes a graph can have at all: routing
// active, a FORWARD filter present, bridge-nf-call-iptables, and services
// present. The rest is the content of the nodes they admit.
struct SharedInputs {
  std::size_t global_routes = 0;
  bool routing_active = false;  // ip_forward and a global-scope route
  std::optional<FilterConf> filter;
  bool br_nf = false;
  std::optional<LoadBalanceNode> loadbalance;

  bool same_gates(const SharedInputs& o) const {
    return routing_active == o.routing_active &&
           filter.has_value() == o.filter.has_value() && br_nf == o.br_nf &&
           loadbalance.has_value() == o.loadbalance.has_value();
  }
  bool operator==(const SharedInputs&) const = default;
};

struct TopologyOptions {
  // Which devices receive a fast path.
  bool attach_physical = true;
  bool attach_bridge_ports = false;  // veth/phys ports (TC container mode)
  bool attach_overlay = false;       // vxlan VTEP devices (decap ingress)
  std::string hook = "xdp";          // "xdp" or "tc"
};

class TopologyManager {
 public:
  explicit TopologyManager(TopologyOptions options = {})
      : options_(std::move(options)) {}

  static SharedInputs shared_inputs(const WorldView& view);

  // The description of `link` (an element of view.links) when it is
  // attachable, including one whose graph has no nodes; nullopt otherwise.
  std::optional<DeviceGraph> describe(const WorldView& view,
                                      const SharedInputs& shared,
                                      const LinkObject& link) const;

  // Whether `graph` read the content of the shared inputs (it has an L3
  // node, or a bridge node with br_netfilter). While the gates hold, a
  // change of the shared inputs changes no other description.
  static bool reads_shared(const DeviceGraph& graph) {
    return graph.router || (graph.bridge && graph.bridge->filter);
  }

  // One description per attachable device, ascending by ifindex (the order
  // of view.links), including devices whose graph has no nodes.
  std::vector<DeviceGraph> describe(const WorldView& view) const;

  // The graph JSON of one description.
  static util::Json render(const DeviceGraph& graph);

  // The rendered graphs of every described device with nodes: a JSON array.
  util::Json build(const WorldView& view) const;

  // Stable signature for change detection, of one graph or of an array.
  static std::string signature(const util::Json& graphs) {
    return graphs.dump();
  }

 private:
  TopologyOptions options_;
};

}  // namespace linuxfp::core
