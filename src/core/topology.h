// Topology Manager: derives relationships between LinuxFP objects and emits
// the per-device processing graph (paper §IV-C2, Fig 3).
//
// `describe(view)` is the only graph builder. It returns one typed
// description (`DeviceGraph`) per attachable device, which holds exactly
// what the graph JSON says. `render(description)` writes that JSON, and
// `build(view)` is the array of the rendered descriptions that have nodes.
// Equal descriptions render byte-identical graphs, so a caller that keeps
// the last description per device re-renders only the devices whose
// description changed (DESIGN.md §17).
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

  // One description per attachable device, ascending by ifindex (the order
  // of view.links), including devices whose graph has no nodes.
  std::vector<DeviceGraph> describe(const WorldView& view) const;

  // The graph JSON of one description.
  static util::Json render(const DeviceGraph& graph);

  // The rendered graphs of every described device with nodes: a JSON array.
  util::Json build(const WorldView& view) const;

  // Stable signature for change detection: the controller re-synthesizes
  // only when this changes.
  static std::string signature(const util::Json& graphs) {
    return graphs.dump();
  }

  // signature(graphs) formed from the signatures of its elements: "[" +
  // the per-graph dumps joined by ", " + "]", byte for byte the array's
  // dump. The controller keeps each graph's dump and joins them.
  static std::string join_signatures(const std::vector<std::string>& sigs);

 private:
  TopologyOptions options_;
};

}  // namespace linuxfp::core
