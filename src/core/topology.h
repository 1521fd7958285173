// Topology Manager: derives relationships between LinuxFP objects and emits
// the per-device processing graph as JSON (paper §IV-C2, Fig 3).
//
// Graph shape (one graph per attachable device):
//   {
//     "device": "ens1f0", "ifindex": 2, "hook": "xdp",
//     "nodes": {
//       "bridge": {"conf": {...}, "next_nf": "router"},
//       "filter": {"conf": {...}, "next_nf": "router"},
//       "router": {"conf": {...}}
//     }
//   }
// Keys of "nodes" are FPMs in processing order; "conf" sub-keys specialize
// the synthesized code (e.g. VLAN parsing only when the bridge filters
// VLANs); "next_nf" records the processing dependency.
#pragma once

#include <string>
#include <vector>

#include "core/objects.h"
#include "util/json.h"

namespace linuxfp::core {

// What the filter FPM specializes on, over every rule reachable from
// FORWARD. Computed once per build.
struct ForwardRules {
  // A rule matches L4 ports or conntrack state: the fast path must parse
  // ports (the conntrack key is the full 5-tuple).
  bool needs_ports = false;
  // A rule matches an ipset.
  bool uses_sets = false;
  // A rule matches the output interface (where the filter can run relative
  // to the FIB lookup).
  bool has_out_if = false;
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

  // Builds the graphs for every attachable device. Returns a JSON array.
  util::Json build(const WorldView& view) const;

  // Stable signature for change detection: the controller re-synthesizes
  // only when this changes.
  static std::string signature(const util::Json& graphs) {
    return graphs.dump();
  }

  // signature(graphs) formed from the signatures of its elements: "[" +
  // the per-graph dumps joined by ", " + "]", byte for byte the array's
  // dump. The controller dumps each graph once per reaction and joins.
  static std::string join_signatures(const std::vector<std::string>& sigs);

 private:
  util::Json build_for_device(const WorldView& view, const LinkObject& link,
                              const ForwardRules& forward,
                              std::size_t global_routes) const;

  TopologyOptions options_;
};

}  // namespace linuxfp::core
