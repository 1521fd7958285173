#include "core/topology.h"

#include <algorithm>

namespace linuxfp::core {

namespace {

// Walks FORWARD and every chain reachable from it through jump targets,
// checking `pred` against each rule (user chains are reachable fast-path
// state too).
bool any_forward_rule(const WorldView& view,
                      bool (*pred)(const util::Json&)) {
  std::vector<std::string> pending{"FORWARD"};
  std::vector<std::string> visited;
  while (!pending.empty()) {
    std::string name = pending.back();
    pending.pop_back();
    if (std::find(visited.begin(), visited.end(), name) != visited.end()) {
      continue;
    }
    visited.push_back(name);
    auto it = view.chains.find(name);
    if (it == view.chains.end()) continue;
    for (const RuleObject& r : it->second.rules) {
      if (pred(r.raw)) return true;
      const std::string& target = r.raw.at("target").as_string();
      if (target != "ACCEPT" && target != "DROP" && target != "RETURN") {
        pending.push_back(target);
      }
    }
  }
  return false;
}

// Does any FORWARD-reachable rule require L4 port parsing? State matches
// need ports too: the conntrack key is the full 5-tuple, so the fast path
// must hand the helper real ports for state parity with the slow path.
bool forward_needs_ports(const WorldView& view) {
  return any_forward_rule(view, [](const util::Json& r) {
    return r.contains("dport") || r.contains("sport") ||
           r.contains("ct_state");
  });
}

// Any rule matching on the output interface? (affects where the filter can
// run relative to the FIB lookup)
bool forward_has_out_if(const WorldView& view) {
  return any_forward_rule(
      view, [](const util::Json& r) { return r.contains("out_if"); });
}

bool forward_uses_sets(const WorldView& view) {
  return any_forward_rule(
      view, [](const util::Json& r) { return r.contains("match_set"); });
}

}  // namespace

util::Json TopologyManager::build(const WorldView& view) const {
  util::Json graphs = util::Json::array();
  for (const auto& [ifindex, link] : view.links) {
    if (!link.up) continue;
    bool attachable =
        (options_.attach_physical && link.kind == "physical" &&
         link.master == 0) ||
        (options_.attach_bridge_ports && link.master != 0 &&
         (link.kind == "veth" || link.kind == "physical")) ||
        (options_.attach_overlay && link.kind == "vxlan" && link.master == 0);
    if (!attachable) continue;
    util::Json g = build_for_device(view, link);
    if (g.at("nodes").size() > 0) graphs.push_back(std::move(g));
  }
  return graphs;
}

util::Json TopologyManager::build_for_device(const WorldView& view,
                                             const LinkObject& link) const {
  util::Json graph = util::Json::object();
  graph["device"] = link.ifname;
  graph["ifindex"] = link.ifindex;
  graph["hook"] = options_.hook;
  graph["dev_mac"] = link.mac;
  util::Json nodes = util::Json::object();

  bool routing_active = view.ip_forward() && view.global_route_count() > 0;
  bool filtering_active =
      view.forward_rule_count() > 0 || view.forward_has_policy_drop();

  const LinkObject* master = nullptr;
  if (link.master != 0) {
    auto it = view.links.find(link.master);
    if (it != view.links.end()) master = &it->second;
  }

  auto filter_conf = [&view]() {
    util::Json fconf = util::Json::object();
    fconf["hook"] = "FORWARD";
    fconf["rule_count"] = static_cast<std::int64_t>(view.forward_rule_count());
    fconf["needs_ports"] = forward_needs_ports(view);
    fconf["uses_sets"] = forward_uses_sets(view);
    fconf["has_out_if"] = forward_has_out_if(view);
    return fconf;
  };

  bool br_nf = view.sysctls.count("net.bridge.bridge-nf-call-iptables") &&
               view.sysctls.at("net.bridge.bridge-nf-call-iptables") != 0;
  bool lb_active = !view.services.empty();

  auto lb_node = [&view]() {
    util::Json conf = util::Json::object();
    conf["service_count"] =
        static_cast<std::int64_t>(view.services.size());
    // The VIP endpoints are baked into the synthesized code: traffic not
    // addressed to any service skips the conntrack lookup entirely.
    util::Json services = util::Json::array();
    for (const ServiceObject& svc : view.services) {
      util::Json sj = util::Json::object();
      sj["vip"] = svc.vip;
      sj["port"] = svc.port;
      sj["proto"] = svc.proto;
      services.push_back(sj);
    }
    conf["services"] = services;
    util::Json node = util::Json::object();
    node["conf"] = conf;
    node["next_nf"] = "router";
    return node;
  };

  // --- bridge node: device is an enslaved bridge port -------------------------
  if (master && master->kind == "bridge") {
    util::Json conf = util::Json::object();
    conf["bridge"] = master->ifname;
    conf["bridge_ifindex"] = master->ifindex;
    conf["bridge_mac"] = master->mac;
    conf["STP_enabled"] = master->stp;
    conf["VLAN_enabled"] = master->vlan_filtering;
    // br_netfilter: bridged traffic traverses the FORWARD chain, so the
    // bridge FPM must evaluate it too (specialized in only when active).
    if (br_nf && filtering_active) {
      conf["br_netfilter"] = true;
      conf["filter"] = filter_conf();
    }
    util::Json node = util::Json::object();
    node["conf"] = conf;
    // Routed traffic addressed to the bridge interface continues to the
    // router FPM when the bridge has addresses and routing is active
    // (paper: "routes referring to the bridge interfaces will create a
    // next_nf: router FPM within the bridge JSON description").
    bool bridge_routes = routing_active && master->has_addresses();
    if (bridge_routes) node["next_nf"] = "router";
    nodes["bridge"] = node;
    if (bridge_routes) {
      if (lb_active) nodes["loadbalance"] = lb_node();
      if (filtering_active) {
        util::Json fnode = util::Json::object();
        fnode["conf"] = filter_conf();
        fnode["next_nf"] = "router";
        nodes["filter"] = fnode;
      }
      util::Json rconf = util::Json::object();
      rconf["route_count"] =
          static_cast<std::int64_t>(view.global_route_count());
      // Locally-terminated traffic (addresses owned by the bridge) is a
      // slow-path concern; the synthesized code punts it before the FIB
      // lookup (configuration-specialized early exit).
      util::Json locals = util::Json::array();
      for (const std::string& addr : master->addrs) {
        locals.push_back(addr.substr(0, addr.find('/')));
      }
      rconf["local_addrs"] = locals;
      util::Json rnode = util::Json::object();
      rnode["conf"] = rconf;
      nodes["router"] = rnode;
    }
    graph["nodes"] = nodes;
    return graph;
  }

  // --- plain L3 device ----------------------------------------------------------
  if (routing_active && link.has_addresses()) {
    if (lb_active) nodes["loadbalance"] = lb_node();
    if (filtering_active) {
      util::Json fnode = util::Json::object();
      fnode["conf"] = filter_conf();
      fnode["next_nf"] = "router";
      nodes["filter"] = fnode;
    }
    util::Json rconf = util::Json::object();
    rconf["route_count"] =
        static_cast<std::int64_t>(view.global_route_count());
    util::Json locals = util::Json::array();
    for (const std::string& addr : link.addrs) {
      locals.push_back(addr.substr(0, addr.find('/')));
    }
    rconf["local_addrs"] = locals;
    util::Json rnode = util::Json::object();
    rnode["conf"] = rconf;
    nodes["router"] = rnode;
  }

  graph["nodes"] = nodes;
  return graph;
}

}  // namespace linuxfp::core
