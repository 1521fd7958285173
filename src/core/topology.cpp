#include "core/topology.h"

#include <set>
#include <string_view>

namespace linuxfp::core {

namespace {

// Walks FORWARD and every chain reachable from it through jump targets once
// (user chains are reachable fast-path state too), collecting what the
// filter FPM must specialize on.
ForwardRules scan_forward_rules(const WorldView& view) {
  ForwardRules f;
  std::vector<const std::string*> pending;
  std::set<std::string_view> visited;
  static const std::string kForward = "FORWARD";
  pending.push_back(&kForward);
  while (!pending.empty()) {
    const std::string& name = *pending.back();
    pending.pop_back();
    if (!visited.insert(name).second) continue;
    auto it = view.chains.find(name);
    if (it == view.chains.end()) continue;
    for (const RuleObject& r : it->second.rules) {
      f.needs_ports |= r.ports;
      f.has_out_if |= r.out_if;
      f.uses_sets |= r.match_set;
      if (!r.jump.empty()) pending.push_back(&r.jump);
    }
  }
  return f;
}

}  // namespace

util::Json TopologyManager::build(const WorldView& view) const {
  util::JsonArray graphs;
  graphs.reserve(view.links.size());
  const ForwardRules forward = scan_forward_rules(view);
  const std::size_t global_routes = view.global_route_count();
  for (const auto& [ifindex, link] : view.links) {
    if (!link.up) continue;
    bool attachable =
        (options_.attach_physical && link.kind == "physical" &&
         link.master == 0) ||
        (options_.attach_bridge_ports && link.master != 0 &&
         (link.kind == "veth" || link.kind == "physical")) ||
        (options_.attach_overlay && link.kind == "vxlan" && link.master == 0);
    if (!attachable) continue;
    util::Json g = build_for_device(view, link, forward, global_routes);
    if (g.at("nodes").size() > 0) graphs.push_back(std::move(g));
  }
  return util::Json(std::move(graphs));
}

std::string TopologyManager::join_signatures(
    const std::vector<std::string>& sigs) {
  std::size_t length = 2;
  for (const std::string& sig : sigs) length += sig.size() + 2;
  std::string joined;
  joined.reserve(length);
  joined += '[';
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    if (i > 0) joined += ", ";
    joined += sigs[i];
  }
  joined += ']';
  return joined;
}

util::Json TopologyManager::build_for_device(
    const WorldView& view, const LinkObject& link, const ForwardRules& forward,
    std::size_t global_routes) const {
  util::Json graph = util::Json::object();
  graph["device"] = link.ifname;
  graph["ifindex"] = link.ifindex;
  graph["hook"] = options_.hook;
  graph["dev_mac"] = link.mac;
  util::Json nodes = util::Json::object();

  bool routing_active = view.ip_forward() && global_routes > 0;
  bool filtering_active =
      view.forward_rule_count() > 0 || view.forward_has_policy_drop();

  const LinkObject* master = nullptr;
  if (link.master != 0) {
    auto it = view.links.find(link.master);
    if (it != view.links.end()) master = &it->second;
  }

  auto filter_conf = [&view, &forward]() {
    util::Json fconf = util::Json::object();
    fconf["hook"] = "FORWARD";
    fconf["rule_count"] = static_cast<std::int64_t>(view.forward_rule_count());
    fconf["needs_ports"] = forward.needs_ports;
    fconf["uses_sets"] = forward.uses_sets;
    fconf["has_out_if"] = forward.has_out_if;
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
      services.push_back(std::move(sj));
    }
    conf["services"] = std::move(services);
    util::Json node = util::Json::object();
    node["conf"] = std::move(conf);
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
    node["conf"] = std::move(conf);
    // Routed traffic addressed to the bridge interface continues to the
    // router FPM when the bridge has addresses and routing is active
    // (paper: "routes referring to the bridge interfaces will create a
    // next_nf: router FPM within the bridge JSON description").
    bool bridge_routes = routing_active && master->has_addresses();
    if (bridge_routes) node["next_nf"] = "router";
    nodes["bridge"] = std::move(node);
    if (bridge_routes) {
      if (lb_active) nodes["loadbalance"] = lb_node();
      if (filtering_active) {
        util::Json fnode = util::Json::object();
        fnode["conf"] = filter_conf();
        fnode["next_nf"] = "router";
        nodes["filter"] = std::move(fnode);
      }
      util::Json rconf = util::Json::object();
      rconf["route_count"] = static_cast<std::int64_t>(global_routes);
      // Locally-terminated traffic (addresses owned by the bridge) is a
      // slow-path concern; the synthesized code punts it before the FIB
      // lookup (configuration-specialized early exit).
      util::Json locals = util::Json::array();
      for (const std::string& addr : master->addrs) {
        locals.push_back(addr.substr(0, addr.find('/')));
      }
      rconf["local_addrs"] = std::move(locals);
      util::Json rnode = util::Json::object();
      rnode["conf"] = std::move(rconf);
      nodes["router"] = std::move(rnode);
    }
    graph["nodes"] = std::move(nodes);
    return graph;
  }

  // --- plain L3 device ----------------------------------------------------------
  if (routing_active && link.has_addresses()) {
    if (lb_active) nodes["loadbalance"] = lb_node();
    if (filtering_active) {
      util::Json fnode = util::Json::object();
      fnode["conf"] = filter_conf();
      fnode["next_nf"] = "router";
      nodes["filter"] = std::move(fnode);
    }
    util::Json rconf = util::Json::object();
    rconf["route_count"] = static_cast<std::int64_t>(global_routes);
    util::Json locals = util::Json::array();
    for (const std::string& addr : link.addrs) {
      locals.push_back(addr.substr(0, addr.find('/')));
    }
    rconf["local_addrs"] = std::move(locals);
    util::Json rnode = util::Json::object();
    rnode["conf"] = std::move(rconf);
    nodes["router"] = std::move(rnode);
  }

  graph["nodes"] = std::move(nodes);
  return graph;
}

}  // namespace linuxfp::core
