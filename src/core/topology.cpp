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

util::Json render_filter(const FilterConf& f) {
  util::Json conf = util::Json::object();
  conf["hook"] = "FORWARD";
  conf["rule_count"] = static_cast<std::int64_t>(f.rule_count);
  conf["needs_ports"] = f.forward.needs_ports;
  conf["uses_sets"] = f.forward.uses_sets;
  conf["has_out_if"] = f.forward.has_out_if;
  return conf;
}

util::Json render_node(util::Json conf, bool next_router) {
  util::Json node = util::Json::object();
  node["conf"] = std::move(conf);
  if (next_router) node["next_nf"] = "router";
  return node;
}

}  // namespace

SharedInputs TopologyManager::shared_inputs(const WorldView& view) {
  SharedInputs s;
  s.global_routes = view.global_route_count();
  s.routing_active = view.ip_forward() && s.global_routes > 0;
  if (view.forward_rule_count() > 0 || view.forward_has_policy_drop()) {
    s.filter = FilterConf{view.forward_rule_count(), scan_forward_rules(view)};
  }
  auto br_nf_it = view.sysctls.find("net.bridge.bridge-nf-call-iptables");
  s.br_nf = br_nf_it != view.sysctls.end() && br_nf_it->second != 0;
  if (!view.services.empty()) {
    // The VIP endpoints are baked into the synthesized code: traffic not
    // addressed to any service skips the conntrack lookup entirely.
    LoadBalanceNode& lb = s.loadbalance.emplace();
    lb.services.reserve(view.services.size());
    for (const ServiceObject& svc : view.services) {
      lb.services.push_back({svc.vip, svc.port, svc.proto});
    }
  }
  return s;
}

std::optional<DeviceGraph> TopologyManager::describe(
    const WorldView& view, const SharedInputs& shared,
    const LinkObject& link) const {
  if (!link.up) return std::nullopt;
  bool attachable =
      (options_.attach_physical && link.kind == "physical" &&
       link.master == 0) ||
      (options_.attach_bridge_ports && link.master != 0 &&
       (link.kind == "veth" || link.kind == "physical")) ||
      (options_.attach_overlay && link.kind == "vxlan" && link.master == 0);
  if (!attachable) return std::nullopt;
  std::optional<DeviceGraph> out;
  DeviceGraph& g = out.emplace();
  g.device = link.ifname;
  g.ifindex = link.ifindex;
  g.hook = options_.hook;
  g.dev_mac = link.mac;

  // Load balancer, filter and router for traffic routed at `owner`'s
  // addresses. Locally-terminated traffic (addresses the owner holds) is
  // a slow-path concern; the synthesized code punts it before the FIB
  // lookup (configuration-specialized early exit).
  auto add_l3 = [&](const LinkObject& owner) {
    g.loadbalance = shared.loadbalance;
    g.filter = shared.filter;
    RouterNode& router = g.router.emplace();
    router.route_count = shared.global_routes;
    router.local_addrs.reserve(owner.addrs.size());
    for (const std::string& addr : owner.addrs) {
      router.local_addrs.push_back(addr.substr(0, addr.find('/')));
    }
  };

  const LinkObject* master = nullptr;
  if (link.master != 0) {
    auto it = view.links.find(link.master);
    if (it != view.links.end()) master = &it->second;
  }
  if (master && master->kind == "bridge") {
    // The device is an enslaved bridge port.
    BridgeNode& bridge = g.bridge.emplace();
    bridge.bridge = master->ifname;
    bridge.bridge_ifindex = master->ifindex;
    bridge.bridge_mac = master->mac;
    bridge.stp = master->stp;
    bridge.vlan_filtering = master->vlan_filtering;
    if (shared.br_nf) bridge.filter = shared.filter;
    // Routed traffic addressed to the bridge interface continues to the
    // router FPM when the bridge has addresses and routing is active
    // (paper: "routes referring to the bridge interfaces will create a
    // next_nf: router FPM within the bridge JSON description").
    if (shared.routing_active && master->has_addresses()) add_l3(*master);
  } else if (shared.routing_active && link.has_addresses()) {
    add_l3(link);  // plain L3 device
  }
  return out;
}

std::vector<DeviceGraph> TopologyManager::describe(
    const WorldView& view) const {
  const SharedInputs shared = shared_inputs(view);
  std::vector<DeviceGraph> graphs;
  graphs.reserve(view.links.size());
  for (const auto& [ifindex, link] : view.links) {
    if (std::optional<DeviceGraph> g = describe(view, shared, link)) {
      graphs.push_back(std::move(*g));
    }
  }
  return graphs;
}

util::Json TopologyManager::render(const DeviceGraph& g) {
  util::Json graph = util::Json::object();
  graph["device"] = g.device;
  graph["ifindex"] = g.ifindex;
  graph["hook"] = g.hook;
  graph["dev_mac"] = g.dev_mac;
  util::Json nodes = util::Json::object();
  if (g.bridge) {
    const BridgeNode& b = *g.bridge;
    util::Json conf = util::Json::object();
    conf["bridge"] = b.bridge;
    conf["bridge_ifindex"] = b.bridge_ifindex;
    conf["bridge_mac"] = b.bridge_mac;
    conf["STP_enabled"] = b.stp;
    conf["VLAN_enabled"] = b.vlan_filtering;
    if (b.filter) {
      conf["br_netfilter"] = true;
      conf["filter"] = render_filter(*b.filter);
    }
    nodes["bridge"] = render_node(std::move(conf), g.router.has_value());
  }
  if (g.loadbalance) {
    const std::vector<ServiceEndpoint>& endpoints = g.loadbalance->services;
    util::Json conf = util::Json::object();
    conf["service_count"] = static_cast<std::int64_t>(endpoints.size());
    util::Json services = util::Json::array();
    for (const ServiceEndpoint& svc : endpoints) {
      util::Json sj = util::Json::object();
      sj["vip"] = svc.vip;
      sj["port"] = svc.port;
      sj["proto"] = svc.proto;
      services.push_back(std::move(sj));
    }
    conf["services"] = std::move(services);
    nodes["loadbalance"] = render_node(std::move(conf), true);
  }
  if (g.filter) {
    nodes["filter"] = render_node(render_filter(*g.filter), true);
  }
  if (g.router) {
    util::Json conf = util::Json::object();
    conf["route_count"] = static_cast<std::int64_t>(g.router->route_count);
    util::Json locals = util::Json::array();
    for (const std::string& addr : g.router->local_addrs) {
      locals.push_back(addr);
    }
    conf["local_addrs"] = std::move(locals);
    nodes["router"] = render_node(std::move(conf), false);
  }
  graph["nodes"] = std::move(nodes);
  return graph;
}

util::Json TopologyManager::build(const WorldView& view) const {
  util::JsonArray graphs;
  for (const DeviceGraph& g : describe(view)) {
    if (g.has_nodes()) graphs.push_back(render(g));
  }
  return util::Json(std::move(graphs));
}

}  // namespace linuxfp::core
