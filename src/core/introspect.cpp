#include "core/introspect.h"

#include <algorithm>

#include "util/fault.h"

namespace linuxfp::core {

namespace {

// One decoder per object kind, shared by dumps and change events (the kernel
// encodes both with the same code).

LinkObject link_from_attrs(const util::Json& a) {
  LinkObject l;
  l.ifindex = static_cast<int>(a.at("ifindex").as_int());
  l.ifname = a.at("ifname").as_string();
  l.kind = a.at("kind").as_string();
  l.mac = a.at("mac").as_string();
  l.up = a.at("up").as_bool();
  l.mtu = static_cast<std::uint32_t>(a.at("mtu").as_int(1500));
  l.master = static_cast<int>(a.at("master").as_int());
  l.stp = a.at("stp").as_bool();
  l.vlan_filtering = a.at("vlan_filtering").as_bool();
  l.vni = static_cast<std::uint32_t>(a.at("vni").as_int());
  for (std::size_t i = 0; i < a.at("addrs").size(); ++i) {
    l.addrs.push_back(a.at("addrs").at(i).as_string());
  }
  l.stp_state = a.at("stp_state").as_string();
  l.pvid = static_cast<std::uint16_t>(a.at("pvid").as_int(1));
  return l;
}

RouteObject route_from_attrs(const util::Json& a) {
  RouteObject r;
  r.dst = a.at("dst").as_string();
  r.gateway = a.at("gateway").as_string();
  r.oif = static_cast<int>(a.at("oif").as_int());
  r.dev = a.at("dev").as_string();
  r.scope = a.at("scope").as_string();
  r.metric = static_cast<std::uint32_t>(a.at("metric").as_int());
  return r;
}

NeighObject neigh_from_attrs(const util::Json& a) {
  NeighObject n;
  n.ip = a.at("ip").as_string();
  n.mac = a.at("mac").as_string();
  n.dev = a.at("dev").as_string();
  n.state = a.at("state").as_string();
  n.dynamic = a.at("dynamic").as_bool(true);
  return n;
}

RuleObject rule_from_attrs(const util::Json& a) {
  RuleObject r;
  const std::string& target = a.at("target").as_string();
  if (target != "ACCEPT" && target != "DROP" && target != "RETURN") {
    r.jump = target;
  }
  // State matches need ports too: the conntrack key is the full 5-tuple.
  r.ports = a.contains("dport") || a.contains("sport") ||
            a.contains("ct_state");
  r.out_if = a.contains("out_if");
  r.match_set = a.contains("match_set");
  return r;
}

ChainObject chain_from_attrs(const util::Json& a) {
  ChainObject c;
  c.name = a.at("chain").as_string();
  c.builtin = a.at("builtin").as_bool();
  c.policy = a.at("policy").as_string();
  const util::Json& rules = a.at("rules");
  c.rules.reserve(rules.size());
  for (std::size_t i = 0; i < rules.size(); ++i) {
    c.rules.push_back(rule_from_attrs(rules.at(i)));
  }
  return c;
}

SetObject set_from_attrs(const util::Json& a) {
  SetObject s;
  s.name = a.at("set").as_string();
  s.type = a.at("type").as_string();
  s.size = static_cast<std::size_t>(a.at("size").as_int());
  return s;
}

ServiceObject service_from_attrs(const util::Json& a) {
  ServiceObject svc;
  svc.vip = a.at("vip").as_string();
  svc.port = static_cast<int>(a.at("port").as_int());
  svc.proto = static_cast<int>(a.at("proto").as_int());
  svc.scheduler = a.at("scheduler").as_string();
  svc.backend_count = a.at("backends").size();
  return svc;
}

// Where the port `ifindex` is, or belongs, in a bridge's ascending list.
std::vector<PortObject>::iterator port_at(std::vector<PortObject>& ports,
                                          int ifindex) {
  return std::lower_bound(
      ports.begin(), ports.end(), ifindex,
      [](const PortObject& p, int i) { return p.ifindex < i; });
}

// Applies an add or a delete of `obj` to a table keyed by `same`: an add
// replaces the matching element in place or appends. `same` may read `obj`,
// which is moved only after the search.
template <typename T, typename Same>
void update(std::vector<T>& table, T&& obj, bool del, Same same) {
  auto it = std::find_if(table.begin(), table.end(), same);
  if (del) {
    if (it != table.end()) table.erase(it);
  } else if (it != table.end()) {
    *it = std::move(obj);
  } else {
    table.push_back(std::move(obj));
  }
}

}  // namespace

ServiceIntrospection::ServiceIntrospection(nl::Bus& bus) : bus_(bus) {
  socket_ = bus_.open_socket();
  socket_->join(nl::Group::kLink);
  socket_->join(nl::Group::kAddr);
  socket_->join(nl::Group::kRoute);
  socket_->join(nl::Group::kNeigh);
  socket_->join(nl::Group::kNetfilter);
  socket_->join(nl::Group::kSysctl);
  socket_->join(nl::Group::kIpvs);
}

ServiceIntrospection::Table ServiceIntrospection::table_of(nl::MsgType type) {
  switch (type) {
    case nl::MsgType::kNewLink:
    case nl::MsgType::kDelLink:
    case nl::MsgType::kNewAddr:
    case nl::MsgType::kDelAddr: return kLinks;
    case nl::MsgType::kNewRoute:
    case nl::MsgType::kDelRoute: return kRoutes;
    case nl::MsgType::kNewNeigh:
    case nl::MsgType::kDelNeigh: return kNeighbors;
    case nl::MsgType::kNewRule:
    case nl::MsgType::kDelRule: return kRules;
    case nl::MsgType::kNewSet:
    case nl::MsgType::kDelSet: return kSets;
    case nl::MsgType::kNewService:
    case nl::MsgType::kDelService: return kServices;
    case nl::MsgType::kSysctl: return kSysctls;
  }
  return kSysctls;
}

void ServiceIntrospection::initial_sync() {
  nl::Message msg;
  while (socket_->receive(msg)) {
  }
  for (int t = 0; t < kTableCount; ++t) sync(static_cast<Table>(t));
}

bool ServiceIntrospection::poll() {
  bool changed = false;
  nl::Message msg;
  while (socket_->receive(msg)) {
    ++events_;
    // A stale table is re-dumped below, and that dump includes this event.
    if (stale_[table_of(msg.type)]) continue;
    changed = apply(msg) || changed;
  }
  for (int t = 0; t < kTableCount; ++t) {
    if (stale_[t]) changed = sync(static_cast<Table>(t)) || changed;
  }
  return changed;
}

bool ServiceIntrospection::sync(Table table) {
  if (util::FaultInjector::global().should_fail(util::kFaultNetlinkDump)) {
    ++dump_failures_;
    stale_[table] = true;
    return false;
  }
  stale_[table] = false;
  switch (table) {
    case kLinks:
      for (const auto& [ifindex, l] : view_.links) {
        changes_.links.push_back(ifindex);
      }
      view_.links.clear();
      for (const nl::Message& m : bus_.dump(nl::DumpKind::kLinks)) {
        LinkObject l = link_from_attrs(m.attrs);
        changes_.links.push_back(l.ifindex);
        view_.links[l.ifindex] = std::move(l);
      }
      // Every master is in the view now; ports ascend as the dump does.
      for (const auto& [ifindex, l] : view_.links) {
        if (l.master != 0) list_port(l);
      }
      break;
    case kRoutes:
      view_.routes.clear();
      for (const nl::Message& m : bus_.dump(nl::DumpKind::kRoutes)) {
        view_.routes.push_back(route_from_attrs(m.attrs));
      }
      break;
    case kRules:
      view_.chains.clear();
      for (const nl::Message& m : bus_.dump(nl::DumpKind::kRules)) {
        ChainObject c = chain_from_attrs(m.attrs);
        view_.chains[c.name] = std::move(c);
      }
      break;
    case kSets:
      view_.sets.clear();
      for (const nl::Message& m : bus_.dump(nl::DumpKind::kSets)) {
        SetObject s = set_from_attrs(m.attrs);
        view_.sets[s.name] = std::move(s);
      }
      break;
    case kNeighbors:
      view_.neighbors.clear();
      for (const nl::Message& m : bus_.dump(nl::DumpKind::kNeighbors)) {
        view_.neighbors.push_back(neigh_from_attrs(m.attrs));
      }
      break;
    case kServices:
      view_.services.clear();
      for (const nl::Message& m : bus_.dump(nl::DumpKind::kServices)) {
        view_.services.push_back(service_from_attrs(m.attrs));
      }
      break;
    case kSysctls:
      view_.sysctls.clear();
      for (const nl::Message& m : bus_.dump(nl::DumpKind::kSysctls)) {
        view_.sysctls[m.attrs.at("key").as_string()] =
            static_cast<int>(m.attrs.at("value").as_int());
      }
      break;
    case kTableCount:
      break;
  }
  if (table == kRoutes || table == kRules || table == kServices ||
      table == kSysctls) {
    changes_.shared = true;
  }
  return true;
}

bool ServiceIntrospection::apply(const nl::Message& msg) {
  const util::Json& a = msg.attrs;
  const bool del = msg.type == nl::MsgType::kDelLink ||
                   msg.type == nl::MsgType::kDelRoute ||
                   msg.type == nl::MsgType::kDelNeigh ||
                   msg.type == nl::MsgType::kDelSet ||
                   msg.type == nl::MsgType::kDelService;
  switch (msg.type) {
    case nl::MsgType::kNewLink:
    case nl::MsgType::kDelLink:
      apply_link(link_from_attrs(a), del);
      return true;
    case nl::MsgType::kNewAddr:
    case nl::MsgType::kDelAddr:
      // Addresses live inside link objects: their events carry the link.
      apply_link(link_from_attrs(a.at("link")), false);
      return true;
    case nl::MsgType::kNewRoute:
    case nl::MsgType::kDelRoute: {
      // Keyed by (prefix, metric), as in the FIB.
      RouteObject r = route_from_attrs(a);
      auto same = [&r](const RouteObject& o) {
        return o.metric == r.metric && o.dst == r.dst;
      };
      update(view_.routes, std::move(r), del, same);
      changes_.shared = true;
      return true;
    }
    case nl::MsgType::kNewNeigh:
    case nl::MsgType::kDelNeigh: {
      // Dynamic (learned) neighbour churn does not change the fast path:
      // helpers read the live table. Only static entries matter, before or
      // after the change.
      NeighObject n = neigh_from_attrs(a);
      auto same = [&n](const NeighObject& o) { return o.ip == n.ip; };
      auto was_static = [&same](const NeighObject& o) {
        return same(o) && !o.dynamic;
      };
      const bool relevant =
          !n.dynamic || std::any_of(view_.neighbors.begin(),
                                    view_.neighbors.end(), was_static);
      update(view_.neighbors, std::move(n), del, same);
      return relevant;
    }
    case nl::MsgType::kNewRule:
    case nl::MsgType::kDelRule:
      changes_.shared = true;
      return apply_rule(a);
    case nl::MsgType::kNewSet:
    case nl::MsgType::kDelSet: {
      SetObject s = set_from_attrs(a);
      if (del) view_.sets.erase(s.name);
      else view_.sets[s.name] = std::move(s);
      return true;
    }
    case nl::MsgType::kSysctl:
      view_.sysctls[a.at("key").as_string()] =
          static_cast<int>(a.at("value").as_int());
      changes_.shared = true;
      return true;
    case nl::MsgType::kNewService:
    case nl::MsgType::kDelService: {
      // Kept in the kernel's order: the synthesized code lists the VIPs.
      ServiceObject svc = service_from_attrs(a);
      auto same = [&svc](const ServiceObject& o) {
        return o.port == svc.port && o.proto == svc.proto && o.vip == svc.vip;
      };
      update(view_.services, std::move(svc), del, same);
      changes_.shared = true;
      return true;
    }
  }
  return false;
}

void ServiceIntrospection::apply_link(LinkObject link, bool del) {
  changes_.links.push_back(link.ifindex);
  auto it = view_.links.find(link.ifindex);
  if (it != view_.links.end()) {
    LinkObject& old = it->second;
    // The ports' descriptions read their bridge.
    for (const PortObject& p : old.ports) changes_.links.push_back(p.ifindex);
    if (old.master != 0 && (del || old.master != link.master)) {
      unlist_port(old.master, link.ifindex);
    }
    if (del) {
      view_.links.erase(it);
      return;
    }
    // Derived from the ports' own links, never carried by the bridge's.
    link.ports = std::move(old.ports);
  } else if (del) {
    return;
  }
  if (link.master != 0) list_port(link);
  view_.links[link.ifindex] = std::move(link);
}

void ServiceIntrospection::list_port(const LinkObject& port) {
  auto master = view_.links.find(port.master);
  if (master == view_.links.end()) return;
  std::vector<PortObject>& ports = master->second.ports;
  auto at = port_at(ports, port.ifindex);
  if (at == ports.end() || at->ifindex != port.ifindex) {
    at = ports.insert(at, PortObject{});
  }
  at->ifindex = port.ifindex;
  at->ifname = port.ifname;
  at->stp_state = port.stp_state;
  at->pvid = port.pvid;
}

void ServiceIntrospection::unlist_port(int master, int port_ifindex) {
  auto it = view_.links.find(master);
  if (it == view_.links.end()) return;
  std::vector<PortObject>& ports = it->second.ports;
  auto at = port_at(ports, port_ifindex);
  if (at != ports.end() && at->ifindex == port_ifindex) ports.erase(at);
}

bool ServiceIntrospection::apply_rule(const util::Json& a) {
  const std::string& name = a.at("chain").as_string();
  const std::string& op = a.at("op").as_string();
  if (op == "new_chain") {
    ChainObject c;
    c.name = name;
    view_.chains[name] = std::move(c);
    return true;
  }
  if (op == "delete_chain") {
    view_.chains.erase(name);
    return true;
  }
  auto it = view_.chains.find(name);
  std::vector<RuleObject>* rules =
      it == view_.chains.end() ? nullptr : &it->second.rules;
  const auto index = static_cast<std::size_t>(a.at("index").as_int());
  const auto at = static_cast<std::ptrdiff_t>(index);
  if (rules && op == "insert" && index <= rules->size()) {
    rules->insert(rules->begin() + at, rule_from_attrs(a.at("rule")));
  } else if (rules && op == "delete" && index < rules->size()) {
    rules->erase(rules->begin() + at);
  } else if (rules && op == "flush") {
    rules->clear();
  } else if (rules && op == "policy") {
    it->second.policy = a.at("policy").as_string();
  } else {
    // The event does not fit the view: poll() re-dumps the table.
    stale_[kRules] = true;
  }
  return true;
}

}  // namespace linuxfp::core
