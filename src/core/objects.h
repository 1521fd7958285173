// LinuxFP objects: typed descriptions of network services currently
// configured in the kernel, built from netlink messages by the Service
// Introspection component (paper §IV-C1). The WorldView aggregates them and
// is the sole input of the Topology Manager — the controller never reaches
// into kernel structures directly, only through introspection.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/ipaddr.h"
#include "net/mac.h"

namespace linuxfp::core {

struct PortObject {
  int ifindex = 0;
  std::string ifname;
  std::string stp_state;  // "forwarding" etc.
  std::uint16_t pvid = 1;

  bool operator==(const PortObject&) const = default;
};

struct LinkObject {
  int ifindex = 0;
  std::string ifname;
  std::string kind;  // physical | veth | bridge | vxlan | loopback
  std::string mac;
  bool up = false;
  std::uint32_t mtu = 1500;
  int master = 0;
  std::vector<std::string> addrs;
  // bridge-port-specific, set while enslaved
  std::string stp_state;
  std::uint16_t pvid = 1;
  // bridge-specific. `ports` ascends by ifindex; the introspection derives
  // it from the ports' links, which carry their master.
  bool stp = false;
  bool vlan_filtering = false;
  std::vector<PortObject> ports;
  // vxlan-specific
  std::uint32_t vni = 0;

  bool has_addresses() const { return !addrs.empty(); }
  bool operator==(const LinkObject&) const = default;
};

struct RouteObject {
  std::string dst;      // prefix text
  std::string gateway;  // empty for connected routes
  int oif = 0;
  std::string dev;
  std::string scope;
  std::uint32_t metric = 0;

  bool operator==(const RouteObject&) const = default;
};

struct NeighObject {
  std::string ip;
  std::string mac;
  std::string dev;
  std::string state;
  bool dynamic = true;

  bool operator==(const NeighObject&) const = default;
};

// What the topology reads of one iptables rule.
struct RuleObject {
  std::string jump;  // target chain; empty for ACCEPT, DROP and RETURN
  bool ports = false;      // --sport/--dport, or a conntrack state match
  bool out_if = false;     // -o
  bool match_set = false;  // -m set --match-set

  bool operator==(const RuleObject&) const = default;
};

struct ChainObject {
  std::string name;
  bool builtin = false;
  std::string policy = "ACCEPT";
  std::vector<RuleObject> rules;

  bool operator==(const ChainObject&) const = default;
};

struct ServiceObject {
  std::string vip;
  int port = 0;
  int proto = 6;
  std::string scheduler;
  std::size_t backend_count = 0;

  bool operator==(const ServiceObject&) const = default;
};

struct SetObject {
  std::string name;
  std::string type;
  std::size_t size = 0;

  bool operator==(const SetObject&) const = default;
};

// The controller's complete introspected view of one kernel.
struct WorldView {
  std::map<int, LinkObject> links;
  std::vector<RouteObject> routes;
  std::vector<NeighObject> neighbors;
  std::map<std::string, ChainObject> chains;
  std::map<std::string, SetObject> sets;
  std::vector<ServiceObject> services;
  std::map<std::string, int> sysctls;

  bool ip_forward() const {
    auto it = sysctls.find("net.ipv4.ip_forward");
    return it != sysctls.end() && it->second != 0;
  }
  const LinkObject* link_by_name(const std::string& name) const {
    for (const auto& [ifi, l] : links) {
      if (l.ifname == name) return &l;
    }
    return nullptr;
  }
  std::size_t forward_rule_count() const {
    auto it = chains.find("FORWARD");
    return it == chains.end() ? 0 : it->second.rules.size();
  }
  bool forward_has_policy_drop() const {
    auto it = chains.find("FORWARD");
    return it != chains.end() && it->second.policy == "DROP";
  }
  // Non-connected (global-scope) routes, the signal that routing is in use.
  std::size_t global_route_count() const {
    std::size_t n = 0;
    for (const auto& r : routes) {
      if (r.scope != "link") ++n;
    }
    return n;
  }
};

}  // namespace linuxfp::core
