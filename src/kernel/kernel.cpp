#include "kernel/kernel.h"

#include <algorithm>

#include "util/logging.h"

namespace linuxfp::kern {

namespace {
util::Json route_attrs(const Route& r, const std::string& dev_name) {
  util::Json j = util::Json::object();
  j["dst"] = r.dst.to_string();
  j["gateway"] = r.gateway.is_zero() ? "" : r.gateway.to_string();
  j["oif"] = r.oif;
  j["dev"] = dev_name;
  j["scope"] = r.scope == RouteScope::kLink ? "link" : "global";
  j["metric"] = static_cast<std::int64_t>(r.metric);
  return j;
}

const char* policy_name(NfVerdict policy) {
  return policy == NfVerdict::kDrop ? "DROP" : "ACCEPT";
}

util::Json rule_attrs(const Rule& r) {
  util::Json j = util::Json::object();
  if (r.match.src) j["src"] = r.match.src->to_string();
  if (r.match.dst) j["dst"] = r.match.dst->to_string();
  if (r.match.src_negated) j["src_neg"] = true;
  if (r.match.dst_negated) j["dst_neg"] = true;
  if (r.match.proto) j["proto"] = static_cast<int>(*r.match.proto);
  if (r.match.dport) j["dport"] = static_cast<int>(*r.match.dport);
  if (r.match.sport) j["sport"] = static_cast<int>(*r.match.sport);
  if (!r.match.in_if.empty()) j["in_if"] = r.match.in_if;
  if (!r.match.out_if.empty()) j["out_if"] = r.match.out_if;
  if (!r.match.match_set.empty()) {
    j["match_set"] = r.match.match_set;
    j["set_dir"] = r.match.set_match_src ? "src" : "dst";
  }
  if (!r.match.ct_state.empty()) j["ct_state"] = r.match.ct_state;
  switch (r.target) {
    case RuleTarget::kAccept: j["target"] = "ACCEPT"; break;
    case RuleTarget::kDrop: j["target"] = "DROP"; break;
    case RuleTarget::kReturn: j["target"] = "RETURN"; break;
    case RuleTarget::kJump: j["target"] = r.jump_chain; break;
  }
  return j;
}

util::Json set_attrs(const IpSet& s) {
  util::Json j = util::Json::object();
  j["set"] = s.name();
  j["type"] = s.type() == IpSetType::kHashIp ? "hash:ip" : "hash:net";
  j["size"] = static_cast<std::int64_t>(s.size());
  return j;
}

util::Json service_attrs(const VirtualService& svc) {
  util::Json j = util::Json::object();
  j["vip"] = svc.vip.to_string();
  j["port"] = static_cast<int>(svc.port);
  j["proto"] = static_cast<int>(svc.proto);
  j["scheduler"] = svc.scheduler == IpvsScheduler::kRoundRobin ? "rr" : "sh";
  util::Json backends = util::Json::array();
  for (const RealServer& rs : svc.backends) {
    util::Json b = util::Json::object();
    b["addr"] = rs.addr.to_string();
    b["port"] = static_cast<int>(rs.port);
    b["weight"] = static_cast<std::int64_t>(rs.weight);
    backends.push_back(std::move(b));
  }
  j["backends"] = std::move(backends);
  return j;
}

// A rule-table event names the chain, the operation and, for insert and
// delete, the position; an insert also carries the rule. Applying the
// operations in order to a dumped table reproduces the next dump.
util::Json rule_event(const std::string& chain, const char* op,
                      std::size_t index = 0) {
  util::Json j = util::Json::object();
  j["chain"] = chain;
  j["op"] = op;
  j["index"] = static_cast<std::int64_t>(index);
  return j;
}
}  // namespace

const char* drop_name(Drop reason) {
  switch (reason) {
    case Drop::kNone: return "none";
    case Drop::kLinkDown: return "link_down";
    case Drop::kStpBlocked: return "stp_blocked";
    case Drop::kVlanFiltered: return "vlan_filtered";
    case Drop::kPolicy: return "policy";
    case Drop::kNoRoute: return "no_route";
    case Drop::kTtlExceeded: return "ttl_exceeded";
    case Drop::kNeighPending: return "neigh_pending";
    case Drop::kMalformed: return "malformed";
    case Drop::kNotForUs: return "not_for_us";
    case Drop::kXdpDrop: return "xdp_drop";
    case Drop::kTcDrop: return "tc_drop";
    case Drop::kNoHandler: return "no_handler";
    case Drop::kNoDevice: return "no_device";
  }
  return "unknown";
}

Kernel::Kernel(std::string hostname, CostModel cost)
    : hostname_(std::move(hostname)), cost_(cost) {
  netlink_.set_dump_provider(this);
  stage_sink_.bind(&metrics_, "slowpath.");
  for (int i = 0; i <= static_cast<int>(Drop::kNoDevice); ++i) {
    drop_counters_[i] = metrics_.counter(
        std::string("drop.") + drop_name(static_cast<Drop>(i)));
  }
  using Emit = util::MetricsRegistry::Emit;
  metrics_.add_source(&fib_counts_, [this](const Emit& emit) {
    emit("fib.lookups", util::shard_read(fib_counts_.lookups));
    emit("fib.depth_total", util::shard_read(fib_counts_.depth_total));
  });
}

Kernel::~Kernel() = default;

void Kernel::tick() {
  for (auto& [ifi, br] : bridges_) {
    br->fdb_age(now_ns_);
    br->stp_tick(now_ns_);
    // Emit BPDUs on designated ports (slow-path control traffic).
    for (auto& [port_ifi, bpdu] : br->generate_bpdus()) {
      // BPDUs are modeled as control messages delivered directly to the
      // peer's bridge (we do not serialize LLC frames); what matters for
      // LinuxFP is that they traverse the slow path and can change state.
      NetDevice* port = dev(port_ifi);
      if (!port || !port->is_up()) continue;
      if (port->kind() == DevKind::kVeth && port->veth().kernel) {
        Kernel& peer = *port->veth().kernel;
        NetDevice* peer_dev = peer.dev(port->veth().ifindex);
        if (peer_dev && peer_dev->master() != 0) {
          Bridge* peer_br = peer.bridge(peer_dev->master());
          if (peer_br && peer_br->process_bpdu(peer_dev->ifindex(), bpdu)) {
            // Port STP states live in the ports' link objects.
            peer.publish_ports(*peer_br);
          }
          ++peer.counters_.bpdus_processed;
        }
      }
    }
  }
  neigh_.age(now_ns_, 60ull * 1000 * 1000 * 1000);
  conntrack_.expire_idle(now_ns_, 120ull * 1000 * 1000 * 1000);
}

// --- device management -------------------------------------------------------

NetDevice& Kernel::add_phys_dev(const std::string& name) {
  int ifi = next_ifindex_++;
  auto dev = std::make_unique<NetDevice>(
      ifi, name, DevKind::kPhysical,
      net::MacAddr::from_id(static_cast<std::uint32_t>(
          std::hash<std::string>{}(hostname_ + name) & 0xffffff)));
  NetDevice& ref = *dev;
  devs_[ifi] = std::move(dev);
  dev_names_[name] = ifi;
  bump_dev_generation();
  publish_link(ref);
  return ref;
}

NetDevice& Kernel::add_loopback() {
  int ifi = next_ifindex_++;
  auto dev = std::make_unique<NetDevice>(ifi, "lo", DevKind::kLoopback,
                                         net::MacAddr::zero());
  dev->set_up(true);
  NetDevice& ref = *dev;
  devs_[ifi] = std::move(dev);
  dev_names_["lo"] = ifi;
  bump_dev_generation();
  return ref;
}

NetDevice& Kernel::add_bridge_dev(const std::string& name) {
  int ifi = next_ifindex_++;
  auto dev = std::make_unique<NetDevice>(
      ifi, name, DevKind::kBridge,
      net::MacAddr::from_id(static_cast<std::uint32_t>(
          std::hash<std::string>{}(hostname_ + name + "br") & 0xffffff)));
  NetDevice& ref = *dev;
  devs_[ifi] = std::move(dev);
  dev_names_[name] = ifi;
  bridges_[ifi] = std::make_unique<Bridge>(ifi, ref.mac(), &bridge_gen_);
  bump_dev_generation();
  publish_link(ref);
  return ref;
}

std::pair<NetDevice*, NetDevice*> Kernel::add_veth_pair(const std::string& a,
                                                        const std::string& b) {
  NetDevice& da = add_veth_to(a, *this, b);
  NetDevice* db = dev_by_name(b);
  return {&da, db};
}

NetDevice& Kernel::add_veth_to(const std::string& name, Kernel& peer_kernel,
                               const std::string& peer_name) {
  int ifi = next_ifindex_++;
  auto dev = std::make_unique<NetDevice>(
      ifi, name, DevKind::kVeth,
      net::MacAddr::from_id(static_cast<std::uint32_t>(
          std::hash<std::string>{}(hostname_ + name) & 0xffffff)));
  NetDevice& ref = *dev;
  devs_[ifi] = std::move(dev);
  dev_names_[name] = ifi;

  int peer_ifi = peer_kernel.next_ifindex_++;
  auto peer = std::make_unique<NetDevice>(
      peer_ifi, peer_name, DevKind::kVeth,
      net::MacAddr::from_id(static_cast<std::uint32_t>(
          std::hash<std::string>{}(peer_kernel.hostname_ + peer_name) &
          0xffffff)));
  NetDevice& peer_ref = *peer;
  peer_kernel.devs_[peer_ifi] = std::move(peer);
  peer_kernel.dev_names_[peer_name] = peer_ifi;

  ref.veth() = VethPeer{&peer_kernel, peer_ifi};
  peer_ref.veth() = VethPeer{this, ifi};

  bump_dev_generation();
  peer_kernel.bump_dev_generation();
  publish_link(ref);
  peer_kernel.publish_link(peer_ref);
  return ref;
}

NetDevice& Kernel::add_vxlan_dev(const std::string& name, std::uint32_t vni,
                                 net::Ipv4Addr local, int underlay_ifindex) {
  int ifi = next_ifindex_++;
  auto dev = std::make_unique<NetDevice>(
      ifi, name, DevKind::kVxlan,
      net::MacAddr::from_id(static_cast<std::uint32_t>(
          std::hash<std::string>{}(hostname_ + name + "vx") & 0xffffff)));
  dev->vxlan().vni = vni;
  dev->vxlan().local = local;
  dev->vxlan().underlay_ifindex = underlay_ifindex;
  NetDevice& ref = *dev;
  devs_[ifi] = std::move(dev);
  dev_names_[name] = ifi;
  bump_dev_generation();
  publish_link(ref);
  return ref;
}

util::Status Kernel::del_dev(const std::string& name) {
  auto it = dev_names_.find(name);
  if (it == dev_names_.end()) {
    return util::Error::make("dev.missing", "no such device: " + name);
  }
  int ifi = it->second;
  NetDevice* d = dev(ifi);
  // Remove from any bridge it is enslaved to. The deleted link carries its
  // master, which is all the bridge's port list needs.
  if (d->master() != 0) {
    Bridge* br = bridge(d->master());
    if (br) br->del_port(ifi);
  }
  // Deleting a bridge device releases its ports, each publishing its own
  // link, and deletes the bridge object.
  if (Bridge* br = bridge(ifi)) {
    std::vector<int> ports;
    for (const auto& [port_ifi, p] : br->ports()) ports.push_back(port_ifi);
    for (int port_ifi : ports) {
      br->del_port(port_ifi);
      NetDevice* pd = dev(port_ifi);
      pd->set_master(0);
      publish_link(*pd);
    }
  }
  bridges_.erase(ifi);
  for (Route& r : fib_.purge_interface(ifi)) {
    netlink_.publish(nl::MsgType::kDelRoute, route_attrs(r, name));
  }
  // The device's neighbour entries go with it (neigh_ifdown).
  std::vector<net::Ipv4Addr> neighbours;
  for (const NeighEntry* e : neigh_.dump()) {
    if (e->ifindex == ifi) neighbours.push_back(e->ip);
  }
  for (net::Ipv4Addr ip : neighbours) (void)del_neigh(ip);
  publish_link(*d, /*deleted=*/true);
  dev_names_.erase(it);
  devs_.erase(ifi);
  bump_dev_generation();
  return {};
}

NetDevice* Kernel::dev(int ifindex) {
  auto it = devs_.find(ifindex);
  return it == devs_.end() ? nullptr : it->second.get();
}

const NetDevice* Kernel::dev(int ifindex) const {
  auto it = devs_.find(ifindex);
  return it == devs_.end() ? nullptr : it->second.get();
}

NetDevice* Kernel::dev_by_name(const std::string& name) {
  auto it = dev_names_.find(name);
  return it == dev_names_.end() ? nullptr : dev(it->second);
}

const NetDevice* Kernel::dev_by_name(const std::string& name) const {
  auto it = dev_names_.find(name);
  return it == dev_names_.end() ? nullptr : dev(it->second);
}

std::vector<NetDevice*> Kernel::devices() {
  std::vector<NetDevice*> out;
  for (auto& [ifi, d] : devs_) out.push_back(d.get());
  return out;
}

util::Status Kernel::set_link_up(const std::string& name, bool up) {
  NetDevice* d = dev_by_name(name);
  if (!d) return util::Error::make("dev.missing", "no such device: " + name);
  if (d->is_up() == up) return {};
  d->set_up(up);
  bump_dev_generation();
  if (!up) {
    for (Route& r : fib_.purge_interface(d->ifindex())) {
      netlink_.publish(nl::MsgType::kDelRoute, route_attrs(r, name));
    }
  }
  publish_link(*d);
  return {};
}

util::Status Kernel::enslave(const std::string& port,
                             const std::string& bridge_name) {
  NetDevice* p = dev_by_name(port);
  NetDevice* b = dev_by_name(bridge_name);
  if (!p || !b) return util::Error::make("dev.missing", "no such device");
  Bridge* br = bridge(b->ifindex());
  if (!br) {
    return util::Error::make("bridge.missing",
                             bridge_name + " is not a bridge");
  }
  if (p->master() != 0) {
    return util::Error::make("bridge.enslaved", port + " already has master");
  }
  p->set_master(b->ifindex());
  br->add_port(p->ifindex());
  bump_dev_generation();
  publish_link(*p);
  return {};
}

util::Status Kernel::release(const std::string& port) {
  NetDevice* p = dev_by_name(port);
  if (!p) return util::Error::make("dev.missing", "no such device: " + port);
  if (p->master() == 0) {
    return util::Error::make("bridge.notport", port + " has no master");
  }
  const int master = p->master();
  Bridge* br = bridge(master);
  if (br) br->del_port(p->ifindex());
  p->set_master(0);
  bump_dev_generation();
  publish_link(*p);
  return {};
}

// --- addresses and routes -----------------------------------------------------

util::Status Kernel::add_addr(const std::string& dev_name,
                              const net::IfAddr& addr) {
  NetDevice* d = dev_by_name(dev_name);
  if (!d) {
    return util::Error::make("dev.missing", "no such device: " + dev_name);
  }
  if (!d->add_addr(addr)) {
    return util::Error::make("addr.exists", "address exists");
  }
  bump_dev_generation();
  netlink_.publish(nl::MsgType::kNewAddr, addr_attrs(*d, addr));

  // Kernel behaviour: adding an address installs the connected route.
  if (addr.prefix_len < 32) {
    Route r;
    r.dst = addr.subnet();
    r.oif = d->ifindex();
    r.scope = RouteScope::kLink;
    fib_.add_route(r);
    netlink_.publish(nl::MsgType::kNewRoute, route_attrs(r, dev_name));
  }
  return {};
}

util::Status Kernel::del_addr(const std::string& dev_name,
                              const net::IfAddr& addr) {
  NetDevice* d = dev_by_name(dev_name);
  if (!d) {
    return util::Error::make("dev.missing", "no such device: " + dev_name);
  }
  if (!d->del_addr(addr)) {
    return util::Error::make("addr.missing", "no such address");
  }
  bump_dev_generation();
  netlink_.publish(nl::MsgType::kDelAddr, addr_attrs(*d, addr));
  if (addr.prefix_len < 32) {
    // Removes the active route for the subnet; the event names the route
    // that actually went.
    auto found = fib_.get_route(addr.subnet());
    if (found && fib_.del_route(addr.subnet())) {
      const NetDevice* od = dev(found->oif);
      netlink_.publish(nl::MsgType::kDelRoute,
                       route_attrs(*found, od ? od->name() : ""));
    }
  }
  return {};
}

util::Status Kernel::add_route(const net::Ipv4Prefix& dst, net::Ipv4Addr via,
                               const std::string& dev_name,
                               std::uint32_t metric) {
  NetDevice* d = dev_by_name(dev_name);
  if (!d) {
    return util::Error::make("dev.missing", "no such device: " + dev_name);
  }
  Route r;
  r.dst = dst;
  r.gateway = via;
  r.oif = d->ifindex();
  r.scope = via.is_zero() ? RouteScope::kLink : RouteScope::kGlobal;
  r.metric = metric;
  fib_.add_route(r);
  netlink_.publish(nl::MsgType::kNewRoute, route_attrs(r, dev_name));
  return {};
}

util::Status Kernel::del_route(const net::Ipv4Prefix& dst,
                               std::optional<std::uint32_t> metric) {
  auto found = fib_.get_route(dst, metric);
  if (!fib_.del_route(dst, metric)) {
    return util::Error::make("route.missing", "no such route");
  }
  Route r;
  r.dst = dst;
  std::string dev_name;
  if (found) {
    r = *found;
    const NetDevice* d = dev(r.oif);
    if (d) dev_name = d->name();
  }
  netlink_.publish(nl::MsgType::kDelRoute, route_attrs(r, dev_name));
  return {};
}

util::Status Kernel::add_neigh(net::Ipv4Addr ip, const net::MacAddr& mac,
                               const std::string& dev_name, bool permanent) {
  NetDevice* d = dev_by_name(dev_name);
  if (!d) {
    return util::Error::make("dev.missing", "no such device: " + dev_name);
  }
  const NeighEntry& e = neigh_.update(
      ip, mac, d->ifindex(),
      permanent ? NeighState::kPermanent : NeighState::kReachable, now_ns_);
  netlink_.publish(nl::MsgType::kNewNeigh, neigh_attrs(e));
  return {};
}

util::Status Kernel::del_neigh(net::Ipv4Addr ip) {
  const NeighEntry* e = neigh_.lookup(ip);
  if (!e) return util::Error::make("neigh.missing", "no such neighbour");
  util::Json attrs = neigh_attrs(*e);
  neigh_.erase(ip);
  netlink_.publish(nl::MsgType::kDelNeigh, std::move(attrs));
  return {};
}

util::Status Kernel::set_sysctl(const std::string& key, int value) {
  sysctls_[key] = value;
  bump_dev_generation();
  util::Json attrs = util::Json::object();
  attrs["key"] = key;
  attrs["value"] = value;
  netlink_.publish(nl::MsgType::kSysctl, std::move(attrs));
  return {};
}

int Kernel::sysctl(const std::string& key, int fallback) const {
  auto it = sysctls_.find(key);
  return it == sysctls_.end() ? fallback : it->second;
}

Bridge* Kernel::bridge(int ifindex) {
  auto it = bridges_.find(ifindex);
  return it == bridges_.end() ? nullptr : it->second.get();
}

const Bridge* Kernel::bridge(int ifindex) const {
  auto it = bridges_.find(ifindex);
  return it == bridges_.end() ? nullptr : it->second.get();
}

Bridge* Kernel::bridge_by_name(const std::string& name) {
  NetDevice* d = dev_by_name(name);
  return d ? bridge(d->ifindex()) : nullptr;
}

std::vector<Bridge*> Kernel::bridges() {
  std::vector<Bridge*> out;
  for (auto& [ifi, br] : bridges_) out.push_back(br.get());
  return out;
}

// --- netfilter mutations -------------------------------------------------------

util::Status Kernel::ipt_append(const std::string& chain, Rule rule) {
  auto st = netfilter_.append_rule(chain, std::move(rule));
  if (st.ok()) {
    const std::vector<Rule>& rules = netfilter_.find_chain(chain)->rules;
    util::Json j = rule_event(chain, "insert", rules.size() - 1);
    j["rule"] = rule_attrs(rules.back());
    netlink_.publish(nl::MsgType::kNewRule, std::move(j));
  }
  return st;
}

util::Status Kernel::ipt_insert(const std::string& chain, std::size_t index,
                                Rule rule) {
  auto st = netfilter_.insert_rule(chain, index, std::move(rule));
  if (st.ok()) {
    util::Json j = rule_event(chain, "insert", index);
    j["rule"] = rule_attrs(netfilter_.find_chain(chain)->rules[index]);
    netlink_.publish(nl::MsgType::kNewRule, std::move(j));
  }
  return st;
}

util::Status Kernel::ipt_delete(const std::string& chain, std::size_t index) {
  auto st = netfilter_.delete_rule(chain, index);
  if (st.ok()) {
    netlink_.publish(nl::MsgType::kDelRule, rule_event(chain, "delete", index));
  }
  return st;
}

util::Status Kernel::ipt_flush(const std::string& chain) {
  auto st = netfilter_.flush(chain);
  if (st.ok()) {
    netlink_.publish(nl::MsgType::kDelRule, rule_event(chain, "flush"));
  }
  return st;
}

util::Status Kernel::ipt_new_chain(const std::string& name) {
  auto st = netfilter_.new_chain(name);
  if (st.ok()) {
    netlink_.publish(nl::MsgType::kNewRule, rule_event(name, "new_chain"));
  }
  return st;
}

util::Status Kernel::ipt_delete_chain(const std::string& name) {
  auto st = netfilter_.delete_chain(name);
  if (st.ok()) {
    netlink_.publish(nl::MsgType::kDelRule, rule_event(name, "delete_chain"));
  }
  return st;
}

util::Status Kernel::ipt_set_policy(const std::string& chain,
                                    NfVerdict policy) {
  auto st = netfilter_.set_policy(chain, policy);
  if (st.ok()) {
    util::Json j = rule_event(chain, "policy");
    j["policy"] = policy_name(policy);
    netlink_.publish(nl::MsgType::kNewRule, std::move(j));
  }
  return st;
}

util::Status Kernel::ipset_create(const std::string& name, IpSetType type,
                                  std::size_t maxelem) {
  auto st = ipsets_.create(name, type, maxelem);
  if (st.ok()) {
    netlink_.publish(nl::MsgType::kNewSet, set_attrs(*ipsets_.find(name)));
  }
  return st;
}

util::Status Kernel::ipset_add(const std::string& name,
                               const net::Ipv4Prefix& member) {
  IpSet* set = ipsets_.find(name);
  if (!set) return util::Error::make("ipset.missing", "no such set: " + name);
  auto st = set->add(member);
  if (st.ok()) netlink_.publish(nl::MsgType::kNewSet, set_attrs(*set));
  return st;
}

util::Status Kernel::ipset_del(const std::string& name,
                               const net::Ipv4Prefix& member) {
  IpSet* set = ipsets_.find(name);
  if (!set) return util::Error::make("ipset.missing", "no such set: " + name);
  if (!set->del(member)) {
    return util::Error::make("ipset.member", "no such member");
  }
  netlink_.publish(nl::MsgType::kNewSet, set_attrs(*set));
  return {};
}

util::Status Kernel::ipset_destroy(const std::string& name) {
  const IpSet* set = ipsets_.find(name);
  util::Json attrs = set ? set_attrs(*set) : util::Json::object();
  auto st = ipsets_.destroy(name);
  if (st.ok()) netlink_.publish(nl::MsgType::kDelSet, std::move(attrs));
  return st;
}

util::Status Kernel::ipvs_add_service(net::Ipv4Addr vip, std::uint16_t port,
                                      std::uint8_t proto,
                                      IpvsScheduler scheduler) {
  auto st = ipvs_.add_service(vip, port, proto, scheduler);
  if (st.ok()) publish_service(vip, port, proto);
  return st;
}

util::Status Kernel::ipvs_del_service(net::Ipv4Addr vip, std::uint16_t port,
                                      std::uint8_t proto) {
  const VirtualService* svc = ipvs_.match(vip, proto, port);
  util::Json attrs = svc ? service_attrs(*svc) : util::Json::object();
  auto st = ipvs_.del_service(vip, port, proto);
  if (st.ok()) netlink_.publish(nl::MsgType::kDelService, std::move(attrs));
  return st;
}

util::Status Kernel::ipvs_add_backend(net::Ipv4Addr vip, std::uint16_t port,
                                      std::uint8_t proto,
                                      net::Ipv4Addr backend,
                                      std::uint16_t backend_port,
                                      std::uint32_t weight) {
  auto st =
      ipvs_.add_backend(vip, port, proto, backend, backend_port, weight);
  if (st.ok()) publish_service(vip, port, proto);
  return st;
}

util::Status Kernel::ipvs_del_backend(net::Ipv4Addr vip, std::uint16_t port,
                                      std::uint8_t proto,
                                      net::Ipv4Addr backend,
                                      std::uint16_t backend_port) {
  auto st = ipvs_.del_backend(vip, port, proto, backend, backend_port);
  if (st.ok()) publish_service(vip, port, proto);
  return st;
}

void Kernel::publish_service(net::Ipv4Addr vip, std::uint16_t port,
                             std::uint8_t proto) {
  netlink_.publish(nl::MsgType::kNewService,
                   service_attrs(*ipvs_.match(vip, proto, port)));
}

// --- netlink dump provider -----------------------------------------------------

util::Json Kernel::link_attrs(const NetDevice& d) const {
  util::Json attrs = util::Json::object();
  attrs["ifindex"] = d.ifindex();
  attrs["ifname"] = d.name();
  attrs["kind"] = dev_kind_name(d.kind());
  attrs["mac"] = d.mac().to_string();
  attrs["up"] = d.is_up();
  attrs["mtu"] = static_cast<std::int64_t>(d.mtu());
  attrs["master"] = d.master();
  // A port carries its own bridge-port state, so a port change publishes
  // one port's link and a bridge's link never lists its ports.
  if (const Bridge* br = d.master() != 0 ? bridge(d.master()) : nullptr) {
    if (const BridgePort* p = br->port(d.ifindex())) {
      attrs["stp_state"] = stp_state_name(p->state);
      attrs["pvid"] = p->pvid;
    }
  }
  if (d.kind() == DevKind::kBridge) {
    const Bridge* br = bridge(d.ifindex());
    if (br) {
      attrs["stp"] = br->stp_enabled();
      attrs["vlan_filtering"] = br->vlan_filtering();
    }
  }
  if (d.kind() == DevKind::kVxlan) {
    attrs["vni"] = static_cast<std::int64_t>(d.vxlan().vni);
    attrs["local"] = d.vxlan().local.to_string();
  }
  util::Json addrs = util::Json::array();
  for (const auto& a : d.addrs()) addrs.push_back(a.to_string());
  attrs["addrs"] = std::move(addrs);
  return attrs;
}

void Kernel::publish_link(const NetDevice& d, bool deleted) {
  netlink_.publish(deleted ? nl::MsgType::kDelLink : nl::MsgType::kNewLink,
                   link_attrs(d));
}

void Kernel::publish_ports(const Bridge& br) {
  for (const auto& [ifi, p] : br.ports()) {
    if (const NetDevice* pd = dev(ifi)) publish_link(*pd);
  }
}

// Addresses live in their link object, so an address carries the whole link.
util::Json Kernel::addr_attrs(const NetDevice& d,
                              const net::IfAddr& addr) const {
  util::Json attrs = util::Json::object();
  attrs["dev"] = d.name();
  attrs["ifindex"] = d.ifindex();
  attrs["addr"] = addr.to_string();
  attrs["link"] = link_attrs(d);
  return attrs;
}

util::Json Kernel::neigh_attrs(const NeighEntry& e) const {
  util::Json attrs = util::Json::object();
  attrs["ip"] = e.ip.to_string();
  attrs["mac"] = e.mac.to_string();
  const NetDevice* d = dev(e.ifindex);
  attrs["dev"] = d ? d->name() : "";
  attrs["state"] = neigh_state_name(e.state);
  attrs["dynamic"] = e.state != NeighState::kPermanent;
  return attrs;
}

std::vector<nl::Message> Kernel::dump(nl::DumpKind kind) const {
  std::vector<nl::Message> out;
  switch (kind) {
    case nl::DumpKind::kLinks: {
      for (const auto& [ifi, d] : devs_) {
        out.push_back({nl::MsgType::kNewLink, link_attrs(*d)});
      }
      break;
    }
    case nl::DumpKind::kAddrs: {
      for (const auto& [ifi, d] : devs_) {
        for (const auto& a : d->addrs()) {
          out.push_back({nl::MsgType::kNewAddr, addr_attrs(*d, a)});
        }
      }
      break;
    }
    case nl::DumpKind::kRoutes: {
      for (const Route& r : fib_.dump()) {
        const NetDevice* d = dev(r.oif);
        out.push_back(
            {nl::MsgType::kNewRoute, route_attrs(r, d ? d->name() : "")});
      }
      break;
    }
    case nl::DumpKind::kNeighbors: {
      for (const NeighEntry* e : neigh_.dump()) {
        out.push_back({nl::MsgType::kNewNeigh, neigh_attrs(*e)});
      }
      break;
    }
    case nl::DumpKind::kRules: {
      for (const Chain* c : netfilter_.dump()) {
        util::Json attrs = util::Json::object();
        attrs["chain"] = c->name;
        attrs["builtin"] = c->builtin;
        attrs["policy"] = policy_name(c->policy);
        util::Json rules = util::Json::array();
        for (const Rule& r : c->rules) rules.push_back(rule_attrs(r));
        attrs["rules"] = std::move(rules);
        out.push_back({nl::MsgType::kNewRule, std::move(attrs)});
      }
      break;
    }
    case nl::DumpKind::kSets: {
      for (const IpSet* s : ipsets_.dump()) {
        out.push_back({nl::MsgType::kNewSet, set_attrs(*s)});
      }
      break;
    }
    case nl::DumpKind::kServices: {
      for (const VirtualService& svc : ipvs_.services()) {
        out.push_back({nl::MsgType::kNewService, service_attrs(svc)});
      }
      break;
    }
    case nl::DumpKind::kSysctls: {
      for (const auto& [key, value] : sysctls_) {
        util::Json attrs = util::Json::object();
        attrs["key"] = key;
        attrs["value"] = value;
        out.push_back({nl::MsgType::kSysctl, std::move(attrs)});
      }
      break;
    }
  }
  return out;
}

void Kernel::register_l4_handler(std::uint8_t proto, std::uint16_t port,
                                 L4Handler handler) {
  l4_handlers_[{proto, port}] = std::move(handler);
}

}  // namespace linuxfp::kern
