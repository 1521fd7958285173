#include "kernel/commands.h"

#include <map>

#include "util/fault.h"
#include "util/strings.h"

namespace linuxfp::kern {

namespace {

using util::Error;
using util::Status;
using Tokens = std::vector<std::string>;

Status err_usage(const std::string& what) {
  return Error::make("cmd.usage", "bad usage: " + what);
}

// Scans "key value" option pairs from position `start`.
std::map<std::string, std::string> scan_options(const Tokens& t,
                                                std::size_t start) {
  std::map<std::string, std::string> opts;
  for (std::size_t i = start; i + 1 < t.size(); i += 2) {
    opts[t[i]] = t[i + 1];
  }
  return opts;
}

Status ip_link(Kernel& k, const Tokens& t) {
  // ip link add <name> type bridge|veth peer name <peer>
  if (t.size() >= 5 && t[2] == "add") {
    const std::string& name = t[3];
    if (t.size() >= 6 && t[4] == "type" && t[5] == "bridge") {
      k.add_bridge_dev(name);
      return {};
    }
    if (t.size() >= 9 && t[4] == "type" && t[5] == "veth" && t[6] == "peer" &&
        t[7] == "name") {
      k.add_veth_pair(name, t[8]);
      return {};
    }
    return err_usage("ip link add");
  }
  // ip link del <name>
  if (t.size() == 4 && t[2] == "del") {
    return k.del_dev(t[3]);
  }
  // ip link set [dev] <name> up|down | master <bridge> | nomaster
  if (t.size() >= 4 && t[2] == "set") {
    std::size_t i = 3;
    if (t[i] == "dev" && t.size() > i + 1) ++i;
    const std::string& name = t[i++];
    if (i >= t.size()) return err_usage("ip link set");
    if (t[i] == "up") return k.set_link_up(name, true);
    if (t[i] == "down") return k.set_link_up(name, false);
    if (t[i] == "master" && i + 1 < t.size()) {
      return k.enslave(name, t[i + 1]);
    }
    if (t[i] == "nomaster") return k.release(name);
    return err_usage("ip link set");
  }
  return err_usage("ip link");
}

Status ip_addr(Kernel& k, const Tokens& t) {
  // ip addr add|del <addr>/<len> dev <dev>
  if (t.size() < 6 || (t[2] != "add" && t[2] != "del") || t[4] != "dev") {
    return err_usage("ip addr");
  }
  auto addr = net::IfAddr::parse(t[3]);
  if (!addr.ok()) return addr.error();
  if (t[2] == "add") return k.add_addr(t[5], addr.value());
  return k.del_addr(t[5], addr.value());
}

Status ip_route(Kernel& k, const Tokens& t) {
  // ip route add|replace <prefix>|default [via <gw>] dev <dev> [metric N]
  // ip route del <prefix> [metric N]
  if (t.size() >= 4 && t[2] == "del") {
    auto prefix = t[3] == "default"
                      ? util::Result<net::Ipv4Prefix>(net::Ipv4Prefix{})
                      : net::Ipv4Prefix::parse(t[3]);
    if (!prefix.ok()) return prefix.error();
    auto opts = scan_options(t, 4);
    std::optional<std::uint32_t> metric;
    if (opts.count("metric")) {
      unsigned long long m;
      if (!util::parse_u64(opts["metric"], m)) return err_usage("metric");
      metric = static_cast<std::uint32_t>(m);
    }
    return k.del_route(prefix.value(), metric);
  }
  if (t.size() >= 4 && (t[2] == "add" || t[2] == "replace")) {
    auto prefix = t[3] == "default"
                      ? util::Result<net::Ipv4Prefix>(net::Ipv4Prefix{})
                      : net::Ipv4Prefix::parse(t[3]);
    if (!prefix.ok()) return prefix.error();
    auto opts = scan_options(t, 4);
    net::Ipv4Addr via;
    if (opts.count("via")) {
      auto gw = net::Ipv4Addr::parse(opts["via"]);
      if (!gw.ok()) return gw.error();
      via = gw.value();
    }
    if (!opts.count("dev")) return err_usage("ip route: dev required");
    std::uint32_t metric = 0;
    if (opts.count("metric")) {
      unsigned long long m;
      if (!util::parse_u64(opts["metric"], m)) return err_usage("metric");
      metric = static_cast<std::uint32_t>(m);
    }
    return k.add_route(prefix.value(), via, opts["dev"], metric);
  }
  return err_usage("ip route");
}

Status ip_neigh(Kernel& k, const Tokens& t) {
  // ip neigh add <ip> lladdr <mac> dev <dev> [nud permanent]
  // ip neigh del <ip>
  if (t.size() >= 4 && t[2] == "del") {
    auto ip = net::Ipv4Addr::parse(t[3]);
    if (!ip.ok()) return ip.error();
    return k.del_neigh(ip.value());
  }
  if (t.size() >= 8 && (t[2] == "add" || t[2] == "replace")) {
    auto ip = net::Ipv4Addr::parse(t[3]);
    if (!ip.ok()) return ip.error();
    auto opts = scan_options(t, 4);
    if (!opts.count("lladdr") || !opts.count("dev")) {
      return err_usage("ip neigh add");
    }
    auto mac = net::MacAddr::parse(opts["lladdr"]);
    if (!mac.ok()) return mac.error();
    bool permanent = opts.count("nud") && opts["nud"] == "permanent";
    return k.add_neigh(ip.value(), mac.value(), opts["dev"], permanent);
  }
  return err_usage("ip neigh");
}

Status cmd_ip(Kernel& k, const Tokens& t) {
  if (t.size() < 2) return err_usage("ip");
  if (t[1] == "link") return ip_link(k, t);
  if (t[1] == "addr" || t[1] == "address") return ip_addr(k, t);
  if (t[1] == "route") return ip_route(k, t);
  if (t[1] == "neigh" || t[1] == "neighbor") return ip_neigh(k, t);
  return err_usage("ip " + t[1]);
}

Status cmd_brctl(Kernel& k, const Tokens& t) {
  if (t.size() < 3) return err_usage("brctl");
  const std::string& sub = t[1];
  if (sub == "addbr") {
    k.add_bridge_dev(t[2]);
    return {};
  }
  if (sub == "delbr") return k.del_dev(t[2]);
  if (sub == "addif" && t.size() >= 4) return k.enslave(t[3], t[2]);
  if (sub == "delif" && t.size() >= 4) return k.release(t[3]);
  if (sub == "stp" && t.size() >= 4) {
    Bridge* br = k.bridge_by_name(t[2]);
    if (!br) return Error::make("bridge.missing", "no such bridge: " + t[2]);
    br->set_stp_enabled(t[3] == "on" || t[3] == "yes");
    // The flag is the bridge's; the port states it resets are the ports'.
    k.publish_link(*k.dev_by_name(t[2]));
    k.publish_ports(*br);
    return {};
  }
  if (sub == "setageing" && t.size() >= 4) {
    Bridge* br = k.bridge_by_name(t[2]);
    if (!br) return Error::make("bridge.missing", "no such bridge: " + t[2]);
    unsigned long long secs;
    if (!util::parse_u64(t[3], secs)) return err_usage("brctl setageing");
    br->set_aging_time_ns(secs * 1000ull * 1000 * 1000);
    return {};
  }
  return err_usage("brctl " + sub);
}

Status cmd_bridge(Kernel& k, const Tokens& t) {
  // bridge vlan add dev <dev> vid <vid> [pvid] [untagged]
  if (t.size() >= 7 && t[1] == "vlan" && t[2] == "add" && t[3] == "dev" &&
      t[5] == "vid") {
    NetDevice* d = k.dev_by_name(t[4]);
    if (!d || d->master() == 0) {
      return Error::make("bridge.notport", "not a bridge port: " + t[4]);
    }
    Bridge* br = k.bridge(d->master());
    BridgePort* port = br->port(d->ifindex());
    unsigned long long vid;
    if (!util::parse_u64(t[6], vid) || vid > 4094) return err_usage("vid");
    auto v = static_cast<std::uint16_t>(vid);
    port->allowed_vlans.insert(v);
    bool pvid = false, untagged = false;
    for (std::size_t i = 7; i < t.size(); ++i) {
      if (t[i] == "pvid") pvid = true;
      if (t[i] == "untagged") untagged = true;
    }
    if (pvid) port->pvid = v;
    if (untagged) port->untagged_vlans.insert(v);
    br->note_config_changed();  // mutated port VLAN config via port()
    const bool filtering = br->vlan_filtering();
    br->set_vlan_filtering(true);
    // The pvid lives in the port's link, the filtering flag in the bridge's.
    k.publish_link(*d);
    if (!filtering) k.publish_link(*k.dev(d->master()));
    return {};
  }
  // bridge fdb add <mac> dev <dev> [vlan <vid>] [dst <ip>]
  if (t.size() >= 5 && t[1] == "fdb" &&
      (t[2] == "add" || t[2] == "append") && t[4] == "dev") {
    auto mac = net::MacAddr::parse(t[3]);
    if (!mac.ok()) return mac.error();
    NetDevice* d = k.dev_by_name(t[5]);
    if (!d) return Error::make("dev.missing", "no such device: " + t[5]);
    auto opts = scan_options(t, 6);
    if (d->kind() == DevKind::kVxlan && opts.count("dst")) {
      auto remote = net::Ipv4Addr::parse(opts["dst"]);
      if (!remote.ok()) return remote.error();
      d->vxlan().vtep_fdb[mac.value()] = remote.value();
      return {};
    }
    if (d->master() == 0) {
      return Error::make("bridge.notport", "not a bridge port: " + t[5]);
    }
    std::uint16_t vlan = 0;
    if (opts.count("vlan")) {
      unsigned long long v;
      if (!util::parse_u64(opts["vlan"], v)) return err_usage("vlan");
      vlan = static_cast<std::uint16_t>(v);
    }
    k.bridge(d->master())->fdb_add_static(mac.value(), vlan, d->ifindex());
    return {};
  }
  return err_usage("bridge");
}

Status cmd_sysctl(Kernel& k, const Tokens& t) {
  // sysctl -w key=value
  std::size_t i = 1;
  if (i < t.size() && t[i] == "-w") ++i;
  if (i >= t.size()) return err_usage("sysctl");
  auto kv = util::split(t[i], '=');
  if (kv.size() != 2) return err_usage("sysctl key=value");
  unsigned long long v;
  if (!util::parse_u64(util::trim(kv[1]), v)) return err_usage("sysctl value");
  return k.set_sysctl(util::trim(kv[0]), static_cast<int>(v));
}

util::Result<std::uint8_t> parse_proto(const std::string& p) {
  if (p == "tcp") return std::uint8_t{net::kIpProtoTcp};
  if (p == "udp") return std::uint8_t{net::kIpProtoUdp};
  if (p == "icmp") return std::uint8_t{net::kIpProtoIcmp};
  unsigned long long v;
  if (util::parse_u64(p, v) && v < 256) return static_cast<std::uint8_t>(v);
  return Error::make("ipt.proto", "unknown protocol: " + p);
}

Status cmd_iptables(Kernel& k, const Tokens& t) {
  // Supported forms:
  //  iptables -A|-I <chain> [match...] -j <target>
  //  iptables -D <chain> <rulenum>
  //  iptables -F [<chain>] | -P <chain> <policy> | -N <chain> | -X <chain>
  std::size_t i = 1;
  if (i >= t.size()) return err_usage("iptables");
  const std::string op = t[i++];

  if (op == "-F") {
    if (i < t.size()) return k.ipt_flush(t[i]);
    for (const char* c : {"INPUT", "FORWARD", "OUTPUT"}) {
      auto st = k.ipt_flush(c);
      if (!st.ok()) return st;
    }
    return {};
  }
  if (op == "-N") {
    if (i >= t.size()) return err_usage("iptables -N");
    return k.ipt_new_chain(t[i]);
  }
  if (op == "-X") {
    if (i >= t.size()) return err_usage("iptables -X");
    return k.ipt_delete_chain(t[i]);
  }
  if (op == "-P") {
    if (i + 1 >= t.size()) return err_usage("iptables -P");
    NfVerdict v = t[i + 1] == "DROP" ? NfVerdict::kDrop : NfVerdict::kAccept;
    return k.ipt_set_policy(t[i], v);
  }
  if (op == "-D") {
    if (i + 1 >= t.size()) return err_usage("iptables -D");
    unsigned long long num;
    if (!util::parse_u64(t[i + 1], num) || num == 0) {
      return err_usage("iptables -D <chain> <rulenum>");
    }
    return k.ipt_delete(t[i], static_cast<std::size_t>(num - 1));
  }
  if (op != "-A" && op != "-I") return err_usage("iptables " + op);

  if (i >= t.size()) return err_usage("iptables -A <chain>");
  const std::string chain = t[i++];
  std::size_t insert_index = 0;
  if (op == "-I" && i < t.size()) {
    unsigned long long num;
    if (util::parse_u64(t[i], num) && num > 0) {
      insert_index = static_cast<std::size_t>(num - 1);
      ++i;
    }
  }

  Rule rule;
  bool have_target = false;
  while (i < t.size()) {
    const std::string& flag = t[i];
    bool negated = false;
    if (flag == "!") {
      negated = true;
      ++i;
      if (i >= t.size()) return err_usage("iptables !");
    }
    const std::string& f = t[i];
    auto need_arg = [&](const char* what) -> util::Result<std::string> {
      if (i + 1 >= t.size()) {
        return Error::make("cmd.usage", std::string("missing arg for ") + what);
      }
      return t[i + 1];
    };
    if (f == "-s" || f == "--source" || f == "-d" || f == "--destination") {
      auto arg = need_arg(f.c_str());
      if (!arg.ok()) return arg.error();
      auto prefix = net::Ipv4Prefix::parse(arg.value());
      if (!prefix.ok()) return prefix.error();
      if (f == "-s" || f == "--source") {
        rule.match.src = prefix.value();
        rule.match.src_negated = negated;
      } else {
        rule.match.dst = prefix.value();
        rule.match.dst_negated = negated;
      }
      i += 2;
    } else if (f == "-p" || f == "--protocol") {
      auto arg = need_arg("-p");
      if (!arg.ok()) return arg.error();
      auto proto = parse_proto(arg.value());
      if (!proto.ok()) return proto.error();
      rule.match.proto = proto.value();
      i += 2;
    } else if (f == "--dport" || f == "--sport") {
      auto arg = need_arg(f.c_str());
      if (!arg.ok()) return arg.error();
      unsigned long long port;
      if (!util::parse_u64(arg.value(), port) || port > 65535) {
        return err_usage("port");
      }
      if (f == "--dport") rule.match.dport = static_cast<std::uint16_t>(port);
      else rule.match.sport = static_cast<std::uint16_t>(port);
      i += 2;
    } else if (f == "-i" || f == "--in-interface") {
      auto arg = need_arg("-i");
      if (!arg.ok()) return arg.error();
      rule.match.in_if = arg.value();
      i += 2;
    } else if (f == "-o" || f == "--out-interface") {
      auto arg = need_arg("-o");
      if (!arg.ok()) return arg.error();
      rule.match.out_if = arg.value();
      i += 2;
    } else if (f == "-m") {
      auto arg = need_arg("-m");
      if (!arg.ok()) return arg.error();
      if (arg.value() != "set" && arg.value() != "state" &&
          arg.value() != "conntrack") {
        return Error::make("ipt.match", "unsupported match: " + arg.value());
      }
      i += 2;
    } else if (f == "--state" || f == "--ctstate") {
      auto arg = need_arg(f.c_str());
      if (!arg.ok()) return arg.error();
      // Comma lists: RELATED folds into ESTABLISHED (the common kube idiom
      // "ESTABLISHED,RELATED"); a list containing both NEW and ESTABLISHED
      // matches everything tracked, which we reduce to no state constraint.
      bool want_new = false, want_est = false;
      for (const std::string& state : util::split(arg.value(), ',')) {
        if (state == "NEW") want_new = true;
        else if (state == "ESTABLISHED" || state == "RELATED") want_est = true;
        else return Error::make("ipt.state", "unsupported state: " + state);
      }
      if (want_new && !want_est) rule.match.ct_state = "NEW";
      else if (want_est && !want_new) rule.match.ct_state = "ESTABLISHED";
      i += 2;
    } else if (f == "--match-set") {
      if (i + 2 >= t.size()) return err_usage("--match-set <set> src|dst");
      rule.match.match_set = t[i + 1];
      rule.match.set_match_src = t[i + 2] == "src";
      i += 3;
    } else if (f == "-j" || f == "--jump") {
      auto arg = need_arg("-j");
      if (!arg.ok()) return arg.error();
      const std::string& target = arg.value();
      if (target == "ACCEPT") rule.target = RuleTarget::kAccept;
      else if (target == "DROP") rule.target = RuleTarget::kDrop;
      else if (target == "RETURN") rule.target = RuleTarget::kReturn;
      else {
        rule.target = RuleTarget::kJump;
        rule.jump_chain = target;
      }
      have_target = true;
      i += 2;
    } else {
      return Error::make("ipt.flag", "unsupported flag: " + f);
    }
  }
  if (!have_target) return err_usage("iptables: -j required");
  if (op == "-I") return k.ipt_insert(chain, insert_index, std::move(rule));
  return k.ipt_append(chain, std::move(rule));
}

Status cmd_ipset(Kernel& k, const Tokens& t) {
  if (t.size() < 3) return err_usage("ipset");
  const std::string& sub = t[1];
  if (sub == "create") {
    if (t.size() < 4) {
      return err_usage("ipset create <name> <type> [maxelem N]");
    }
    IpSetType type;
    if (t[3] == "hash:ip") type = IpSetType::kHashIp;
    else if (t[3] == "hash:net") type = IpSetType::kHashNet;
    else return Error::make("ipset.type", "unsupported type: " + t[3]);
    std::size_t maxelem = kIpSetDefaultMaxElem;
    if (t.size() >= 6 && t[4] == "maxelem") {
      unsigned long long n;
      if (!util::parse_u64(t[5], n) || n == 0) {
        return err_usage("ipset create: maxelem expects a positive integer");
      }
      maxelem = static_cast<std::size_t>(n);
    } else if (t.size() > 4) {
      return err_usage("ipset create <name> <type> [maxelem N]");
    }
    return k.ipset_create(t[2], type, maxelem);
  }
  if (sub == "destroy") return k.ipset_destroy(t[2]);
  if (sub == "add" || sub == "del") {
    if (t.size() < 4) return err_usage("ipset add <name> <member>");
    auto member = net::Ipv4Prefix::parse(t[3]);
    if (!member.ok()) return member.error();
    if (sub == "add") return k.ipset_add(t[2], member.value());
    return k.ipset_del(t[2], member.value());
  }
  return err_usage("ipset " + sub);
}

// ipvsadm front-end:
//   ipvsadm -A -t <vip>:<port> [-s rr|sh]      add virtual service (TCP)
//   ipvsadm -A -u <vip>:<port> [-s rr|sh]      add virtual service (UDP)
//   ipvsadm -D -t <vip>:<port>                 delete service
//   ipvsadm -a -t <vip>:<port> -r <ip>:<port> [-w N]   add real server
//   ipvsadm -d -t <vip>:<port> -r <ip>:<port>          delete real server
Status cmd_ipvsadm(Kernel& k, const Tokens& t) {
  auto parse_endpoint = [](const std::string& text)
      -> util::Result<std::pair<net::Ipv4Addr, std::uint16_t>> {
    auto parts = util::split(text, ':');
    if (parts.size() != 2) {
      return Error::make("ipvs.endpoint", "expected ip:port, got " + text);
    }
    auto ip = net::Ipv4Addr::parse(parts[0]);
    if (!ip.ok()) return ip.error();
    unsigned long long port;
    if (!util::parse_u64(parts[1], port) || port > 65535) {
      return Error::make("ipvs.endpoint", "bad port in " + text);
    }
    return std::make_pair(ip.value(), static_cast<std::uint16_t>(port));
  };

  if (t.size() < 4) return err_usage("ipvsadm");
  const std::string& op = t[1];
  std::uint8_t proto;
  if (t[2] == "-t") proto = net::kIpProtoTcp;
  else if (t[2] == "-u") proto = net::kIpProtoUdp;
  else return err_usage("ipvsadm: -t or -u required");
  auto vip = parse_endpoint(t[3]);
  if (!vip.ok()) return vip.error();

  auto opts = scan_options(t, 4);
  if (op == "-A") {
    IpvsScheduler sched = IpvsScheduler::kRoundRobin;
    if (opts.count("-s")) {
      if (opts["-s"] == "sh") sched = IpvsScheduler::kSourceHash;
      else if (opts["-s"] != "rr") {
        return Error::make("ipvs.sched", "unsupported scheduler: " + opts["-s"]);
      }
    }
    return k.ipvs_add_service(vip->first, vip->second, proto, sched);
  }
  if (op == "-D") {
    return k.ipvs_del_service(vip->first, vip->second, proto);
  }
  if (op == "-a") {
    if (!opts.count("-r")) return err_usage("ipvsadm -a: -r required");
    auto backend = parse_endpoint(opts["-r"]);
    if (!backend.ok()) return backend.error();
    std::uint32_t weight = 1;
    if (opts.count("-w")) {
      unsigned long long w;
      if (!util::parse_u64(opts["-w"], w)) return err_usage("ipvsadm -w");
      weight = static_cast<std::uint32_t>(w);
    }
    return k.ipvs_add_backend(vip->first, vip->second, proto, backend->first,
                              backend->second, weight);
  }
  if (op == "-d") {
    if (!opts.count("-r")) return err_usage("ipvsadm -d: -r required");
    auto backend = parse_endpoint(opts["-r"]);
    if (!backend.ok()) return backend.error();
    return k.ipvs_del_backend(vip->first, vip->second, proto, backend->first,
                              backend->second);
  }
  return err_usage("ipvsadm " + op);
}

}  // namespace

Status run_command(Kernel& kernel, const std::string& command_line) {
  // Injection point for the configuration plane: a fault here models the
  // admin tool failing (ENOMEM, netlink EBUSY) before touching kernel state.
  if (auto st = util::FaultInjector::global().check(util::kFaultKernelCommand);
      !st.ok()) {
    return st;
  }
  Tokens t = util::split_ws(command_line);
  if (t.empty()) return err_usage("empty command");
  if (t[0] == "ip") return cmd_ip(kernel, t);
  if (t[0] == "brctl") return cmd_brctl(kernel, t);
  if (t[0] == "bridge") return cmd_bridge(kernel, t);
  if (t[0] == "sysctl") return cmd_sysctl(kernel, t);
  if (t[0] == "iptables") return cmd_iptables(kernel, t);
  if (t[0] == "ipset") return cmd_ipset(kernel, t);
  if (t[0] == "ipvsadm") return cmd_ipvsadm(kernel, t);
  return Error::make("cmd.unknown", "unknown command: " + t[0]);
}

}  // namespace linuxfp::kern
