// The slow path: the default Linux packet processing pipeline. Every stage
// charges the cost model, so the benchmarks' "Linux" baseline emerges from
// this code, and the stage trace reproduces the hot-spot observation of
// paper Fig 1.
#include "kernel/kernel.h"

#include <utility>

#include "net/checksum.h"
#include "util/logging.h"

namespace linuxfp::kern {

namespace {
constexpr int kMaxRxDepth = 16;

net::FlowKey flow_key_of(const net::ParsedPacket& info) {
  net::FlowKey k;
  k.src_ip = info.ip_src;
  k.dst_ip = info.ip_dst;
  k.proto = info.ip_proto;
  k.src_port = info.src_port;
  k.dst_port = info.dst_port;
  return k;
}
}  // namespace

void Kernel::adopt_shadow(net::Packet& pkt) {
  const std::uint64_t cookie = pkt.guard_cookie;
  if (cookie == 0) return;
  pkt.guard_cookie = 0;
  if (shadow_observer_ == nullptr) return;
  if (active_shadow_cookie_ != 0) {
    shadow_observer_->on_shadow_skipped(cookie);
    return;
  }
  active_shadow_cookie_ = cookie;
  shadow_emissions_.clear();
}

template <typename Path>
[[gnu::always_inline]] inline RxSummary Kernel::rx_scope(int ifindex,
                                                         CycleTrace& trace,
                                                         Path&& path) {
  // Attribute stage charges to this kernel while the packet is here; a veth
  // hop into a peer kernel re-binds on entry and restores on the way out.
  util::StageSink* prev_sink = trace.sink();
  trace.bind_sink(metrics_.enabled() ? &stage_sink_ : nullptr);
  // A shadow capture adopted inside this scope resolves when it ends; one
  // adopted by an outer scope (loopback / veth re-entry) keeps accumulating
  // and resolves there.
  bool shadow_was_active = active_shadow_cookie_ != 0;

  // The outermost entry of a traced packet opens the trace record; nested
  // hops (veth, vxlan, XDP_TX bounces) keep appending to the same record so
  // the dump shows the full journey in order.
  util::PacketTrace* started = nullptr;
  if (trace_ring_ && !trace.packet_trace()) {
    const NetDevice* in_dev = dev(ifindex);
    started = trace_ring_->begin_packet(ifindex, in_dev ? in_dev->name() : "?");
    trace.bind_packet_trace(started);
    util::set_active_packet_trace(started);
  }

  RxSummary summary = path();

  if (started) {
    started->fast_path = summary.fast_path;
    started->verdict =
        summary.drop == Drop::kNone ? "ok" : drop_name(summary.drop);
    started->total_cycles = trace.total();
    // Dropped packets got their verdict event at the count_drop site (in
    // path order); close out the delivered/forwarded case the same way.
    if (summary.drop == Drop::kNone) started->add("verdict", "ok", 0);
    trace.bind_packet_trace(nullptr);
    util::set_active_packet_trace(nullptr);
  }
  if (!shadow_was_active && active_shadow_cookie_ != 0) {
    std::vector<ShadowEmission> emissions;
    emissions.swap(shadow_emissions_);
    shadow_observer_->on_shadow_resolved(
        std::exchange(active_shadow_cookie_, 0), summary, std::move(emissions));
  }
  trace.bind_sink(prev_sink);
  return summary;
}

RxSummary Kernel::rx(int ifindex, net::Packet&& pkt, CycleTrace& trace) {
  return rx_scope(ifindex, trace, [&] {
    return rx_inner(ifindex, std::move(pkt), trace);
  });
}

RxSummary Kernel::netif_receive_skb(int ifindex, net::Packet&& pkt,
                                    CycleTrace& trace) {
  return rx_scope(ifindex, trace, [&] {
    if (pkt.gso_segs() > 1) {
      if (auto* t = trace.packet_trace()) {
        t->add("gro", "superpacket", 0,
               std::to_string(pkt.gso_segs()) + " segments");
      }
    }
    // The XDP hook ran on an engine worker: a shadowed packet carries its
    // cookie here, and adopting it before the link check lets a packet
    // dropped there still resolve.
    adopt_shadow(pkt);
    NetDevice* d = dev(ifindex);
    if (!d || !d->is_up()) return drop(Drop::kLinkDown);
    pkt.ingress_ifindex = static_cast<std::uint32_t>(ifindex);
    return stack_rx(*d, std::move(pkt), trace);
  });
}

// Inlined into both hooks: out of line, the call added about 15 ns to a
// router fast-path process() (212 -> 228 ns on a shared 4-vCPU VM;
// EXPERIMENTS.md, "One packet driver").
[[gnu::always_inline]] inline std::optional<RxSummary> Kernel::hook_verdict(
    NetDevice& dev, const PacketProgram::RunResult& result, Drop drop,
    net::Packet& pkt, CycleTrace& trace) {
  switch (result.verdict) {
    case PacketProgram::Verdict::kDrop:
      ++counters_.fast_path_packets;
      count_drop(drop);
      return RxSummary{true, drop};
    case PacketProgram::Verdict::kTx:
    case PacketProgram::Verdict::kRedirect:
      ++counters_.fast_path_packets;
      dev_xmit(result.verdict == PacketProgram::Verdict::kTx
                   ? dev.ifindex()
                   : result.redirect_ifindex,
               std::move(pkt), trace);
      return RxSummary{true, Drop::kNone};
    case PacketProgram::Verdict::kUserspace:
      // AF_XDP: the attachment already queued the frame on the socket.
      ++counters_.fast_path_packets;
      return RxSummary{true, Drop::kNone};
    case PacketProgram::Verdict::kAborted:
      LFP_WARN("kernel") << (drop == Drop::kXdpDrop ? "XDP" : "TC")
                         << " program aborted on " << dev.name();
      break;
    case PacketProgram::Verdict::kPass:
      break;
  }
  adopt_shadow(pkt);
  return std::nullopt;
}

RxSummary Kernel::rx_inner(int ifindex, net::Packet&& pkt, CycleTrace& trace) {
  NetDevice* d = dev(ifindex);
  if (!d || !d->is_up()) return drop(Drop::kLinkDown);
  LFP_CHECK_MSG(rx_depth_ < kMaxRxDepth, "rx recursion loop");
  ++rx_depth_;
  struct DepthGuard {
    int& depth;
    ~DepthGuard() { --depth; }
  } guard{rx_depth_};

  d->stats().rx_packets++;
  d->stats().rx_bytes += pkt.size();
  pkt.ingress_ifindex = ifindex;

  if (d->kind() == DevKind::kPhysical) {
    trace.charge("driver_rx", cost_.driver_rx);
    trace.charge_bytes("driver_rx_bytes", cost_.per_byte_rx, pkt.size());
  }

  // --- XDP hook: earliest interception point ------------------------------
  if (PacketProgram* prog = d->xdp_prog()) {
    auto result = prog->run(pkt, ifindex);
    trace.charge("xdp_prog", result.cycles + cost_.xdp_hook_overhead);
    if (auto done = hook_verdict(*d, result, Drop::kXdpDrop, pkt, trace)) {
      return *done;
    }
  }

  return stack_rx(*d, std::move(pkt), trace);
}

RxSummary Kernel::stack_rx(NetDevice& d, net::Packet&& pkt,
                           CycleTrace& trace) {
  // A GRO super-packet traverses the linear stages once but stands for
  // gso_segs() wire packets; every packet counter scales by that so a
  // coalesced run's counters exactly equal per-segment processing.
  counters_.slow_path_packets += pkt.gso_segs();
  trace.charge("skb_alloc", cost_.skb_alloc);
  trace.charge("netif_receive", cost_.netif_receive);
  trace.charge_bytes("skb_bytes", cost_.per_byte_slow, pkt.size());

  // --- TC ingress hook -----------------------------------------------------
  if (PacketProgram* prog = d.tc_ingress_prog()) {
    auto result = prog->run(pkt, d.ifindex());
    // tc_path_extra models GRO/flow-dissection and sk_buff conversion work
    // a physical NIC's RX path performs before cls_bpf — cost the TC fast
    // path cannot avoid but XDP does (Table VII gap). It is sunk cost only
    // when the program terminally handles the packet; on PASS the stack
    // performs that work as part of its normal accounting, and virtual
    // devices (veth) skip it entirely.
    bool terminal = result.verdict == PacketProgram::Verdict::kDrop ||
                    result.verdict == PacketProgram::Verdict::kTx ||
                    result.verdict == PacketProgram::Verdict::kRedirect;
    std::uint64_t hook_cost =
        cost_.tc_hook_overhead +
        (terminal && d.kind() == DevKind::kPhysical ? cost_.tc_path_extra
                                                    : 0);
    trace.charge("tc_ingress_prog", result.cycles + hook_cost);
    if (auto done = hook_verdict(d, result, Drop::kTcDrop, pkt, trace)) {
      return *done;
    }
  }

  // --- bridge port? ---------------------------------------------------------
  if (d.master() != 0) {
    Bridge* br = bridge(d.master());
    if (br) return bridge_rx(*br, d, std::move(pkt), trace);
  }

  // --- protocol demux --------------------------------------------------------
  if (pkt.size() < net::kEthHdrLen) return drop(Drop::kMalformed);
  net::EthernetView eth(pkt.data());
  std::uint16_t type = eth.ethertype();
  if (type == net::kEtherTypeArp) {
    return arp_rx(d, std::move(pkt), trace);
  }
  if (type == net::kEtherTypeIpv4 ||
      (type == net::kEtherTypeVlan && pkt.size() >= net::kEthHdrLen + 4)) {
    return ip_rcv(d, std::move(pkt), trace);
  }
  return drop(Drop::kNoHandler);
}

RxSummary Kernel::bridge_rx(Bridge& br, NetDevice& port_dev,
                            net::Packet&& pkt, CycleTrace& trace) {
  trace.charge("br_handle_frame", cost_.br_handle_frame);
  BridgePort* port = br.port(port_dev.ifindex());
  if (!port) return drop(Drop::kMalformed);

  if (pkt.size() < net::kEthHdrLen) return drop(Drop::kMalformed);
  net::EthernetView eth(pkt.data());
  net::MacAddr dst = eth.dst();
  net::MacAddr src = eth.src();

  // STP BPDUs are link-local control traffic: always slow path, consumed.
  if (dst == stp_multicast_mac()) {
    ++counters_.bpdus_processed;
    return RxSummary{false, Drop::kNone};
  }

  // Port state gating.
  if (port->state == StpState::kBlocking ||
      port->state == StpState::kListening ||
      port->state == StpState::kDisabled) {
    return drop(Drop::kStpBlocked);
  }

  // VLAN determination + filtering.
  std::uint16_t vid = 0;
  bool tagged = eth.ethertype() == net::kEtherTypeVlan;
  if (br.vlan_filtering()) {
    if (tagged) {
      net::VlanView vlan(pkt.data() + 14);
      vid = vlan.vid();
    } else {
      vid = port->pvid;
    }
    if (!port->allows_vlan(vid)) return drop(Drop::kVlanFiltered);
  }

  // Learning.
  if (port->can_learn()) {
    trace.charge("br_fdb_learn", cost_.br_fdb_learn);
    br.fdb_learn(src, vid, port_dev.ifindex(), now_ns_);
  }

  if (port->state == StpState::kLearning) return drop(Drop::kStpBlocked);

  NetDevice* br_dev = dev(br.ifindex());

  // Destined to the bridge itself (routing on the bridge interface, or a
  // unicast ARP reply to the bridge's own address).
  if (br_dev && dst == br_dev->mac()) {
    trace.charge("br_pass_up", cost_.br_forward);
    if (eth.ethertype() == net::kEtherTypeArp) {
      return arp_rx(*br_dev, std::move(pkt), trace);
    }
    return ip_rcv(*br_dev, std::move(pkt), trace);
  }

  // Broadcast/multicast: flood + deliver up.
  if (dst.is_broadcast() || dst.is_multicast()) {
    ++counters_.flooded;
    for (const auto& [ifi, p] : br.ports()) {
      if (ifi == port_dev.ifindex() || !p.can_forward()) continue;
      if (br.vlan_filtering() && !p.allows_vlan(vid)) continue;
      trace.charge("br_flood", cost_.br_flood_per_port);
      net::Packet clone = pkt;
      dev_xmit(ifi, std::move(clone), trace);
    }
    if (br_dev && br_dev->is_up()) {
      net::EthernetView e2(pkt.data());
      if (e2.ethertype() == net::kEtherTypeArp) {
        return arp_rx(*br_dev, std::move(pkt), trace);
      }
      if (e2.ethertype() == net::kEtherTypeIpv4) {
        return ip_rcv(*br_dev, std::move(pkt), trace);
      }
    }
    return RxSummary{false, Drop::kNone};
  }

  // Unicast: FDB lookup.
  trace.charge("br_fdb_lookup", cost_.br_fdb_lookup);
  const FdbEntry* entry = br.fdb_lookup(dst, vid);
  if (entry) {
    if (entry->port_ifindex == port_dev.ifindex()) {
      return drop(Drop::kNotForUs);  // would hairpin; Linux drops by default
    }
    const BridgePort* out = br.port(entry->port_ifindex);
    if (!out || !out->can_forward()) return drop(Drop::kStpBlocked);
    if (br.vlan_filtering() && !out->allows_vlan(vid)) {
      return drop(Drop::kVlanFiltered);
    }
    // br_netfilter: with bridge-nf-call-iptables=1 (mandatory on Kubernetes
    // nodes) bridged IPv4 traffic traverses the iptables FORWARD chain and
    // conntrack even though it is never routed.
    if (sysctl("net.bridge.bridge-nf-call-iptables") != 0) {
      auto parsed = net::parse_packet(pkt);
      if (parsed && parsed->has_ipv4) {
        int ct_state = -1;
        if (conntrack_enabled_ && parsed->has_ports) {
          net::FlowKey key{parsed->ip_src, parsed->ip_dst, parsed->ip_proto,
                           parsed->src_port, parsed->dst_port};
          auto ct = conntrack_.lookup_or_create(key, now_ns_);
          trace.charge("conntrack", ct.created ? cost_.conntrack_new
                                               : cost_.conntrack_lookup);
          ct_state = ct.entry->state == CtState::kEstablished ? 1 : 0;
        }
        if (netfilter_.has_any_rules_on(NfHook::kForward)) {
          NfPacketInfo nfi;
          nfi.src = parsed->ip_src;
          nfi.dst = parsed->ip_dst;
          nfi.proto = parsed->ip_proto;
          nfi.sport = parsed->src_port;
          nfi.dport = parsed->dst_port;
          nfi.in_if = port_dev.name();
          const NetDevice* out_dev = dev(entry->port_ifindex);
          nfi.out_if = out_dev ? out_dev->name() : "";
          nfi.bytes = pkt.size();
          nfi.ct_state = ct_state;
          auto result = netfilter_.evaluate(NfHook::kForward, nfi, ipsets_);
          trace.charge("br_nf_forward",
                       nf_eval_cost(result, cost_.nf_hook_base,
                                    cost_.ipt_per_rule, cost_.ipt_clf_probe,
                                    cost_.ipset_lookup));
          if (result.verdict == NfVerdict::kDrop) return drop(Drop::kPolicy);
        }
      }
    }
    trace.charge("br_forward", cost_.br_forward);
    ++counters_.bridged;
    dev_xmit(entry->port_ifindex, std::move(pkt), trace);
    return RxSummary{false, Drop::kNone};
  }

  // FDB miss: flood (slow-path corner case by design).
  ++counters_.flooded;
  for (const auto& [ifi, p] : br.ports()) {
    if (ifi == port_dev.ifindex() || !p.can_forward()) continue;
    if (br.vlan_filtering() && !p.allows_vlan(vid)) continue;
    trace.charge("br_flood", cost_.br_flood_per_port);
    net::Packet clone = pkt;
    dev_xmit(ifi, std::move(clone), trace);
  }
  return RxSummary{false, Drop::kNone};
}

RxSummary Kernel::ip_rcv(NetDevice& in_dev, net::Packet&& pkt,
                         CycleTrace& trace) {
  trace.charge("ip_rcv", cost_.ip_rcv);
  auto parsed = net::parse_packet(pkt);
  if (!parsed || !parsed->has_ipv4) return drop(Drop::kMalformed);
  net::Ipv4View ip(pkt.data() + parsed->l3_offset);
  if (!ip.checksum_valid()) return drop(Drop::kMalformed);

  // VXLAN termination: UDP to our VTEP port on an address we own.
  if (parsed->ip_proto == net::kIpProtoUdp && parsed->has_ports &&
      parsed->dst_port == net::kVxlanPort && local_addr_owner(parsed->ip_dst)) {
    return vxlan_rx(in_dev, std::move(pkt), *parsed, trace);
  }

  // ipvs director: traffic addressed to a virtual service is scheduled and
  // DNATed before (instead of) local delivery.
  if (!ipvs_.empty() && parsed->has_ports && !parsed->ip_fragment) {
    trace.charge("ipvs_match", cost_.ipvs_match);
    const VirtualService* svc =
        ipvs_.match(parsed->ip_dst, parsed->ip_proto, parsed->dst_port);
    if (svc) return ipvs_in(in_dev, std::move(pkt), *parsed, *svc, trace);
  }

  if (local_addr_owner(parsed->ip_dst) || parsed->ip_dst.is_broadcast() ||
      in_dev.has_addr(parsed->ip_dst)) {
    return local_deliver(in_dev, std::move(pkt), *parsed, trace);
  }

  if (!ip_forward_enabled()) return drop(Drop::kNotForUs);
  return ip_forward(in_dev, std::move(pkt), *parsed, trace);
}

RxSummary Kernel::ipvs_in(NetDevice& in_dev, net::Packet&& pkt,
                          const net::ParsedPacket& info,
                          const VirtualService& svc, CycleTrace& trace) {
  (void)in_dev;
  net::FlowKey key{info.ip_src, info.ip_dst, info.ip_proto, info.src_port,
                   info.dst_port};
  auto ct = conntrack_.lookup_or_create(key, now_ns_);
  trace.charge("conntrack",
               ct.created ? cost_.conntrack_new : cost_.conntrack_lookup);

  if (!ct.entry->dnat_addr) {
    // NEW flow: scheduling is control-plane work (paper Table I).
    trace.charge("ipvs_schedule", cost_.ipvs_schedule);
    const RealServer* backend = ipvs_.schedule(svc, info.ip_src);
    if (!backend) return drop(Drop::kNoRoute);
    conntrack_.set_dnat(*ct.entry, backend->addr, backend->port);
  }

  // DNAT rewrite: destination becomes the scheduled backend.
  trace.charge("nat_rewrite", cost_.nat_rewrite);
  net::Ipv4View ip(pkt.data() + info.l3_offset);
  ip.set_dst(*ct.entry->dnat_addr);
  ip.update_checksum();
  net::store_be16(pkt.data() + info.l4_offset + 2, ct.entry->dnat_port);

  // Route toward the backend.
  trace.charge("fib_lookup", cost_.fib_lookup);
  auto hit = fib_.lookup(*ct.entry->dnat_addr);
  note_fib_lookup(hit);
  if (!hit) return drop(Drop::kNoRoute);
  net::Ipv4View ttl_view(pkt.data() + info.l3_offset);
  if (ttl_view.ttl() <= 1) return drop(Drop::kTtlExceeded);
  ttl_view.decrement_ttl();
  counters_.forwarded += pkt.gso_segs();
  Drop outcome =
      resolve_and_xmit(std::move(pkt), hit->next_hop, hit->route.oif, trace);
  return RxSummary{false, outcome};
}

RxSummary Kernel::ip_forward(NetDevice& in_dev, net::Packet&& pkt,
                             const net::ParsedPacket& info,
                             CycleTrace& trace) {
  // ipvs reverse path: replies from a scheduled backend are un-NATed (source
  // rewritten back to the VIP) before normal forwarding to the client.
  if (!ipvs_.empty() && info.has_ports) {
    net::FlowKey key{info.ip_src, info.ip_dst, info.ip_proto, info.src_port,
                     info.dst_port};
    auto ct = conntrack_.lookup(key, now_ns_);
    trace.charge("conntrack", cost_.conntrack_lookup);
    if (ct.entry && ct.is_reply_direction && ct.entry->dnat_addr &&
        info.ip_src == *ct.entry->dnat_addr &&
        info.src_port == ct.entry->dnat_port) {
      trace.charge("nat_rewrite", cost_.nat_rewrite);
      net::Ipv4View ip(pkt.data() + info.l3_offset);
      ip.set_src(ct.entry->original.dst_ip);  // the VIP
      ip.update_checksum();
      net::store_be16(pkt.data() + info.l4_offset,
                      ct.entry->original.dst_port);
    }
  }

  // Routing decision.
  trace.charge("fib_lookup", cost_.fib_lookup);
  auto hit = fib_.lookup(info.ip_dst);
  note_fib_lookup(hit);
  if (!hit) return drop(Drop::kNoRoute);

  // Conntrack runs at PREROUTING, before the filter table sees the packet,
  // so state matches observe the up-to-date flow state.
  int ct_state = -1;
  if (conntrack_enabled_ && info.has_ports) {
    auto ct = conntrack_.lookup_or_create(flow_key_of(info), now_ns_);
    trace.charge("conntrack",
                 ct.created ? cost_.conntrack_new : cost_.conntrack_lookup);
    ct_state = ct.entry->state == CtState::kEstablished ? 1 : 0;
  }

  // netfilter FORWARD hook.
  if (netfilter_.has_any_rules_on(NfHook::kForward)) {
    NfPacketInfo nfi;
    nfi.src = info.ip_src;
    nfi.dst = info.ip_dst;
    nfi.proto = info.ip_proto;
    nfi.sport = info.src_port;
    nfi.dport = info.dst_port;
    nfi.in_if = in_dev.name();
    const NetDevice* out_dev = dev(hit->route.oif);
    nfi.out_if = out_dev ? out_dev->name() : "";
    nfi.bytes = pkt.size();
    nfi.ct_state = ct_state;
    auto result = netfilter_.evaluate(NfHook::kForward, nfi, ipsets_);
    trace.charge("nf_forward",
                 nf_eval_cost(result, cost_.nf_hook_base, cost_.ipt_per_rule,
                              cost_.ipt_clf_probe, cost_.ipset_lookup));
    if (result.verdict == NfVerdict::kDrop) return drop(Drop::kPolicy);
  }

  trace.charge("ip_forward", cost_.ip_forward);
  net::Ipv4View ip(pkt.data() + info.l3_offset);
  if (ip.ttl() <= 1) return drop(Drop::kTtlExceeded);
  ip.decrement_ttl();

  counters_.forwarded += pkt.gso_segs();
  Drop outcome =
      resolve_and_xmit(std::move(pkt), hit->next_hop, hit->route.oif, trace);
  return RxSummary{false, outcome};
}

RxSummary Kernel::local_deliver(NetDevice& in_dev, net::Packet&& pkt,
                                const net::ParsedPacket& info,
                                CycleTrace& trace) {
  int ct_state = -1;
  if (conntrack_enabled_ && info.has_ports) {
    auto ct = conntrack_.lookup_or_create(flow_key_of(info), now_ns_);
    trace.charge("conntrack",
                 ct.created ? cost_.conntrack_new : cost_.conntrack_lookup);
    ct_state = ct.entry->state == CtState::kEstablished ? 1 : 0;
  }

  // netfilter INPUT hook.
  if (netfilter_.has_any_rules_on(NfHook::kInput)) {
    NfPacketInfo nfi;
    nfi.src = info.ip_src;
    nfi.dst = info.ip_dst;
    nfi.proto = info.ip_proto;
    nfi.sport = info.src_port;
    nfi.dport = info.dst_port;
    nfi.in_if = in_dev.name();
    nfi.bytes = pkt.size();
    nfi.ct_state = ct_state;
    auto result = netfilter_.evaluate(NfHook::kInput, nfi, ipsets_);
    trace.charge("nf_input",
                 nf_eval_cost(result, cost_.nf_hook_base, cost_.ipt_per_rule,
                              cost_.ipt_clf_probe, cost_.ipset_lookup));
    if (result.verdict == NfVerdict::kDrop) return drop(Drop::kPolicy);
  }

  trace.charge("ip_local_deliver", cost_.ip_local_deliver);

  // ICMP echo server.
  if (info.ip_proto == net::kIpProtoIcmp) {
    if (pkt.size() >= info.l4_offset + net::kIcmpHdrLen) {
      net::IcmpView icmp(pkt.data() + info.l4_offset);
      if (icmp.type() == 8) {
        trace.charge("icmp", cost_.icmp_process);
        icmp_echo_reply(in_dev, pkt, info, trace);
        counters_.locally_delivered += pkt.gso_segs();
        return RxSummary{false, Drop::kNone};
      }
    }
    counters_.locally_delivered += pkt.gso_segs();
    return RxSummary{false, Drop::kNone};
  }

  // L4 socket delivery.
  if (info.has_ports) {
    auto it = l4_handlers_.find({info.ip_proto, info.dst_port});
    if (it != l4_handlers_.end()) {
      trace.charge("socket_queue", cost_.socket_queue);
      counters_.locally_delivered += pkt.gso_segs();
      it->second(*this, info, pkt, trace);
      return RxSummary{false, Drop::kNone};
    }
  }
  counters_.locally_delivered += pkt.gso_segs();
  return RxSummary{false, Drop::kNone};
}

RxSummary Kernel::arp_rx(NetDevice& in_dev, net::Packet&& pkt,
                         CycleTrace& trace) {
  ++counters_.arp_rx;
  trace.charge("arp", cost_.arp_process);
  if (pkt.size() < net::kEthHdrLen + net::kArpLen) return drop(Drop::kMalformed);
  net::ArpView arp(pkt.data() + net::kEthHdrLen);
  net::ArpFields f = arp.read();

  // Learn/refresh the sender in the neighbour table (dynamic entry).
  if (!f.sender_ip.is_zero()) {
    NeighEntry* existing = neigh_.lookup_mutable(f.sender_ip);
    bool had_pending = existing && !existing->pending.empty();
    NeighEntry& e = neigh_.update(f.sender_ip, f.sender_mac,
                                  in_dev.ifindex(), NeighState::kReachable,
                                  now_ns_);
    if (had_pending) {
      // Flush packets that were parked waiting for this resolution.
      std::vector<net::Packet> pending = std::move(e.pending);
      e.pending.clear();
      for (net::Packet& parked : pending) {
        net::EthernetView eth(parked.data());
        eth.set_src(in_dev.mac());
        eth.set_dst(f.sender_mac);
        dev_xmit(in_dev.ifindex(), std::move(parked), trace);
      }
    }
  }

  if (f.opcode == 1) {  // request: answer if the target IP is ours
    NetDevice* owner = local_addr_owner(f.target_ip);
    if (owner) {
      ++counters_.arp_tx;
      net::Packet reply = net::build_arp_reply(in_dev.mac(), f.target_ip,
                                               f.sender_mac, f.sender_ip);
      dev_xmit(in_dev.ifindex(), std::move(reply), trace);
    }
  }
  return RxSummary{false, Drop::kNone};
}

void Kernel::icmp_echo_reply(NetDevice& in_dev, const net::Packet& request,
                             const net::ParsedPacket& info,
                             CycleTrace& trace) {
  ++counters_.icmp_echo_replies;
  net::IcmpView req_icmp(
      const_cast<std::uint8_t*>(request.data() + info.l4_offset));
  net::Packet reply = net::build_icmp_echo(
      in_dev.mac(), info.eth_src, info.ip_dst, info.ip_src,
      /*is_reply=*/true, req_icmp.ident(), req_icmp.sequence());
  send_ip_packet(std::move(reply), trace);
}

void Kernel::send_ip_packet(net::Packet&& pkt, CycleTrace& trace) {
  auto parsed = net::parse_packet(pkt);
  if (!parsed || !parsed->has_ipv4) {
    count_drop(Drop::kMalformed);
    return;
  }
  // netfilter OUTPUT hook.
  if (netfilter_.has_any_rules_on(NfHook::kOutput)) {
    NfPacketInfo nfi;
    nfi.src = parsed->ip_src;
    nfi.dst = parsed->ip_dst;
    nfi.proto = parsed->ip_proto;
    nfi.sport = parsed->src_port;
    nfi.dport = parsed->dst_port;
    nfi.bytes = pkt.size();
    auto result = netfilter_.evaluate(NfHook::kOutput, nfi, ipsets_);
    trace.charge("nf_output",
                 nf_eval_cost(result, cost_.nf_hook_base, cost_.ipt_per_rule,
                              cost_.ipt_clf_probe, cost_.ipset_lookup));
    if (result.verdict == NfVerdict::kDrop) {
      count_drop(Drop::kPolicy);
      return;
    }
  }
  trace.charge("fib_lookup", cost_.fib_lookup);
  auto hit = fib_.lookup(parsed->ip_dst);
  note_fib_lookup(hit);
  if (!hit) {
    count_drop(Drop::kNoRoute);
    return;
  }
  NetDevice* out = dev(hit->route.oif);
  if (out) {
    net::EthernetView eth(pkt.data());
    eth.set_src(out->mac());
  }
  resolve_and_xmit(std::move(pkt), hit->next_hop, hit->route.oif, trace);
}

Drop Kernel::resolve_and_xmit(net::Packet&& pkt, net::Ipv4Addr next_hop,
                              int oif, CycleTrace& trace) {
  NetDevice* out = dev(oif);
  if (!out || !out->is_up()) {
    count_drop(Drop::kLinkDown);
    return Drop::kLinkDown;
  }
  trace.charge("neigh_lookup", cost_.neigh_lookup);
  const NeighEntry* entry = neigh_.lookup(next_hop);
  if (!entry || entry->state == NeighState::kIncomplete) {
    NeighEntry& pending = neigh_.create_incomplete(next_hop, oif, now_ns_);
    if (pending.pending.size() < NeighborTable::kMaxPending) {
      pending.pending.push_back(std::move(pkt));
    }
    count_drop(Drop::kNeighPending);
    emit_arp_request(next_hop, oif, trace);
    return Drop::kNeighPending;
  }
  net::EthernetView eth(pkt.data());
  eth.set_src(out->mac());
  eth.set_dst(entry->mac);
  dev_xmit(oif, std::move(pkt), trace);
  return Drop::kNone;
}

void Kernel::emit_arp_request(net::Ipv4Addr target, int oif,
                              CycleTrace& trace) {
  NetDevice* out = dev(oif);
  if (!out) return;
  // Source IP: the device's address on the subnet containing the target, or
  // its first address.
  net::Ipv4Addr src;
  for (const auto& a : out->addrs()) {
    if (a.subnet().contains(target)) {
      src = a.addr;
      break;
    }
  }
  if (src.is_zero() && !out->addrs().empty()) src = out->addrs()[0].addr;
  ++counters_.arp_tx;
  net::Packet req = net::build_arp_request(out->mac(), src, target);
  dev_xmit(oif, std::move(req), trace);
}

NetDevice* Kernel::local_addr_owner(net::Ipv4Addr addr) {
  for (auto& [ifi, d] : devs_) {
    if (d->has_addr(addr)) return d.get();
  }
  return nullptr;
}

// --- transmit ------------------------------------------------------------------

void Kernel::dev_xmit(int ifindex, net::Packet&& pkt, CycleTrace& trace) {
  // GSO: a GRO super-packet (engine/gro.h) splits back into its original
  // wire segments here, before shadow capture and the egress hooks, so every
  // downstream observer — the guard's emissions, TC egress, DevStats, the
  // wire — sees exactly the frames per-segment processing would have sent.
  if (pkt.gro_segs.size() > 1) {
    std::vector<net::Packet> segs = net::gso_segment(pkt);
    trace.charge("gso_segment",
                 cost_.gso_segment * static_cast<std::uint64_t>(segs.size()));
    if (auto* t = trace.packet_trace()) {
      t->add("gro", "gso_segment", 0,
             std::to_string(segs.size()) + " segments");
    }
    for (net::Packet& seg : segs) dev_xmit(ifindex, std::move(seg), trace);
    return;
  }
  // Shadow capture records every attempted transmit — before the link-state
  // check, so "slow path chose oif X with rewrite R" is observable even when
  // X is down (the fast path attempting the same dead oif must compare
  // equal, not diverge).
  if (active_shadow_cookie_ != 0) {
    shadow_emissions_.push_back(ShadowEmission{ifindex, net::Packet(pkt)});
  }
  NetDevice* d = dev(ifindex);
  if (!d) {
    // No device behind this ifindex at all (a redirect verdict naming a
    // never-created or deleted device): its own reason, never silent.
    count_drop(Drop::kNoDevice);
    return;
  }
  if (!d->is_up()) {
    count_drop(Drop::kLinkDown);
    return;
  }

  // TC egress hook.
  if (PacketProgram* prog = d->tc_egress_prog()) {
    auto result = prog->run(pkt, ifindex);
    trace.charge("tc_egress_prog", result.cycles + cost_.tc_hook_overhead);
    if (result.verdict == PacketProgram::Verdict::kDrop ||
        result.verdict == PacketProgram::Verdict::kUserspace) {
      count_drop(Drop::kTcDrop);
      return;
    }
    if (result.verdict == PacketProgram::Verdict::kRedirect) {
      dev_xmit(result.redirect_ifindex, std::move(pkt), trace);
      return;
    }
  }

  d->stats().tx_packets++;
  d->stats().tx_bytes += pkt.size();

  switch (d->kind()) {
    case DevKind::kPhysical: {
      // xmit_more path: with a batcher installed, the packet still reaches
      // the device right here (ordering and delivery are untouched) but only
      // the descriptor write is charged per packet — the batcher rings one
      // doorbell per burst. Without one, the legacy amortized constant.
      if (tx_batcher_ != nullptr) {
        tx_batcher_->post_descriptor(*d, pkt.size(), trace);
      } else {
        trace.charge("driver_tx", cost_.driver_tx);
      }
      if (d->phys_tx()) {
        d->phys_tx()(std::move(pkt));
      }
      return;
    }
    case DevKind::kVeth: {
      trace.charge("veth_xmit", cost_.veth_xmit);
      VethPeer& peer = d->veth();
      if (peer.kernel) {
        peer.kernel->rx(peer.ifindex, std::move(pkt), trace);
      }
      return;
    }
    case DevKind::kBridge: {
      Bridge* br = bridge(ifindex);
      if (br) bridge_dev_xmit(*br, *d, std::move(pkt), trace);
      return;
    }
    case DevKind::kVxlan: {
      vxlan_xmit(*d, std::move(pkt), trace);
      return;
    }
    case DevKind::kLoopback: {
      rx(ifindex, std::move(pkt), trace);
      return;
    }
  }
}

void Kernel::bridge_dev_xmit(Bridge& br, NetDevice& br_dev, net::Packet&& pkt,
                             CycleTrace& trace) {
  // Host-originated frame onto the bridge: FDB lookup, else flood.
  (void)br_dev;
  if (pkt.size() < net::kEthHdrLen) {
    count_drop(Drop::kMalformed);
    return;
  }
  net::EthernetView eth(pkt.data());
  net::MacAddr dst = eth.dst();
  trace.charge("br_fdb_lookup", cost_.br_fdb_lookup);
  if (!dst.is_broadcast() && !dst.is_multicast()) {
    const FdbEntry* entry = br.fdb_lookup(dst, 0);
    if (entry) {
      const BridgePort* out = br.port(entry->port_ifindex);
      if (out && out->can_forward()) {
        trace.charge("br_forward", cost_.br_forward);
        dev_xmit(entry->port_ifindex, std::move(pkt), trace);
      }
      return;
    }
  }
  for (const auto& [ifi, p] : br.ports()) {
    if (!p.can_forward()) continue;
    trace.charge("br_flood", cost_.br_flood_per_port);
    net::Packet clone = pkt;
    dev_xmit(ifi, std::move(clone), trace);
  }
}

void Kernel::vxlan_xmit(NetDevice& vxlan_dev, net::Packet&& pkt,
                        CycleTrace& trace) {
  if (pkt.size() < net::kEthHdrLen) {
    count_drop(Drop::kMalformed);
    return;
  }
  VxlanConfig& cfg = vxlan_dev.vxlan();
  net::EthernetView eth(pkt.data());
  eth.set_src(vxlan_dev.mac());

  auto it = cfg.vtep_fdb.find(eth.dst());
  if (it == cfg.vtep_fdb.end()) {
    count_drop(Drop::kNoRoute);
    return;
  }
  net::Ipv4Addr remote = it->second;

  trace.charge("vxlan_encap", cost_.vxlan_encap);
  NetDevice* underlay = dev(cfg.underlay_ifindex);
  if (!underlay || !underlay->is_up()) {
    count_drop(Drop::kLinkDown);
    return;
  }
  net::vxlan_encap(pkt, cfg.vni, underlay->mac(), net::MacAddr::zero(),
                   cfg.local, remote,
                   static_cast<std::uint16_t>(++last_vxlan_entropy_));

  // Route the outer packet toward the remote VTEP.
  trace.charge("fib_lookup", cost_.fib_lookup);
  auto hit = fib_.lookup(remote);
  note_fib_lookup(hit);
  if (!hit) {
    count_drop(Drop::kNoRoute);
    return;
  }
  resolve_and_xmit(std::move(pkt), hit->next_hop, hit->route.oif, trace);
}

RxSummary Kernel::vxlan_rx(NetDevice& in_dev, net::Packet&& pkt,
                           const net::ParsedPacket& outer, CycleTrace& trace) {
  (void)in_dev;
  if (pkt.size() <
      outer.l4_offset + net::kUdpHdrLen + net::kVxlanHdrLen + net::kEthHdrLen) {
    return drop(Drop::kMalformed);
  }
  net::VxlanView vx(pkt.data() + outer.l4_offset + net::kUdpHdrLen);
  std::uint32_t vni = vx.vni();

  // Find the local VTEP device for this VNI.
  NetDevice* vtep = nullptr;
  for (auto& [ifi, d] : devs_) {
    if (d->kind() == DevKind::kVxlan && d->vxlan().vni == vni) {
      vtep = d.get();
      break;
    }
  }
  if (!vtep || !vtep->is_up()) return drop(Drop::kNoHandler);

  trace.charge("vxlan_decap", cost_.vxlan_decap);
  net::vxlan_decap(pkt);
  // The inner frame is received on the VTEP device.
  return stack_rx(*vtep, std::move(pkt), trace);
}

}  // namespace linuxfp::kern
