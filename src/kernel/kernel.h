// The Kernel facade: one instance models one network namespace (a host, or a
// pod's netns). It owns all networking state — devices, FIB, neighbour
// table, bridges, netfilter, ipsets, conntrack, sysctls — runs the slow-path
// datapath with cycle accounting, invokes attached fast-path programs at the
// XDP/TC hooks, and publishes configuration changes on the netlink bus.
//
// All configuration mutators emit netlink notifications, which is what makes
// the LinuxFP controller's transparent introspection work: tools (the
// command front-ends in commands.h) only talk to this class, never to the
// controller.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kernel/bridge.h"
#include "kernel/conntrack.h"
#include "kernel/cost_model.h"
#include "kernel/fib.h"
#include "kernel/neigh.h"
#include "kernel/netdev.h"
#include "kernel/netfilter.h"
#include "kernel/ipset.h"
#include "kernel/ipvs.h"
#include "net/headers.h"
#include "net/packet.h"
#include "netlink/netlink.h"
#include "util/metrics.h"
#include "util/result.h"

namespace linuxfp::kern {

// Why a packet terminated in this kernel (for counters and tests).
enum class Drop {
  kNone,
  kLinkDown,
  kStpBlocked,
  kVlanFiltered,
  kPolicy,        // netfilter DROP
  kNoRoute,
  kTtlExceeded,
  kNeighPending,  // queued awaiting ARP resolution (not lost)
  kMalformed,
  kNotForUs,
  kXdpDrop,
  kTcDrop,
  kNoHandler,
  // Transmit toward an ifindex with no device behind it (e.g. an XDP
  // redirect verdict naming an ifindex that was never created or was
  // deleted). Distinct from kLinkDown: the device exists but is down.
  kNoDevice,
};

// Stable lower-case name for a drop reason ("policy", "no_route", ...);
// keys the registry's drop.* counters and the trace verdict strings.
const char* drop_name(Drop reason);

struct KernelCounters {
  std::uint64_t slow_path_packets = 0;
  std::uint64_t fast_path_packets = 0;  // consumed by an XDP/TC program
  std::uint64_t forwarded = 0;
  std::uint64_t bridged = 0;
  std::uint64_t flooded = 0;
  std::uint64_t locally_delivered = 0;
  std::uint64_t arp_rx = 0;
  std::uint64_t arp_tx = 0;
  std::uint64_t icmp_echo_replies = 0;
  std::uint64_t bpdus_processed = 0;
  std::map<Drop, std::uint64_t> drops;

  std::uint64_t total_drops() const {
    std::uint64_t n = 0;
    for (const auto& [k, v] : drops) {
      if (k != Drop::kNone && k != Drop::kNeighPending) n += v;
    }
    return n;
  }
};

// Result of injecting one packet.
struct RxSummary {
  bool fast_path = false;  // terminally handled by an XDP/TC program
  Drop drop = Drop::kNone;
};

// One transmit attempt observed while a shadow capture was active: the
// egress device and the exact bytes handed to it (recorded before the
// link-state check, so an attempted xmit out a downed link still counts as
// "the slow path chose this interface/rewrite").
struct ShadowEmission {
  int ifindex = 0;
  net::Packet pkt;
};

// Receiver of shadow-capture results (the equivalence guard, core/guard.h).
// While a cookie is active, every dev_xmit records an emission; when the
// entry (rx or netif_receive_skb) that adopted it completes, the observer
// gets the packet's terminal summary plus everything it transmitted. A
// cookie that arrives while another capture is active cannot be captured
// and comes back through on_shadow_skipped instead.
class ShadowObserver {
 public:
  virtual ~ShadowObserver() = default;
  virtual void on_shadow_resolved(std::uint64_t cookie,
                                  const RxSummary& summary,
                                  std::vector<ShadowEmission>&& emissions) = 0;
  virtual void on_shadow_skipped(std::uint64_t cookie) = 0;
};

// TX batching hook (DESIGN.md §16): when installed, dev_xmit routes the
// physical-NIC transmit cost through the batcher instead of charging the
// flat driver_tx constant. The batcher charges tx_descriptor per packet on
// the packet's own trace and defers the doorbell MMIO, ringing it once per
// xmit_more window — the skb->xmit_more contract: packets are still handed
// to the device immediately and in order; only the doorbell cost moves.
class TxBatcher {
 public:
  virtual ~TxBatcher() = default;
  // Called by dev_xmit for every packet posted to a physical device, after
  // DevStats accounting, instead of the driver_tx charge. `trace` is the
  // packet's cycle trace; implementations charge tx_descriptor (and, when
  // the pending window fills, one tx_doorbell) into it.
  virtual void post_descriptor(NetDevice& dev, std::size_t bytes,
                               CycleTrace& trace) = 0;
};

class Kernel : public nl::DumpProvider {
 public:
  explicit Kernel(std::string hostname, CostModel cost = CostModel{});
  ~Kernel() override;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  const std::string& hostname() const { return hostname_; }
  const CostModel& cost() const { return cost_; }
  CostModel& mutable_cost() { return cost_; }

  // --- time ----------------------------------------------------------------
  std::uint64_t now_ns() const { return now_ns_; }
  void set_now_ns(std::uint64_t ns) { now_ns_ = ns; }
  // Periodic housekeeping: FDB aging, neighbour aging, conntrack expiry,
  // STP timers + BPDU emission.
  void tick();

  // --- device management ------------------------------------------------------
  NetDevice& add_phys_dev(const std::string& name);
  NetDevice& add_loopback();
  NetDevice& add_bridge_dev(const std::string& name);
  // veth pair within this kernel.
  std::pair<NetDevice*, NetDevice*> add_veth_pair(const std::string& a,
                                                  const std::string& b);
  // veth endpoint whose peer lives in another kernel (container netns).
  NetDevice& add_veth_to(const std::string& name, Kernel& peer_kernel,
                         const std::string& peer_name);
  NetDevice& add_vxlan_dev(const std::string& name, std::uint32_t vni,
                           net::Ipv4Addr local, int underlay_ifindex);
  util::Status del_dev(const std::string& name);

  NetDevice* dev(int ifindex);
  const NetDevice* dev(int ifindex) const;
  NetDevice* dev_by_name(const std::string& name);
  const NetDevice* dev_by_name(const std::string& name) const;
  std::vector<NetDevice*> devices();

  util::Status set_link_up(const std::string& name, bool up);
  // Port changes publish the port's link only: it carries its master and,
  // while enslaved, its STP state and pvid. The bridge's link carries the
  // bridge's own attributes and is published when they change.
  util::Status enslave(const std::string& port, const std::string& bridge);
  util::Status release(const std::string& port);
  // Publishes a device's whole link object (RTM_NEWLINK/DELLINK), for
  // changes made through a subsystem handle (brctl stp, bridge vlan).
  void publish_link(const NetDevice& dev, bool deleted = false);
  // Publishes the link of every port of `br`, whose STP states changed.
  void publish_ports(const Bridge& br);

  // --- addresses and routes ------------------------------------------------
  util::Status add_addr(const std::string& dev, const net::IfAddr& addr);
  util::Status del_addr(const std::string& dev, const net::IfAddr& addr);
  util::Status add_route(const net::Ipv4Prefix& dst, net::Ipv4Addr via,
                         const std::string& dev, std::uint32_t metric = 0);
  // Without a metric, deletes the active (lowest-metric) route for the
  // prefix; with one, deletes exactly (prefix, metric).
  util::Status del_route(const net::Ipv4Prefix& dst,
                         std::optional<std::uint32_t> metric = std::nullopt);
  util::Status add_neigh(net::Ipv4Addr ip, const net::MacAddr& mac,
                         const std::string& dev, bool permanent);
  util::Status del_neigh(net::Ipv4Addr ip);

  // --- sysctl -----------------------------------------------------------------
  util::Status set_sysctl(const std::string& key, int value);
  int sysctl(const std::string& key, int fallback = 0) const;
  bool ip_forward_enabled() const { return sysctl("net.ipv4.ip_forward") != 0; }

  // --- subsystem access (shared state the fast path reads via helpers) ------
  Fib& fib() { return fib_; }
  const Fib& fib() const { return fib_; }
  NeighborTable& neigh() { return neigh_; }
  const NeighborTable& neigh() const { return neigh_; }
  Netfilter& netfilter() { return netfilter_; }
  const Netfilter& netfilter() const { return netfilter_; }
  IpSetManager& ipsets() { return ipsets_; }
  const IpSetManager& ipsets() const { return ipsets_; }
  Conntrack& conntrack() { return conntrack_; }
  const Conntrack& conntrack() const { return conntrack_; }
  Ipvs& ipvs() { return ipvs_; }
  const Ipvs& ipvs() const { return ipvs_; }
  Bridge* bridge(int ifindex);
  const Bridge* bridge(int ifindex) const;
  Bridge* bridge_by_name(const std::string& name);
  std::vector<Bridge*> bridges();

  // Netfilter mutations via the kernel so change events are published.
  util::Status ipt_append(const std::string& chain, Rule rule);
  util::Status ipt_insert(const std::string& chain, std::size_t index, Rule r);
  util::Status ipt_delete(const std::string& chain, std::size_t index);
  util::Status ipt_flush(const std::string& chain);
  util::Status ipt_new_chain(const std::string& name);
  util::Status ipt_delete_chain(const std::string& name);
  util::Status ipt_set_policy(const std::string& chain, NfVerdict policy);
  util::Status ipset_create(const std::string& name, IpSetType type,
                            std::size_t maxelem = kIpSetDefaultMaxElem);
  util::Status ipset_add(const std::string& name,
                         const net::Ipv4Prefix& member);
  util::Status ipset_del(const std::string& name,
                         const net::Ipv4Prefix& member);
  util::Status ipset_destroy(const std::string& name);

  // ipvs mutations via the kernel so change events are published.
  util::Status ipvs_add_service(net::Ipv4Addr vip, std::uint16_t port,
                                std::uint8_t proto, IpvsScheduler scheduler);
  util::Status ipvs_del_service(net::Ipv4Addr vip, std::uint16_t port,
                                std::uint8_t proto);
  util::Status ipvs_add_backend(net::Ipv4Addr vip, std::uint16_t port,
                                std::uint8_t proto, net::Ipv4Addr backend,
                                std::uint16_t backend_port,
                                std::uint32_t weight);
  util::Status ipvs_del_backend(net::Ipv4Addr vip, std::uint16_t port,
                                std::uint8_t proto, net::Ipv4Addr backend,
                                std::uint16_t backend_port);

  // --- netlink ---------------------------------------------------------------
  nl::Bus& netlink() { return netlink_; }
  std::vector<nl::Message> dump(nl::DumpKind kind) const override;

  // --- datapath ----------------------------------------------------------------
  // Packet arrives on a device (from a NIC, a veth peer, or XDP_TX bounce):
  // driver RX and the XDP hook, then the stack, on the calling thread.
  RxSummary rx(int ifindex, net::Packet&& pkt, CycleTrace& trace);

  // The stack half of rx(), for a packet whose driver poll and XDP hook
  // already ran on an engine worker: no driver_rx charge, no device rx
  // accounting (the engine reconciles those per queue) and no XDP re-run.
  // Must only be called from the engine's single slow-path thread; it
  // touches the same single-writer kernel state as rx().
  RxSummary netif_receive_skb(int ifindex, net::Packet&& pkt,
                              CycleTrace& trace);

  // Transmit out of a device from the stack / fast path.
  void dev_xmit(int ifindex, net::Packet&& pkt, CycleTrace& trace);

  // Host-originated IP packet (OUTPUT path: netfilter OUTPUT, FIB, neigh).
  void send_ip_packet(net::Packet&& pkt, CycleTrace& trace);

  // Local L4 delivery: handlers keyed by (proto, dst port); e.g. a netperf
  // server. Handler may synthesize replies via send_ip_packet.
  using L4Handler = std::function<void(Kernel& kernel,
                                       const net::ParsedPacket& info,
                                       const net::Packet& pkt,
                                       CycleTrace& trace)>;
  void register_l4_handler(std::uint8_t proto, std::uint16_t port,
                           L4Handler handler);

  const KernelCounters& counters() const { return counters_; }
  KernelCounters& mutable_counters() { return counters_; }

  // --- TX batching (engine xmit_more path, DESIGN.md §16) -------------------
  // At most one batcher; null detaches (dev_xmit then charges the legacy
  // amortized driver_tx). Must only change with no packet in flight; only
  // the single slow-path writer thread transmits, so no synchronization.
  void set_tx_batcher(TxBatcher* batcher) { tx_batcher_ = batcher; }
  TxBatcher* tx_batcher() const { return tx_batcher_; }

  // Segment-aware drop accounting for GRO super-packets: when the slow path
  // drops a coalesced packet it counted ONE drop; the engine (the only
  // caller, on the slow-path thread) adds the remaining segments so drop
  // counters match per-segment processing exactly.
  void note_extra_drops(Drop reason, std::uint64_t extra) {
    if (extra == 0) return;
    counters_.drops[reason] += extra;
    if (metrics_.enabled()) {
      util::owner_add(drop_counters_[static_cast<int>(reason)], extra);
    }
  }

  // --- observability --------------------------------------------------------
  // One registry per kernel holds slow-path stage counters, per-reason drop
  // counters, FIB counts and — once a controller wires them up — fast-path
  // program, helper and FPM counters (see util/metrics.h for the naming
  // scheme). Every per-packet count has one writer: the thread running this
  // kernel's slow path adds to the stage, drop and slow-path FIB counts
  // without a `lock` prefix (DESIGN.md §11), and each engine worker counts
  // its bpf_fib_lookup calls in its own VM.
  util::MetricsRegistry& metrics() { return metrics_; }
  const util::MetricsRegistry& metrics() const { return metrics_; }
  // Master switch for metric emission on the datapath (counters keep their
  // values; bench overhead guard uses this).
  void set_metrics_enabled(bool on) { metrics_.set_enabled(on); }
  // Attach a trace ring: every top-level rx() then records its ordered
  // stage-by-stage journey through slow path and eBPF VM. Null detaches.
  void set_trace_ring(util::TraceRing* ring) { trace_ring_ = ring; }
  util::TraceRing* trace_ring() { return trace_ring_; }

  // --- shadow capture (equivalence guard) -----------------------------------
  // A hook program that shadows a packet leaves a cookie in
  // pkt.guard_cookie; the stack adopts it where it takes the packet from
  // the hook (an XDP or TC ingress pass, or netif_receive_skb). At most one
  // observer; null detaches. Must only change with no packet in flight.
  // Only the single slow-path writer thread drives captures, so the
  // active-cookie state needs no synchronization.
  void set_shadow_observer(ShadowObserver* obs) { shadow_observer_ = obs; }
  ShadowObserver* shadow_observer() const { return shadow_observer_; }

  // Enables conntrack consultation on forwarded/delivered packets (off by
  // default; the Kubernetes scenario turns it on, like kube-proxy does).
  // Toggling changes helper behaviour, so it counts as a device-level
  // configuration mutation for cache-coherence purposes.
  void set_conntrack_enabled(bool enabled) {
    if (conntrack_enabled_ != enabled) {
      conntrack_enabled_ = enabled;
      bump_dev_generation();
    }
  }
  bool conntrack_enabled() const { return conntrack_enabled_; }

  // --- generation counters (fast-path cache coherence) ----------------------
  // Device/link/address/sysctl configuration generation; any change that can
  // alter what a fast-path helper observes about devices bumps it. Bridges
  // share one counter (wired into each Bridge at construction); per-subsystem
  // counters live on the subsystems themselves (fib(), neigh(), netfilter(),
  // ipsets(), conntrack()).
  std::uint64_t dev_generation() const {
    return dev_gen_.load(std::memory_order_relaxed);
  }
  std::uint64_t bridge_generation() const {
    return bridge_gen_.load(std::memory_order_relaxed);
  }

 private:
  // The per-packet scope of rx and netif_receive_skb around `path`: stage
  // attribution, the packet's trace record, and resolution of a capture
  // adopted inside it.
  template <typename Path>
  RxSummary rx_scope(int ifindex, CycleTrace& trace, Path&& path);
  // Slow-path stages (slowpath.cpp).
  RxSummary rx_inner(int ifindex, net::Packet&& pkt, CycleTrace& trace);
  // Serves a terminal verdict of the XDP or TC ingress program on `dev`
  // (`drop`: the hook's drop reason); on PASS or ABORTED returns none and
  // adopts the packet's guard cookie for the stack.
  std::optional<RxSummary> hook_verdict(NetDevice& dev,
                                        const PacketProgram::RunResult& result,
                                        Drop drop, net::Packet& pkt,
                                        CycleTrace& trace);
  RxSummary stack_rx(NetDevice& dev, net::Packet&& pkt, CycleTrace& trace);
  RxSummary bridge_rx(Bridge& br, NetDevice& port_dev, net::Packet&& pkt,
                      CycleTrace& trace);
  RxSummary ip_rcv(NetDevice& in_dev, net::Packet&& pkt, CycleTrace& trace);
  RxSummary ip_forward(NetDevice& in_dev, net::Packet&& pkt,
                       const net::ParsedPacket& info, CycleTrace& trace);
  RxSummary local_deliver(NetDevice& in_dev, net::Packet&& pkt,
                          const net::ParsedPacket& info, CycleTrace& trace);
  RxSummary arp_rx(NetDevice& in_dev, net::Packet&& pkt, CycleTrace& trace);
  // ipvs director input path: schedule/NAT traffic addressed to a VIP.
  RxSummary ipvs_in(NetDevice& in_dev, net::Packet&& pkt,
                    const net::ParsedPacket& info,
                    const VirtualService& svc, CycleTrace& trace);
  void bridge_dev_xmit(Bridge& br, NetDevice& br_dev, net::Packet&& pkt,
                       CycleTrace& trace);
  void vxlan_xmit(NetDevice& vxlan_dev, net::Packet&& pkt, CycleTrace& trace);
  RxSummary vxlan_rx(NetDevice& in_dev, net::Packet&& pkt,
                     const net::ParsedPacket& outer, CycleTrace& trace);
  void icmp_echo_reply(NetDevice& in_dev, const net::Packet& request,
                       const net::ParsedPacket& info, CycleTrace& trace);
  // Returns kNone when the packet was handed to a device, kNeighPending when
  // it was parked awaiting ARP resolution, or a drop reason.
  Drop resolve_and_xmit(net::Packet&& pkt, net::Ipv4Addr next_hop, int oif,
                        CycleTrace& trace);
  void emit_arp_request(net::Ipv4Addr target, int oif, CycleTrace& trace);
  // Is `addr` assigned to any local device?
  NetDevice* local_addr_owner(net::Ipv4Addr addr);

  // Single count point for every dropped/terminated packet: KernelCounters
  // stays authoritative, the registry mirror is what status_json and the
  // Prometheus exporter read (and what the equivalence fuzz diffs).
  void count_drop(Drop reason) {
    ++counters_.drops[reason];
    if (metrics_.enabled()) {
      util::owner_add(drop_counters_[static_cast<int>(reason)]);
    }
    if (auto* t = util::active_packet_trace()) {
      t->add("verdict", drop_name(reason), 0);
    }
  }

  RxSummary drop(Drop reason) {
    count_drop(reason);
    return RxSummary{false, reason};
  }

  // A slow-path FIB lookup, for fib.lookups / fib.depth_total; depth comes
  // back in the FibResult (see fib.h) so the const lookup stays free of
  // shared mutable state. The bpf_fib_lookup helper counts in its VM instead.
  void note_fib_lookup(const std::optional<FibResult>& hit) {
    if (!metrics_.enabled()) return;
    util::shard_add(fib_counts_.lookups);
    if (hit) util::shard_add(fib_counts_.depth_total, hit->depth);
  }

  // Netlink encoders shared by dumps and change events: a subscriber
  // decodes both with the same code.
  util::Json link_attrs(const NetDevice& dev) const;
  util::Json addr_attrs(const NetDevice& dev, const net::IfAddr& addr) const;
  util::Json neigh_attrs(const NeighEntry& entry) const;
  void publish_service(net::Ipv4Addr vip, std::uint16_t port,
                       std::uint8_t proto);

  void bump_dev_generation() {
    dev_gen_.fetch_add(1, std::memory_order_relaxed);
  }

  std::string hostname_;
  CostModel cost_;
  std::uint64_t now_ns_ = 1'000'000'000;  // start at t=1s
  int next_ifindex_ = 1;

  std::map<int, std::unique_ptr<NetDevice>> devs_;
  std::map<std::string, int> dev_names_;
  std::map<int, std::unique_ptr<Bridge>> bridges_;

  Fib fib_;
  NeighborTable neigh_;
  Netfilter netfilter_;
  IpSetManager ipsets_;
  Conntrack conntrack_;
  Ipvs ipvs_;
  std::map<std::string, int> sysctls_;
  bool conntrack_enabled_ = false;
  std::atomic<std::uint64_t> dev_gen_{0};
  std::atomic<std::uint64_t> bridge_gen_{0};

  nl::Bus netlink_;
  KernelCounters counters_;

  util::MetricsRegistry metrics_;
  util::StageSink stage_sink_;
  util::TraceRing* trace_ring_ = nullptr;
  // Cached registry counters, bound once in the constructor so datapath
  // emission never does a name lookup.
  util::Counter* drop_counters_[16] = {};
  // Slow-path FIB counts, a single-writer shard the registry reads as a
  // source of fib.lookups / fib.depth_total.
  struct FibCounts {
    std::uint64_t lookups = 0;
    std::uint64_t depth_total = 0;
  };
  FibCounts fib_counts_;

  std::map<std::pair<std::uint8_t, std::uint16_t>, L4Handler> l4_handlers_;

  // Takes the guard cookie off `pkt` and captures under it; reports it
  // skipped when a capture is already active (loopback or same-kernel veth
  // re-entry). rx_scope resolves the capture.
  void adopt_shadow(net::Packet& pkt);

  // Guards against unbounded recursion through veth/vxlan chains.
  int rx_depth_ = 0;
  std::uint64_t last_vxlan_entropy_ = 0;

  // TX batcher hook (single slow-path writer thread only).
  TxBatcher* tx_batcher_ = nullptr;

  // Shadow capture state (single slow-path writer thread only).
  ShadowObserver* shadow_observer_ = nullptr;
  std::uint64_t active_shadow_cookie_ = 0;
  std::vector<ShadowEmission> shadow_emissions_;
};

}  // namespace linuxfp::kern
