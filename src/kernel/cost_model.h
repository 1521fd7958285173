// Cycle cost model for the simulated datapath.
//
// Every stage of packet processing charges cycles here; throughput and
// latency in the benchmarks are derived from these counters, so this file is
// the single calibration point of the reproduction (DESIGN.md §5).
//
// Calibration targets (paper, CloudLab c6525-25g, Linux 6.6, 64 B packets,
// single core):
//   - Linux IP forwarding            ~1.00 Mpps   (Fig 5 baseline)
//   - LinuxFP XDP forwarding          1.768 Mpps  (Table VII)
//   - LinuxFP XDP bridging            1.915 Mpps  (Table VII)
//   - LinuxFP XDP filtering(+fwd)     1.183 Mpps  (Table VII, 100 rules)
//   - LinuxFP TC  forwarding          0.850 Mpps  (Table VII)
//   - CPU frequency model: 2.4 GHz; NIC: 25 Gbps.
//
// The numbers below are per-packet cycle charges for each logical kernel
// stage, loosely following where time goes in real kernel profiles (Fig 1).
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/metrics.h"

namespace linuxfp::kern {

struct CostModel {
  // --- CPU / NIC model -------------------------------------------------
  double cpu_hz = 2.4e9;
  double nic_bps = 25e9;

  // --- Driver / NIC ----------------------------------------------------
  std::uint64_t driver_rx = 190;   // NAPI poll, DMA sync, descriptor
  std::uint64_t driver_tx = 160;   // descriptor write, doorbell (amortized)
  // Split TX cost for the engine's xmit_more path (DESIGN.md §16): when a
  // TX batcher is installed, dev_xmit charges only the descriptor write per
  // packet and the batcher charges one doorbell per burst. driver_tx above
  // stays as the calibrated pre-amortized constant for non-engine paths.
  std::uint64_t tx_descriptor = 60;   // descriptor write + DMA map, no MMIO
  std::uint64_t tx_doorbell = 500;    // doorbell MMIO + PCIe posted write

  // --- GRO / GSO (engine TX subsystem, DESIGN.md §16) -------------------
  std::uint64_t gro_receive = 90;   // per-segment flow match + header fold
  std::uint64_t gso_segment = 55;   // per-produced-segment header fixup at TX

  // --- Generic stack entry ----------------------------------------------
  std::uint64_t skb_alloc = 380;       // build_skb + memset + metadata
  std::uint64_t netif_receive = 250;   // taps, RPS, protocol demux
  std::uint64_t skb_free = 90;

  // --- Bridge (slow path) -----------------------------------------------
  std::uint64_t br_handle_frame = 350;  // port lookup, STP state check
  std::uint64_t br_fdb_lookup = 400;    // hash lookup
  std::uint64_t br_fdb_learn = 280;     // learning/refresh
  std::uint64_t br_forward = 380;       // egress port handling
  std::uint64_t br_flood_per_port = 210;  // clone + queue per flooded port

  // --- IPv4 (slow path) ---------------------------------------------------
  std::uint64_t ip_rcv = 445;          // header checks, csum validate
  std::uint64_t fib_lookup = 450;      // fib_table_lookup (LPM)
  std::uint64_t ip_forward = 220;      // TTL, options, mtu checks
  std::uint64_t neigh_lookup = 220;    // arp cache hit
  std::uint64_t dev_queue_xmit = 480;  // qdisc path (folded into the
                                       // ip_rcv/driver_tx calibration; kept
                                       // as the reference constant)
  std::uint64_t ip_local_deliver = 310;
  std::uint64_t socket_queue = 350;    // sk data queueing + wakeup issue

  // --- Netfilter ----------------------------------------------------------
  std::uint64_t nf_hook_base = 90;     // hook traversal with >=1 rule
  std::uint64_t ipt_per_rule = 15;     // linear per-rule match cost
  // Compiled classifier (DESIGN.md §17): one charge per tuple-group hash
  // probe (mask + hash + bucket walk) instead of per rule; residual rules
  // still pay ipt_per_rule. Calibrated ≈ one hash-map probe on cold cache.
  std::uint64_t ipt_clf_probe = 90;
  std::uint64_t ipset_lookup = 110;    // hash/LPM set probe
  std::uint64_t conntrack_lookup = 240;
  std::uint64_t conntrack_new = 520;

  // --- ipvs -----------------------------------------------------------------
  std::uint64_t ipvs_match = 130;     // service table probe
  std::uint64_t ipvs_schedule = 420;  // scheduler + conntrack NAT setup
  std::uint64_t nat_rewrite = 150;    // header rewrite + checksum fix

  // --- ARP / ICMP slow path -------------------------------------------------
  std::uint64_t arp_process = 600;
  std::uint64_t icmp_process = 800;

  // --- eBPF execution -----------------------------------------------------
  std::uint64_t xdp_hook_overhead = 155;  // prog dispatch, metadata setup
  std::uint64_t tc_hook_overhead = 150;   // cls_bpf dispatch on sk_buff
  // Extra kernel work that the TC path cannot avoid compared to XDP
  // (GRO/flow dissection and sk_buff conversion costs; calibrated against
  // the Table VII XDP/TC gap).
  std::uint64_t tc_path_extra = 810;
  std::uint64_t bpf_insn = 2;             // per interpreted instruction
  std::uint64_t bpf_helper_base = 40;     // call overhead for any helper
  std::uint64_t bpf_tail_call = 12;       // prog-array jump (native cost)
  std::uint64_t bpf_map_array = 25;
  std::uint64_t bpf_map_hash = 70;
  std::uint64_t bpf_map_lpm = 130;
  std::uint64_t bpf_fib_lookup_helper = 450;   // fib + neigh resolution
  std::uint64_t bpf_fdb_lookup_helper = 420;   // fdb hash + port state
  std::uint64_t bpf_ipt_per_rule = 5;         // in-helper linear match
  // In-helper tuple probe when the compiled classifier answers the lookup
  // (cheaper than the slow-path twin: no skb field re-extraction).
  std::uint64_t bpf_ipt_clf_probe = 45;
  std::uint64_t bpf_redirect = 170;            // devmap redirect + tx queue
  // Microflow verdict-cache hit: hash index + key compare + generation
  // vector validation + header diff replay (no interpreter).
  std::uint64_t flowcache_hit = 30;

  // --- Per-byte costs (copies / checksum touch), cycles per byte ----------
  double per_byte_rx = 0.022;   // DMA/cache-line touch on receive
  double per_byte_slow = 0.085; // extra slow-path per-byte (csum, copies)

  // --- Container / veth path ----------------------------------------------
  std::uint64_t veth_xmit = 240;        // veth pair crossing (softirq)
  std::uint64_t process_wakeup = 2600;  // scheduler wakeup of a blocked task
  std::uint64_t vxlan_encap = 450;
  std::uint64_t vxlan_decap = 420;

  // Converts cycles to seconds under the CPU model.
  double cycles_to_seconds(std::uint64_t cycles) const {
    return static_cast<double>(cycles) / cpu_hz;
  }
  double cycles_to_us(std::uint64_t cycles) const {
    return cycles_to_seconds(cycles) * 1e6;
  }
};

// A per-packet cycle accumulator. Each charge() is also the observability
// layer's emission site: when a kernel binds its StageSink the charge feeds
// the per-stage counters, and when a packet trace is active the charge
// appends an ordered "slow" trace event — the stage sequence
// bench_fig1_hotspots reads to reconstruct the paper's flame graph.
class CycleTrace {
 public:
  void charge(const char* stage, std::uint64_t cycles) {
    total_ += cycles;
    if (sink_) sink_->charge(stage, cycles);
    if (ptrace_) ptrace_->add("slow", stage, cycles);
  }
  void charge_bytes(const char* stage, double per_byte, std::size_t bytes) {
    charge(stage, static_cast<std::uint64_t>(per_byte * static_cast<double>(bytes)));
  }

  std::uint64_t total() const { return total_; }

  // Kernel::rx binds/restores these around a packet; a veth hop into another
  // kernel re-binds so each stage is attributed to the kernel that ran it.
  void bind_sink(util::StageSink* sink) { sink_ = sink; }
  util::StageSink* sink() const { return sink_; }
  void bind_packet_trace(util::PacketTrace* trace) { ptrace_ = trace; }
  util::PacketTrace* packet_trace() const { return ptrace_; }

 private:
  std::uint64_t total_ = 0;
  util::StageSink* sink_ = nullptr;
  util::PacketTrace* ptrace_ = nullptr;
};

}  // namespace linuxfp::kern
