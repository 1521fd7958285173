// Measurement runners.
//
// ThroughputRunner models the Pktgen experiments: packets are sprayed across
// `cores` RX queues by RSS on the flow hash; each core's capacity follows
// from the mean measured per-packet cycle cost of the packets it actually
// processed (the code really runs); aggregate throughput is capped by the
// line rate, including Ethernet framing, at the mean wire size of the frames
// injected. It drives any DeviceUnderTest, so the Polycube/VPP baselines run
// on it too.
//
// ForwardingRunner drives the real parallel engine (engine/engine.h) end to
// end: packets flow through RSS -> per-queue workers -> slow-path funnel and
// TX rings on actual threads, and throughput is modeled from the measured
// per-thread cycle budgets (see the class comment).
//
// RrLatencyRunner models the netperf TCP_RR experiments: a closed-loop
// discrete-event simulation with S concurrent sessions, a single FIFO
// service core on the DUT (per the paper's single-core latency setup), and
// measured per-direction service times with multiplicative jitter.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "engine/engine.h"
#include "sim/dut.h"
#include "sim/testbed.h"
#include "util/rng.h"
#include "util/stats.h"

namespace linuxfp::sim {

struct ThroughputResult {
  double total_pps = 0;
  double total_bps = 0;           // wire bits/s including framing
  bool line_rate_limited = false;
  double mean_cycles_per_pkt = 0;
  std::vector<double> per_core_pps;
  double fast_path_fraction = 0;
};

class ThroughputRunner {
 public:
  using PacketFactory = std::function<net::Packet(std::uint64_t index)>;

  ThroughputRunner(double nic_bps = 25e9, std::uint64_t samples = 4000)
      : nic_bps_(nic_bps), samples_(samples) {}

  ThroughputResult run(DeviceUnderTest& dut, const PacketFactory& factory,
                       int cores) const;

 private:
  double nic_bps_;
  std::uint64_t samples_;
};

struct ForwardingOptions {
  unsigned queues = 8;
  engine::TxConfig tx;   // burst=1 is the per-packet-doorbell leg
  engine::GroConfig gro;
  // Adaptive steering (default: all off); the Zipf-recovery benchmark
  // passes SteeringConfig::adaptive() here.
  engine::SteeringConfig steering;
};

struct ForwardingResult {
  unsigned queues = 0;
  double total_pps = 0;
  double total_bps = 0;  // wire bits/s including framing
  bool line_rate_limited = false;
  bool slow_path_limited = false;  // slow thread (stack + TX drain) bound
  // True packets-in/packets-out: injected at eth0 vs frames that left a
  // physical device (DevStats tx_packets delta over the run).
  std::uint64_t packets_in = 0;
  std::uint64_t packets_out = 0;
  std::uint64_t tx_transmitted = 0;  // left via the TX rings (fast path)
  std::uint64_t descriptors = 0;
  std::uint64_t doorbells = 0;
  std::uint64_t gro_coalesced = 0;
  std::uint64_t gro_superpackets = 0;
  double mean_fast_cycles = 0;      // worker-side driver + XDP per packet
  double slow_thread_cycles = 0;    // stack + GRO + TX drain, per injected
  double fast_path_fraction = 0;
  std::uint64_t slow_processed = 0;  // wire packets through the stack
  std::vector<double> per_queue_share;  // fraction of traffic RSS steered
};

// The closed-loop forwarding harness (DESIGN.md §11, §16): drives the full
// RX engine -> fast path -> TX engine pipeline on real threads — packets in
// at eth0, frames out at a physical egress — over `samples` generated
// packets, then models the sustained zero-loss rate from the measured
// per-thread cycle budgets. RSS pins each flow to one queue, so at offered
// rate R queue q absorbs R * share_q and saturates at capacity_q:
//   R = min over queues of (worker capacity_q / share_q),
//       capped by the slow thread, which serializes the stack traversal of
//       kPass traffic AND the TX-ring drains/doorbells of fast-path egress:
//       slow_cap = cpu_hz * packets_in / slow_thread_cycles_total,
//       and by line rate at the mean wire size of the injected frames.
// Under uniform traffic this is N x single-queue capacity; under Zipf skew
// the elephant queue's share throttles R no matter how many workers idle.
// TX cost is visible: at burst=1 every packet pays the doorbell MMIO on the
// slow thread; at burst=64 the doorbell amortizes and the bottleneck moves
// back to the workers. Every run is deterministic in its modeled numbers
// except with adaptive steering or GRO, whose decisions read live ring
// occupancy and idle time. Backpressure mode is used so every sample is
// processed and the cycle means are exact.
class ForwardingRunner {
 public:
  using PacketFactory = std::function<net::Packet(std::uint64_t index)>;

  ForwardingRunner(double nic_bps = 25e9, std::uint64_t samples = 4000)
      : nic_bps_(nic_bps), samples_(samples) {}

  ForwardingResult run(kern::Kernel& kernel, int ingress_ifindex,
                       const PacketFactory& factory,
                       const ForwardingOptions& opts) const;

 private:
  double nic_bps_;
  std::uint64_t samples_;
};

struct RrConfig {
  int sessions = 128;       // parallel netperf sessions (paper §VI-A1)
  int transactions = 4000;  // total RR transactions to simulate
  // Fixed endpoint + wire component of the RTT (client/server stacks, PCIe,
  // interrupt moderation), microseconds.
  double base_rtt_us = 26.0;
  // Multiplicative lognormal jitter on each service time (cache pressure,
  // SMIs, softirq interference).
  double jitter_sigma = 0.28;
  // Extra per-packet cycles charged to full-stack (non-fast-path) packets
  // under concurrent load: sk_buff allocator and cache-line contention that
  // the single-packet cost model cannot see. Calibrated against Table III
  // (see EXPERIMENTS.md).
  std::uint64_t slowpath_contention_cycles = 700;
  // Server hiccups (softirq steal, timer interrupts, SMIs): with this
  // probability per service, the server stalls for an exponential duration.
  // Because every in-flight transaction queues behind the stall, hiccups
  // produce the correlated tail that gives netperf its p99/stddev character.
  double hiccup_per_service = 0.0004;
  double hiccup_mean_us = 110.0;
  std::uint64_t seed = 42;
};

struct RrResult {
  util::SampleSet rtt_us;
  double transactions_per_second = 0;
};

class RrLatencyRunner {
 public:
  explicit RrLatencyRunner(RrConfig config = {}) : config_(config) {}

  // `request` builds the i-th session's request packet (client->server
  // direction through the DUT); `response` the reverse.
  RrResult run(DeviceUnderTest& dut,
               const std::function<net::Packet(int session)>& request,
               const std::function<net::Packet(int session)>& response) const;

 private:
  RrConfig config_;
};

}  // namespace linuxfp::sim
