// Scenario testbeds (paper §VI-A): the three-node line topology with the DUT
// configured as a virtual router (50 prefixes) or virtual gateway (router +
// 100 blacklist rules, optionally aggregated into an ipset) — configured
// exclusively through the standard tool front-ends, which is what makes the
// LinuxFP acceleration transparent.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.h"
#include "kernel/commands.h"
#include "kernel/kernel.h"
#include "net/headers.h"
#include "sim/dut.h"
#include "util/rng.h"

namespace linuxfp::sim {

enum class Accel {
  kNone,          // plain Linux
  kLinuxFpXdp,    // LinuxFP controller, XDP driver mode
  kLinuxFpTc,     // LinuxFP controller, TC hook
};

struct ScenarioConfig {
  int prefixes = 50;          // iproute2-installed routes
  int filter_rules = 0;       // iptables FORWARD blacklist entries
  bool use_ipset = false;     // aggregate the blacklist into one ipset rule
  // Compile the rule tables into the tuple-space classifier (DESIGN.md §17):
  // exact linear-scan semantics at algorithmic cost. Applies to whichever
  // netfilter consumer the scenario runs (slow path or bpf_ipt_lookup).
  bool rule_classifier = false;
  Accel accel = Accel::kNone;
  core::ChainMode chain = core::ChainMode::kInlineCalls;
  // Microflow verdict cache (DESIGN.md §12) on the deployed fast paths.
  bool flow_cache = false;
  // Runtime equivalence guard (DESIGN.md §13). guard.enabled routes every
  // deployed hook through canary/sampled-shadow comparison with per-FPM
  // circuit breakers; the remaining GuardPolicy knobs apply as-is.
  core::GuardPolicy guard;
  // Fault schedule armed on the global injector for the testbed's lifetime
  // (see util/fault.h grammar, e.g. "loader.load:p=0.2;maps.update:nth=3").
  // Empty = faults disarmed. Applied after base scenario setup so the
  // topology itself always configures cleanly.
  std::string fault_schedule;
  std::uint64_t fault_seed = 0x1fa017;
};

// Linux / LinuxFP testbed: a kern::Kernel DUT with two physical links,
// a traffic source on eth0 and sink on eth1.
class LinuxTestbed : public DeviceUnderTest {
 public:
  explicit LinuxTestbed(const ScenarioConfig& config);
  ~LinuxTestbed() override;

  std::string name() const override;
  ProcessOutcome process(net::Packet&& pkt) override;
  double cpu_hz() const override { return kernel_.cost().cpu_hz; }

  kern::Kernel& kernel() { return kernel_; }
  core::Controller* controller() { return controller_.get(); }
  void run(const std::string& command);
  // Like run() but tolerates command failure (for fault-armed scripts);
  // still gives the controller a reaction slot.
  util::Status try_run(const std::string& command);
  // Advances simulated kernel time and gives the controller a chance to act
  // on due backoff retries. Returns the controller reaction (empty when no
  // controller is attached).
  core::Reaction step_time(std::uint64_t delta_ns);

  // Packet factories for the scenario's traffic matrix.
  net::Packet forward_packet(int prefix_index, std::uint16_t flow,
                             std::size_t frame_len = 64) const;
  // One TCP segment of a same-flow stream toward a routed prefix, with
  // caller-controlled sequence number and IP identification — the traffic
  // shape GRO coalesces and gso_segment must restore byte-exactly.
  net::Packet forward_tcp_segment(int prefix_index, std::uint16_t flow,
                                  std::size_t frame_len, std::uint32_t seq,
                                  std::uint16_t ip_id) const;
  // A packet whose source is on the configured blacklist.
  net::Packet blacklisted_packet(int entry, std::uint16_t flow) const;
  // The i-th blacklist source address (shared by setup and packet factory).
  static std::string blacklist_address(int entry);

  int ingress_ifindex() const { return ingress_ifindex_; }
  std::uint64_t forwarded_count() const { return forwarded_; }

  // Per-packet tracing (pwru-style): after enable_tracing, every process()
  // call records its ordered stage/helper/verdict journey into a ring of the
  // given capacity, retrievable via trace_ring() / latest_trace_json().
  void enable_tracing(std::size_t capacity = 64);
  void disable_tracing();
  util::TraceRing* trace_ring() { return trace_ring_.get(); }
  // JSON of the most recent packet's trace (null JSON when none recorded).
  util::Json latest_trace_json() const;

 private:
  ScenarioConfig config_;
  bool faults_armed_ = false;
  kern::Kernel kernel_;
  std::unique_ptr<core::Controller> controller_;
  std::unique_ptr<util::TraceRing> trace_ring_;
  int ingress_ifindex_ = 0;
  net::MacAddr eth0_mac_;
  net::MacAddr src_mac_;
  net::MacAddr gw_mac_;
  std::uint64_t forwarded_ = 0;
};

// Flow generator (Pktgen-style): cycles destinations across the installed
// prefixes and varies source ports per flow, which the engine's Toeplitz RSS
// classifier (engine/rss.h) then spreads across rx queues and workers.
//
// With zipf_s == 0 flows round-robin uniformly. With zipf_s > 0 flow ranks
// follow a Zipf(s) popularity law, so an elephant flow dominates — and since
// RSS steers a flow to exactly one queue, that reproduces the classic
// queue-imbalance regime (one hot worker, idle siblings).
class FlowPattern {
 public:
  FlowPattern(int prefixes, int flows, std::size_t frame_len,
              double zipf_s = 0.0)
      : prefixes_(prefixes), flows_(flows), frame_len_(frame_len) {
    if (zipf_s > 0.0 && flows_ > 1) {
      cdf_.reserve(static_cast<std::size_t>(flows_));
      double acc = 0.0;
      for (int rank = 1; rank <= flows_; ++rank) {
        acc += 1.0 / std::pow(static_cast<double>(rank), zipf_s);
        cdf_.push_back(acc);
      }
      for (double& c : cdf_) c /= acc;
    }
  }

  int prefixes() const { return prefixes_; }
  int flows() const { return flows_; }
  std::size_t frame_len() const { return frame_len_; }
  bool skewed() const { return !cdf_.empty(); }

  // Deterministic (prefix, flow) pair for the i-th packet. Skewed draws use
  // a stateless hash of i (splitmix64) inverted through the Zipf CDF, so
  // at() stays pure: the same i always yields the same flow.
  std::pair<int, std::uint16_t> at(std::uint64_t i) const {
    int prefix = static_cast<int>(i % static_cast<std::uint64_t>(prefixes_));
    if (cdf_.empty()) {
      return {prefix,
              static_cast<std::uint16_t>(i % static_cast<std::uint64_t>(flows_))};
    }
    std::uint64_t x = i + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    double u = static_cast<double>(x >> 11) * (1.0 / 9007199254740992.0);
    std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    if (rank >= cdf_.size()) rank = cdf_.size() - 1;
    return {prefix, static_cast<std::uint16_t>(rank)};
  }

 private:
  int prefixes_;
  int flows_;
  std::size_t frame_len_;
  std::vector<double> cdf_;  // empty = uniform
};

}  // namespace linuxfp::sim
