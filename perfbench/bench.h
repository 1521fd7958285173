// Shared pieces of the benchmark's workloads: run options, the report that
// main() prints, generated traffic with its expected outcome per packet, the
// datapath measurement (modeled and host clocks) and the config-event loop
// with its traced controller mirror.
//
// Everything here drives LinuxFP through public calls from outside: the
// benchmark times calls into each module and reads counters the program
// already exposes. Nothing is instrumented inside src/.
#pragma once

#include <sched.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/controller.h"
#include "helpers.h"
#include "net/packet.h"
#include "sim/dut.h"
#include "sim/runners.h"
#include "util/rng.h"

namespace perfbench {

namespace core = linuxfp::core;
namespace ebpf = linuxfp::ebpf;
namespace engine = linuxfp::engine;
namespace kern = linuxfp::kern;
namespace net = linuxfp::net;
namespace sim = linuxfp::sim;
namespace util = linuxfp::util;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;  // tiny sizes: exercises every phase in ~1 s
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one run hands back to main(): the tally behind error_frac, the
// metrics of this mode (end-to-end untraced, per-layer traced) and the
// spans of a traced run.
struct Report {
  Tally tally;
  std::vector<Metric> metrics;
  SpanLog spans;

  void set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics.push_back({name, value, unit});
  }
  // Human-readable detail (sample counts, supported percentiles); stderr.
  void note(const std::string& line);
};

// The measured part of a run (after set-up) lasts --seconds; phases end at
// fixed shares of it.
class Budget {
 public:
  explicit Budget(double seconds) : start_(now_ns()), seconds_(seconds) {}
  // Steady-clock ns at which `share` of the run has elapsed.
  std::int64_t at(double share) const {
    return start_ + static_cast<std::int64_t>(share * seconds_ * 1e9);
  }

 private:
  std::int64_t start_;
  double seconds_;
};

// Pins the calling thread to one CPU at a time, rotating over the CPUs the
// process may use, and restores the full set on unpin(). On a shared machine
// a thread placed on a core whose sibling a neighbour keeps busy runs about
// 1.5x slower for as long as it stays there, often a whole run; rotating the
// single-threaded slices over every CPU lets least_contended() find the
// quiet ones. Engine passes run unpinned: their threads inherit the mask.
class CpuRotor {
 public:
  CpuRotor();
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;
  ~CpuRotor() { unpin(); }
  void pin_next();
  void unpin();

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;  // empty when the mask cannot be read
  std::size_t next_ = 0;
};

// --- traffic ---------------------------------------------------------------

enum class PktClass : std::uint8_t {
  kRouted,       // must leave the routed egress device
  kBlacklisted,  // must be dropped by policy
  kIcmp,         // echo request to the DUT: answered out the ingress device
};

// One pass of packets, generated from the seed before any timing starts.
struct Traffic {
  std::vector<net::Packet> packets;
  std::vector<PktClass> classes;
  std::uint64_t routed = 0;
  std::uint64_t blacklisted = 0;
  std::uint64_t icmp = 0;

  void add(net::Packet pkt, PktClass c);
  std::size_t size() const { return packets.size(); }
  // A copy of packet i % size(): the program consumes what it is given.
  net::Packet at(std::uint64_t i) const {
    return packets[static_cast<std::size_t>(i % packets.size())];
  }
};

// Routed traffic over `flows` flows: every flow once per block of `flows`
// packets, each block in a seeded order; `packet(f)` builds flow f's packet.
Traffic uniform_traffic(int flows, std::size_t n, util::Rng& rng,
                        const std::function<net::Packet(int flow)>& packet);

// The device under test as the datapath measurement sees it.
struct DatapathTarget {
  kern::Kernel* kernel = nullptr;
  int ingress = 0;  // traffic arrives here
  int egress = 0;   // routed packets leave here
  sim::DeviceUnderTest* dut = nullptr;  // one packet at a time (Kernel::rx)
  unsigned queues = 1;
  ebpf::Attachment* xdp = nullptr;  // ingress XDP attachment; null on Linux
};

// Capacity of the windows that keep a run's timing samples.
constexpr std::size_t kWindow = 1 << 22;
// Share of contention windows pooled by least_contended(): a tenth, for
// config events at least kEventPool samples: a route add/del pair on plain
// Linux takes 4 us and gives 100,000 samples a run, an iptables pair on the
// gateway 2.5 ms and a few thousand.
constexpr double kKeep = 0.1;
constexpr std::size_t kEventPool = 1000;

// Prints a timing summary with its sample count and supported percentile.
void note_timing(Report& r, const std::string& name, const TimingSummary& s,
                 std::uint64_t seen);

// Checks one process() outcome against the packet's class. `ingress_tx`
// is the ingress device's tx count before the call.
bool outcome_ok(const DatapathTarget& t, PktClass c,
                const sim::ProcessOutcome& out, std::uint64_t ingress_tx);

// Modeled-clock metrics, deterministic for a seed: modeled_mpps from
// ForwardingRunner and modeled_rtt_us_p50/_p99 from RrLatencyRunner.
void model_datapath(const DatapathTarget& t, const Traffic& traffic,
                    std::uint64_t seed, bool smoke, Report& report);

// Host-clock datapath samples, taken in slices between the run's other work
// so that every metric is sampled across the whole run: contended stretches
// on a shared machine last seconds, and least_contended() can only pick the
// quiet ones if the samples span them.
class HostSampler {
 public:
  HostSampler(const DatapathTarget& t, const Traffic& traffic, Report& r);
  // One engine pass over the traffic, timed from Engine::start to the return
  // of Engine::stop: a host_mpps sample.
  void engine_pass();
  // `n` process() calls, each timed: host_pkt_ns samples.
  void process_slice(std::uint64_t n);
  std::size_t passes() const { return pass_s_.size(); }
  // Sets host_mpps and, when `per_packet`, host_pkt_ns_p50/_p99.
  void report(bool per_packet, bool smoke);

 private:
  const DatapathTarget t_;
  const Traffic& tr_;
  Report& r_;
  std::vector<double> pass_s_;
  SampleWindow pkt_ns_{kWindow};
  std::uint64_t next_ = 0;  // next traffic index for process_slice
};

// Traced datapath: one counted engine pass and one counted process() pass
// give the engine, flow-cache, eBPF, kernel and ledger numbers; sampled
// packets are replayed through Attachment::run, Fib::lookup and
// Netfilter::evaluate under spans. Also reports the tracing overhead on
// host_pkt_ns. A fixed amount of work, not timed against the budget.
void trace_datapath(const DatapathTarget& t, const Traffic& traffic,
                    bool smoke, Report& report);

// One untimed warm-up pass through the engine: fills the flow caches and
// finishes lazy decode before anything is measured.
void warm_up(const DatapathTarget& t, const Traffic& traffic);

// --- config events -----------------------------------------------------------

// One config event: the tool commands, then one controller reaction.
using Event = std::vector<std::string>;

// A reimplementation of Controller::rebuild_and_deploy's pipeline from the
// controller's public stage classes, run on a mirror kernel that receives
// the same commands, so that each stage call can be timed under a span.
class Mirror {
 public:
  Mirror(kern::Kernel& kernel, const core::ControllerOptions& options);
  Mirror(const Mirror&) = delete;
  Mirror& operator=(const Mirror&) = delete;

  core::Reaction start();
  // Controller::run_once without guard, retries or forced redeploys.
  core::Reaction run_once(SpanLog* spans);
  // Programs emitted by the last reaction (for the verifier replay).
  const std::vector<core::SynthesisResult>& last_results() const {
    return results_;
  }
  const ebpf::HelperRegistry& helpers() const { return helpers_; }

 private:
  core::Reaction rebuild_and_deploy(SpanLog* spans);

  kern::Kernel& kernel_;
  core::ControllerOptions options_;
  ebpf::HelperRegistry helpers_;
  core::ServiceIntrospection introspection_;
  core::TopologyManager topology_;
  core::CapabilityManager capability_;
  core::Synthesizer synthesizer_;
  core::Deployer deployer_;
  std::string last_signature_;
  std::string deployed_signature_;
  std::map<std::pair<std::string, int>, std::string> deployed_graph_sigs_;
  std::vector<core::SynthesisResult> results_;
};

// Bit-identical active XDP programs (or none on both) on every one of
// `devices`, the per-device check of bench_table6_reaction's event storm.
// Attachment counts are not compared: a deployer keeps the parked slot of a
// device deleted since, which a fresh controller never had.
bool deployments_equivalent(core::Deployer& a, core::Deployer& b,
                            const std::vector<std::string>& devices);

// Where events run: the real kernel (and controller, null on plain Linux)
// and, in a traced run, the mirror kernel and its pipeline.
struct EventTarget {
  kern::Kernel* kernel = nullptr;
  core::Controller* controller = nullptr;
  kern::Kernel* mirror_kernel = nullptr;
  Mirror* mirror = nullptr;
};

// Accumulates per-event results across rounds of a run. The timing samples
// are added by the caller, from what run_event returns.
struct EventStats {
  SampleWindow wall_ms{kWindow / 16};    // command(s) + reaction, untraced
  SampleWindow traced_ms{kWindow / 16};  // + mirror under spans (traced run)
  std::uint64_t events = 0;
  std::uint64_t graphs_synthesized = 0;
  std::uint64_t graphs_reused = 0;
  std::uint64_t insns = 0;
  std::uint64_t netlink_messages = 0;
  // Modeled toolchain time (Reaction modeled_seconds - wall_seconds), summed.
  std::uint64_t toolchain_ns = 0;
};

// Wall time of one event: `wall_ms` for the commands and the controller
// reaction; `traced_ms` also covers the mirror (traced run only, else 0).
struct EventTime {
  double wall_ms = 0;
  double traced_ms = 0;
};

// Runs one event: commands on the real kernel, then the controller reaction,
// timed together; in a traced run the same commands then go to the mirror,
// whose pipeline runs under a "reaction" span and must report the same
// graph and instruction counts.
EventTime run_event(const EventTarget& t, const Event& ev, EventStats& stats,
                    Report& report, SpanLog* spans);

// Reports reaction_ms_p50/_p99 (untraced) or the core/netlink per-layer
// metrics (traced) from `stats`.
void report_events(const EventStats& stats, bool trace, Report& report);

// Peak resident set of this process, MiB.
double peak_rss_mb();

// Workload entry points.
void run_router(const Options& o, Report& report);
void run_gateway(const Options& o, Report& report);
void run_linux(const Options& o, Report& report);
void run_storm(const Options& o, Report& report);

}  // namespace perfbench
