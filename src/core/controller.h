// The LinuxFP controller daemon: continuously introspects the kernel,
// rebuilds the processing graph on configuration changes, synthesizes the
// minimal fast path and deploys it (paper Fig 2 / Fig 3 / §V).
//
// In a real deployment run() loops forever; in the simulation the event loop
// calls run_once() whenever simulated time advances or a tool command ran.
//
// Deploy failures (injected or real) never interrupt traffic: the deployer
// rolls the failed device back and degrades it to the bare slow path, the
// controller flips its HealthStatus to degraded and retries with bounded,
// jittered exponential backoff until a deploy succeeds again.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/capability.h"
#include "core/deployer.h"
#include "core/introspect.h"
#include "core/status.h"
#include "core/synthesizer.h"
#include "core/topology.h"
#include "ebpf/kernel_helpers.h"
#include "kernel/kernel.h"
#include "util/rng.h"

namespace linuxfp::core {

// Retry policy after a failed deploy reaction: exponential backoff from
// base_ns doubling per consecutive failure up to max_ns, with +/-jitter
// (seeded, deterministic) so a fleet of controllers never retries in phase.
struct BackoffPolicy {
  std::uint64_t base_ns = 10'000'000;    // 10 ms
  std::uint64_t max_ns = 2'000'000'000;  // 2 s cap
  double jitter = 0.2;                   // fraction of the delay, +/-
  std::uint64_t jitter_seed = 0x5eedfa11u;
};

struct ControllerOptions {
  std::string hook = "xdp";  // "xdp" (driver mode) or "tc"
  ChainMode chain = ChainMode::kInlineCalls;
  bool attach_physical = true;
  bool attach_bridge_ports = false;  // container/TC mode
  bool attach_overlay = false;       // vxlan VTEP devices
  // Restrict to mainline helpers (no bpf_fdb_lookup/bpf_ipt_lookup): the
  // Capability Manager will prune bridge/filter FPMs.
  bool mainline_helpers_only = false;
  // Microflow verdict cache (DESIGN.md §12) on every deployed attachment.
  bool flow_cache = false;
  BackoffPolicy backoff;
  // Runtime equivalence guard (DESIGN.md §13): canary deployment, sampled
  // shadow execution and per-FPM circuit breakers. Off by default.
  GuardPolicy guard;
  // Delta synthesis (DESIGN.md §17): re-emit/re-verify/re-deploy only the
  // graphs whose dump differs from the one their deployed program came
  // from, so reaction time scales with the delta instead of the config.
  // Forced redeploys (snippet injection, guard re-probes, failure retries)
  // bypass the diff and rebuild everything, as do deploy-failed devices.
  bool delta_synthesis = true;
};

// One controller reaction (paper Table VI): from seeing a configuration
// change to confirmed fast-path installation.
struct Reaction {
  bool changed = false;
  std::size_t graphs = 0;
  std::size_t programs = 0;
  std::size_t insns = 0;
  std::vector<std::string> dropped_fpms;
  // Deploy outcome: devices that failed were degraded to the slow path and
  // a retry is scheduled (see Controller::health()).
  bool deploy_failed = false;
  std::size_t failed_devices = 0;
  // Delta-synthesis split of `graphs`: how many were re-synthesized this
  // reaction versus left untouched because their description was unchanged.
  std::size_t synthesized_graphs = 0;
  std::size_t reused_graphs = 0;
  double wall_seconds = 0;     // measured in this reproduction
  double modeled_seconds = 0;  // + modeled clang/libbpf stages (Table VI)
  // The wall time of the reaction's three phases, each part of
  // wall_seconds: the graphs (describe, render, prune and dump of the
  // devices the events touched), the synthesis of the graphs to re-emit,
  // and the deploy (verify, load, attach). A reaction whose graphs did not
  // change spends only the first.
  double graphs_seconds = 0;
  double synth_seconds = 0;
  double deploy_seconds = 0;
};

class Controller {
 public:
  explicit Controller(kern::Kernel& kernel, ControllerOptions options = {});

  // Initial sync + first synthesis/deployment.
  Reaction start();

  // Polls netlink; on relevant change — or when a failed deploy's backoff
  // deadline (simulated kernel time) has passed — re-synthesizes and
  // redeploys.
  Reaction run_once();

  kern::Kernel& kernel() { return kernel_; }
  const WorldView& view() const { return introspection_.view(); }
  // The pruned graph of every device that has one, ascending by ifindex: a
  // JSON array, assembled when read after a change.
  const util::Json& current_graphs() const;
  Deployer& deployer() { return deployer_; }
  Synthesizer& synthesizer() { return synthesizer_; }
  // Null unless options.guard.enabled.
  EquivalenceGuard* guard() { return guard_.get(); }
  const ebpf::HelperRegistry& helpers() const { return helpers_; }
  // Reactions that synthesized at least one graph (historic semantics).
  std::uint64_t resynth_count() const { return resynth_count_; }
  // Individual graphs synthesized across all reactions: the delta-synthesis
  // work metric (a from-scratch controller pays graphs-per-reaction here).
  std::uint64_t graph_resynth_count() const { return graph_resynth_count_; }
  // Device descriptions rendered into graphs across all reactions: a
  // reaction renders only the devices whose description changed.
  std::uint64_t graph_render_count() const { return graph_render_count_; }
  // Devices described across all reactions: a reaction describes only the
  // devices its events named, plus, on a change of the shared inputs, those
  // whose description read them (all of them when a gate flipped).
  std::uint64_t describe_count() const { return describe_count_; }

  // Health record: degraded-mode state and failure counters (including the
  // per-injection-point table when fault injection is armed).
  HealthStatus health() const;

  // Injects a custom verified snippet ahead of every synthesized fast path
  // (monitoring extension); triggers a redeploy on the next run_once.
  void set_custom_snippet(Synthesizer::CustomSnippet snippet);

 private:
  using SlotKey = Deployer::SlotKey;

  Reaction rebuild_and_deploy(bool force = false);
  // What one refresh found: whether any device's pruned graph appeared,
  // disappeared or changed its dump, the deployer slots to withdraw, and
  // the devices that were deleted.
  struct Refresh {
    bool changed = false;
    std::vector<SlotKey> withdrawn;
    std::vector<int> deleted;
  };
  // Brings the entries of the devices the view changes reached up to the
  // view: re-describes them, and renders, prunes and dumps those whose
  // description changed.
  Refresh refresh_graphs();
  // Replaces one device's entry by `description` (nullopt: the device is
  // gone or no longer attachable); records in `out` what that changed.
  void update_device(int ifindex, std::optional<DeviceGraph> description,
                     Refresh& out, std::vector<SlotKey>& entering);
  // The prune's dropped FPM names of every device, in ifindex order.
  const std::vector<std::string>& dropped_fpms();
  // Guard maintenance pass at the top of run_once; returns true when a
  // quarantined unit's re-probe deadline passed (forces a redeploy).
  bool maintain_guard();
  void record_deploy_failure(const DeployReport& report);
  void record_deploy_success();
  std::uint64_t backoff_delay_ns();

  kern::Kernel& kernel_;
  ControllerOptions options_;
  ebpf::HelperRegistry helpers_;
  ServiceIntrospection introspection_;
  TopologyManager topology_;
  CapabilityManager capability_;
  Synthesizer synthesizer_;
  Deployer deployer_;
  // Declared after deployer_ so the guard (whose units front the deployer's
  // attachments on the device hooks) is destroyed first.
  std::unique_ptr<EquivalenceGuard> guard_;
  // One entry per attachable device: its last description and what the
  // capability prune made of it. Each entry changes only when an event
  // reaches its device.
  struct DeviceEntry {
    DeviceGraph description;
    // The pruned graph when the prune kept a node, its dump (the per-device
    // change basis), and the dump its deployed program was synthesized
    // from (empty when no deployed program came from this graph).
    std::optional<util::Json> graph;
    std::string dump;
    std::string deployed_dump;
    SlotKey key;                       // (device, hook)
    std::vector<std::string> dropped;  // "device:fpm", in prune order
  };
  std::map<int, DeviceEntry> devices_;  // by ifindex
  std::size_t graph_count_ = 0;         // entries with a graph
  SharedInputs shared_;
  // Entries whose description read the shared inputs.
  std::set<int> shared_readers_;
  // Entries with a graph that their deployed program was not synthesized
  // from: what delta synthesis re-emits.
  std::set<int> unsynthesized_;
  // The graph dump (nullopt: none) at the last all-ok deploy of every
  // device whose graph changed since: the current graphs equal those at
  // that deploy iff each still equals its recorded dump.
  std::map<int, std::optional<std::string>> since_ok_;
  bool has_ok_deploy_ = false;
  // Set at construction and by a failed deploy: the next reaction deploys
  // even if no graph changed.
  bool redeploy_pending_ = true;
  std::vector<std::string> dropped_;
  bool dropped_dirty_ = false;
  mutable util::Json graphs_;
  mutable bool graphs_dirty_ = true;
  std::uint64_t resynth_count_ = 0;
  std::uint64_t graph_resynth_count_ = 0;
  std::uint64_t graph_render_count_ = 0;
  std::uint64_t describe_count_ = 0;
  bool force_resynth_ = false;
  HealthStatus health_;
  // Breaker closes observed at the last run_once; a new close with no unit
  // left quarantined/half-open clears guard-driven degradation.
  std::uint64_t guard_closes_seen_ = 0;
  util::Rng backoff_rng_;
};

}  // namespace linuxfp::core
