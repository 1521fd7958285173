#include "core/controller.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace linuxfp::core {

namespace {
// The deployer slot a device's graph deploys to.
Deployer::SlotKey key_of(const DeviceGraph& g) {
  const ebpf::HookType hook =
      g.hook == "tc" ? ebpf::HookType::kTcIngress : ebpf::HookType::kXdp;
  return {g.device, static_cast<int>(hook)};
}

TopologyOptions topo_options(const ControllerOptions& o) {
  TopologyOptions t;
  t.attach_physical = o.attach_physical;
  t.attach_bridge_ports = o.attach_bridge_ports;
  t.attach_overlay = o.attach_overlay;
  t.hook = o.hook;
  return t;
}
}  // namespace

Controller::Controller(kern::Kernel& kernel, ControllerOptions options)
    : kernel_(kernel),
      options_(std::move(options)),
      introspection_(kernel.netlink()),
      topology_(topo_options(options_)),
      capability_(helpers_),
      synthesizer_(options_.chain),
      deployer_(kernel_, helpers_),
      backoff_rng_(options_.backoff.jitter_seed) {
  if (options_.mainline_helpers_only) {
    ebpf::register_mainline_helpers(helpers_, kernel_.cost());
  } else {
    ebpf::register_all_helpers(helpers_, kernel_.cost());
  }
  // One registry covers both paths: the deployer binds the attachments'
  // fastpath.*/flowcache.*/ebpf.* names into the kernel's registry, next to
  // the slowpath.* stages.
  deployer_.set_metrics(&kernel_.metrics());
  if (options_.flow_cache) deployer_.set_flow_cache(true);
  if (options_.guard.enabled) {
    guard_ = std::make_unique<EquivalenceGuard>(kernel_, options_.guard);
    deployer_.set_guard(guard_.get());
  }
}

Reaction Controller::start() {
  introspection_.initial_sync();
  return rebuild_and_deploy();
}

Reaction Controller::run_once() {
  bool guard_reprobe = maintain_guard();
  bool force = force_resynth_;
  bool changed = introspection_.poll() || force;
  bool retry_due = health_.next_retry_ns != 0 &&
                   kernel_.now_ns() >= health_.next_retry_ns;
  if (!changed && !retry_due && !guard_reprobe) return Reaction{};
  force_resynth_ = false;
  return rebuild_and_deploy(force || retry_due || guard_reprobe);
}

bool Controller::maintain_guard() {
  if (!guard_) return false;
  // Complete breaker trips raised on the datapath since the last pass: park
  // each tripped hook on its PASS fallback (epoch-flushing the flow cache)
  // and schedule the re-probe redeploy with jittered backoff.
  GuardMaintenance gm = guard_->maintain(
      kernel_.now_ns(), [this](const std::string& dev, ebpf::HookType hook) {
        deployer_.quarantine(dev, hook);
      });
  if (!gm.quarantined_devices.empty()) {
    health_.degraded = true;
    health_.last_degraded_ns = kernel_.now_ns();
    for (const std::string& dev : gm.quarantined_devices) {
      ++health_.failures_by_code["guard.quarantine"];
      health_.last_error = "guard.quarantine: " + dev;
    }
  }
  // A breaker close (half-open probes all clean) recovers guard-driven
  // degradation once no unit is left open — deploy-driven degradation keeps
  // its own recovery path in record_deploy_success.
  const GuardTotals t = guard_->totals();
  if (t.closes > guard_closes_seen_) {
    guard_closes_seen_ = t.closes;
    if (health_.degraded && t.units_unhealthy == 0 &&
        health_.consecutive_failures == 0) {
      health_.degraded = false;
      health_.last_recovered_ns = kernel_.now_ns();
      LFP_INFO("controller") << "guard: all breakers closed; healthy again";
    }
  }
  return gm.reprobe_due;
}

void Controller::set_custom_snippet(Synthesizer::CustomSnippet snippet) {
  synthesizer_.set_custom_snippet(std::move(snippet));
  force_resynth_ = true;
}

HealthStatus Controller::health() const {
  HealthStatus h = health_;
  h.introspection_errors = introspection_.dump_failures();
  return h;
}

std::uint64_t Controller::backoff_delay_ns() {
  const BackoffPolicy& p = options_.backoff;
  std::uint32_t exponent =
      health_.consecutive_failures > 0 ? health_.consecutive_failures - 1 : 0;
  exponent = std::min(exponent, 32u);
  std::uint64_t delay = p.base_ns;
  for (std::uint32_t i = 0; i < exponent && delay < p.max_ns; ++i) delay <<= 1;
  delay = std::min(delay, p.max_ns);
  // Seeded +/-jitter keeps retries deterministic per controller but
  // de-phased across a fleet.
  double factor = 1.0 + p.jitter * (2.0 * backoff_rng_.next_double() - 1.0);
  if (factor < 0.0) factor = 0.0;
  return static_cast<std::uint64_t>(static_cast<double>(delay) * factor);
}

void Controller::record_deploy_failure(const DeployReport& report) {
  ++health_.deploy_failures;
  ++health_.consecutive_failures;
  health_.device_rollbacks += report.rollbacks;
  for (const DeviceFailure& f : report.failures) {
    ++health_.failures_by_code[f.error.code];
    health_.last_error = f.error.code + ": " + f.error.message;
  }
  health_.degraded = true;
  health_.last_degraded_ns = kernel_.now_ns();
  // The failed devices run the bare slow path, which no graph reflects: the
  // next reaction redeploys them even if no graph changed.
  redeploy_pending_ = true;
  health_.next_retry_ns = kernel_.now_ns() + backoff_delay_ns();
  ++health_.retries_scheduled;
  LFP_WARN("controller") << report.failures.size()
                         << " device(s) degraded to slow path; retry at t+"
                         << (health_.next_retry_ns - kernel_.now_ns()) / 1000000
                         << "ms";
}

void Controller::record_deploy_success() {
  // A successful deploy ends deploy-driven degradation, but guard-driven
  // degradation outlives it: the re-probe redeploy of a quarantined unit
  // succeeds while the breaker is merely half-open, and only a clean probe
  // streak (observed in maintain_guard) closes it.
  const bool guard_open = guard_ && guard_->totals().units_unhealthy > 0;
  if (health_.degraded && !guard_open) {
    health_.degraded = false;
    ++health_.recoveries;
    health_.last_recovered_ns = kernel_.now_ns();
    LFP_INFO("controller") << "deploy recovered after "
                           << health_.consecutive_failures << " failure(s)";
  }
  health_.consecutive_failures = 0;
  health_.next_retry_ns = 0;
}

const util::Json& Controller::current_graphs() const {
  if (graphs_dirty_) {
    util::JsonArray graphs;
    graphs.reserve(graph_count_);
    for (const auto& [ifindex, e] : devices_) {
      if (e.graph) graphs.push_back(*e.graph);
    }
    graphs_ = util::Json(std::move(graphs));
    graphs_dirty_ = false;
  }
  return graphs_;
}

const std::vector<std::string>& Controller::dropped_fpms() {
  if (dropped_dirty_) {
    dropped_.clear();
    for (const auto& [ifindex, e] : devices_) {
      dropped_.insert(dropped_.end(), e.dropped.begin(), e.dropped.end());
    }
    dropped_dirty_ = false;
  }
  return dropped_;
}

Controller::Refresh Controller::refresh_graphs() {
  const WorldView& view = introspection_.view();
  ViewChanges changes = introspection_.take_changes();
  std::vector<int>& reached = changes.links;
  if (changes.shared) {
    SharedInputs shared = TopologyManager::shared_inputs(view);
    if (!shared.same_gates(shared_)) {
      // A gate decides which nodes a graph can have: every device.
      for (const auto& [ifindex, e] : devices_) reached.push_back(ifindex);
    } else if (!(shared == shared_)) {
      reached.insert(reached.end(), shared_readers_.begin(),
                     shared_readers_.end());
    }
    shared_ = std::move(shared);
  }
  std::sort(reached.begin(), reached.end());
  reached.erase(std::unique(reached.begin(), reached.end()), reached.end());

  Refresh out;
  std::vector<SlotKey> entering;
  for (int ifindex : reached) {
    std::optional<DeviceGraph> description;
    auto link = view.links.find(ifindex);
    if (link == view.links.end()) {
      out.deleted.push_back(ifindex);
    } else {
      ++describe_count_;
      description = topology_.describe(view, shared_, link->second);
    }
    update_device(ifindex, std::move(description), out, entering);
  }
  // A key that left coverage and came back stays covered: its device's
  // graph changed, or the device was re-created under its name (the old
  // device's slot is freed by release_device, not withdrawn).
  std::sort(entering.begin(), entering.end());
  std::erase_if(out.withdrawn, [&](const SlotKey& key) {
    return std::binary_search(entering.begin(), entering.end(), key);
  });
  return out;
}

void Controller::update_device(int ifindex,
                               std::optional<DeviceGraph> description,
                               Refresh& out, std::vector<SlotKey>& entering) {
  auto it = devices_.find(ifindex);
  DeviceEntry* e = it == devices_.end() ? nullptr : &it->second;
  if (!e && !description) return;
  if (e && description && e->description == *description) return;

  std::optional<util::Json> graph;
  std::string dump;
  std::vector<std::string> dropped;
  if (description && description->has_nodes()) {
    ++graph_render_count_;
    util::JsonArray one;
    one.push_back(TopologyManager::render(*description));
    util::Json pruned =
        capability_.prune(util::Json(std::move(one)), &dropped);
    util::JsonArray& kept = *pruned.mutable_array();
    if (!kept.empty()) {
      dump = TopologyManager::signature(kept.front());
      graph = std::move(kept.front());
    }
  }
  if (e ? e->dropped != dropped : !dropped.empty()) dropped_dirty_ = true;
  const bool had_graph = e && e->graph;
  const bool graph_changed =
      had_graph != graph.has_value() || (graph && e->dump != dump);
  if (graph_changed) {
    out.changed = true;
    graphs_dirty_ = true;
    // The entry's dump is replaced below, so the recorded one is moved.
    if (has_ok_deploy_ && !since_ok_.contains(ifindex)) {
      since_ok_.emplace(ifindex, had_graph ? std::optional(std::move(e->dump))
                                           : std::nullopt);
    }
    if (had_graph) {
      --graph_count_;
      out.withdrawn.push_back(e->key);
    }
    if (graph) {
      ++graph_count_;
      entering.push_back(key_of(*description));
    }
  }
  if (!description) {
    shared_readers_.erase(ifindex);
    unsynthesized_.erase(ifindex);
    devices_.erase(it);
    return;
  }
  if (TopologyManager::reads_shared(*description)) {
    shared_readers_.insert(ifindex);
  } else {
    shared_readers_.erase(ifindex);
  }
  DeviceEntry& entry = e ? *e : devices_[ifindex];
  entry.description = std::move(*description);
  entry.dropped = std::move(dropped);
  if (!graph_changed) return;
  entry.graph = std::move(graph);
  entry.dump = std::move(dump);
  entry.key = key_of(entry.description);
  if (!entry.graph) entry.deployed_dump.clear();
  if (entry.graph && entry.dump != entry.deployed_dump) {
    unsynthesized_.insert(ifindex);
  } else {
    unsynthesized_.erase(ifindex);
  }
}

Reaction Controller::rebuild_and_deploy(bool force) {
  using Clock = std::chrono::steady_clock;
  const auto seconds = [](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
  };
  const auto t0 = Clock::now();
  Reaction reaction;
  reaction.changed = true;

  Refresh refresh = refresh_graphs();
  // A deleted device's slots go now, changed graphs or not: a slot parked
  // on PASS outlives its device's graph.
  for (int ifindex : refresh.deleted) deployer_.release_device(ifindex);
  reaction.dropped_fpms = dropped_fpms();
  const auto t_graphs = Clock::now();
  reaction.graphs_seconds = seconds(t0, t_graphs);
  if (!refresh.changed && !force && !redeploy_pending_) {
    // Configuration changed but the derived fast path did not (e.g. a
    // static neighbour entry, or a bridge with no ports yet): nothing to
    // redeploy — helpers read live state, so no action is needed. This is
    // the state-unification payoff. The reaction still spent introspection
    // and graph-rebuild time (plus, in the real controller, the render/diff
    // of the unchanged templates — modeled below).
    reaction.changed = false;
    reaction.wall_seconds = seconds(t0, Clock::now());
    reaction.modeled_seconds = reaction.wall_seconds + 0.48;
    return reaction;
  }
  // Whether the current graphs are those of the last all-ok deploy: the old
  // programs still match the configuration if a redeploy fails.
  bool old_is_current = has_ok_deploy_;
  for (const auto& [ifindex, dump] : since_ok_) {
    auto it = devices_.find(ifindex);
    const DeviceEntry* e = it == devices_.end() ? nullptr : &it->second;
    const bool has_graph = e && e->graph;
    if (has_graph != dump.has_value() || (has_graph && e->dump != *dump)) {
      old_is_current = false;
      break;
    }
  }
  redeploy_pending_ = false;
  ++resynth_count_;

  // Delta synthesis (DESIGN.md §17): re-emit only the graphs their deployed
  // programs were not synthesized from. Every other device keeps its
  // program untouched, and the deployer withdraws exactly the slots whose
  // key left coverage. A forced redeploy (snippet, guard re-probe, failure
  // retry) regenerates everything: those paths change program content
  // without changing graph descriptions.
  const bool delta = options_.delta_synthesis && !force;
  std::vector<SynthesisResult> results;
  std::vector<int> synthesized;  // the devices of `results`, by ifindex
  auto synthesize = [&](int ifindex, const DeviceEntry& e) {
    // Fresh tail-call indices are assigned by the deployer slot; pass the
    // next free index hint (only meaningful for tail-call mode).
    const std::string& device = e.key.first;
    std::uint32_t base = deployer_.next_chain_index(
        device, static_cast<ebpf::HookType>(e.key.second));
    auto result = synthesizer_.synthesize(*e.graph, base);
    if (!result.ok()) {
      LFP_WARN("controller") << "synthesis failed for " << device << ": "
                             << result.error().message;
      return;
    }
    ++graph_resynth_count_;
    ++reaction.synthesized_graphs;
    synthesized.push_back(ifindex);
    results.push_back(std::move(result).take());
  };
  if (delta) {
    reaction.reused_graphs = graph_count_ - unsynthesized_.size();
    for (int ifindex : unsynthesized_) synthesize(ifindex, devices_.at(ifindex));
  } else {
    for (const auto& [ifindex, e] : devices_) {
      if (e.graph) synthesize(ifindex, e);
    }
  }
  const auto t_synth = Clock::now();
  reaction.synth_seconds = seconds(t_graphs, t_synth);

  ++health_.deploy_attempts;
  DeployReport report =
      deployer_.deploy_delta(results, old_is_current, refresh.withdrawn);
  reaction.deploy_seconds = seconds(t_synth, Clock::now());
  reaction.graphs = graph_count_;
  reaction.programs = report.programs;
  reaction.insns = report.total_insns;
  // Freshly deployed devices record the graph their program came from;
  // devices whose deploy failed forget it, so the retry re-synthesizes them
  // even under delta.
  for (int ifindex : synthesized) {
    DeviceEntry& e = devices_.at(ifindex);
    const bool failed = std::any_of(
        report.failures.begin(), report.failures.end(),
        [&e](const DeviceFailure& f) { return f.device == e.key.first; });
    if (failed) {
      e.deployed_dump.clear();
      unsynthesized_.insert(ifindex);
    } else {
      e.deployed_dump = e.dump;
      unsynthesized_.erase(ifindex);
    }
  }
  if (!report.all_ok()) {
    reaction.deploy_failed = true;
    reaction.failed_devices = report.failures.size();
    record_deploy_failure(report);
  } else {
    has_ok_deploy_ = true;
    since_ok_.clear();
    record_deploy_success();
  }

  reaction.wall_seconds = seconds(t0, Clock::now());
  reaction.modeled_seconds =
      reaction.wall_seconds + report.modeled_compile_seconds;
  return reaction;
}

}  // namespace linuxfp::core
