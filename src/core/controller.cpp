#include "core/controller.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace linuxfp::core {

namespace {
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
  // The failed devices run the bare slow path and the installed signature no
  // longer reflects reality; clear it so the retry resynthesizes.
  last_signature_.clear();
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

void Controller::refresh_graphs(std::vector<std::string>& dropped) {
  std::vector<DeviceGraph> descriptions =
      topology_.describe(introspection_.view());
  std::vector<DeviceEntry> old_devices = std::exchange(devices_, {});
  std::vector<std::string> old_sigs = std::exchange(graph_sigs_, {});
  util::JsonArray old_graphs;
  if (util::JsonArray* a = graphs_.mutable_array()) {
    old_graphs = std::move(*a);
  }
  util::JsonArray graphs;
  graphs.reserve(descriptions.size());
  graph_sigs_.reserve(descriptions.size());
  devices_.reserve(descriptions.size());

  // Both lists ascend by ifindex: `o` walks the old entries and `og` the
  // position of the next old graph. Every old key leaves coverage_ before
  // any new key enters it, since a device name can move to another ifindex.
  std::size_t o = 0;
  std::size_t og = 0;
  std::vector<std::size_t> entering;
  auto retire = [&](const DeviceEntry& e) {
    if (!e.has_graph) return;
    coverage_.erase(e.key);
    ++og;
  };
  for (DeviceGraph& d : descriptions) {
    while (o < old_devices.size() &&
           old_devices[o].description.ifindex < d.ifindex) {
      retire(old_devices[o++]);
    }
    if (o < old_devices.size() && old_devices[o].description == d) {
      // Unchanged: the graph, its dump and its dropped names carry over.
      DeviceEntry& e = old_devices[o++];
      if (e.has_graph) {
        graphs.push_back(std::move(old_graphs[og]));
        graph_sigs_.push_back(std::move(old_sigs[og]));
        ++og;
      }
      dropped.insert(dropped.end(), e.dropped.begin(), e.dropped.end());
      devices_.push_back(std::move(e));
      continue;
    }
    DeviceEntry& e = devices_.emplace_back();
    e.description = std::move(d);
    if (!e.description.has_nodes()) continue;
    ++graph_render_count_;
    util::JsonArray one;
    one.push_back(TopologyManager::render(e.description));
    util::Json pruned =
        capability_.prune(util::Json(std::move(one)), &e.dropped);
    dropped.insert(dropped.end(), e.dropped.begin(), e.dropped.end());
    util::JsonArray& kept = *pruned.mutable_array();
    if (kept.empty()) continue;
    e.has_graph = true;
    const ebpf::HookType hook = e.description.hook == "tc"
                                    ? ebpf::HookType::kTcIngress
                                    : ebpf::HookType::kXdp;
    e.key = {e.description.device, static_cast<int>(hook)};
    graph_sigs_.push_back(TopologyManager::signature(kept.front()));
    graphs.push_back(std::move(kept.front()));
    entering.push_back(devices_.size() - 1);
  }
  while (o < old_devices.size()) retire(old_devices[o++]);
  for (std::size_t i : entering) coverage_.insert(devices_[i].key);
  graphs_ = util::Json(std::move(graphs));
}

Reaction Controller::rebuild_and_deploy(bool force) {
  using Clock = std::chrono::steady_clock;
  const auto seconds = [](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
  };
  const auto t0 = Clock::now();
  Reaction reaction;
  reaction.changed = true;

  // The whole signature is the join of the per-graph dumps, the
  // delta-synthesis diff basis.
  refresh_graphs(reaction.dropped_fpms);
  std::string signature = TopologyManager::join_signatures(graph_sigs_);
  const auto t_graphs = Clock::now();
  reaction.graphs_seconds = seconds(t0, t_graphs);
  if (signature == last_signature_ && !force) {
    // Configuration changed but the derived fast path did not (e.g. a
    // dynamic neighbour entry, or a bridge with no ports yet): nothing to
    // redeploy — helpers read live state, so no action is needed. This is
    // the state-unification payoff. The reaction still spent introspection
    // and graph-rebuild time (plus, in the real controller, the render/diff
    // of the unchanged templates — modeled below).
    reaction.changed = false;
    reaction.wall_seconds = seconds(t0, Clock::now());
    reaction.modeled_seconds = reaction.wall_seconds + 0.48;
    return reaction;
  }
  bool old_is_current = !deployed_signature_.empty() &&
                        signature == deployed_signature_;
  last_signature_ = signature;
  ++resynth_count_;

  // Delta synthesis (DESIGN.md §17): diff each graph's description against
  // the signature recorded at its last successful deploy and re-emit only
  // the changed ones. `coverage_` carries the full desired device set so the
  // deployer withdraws exactly the devices no graph wants anymore — reused
  // devices keep their current program untouched. A forced redeploy
  // (snippet, guard re-probe, failure retry) regenerates everything: those
  // paths change program content without changing graph descriptions.
  const bool delta = options_.delta_synthesis && !force;
  std::map<std::pair<std::string, int>, std::string> desired_sigs;
  std::vector<SynthesisResult> results;
  const util::JsonArray& graphs = graphs_.array_items();
  std::size_t k = 0;  // position of the next graph
  for (const DeviceEntry& e : devices_) {
    if (!e.has_graph) continue;
    const util::Json& g = graphs[k];
    const std::string& graph_sig = graph_sigs_[k];
    ++k;
    if (delta) {
      auto deployed = deployed_graph_sigs_.find(e.key);
      if (deployed != deployed_graph_sigs_.end() &&
          deployed->second == graph_sig) {
        ++reaction.reused_graphs;
        continue;
      }
    }
    // Fresh tail-call indices are assigned by the deployer slot; pass the
    // next free index hint (only meaningful for tail-call mode).
    const std::string& device = e.key.first;
    std::uint32_t base = deployer_.next_chain_index(
        device, static_cast<ebpf::HookType>(e.key.second));
    auto result = synthesizer_.synthesize(g, base);
    if (!result.ok()) {
      LFP_WARN("controller") << "synthesis failed for " << device << ": "
                             << result.error().message;
      continue;
    }
    ++graph_resynth_count_;
    ++reaction.synthesized_graphs;
    desired_sigs[e.key] = graph_sig;
    results.push_back(std::move(result).take());
  }
  const auto t_synth = Clock::now();
  reaction.synth_seconds = seconds(t_graphs, t_synth);

  ++health_.deploy_attempts;
  DeployReport report = deployer_.deploy(results, old_is_current, &coverage_);
  reaction.deploy_seconds = seconds(t_synth, Clock::now());
  reaction.graphs = graphs.size();
  reaction.programs = report.programs;
  reaction.insns = report.total_insns;
  // Update the per-graph diff basis: withdrawn devices forget their
  // signature, freshly deployed devices record theirs, and devices whose
  // deploy failed drop it so the retry re-synthesizes them even under delta.
  for (auto it = deployed_graph_sigs_.begin();
       it != deployed_graph_sigs_.end();) {
    if (!coverage_.count(it->first)) it = deployed_graph_sigs_.erase(it);
    else ++it;
  }
  for (auto& [key, sig] : desired_sigs) {
    deployed_graph_sigs_[key] = std::move(sig);
  }
  for (const DeviceFailure& f : report.failures) {
    for (auto it = deployed_graph_sigs_.begin();
         it != deployed_graph_sigs_.end();) {
      if (it->first.first == f.device) it = deployed_graph_sigs_.erase(it);
      else ++it;
    }
  }
  if (!report.all_ok()) {
    reaction.deploy_failed = true;
    reaction.failed_devices = report.failures.size();
    record_deploy_failure(report);
  } else {
    deployed_signature_ = signature;
    record_deploy_success();
  }

  reaction.wall_seconds = seconds(t0, Clock::now());
  reaction.modeled_seconds =
      reaction.wall_seconds + report.modeled_compile_seconds;
  return reaction;
}

}  // namespace linuxfp::core
