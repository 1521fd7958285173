#include "core/controller.h"

#include <algorithm>

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

Reaction Controller::rebuild_and_deploy(bool force) {
  auto t0 = std::chrono::steady_clock::now();
  Reaction reaction;
  reaction.changed = true;

  // The fresh build is moved through the prune, not copied.
  graphs_ = capability_.prune(topology_.build(introspection_.view()),
                              &reaction.dropped_fpms);

  // One dump per graph: the per-graph signatures are the delta-synthesis
  // diff basis, and their join is the whole-set signature.
  const util::JsonArray& graphs = graphs_.array_items();
  std::vector<std::string> graph_sigs;
  graph_sigs.reserve(graphs.size());
  for (const util::Json& g : graphs) {
    graph_sigs.push_back(TopologyManager::signature(g));
  }
  std::string signature = TopologyManager::join_signatures(graph_sigs);
  if (signature == last_signature_ && !force) {
    // Configuration changed but the derived fast path did not (e.g. a
    // dynamic neighbour entry, or a bridge with no ports yet): nothing to
    // redeploy — helpers read live state, so no action is needed. This is
    // the state-unification payoff. The reaction still spent introspection
    // and graph-rebuild time (plus, in the real controller, the render/diff
    // of the unchanged templates — modeled below).
    reaction.changed = false;
    auto t_end = std::chrono::steady_clock::now();
    reaction.wall_seconds = std::chrono::duration<double>(t_end - t0).count();
    reaction.modeled_seconds = reaction.wall_seconds + 0.48;
    return reaction;
  }
  bool old_is_current = !deployed_signature_.empty() &&
                        signature == deployed_signature_;
  last_signature_ = signature;
  ++resynth_count_;

  // Delta synthesis (DESIGN.md §17): diff each graph's description against
  // the signature recorded at its last successful deploy and re-emit only
  // the changed ones. `coverage` carries the full desired device set so the
  // deployer withdraws exactly the devices no graph wants anymore — reused
  // devices keep their current program untouched. A forced redeploy
  // (snippet, guard re-probe, failure retry) regenerates everything: those
  // paths change program content without changing graph descriptions.
  const bool delta = options_.delta_synthesis && !force;
  std::set<std::pair<std::string, int>> coverage;
  std::map<std::pair<std::string, int>, std::string> desired_sigs;
  std::vector<SynthesisResult> results;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const util::Json& g = graphs[i];
    const std::string device = g.at("device").as_string();
    ebpf::HookType hook = g.at("hook").as_string() == "tc"
                              ? ebpf::HookType::kTcIngress
                              : ebpf::HookType::kXdp;
    const std::pair<std::string, int> key{device, static_cast<int>(hook)};
    std::string& graph_sig = graph_sigs[i];
    coverage.insert(key);
    auto deployed = deployed_graph_sigs_.find(key);
    if (delta && deployed != deployed_graph_sigs_.end() &&
        deployed->second == graph_sig) {
      ++reaction.reused_graphs;
      continue;
    }
    // Fresh tail-call indices are assigned by the deployer slot; pass the
    // next free index hint (only meaningful for tail-call mode).
    std::uint32_t base = deployer_.next_chain_index(device, hook);
    auto result = synthesizer_.synthesize(g, base);
    if (!result.ok()) {
      LFP_WARN("controller") << "synthesis failed for " << device << ": "
                             << result.error().message;
      continue;
    }
    ++graph_resynth_count_;
    ++reaction.synthesized_graphs;
    desired_sigs[key] = std::move(graph_sig);
    results.push_back(std::move(result).take());
  }

  ++health_.deploy_attempts;
  DeployReport report = deployer_.deploy(results, old_is_current, &coverage);
  reaction.graphs = graphs.size();
  reaction.programs = report.programs;
  reaction.insns = report.total_insns;
  // Update the per-graph diff basis: withdrawn devices forget their
  // signature, freshly deployed devices record theirs, and devices whose
  // deploy failed drop it so the retry re-synthesizes them even under delta.
  for (auto it = deployed_graph_sigs_.begin();
       it != deployed_graph_sigs_.end();) {
    if (!coverage.count(it->first)) it = deployed_graph_sigs_.erase(it);
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

  auto t1 = std::chrono::steady_clock::now();
  reaction.wall_seconds =
      std::chrono::duration<double>(t1 - t0).count();
  reaction.modeled_seconds =
      reaction.wall_seconds + report.modeled_compile_seconds;
  return reaction;
}

}  // namespace linuxfp::core
