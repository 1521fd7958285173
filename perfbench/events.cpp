// Config events: the controller reaction timed from outside, and in a traced
// run a mirror of the controller's pipeline whose stage calls run under
// spans.
#include <cmath>
#include <set>

#include "bench.h"
#include "ebpf/kernel_helpers.h"
#include "ebpf/loader.h"
#include "ebpf/verifier.h"
#include "kernel/commands.h"

namespace perfbench {

namespace {

core::TopologyOptions topology_options(const core::ControllerOptions& o) {
  core::TopologyOptions t;
  t.attach_physical = o.attach_physical;
  t.attach_bridge_ports = o.attach_bridge_ports;
  t.attach_overlay = o.attach_overlay;
  t.hook = o.hook;
  return t;
}

bool same_counts(const core::Reaction& a, const core::Reaction& b) {
  return a.changed == b.changed && a.graphs == b.graphs &&
         a.synthesized_graphs == b.synthesized_graphs &&
         a.reused_graphs == b.reused_graphs && a.programs == b.programs &&
         a.insns == b.insns;
}

}  // namespace

Mirror::Mirror(kern::Kernel& kernel, const core::ControllerOptions& options)
    : kernel_(kernel),
      options_(options),
      introspection_(kernel.netlink()),
      topology_(topology_options(options)),
      capability_(helpers_),
      synthesizer_(options.chain),
      deployer_(kernel, helpers_) {
  ebpf::register_all_helpers(helpers_, kernel.cost());
  deployer_.set_metrics(&kernel.metrics());
  if (options_.flow_cache) deployer_.set_flow_cache(true);
}

core::Reaction Mirror::start() {
  introspection_.initial_sync();
  return rebuild_and_deploy(nullptr);
}

core::Reaction Mirror::run_once(SpanLog* spans) {
  results_.clear();
  if (!in_span(spans, "core.introspect.poll",
               [&] { return introspection_.poll(); })) {
    return core::Reaction{};
  }
  return rebuild_and_deploy(spans);
}

// The stage sequence of Controller::rebuild_and_deploy (delta synthesis,
// no forced redeploys), each public stage call under its own span.
core::Reaction Mirror::rebuild_and_deploy(SpanLog* spans) {
  core::Reaction reaction;
  reaction.changed = true;

  const util::Json raw = in_span(spans, "core.topology.build", [&] {
    return topology_.build(introspection_.view());
  });
  const util::Json graphs = in_span(spans, "core.capability.prune", [&] {
    return capability_.prune(raw, &reaction.dropped_fpms);
  });
  const std::string signature = in_span(spans, "core.topology.signature", [&] {
    return core::TopologyManager::signature(graphs);
  });
  if (signature == last_signature_) {
    reaction.changed = false;
    return reaction;
  }
  const bool old_is_current =
      !deployed_signature_.empty() && signature == deployed_signature_;
  last_signature_ = signature;

  std::set<std::pair<std::string, int>> coverage;
  std::map<std::pair<std::string, int>, std::string> desired;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const util::Json& g = graphs.at(i);
    const std::string device = g.at("device").as_string();
    const ebpf::HookType hook = g.at("hook").as_string() == "tc"
                                    ? ebpf::HookType::kTcIngress
                                    : ebpf::HookType::kXdp;
    const std::pair<std::string, int> key{device, static_cast<int>(hook)};
    std::string graph_sig = in_span(spans, "core.topology.signature", [&] {
      return core::TopologyManager::signature(g);
    });
    coverage.insert(key);
    auto deployed = deployed_graph_sigs_.find(key);
    if (options_.delta_synthesis && deployed != deployed_graph_sigs_.end() &&
        deployed->second == graph_sig) {
      ++reaction.reused_graphs;
      continue;
    }
    const std::uint32_t base = deployer_.next_chain_index(device, hook);
    auto result = in_span(spans, "core.synth.synthesize",
                          [&] { return synthesizer_.synthesize(g, base); });
    if (!result.ok()) continue;
    ++reaction.synthesized_graphs;
    desired[key] = std::move(graph_sig);
    results_.push_back(std::move(result).take());
  }

  const core::DeployReport report = in_span(spans, "core.deploy.deploy", [&] {
    return deployer_.deploy(results_, old_is_current, &coverage);
  });
  reaction.graphs = graphs.size();
  reaction.programs = report.programs;
  reaction.insns = report.total_insns;
  for (auto it = deployed_graph_sigs_.begin();
       it != deployed_graph_sigs_.end();) {
    if (!coverage.count(it->first)) it = deployed_graph_sigs_.erase(it);
    else ++it;
  }
  for (auto& [key, sig] : desired) deployed_graph_sigs_[key] = sig;
  if (report.all_ok()) {
    deployed_signature_ = signature;
  } else {
    reaction.deploy_failed = true;
    reaction.failed_devices = report.failures.size();
  }
  return reaction;
}

bool deployments_equivalent(core::Deployer& a, core::Deployer& b,
                            const std::vector<std::string>& devices) {
  for (const std::string& dev : devices) {
    ebpf::Attachment* aa = a.attachment(dev, ebpf::HookType::kXdp);
    ebpf::Attachment* ab = b.attachment(dev, ebpf::HookType::kXdp);
    if ((aa == nullptr) != (ab == nullptr)) return false;
    if (!aa) continue;
    const ebpf::Program& pa = aa->programs()[aa->active_prog_id()];
    const ebpf::Program& pb = ab->programs()[ab->active_prog_id()];
    if (pa.name != pb.name || pa.insns.size() != pb.insns.size()) return false;
    for (std::size_t k = 0; k < pa.insns.size(); ++k) {
      const ebpf::Insn& x = pa.insns[k];
      const ebpf::Insn& y = pb.insns[k];
      if (!(x.op == y.op && x.dst == y.dst && x.src == y.src &&
            x.use_imm == y.use_imm && x.off == y.off && x.imm == y.imm &&
            x.size == y.size)) {
        return false;
      }
    }
  }
  return true;
}

EventTime run_event(const EventTarget& t, const Event& ev, EventStats& stats,
                    Report& r, SpanLog* spans) {
  const std::uint64_t published = t.kernel->netlink().published_count();
  const std::int64_t t0 = now_ns();
  bool ok = true;
  for (const std::string& cmd : ev) ok &= kern::run_command(*t.kernel, cmd).ok();
  core::Reaction real;
  if (t.controller) real = t.controller->run_once();
  const std::int64_t t1 = now_ns();
  ok &= !real.deploy_failed;

  EventTime time;
  time.wall_ms = static_cast<double>(t1 - t0) * 1e-6;
  ++stats.events;
  stats.netlink_messages += t.kernel->netlink().published_count() - published;
  stats.graphs_synthesized += real.synthesized_graphs;
  stats.graphs_reused += real.reused_graphs;
  stats.insns += real.insns;
  // Whole nanoseconds, so that the sum does not depend on rounding order.
  stats.toolchain_ns += static_cast<std::uint64_t>(
      std::llround((real.modeled_seconds - real.wall_seconds) * 1e9));

  if (spans && t.mirror) {
    {
      ScopedSpan s(spans, "reaction");
      for (const std::string& cmd : ev) {
        ok &= kern::run_command(*t.mirror_kernel, cmd).ok();
      }
      const core::Reaction mirrored = t.mirror->run_once(spans);
      // The mirror must have done exactly the controller's work.
      ok &= same_counts(real, mirrored);
    }
    time.traced_ms = static_cast<double>(now_ns() - t0) * 1e-6;
    ebpf::VerifyOptions vo;
    vo.helpers = &t.mirror->helpers();
    for (const core::SynthesisResult& res : t.mirror->last_results()) {
      for (const ebpf::Program& prog : res.programs) {
        ScopedSpan s(spans, "ebpf.verify");
        ok &= ebpf::verify(prog, vo).ok();
      }
    }
  } else if (spans) {
    time.traced_ms = static_cast<double>(now_ns() - t0) * 1e-6;
  }
  r.tally.record(ok);
  return time;
}

void report_events(const EventStats& s, bool trace, Report& r) {
  const double events = static_cast<double>(s.events);
  if (!trace) {
    // Windows of 32 consecutive samples (events, or event pairs on the
    // datapath workloads), but no more than 512 windows. With windows of 32
    // cheap samples (4 us pairs on plain Linux, 3,600 windows a run) the
    // pool held, by chance, few or none of the run's rare slow pairs, and
    // its p99 read 1.9 or 2.6 us by run; with windows of 256, 2.9-3.3 us.
    const std::vector<double> samples = s.wall_ms.values();
    const TimingSummary w = least_contended(
        samples, std::max<std::size_t>(32, samples.size() / 512), kKeep,
        kEventPool);
    r.set("reaction_ms_p50", w.p50, "ms");
    r.set("reaction_ms_p99", w.p99, "ms");
    note_timing(r, "reaction_ms", w, s.wall_ms.seen());
    return;
  }
  const auto per_event = [&](double v) { return events > 0 ? v / events : 0; };
  r.set("core.graphs_synthesized_per_event",
        per_event(static_cast<double>(s.graphs_synthesized)), "1/event");
  r.set("core.graphs_reused_per_event",
        per_event(static_cast<double>(s.graphs_reused)), "1/event");
  r.set("core.insns_per_event", per_event(static_cast<double>(s.insns)),
        "insns");
  r.set("core.reaction_modeled_ms",
        per_event(static_cast<double>(s.toolchain_ns) * 1e-6), "ms");
  r.set("netlink.messages_per_event",
        per_event(static_cast<double>(s.netlink_messages)), "1/event");

  // Self time per event of each stage span, in ms.
  const auto self = r.spans.self_by_name();
  const auto self_ms = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0
                            : per_event(static_cast<double>(it->second.second) *
                                        1e-6);
  };
  r.set("core.introspect.poll_ms", self_ms("core.introspect.poll"), "ms");
  r.set("core.topology.build_ms", self_ms("core.topology.build"), "ms");
  r.set("core.capability.prune_ms", self_ms("core.capability.prune"), "ms");
  r.set("core.topology.signature_ms", self_ms("core.topology.signature"), "ms");
  r.set("core.synth.synthesize_ms", self_ms("core.synth.synthesize"), "ms");
  r.set("core.deploy.deploy_ms", self_ms("core.deploy.deploy"), "ms");
  r.set("core.reaction_self_ms", self_ms("reaction"), "ms");
  r.set("ebpf.verify_ms", self_ms("ebpf.verify"), "ms");
  r.set("trace.overhead.reaction_ms_p50",
        summarize(s.traced_ms.values()).p50 - summarize(s.wall_ms.values()).p50,
        "ms");
}

}  // namespace perfbench
