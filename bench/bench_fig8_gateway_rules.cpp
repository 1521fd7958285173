// Figure 8: single-core virtual gateway throughput as a function of the
// number of filtering rules. Shape claims: Linux and LinuxFP degrade with
// the linear iptables scan; LinuxFP(ipset) and Polycube stay flat; with the
// ipset aggregation LinuxFP tops the eBPF pipelines. The LinuxFP(clf)
// column (DESIGN.md §17) shows the compiled classifier holding the
// rule-structured table flat without collapsing it into one ipset.
#include "bench/bench_util.h"

using namespace linuxfp;
using namespace linuxfp::bench;

int main() {
  print_header(
      "Fig 8 — single-core gateway throughput vs #filter rules (64B)",
      "paper Fig 8: Linux/LinuxFP decay with rules (linear iptables scan); "
      "LinuxFP(ipset) and Polycube flat; +clf flat at full rule structure");

  sim::ThroughputRunner runner(25e9, 4000);
  const int flows = 256;
  std::vector<int> widths{8, 11, 11, 13, 15, 11};
  print_row({"rules", "Linux", "LinuxFP", "LinuxFP(clf)", "LinuxFP(ipset)",
             "Polycube"},
            widths);
  print_row({"", "(Mpps)", "(Mpps)", "(Mpps)", "(Mpps)", "(Mpps)"}, widths);

  for (int rules : {1, 10, 50, 100, 200, 400, 800}) {
    sim::ScenarioConfig linux_cfg;
    linux_cfg.prefixes = 50;
    linux_cfg.filter_rules = rules;
    sim::LinuxTestbed linux_dut(linux_cfg);

    auto lfp_cfg = linux_cfg;
    lfp_cfg.accel = sim::Accel::kLinuxFpXdp;
    sim::LinuxTestbed lfp_dut(lfp_cfg);

    auto clf_cfg = lfp_cfg;
    clf_cfg.rule_classifier = true;
    sim::LinuxTestbed clf_dut(clf_cfg);

    auto ipset_cfg = lfp_cfg;
    ipset_cfg.use_ipset = true;
    sim::LinuxTestbed ipset_dut(ipset_cfg);

    PolycubeScenario pcn(50, rules);
    auto pcn_factory = [&](std::uint64_t i) {
      return pcn.host->forward_packet(static_cast<int>(i % 50),
                                      static_cast<std::uint16_t>(i % flows));
    };

    auto l = runner.run(linux_dut, forward_factory(linux_dut, 50, flows), 1);
    auto f = runner.run(lfp_dut, forward_factory(lfp_dut, 50, flows), 1);
    auto fc = runner.run(clf_dut, forward_factory(clf_dut, 50, flows), 1);
    auto fi =
        runner.run(ipset_dut, forward_factory(ipset_dut, 50, flows), 1);
    auto p = runner.run(*pcn.router, pcn_factory, 1);
    print_row({std::to_string(rules), fmt_mpps(l.total_pps),
               fmt_mpps(f.total_pps), fmt_mpps(fc.total_pps),
               fmt_mpps(fi.total_pps), fmt_mpps(p.total_pps)},
              widths);
  }

  // Mega-ruleset extension (DESIGN.md §17): beyond the paper's 800-rule
  // sweep, where the linear scan is no longer viable at all. Fewer samples —
  // the linear DUT burns ~rules compares per packet — and no Polycube row
  // (its firewall pipeline is the same linear regime).
  std::printf("\n");
  sim::ThroughputRunner mega_runner(25e9, 600);
  for (int rules : {1000, 10000, 100000}) {
    sim::ScenarioConfig linux_cfg;
    linux_cfg.prefixes = 50;
    linux_cfg.filter_rules = rules;
    sim::LinuxTestbed linux_dut(linux_cfg);

    auto lfp_cfg = linux_cfg;
    lfp_cfg.accel = sim::Accel::kLinuxFpXdp;
    sim::LinuxTestbed lfp_dut(lfp_cfg);

    auto clf_cfg = lfp_cfg;
    clf_cfg.rule_classifier = true;
    sim::LinuxTestbed clf_dut(clf_cfg);

    auto ipset_cfg = lfp_cfg;
    ipset_cfg.use_ipset = true;
    sim::LinuxTestbed ipset_dut(ipset_cfg);

    auto l =
        mega_runner.run(linux_dut, forward_factory(linux_dut, 50, flows), 1);
    auto f =
        mega_runner.run(lfp_dut, forward_factory(lfp_dut, 50, flows), 1);
    auto fc =
        mega_runner.run(clf_dut, forward_factory(clf_dut, 50, flows), 1);
    auto fi =
        mega_runner.run(ipset_dut, forward_factory(ipset_dut, 50, flows), 1);
    print_row({std::to_string(rules), fmt_mpps(l.total_pps),
               fmt_mpps(f.total_pps), fmt_mpps(fc.total_pps),
               fmt_mpps(fi.total_pps), "-"},
              widths);
  }

  std::printf("\nshape checks: LinuxFP(ipset) and Polycube columns flat; "
              "Linux and LinuxFP columns decay with rule count; crossover — "
              "LinuxFP(linear) drops below Polycube as rules grow; "
              "LinuxFP(clf) tracks the ipset column out to 100k rules.\n");
  return 0;
}
