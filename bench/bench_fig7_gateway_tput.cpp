// Figure 7: throughput of the virtual gateway (IP forwarding + 100-rule
// blacklist) as a function of cores, 64 B packets. LinuxFP is also run with
// the blacklist aggregated into one ipset-backed rule, where it beats
// Polycube (paper §VI-A1).
#include "bench/bench_util.h"

using namespace linuxfp;
using namespace linuxfp::bench;

int main() {
  print_header(
      "Fig 7 — virtual gateway throughput vs cores (64B, 100 rules + 50 "
      "prefixes)",
      "paper Fig 7: LinuxFP ~2x Linux; LinuxFP(ipset) above Polycube; VPP "
      "ahead on dedicated cores");

  sim::ScenarioConfig linux_cfg;
  linux_cfg.prefixes = 50;
  linux_cfg.filter_rules = 100;
  sim::LinuxTestbed linux_dut(linux_cfg);

  sim::ScenarioConfig lfp_cfg = linux_cfg;
  lfp_cfg.accel = sim::Accel::kLinuxFpXdp;
  sim::LinuxTestbed lfp_dut(lfp_cfg);

  sim::ScenarioConfig lfp_ipset_cfg = lfp_cfg;
  lfp_ipset_cfg.use_ipset = true;
  sim::LinuxTestbed lfp_ipset_dut(lfp_ipset_cfg);

  PolycubeScenario pcn(50, /*fw_rules=*/100);
  VppScenario vpp(50, /*acl_rules=*/100);

  sim::ThroughputRunner runner(25e9, 6000);
  const int flows = 512;

  std::vector<int> widths{8, 11, 11, 11, 11, 15};
  print_row({"cores", "Linux", "Polycube", "VPP", "LinuxFP", "LinuxFP(ipset)"},
            widths);

  auto ext_factory = [&](std::uint64_t i) {
    return pcn.host->forward_packet(static_cast<int>(i % 50),
                                    static_cast<std::uint16_t>(i % flows));
  };

  for (int cores = 1; cores <= 6; ++cores) {
    auto l =
        runner.run(linux_dut, forward_factory(linux_dut, 50, flows), cores);
    auto f =
        runner.run(lfp_dut, forward_factory(lfp_dut, 50, flows), cores);
    auto fi = runner.run(lfp_ipset_dut,
                         forward_factory(lfp_ipset_dut, 50, flows), cores);
    auto p = runner.run(*pcn.router, ext_factory, cores);
    auto v = runner.run(vpp.router, ext_factory, cores);
    print_row({std::to_string(cores), fmt_mpps(l.total_pps),
               fmt_mpps(p.total_pps), fmt_mpps(v.total_pps),
               fmt_mpps(f.total_pps), fmt_mpps(fi.total_pps)},
              widths);
  }

  auto l1 =
      runner.run(linux_dut, forward_factory(linux_dut, 50, flows), 1);
  auto f1 = runner.run(lfp_dut, forward_factory(lfp_dut, 50, flows), 1);
  auto fi1 = runner.run(lfp_ipset_dut,
                        forward_factory(lfp_ipset_dut, 50, flows), 1);
  auto p1 = runner.run(*pcn.router, ext_factory, 1);
  std::printf("\nshape checks (single core):\n");
  std::printf("  LinuxFP/Linux            = %.2f  (paper: ~2x)\n",
              f1.total_pps / l1.total_pps);
  std::printf("  LinuxFP(ipset)/Polycube  = %.2f  (paper: >1 — ipset beats "
              "Polycube here)\n",
              fi1.total_pps / p1.total_pps);
  return 0;
}
