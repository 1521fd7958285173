// Figure 5: throughput of the virtual router as a function of cores.
// Setup (paper §VI-A1): 50 prefixes via iproute2, 64 B packets, XDP driver
// mode for LinuxFP and Polycube; Polycube/VPP configured with equivalent
// commands through their own CLIs.
//
// Emits BENCH_fig5_router_tput.json (see bench::Reporter); --smoke runs a
// single-core, short batch for CI.
#include "bench/bench_util.h"

using namespace linuxfp;
using namespace linuxfp::bench;

int main(int argc, char** argv) {
  Reporter reporter("fig5_router_tput", argc, argv);

  print_header("Fig 5 — virtual router throughput vs cores (64B, 50 prefixes)",
               "paper Fig 5: LinuxFP ~1.77x Linux; ~1.19x Polycube; VPP ahead "
               "(vector processing, dedicated busy-poll cores)");

  sim::ScenarioConfig linux_cfg;
  linux_cfg.prefixes = 50;
  sim::LinuxTestbed linux_dut(linux_cfg);

  sim::ScenarioConfig lfp_cfg = linux_cfg;
  lfp_cfg.accel = sim::Accel::kLinuxFpXdp;
  sim::LinuxTestbed lfp_dut(lfp_cfg);

  PolycubeScenario pcn(50);
  VppScenario vpp(50);

  sim::ThroughputRunner runner(25e9, reporter.smoke() ? 600 : 6000);
  const int flows = 512;
  const int max_cores = reporter.smoke() ? 1 : 6;

  std::vector<int> widths{8, 12, 12, 12, 12};
  print_row({"cores", "Linux", "Polycube", "VPP", "LinuxFP"}, widths);
  print_row({"", "(Mpps)", "(Mpps)", "(Mpps)", "(Mpps)"}, widths);

  auto pcn_factory = [&](std::uint64_t i) {
    return pcn.host->forward_packet(static_cast<int>(i % 50),
                                    static_cast<std::uint16_t>(i % flows));
  };
  auto vpp_factory = [&](std::uint64_t i) {
    return pcn.host->forward_packet(static_cast<int>(i % 50),
                                    static_cast<std::uint16_t>(i % flows));
  };

  for (int cores = 1; cores <= max_cores; ++cores) {
    auto linux_r =
        runner.run(linux_dut, forward_factory(linux_dut, 50, flows), cores);
    auto lfp_r =
        runner.run(lfp_dut, forward_factory(lfp_dut, 50, flows), cores);
    auto pcn_r = runner.run(*pcn.router, pcn_factory, cores);
    auto vpp_r = runner.run(vpp.router, vpp_factory, cores);
    print_row({std::to_string(cores), fmt_mpps(linux_r.total_pps),
               fmt_mpps(pcn_r.total_pps), fmt_mpps(vpp_r.total_pps),
               fmt_mpps(lfp_r.total_pps)},
              widths);
    util::Json row = util::Json::object();
    row["cores"] = cores;
    row["linux_pps"] = linux_r.total_pps;
    row["polycube_pps"] = pcn_r.total_pps;
    row["vpp_pps"] = vpp_r.total_pps;
    row["linuxfp_pps"] = lfp_r.total_pps;
    reporter.add_row(row);
  }

  auto l1 = runner.run(linux_dut, forward_factory(linux_dut, 50, flows), 1);
  auto f1 = runner.run(lfp_dut, forward_factory(lfp_dut, 50, flows), 1);
  auto p1 = runner.run(*pcn.router, pcn_factory, 1);
  std::printf("\nshape checks (single core):\n");
  std::printf("  LinuxFP/Linux     = %.2f   (paper: ~1.77)\n",
              f1.total_pps / l1.total_pps);
  std::printf("  LinuxFP/Polycube  = %.2f   (paper: ~1.19)\n",
              f1.total_pps / p1.total_pps);
  std::printf("  note: VPP cores run at 100%% utilization (busy polling); "
              "Linux/LinuxFP/Polycube are interrupt-driven.\n");
  util::Json shape = util::Json::object();
  shape["linuxfp_over_linux"] = f1.total_pps / l1.total_pps;
  shape["linuxfp_over_polycube"] = f1.total_pps / p1.total_pps;
  shape["paper_linuxfp_over_linux"] = 1.77;
  shape["paper_linuxfp_over_polycube"] = 1.19;
  reporter.set("shape_checks", shape);
  return 0;
}
