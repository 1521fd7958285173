// Figure 6: single-core virtual router throughput as a function of packet
// size. The shape claim: LinuxFP and Polycube reach near line rate (25 Gbps)
// at 1500 B with one core; Linux does not.
#include "bench/bench_util.h"

using namespace linuxfp;
using namespace linuxfp::bench;

int main() {
  print_header("Fig 6 — single-core router throughput vs packet size",
               "paper Fig 6: LinuxFP/Polycube near line rate (25G) at 1500B "
               "with one core");

  sim::ScenarioConfig linux_cfg;
  linux_cfg.prefixes = 50;
  sim::LinuxTestbed linux_dut(linux_cfg);
  sim::ScenarioConfig lfp_cfg = linux_cfg;
  lfp_cfg.accel = sim::Accel::kLinuxFpXdp;
  sim::LinuxTestbed lfp_dut(lfp_cfg);
  PolycubeScenario pcn(50);
  VppScenario vpp(50);

  sim::ThroughputRunner runner(25e9, 4000);
  const int flows = 256;

  std::vector<int> widths{8, 16, 16, 16, 16};
  print_row({"size", "Linux", "Polycube", "VPP", "LinuxFP"}, widths);
  print_row({"(B)", "Mpps / Gbps", "Mpps / Gbps", "Mpps / Gbps",
             "Mpps / Gbps"},
            widths);

  for (std::size_t size : {64, 128, 256, 512, 1024, 1500}) {
    auto cell = [&](const sim::ThroughputResult& r) {
      std::string s = fmt_mpps(r.total_pps) + " / " + fmt(r.total_bps / 1e9, 1);
      if (r.line_rate_limited) s += "*";
      return s;
    };
    auto linux_r = runner.run(
        linux_dut, forward_factory(linux_dut, 50, flows, size), 1);
    auto lfp_r =
        runner.run(lfp_dut, forward_factory(lfp_dut, 50, flows, size), 1);
    auto pcn_r = runner.run(
        *pcn.router,
        [&](std::uint64_t i) {
          return pcn.host->forward_packet(static_cast<int>(i % 50),
                                          static_cast<std::uint16_t>(i % flows),
                                          size);
        },
        1);
    auto vpp_r = runner.run(
        vpp.router,
        [&](std::uint64_t i) {
          return pcn.host->forward_packet(static_cast<int>(i % 50),
                                          static_cast<std::uint16_t>(i % flows),
                                          size);
        },
        1);
    print_row({std::to_string(size), cell(linux_r), cell(pcn_r), cell(vpp_r),
               cell(lfp_r)},
              widths);
  }
  std::printf("\n(*) line-rate limited at 25 Gbps incl. framing overhead\n");
  return 0;
}
