// Virtual gateway example (paper §VI-A1): IP forwarding + a blacklist
// firewall at the network edge, configured with iptables/ipset, compared
// across plain Linux, LinuxFP with linear rules, and LinuxFP with the
// blacklist aggregated into one ipset-backed rule.
#include <cstdio>

#include "sim/runners.h"
#include "sim/testbed.h"

using namespace linuxfp;

namespace {
void run_variant(const char* name, sim::ScenarioConfig cfg) {
  sim::LinuxTestbed dut(cfg);

  // Verify policy first: blacklisted sources must be dropped...
  auto blocked = dut.process(dut.blacklisted_packet(7, 0));
  // ...and clean traffic forwarded.
  auto clean = dut.process(dut.forward_packet(3, 0));

  sim::ThroughputRunner runner(25e9, 3000);
  auto tput = runner.run(
      dut,
      [&](std::uint64_t i) {
        return dut.forward_packet(static_cast<int>(i % 50),
                                  static_cast<std::uint16_t>(i % 256));
      },
      /*cores=*/1);

  std::printf("%-22s drop-blacklist=%s forward-clean=%s  %6.3f Mpps "
              "(%.0f cycles/pkt)\n",
              name, blocked.dropped_by_policy ? "ok" : "FAIL",
              clean.forwarded ? "ok" : "FAIL", tput.total_pps / 1e6,
              tput.mean_cycles_per_pkt);
}
}  // namespace

int main() {
  std::printf("virtual gateway: 50 prefixes + 100-address blacklist, one "
              "core, 64B packets\n\n");

  sim::ScenarioConfig cfg;
  cfg.prefixes = 50;
  cfg.filter_rules = 100;

  run_variant("Linux (iptables)", cfg);

  cfg.accel = sim::Accel::kLinuxFpXdp;
  run_variant("LinuxFP (iptables)", cfg);

  cfg.use_ipset = true;
  run_variant("LinuxFP (ipset)", cfg);

  std::printf("\nthe ipset variant collapses 100 rules into one set-backed "
              "rule (`ipset create` + `iptables -m set --match-set`): the "
              "fast path probes a hash instead of scanning rules — the Fig 8 "
              "effect.\n");
  return 0;
}
