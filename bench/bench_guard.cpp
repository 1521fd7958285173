// Equivalence-guard cost and reaction: (1) steady-state overhead of sampled
// shadow execution on the Fig-5 router config — 1-in-K flows replay through
// the slow path, so the expected cost is ~S/(K*F) of the fast-path budget
// (DESIGN.md §13) and the CI gate holds K=64 to <=5%; (2) breaker reaction —
// packets/sim-time from an injected fast-path divergence to quarantine, and
// from quarantine through re-probe + half-open to a closed breaker.
//
// Emits BENCH_guard.json; --smoke trims the throughput sample counts.
#include "bench/bench_util.h"
#include "core/controller.h"
#include "core/guard.h"
#include "util/fault.h"

using namespace linuxfp;
using namespace linuxfp::bench;

namespace {

struct TputPoint {
  double pps = 0;
  double cycles = 0;
  double fast_fraction = 0;
};

TputPoint measure(std::uint32_t sample_every, std::uint64_t samples) {
  sim::ScenarioConfig cfg;
  cfg.prefixes = 50;
  cfg.accel = sim::Accel::kLinuxFpXdp;
  if (sample_every > 0) {
    cfg.guard.enabled = true;
    cfg.guard.canary_packets = 64;
    cfg.guard.sample_every = sample_every;
  }
  sim::LinuxTestbed dut(cfg);
  sim::ThroughputRunner runner(25e9, samples);
  const int flows = 512;

  if (sample_every > 0) {
    // Warm through the canary so the measured run is steady-state active
    // mode (sampled shadowing), not the all-slow-path shadow phase.
    (void)runner.run(dut, forward_factory(dut, 50, flows), 1);
    core::GuardUnit* unit =
        dut.controller()->guard()->unit("eth0", ebpf::HookType::kXdp);
    LFP_CHECK_MSG(unit && unit->mode() == core::GuardMode::kActive,
                  "guard canary failed to promote during warmup");
  }
  auto r = runner.run(dut, forward_factory(dut, 50, flows), 1);
  return {r.total_pps, r.mean_cycles_per_pkt, r.fast_path_fraction};
}

}  // namespace

int main(int argc, char** argv) {
  Reporter reporter("guard", argc, argv);
  const std::uint64_t samples = reporter.smoke() ? 600 : 6000;

  // --- sampled-shadow overhead --------------------------------------------
  print_header(
      "Equivalence guard — sampled shadow overhead (Fig-5 router, 1 core)",
      "DESIGN.md §13: 1-in-K sampling costs ~S/(K*F); K=64 must stay <=5%");

  std::vector<int> widths{12, 12, 14, 10, 10};
  print_row({"config", "Mpps", "cycles/pkt", "fast%", "vs off"}, widths);

  TputPoint off = measure(0, samples);
  print_row({"guard off", fmt_mpps(off.pps), fmt(off.cycles, 1),
             fmt(off.fast_fraction * 100, 1), "1.000"},
            widths);
  util::Json row = util::Json::object();
  row["sample_every"] = 0;
  row["pps"] = off.pps;
  row["cycles_per_pkt"] = off.cycles;
  reporter.add_row(row);

  double ratio64 = 0;
  std::vector<std::uint32_t> ks =
      reporter.smoke() ? std::vector<std::uint32_t>{64}
                       : std::vector<std::uint32_t>{8, 16, 64, 256};
  for (std::uint32_t k : ks) {
    TputPoint p = measure(k, samples);
    double ratio = p.pps / off.pps;
    if (k == 64) ratio64 = ratio;
    print_row({"1-in-" + std::to_string(k), fmt_mpps(p.pps), fmt(p.cycles, 1),
               fmt(p.fast_fraction * 100, 1), fmt(ratio, 3)},
              widths);
    util::Json r = util::Json::object();
    r["sample_every"] = static_cast<int>(k);
    r["pps"] = p.pps;
    r["cycles_per_pkt"] = p.cycles;
    r["ratio_vs_off"] = ratio;
    reporter.add_row(r);
  }
  reporter.set("overhead_ratio_1_in_64", ratio64);
  std::printf("\nshape check: 1-in-64 sampling keeps >=95%% of unguarded "
              "throughput (measured ratio %.3f)\n", ratio64);

  // --- breaker reaction and recovery latency ------------------------------
  print_header(
      "Equivalence guard — divergence reaction / recovery (sim clock)",
      "sampled shadow detects an injected fast-path divergence; breaker "
      "quarantines to the bare slow path, re-probes, half-open closes");

  constexpr std::uint64_t kInterArrivalNs = 1000;  // 1 Mpps offered load
  util::FaultScope faults(7);

  sim::ScenarioConfig cfg;
  cfg.prefixes = 50;
  cfg.accel = sim::Accel::kLinuxFpXdp;
  cfg.guard.enabled = true;
  cfg.guard.canary_packets = 32;
  cfg.guard.sample_every = 8;
  cfg.guard.half_open_packets = 16;
  cfg.guard.reprobe_base_ns = 1'000'000;  // 1 ms backoff base
  cfg.guard.reprobe_jitter = 0.0;
  sim::LinuxTestbed dut(cfg);
  kern::Kernel& kernel = dut.kernel();

  auto send_one = [&](std::uint64_t i) {
    kernel.set_now_ns(kernel.now_ns() + kInterArrivalNs);
    kern::CycleTrace trace;
    (void)kernel.rx(dut.ingress_ifindex(),
                    dut.forward_packet(static_cast<int>(i % 50),
                                       static_cast<std::uint16_t>(i % 512)),
                    trace);
  };

  core::GuardUnit* unit =
      dut.controller()->guard()->unit("eth0", ebpf::HookType::kXdp);
  LFP_CHECK_MSG(unit != nullptr, "no guard unit on eth0");
  std::uint64_t i = 0;
  while (unit->mode() != core::GuardMode::kActive && i < 1000) send_one(i++);
  LFP_CHECK_MSG(unit->mode() == core::GuardMode::kActive,
                "canary failed to promote");

  // Inject: the next sampled shadow expectation is corrupted (an
  // unsatisfiable verdict), modeling a latent synthesizer bug.
  faults->fail_times(util::kFaultGuardVerdict, 1);
  const std::uint64_t armed_ns = kernel.now_ns();
  std::uint64_t detect_packets = 0;
  while (unit->mode() != core::GuardMode::kQuarantined &&
         detect_packets < 10000) {
    send_one(i++);
    ++detect_packets;
  }
  bool quarantined = unit->mode() == core::GuardMode::kQuarantined;
  LFP_CHECK_MSG(quarantined, "injected divergence never tripped the breaker");
  faults->clear(util::kFaultGuardVerdict);
  const std::uint64_t trip_ns = kernel.now_ns();
  dut.controller()->run_once();  // complete quarantine: PASS + epoch flush

  // Recovery: wait out the backoff, redeploy into half-open, probe clean.
  std::uint64_t reprobe = dut.controller()->guard()->next_reprobe_ns();
  LFP_CHECK_MSG(reprobe != 0, "no re-probe scheduled after quarantine");
  kernel.set_now_ns(std::max(reprobe, kernel.now_ns() + 1));
  dut.controller()->run_once();
  LFP_CHECK_MSG(unit->mode() == core::GuardMode::kHalfOpen,
                "re-probe did not enter half-open");
  std::uint64_t probe_packets = 0;
  while (unit->mode() != core::GuardMode::kActive && probe_packets < 1000) {
    send_one(i++);
    ++probe_packets;
  }
  bool recovered = unit->mode() == core::GuardMode::kActive;
  LFP_CHECK_MSG(recovered, "half-open probes never closed the breaker");
  kernel.set_now_ns(kernel.now_ns() + 1);
  dut.controller()->run_once();  // controller observes the close
  const std::uint64_t recovered_ns = kernel.now_ns();

  print_row({"metric", "value"}, {34, 20});
  print_row({"detection (packets)", std::to_string(detect_packets)}, {34, 20});
  print_row({"detection (us, 1 Mpps offered)",
             fmt((trip_ns - armed_ns) / 1e3, 1)},
            {34, 20});
  print_row({"recovery (us incl. backoff)",
             fmt((recovered_ns - trip_ns) / 1e3, 1)},
            {34, 20});
  print_row({"half-open probes", std::to_string(probe_packets)}, {34, 20});

  util::Json reaction = util::Json::object();
  reaction["detection_packets"] = static_cast<int>(detect_packets);
  reaction["detection_ns"] = static_cast<double>(trip_ns - armed_ns);
  reaction["recovery_ns"] = static_cast<double>(recovered_ns - trip_ns);
  reaction["half_open_probes"] = static_cast<int>(probe_packets);
  reaction["quarantined"] = quarantined;
  reaction["recovered"] = recovered;
  reporter.set("reaction", reaction);

  std::printf("\nshape check: detection takes O(sample_every) packets "
              "(%llu <= %u expected scale); recovery is backoff-dominated.\n",
              static_cast<unsigned long long>(detect_packets),
              8 * 4);
  return 0;
}
