// Queue-scaling curve: aggregate fast-path throughput of the parallel
// datapath engine as rx queues (and worker threads) grow, on the virtual
// router scenario (50 prefixes, 64 B, XDP driver mode).
//
// The engine really runs RSS -> per-queue workers -> slow-path funnel and TX
// rings on threads (engine/engine.h); sustained throughput is modeled from
// each queue's measured cycle cost and the slow thread's budget
// (sim::ForwardingRunner, TX burst 64). Expected shape
// (EXPERIMENTS.md): near-linear scaling while verdicts settle in XDP,
// flattening once the single slow-path thread or line rate saturates. The
// second table shows the Zipf elephant-flow regime, where RSS pins the hot
// flow to one queue and extra workers stop helping.
//
// Emits BENCH_scaling_queues.json; --smoke trims samples for CI. Acceptance
// (ISSUE 4): >= 2.5x aggregate throughput at 4 queues vs 1.
#include <algorithm>

#include "bench/bench_util.h"

using namespace linuxfp;
using namespace linuxfp::bench;

int main(int argc, char** argv) {
  Reporter reporter("scaling_queues", argc, argv);

  print_header(
      "Engine queue scaling — router fast-path throughput vs rx queues",
      "paper §VI-A1 multi-core setup: RSS spreads flows over cores, each "
      "core polls its own queue (NAPI)");

  sim::ScenarioConfig cfg;
  cfg.prefixes = 50;
  cfg.accel = sim::Accel::kLinuxFpXdp;
  sim::LinuxTestbed dut(cfg);

  const std::uint64_t samples = reporter.smoke() ? 2000 : 8000;
  sim::ForwardingRunner runner(25e9, samples);
  sim::FlowPattern uniform(50, 512, 64);
  auto factory = [&](std::uint64_t i) {
    auto [prefix, flow] = uniform.at(i);
    return dut.forward_packet(prefix, flow, uniform.frame_len());
  };

  std::vector<int> widths{8, 14, 12, 12, 16};
  print_row({"queues", "aggregate", "speedup", "fast-path", "limited by"},
            widths);
  print_row({"", "(Mpps)", "(vs 1q)", "fraction", ""}, widths);

  double base_pps = 0;
  double speedup_4q = 0;
  sim::ForwardingOptions opts;
  for (unsigned queues : {1u, 2u, 4u, 8u}) {
    opts.queues = queues;
    auto r = runner.run(dut.kernel(), dut.ingress_ifindex(), factory, opts);
    if (queues == 1) base_pps = r.total_pps;
    double speedup = base_pps > 0 ? r.total_pps / base_pps : 0;
    if (queues == 4) speedup_4q = speedup;
    std::string limit = r.line_rate_limited   ? "line rate"
                        : r.slow_path_limited ? "slow path"
                                              : "cpu";
    print_row({std::to_string(queues), fmt_mpps(r.total_pps), fmt(speedup),
               fmt(r.fast_path_fraction), limit},
              widths);
    util::Json row = util::Json::object();
    row["queues"] = static_cast<int>(queues);
    row["total_pps"] = r.total_pps;
    row["speedup_vs_1q"] = speedup;
    row["fast_path_fraction"] = r.fast_path_fraction;
    row["mean_fast_cycles"] = r.mean_fast_cycles;
    row["line_rate_limited"] = r.line_rate_limited;
    row["slow_path_limited"] = r.slow_path_limited;
    reporter.add_row(row);
  }

  std::printf("\nshape checks:\n");
  std::printf("  4-queue speedup  = %.2fx   (acceptance: >= 2.5x)\n",
              speedup_4q);
  util::Json shape = util::Json::object();
  shape["speedup_4q_vs_1q"] = speedup_4q;
  shape["acceptance_min"] = 2.5;
  shape["pass"] = speedup_4q >= 2.5;
  reporter.set("shape_checks", shape);

  // Elephant-flow regime: Zipf(1.2) popularity concentrates traffic on a few
  // flows; RSS steers each flow to exactly one queue, so workers starve.
  print_header("Engine queue scaling — Zipf(1.2) elephant-flow skew",
               "queue imbalance: the hot flow pins one worker, siblings idle");
  sim::FlowPattern skewed(50, 512, 64, /*zipf_s=*/1.2);
  auto skew_factory = [&](std::uint64_t i) {
    auto [prefix, flow] = skewed.at(i);
    return dut.forward_packet(prefix, flow, skewed.frame_len());
  };
  print_row({"queues", "aggregate", "speedup", "hot queue", "ideal share"},
            widths);
    print_row({"", "(Mpps)", "(vs 1q)", "share", ""}, widths);
  double skew_base = 0;
  for (unsigned queues : {1u, 2u, 4u, 8u}) {
    opts.queues = queues;
    auto r =
        runner.run(dut.kernel(), dut.ingress_ifindex(), skew_factory, opts);
    if (queues == 1) skew_base = r.total_pps;
    double hot_share = 0;
    for (double share : r.per_queue_share) hot_share = std::max(hot_share, share);
    print_row({std::to_string(queues), fmt_mpps(r.total_pps),
               fmt(skew_base > 0 ? r.total_pps / skew_base : 0), fmt(hot_share),
               fmt(1.0 / static_cast<double>(queues))},
              widths);
    util::Json row = util::Json::object();
    row["queues"] = static_cast<int>(queues);
    row["zipf_s"] = 1.2;
    row["total_pps"] = r.total_pps;
    row["hot_queue_share"] = hot_share;
    reporter.add_row(row);
  }

  // Zipf recovery: a true elephant mix — Zipf(1.2) concentrated over 16
  // flows, so the top flow alone carries ~1/3 of the traffic and static RSS
  // pins it (plus hash-colliding mice) to one queue. Adaptive steering
  // (DESIGN.md §15) — RETA rebalancing + RFS affinity + elephant spray —
  // must restore most of the lost scaling. Acceptance (ISSUE 8): adaptive
  // 8-queue >= 3x the 1-queue baseline, and >= 1.5x steering-off at 8
  // queues. Reported in its own BENCH_steering.json (scoped reporter); a
  // 100 Gbps runner keeps the 64 B line-rate cap out of the comparison.
  bool recovery_ok = false;
  {
    Reporter steering_reporter("steering", argc, argv);
    print_header(
        "Engine queue scaling — Zipf(1.2) elephant recovery via adaptive "
        "steering",
        "scaling.rst's RPS/RFS toolbox: rebalance buckets, pin flows, spray "
        "elephants");
    // One dst prefix: each zipf rank is ONE 5-tuple (the main tables cycle
    // 50 prefixes per rank, which dilutes the elephant across 50 tuples).
    sim::FlowPattern elephants(1, 16, 64, /*zipf_s=*/1.2);
    auto elephant_factory = [&](std::uint64_t i) {
      auto [prefix, flow] = elephants.at(i);
      return dut.forward_packet(prefix, flow, elephants.frame_len());
    };
    engine::SteeringConfig adaptive = engine::SteeringConfig::adaptive();
    adaptive.interval = 512;  // adapts even inside the smoke sample budget
    sim::ForwardingRunner fat_runner(100e9, samples);

    print_row({"queues", "steering", "aggregate", "hot queue", "vs 1q"},
              widths);
    print_row({"", "", "(Mpps)", "share", ""}, widths);
    double recovery_base = 0, off_8q = 0, on_8q = 0;
    struct Case {
      unsigned queues;
      bool steering;
    };
    for (Case c : {Case{1, false}, Case{8, false}, Case{8, true}}) {
      opts.queues = c.queues;
      opts.steering = c.steering ? adaptive : engine::SteeringConfig{};
      auto r = fat_runner.run(dut.kernel(), dut.ingress_ifindex(),
                              elephant_factory, opts);
      if (c.queues == 1) recovery_base = r.total_pps;
      if (c.queues == 8 && !c.steering) off_8q = r.total_pps;
      if (c.queues == 8 && c.steering) on_8q = r.total_pps;
      double hot_share = 0;
      for (double share : r.per_queue_share) {
        hot_share = std::max(hot_share, share);
      }
      print_row({std::to_string(c.queues), c.steering ? "adaptive" : "off",
                 fmt_mpps(r.total_pps), fmt(hot_share),
                 fmt(recovery_base > 0 ? r.total_pps / recovery_base : 0)},
                widths);
      util::Json row = util::Json::object();
      row["queues"] = static_cast<int>(c.queues);
      row["zipf_s"] = 1.2;
      row["steering"] = c.steering;
      row["total_pps"] = r.total_pps;
      row["hot_queue_share"] = hot_share;
      steering_reporter.add_row(row);
    }

    double recovery_8q_vs_1q = recovery_base > 0 ? on_8q / recovery_base : 0;
    double on_vs_off_8q = off_8q > 0 ? on_8q / off_8q : 0;
    recovery_ok = recovery_8q_vs_1q >= 3.0 && on_vs_off_8q >= 1.5;
    std::printf("\nsteering shape checks:\n");
    std::printf(
        "  adaptive 8q vs 1q  = %.2fx   (acceptance: >= 3.0x; static 8q "
        "collapses toward 1x)\n",
        recovery_8q_vs_1q);
    std::printf("  adaptive vs static 8q = %.2fx   (guard: >= 1.5x)\n",
                on_vs_off_8q);
    util::Json sshape = util::Json::object();
    sshape["recovery_8q_vs_1q"] = recovery_8q_vs_1q;
    sshape["recovery_min"] = 3.0;
    sshape["on_vs_off_8q"] = on_vs_off_8q;
    sshape["on_vs_off_min"] = 1.5;
    sshape["pass"] = recovery_ok;
    steering_reporter.set("shape_checks", sshape);
  }

  return (speedup_4q >= 2.5 && recovery_ok) ? 0 : 1;
}
