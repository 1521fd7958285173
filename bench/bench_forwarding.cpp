// Closed-loop forwarding harness (DESIGN.md §16): the first true
// packets-in/packets-out throughput benchmark — RX engine -> fast path ->
// TX engine end to end on real threads, with sustained rate modeled from the
// measured per-thread cycle budgets (sim::ForwardingRunner).
//
// Two experiments:
//  1. xmit_more doorbell coalescing on the XDP router (8 queues, 64 B): at
//     tx.burst=1 every fast-path transmit pays the doorbell MMIO on the TX
//     drain thread and the pipeline is TX-bound; at burst=64 the doorbell
//     amortizes and the bottleneck moves back to the workers.
//     Acceptance (ISSUE 9): batched >= 1.3x unbatched.
//  2. GRO on the slow-path-bound plain-Linux forwarder (same-flow TCP
//     streams, 512 B): coalescing runs the linear stack stages once per
//     super-packet, resegmenting at TX. Acceptance: GRO on >= 1.5x off.
//     Every NAPI window (64 folds) holds 16 segments of each of the four
//     streams, so runs close on max_segs and the run reads exactly
//     flows * ceil(packets / flows / max_segs) super-packets.
//
// Emits BENCH_forwarding.json; --smoke trims samples for CI.
#include "bench/bench_util.h"

using namespace linuxfp;
using namespace linuxfp::bench;

int main(int argc, char** argv) {
  Reporter reporter("forwarding", argc, argv);
  const std::uint64_t samples = reporter.smoke() ? 2000 : 8000;
  std::vector<int> widths{12, 10, 12, 12, 12, 14};

  // --- Experiment 1: doorbell coalescing on the XDP router -----------------
  print_header(
      "Closed-loop forwarding — xmit_more doorbell coalescing (XDP router)",
      "8 queues, 64 B, uniform flows; TX rings drain on the slow thread, one "
      "doorbell per burst");

  sim::ScenarioConfig router;
  router.prefixes = 50;
  router.accel = sim::Accel::kLinuxFpXdp;
  sim::LinuxTestbed dut(router);
  sim::FlowPattern uniform(50, 512, 64);
  auto udp_factory = [&](std::uint64_t i) {
    auto [prefix, flow] = uniform.at(i);
    return dut.forward_packet(prefix, flow, uniform.frame_len());
  };
  sim::ForwardingRunner runner(25e9, samples);

  print_row({"tx burst", "in", "out", "doorbells", "Mpps", "limited by"},
            widths);
  double unbatched_pps = 0, batched_pps = 0;
  bool conserved = true;
  for (unsigned burst : {1u, 64u}) {
    sim::ForwardingOptions opts;
    opts.queues = 8;
    opts.tx.burst = burst;
    auto r = runner.run(dut.kernel(), dut.ingress_ifindex(), udp_factory, opts);
    if (burst == 1) unbatched_pps = r.total_pps;
    if (burst == 64) batched_pps = r.total_pps;
    if (r.packets_out != r.packets_in) conserved = false;
    std::string limit = r.line_rate_limited   ? "line rate"
                        : r.slow_path_limited ? "tx/slow thread"
                                              : "cpu";
    print_row({std::to_string(burst), std::to_string(r.packets_in),
               std::to_string(r.packets_out), std::to_string(r.doorbells),
               fmt_mpps(r.total_pps), limit},
              widths);
    util::Json row = util::Json::object();
    row["experiment"] = "doorbell";
    row["tx_burst"] = static_cast<int>(burst);
    row["packets_in"] = static_cast<std::int64_t>(r.packets_in);
    row["packets_out"] = static_cast<std::int64_t>(r.packets_out);
    row["descriptors"] = static_cast<std::int64_t>(r.descriptors);
    row["doorbells"] = static_cast<std::int64_t>(r.doorbells);
    row["total_pps"] = r.total_pps;
    row["slow_thread_cycles_per_pkt"] = r.slow_thread_cycles;
    row["fast_path_fraction"] = r.fast_path_fraction;
    row["slow_path_limited"] = r.slow_path_limited;
    row["line_rate_limited"] = r.line_rate_limited;
    reporter.add_row(row);
  }
  double doorbell_speedup = unbatched_pps > 0 ? batched_pps / unbatched_pps : 0;

  // --- Experiment 2: GRO on the slow-path-bound forwarder ------------------
  print_header(
      "Closed-loop forwarding — GRO aggregation (plain Linux, TCP streams)",
      "1 queue, 512 B same-flow TCP segments; the stack's linear stages run "
      "once per super-packet, GSO resegments at TX");

  sim::ScenarioConfig plain;
  plain.prefixes = 4;
  plain.accel = sim::Accel::kNone;
  sim::LinuxTestbed slow_dut(plain);
  constexpr std::size_t kFrame = 512;
  constexpr std::uint32_t kPayload = kFrame - 54;  // eth+ip+tcp headers
  constexpr int kFlows = 4;
  // Four interleaved TCP streams, each in-sequence: the shape GRO folds.
  auto tcp_factory = [&](std::uint64_t i) {
    const int flow = static_cast<int>(i % kFlows);
    const std::uint32_t k = static_cast<std::uint32_t>(i / kFlows);
    return slow_dut.forward_tcp_segment(
        flow, static_cast<std::uint16_t>(flow), kFrame, 1 + k * kPayload,
        static_cast<std::uint16_t>(k));
  };

  print_row({"gro", "in", "out", "superpkts", "Mpps", "limited by"}, widths);
  double gro_off_pps = 0, gro_on_pps = 0;
  for (bool gro : {false, true}) {
    sim::ForwardingOptions opts;
    opts.queues = 1;
    opts.tx.burst = 64;
    opts.gro.enabled = gro;
    auto r = runner.run(slow_dut.kernel(), slow_dut.ingress_ifindex(),
                        tcp_factory, opts);
    if (gro) {
      gro_on_pps = r.total_pps;
    } else {
      gro_off_pps = r.total_pps;
    }
    if (r.packets_out != r.packets_in) conserved = false;
    std::string limit = r.line_rate_limited   ? "line rate"
                        : r.slow_path_limited ? "slow thread"
                                              : "cpu";
    print_row({gro ? "on" : "off", std::to_string(r.packets_in),
               std::to_string(r.packets_out),
               std::to_string(r.gro_superpackets), fmt_mpps(r.total_pps),
               limit},
              widths);
    util::Json row = util::Json::object();
    row["experiment"] = "gro";
    row["gro"] = gro;
    row["flows"] = kFlows;
    row["max_segs"] = static_cast<int>(opts.gro.max_segs);
    row["packets_in"] = static_cast<std::int64_t>(r.packets_in);
    row["packets_out"] = static_cast<std::int64_t>(r.packets_out);
    row["gro_coalesced"] = static_cast<std::int64_t>(r.gro_coalesced);
    row["gro_superpackets"] = static_cast<std::int64_t>(r.gro_superpackets);
    row["total_pps"] = r.total_pps;
    row["slow_thread_cycles_per_pkt"] = r.slow_thread_cycles;
    row["slow_path_limited"] = r.slow_path_limited;
    reporter.add_row(row);
  }
  double gro_speedup = gro_off_pps > 0 ? gro_on_pps / gro_off_pps : 0;

  bool ok = doorbell_speedup >= 1.3 && gro_speedup >= 1.5 && conserved;
  std::printf("\nshape checks:\n");
  std::printf("  batched vs unbatched (burst 64 vs 1) = %.2fx   (acceptance: "
              ">= 1.3x)\n",
              doorbell_speedup);
  std::printf("  GRO on vs off                        = %.2fx   (acceptance: "
              ">= 1.5x)\n",
              gro_speedup);
  std::printf("  packets out == packets in            = %s\n",
              conserved ? "yes" : "NO");
  util::Json shape = util::Json::object();
  shape["doorbell_speedup"] = doorbell_speedup;
  shape["doorbell_min"] = 1.3;
  shape["gro_speedup"] = gro_speedup;
  shape["gro_min"] = 1.5;
  shape["packets_conserved"] = conserved;
  shape["pass"] = ok;
  reporter.set("shape_checks", shape);

  return ok ? 0 : 1;
}
