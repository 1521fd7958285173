// Figure 1: the hot-spot observation that motivates LinuxFP — when Linux is
// configured to forward with `ip route`, the overwhelming majority of
// packets walk the same sequence of kernel functions. We reconstruct the
// flame-graph view from the "slow" events of each packet's trace record.
//
// Emits BENCH_fig1_hotspots.json (see bench::Reporter); --smoke trims the
// packet count for CI.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

#include "bench/bench_util.h"

using namespace linuxfp;
using namespace linuxfp::bench;

int main(int argc, char** argv) {
  Reporter reporter("fig1_hotspots", argc, argv);

  print_header("Fig 1 — hot spots in Linux forwarding (stage profile)",
               "paper Fig 1: one dominant call path for forwarding traffic");

  sim::ScenarioConfig cfg;
  cfg.prefixes = 50;
  sim::LinuxTestbed dut(cfg);
  // A one-record trace ring: each rx() replaces it with the packet's ordered
  // journey, whose "slow" events are the stage charges in path order.
  dut.enable_tracing(1);

  std::map<std::string, std::uint64_t> stage_cycles;
  std::map<std::string, std::uint64_t> path_counts;
  std::uint64_t total_cycles = 0;
  const int kPackets = reporter.smoke() ? 200 : 2000;

  for (int i = 0; i < kPackets; ++i) {
    kern::CycleTrace trace;
    dut.kernel().rx(dut.ingress_ifindex(),
                    dut.forward_packet(i % 50,
                                       static_cast<std::uint16_t>(i % 256)),
                    trace);
    std::string path;
    for (const util::TraceEvent& ev : dut.trace_ring()->latest().events) {
      if (std::strcmp(ev.layer, "slow") != 0) continue;
      stage_cycles[ev.stage] += ev.cycles;
      total_cycles += ev.cycles;
      if (!path.empty()) path += ";";
      path += ev.stage;
    }
    ++path_counts[path];
  }

  std::printf("\nper-stage share of cycles (flame-graph widths):\n");
  std::vector<std::pair<std::string, std::uint64_t>> sorted(
      stage_cycles.begin(), stage_cycles.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (const auto& [stage, cycles] : sorted) {
    double pct = 100.0 * static_cast<double>(cycles) /
                 static_cast<double>(total_cycles);
    std::printf("  %-18s %5.1f%%  %s\n", stage.c_str(), pct,
                std::string(static_cast<std::size_t>(pct), '#').c_str());
    util::Json row = util::Json::object();
    row["stage"] = stage;
    row["cycles"] = static_cast<std::uint64_t>(cycles);
    row["pct"] = pct;
    reporter.add_row(row);
  }

  std::printf("\ndistinct call paths observed: %zu\n", path_counts.size());
  for (const auto& [path, count] : path_counts) {
    std::printf("  %5.1f%% of packets: %s\n", 100.0 * count / kPackets,
                path.c_str());
  }

  // The per-bench aggregation above should match the always-on metrics
  // registry (slowpath.<stage>.cycles) — operators get the same profile
  // from `linuxfpctl show` without instrumenting a bench.
  const kern::Kernel& k = dut.kernel();
  bool coherent = true;
  for (const auto& [stage, cycles] : stage_cycles) {
    if (k.metrics().value("slowpath." + stage + ".cycles") != cycles) {
      coherent = false;
    }
  }
  std::printf("\nmetrics registry coherence (slowpath.*.cycles == trace "
              "aggregation): %s\n",
              coherent ? "yes" : "NO");

  util::Json shape = util::Json::object();
  shape["distinct_paths"] = static_cast<std::int64_t>(path_counts.size());
  shape["metrics_coherent"] = coherent;
  reporter.set("shape_checks", shape);

  std::printf("\nshape check: a single call path dominates — the premise of "
              "rule-based hot-spot acceleration (paper §II-C).\n");
  return 0;
}
