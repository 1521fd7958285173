// Microflow verdict cache (DESIGN.md §12): virtual-router steady-state
// throughput with the cache on vs off, under Zipf(1.0) flow popularity —
// the regime the cache targets (a handful of elephant flows dominating the
// traffic mix, OVS microflow-cache style).
//
// Setup mirrors Fig 5 single-core: 50 prefixes via iproute2, 64 B packets,
// XDP driver mode. Each flow keeps a fixed (dst prefix, src port) so a
// cached verdict is actually revisitable. The cache-on DUT gets one warm-up
// pass before the measured pass so the table reports steady state; hit/miss
// counters are deltas over the measured pass only.
//
// Emits BENCH_flowcache.json with hit_rate and speedup fields (tools/ci.sh
// sanity-checks both) and fails hard if the steady-state speedup drops
// below 1.5x or the Zipf hit rate below 50%.
#include "bench/bench_util.h"

using namespace linuxfp;
using namespace linuxfp::bench;

namespace {

// One flow = one consistent 5-tuple and destination (prefix derived from the
// flow rank), so Zipf popularity over ranks is Zipf popularity over cache
// keys.
sim::ThroughputRunner::PacketFactory flow_factory(sim::LinuxTestbed& dut,
                                                  const sim::FlowPattern& fp,
                                                  int prefixes) {
  return [&dut, &fp, prefixes](std::uint64_t i) {
    auto [prefix, flow] = fp.at(i);
    (void)prefix;
    return dut.forward_packet(static_cast<int>(flow) % prefixes, flow, 64);
  };
}

}  // namespace

int main(int argc, char** argv) {
  Reporter reporter("flowcache", argc, argv);

  print_header(
      "Microflow verdict cache — router throughput, cache on vs off",
      "DESIGN.md §12: generation-vector coherent verdict cache; target "
      ">= 1.5x single-core steady state on Zipf(1.0) flow skew");

  const int kPrefixes = 50;
  const int kFlows = 512;
  const std::uint64_t samples = reporter.smoke() ? 600 : 6000;

  sim::ScenarioConfig off_cfg;
  off_cfg.prefixes = kPrefixes;
  off_cfg.accel = sim::Accel::kLinuxFpXdp;
  sim::LinuxTestbed off_dut(off_cfg);

  sim::ScenarioConfig on_cfg = off_cfg;
  on_cfg.flow_cache = true;
  sim::LinuxTestbed on_dut(on_cfg);

  sim::ThroughputRunner runner(25e9, samples);

  std::vector<int> widths{10, 14, 14, 10, 10};
  print_row({"pattern", "cache-off", "cache-on", "speedup", "hit-rate"},
            widths);
  print_row({"", "(Mpps)", "(Mpps)", "", ""}, widths);

  double zipf_speedup = 0;
  double zipf_hit_rate = 0;
  for (double zipf_s : {0.0, 1.0}) {
    sim::FlowPattern fp(kPrefixes, kFlows, 64, zipf_s);
    auto off_factory = flow_factory(off_dut, fp, kPrefixes);
    auto on_factory = flow_factory(on_dut, fp, kPrefixes);

    auto off_r = runner.run(off_dut, off_factory, 1);

    // Warm-up pass fills the cache; steady state is the second pass.
    (void)runner.run(on_dut, on_factory, 1);
    engine::FlowCacheStats before =
        on_dut.controller()->deployer().flow_cache_stats();
    auto on_r = runner.run(on_dut, on_factory, 1);
    engine::FlowCacheStats after =
        on_dut.controller()->deployer().flow_cache_stats();

    std::uint64_t hits = after.hits - before.hits;
    std::uint64_t misses = after.misses - before.misses;
    double hit_rate = hits + misses == 0
                          ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(hits + misses);
    double speedup = on_r.total_pps / off_r.total_pps;
    const char* label = zipf_s == 0.0 ? "uniform" : "zipf1.0";
    print_row({label, fmt_mpps(off_r.total_pps), fmt_mpps(on_r.total_pps),
               fmt(speedup), fmt(hit_rate)},
              widths);

    util::Json row = util::Json::object();
    row["pattern"] = label;
    row["zipf_s"] = zipf_s;
    row["cache_off_pps"] = off_r.total_pps;
    row["cache_on_pps"] = on_r.total_pps;
    row["speedup"] = speedup;
    row["hit_rate"] = hit_rate;
    row["hits"] = static_cast<std::int64_t>(hits);
    row["misses"] = static_cast<std::int64_t>(misses);
    reporter.add_row(row);

    if (zipf_s == 1.0) {
      zipf_speedup = speedup;
      zipf_hit_rate = hit_rate;
    }
  }

  engine::FlowCacheStats total =
      on_dut.controller()->deployer().flow_cache_stats();
  std::printf(
      "\ncache totals: hits=%llu misses=%llu invalidations=%llu "
      "evictions=%llu uncacheable=%llu replay_mismatch=%llu\n",
      static_cast<unsigned long long>(total.hits),
      static_cast<unsigned long long>(total.misses),
      static_cast<unsigned long long>(total.invalidations),
      static_cast<unsigned long long>(total.evictions),
      static_cast<unsigned long long>(total.uncacheable),
      static_cast<unsigned long long>(total.replay_mismatch));

  // Headline fields ci.sh sanity-checks.
  reporter.set("hit_rate", zipf_hit_rate);
  reporter.set("speedup", zipf_speedup);

  if (zipf_speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: zipf(1.0) steady-state speedup %.2f < 1.5x\n",
                 zipf_speedup);
    return 1;
  }
  if (zipf_hit_rate < 0.5) {
    std::fprintf(stderr, "FAIL: zipf(1.0) hit rate %.2f < 0.5\n",
                 zipf_hit_rate);
    return 1;
  }
  std::printf("\nshape checks: zipf speedup %.2fx (>= 1.5 required), "
              "hit rate %.2f\n",
              zipf_speedup, zipf_hit_rate);
  return 0;
}
