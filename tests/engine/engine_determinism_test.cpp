// Run-to-run determinism of the threaded engine's modeled numbers: the same
// traffic through sim::ForwardingRunner must read the same result on every
// run, however the worker and slow-path threads happen to interleave. GRO
// (one list per rx queue, flushed at that queue's NAPI poll window) and
// adaptive steering (balanced on the packets it counted) are the mechanisms
// that once followed host thread timing, so each case repeats one run ten
// times and requires every repeat to match the first field for field.
#include <gtest/gtest.h>

#include <functional>

#include "engine/steering.h"
#include "sim/runners.h"
#include "sim/testbed.h"

namespace linuxfp::sim {
namespace {

constexpr int kRepeats = 10;
constexpr std::uint64_t kSamples = 2000;

void expect_repeats(const std::function<ForwardingResult()>& run) {
  const ForwardingResult first = run();
  for (int i = 1; i < kRepeats; ++i) {
    const ForwardingResult r = run();
    EXPECT_EQ(r.total_pps, first.total_pps) << "repeat " << i;
    EXPECT_EQ(r.gro_superpackets, first.gro_superpackets) << "repeat " << i;
    EXPECT_EQ(r.gro_coalesced, first.gro_coalesced) << "repeat " << i;
    EXPECT_EQ(r.slow_thread_cycles, first.slow_thread_cycles)
        << "repeat " << i;
    EXPECT_EQ(r.per_queue_share, first.per_queue_share) << "repeat " << i;
  }
}

// Eight interleaved in-order TCP streams through plain Linux with GRO on:
// every packet folds on the slow path, and runs close on max_segs, on the
// poll window and at shutdown. A fresh testbed per run, as in a new process.
ForwardingResult gro_run(unsigned queues) {
  ScenarioConfig cfg;
  cfg.prefixes = 4;
  cfg.accel = Accel::kNone;
  LinuxTestbed bed(cfg);
  constexpr std::size_t kFrame = 512;
  constexpr std::uint32_t kPayload = kFrame - 54;  // eth+ip+tcp headers
  auto factory = [&bed](std::uint64_t i) {
    const auto flow = static_cast<std::uint16_t>(i % 8);
    const auto k = static_cast<std::uint32_t>(i / 8);
    return bed.forward_tcp_segment(flow % 4, flow, kFrame, 1 + k * kPayload,
                                   static_cast<std::uint16_t>(k));
  };
  ForwardingOptions opts;
  opts.queues = queues;
  opts.gro.enabled = true;
  return ForwardingRunner(25e9, kSamples)
      .run(bed.kernel(), bed.ingress_ifindex(), factory, opts);
}

TEST(EngineDeterminism, GroOneQueue) {
  expect_repeats([] {
    ForwardingResult r = gro_run(1);
    EXPECT_EQ(r.packets_out, kSamples);
    EXPECT_GT(r.gro_superpackets, 0u);
    return r;
  });
}

TEST(EngineDeterminism, GroEightQueues) {
  expect_repeats([] {
    ForwardingResult r = gro_run(8);
    EXPECT_EQ(r.packets_out, kSamples);
    EXPECT_GT(r.gro_superpackets, 0u);
    return r;
  });
}

// bench_scaling_queues' elephant mix: Zipf(1.2) over 16 flows on the XDP
// router at 8 queues, with every steering mechanism on and a pass every 512
// packets, so rebalances, RFS migrations and spray all happen mid-run.
TEST(EngineDeterminism, AdaptiveSteering) {
  expect_repeats([] {
    ScenarioConfig cfg;
    cfg.prefixes = 50;
    cfg.accel = Accel::kLinuxFpXdp;
    LinuxTestbed bed(cfg);
    FlowPattern elephants(1, 16, 64, /*zipf_s=*/1.2);
    auto factory = [&](std::uint64_t i) {
      auto [prefix, flow] = elephants.at(i);
      return bed.forward_packet(prefix, flow, elephants.frame_len());
    };
    ForwardingOptions opts;
    opts.queues = 8;
    opts.steering = engine::SteeringConfig::adaptive();
    opts.steering.interval = 512;
    ForwardingResult r = ForwardingRunner(100e9, kSamples)
                             .run(bed.kernel(), bed.ingress_ifindex(),
                                  factory, opts);
    // The sprayed elephant reaches every queue.
    for (double share : r.per_queue_share) EXPECT_GT(share, 0.0);
    return r;
  });
}

}  // namespace
}  // namespace linuxfp::sim
