// The per-packet counts that have one writer each: bpf_fib_lookup counts in
// the calling worker's VM, and the slow path's FIB, stage and drop counts in
// its kernel, with no `lock` prefix. The registry sums them on read. These
// tests pin the totals exactly across VMs, the slow path and the fold when
// the VMs go away, and read them live while an engine runs; tools/ci.sh
// replays the live-read tests under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/controller.h"
#include "ebpf/loader.h"
#include "engine/engine.h"
#include "net/headers.h"
#include "tests/kernel/test_topo.h"
#include "util/metrics.h"

namespace linuxfp::engine {
namespace {

using linuxfp::testing::RouterDut;

constexpr int kPrefixes = 8;

// Every 10th packet goes to a prefix the DUT has no route for: the fast path
// punts it and the slow path drops it as no_route.
net::Packet mixed_packet(RouterDut& dut, int i) {
  const int prefix = i % 10 == 9 ? 20 : i % kPrefixes;
  return dut.packet_to_prefix(prefix, static_cast<std::uint16_t>(i % 64));
}

// Injects `packets` mixed packets into an engine of `queues` queues, every
// packet's effects visible on return. Meanwhile another thread reads `poll`
// from the registry in a loop; returns whether each name only ever went up.
// Counter creation is control-plane work, so a polled pass follows a
// warm-up pass: every name the traffic touches then exists before the
// reader starts, and the reader stops before stop() folds the engine's
// shards.
bool engine_pass(RouterDut& dut, unsigned queues, int packets,
                 const std::vector<std::string>& poll = {}) {
  const util::MetricsRegistry& reg = dut.kernel.metrics();
  EngineConfig cfg;
  cfg.queues = queues;
  cfg.backpressure = true;
  Engine eng(dut.kernel, dut.eth0_ifindex(), cfg);
  eng.start();
  std::atomic<bool> polled{false};
  std::atomic<bool> done{false};
  bool monotonic = true;
  std::thread reader([&] {
    std::vector<std::uint64_t> last(poll.size(), 0);
    do {
      for (std::size_t k = 0; k < poll.size(); ++k) {
        const std::uint64_t v = reg.value(poll[k]);
        if (v < last[k]) monotonic = false;
        last[k] = v;
      }
      polled.store(true, std::memory_order_release);
    } while (!done.load(std::memory_order_acquire));
  });
  while (!polled.load(std::memory_order_acquire)) std::this_thread::yield();
  for (int i = 0; i < packets; ++i) eng.inject(mixed_packet(dut, i));
  done.store(true, std::memory_order_release);
  reader.join();
  eng.stop();
  return monotonic;
}

// fib.lookups sums the helper's lookups on each of four worker VMs with the
// slow path's own, and fib.depth_total their trie depths; the totals survive
// the VMs' teardown.
TEST(EngineMetrics, FibCountsSumWorkerVmsAndSlowPath) {
  RouterDut dut;
  dut.add_prefixes(kPrefixes);
  auto controller = std::make_unique<core::Controller>(dut.kernel);
  controller->start();
  ebpf::Attachment* att =
      controller->deployer().attachment("eth0", ebpf::HookType::kXdp);
  ASSERT_NE(att, nullptr);
  const util::MetricsRegistry& reg = dut.kernel.metrics();

  // The trie depth a lookup toward each prefix walks, on either path.
  std::vector<std::uint64_t> depth;
  for (int p = 0; p < kPrefixes; ++p) {
    auto info = net::parse_packet(dut.packet_to_prefix(p));
    ASSERT_TRUE(info.has_value());
    auto hit = dut.kernel.fib().lookup(info->ip_dst);
    ASSERT_TRUE(hit.has_value());
    depth.push_back(hit->depth);
  }

  // Routed packets through four queues: each XDP run makes one
  // bpf_fib_lookup, on the VM of the queue that carried it.
  constexpr int kEnginePackets = 800;
  std::uint64_t want_depth = 0;
  {
    EngineConfig cfg;
    cfg.queues = 4;
    cfg.backpressure = true;
    Engine eng(dut.kernel, dut.eth0_ifindex(), cfg);
    eng.start();
    for (int i = 0; i < kEnginePackets; ++i) {
      eng.inject(
          dut.packet_to_prefix(i % kPrefixes, static_cast<std::uint16_t>(i)));
      want_depth += depth[i % kPrefixes];
    }
    eng.stop();
    for (unsigned q = 0; q < cfg.queues; ++q) {
      EXPECT_GT(eng.queue_stats(q).processed, 0u) << "queue " << q;
    }
  }
  ASSERT_EQ(att->ncpus(), 4u);
  const std::uint64_t xdp_runs = att->stats().runs;
  EXPECT_EQ(xdp_runs, static_cast<std::uint64_t>(kEnginePackets));
  EXPECT_EQ(att->stats().redirect, xdp_runs);  // no punt, no slow lookup
  EXPECT_EQ(reg.value("ebpf.helper.fib_lookup.calls"), xdp_runs);
  EXPECT_EQ(reg.value("fib.lookups"), xdp_runs);
  EXPECT_EQ(reg.value("fib.depth_total"), want_depth);

  // The same DUT as plain Linux: Kernel::rx forwards each packet with one
  // slow-path lookup, counted by the kernel.
  for (const char* dev : {"eth0", "eth1"}) {
    dut.kernel.dev_by_name(dev)->attach_xdp(nullptr);
  }
  constexpr int kSlowPackets = 300;
  for (int i = 0; i < kSlowPackets; ++i) {
    kern::CycleTrace t;
    dut.kernel.rx(dut.eth0_ifindex(),
                  dut.packet_to_prefix(i % kPrefixes,
                                       static_cast<std::uint16_t>(i)),
                  t);
    want_depth += depth[i % kPrefixes];
  }
  EXPECT_EQ(att->stats().runs, xdp_runs);
  EXPECT_EQ(dut.kernel.counters().forwarded,
            static_cast<std::uint64_t>(kSlowPackets));
  const std::uint64_t want_lookups = xdp_runs + kSlowPackets;
  EXPECT_EQ(reg.value("fib.lookups"), want_lookups);
  EXPECT_EQ(reg.value("fib.depth_total"), want_depth);

  // Metrics off freezes fib.* (the packet is still forwarded).
  dut.kernel.set_metrics_enabled(false);
  {
    kern::CycleTrace t;
    dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(0), t);
  }
  dut.kernel.set_metrics_enabled(true);
  EXPECT_EQ(reg.value("fib.lookups"), want_lookups);
  EXPECT_EQ(reg.value("fib.depth_total"), want_depth);

  // Tearing the controller down folds the VMs' counts into stored counters.
  controller.reset();
  EXPECT_EQ(reg.value("fib.lookups"), want_lookups);
  EXPECT_EQ(reg.value("fib.depth_total"), want_depth);
}

// fib.lookups read live during a LinuxFP engine run: the workers' VMs and
// the slow thread (punted no-route packets) add to their own stores while a
// reader sums them.
TEST(EngineMetrics, LiveFibReadsDuringLinuxFpRun) {
  RouterDut dut;
  dut.add_prefixes(kPrefixes);
  core::Controller controller(dut.kernel);
  controller.start();
  ebpf::Attachment* att =
      controller.deployer().attachment("eth0", ebpf::HookType::kXdp);
  ASSERT_NE(att, nullptr);
  const util::MetricsRegistry& reg = dut.kernel.metrics();
  constexpr int kPackets = 2000;
  constexpr std::uint64_t kNoRoute = kPackets / 10;
  engine_pass(dut, 2, kPackets);  // warm-up: creates every name

  const std::uint64_t runs0 = att->stats().runs;
  const std::uint64_t lookups0 = reg.value("fib.lookups");
  const std::uint64_t no_route0 = reg.value("drop.no_route");
  EXPECT_TRUE(engine_pass(dut, 2, kPackets, {"fib.lookups"}));

  // Quiesced: one helper lookup per XDP run, one slow lookup per punt.
  EXPECT_EQ(att->stats().runs - runs0, static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(reg.value("drop.no_route") - no_route0, kNoRoute);
  EXPECT_EQ(reg.value("fib.lookups") - lookups0, kPackets + kNoRoute);
}

// slowpath.* and drop.* read live during a 1-queue plain-Linux engine run:
// the slow thread adds to them without a `lock` prefix while a reader polls.
TEST(EngineMetrics, LiveStageAndDropReadsDuringPlainLinuxRun) {
  RouterDut dut;
  dut.add_prefixes(kPrefixes);
  const util::MetricsRegistry& reg = dut.kernel.metrics();
  constexpr int kPackets = 2000;
  constexpr std::uint64_t kNoRoute = kPackets / 10;
  engine_pass(dut, 1, kPackets);  // warm-up: creates every name

  const std::uint64_t ip_rcv0 = reg.value("slowpath.ip_rcv.calls");
  const std::uint64_t no_route0 = reg.value("drop.no_route");
  const std::uint64_t lookups0 = reg.value("fib.lookups");
  EXPECT_TRUE(engine_pass(dut, 1, kPackets,
                          {"slowpath.ip_rcv.calls", "drop.no_route"}));

  EXPECT_EQ(reg.value("slowpath.ip_rcv.calls") - ip_rcv0,
            static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(reg.value("drop.no_route") - no_route0, kNoRoute);
  EXPECT_EQ(reg.value("fib.lookups") - lookups0,
            static_cast<std::uint64_t>(kPackets));
}

}  // namespace
}  // namespace linuxfp::engine
