// N-queue vs 1-queue equivalence (ISSUE 4 satellite): parallelizing the
// fast path must not change WHAT happens to any packet, only WHERE it is
// processed. For a seeded flow mix over the LinuxFP XDP router, every
// verdict, drop and forwarding counter from a 4-queue run must exactly
// match the 1-queue run (determinism modulo ordering), and per-CPU map
// aggregation must be partition-invariant.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>

#include "core/status.h"
#include "ebpf/builder.h"
#include "ebpf/kernel_helpers.h"
#include "ebpf/loader.h"
#include "engine/engine.h"
#include "sim/testbed.h"
#include "tests/kernel/test_topo.h"

namespace linuxfp::engine {
namespace {

using linuxfp::testing::RouterDut;

// Everything about a run that must be queue-count invariant.
struct RunCounters {
  std::uint64_t processed = 0;
  std::uint64_t xdp_drop = 0;
  std::uint64_t xdp_tx = 0;
  std::uint64_t xdp_redirect = 0;
  std::uint64_t xdp_pass = 0;
  std::uint64_t to_userspace = 0;
  std::uint64_t aborted = 0;
  std::uint64_t tail_drops = 0;
  std::uint64_t slow_processed = 0;
  std::uint64_t kc_forwarded = 0;
  std::uint64_t kc_fast_path = 0;
  std::uint64_t kc_slow_path = 0;
  std::map<kern::Drop, std::uint64_t> kc_drops;
  std::uint64_t testbed_forwarded = 0;
  std::uint64_t eth0_rx = 0;
  std::uint64_t eth1_tx = 0;

  bool operator==(const RunCounters&) const = default;
};

// One engine run over a fresh LinuxFP XDP router testbed. The flow mix is
// fully seeded: Zipf(1.1) skew over 256 flows, every 5th packet unroutable
// (FIB miss -> XDP pass -> slow-path drop), so both fast and slow verdict
// paths are exercised.
RunCounters run_scenario(unsigned queues, const SteeringConfig& steering = {},
                         SteeringStats* steering_out = nullptr) {
  sim::ScenarioConfig cfg;
  cfg.prefixes = 50;
  cfg.accel = sim::Accel::kLinuxFpXdp;
  sim::LinuxTestbed bed(cfg);
  sim::FlowPattern pattern(50, 256, 64, /*zipf_s=*/1.1);

  EngineConfig ecfg;
  ecfg.queues = queues;
  ecfg.backpressure = true;
  ecfg.steering = steering;
  Engine eng(bed.kernel(), bed.ingress_ifindex(), ecfg);
  eng.start();
  constexpr std::uint64_t kPackets = 5000;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    auto [prefix, flow] = pattern.at(i);
    if (i % 5 == 4) {
      // No route for 10.250/16: the program punts, the stack drops.
      net::FlowKey f;
      f.src_ip = net::Ipv4Addr::parse("10.10.1.2").value();
      f.dst_ip = net::Ipv4Addr::parse("10.250.0.9").value();
      f.proto = net::kIpProtoUdp;
      f.src_port = static_cast<std::uint16_t>(2000 + flow);
      f.dst_port = 7;
      eng.inject(net::build_udp_packet(
          net::MacAddr::from_id(0x501),
          bed.kernel().dev_by_name("eth0")->mac(), f, 64));
    } else {
      eng.inject(bed.forward_packet(prefix, flow, pattern.frame_len()));
    }
  }
  eng.stop();

  RunCounters rc;
  rc.processed = eng.total_processed();
  rc.tail_drops = eng.total_tail_drops();
  for (unsigned q = 0; q < queues; ++q) {
    const QueueStats& st = eng.queue_stats(q);
    rc.xdp_drop += st.xdp_drop;
    rc.xdp_tx += st.xdp_tx;
    rc.xdp_redirect += st.xdp_redirect;
    rc.xdp_pass += st.xdp_pass;
    rc.to_userspace += st.to_userspace;
    rc.aborted += st.aborted;
  }
  rc.slow_processed = eng.slow_stats().processed;
  const kern::KernelCounters& kc = bed.kernel().counters();
  rc.kc_forwarded = kc.forwarded;
  rc.kc_fast_path = kc.fast_path_packets;
  rc.kc_slow_path = kc.slow_path_packets;
  rc.kc_drops = kc.drops;
  rc.testbed_forwarded = bed.forwarded_count();
  rc.eth0_rx = bed.kernel().dev_by_name("eth0")->stats().rx_packets;
  rc.eth1_tx = bed.kernel().dev_by_name("eth1")->stats().tx_packets;
  if (steering_out != nullptr && eng.steerer() != nullptr) {
    *steering_out = eng.steerer()->stats();
  }
  return rc;
}

TEST(EngineEquivalence, FourQueueRunMatchesSingleQueue) {
  RunCounters one = run_scenario(1);
  RunCounters four = run_scenario(4);

  // Sanity on the baseline itself: the mix really drove both paths.
  EXPECT_EQ(one.processed, 5000u);
  EXPECT_EQ(one.tail_drops, 0u);
  EXPECT_GT(one.xdp_redirect + one.xdp_tx, 0u) << "no fast-path forwards";
  EXPECT_EQ(one.slow_processed, one.xdp_pass + one.aborted);
  EXPECT_EQ(one.slow_processed, 1000u);  // the unroutable fifth

  EXPECT_EQ(one, four);
}

TEST(EngineEquivalence, AdaptiveSteeringPreservesEquivalence) {
  // The tentpole invariant: adaptive steering — live RETA rewrites, RFS
  // re-pins, elephant spray, all re-steering flows mid-run — changes only
  // WHERE packets process. Every verdict, drop and forwarding counter of an
  // 8-queue adaptively-steered run must exactly equal the plain 1-queue run.
  RunCounters one = run_scenario(1);

  SteeringConfig steering = SteeringConfig::adaptive();
  steering.interval = 256;  // many live adaptation passes inside 5000 packets
  SteeringStats ss;
  RunCounters eight = run_scenario(8, steering, &ss);

  // The steering machinery demonstrably acted: this is not a vacuous pass.
  EXPECT_EQ(ss.decisions, 5000u);
  EXPECT_GT(ss.adapt_passes, 10u);
  EXPECT_GT(ss.rebalances, 0u);
  EXPECT_GT(ss.rfs_hits, 0u);

  EXPECT_EQ(one, eight);
}

TEST(EngineEquivalence, PercpuAggregationIsPartitionInvariant) {
  // A per-CPU counter map sees a different slot partition under 1 and 4
  // queues, but its control-plane aggregate must be identical.
  auto aggregate_after_run = [](unsigned queues) {
    RouterDut dut;
    ebpf::HelperRegistry helpers;
    ebpf::register_all_helpers(helpers, dut.kernel.cost());
    ebpf::Attachment att("pc", ebpf::HookType::kXdp, dut.kernel, helpers);
    std::uint32_t map_id =
        att.maps().create("cnt", ebpf::MapType::kPercpuArray, 4, 8, 2);

    // key = ip proto is UDP ? 0 : 1; slot += 1; drop.
    ebpf::ProgramBuilder b("pc_count", ebpf::HookType::kXdp);
    b.mov_reg(ebpf::kR2, ebpf::kR10);
    b.add(ebpf::kR2, -8);
    b.st(ebpf::kR2, 0, 0, ebpf::MemSize::kU32);
    b.mov(ebpf::kR1, map_id);
    b.call(ebpf::kHelperMapLookup);
    b.jeq(ebpf::kR0, 0, "miss");
    b.ldx(ebpf::kR1, ebpf::kR0, 0, ebpf::MemSize::kU64);
    b.add(ebpf::kR1, 1);
    b.stx(ebpf::kR0, 0, ebpf::kR1, ebpf::MemSize::kU64);
    b.label("miss");
    b.ret(ebpf::kActDrop);
    auto id = att.load(b.build().value());
    EXPECT_TRUE(id.ok()) << (id.ok() ? "" : id.error().message);
    EXPECT_TRUE(att.set_entry(id.value()).ok());
    EXPECT_TRUE(
        ebpf::attach_to_device(dut.kernel, "eth0", ebpf::HookType::kXdp, &att)
            .ok());

    EngineConfig cfg;
    cfg.queues = queues;
    cfg.backpressure = true;
    Engine eng(dut.kernel, dut.eth0_ifindex(), cfg);
    eng.start();
    for (std::uint64_t i = 0; i < 3000; ++i) {
      eng.inject(
          dut.packet_to_prefix(static_cast<int>(i % 4),
                               static_cast<std::uint16_t>(i % 128)));
    }
    eng.stop();

    std::uint32_t key = 0;
    return att.maps().get(map_id)->percpu_sum(
        reinterpret_cast<std::uint8_t*>(&key));
  };

  std::uint64_t one = aggregate_after_run(1);
  std::uint64_t four = aggregate_after_run(4);
  EXPECT_EQ(one, 3000u);
  EXPECT_EQ(one, four);
}

TEST(EngineEquivalence, StatusJsonExposesPerQueueStats) {
  sim::ScenarioConfig cfg;
  cfg.prefixes = 4;
  cfg.accel = sim::Accel::kLinuxFpXdp;
  sim::LinuxTestbed bed(cfg);

  EngineConfig ecfg;
  ecfg.queues = 2;
  ecfg.backpressure = true;
  Engine eng(bed.kernel(), bed.ingress_ifindex(), ecfg);
  eng.start();
  for (std::uint64_t i = 0; i < 300; ++i) {
    eng.inject(bed.forward_packet(static_cast<int>(i % 4),
                                  static_cast<std::uint16_t>(i % 64)));
  }
  eng.stop();

  util::Json status = core::status_json(*bed.controller());
  ASSERT_TRUE(status.object_items().contains("engine"));
  const util::Json& engine = status.at("engine");
  const util::Json& queues = engine.at("queues");
  ASSERT_EQ(queues.size(), 2u);
  std::uint64_t processed = 0;
  for (std::size_t q = 0; q < queues.size(); ++q) {
    const util::Json& qj = queues.at(q);
    processed += static_cast<std::uint64_t>(qj.at("processed").as_int());
    EXPECT_GE(qj.at("polls").as_int(), 1);
    EXPECT_EQ(qj.at("drops").as_int(), 0);
  }
  EXPECT_EQ(processed, 300u);

  // The raw counters also reach the Prometheus exporter.
  std::string prom = core::prometheus_status(*bed.controller());
  EXPECT_NE(prom.find("engine_queue0_processed"), std::string::npos);

  // Every engine.* counter in the registry appears in the document where
  // status_json derives it: engine.queue<i>.<name> under queues[i], any other
  // engine.<group>.<name> under <group>. Nothing is dropped by a name list.
  const util::Json metrics = bed.kernel().metrics().to_json();
  std::size_t engine_counters = 0;
  for (const auto& [name, value] : metrics.at("counters").object_items()) {
    if (name.rfind("engine.", 0) != 0) continue;
    ++engine_counters;
    const std::string rest = name.substr(std::string("engine.").size());
    const std::string group = rest.substr(0, rest.find('.'));
    const std::string leaf = rest.substr(rest.find('.') + 1);
    const util::Json& shown =
        group.rfind("queue", 0) == 0
            ? queues.at(std::stoul(group.substr(std::string("queue").size())))
                  .at(leaf)
            : engine.at(group).at(leaf);
    EXPECT_EQ(shown, value) << name;
  }
  EXPECT_GT(engine_counters, 0u);
  // Among them the per-queue stall and watchdog counters.
  EXPECT_TRUE(queues.at(0).contains("backpressure_stalls"));
  EXPECT_TRUE(engine.at("watchdog").contains("resteers"));
  EXPECT_TRUE(engine.at("watchdog").contains("recoveries"));
}

}  // namespace
}  // namespace linuxfp::engine
