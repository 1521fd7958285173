// Parallel datapath engine tests: the MPMC ring, the symmetric Toeplitz RSS
// classifier, and full engine runs (worker pool + slow-path funnel) against
// the router DUT. The multi-threaded cases here are the ones tools/ci.sh
// replays under TSan.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "ebpf/builder.h"
#include "ebpf/kernel_helpers.h"
#include "ebpf/loader.h"
#include "engine/ring.h"
#include "engine/rss.h"
#include "net/headers.h"
#include "tests/kernel/test_topo.h"
#include "util/rng.h"

namespace linuxfp::engine {
namespace {

using linuxfp::testing::RouterDut;

// --- BoundedRing ---------------------------------------------------------------

TEST(BoundedRing, FifoOrderAndCapacity) {
  BoundedRing<int> ring(4);
  int out = 0;
  EXPECT_FALSE(ring.try_pop(out));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int{i}));
  EXPECT_FALSE(ring.try_push(99));  // full
  EXPECT_EQ(ring.occupancy(), 4u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.try_pop(out));
  EXPECT_EQ(ring.occupancy(), 0u);
}

TEST(BoundedRing, FailedPushKeepsValue) {
  BoundedRing<std::vector<int>> ring(2);
  ASSERT_TRUE(ring.try_push(std::vector<int>{1}));
  ASSERT_TRUE(ring.try_push(std::vector<int>{2}));
  std::vector<int> v{3, 4, 5};
  EXPECT_FALSE(ring.try_push(std::move(v)));
  // A rejected push must not have consumed the value — callers retry with it.
  EXPECT_EQ(v.size(), 3u);
}

TEST(BoundedRing, MpscCountsPreserved) {
  // The slow ring's shape: several producers, one consumer. Every pushed
  // value must be popped exactly once.
  BoundedRing<std::uint64_t> ring(128);
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  std::atomic<int> live{kProducers};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, &live, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        std::uint64_t v = static_cast<std::uint64_t>(p) * kPerProducer + i;
        while (!ring.try_push(std::uint64_t{v})) std::this_thread::yield();
      }
      live.fetch_sub(1, std::memory_order_release);
    });
  }
  std::uint64_t sum = 0, count = 0, v = 0;
  for (;;) {
    if (ring.try_pop(v)) {
      sum += v;
      ++count;
      continue;
    }
    if (live.load(std::memory_order_acquire) == 0) {
      while (ring.try_pop(v)) {
        sum += v;
        ++count;
      }
      break;
    }
    std::this_thread::yield();
  }
  for (auto& t : producers) t.join();
  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  EXPECT_EQ(count, kTotal);
  EXPECT_EQ(sum, kTotal * (kTotal - 1) / 2);
}

// --- RSS -----------------------------------------------------------------------

net::Packet flow_packet(const char* src, const char* dst, std::uint16_t sport,
                        std::uint16_t dport) {
  net::FlowKey f;
  f.src_ip = net::Ipv4Addr::parse(src).value();
  f.dst_ip = net::Ipv4Addr::parse(dst).value();
  f.proto = net::kIpProtoUdp;
  f.src_port = sport;
  f.dst_port = dport;
  return net::build_udp_packet(net::MacAddr::from_id(1),
                               net::MacAddr::from_id(2), f, 64);
}

TEST(Rss, HashIsSymmetric) {
  // The endpoints are sorted before hashing: both directions of a flow hash
  // identically, so request and reply land on the same queue (required for
  // per-CPU conntrack-style state).
  RssClassifier rss(4);
  for (std::uint16_t i = 0; i < 64; ++i) {
    net::Packet fwd =
        flow_packet("10.10.1.2", "10.100.0.9", 1000 + i, 7);
    net::Packet rev =
        flow_packet("10.100.0.9", "10.10.1.2", 7, 1000 + i);
    EXPECT_EQ(rss.hash(fwd), rss.hash(rev)) << "flow " << i;
    EXPECT_EQ(rss.queue_for(fwd), rss.queue_for(rev));
  }
}

TEST(Rss, SameFlowAlwaysSameQueue) {
  RssClassifier rss(8);
  net::Packet a = flow_packet("10.10.1.2", "10.100.0.9", 1234, 7);
  net::Packet b = flow_packet("10.10.1.2", "10.100.0.9", 1234, 7);
  EXPECT_EQ(rss.queue_for(a), rss.queue_for(b));
}

TEST(Rss, SpreadsFlowsAcrossQueues) {
  RssClassifier rss(4);
  std::vector<unsigned> hits(4, 0);
  for (std::uint16_t flow = 0; flow < 512; ++flow) {
    net::Packet p = flow_packet("10.10.1.2", "10.100.0.9",
                                static_cast<std::uint16_t>(1000 + flow), 7);
    unsigned q = rss.queue_for(p);
    ASSERT_LT(q, 4u);
    ++hits[q];
  }
  for (unsigned q = 0; q < 4; ++q) {
    // 512 flows over 4 queues: expect ~128 each; require at least a quarter
    // of fair share so a broken hash (all-one-queue) fails loudly.
    EXPECT_GT(hits[q], 32u) << "queue " << q;
  }
}

TEST(Rss, NonIpFallsBackToL2Hash) {
  // Non-IPv4 frames hash the canonicalized MAC pair + ethertype instead of
  // collapsing to hash 0 (which pinned all such traffic to reta_[0]'s queue
  // and one flowcache set). Deterministic, and symmetric in the MAC pair so
  // an ARP request and its reply stay on one queue.
  RssClassifier rss(4);
  net::Packet req = net::build_arp_request(net::MacAddr::from_id(7),
                                           net::Ipv4Addr::parse("10.0.0.1").value(),
                                           net::Ipv4Addr::parse("10.0.0.2").value());
  EXPECT_NE(rss.hash(req), 0u);
  EXPECT_EQ(rss.hash(req), rss.hash(req));
  net::Packet reply = net::build_arp_reply(
      net::MacAddr::from_id(9), net::Ipv4Addr::parse("10.0.0.2").value(),
      net::MacAddr::from_id(7), net::Ipv4Addr::parse("10.0.0.1").value());
  net::Packet reverse = net::build_arp_reply(
      net::MacAddr::from_id(7), net::Ipv4Addr::parse("10.0.0.1").value(),
      net::MacAddr::from_id(9), net::Ipv4Addr::parse("10.0.0.2").value());
  EXPECT_EQ(rss.hash(reply), rss.hash(reverse));
  // An all-zero runt frame still hashes without tripping the key window.
  net::Packet runt(8);
  EXPECT_EQ(rss.hash(runt), rss.hash(runt));
}

// The Microsoft reference key and the bit-serial Toeplitz definition: for
// each set input bit i, XOR in the 32-bit key window starting at key bit i.
constexpr std::uint8_t kMicrosoftRssKey[40] = {
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67,
    0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb,
    0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30,
    0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa};

std::uint32_t bit_serial_toeplitz(const std::uint8_t* data, std::size_t len) {
  auto key_bit = [](std::size_t i) -> std::uint32_t {
    return (kMicrosoftRssKey[i / 8] >> (7 - i % 8)) & 1u;
  };
  std::uint32_t window = 0;
  for (std::size_t i = 0; i < 32; ++i) window = (window << 1) | key_bit(i);
  std::uint32_t result = 0;
  for (std::size_t i = 0; i < len * 8; ++i) {
    if ((data[i / 8] >> (7 - i % 8)) & 1u) result ^= window;
    window = (window << 1) | key_bit(i + 32);
  }
  return result;
}

TEST(Rss, ToeplitzMatchesMicrosoftVerificationVectors) {
  // The IPv4 vectors of Microsoft's RSS verification suite. rss_hash_of
  // sorts the endpoints, so the raw hash is checked: source address,
  // destination address, then (for the second hash) source and destination
  // port, all big-endian.
  struct Vector {
    const char* src;
    std::uint16_t sport;
    const char* dst;
    std::uint16_t dport;
    std::uint32_t addrs_only;
    std::uint32_t with_ports;
  };
  const Vector vectors[] = {
      {"66.9.149.187", 2794, "161.142.100.80", 1766, 0x323e8fc2, 0x51ccc178},
      {"199.92.111.2", 14230, "65.69.140.83", 4739, 0xd718262a, 0xc626b0ea},
      {"24.19.198.95", 12898, "12.22.207.184", 38024, 0xd2d0a5de,
       0x5c2b394a},
  };
  for (const Vector& v : vectors) {
    std::uint8_t input[12];
    net::store_be32(input, net::Ipv4Addr::parse(v.src).value().value());
    net::store_be32(input + 4, net::Ipv4Addr::parse(v.dst).value().value());
    net::store_be16(input + 8, v.sport);
    net::store_be16(input + 10, v.dport);
    EXPECT_EQ(toeplitz_hash(input, 8), v.addrs_only) << v.src;
    EXPECT_EQ(toeplitz_hash(input, 12), v.with_ports) << v.src;
  }
}

TEST(Rss, ToeplitzTableMatchesBitSerialDefinition) {
  // Every input length the 40-byte key allows, 0 to 36 bytes, over seeded
  // random inputs.
  util::Rng rng(0x70e9117);
  std::uint8_t input[36];
  for (std::size_t len = 0; len <= sizeof(input); ++len) {
    for (int trial = 0; trial < 200; ++trial) {
      for (std::uint8_t& b : input) {
        b = static_cast<std::uint8_t>(rng.next_u32());
      }
      ASSERT_EQ(toeplitz_hash(input, len), bit_serial_toeplitz(input, len))
          << "len " << len << " trial " << trial;
    }
  }
}

// --- Engine --------------------------------------------------------------------

// A deliberately fat XDP drop program (~200 straight-line insns): makes the
// worker the bottleneck so overload/tail-drop behaviour is deterministic.
ebpf::Program slow_drop_prog() {
  ebpf::ProgramBuilder b("slow_drop", ebpf::HookType::kXdp);
  for (int i = 0; i < 200; ++i) b.mov(ebpf::kR3, i);
  b.ret(ebpf::kActDrop);
  return b.build().value();
}

TEST(Engine, SlowPathForwardsWithoutProgram) {
  RouterDut dut;
  dut.add_prefixes(8);
  EngineConfig cfg;
  cfg.queues = 2;
  cfg.backpressure = true;
  Engine eng(dut.kernel, dut.eth0_ifindex(), cfg);
  eng.start();
  constexpr int kPackets = 400;
  for (int i = 0; i < kPackets; ++i) {
    eng.inject(dut.packet_to_prefix(i % 8, static_cast<std::uint16_t>(i)));
  }
  eng.stop();

  // No XDP program: every packet funnels through the slow-path thread and
  // is forwarded by the real stack.
  EXPECT_EQ(eng.total_processed(), static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(eng.total_tail_drops(), 0u);
  EXPECT_EQ(eng.slow_stats().processed, static_cast<std::uint64_t>(kPackets));
  EXPECT_GT(eng.slow_stats().cycles, 0u);
  EXPECT_EQ(dut.tx_eth1.size(), static_cast<std::size_t>(kPackets));
  EXPECT_EQ(dut.kernel.counters().forwarded,
            static_cast<std::uint64_t>(kPackets));

  // Reconciled observability: per-queue counters and device stats.
  util::MetricsRegistry& reg = dut.kernel.metrics();
  std::uint64_t processed = 0;
  for (unsigned q = 0; q < 2; ++q) {
    processed +=
        reg.value("engine.queue" + std::to_string(q) + ".processed");
    EXPECT_GT(reg.value("engine.queue" + std::to_string(q) + ".polls"), 0u)
        << "queue " << q;
  }
  EXPECT_EQ(processed, static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(reg.value("engine.slow.processed"),
            static_cast<std::uint64_t>(kPackets));
  auto& rx = dut.kernel.dev_by_name("eth0")->stats();
  EXPECT_EQ(rx.rx_packets, static_cast<std::uint64_t>(kPackets));
}

TEST(Engine, PercpuMapCountsAcrossWorkers) {
  // Four workers bump one per-CPU array entry concurrently; each writes its
  // own slot, so the control-plane aggregate equals the packet count with
  // no atomics in the program at all.
  RouterDut dut;
  ebpf::HelperRegistry helpers;
  ebpf::register_all_helpers(helpers, dut.kernel.cost());
  ebpf::Attachment att("pc", ebpf::HookType::kXdp, dut.kernel, helpers);
  std::uint32_t map_id =
      att.maps().create("cnt", ebpf::MapType::kPercpuArray, 4, 8, 1);

  // lookup key 0 -> load slot, +1, store, drop.
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
  ASSERT_TRUE(id.ok()) << id.error().message;
  ASSERT_TRUE(att.set_entry(id.value()).ok());
  ASSERT_TRUE(
      ebpf::attach_to_device(dut.kernel, "eth0", ebpf::HookType::kXdp, &att)
          .ok());

  EngineConfig cfg;
  cfg.queues = 4;
  cfg.backpressure = true;
  Engine eng(dut.kernel, dut.eth0_ifindex(), cfg);
  eng.start();
  constexpr std::uint64_t kPackets = 4000;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    eng.inject(dut.packet_to_prefix(0, static_cast<std::uint16_t>(i % 256)));
  }
  eng.stop();

  EXPECT_EQ(eng.total_processed(), kPackets);
  EXPECT_EQ(eng.total_fast_verdicts(), kPackets);
  EXPECT_EQ(eng.slow_stats().processed, 0u);

  // Aggregate-on-read equals the total; each CPU slot holds exactly its
  // queue's packet count.
  std::uint32_t key = 0;
  ebpf::Map* m = att.maps().get(map_id);
  EXPECT_EQ(m->percpu_sum(reinterpret_cast<std::uint8_t*>(&key)), kPackets);
  for (unsigned q = 0; q < 4; ++q) {
    std::uint64_t slot = 0;
    std::memcpy(&slot, m->lookup(reinterpret_cast<std::uint8_t*>(&key), q), 8);
    EXPECT_EQ(slot, eng.queue_stats(q).processed) << "cpu " << q;
  }

  // Attachment per-CPU stat shards aggregate to the run total.
  EXPECT_EQ(att.stats().runs, kPackets);
  EXPECT_EQ(att.stats().drop, kPackets);
  EXPECT_EQ(dut.kernel.counters().fast_path_packets, kPackets);
  EXPECT_EQ(dut.kernel.metrics().value("drop.xdp_drop"), kPackets);
}

TEST(Engine, TailDropUnderOverload) {
  RouterDut dut;
  ebpf::HelperRegistry helpers;
  ebpf::register_all_helpers(helpers, dut.kernel.cost());
  ebpf::Attachment att("slow", ebpf::HookType::kXdp, dut.kernel, helpers);
  auto id = att.load(slow_drop_prog());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(att.set_entry(id.value()).ok());
  ASSERT_TRUE(
      ebpf::attach_to_device(dut.kernel, "eth0", ebpf::HookType::kXdp, &att)
          .ok());

  EngineConfig cfg;
  cfg.queues = 1;
  cfg.queue_depth = 8;
  cfg.backpressure = false;  // NIC tail-drop semantics
  Engine eng(dut.kernel, dut.eth0_ifindex(), cfg);
  eng.start();
  constexpr std::uint64_t kPackets = 20000;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    eng.inject(dut.packet_to_prefix(0, 1));  // one flow -> one queue
  }
  eng.stop();

  const QueueStats& st = eng.queue_stats(0);
  // Conservation: every injected packet was either enqueued or tail-dropped,
  // and everything enqueued was processed (drain-on-stop).
  EXPECT_EQ(st.enqueued + st.tail_drops, kPackets);
  EXPECT_EQ(st.processed, st.enqueued);
  EXPECT_GT(st.tail_drops, 0u);
  EXPECT_LE(st.max_occupancy, cfg.queue_depth);
  EXPECT_EQ(eng.total_tail_drops(), st.tail_drops);
  // Tail drops are charged to the ingress device like rx_dropped.
  EXPECT_EQ(dut.kernel.dev_by_name("eth0")->stats().rx_dropped,
            st.tail_drops);
}

TEST(Engine, NapiBudgetBoundsBurstSize) {
  RouterDut dut;
  ebpf::HelperRegistry helpers;
  ebpf::register_all_helpers(helpers, dut.kernel.cost());
  ebpf::Attachment att("slow", ebpf::HookType::kXdp, dut.kernel, helpers);
  auto id = att.load(slow_drop_prog());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(att.set_entry(id.value()).ok());
  ASSERT_TRUE(
      ebpf::attach_to_device(dut.kernel, "eth0", ebpf::HookType::kXdp, &att)
          .ok());

  EngineConfig cfg;
  cfg.queues = 1;
  cfg.queue_depth = 256;
  cfg.napi_budget = 16;
  cfg.backpressure = true;
  Engine eng(dut.kernel, dut.eth0_ifindex(), cfg);
  eng.start();
  constexpr std::uint64_t kPackets = 2048;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    eng.inject(dut.packet_to_prefix(0, 1));
  }
  eng.stop();

  const QueueStats& st = eng.queue_stats(0);
  EXPECT_EQ(st.processed, kPackets);
  // polls * budget >= processed, and any full-budget poll is a burst.
  EXPECT_GE(st.polls * cfg.napi_budget, st.processed);
  EXPECT_LE(st.bursts, st.polls);
}

}  // namespace
}  // namespace linuxfp::engine
