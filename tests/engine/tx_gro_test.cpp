// TX engine + GRO (ISSUE 9, DESIGN.md §16): batched transmit rings with
// xmit_more doorbell coalescing, slow-path GRO with TX resegmentation, and
// the invariants that make both invisible to the wire:
//  * GRO byte-identity: coalescing + gso_segment restores the exact original
//    frames, for in-order, reordered and interleaved streams; fragments and
//    non-TCP traffic bypass; per-flow order is preserved end to end; each rx
//    queue's GRO list flushes at that queue's NAPI poll window.
//  * DevStats symmetry: fast-path kTx/redirect egress and slow-path egress
//    account tx_packets/tx_bytes identically (both flow through dev_xmit).
//  * Closed-loop equivalence: TX batching + GRO on vs off changes no
//    counter and no per-flow output byte stream, at 1q and 8q.
//  * Redirect audit: a verdict naming an attachment-less device transmits
//    through the TX ring; one naming a ghost ifindex counts drop.no_device
//    with a trace record — never silent.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/guard.h"
#include "core/status.h"
#include "ebpf/builder.h"
#include "ebpf/kernel_helpers.h"
#include "ebpf/loader.h"
#include "engine/engine.h"
#include "engine/gro.h"
#include "engine/tx.h"
#include "net/headers.h"
#include "sim/testbed.h"
#include "tests/kernel/test_topo.h"
#include "util/metrics.h"

namespace linuxfp::engine {
namespace {

using linuxfp::testing::RouterDut;

std::string bytes_of(const net::Packet& p) {
  return std::string(reinterpret_cast<const char*>(p.data()), p.size());
}

// One TCP segment of a synthetic stream; seq/ip_id are caller-controlled so
// tests can build exact in-order / out-of-order shapes.
net::Packet tcp_seg(std::uint16_t flow, std::uint32_t seq, std::uint16_t ip_id,
                    std::size_t frame_len = 128, std::uint8_t ttl = 64,
                    std::uint8_t flags = 0x18) {
  net::FlowKey f;
  f.src_ip = net::Ipv4Addr::from_octets(192, 168, 1, 1);
  f.dst_ip = net::Ipv4Addr::from_octets(192, 168, 2, 2);
  f.proto = net::kIpProtoTcp;
  f.src_port = static_cast<std::uint16_t>(5000 + flow);
  f.dst_port = 80;
  net::Packet p =
      net::build_tcp_packet(net::MacAddr::from_id(0xA),
                            net::MacAddr::from_id(0xB), f, flags, frame_len,
                            ttl);
  net::Ipv4View ip(p.data() + net::kEthHdrLen);
  ip.set_id(ip_id);
  ip.update_checksum();
  net::TcpView tcp(p.data() + net::kEthHdrLen + net::kIpv4HdrLen);
  tcp.set_seq(seq);
  return p;
}

net::Packet udp_pkt(std::uint16_t flow, std::size_t frame_len = 128) {
  net::FlowKey f;
  f.src_ip = net::Ipv4Addr::from_octets(192, 168, 1, 1);
  f.dst_ip = net::Ipv4Addr::from_octets(192, 168, 2, 2);
  f.proto = net::kIpProtoUdp;
  f.src_port = static_cast<std::uint16_t>(5000 + flow);
  f.dst_port = 53;
  return net::build_udp_packet(net::MacAddr::from_id(0xA),
                               net::MacAddr::from_id(0xB), f, frame_len);
}

constexpr std::uint32_t kSegPayload = 128 - 54;  // tcp_seg default frame

// Expands GRO output back to wire frames: super-packets resegment through
// net::gso_segment, everything else passes through untouched.
std::vector<net::Packet> expand(std::vector<net::Packet>&& out) {
  std::vector<net::Packet> wire;
  for (net::Packet& p : out) {
    if (p.gro_segs.size() > 1) {
      for (net::Packet& seg : net::gso_segment(p)) {
        wire.push_back(std::move(seg));
      }
    } else {
      wire.push_back(std::move(p));
    }
  }
  return wire;
}

// --- GRO unit + property tests (ISSUE 9 satellite 2) ------------------------

TEST(GroEngineTest, CoalescesInSequenceTcpRun) {
  GroEngine gro(GroConfig{.enabled = true});
  std::vector<net::Packet> out;
  std::vector<std::string> originals;
  for (std::uint32_t k = 0; k < 4; ++k) {
    net::Packet seg = tcp_seg(0, 1 + k * kSegPayload,
                              static_cast<std::uint16_t>(k));
    originals.push_back(bytes_of(seg));
    gro.fold(std::move(seg), out);
  }
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(gro.held(), 1u);
  EXPECT_EQ(gro.stats().folds, 4u);
  EXPECT_EQ(gro.stats().coalesced, 3u);
  EXPECT_EQ(gro.stats().bypassed, 0u);

  gro.flush_all(out);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].gro_segs.size(), 4u);
  EXPECT_EQ(gro.stats().superpackets, 1u);
  EXPECT_EQ(gro.stats().flush_poll, 1u);
  EXPECT_EQ(out[0].size(), 128u + 3u * kSegPayload);
  net::Ipv4View ip(out[0].data() + net::kEthHdrLen);
  EXPECT_EQ(ip.total_len(), out[0].size() - net::kEthHdrLen);
  EXPECT_TRUE(ip.checksum_valid());

  // Resegmentation restores the original wire bytes exactly.
  std::vector<net::Packet> segs = net::gso_segment(out[0]);
  ASSERT_EQ(segs.size(), 4u);
  for (std::size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(bytes_of(segs[i]), originals[i]) << "segment " << i;
  }
}

TEST(GroEngineTest, OutOfOrderSegmentFlushesRun) {
  GroEngine gro(GroConfig{.enabled = true});
  std::vector<net::Packet> out;
  net::Packet first = tcp_seg(0, 1, 0);
  const std::string first_bytes = bytes_of(first);
  gro.fold(std::move(first), out);
  // Skip a segment: seq jumps past next_seq, so the held run flushes and the
  // out-of-order segment starts a fresh run (kernel GRO behaviour).
  gro.fold(tcp_seg(0, 1 + 2 * kSegPayload, 2), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(bytes_of(out[0]), first_bytes);  // single-seg run, untouched
  EXPECT_TRUE(out[0].gro_segs.empty());
  EXPECT_EQ(gro.stats().flush_ooo, 1u);
  EXPECT_EQ(gro.stats().superpackets, 0u);
  EXPECT_EQ(gro.held(), 1u);
}

TEST(GroEngineTest, HeaderDeltaFlushesRun) {
  GroEngine gro(GroConfig{.enabled = true});
  std::vector<net::Packet> out;
  gro.fold(tcp_seg(0, 1, 0), out);
  // In-sequence but a different TTL: headers no longer identical modulo the
  // per-segment restore fields, so the run must not absorb it.
  gro.fold(tcp_seg(0, 1 + kSegPayload, 1, 128, /*ttl=*/63), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(gro.stats().flush_mismatch, 1u);
  EXPECT_EQ(gro.held(), 1u);  // the new-TTL segment started its own run
}

TEST(GroEngineTest, MaxSegsCapFlushes) {
  GroEngine gro(GroConfig{.enabled = true, .max_segs = 3});
  std::vector<net::Packet> out;
  for (std::uint32_t k = 0; k < 3; ++k) {
    gro.fold(tcp_seg(0, 1 + k * kSegPayload, static_cast<std::uint16_t>(k)),
             out);
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].gro_segs.size(), 3u);
  EXPECT_EQ(gro.stats().flush_max_segs, 1u);
  EXPECT_EQ(gro.stats().superpackets, 1u);
  EXPECT_EQ(gro.held(), 0u);
}

TEST(GroEngineTest, SameFlowBypasserIsOrderBarrier) {
  GroEngine gro(GroConfig{.enabled = true});
  std::vector<net::Packet> out;
  gro.fold(tcp_seg(0, 1, 0), out);
  gro.fold(tcp_seg(0, 1 + kSegPayload, 1), out);
  ASSERT_TRUE(out.empty());
  // A SYN of the same flow cannot coalesce — and must not overtake the held
  // run: the run flushes first, then the SYN is emitted.
  net::Packet syn = tcp_seg(0, 9000, 7, 128, 64, /*flags=*/0x02);
  const std::string syn_bytes = bytes_of(syn);
  gro.fold(std::move(syn), out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].gro_segs.size(), 2u);  // the flushed run, in front
  EXPECT_EQ(bytes_of(out[1]), syn_bytes);
  EXPECT_EQ(gro.stats().flush_mismatch, 1u);
  EXPECT_EQ(gro.stats().bypassed, 1u);
}

TEST(GroEngineTest, FragmentsAndNonTcpBypass) {
  GroEngine gro(GroConfig{.enabled = true});
  std::vector<net::Packet> out;
  gro.fold(tcp_seg(0, 1, 0), out);
  ASSERT_TRUE(out.empty());

  // An offset fragment has no L4 header: no flow key, no barrier — it passes
  // straight through and the held run stays.
  net::Packet off_frag = tcp_seg(0, 1 + kSegPayload, 1);
  {
    net::Ipv4View ip(off_frag.data() + net::kEthHdrLen);
    ip.set_frag_field(10);  // offset 10, no MF
    ip.update_checksum();
  }
  gro.fold(std::move(off_frag), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(gro.held(), 1u);
  EXPECT_EQ(gro.stats().bypassed, 1u);
  out.clear();

  // A first fragment (MF, offset 0) has the L4 header, so it forms a key and
  // acts as an order barrier for its flow — but never coalesces.
  net::Packet first_frag = tcp_seg(0, 1 + kSegPayload, 2);
  {
    net::Ipv4View ip(first_frag.data() + net::kEthHdrLen);
    ip.set_frag_field(0x2000);  // MF set, offset 0
    ip.update_checksum();
  }
  gro.fold(std::move(first_frag), out);
  ASSERT_EQ(out.size(), 2u);  // flushed run first, then the fragment
  EXPECT_EQ(gro.held(), 0u);
  EXPECT_EQ(gro.stats().flush_mismatch, 1u);

  // Plain UDP bypasses unless GroConfig::udp opts in.
  out.clear();
  gro.fold(udp_pkt(0), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(gro.held(), 0u);
}

TEST(GroEngineTest, UdpFoldingIsOptIn) {
  GroEngine gro(GroConfig{.enabled = true, .udp = true});
  std::vector<net::Packet> out;
  std::vector<std::string> originals;
  for (int k = 0; k < 3; ++k) {
    net::Packet p = udp_pkt(0);
    net::Ipv4View ip(p.data() + net::kEthHdrLen);
    ip.set_id(static_cast<std::uint16_t>(k));  // distinct per-seg ip ids
    ip.update_checksum();
    originals.push_back(bytes_of(p));
    gro.fold(std::move(p), out);
  }
  EXPECT_TRUE(out.empty());
  gro.flush_all(out);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].gro_segs.size(), 3u);
  net::UdpView udp(out[0].data() + net::kEthHdrLen + net::kIpv4HdrLen);
  EXPECT_EQ(udp.length(), out[0].size() - net::kEthHdrLen - net::kIpv4HdrLen);
  std::vector<net::Packet> segs = net::gso_segment(out[0]);
  ASSERT_EQ(segs.size(), 3u);
  for (std::size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(bytes_of(segs[i]), originals[i]) << "datagram " << i;
  }
}

TEST(GroEngineTest, CapacityEvictsOldestRun) {
  GroEngine gro(GroConfig{.enabled = true});
  std::vector<net::Packet> out;
  for (std::uint16_t flow = 0; flow < 9; ++flow) {
    gro.fold(tcp_seg(flow, 1, flow), out);
  }
  // The 9th distinct flow evicted flow 0's run (kMaxHeld = 8).
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(gro.held(), 8u);
  EXPECT_EQ(gro.stats().flush_capacity, 1u);
  net::TcpView tcp(out[0].data() + net::kEthHdrLen + net::kIpv4HdrLen);
  EXPECT_EQ(tcp.src_port(), 5000u);  // flow 0 went first
}

// The engine keeps one GRO list per rx queue and flushes it every
// napi_budget folds of that queue (napi_gro_flush at the end of a saturated
// poll). A held run is released exactly at its own queue's window end, and
// no amount of traffic on another queue releases it.
TEST(GroEngineTest, HeldRunReleasedAtItsQueuesPollWindow) {
  sim::ScenarioConfig cfg;
  cfg.prefixes = 4;
  cfg.accel = sim::Accel::kNone;  // every packet folds on the slow path
  sim::LinuxTestbed bed(cfg);
  // Written by the slow thread in eth1's transmit callback. Declared before
  // the engine so they outlive the drain in its destructor.
  std::atomic<std::uint64_t> q0_out{0}, q1_out{0}, tcp_out{0};
  std::string q0_order;  // 'u' / 't' per queue-0 frame; read after stop()

  EngineConfig ecfg;
  ecfg.queues = 2;
  ecfg.backpressure = true;
  ecfg.gro.enabled = true;
  Engine eng(bed.kernel(), bed.ingress_ifindex(), ecfg);
  const unsigned window = ecfg.napi_budget;

  // A TCP flow and a UDP flow that RSS steers to queue 0, a UDP flow on 1.
  auto first_flow_on = [&eng](unsigned q, const auto& make) {
    std::uint16_t flow = 0;
    while (eng.rss().queue_for(make(flow)) != q) ++flow;
    return flow;
  };
  constexpr std::uint32_t kPayload = 512 - 54;
  auto tcp = [&bed](std::uint16_t flow, std::uint32_t k = 0) {
    return bed.forward_tcp_segment(0, flow, 512, 1 + k * kPayload,
                                   static_cast<std::uint16_t>(k));
  };
  auto udp = [&bed](std::uint16_t flow) {
    return bed.forward_packet(1, flow, 64);
  };
  const std::uint16_t tcp0 = first_flow_on(0, tcp);
  const std::uint16_t udp0 = first_flow_on(0, udp);
  const std::uint16_t udp1 = first_flow_on(1, udp);

  bed.kernel().dev_by_name("eth1")->set_phys_tx([&, udp0](net::Packet&& p) {
    const std::uint8_t* b = p.data();
    if (b[net::kEthHdrLen + 9] == net::kIpProtoTcp) {
      q0_order += 't';
      tcp_out.fetch_add(1);
    } else if (net::load_be16(b + net::kEthHdrLen + net::kIpv4HdrLen) ==
               1024 + udp0) {
      q0_order += 'u';
      q0_out.fetch_add(1);
    } else {
      q1_out.fetch_add(1);
    }
  });
  auto wait_for = [](const std::atomic<std::uint64_t>& n, std::uint64_t want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (n.load() < want && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    return n.load() >= want;
  };

  eng.start();
  // Queue 0, folds 1-4: a 3-segment run, then a UDP marker. The marker
  // leaving eth1 proves the run was folded ahead of it.
  for (std::uint32_t k = 0; k < 3; ++k) eng.inject(tcp(tcp0, k));
  eng.inject(udp(udp0));
  ASSERT_TRUE(wait_for(q0_out, 1));
  // Queue 1 closes three windows of its own; queue 0's run stays held.
  for (unsigned i = 0; i < 3 * window; ++i) eng.inject(udp(udp1));
  ASSERT_TRUE(wait_for(q1_out, 3 * window));
  EXPECT_EQ(tcp_out.load(), 0u);
  // Queue 0, folds 5-64 end its window; ten more folds follow it.
  for (unsigned i = 0; i < window - 4 + 10; ++i) eng.inject(udp(udp0));
  eng.stop();

  // The run leaves right after the window's last packet, ahead of the rest.
  EXPECT_EQ(q0_order,
            std::string(window - 3, 'u') + "ttt" + std::string(10, 'u'));
  const GroStats gs = eng.gro_stats();
  EXPECT_EQ(gs.folds, 3 + 1 + 3 * window + window - 4 + 10);
  EXPECT_EQ(gs.coalesced, 2u);
  EXPECT_EQ(gs.superpackets, 1u);
  EXPECT_EQ(gs.flush_poll, 1u);
  EXPECT_EQ(bed.kernel().metrics().value("engine.gro.flush_poll"), 1u);
}

// The property at the heart of satellite 2: for an arbitrary interleaving of
// in-order TCP streams (with bypassing UDP sprinkled in), folding +
// resegmentation is byte-identical to no GRO at all, and per-flow order is
// preserved.
TEST(GroEngineTest, RandomInterleavingIsByteIdenticalAfterResegmentation) {
  constexpr int kFlows = 6;
  constexpr int kSegsPerFlow = 40;
  GroEngine gro(GroConfig{.enabled = true, .max_segs = 5});

  // Deterministic LCG interleaving: each step advances one random flow's
  // stream by one in-order segment.
  std::uint64_t rng = 0x5eed;
  auto next = [&rng](std::uint64_t bound) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return (rng >> 33) % bound;
  };

  std::map<std::uint16_t, std::vector<std::string>> in_by_flow;
  std::vector<net::Packet> out;
  int sent[kFlows] = {};
  int total = 0;
  int steps = 0;
  while (total < kFlows * kSegsPerFlow) {
    auto flow = static_cast<std::uint16_t>(next(kFlows));
    if (sent[flow] >= kSegsPerFlow) continue;
    if (++steps % 11 == 0) {
      // A bypasser mid-stream: flushes its flow's held run (order barrier)
      // but must not corrupt any byte.
      net::Packet u = udp_pkt(flow);
      in_by_flow[static_cast<std::uint16_t>(1000 + flow)].push_back(
          bytes_of(u));
      gro.fold(std::move(u), out);
      continue;
    }
    const auto k = static_cast<std::uint32_t>(sent[flow]++);
    ++total;
    net::Packet seg = tcp_seg(flow, 1 + k * kSegPayload,
                              static_cast<std::uint16_t>(k));
    in_by_flow[flow].push_back(bytes_of(seg));
    gro.fold(std::move(seg), out);
  }
  gro.flush_all(out);
  EXPECT_GT(gro.stats().superpackets, 0u);
  EXPECT_GT(gro.stats().coalesced, 0u);

  std::vector<net::Packet> wire = expand(std::move(out));
  std::map<std::uint16_t, std::vector<std::string>> out_by_flow;
  for (const net::Packet& p : wire) {
    const std::uint8_t* b = p.data();
    net::Ipv4View ip(const_cast<std::uint8_t*>(b) + net::kEthHdrLen);
    const std::uint16_t sport =
        net::load_be16(b + net::kEthHdrLen + net::kIpv4HdrLen);
    const bool tcp = ip.protocol() == net::kIpProtoTcp;
    const auto flow = static_cast<std::uint16_t>(
        tcp ? sport - 5000 : 1000 + (sport - 5000));
    out_by_flow[flow].push_back(bytes_of(p));
  }
  EXPECT_EQ(out_by_flow, in_by_flow);
}

// --- TxEngine unit tests ----------------------------------------------------

TEST(TxEngineTest, DoorbellCoalescingChargesOncePerBurst) {
  RouterDut dut;
  RssClassifier rss(1);
  TxEngine tx(dut.kernel, rss, TxConfig{.burst = 4, .ring_depth = 64}, 1);
  dut.kernel.set_tx_batcher(&tx);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tx.try_push(0, TxDesc{dut.eth1_ifindex(),
                                      dut.packet_to_prefix(0, 0)}));
  }
  // Drain rounds pop at most `burst` descriptors: 4 + 4 + 2.
  EXPECT_EQ(tx.drain(0), 4u);
  EXPECT_EQ(tx.drain(0), 4u);
  EXPECT_EQ(tx.drain(0), 2u);
  EXPECT_EQ(tx.drain(0), 0u);

  // One descriptor write per packet; the doorbell rings only at the burst
  // watermark (x2). The short tail waits for the shutdown flush, whose
  // doorbell is charged to flush_cycles(), not to a queue.
  EXPECT_EQ(tx.descriptors(), 10u);
  EXPECT_EQ(tx.doorbells(), 2u);
  EXPECT_EQ(tx.flush_cycles(), 0u);
  tx.flush_doorbells();
  EXPECT_EQ(tx.doorbells(), 3u);
  EXPECT_EQ(tx.flush_cycles(), dut.kernel.cost().tx_doorbell);
  tx.flush_doorbells();  // nothing pending: no further doorbell
  EXPECT_EQ(tx.doorbells(), 3u);
  const TxQueueStats& st = tx.queue_stats(0);
  EXPECT_EQ(st.transmitted, 10u);
  EXPECT_EQ(st.tx_bytes, 10u * 64u);
  EXPECT_EQ(st.bursts, 3u);
  EXPECT_EQ(st.full_bursts, 2u);
  EXPECT_EQ(st.bad_redirect, 0u);
  EXPECT_GT(st.cycles, 0u);
  // DevStats credited by dev_xmit, frames delivered to the device.
  EXPECT_EQ(dut.kernel.dev_by_name("eth1")->stats().tx_packets, 10u);
  EXPECT_EQ(dut.tx_eth1.size(), 10u);
  dut.kernel.set_tx_batcher(nullptr);
}

TEST(TxEngineTest, BurstOfOneRingsEveryPacket) {
  RouterDut dut;
  RssClassifier rss(1);
  TxEngine tx(dut.kernel, rss, TxConfig{.burst = 1, .ring_depth = 64}, 1);
  dut.kernel.set_tx_batcher(&tx);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tx.try_push(0, TxDesc{dut.eth1_ifindex(),
                                      dut.packet_to_prefix(0, 0)}));
  }
  while (tx.drain(0) > 0) {
  }
  EXPECT_EQ(tx.descriptors(), 10u);
  EXPECT_EQ(tx.doorbells(), 10u);  // the pre-xmit_more driver
  dut.kernel.set_tx_batcher(nullptr);
}

TEST(TxEngineTest, GhostIfindexCountsNoDeviceWithTraceRecord) {
  RouterDut dut;
  util::TraceRing ring(8);
  dut.kernel.set_trace_ring(&ring);
  RssClassifier rss(1);
  TxEngine tx(dut.kernel, rss, TxConfig{.burst = 4, .ring_depth = 64}, 1);
  dut.kernel.set_tx_batcher(&tx);

  ASSERT_TRUE(tx.try_push(0, TxDesc{777, dut.packet_to_prefix(0, 0)}));
  EXPECT_EQ(tx.drain(0), 1u);

  EXPECT_EQ(tx.queue_stats(0).bad_redirect, 1u);
  EXPECT_EQ(tx.queue_stats(0).transmitted, 0u);
  auto it = dut.kernel.counters().drops.find(kern::Drop::kNoDevice);
  ASSERT_NE(it, dut.kernel.counters().drops.end());
  EXPECT_EQ(it->second, 1u);
  EXPECT_EQ(dut.kernel.metrics().value("drop.no_device"), 1u);

  // Never silent: the TX drain opened a pwru-style record whose verdict is
  // the drop reason.
  ASSERT_EQ(ring.size(), 1u);
  const util::PacketTrace& t = ring.latest();
  EXPECT_EQ(t.verdict, "no_device");
  EXPECT_TRUE(t.fast_path);
  bool saw_dequeue = false, saw_verdict = false;
  for (const auto& ev : t.events) {
    if (std::strcmp(ev.layer, "tx") == 0 &&
        std::strcmp(ev.stage, "ring_dequeue") == 0) {
      saw_dequeue = true;
    }
    if (std::strcmp(ev.layer, "verdict") == 0 &&
        std::strcmp(ev.stage, "no_device") == 0) {
      saw_verdict = true;
    }
  }
  EXPECT_TRUE(saw_dequeue);
  EXPECT_TRUE(saw_verdict);
  dut.kernel.set_tx_batcher(nullptr);
  dut.kernel.set_trace_ring(nullptr);
}

// --- DevStats symmetry (ISSUE 9 satellite 1) --------------------------------

TEST(TxDevStatsTest, FastAndSlowPathEgressAccountIdentically) {
  struct RunOut {
    std::uint64_t tx_packets = 0;
    std::uint64_t tx_bytes = 0;
    std::vector<std::string> frames;
  };
  auto run = [](sim::Accel accel) {
    sim::ScenarioConfig cfg;
    cfg.prefixes = 8;
    cfg.accel = accel;
    sim::LinuxTestbed bed(cfg);
    RunOut out;
    bed.kernel().dev_by_name("eth1")->set_phys_tx(
        [&out](net::Packet&& p) { out.frames.push_back(bytes_of(p)); });
    EngineConfig ecfg;
    ecfg.queues = 4;
    ecfg.backpressure = true;
    Engine eng(bed.kernel(), bed.ingress_ifindex(), ecfg);
    eng.start();
    for (std::uint64_t i = 0; i < 1200; ++i) {
      eng.inject(bed.forward_packet(static_cast<int>(i % 8),
                                    static_cast<std::uint16_t>(i % 32), 96));
    }
    eng.stop();
    const kern::DevStats& st = bed.kernel().dev_by_name("eth1")->stats();
    out.tx_packets = st.tx_packets;
    out.tx_bytes = st.tx_bytes;
    return out;
  };

  RunOut fast = run(sim::Accel::kLinuxFpXdp);  // egress via the TX rings
  RunOut slow = run(sim::Accel::kNone);        // egress inline on slow path
  EXPECT_EQ(fast.tx_packets, 1200u);
  EXPECT_EQ(fast.tx_packets, slow.tx_packets);
  EXPECT_EQ(fast.tx_bytes, slow.tx_bytes);
  EXPECT_EQ(fast.tx_bytes, 1200u * 96u);
  // Same frames on the wire too (cross-flow order may differ across runs).
  std::sort(fast.frames.begin(), fast.frames.end());
  std::sort(slow.frames.begin(), slow.frames.end());
  EXPECT_EQ(fast.frames, slow.frames);
}

// --- Redirect audit through the full engine (ISSUE 9 satellite 6) -----------

// Builds and attaches an XDP program that redirects every packet to
// `target_ifindex`. Returns the attachment (must outlive the engine run).
std::unique_ptr<ebpf::Attachment> attach_redirect_all(
    RouterDut& dut, ebpf::HelperRegistry& helpers, int target_ifindex) {
  auto att = std::make_unique<ebpf::Attachment>("redir", ebpf::HookType::kXdp,
                                                dut.kernel, helpers);
  ebpf::ProgramBuilder b("redir_all", ebpf::HookType::kXdp);
  b.mov(ebpf::kR1, target_ifindex);
  b.call(ebpf::kHelperRedirect);
  b.exit();  // r0 = kActRedirect from the helper
  auto id = att->load(b.build().value());
  EXPECT_TRUE(id.ok()) << (id.ok() ? "" : id.error().message);
  EXPECT_TRUE(att->set_entry(id.value()).ok());
  EXPECT_TRUE(
      ebpf::attach_to_device(dut.kernel, "eth0", ebpf::HookType::kXdp,
                             att.get())
          .ok());
  return att;
}

TEST(TxRedirectTest, RedirectToAttachmentlessDeviceReachesTxRing) {
  RouterDut dut;
  ebpf::HelperRegistry helpers;
  ebpf::register_all_helpers(helpers, dut.kernel.cost());
  // eth1 has no XDP attachment of its own — the redirect must still land.
  auto att = attach_redirect_all(dut, helpers, dut.eth1_ifindex());

  EngineConfig cfg;
  cfg.queues = 2;
  cfg.backpressure = true;
  Engine eng(dut.kernel, dut.eth0_ifindex(), cfg);
  eng.start();
  constexpr std::uint64_t kPackets = 300;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    eng.inject(dut.packet_to_prefix(static_cast<int>(i % 4),
                                    static_cast<std::uint16_t>(i % 64)));
  }
  eng.stop();

  std::uint64_t redirects = 0, tx_enq = 0;
  for (unsigned q = 0; q < cfg.queues; ++q) {
    redirects += eng.queue_stats(q).xdp_redirect;
    tx_enq += eng.queue_stats(q).tx_enqueued;
  }
  EXPECT_EQ(redirects, kPackets);
  EXPECT_EQ(tx_enq, kPackets);
  std::uint64_t transmitted = 0, bad = 0;
  for (unsigned q = 0; q < cfg.queues; ++q) {
    transmitted += eng.tx().queue_stats(q).transmitted;
    bad += eng.tx().queue_stats(q).bad_redirect;
  }
  EXPECT_EQ(transmitted, kPackets);
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(dut.tx_eth1.size(), kPackets);
  EXPECT_EQ(dut.kernel.dev_by_name("eth1")->stats().tx_packets, kPackets);
  EXPECT_EQ(dut.kernel.metrics().value("engine.tx.transmitted"), kPackets);
}

TEST(TxRedirectTest, RedirectToGhostIfindexIsAuditedNeverSilent) {
  RouterDut dut;
  util::TraceRing ring(4);
  dut.kernel.set_trace_ring(&ring);
  ebpf::HelperRegistry helpers;
  ebpf::register_all_helpers(helpers, dut.kernel.cost());
  auto att = attach_redirect_all(dut, helpers, /*target_ifindex=*/999);

  EngineConfig cfg;
  cfg.queues = 2;
  cfg.backpressure = true;
  Engine eng(dut.kernel, dut.eth0_ifindex(), cfg);
  eng.start();
  constexpr std::uint64_t kPackets = 64;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    eng.inject(dut.packet_to_prefix(static_cast<int>(i % 4),
                                    static_cast<std::uint16_t>(i % 16)));
  }
  eng.stop();

  auto it = dut.kernel.counters().drops.find(kern::Drop::kNoDevice);
  ASSERT_NE(it, dut.kernel.counters().drops.end());
  EXPECT_EQ(it->second, kPackets);
  EXPECT_EQ(dut.kernel.metrics().value("drop.no_device"), kPackets);
  std::uint64_t bad = 0;
  for (unsigned q = 0; q < cfg.queues; ++q) {
    bad += eng.tx().queue_stats(q).bad_redirect;
  }
  EXPECT_EQ(bad, kPackets);
  EXPECT_EQ(dut.kernel.metrics().value("engine.tx.bad_redirect"), kPackets);
  EXPECT_EQ(dut.tx_eth1.size(), 0u);
  // Every drained descriptor left a trace record; the surviving ones name
  // the drop.
  EXPECT_EQ(ring.packets_traced(), kPackets);
  ASSERT_GT(ring.size(), 0u);
  EXPECT_EQ(ring.latest().verdict, "no_device");
  dut.kernel.set_trace_ring(nullptr);
}

// --- Observability: status document, Prometheus, packet traces --------------

TEST(TxGroObservabilityTest, StatusJsonExposesTxAndGroSections) {
  sim::ScenarioConfig cfg;
  cfg.prefixes = 4;
  cfg.accel = sim::Accel::kLinuxFpXdp;
  sim::LinuxTestbed bed(cfg);

  EngineConfig ecfg;
  ecfg.queues = 2;
  ecfg.backpressure = true;
  ecfg.gro.enabled = true;
  ecfg.tx.burst = 8;
  Engine eng(bed.kernel(), bed.ingress_ifindex(), ecfg);
  eng.start();
  // Routable UDP exercises the fast path + TX rings; unroutable TCP punts to
  // the slow path where GRO sees it.
  constexpr std::uint32_t kTcpPayload = 128 - 54;
  for (std::uint64_t i = 0; i < 400; ++i) {
    eng.inject(bed.forward_packet(static_cast<int>(i % 4),
                                  static_cast<std::uint16_t>(i % 32), 64));
  }
  net::FlowKey punt;
  punt.src_ip = net::Ipv4Addr::parse("10.10.1.2").value();
  punt.dst_ip = net::Ipv4Addr::parse("10.250.0.9").value();
  punt.proto = net::kIpProtoTcp;
  punt.src_port = 2000;
  punt.dst_port = 80;
  for (std::uint32_t k = 0; k < 64; ++k) {
    net::Packet seg = net::build_tcp_packet(
        net::MacAddr::from_id(0x501), bed.kernel().dev_by_name("eth0")->mac(),
        punt, 0x18, 128);
    net::Ipv4View ip(seg.data() + net::kEthHdrLen);
    ip.set_id(static_cast<std::uint16_t>(k));
    ip.update_checksum();
    net::TcpView tcp(seg.data() + net::kEthHdrLen + net::kIpv4HdrLen);
    tcp.set_seq(1 + k * kTcpPayload);
    eng.inject(std::move(seg));
  }
  eng.stop();

  util::Json status = core::status_json(*bed.controller());
  ASSERT_TRUE(status.object_items().contains("engine"));
  const util::Json& engine = status.at("engine");
  ASSERT_TRUE(engine.object_items().contains("tx"));
  const util::Json& tx = engine.at("tx");
  EXPECT_GE(tx.at("descriptors").as_int(), 400);
  EXPECT_GT(tx.at("transmitted").as_int(), 0);
  EXPECT_GT(tx.at("doorbells").as_int(), 0);
  // Batched: strictly fewer doorbells than descriptors at burst 8.
  EXPECT_LT(tx.at("doorbells").as_int(), tx.at("descriptors").as_int());
  EXPECT_EQ(tx.at("bad_redirect").as_int(), 0);

  ASSERT_TRUE(engine.object_items().contains("gro"));
  const util::Json& gro = engine.at("gro");
  EXPECT_EQ(gro.at("folds").as_int(), 64);
  EXPECT_GE(gro.at("superpackets").as_int(), 0);

  std::string prom = core::prometheus_status(*bed.controller());
  EXPECT_NE(prom.find("engine_tx_descriptors"), std::string::npos);
  EXPECT_NE(prom.find("engine_tx_doorbells"), std::string::npos);
  EXPECT_NE(prom.find("engine_gro_folds"), std::string::npos);
}

TEST(TxGroObservabilityTest, SuperpacketTraceShowsGroAndResegmentation) {
  sim::ScenarioConfig cfg;
  cfg.prefixes = 4;
  cfg.accel = sim::Accel::kNone;
  sim::LinuxTestbed bed(cfg);
  bed.enable_tracing(8);

  // Coalesce four routed segments off-line, then hand the super-packet to
  // the engine entry point the slow thread uses — fully deterministic.
  GroEngine gro(GroConfig{.enabled = true});
  std::vector<net::Packet> out;
  constexpr std::uint32_t kPayload = 512 - 54;
  for (std::uint32_t k = 0; k < 4; ++k) {
    gro.fold(bed.forward_tcp_segment(0, 0, 512, 1 + k * kPayload,
                                     static_cast<std::uint16_t>(k)),
             out);
  }
  gro.flush_all(out);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].gro_segs.size(), 4u);

  const std::uint64_t fwd_before = bed.kernel().counters().forwarded;
  kern::CycleTrace trace;
  kern::RxSummary sum = bed.kernel().netif_receive_skb(
      bed.ingress_ifindex(), std::move(out[0]), trace);
  EXPECT_EQ(sum.drop, kern::Drop::kNone);
  // Segment-aware counters and DevStats: one super counts as four wire
  // packets everywhere.
  EXPECT_EQ(bed.kernel().counters().forwarded - fwd_before, 4u);
  const kern::DevStats& st = bed.kernel().dev_by_name("eth1")->stats();
  EXPECT_EQ(st.tx_packets, 4u);
  EXPECT_EQ(st.tx_bytes, 4u * 512u);

  ASSERT_FALSE(bed.trace_ring()->empty());
  const util::PacketTrace& t = bed.trace_ring()->latest();
  bool saw_super = false, saw_reseg = false;
  for (const auto& ev : t.events) {
    if (std::strcmp(ev.layer, "gro") != 0) continue;
    if (std::strcmp(ev.stage, "superpacket") == 0) saw_super = true;
    if (std::strcmp(ev.stage, "gso_segment") == 0) saw_reseg = true;
  }
  EXPECT_TRUE(saw_super);
  EXPECT_TRUE(saw_reseg);
  EXPECT_EQ(t.verdict, "ok");
}

// --- Closed-loop equivalence (ISSUE 9 satellite 3) --------------------------

// Everything about a forwarding run that batching/GRO must not change.
// Cycle budgets and doorbell counts legitimately differ and are excluded.
struct FwdCounters {
  std::uint64_t processed = 0;
  std::uint64_t tail_drops = 0;
  std::uint64_t xdp_drop = 0;
  std::uint64_t xdp_tx = 0;
  std::uint64_t xdp_redirect = 0;
  std::uint64_t xdp_pass = 0;
  std::uint64_t to_userspace = 0;
  std::uint64_t aborted = 0;
  std::uint64_t tx_enqueued = 0;
  std::uint64_t tx_drops = 0;
  std::uint64_t slow_processed = 0;
  std::uint64_t kc_forwarded = 0;
  std::uint64_t kc_fast_path = 0;
  std::uint64_t kc_slow_path = 0;
  std::map<kern::Drop, std::uint64_t> kc_drops;
  std::uint64_t tx_transmitted = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t bad_redirect = 0;
  std::uint64_t descriptors = 0;
  std::uint64_t eth1_tx_packets = 0;
  std::uint64_t eth1_tx_bytes = 0;

  bool operator==(const FwdCounters&) const = default;
};

// Byte streams that left eth1, keyed by 5-tuple and in per-flow order.
using FlowSigs = std::map<std::string, std::vector<std::string>>;

struct FwdRun {
  FwdCounters c;
  FlowSigs sigs;
};

FwdRun run_forwarding(sim::Accel accel, unsigned queues, unsigned burst,
                      bool gro,
                      const std::function<net::Packet(sim::LinuxTestbed&,
                                                      std::uint64_t)>& factory,
                      std::uint64_t packets) {
  sim::ScenarioConfig cfg;
  cfg.prefixes = 8;
  cfg.accel = accel;
  sim::LinuxTestbed bed(cfg);

  FwdRun run;
  bed.kernel().dev_by_name("eth1")->set_phys_tx([&run](net::Packet&& p) {
    const std::uint8_t* b = p.data();
    std::string key(reinterpret_cast<const char*>(b + net::kEthHdrLen + 9),
                    1);  // proto
    key.append(reinterpret_cast<const char*>(b + net::kEthHdrLen + 12), 8);
    key.append(reinterpret_cast<const char*>(b + 34), 4);  // L4 ports
    run.sigs[key].push_back(bytes_of(p));
  });

  EngineConfig ecfg;
  ecfg.queues = queues;
  ecfg.backpressure = true;
  ecfg.tx.burst = burst;
  ecfg.gro.enabled = gro;
  Engine eng(bed.kernel(), bed.ingress_ifindex(), ecfg);
  eng.start();
  for (std::uint64_t i = 0; i < packets; ++i) eng.inject(factory(bed, i));
  eng.stop();

  FwdCounters& c = run.c;
  c.processed = eng.total_processed();
  c.tail_drops = eng.total_tail_drops();
  for (unsigned q = 0; q < queues; ++q) {
    const QueueStats& st = eng.queue_stats(q);
    c.xdp_drop += st.xdp_drop;
    c.xdp_tx += st.xdp_tx;
    c.xdp_redirect += st.xdp_redirect;
    c.xdp_pass += st.xdp_pass;
    c.to_userspace += st.to_userspace;
    c.aborted += st.aborted;
    c.tx_enqueued += st.tx_enqueued;
    c.tx_drops += st.tx_drops;
  }
  c.slow_processed = eng.slow_stats().processed;
  const kern::KernelCounters& kc = bed.kernel().counters();
  c.kc_forwarded = kc.forwarded;
  c.kc_fast_path = kc.fast_path_packets;
  c.kc_slow_path = kc.slow_path_packets;
  c.kc_drops = kc.drops;
  for (unsigned q = 0; q < queues; ++q) {
    const TxQueueStats& ts = eng.tx().queue_stats(q);
    c.tx_transmitted += ts.transmitted;
    c.tx_bytes += ts.tx_bytes;
    c.bad_redirect += ts.bad_redirect;
  }
  c.descriptors = eng.tx().descriptors();
  const kern::DevStats& st = bed.kernel().dev_by_name("eth1")->stats();
  c.eth1_tx_packets = st.tx_packets;
  c.eth1_tx_bytes = st.tx_bytes;
  return run;
}

TEST(TxGroEquivalence, BatchingIsInvisibleOnTheXdpRouter) {
  // The router mix from the engine equivalence suite: every 5th packet is
  // unroutable (XDP punt -> slow-path drop), the rest forward on the fast
  // path through the TX rings.
  auto factory = [](sim::LinuxTestbed& bed, std::uint64_t i) {
    if (i % 5 == 4) {
      net::FlowKey f;
      f.src_ip = net::Ipv4Addr::parse("10.10.1.2").value();
      f.dst_ip = net::Ipv4Addr::parse("10.250.0.9").value();
      f.proto = net::kIpProtoUdp;
      f.src_port = static_cast<std::uint16_t>(2000 + i % 32);
      f.dst_port = 7;
      return net::build_udp_packet(net::MacAddr::from_id(0x501),
                                   bed.kernel().dev_by_name("eth0")->mac(), f,
                                   64);
    }
    return bed.forward_packet(static_cast<int>(i % 8),
                              static_cast<std::uint16_t>(i % 64), 64);
  };
  constexpr std::uint64_t kPackets = 3000;
  for (unsigned queues : {1u, 8u}) {
    FwdRun base = run_forwarding(sim::Accel::kLinuxFpXdp, queues,
                                 /*burst=*/1, /*gro=*/false, factory,
                                 kPackets);
    FwdRun batched = run_forwarding(sim::Accel::kLinuxFpXdp, queues,
                                    /*burst=*/64, /*gro=*/true, factory,
                                    kPackets);
    // The baseline itself drove both paths and the TX rings.
    EXPECT_EQ(base.c.processed, kPackets);
    EXPECT_GT(base.c.tx_transmitted, 0u);
    EXPECT_EQ(base.c.tx_transmitted, base.c.xdp_tx + base.c.xdp_redirect);
    EXPECT_EQ(base.c, batched.c) << "queues=" << queues;
    EXPECT_EQ(base.sigs, batched.sigs) << "queues=" << queues;
  }
}

TEST(TxGroEquivalence, GroIsInvisibleOnTheSlowPathForwarder) {
  // Six in-order TCP streams with UDP sprinkled in, all through the plain
  // Linux stack (every packet takes the slow path, the shape GRO folds).
  constexpr std::uint32_t kPayload = 256 - 54;
  auto factory = [](sim::LinuxTestbed& bed, std::uint64_t i) {
    if (i % 7 == 6) {
      return bed.forward_packet(static_cast<int>(i % 8),
                                static_cast<std::uint16_t>(i % 16), 64);
    }
    const auto flow = static_cast<std::uint16_t>(i % 6);
    const auto k = static_cast<std::uint32_t>(i / 6);
    return bed.forward_tcp_segment(flow % 4, flow, 256, 1 + k * kPayload,
                                   static_cast<std::uint16_t>(k));
  };
  constexpr std::uint64_t kPackets = 2400;
  for (unsigned queues : {1u, 8u}) {
    FwdRun off = run_forwarding(sim::Accel::kNone, queues, /*burst=*/1,
                                /*gro=*/false, factory, kPackets);
    FwdRun on = run_forwarding(sim::Accel::kNone, queues, /*burst=*/64,
                               /*gro=*/true, factory, kPackets);
    EXPECT_EQ(off.c.processed, kPackets);
    EXPECT_EQ(off.c.slow_processed, kPackets);
    EXPECT_EQ(off.c.eth1_tx_packets, kPackets);  // everything routable
    EXPECT_EQ(off.c, on.c) << "queues=" << queues;
    EXPECT_EQ(off.sigs, on.sigs) << "queues=" << queues;
  }
}

// --- Guard expectations through GRO ------------------------------------------

// A canary longer than the traffic shadows every packet, and each shadowed
// packet must come back compared (or skipped) on every driver. A
// super-packet carries one guard cookie, so a shadowed segment must bypass
// GRO; folded, the other segments' expectations would vanish uncounted.
TEST(GroGuard, EveryShadowedSegmentIsComparedOnEveryDriver) {
  constexpr std::uint16_t kFlows = 4;
  constexpr std::uint32_t kSegs = 64;
  constexpr std::size_t kFrame = 512;
  constexpr std::uint32_t kPayload = kFrame - 54;
  constexpr std::uint64_t kPackets = kFlows * kSegs;
  enum class Driver { kInline, kEngine, kEngineGro };
  for (Driver driver : {Driver::kInline, Driver::kEngine, Driver::kEngineGro}) {
    SCOPED_TRACE(driver == Driver::kInline   ? "inline"
                 : driver == Driver::kEngine ? "engine, GRO off"
                                             : "engine, GRO on");
    sim::ScenarioConfig cfg;
    cfg.prefixes = 4;
    cfg.accel = sim::Accel::kLinuxFpXdp;
    cfg.guard.enabled = true;
    cfg.guard.canary_packets = 1000;
    sim::LinuxTestbed bed(cfg);
    // Written by the slow thread on the engine; read after stop().
    std::atomic<std::uint64_t> eth1_out{0};
    bed.kernel().dev_by_name("eth1")->set_phys_tx(
        [&eth1_out](net::Packet&&) { eth1_out.fetch_add(1); });
    // Four in-sequence TCP flows, interleaved segment by segment.
    auto segment = [&bed](std::uint64_t i) {
      const auto k = static_cast<std::uint32_t>(i / kFlows);
      return bed.forward_tcp_segment(0, static_cast<std::uint16_t>(i % kFlows),
                                     kFrame, 1 + k * kPayload,
                                     static_cast<std::uint16_t>(k));
    };
    if (driver == Driver::kInline) {
      for (std::uint64_t i = 0; i < kPackets; ++i) bed.process(segment(i));
    } else {
      EngineConfig ecfg;
      ecfg.backpressure = true;
      ecfg.gro.enabled = driver == Driver::kEngineGro;
      Engine eng(bed.kernel(), bed.ingress_ifindex(), ecfg);
      eng.start();
      for (std::uint64_t i = 0; i < kPackets; ++i) eng.inject(segment(i));
      eng.stop();
    }

    const core::GuardUnit* unit =
        bed.controller()->guard()->unit("eth0", ebpf::HookType::kXdp);
    ASSERT_NE(unit, nullptr);
    const core::GuardUnitStats s = unit->stats();
    EXPECT_EQ(unit->mode(), core::GuardMode::kShadow);
    EXPECT_EQ(s.shadow_runs, kPackets);
    EXPECT_EQ(s.compares + s.skipped, s.shadow_runs);
    EXPECT_EQ(s.stale, 0u);
    EXPECT_EQ(s.divergences, 0u);
    EXPECT_EQ(eth1_out.load(), kPackets);
  }
}

}  // namespace
}  // namespace linuxfp::engine
