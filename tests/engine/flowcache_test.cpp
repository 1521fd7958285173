// Microflow verdict cache unit tests (DESIGN.md §12): exact-match keying,
// per-subsystem generation invalidation filtered by the dependency mask,
// epoch flushes, uncacheable rules, conntrack replay-validation, FDB refresh
// replay, set-associativity, and the per-CPU concurrency contract (the
// FlowCacheConcurrency suite runs under TSan via tools/ci.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/controller.h"
#include "ebpf/loader.h"
#include "engine/engine.h"
#include "engine/flowcache.h"
#include "engine/rss.h"
#include "kernel/commands.h"
#include "kernel/kernel.h"
#include "net/headers.h"
#include "sim/testbed.h"
#include "tests/kernel/test_topo.h"
#include "util/strings.h"

namespace linuxfp::engine {
namespace {

net::Packet flow_packet(std::uint16_t flow, std::uint8_t ttl = 0) {
  net::FlowKey f;
  f.src_ip = net::Ipv4Addr::parse("10.10.1.2").value();
  f.dst_ip = net::Ipv4Addr::parse("10.100.0.9").value();
  f.proto = net::kIpProtoUdp;
  f.src_port = static_cast<std::uint16_t>(1000 + flow);
  f.dst_port = 7;
  net::Packet p = net::build_udp_packet(net::MacAddr::from_id(0x501),
                                        net::MacAddr::from_id(0x1), f, 64);
  if (ttl != 0) {
    net::Ipv4View ip(p.data() + net::kEthHdrLen);
    ip.set_ttl(ttl);
    ip.update_checksum();
  }
  return p;
}

// Records a miss run that read the Eth+IP headers, depended on the FIB, and
// rewrote the destination MAC; inserts it with the given act/epoch.
void insert_entry(FlowCache& cache, kern::Kernel& kernel, std::uint16_t flow,
                  int ifindex, std::uint64_t epoch, std::uint64_t act,
                  int redirect) {
  net::Packet pkt = flow_packet(flow);
  rss_hash_cached(pkt);
  FlowCacheRecorder& rec = cache.recorder();
  rec.begin(pkt);
  rec.add_dep(kDepFib);
  rec.note_packet_read(0, 34);
  rec.note_packet_write(0, 6);
  for (int i = 0; i < 6; ++i) pkt.data()[i] = static_cast<std::uint8_t>(0xA0 + i);
  cache.insert(pkt, ifindex, epoch, kernel, rec, act, redirect, true);
}

TEST(FlowCache, HitReplaysVerdictAndHeaderDiff) {
  kern::Kernel kernel{"dut"};
  FlowCache cache(64);
  insert_entry(cache, kernel, 1, 3, 7, 4, 2);
  ASSERT_EQ(cache.live_entries(), 1u);

  net::Packet probe = flow_packet(1);
  FlowCache::Hit hit;
  ASSERT_TRUE(cache.try_hit(probe, 3, 7, kernel, &hit));
  EXPECT_EQ(hit.act, 4u);
  EXPECT_EQ(hit.redirect_ifindex, 2);
  // The recorded MAC rewrite was replayed onto the probe packet.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(probe.data()[i], static_cast<std::uint8_t>(0xA0 + i));
  }
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(FlowCache, ReadMaskByteDifferenceMisses) {
  kern::Kernel kernel{"dut"};
  FlowCache cache(64);
  insert_entry(cache, kernel, 1, 3, 0, 4, 2);

  // Same 5-tuple (same RSS hash, same set) but a different TTL — a byte
  // under the read mask — must not hit.
  net::Packet probe = flow_packet(1, 9);
  FlowCache::Hit hit;
  EXPECT_FALSE(cache.try_hit(probe, 3, 0, kernel, &hit));
  // Different ingress device: same bytes, different ctx — no hit either.
  net::Packet probe2 = flow_packet(1);
  EXPECT_FALSE(cache.try_hit(probe2, 4, 0, kernel, &hit));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(FlowCache, GenerationInvalidationFollowsDependencyMask) {
  kern::Kernel kernel{"dut"};
  FlowCache cache(64);
  insert_entry(cache, kernel, 1, 3, 0, 4, 2);  // deps = kDepFib only

  // Netfilter churn: not in the entry's dependency mask, still a hit.
  kern::Rule rule;
  rule.target = kern::RuleTarget::kDrop;
  ASSERT_TRUE(kernel.netfilter().append_rule("FORWARD", std::move(rule)).ok());
  net::Packet probe = flow_packet(1);
  FlowCache::Hit hit;
  EXPECT_TRUE(cache.try_hit(probe, 3, 0, kernel, &hit));

  // FIB churn: in the mask — invalidates.
  kern::Route route;
  route.dst = net::Ipv4Prefix(net::Ipv4Addr::parse("10.200.0.0").value(), 24);
  route.oif = 2;
  kernel.fib().add_route(route);
  net::Packet probe2 = flow_packet(1);
  EXPECT_FALSE(cache.try_hit(probe2, 3, 0, kernel, &hit));
  EXPECT_EQ(cache.stats().invalidations, 1u);
  // The stale entry was dropped, not left to shadow the slot.
  EXPECT_EQ(cache.live_entries(), 0u);
}

TEST(FlowCache, EpochMismatchFlushesEntry) {
  kern::Kernel kernel{"dut"};
  FlowCache cache(64);
  insert_entry(cache, kernel, 1, 3, 0, 4, 2);

  net::Packet probe = flow_packet(1);
  FlowCache::Hit hit;
  // Program redeploy bumped the attachment epoch: the entry is gone.
  EXPECT_FALSE(cache.try_hit(probe, 3, 1, kernel, &hit));
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.live_entries(), 0u);

  // Re-recorded at the new epoch, it serves again.
  insert_entry(cache, kernel, 1, 3, 1, 4, 2);
  net::Packet probe2 = flow_packet(1);
  EXPECT_TRUE(cache.try_hit(probe2, 3, 1, kernel, &hit));
}

TEST(FlowCache, UncacheableRunsAreNeverInserted) {
  kern::Kernel kernel{"dut"};
  FlowCache cache(64);
  net::Packet pkt = flow_packet(1);
  rss_hash_cached(pkt);
  FlowCacheRecorder& rec = cache.recorder();

  // Explicitly marked (helper outside the replayable whitelist).
  rec.begin(pkt);
  rec.mark_uncacheable("map write");
  cache.insert(pkt, 3, 0, kernel, rec, 2, -1, true);
  EXPECT_EQ(cache.live_entries(), 0u);
  EXPECT_EQ(cache.stats().uncacheable, 1u);

  // Packet access beyond the bounded header window.
  rec.begin(pkt);
  rec.note_packet_read(60, 8);
  EXPECT_TRUE(rec.uncacheable());
  cache.insert(pkt, 3, 0, kernel, rec, 2, -1, true);
  EXPECT_EQ(cache.live_entries(), 0u);

  // Aborted/XSK runs arrive with cacheable=false from the attachment.
  rec.begin(pkt);
  cache.insert(pkt, 3, 0, kernel, rec, 0, -1, false);
  EXPECT_EQ(cache.live_entries(), 0u);
  EXPECT_EQ(cache.stats().uncacheable, 3u);
}

TEST(FlowCache, ConntrackReplayMismatchInvalidates) {
  kern::Kernel kernel{"dut"};
  FlowCache cache(64);

  net::FlowKey key;
  key.src_ip = net::Ipv4Addr::parse("10.10.1.2").value();
  key.dst_ip = net::Ipv4Addr::parse("10.100.0.9").value();
  key.proto = net::kIpProtoUdp;
  key.src_port = 1001;
  key.dst_port = 7;

  // The recorded run created the conntrack entry (NEW, forward direction)
  // via ct_lookup_or_create; the entry snapshot is taken after that, so the
  // creation's generation bump is already absorbed.
  ASSERT_NE(kernel.conntrack().lookup_or_create(key, kernel.now_ns()).entry,
            nullptr);
  net::Packet pkt = flow_packet(1);
  rss_hash_cached(pkt);
  FlowCacheRecorder& rec = cache.recorder();
  rec.begin(pkt);
  rec.add_dep(kDepConntrack);
  rec.note_packet_read(0, 42);
  CtReplayOp op;
  op.key = key;
  op.lookup_or_create = true;
  op.expect_found = true;
  op.expect_ct_state = 0;  // NEW
  rec.add_ct_replay(op);
  cache.insert(pkt, 3, 0, kernel, rec, 2, -1, true);

  // Same state: replay observes the same NEW entry, the hit serves (and the
  // replayed lookup refreshes last_seen exactly like a full run would).
  net::Packet probe = flow_packet(1);
  FlowCache::Hit hit;
  EXPECT_TRUE(cache.try_hit(probe, 3, 0, kernel, &hit));

  // Reply traffic promotes NEW -> ESTABLISHED — deliberately without a
  // generation bump (that is the point of replay validation): the replay
  // observes state != cached observation and falls back to a full run.
  net::FlowKey reply;
  reply.src_ip = key.dst_ip;
  reply.dst_ip = key.src_ip;
  reply.proto = key.proto;
  reply.src_port = key.dst_port;
  reply.dst_port = key.src_port;
  auto r = kernel.conntrack().lookup(reply, kernel.now_ns());
  ASSERT_NE(r.entry, nullptr);
  ASSERT_EQ(r.entry->state, kern::CtState::kEstablished);
  net::Packet probe2 = flow_packet(1);
  EXPECT_FALSE(cache.try_hit(probe2, 3, 0, kernel, &hit));
  EXPECT_EQ(cache.stats().replay_mismatch, 1u);
  EXPECT_EQ(cache.live_entries(), 0u);
}

TEST(FlowCache, FdbRefreshReplayKeepsEntryAlive) {
  kern::Kernel kernel{"dut"};
  kernel.add_phys_dev("p0");
  ASSERT_TRUE(kern::run_command(kernel, "ip link add br0 type bridge").ok());
  ASSERT_TRUE(kern::run_command(kernel, "ip link set br0 up").ok());
  ASSERT_TRUE(kern::run_command(kernel, "ip link set p0 up").ok());
  ASSERT_TRUE(kern::run_command(kernel, "ip link set p0 master br0").ok());
  int br_if = kernel.dev_by_name("br0")->ifindex();
  int p0_if = kernel.dev_by_name("p0")->ifindex();
  net::MacAddr smac = net::MacAddr::from_id(0x777);

  FlowCache cache(64);
  net::Packet pkt = flow_packet(1);
  rss_hash_cached(pkt);
  FlowCacheRecorder& rec = cache.recorder();
  rec.begin(pkt);
  rec.add_dep(kDepBridge);
  rec.note_packet_read(0, 14);
  rec.add_fdb_refresh(FdbReplayOp{br_if, smac, 0, p0_if});
  // The recorded run performed this learn itself; the first learn of a new
  // station bumps the bridge generation, and the post-run snapshot absorbs
  // it — only the replayed same-port refreshes must stay bump-free.
  kernel.bridge(br_if)->fdb_learn(smac, 0, p0_if, kernel.now_ns());
  cache.insert(pkt, p0_if, 0, kernel, rec, 2, -1, true);

  // The learn the recorded run performed happens again on every hit, so
  // fast-path traffic refreshes its FDB entry without the interpreter.
  net::Packet probe = flow_packet(1);
  FlowCache::Hit hit;
  ASSERT_TRUE(cache.try_hit(probe, p0_if, 0, kernel, &hit));
  const kern::FdbEntry* fdb = kernel.bridge(br_if)->fdb_lookup(smac, 0);
  ASSERT_NE(fdb, nullptr);
  EXPECT_EQ(fdb->port_ifindex, p0_if);

  // The same-port refresh did not bump the bridge generation — the entry
  // must not self-invalidate.
  net::Packet probe2 = flow_packet(1);
  EXPECT_TRUE(cache.try_hit(probe2, p0_if, 0, kernel, &hit));
  EXPECT_EQ(cache.stats().invalidations, 0u);
}

TEST(FlowCache, SetAssociativityAbsorbsCollisionsThenEvicts) {
  kern::Kernel kernel{"dut"};
  FlowCache cache(FlowCache::kWays);  // one set: every flow collides
  for (std::uint16_t flow = 1; flow <= FlowCache::kWays; ++flow) {
    insert_entry(cache, kernel, flow, 3, 0, 4, 2);
  }
  EXPECT_EQ(cache.live_entries(), FlowCache::kWays);
  EXPECT_EQ(cache.stats().evictions, 0u);
  FlowCache::Hit hit;
  for (std::uint16_t flow = 1; flow <= FlowCache::kWays; ++flow) {
    net::Packet probe = flow_packet(flow);
    EXPECT_TRUE(cache.try_hit(probe, 3, 0, kernel, &hit)) << "flow " << flow;
  }
  // One more distinct flow overflows the set and evicts round-robin.
  insert_entry(cache, kernel, FlowCache::kWays + 1, 3, 0, 4, 2);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.live_entries(), FlowCache::kWays);
}

TEST(FlowCacheRss, EnginePathAndSimPathHashesAgree) {
  // Engine path: Engine::inject caches the Toeplitz hash before queue
  // steering. Sim path: FlowCache::try_hit caches it on first probe. Both go
  // through rss_hash_cached, so the stashed metadata must agree with a
  // fresh stateless computation and steer to the same queue.
  net::Packet engine_pkt = flow_packet(3);
  net::Packet sim_pkt = flow_packet(3);
  std::uint32_t engine_hash = rss_hash_cached(engine_pkt);

  kern::Kernel kernel{"dut"};
  FlowCache cache(16);
  FlowCache::Hit hit;
  cache.try_hit(sim_pkt, 1, 0, kernel, &hit);  // miss; stashes the hash
  ASSERT_TRUE(sim_pkt.rss_hash_valid);
  EXPECT_EQ(sim_pkt.rss_hash, engine_hash);
  EXPECT_EQ(rss_hash_of(sim_pkt), engine_hash);

  RssClassifier rss(4);
  EXPECT_EQ(rss.queue_for_hash(engine_hash), rss.queue_for(sim_pkt));
}

TEST(FlowCacheIntegration, SecondPacketHitsAndCostsLess) {
  sim::ScenarioConfig cfg;
  cfg.prefixes = 4;
  cfg.accel = sim::Accel::kLinuxFpXdp;
  cfg.flow_cache = true;
  sim::LinuxTestbed dut(cfg);

  auto out1 = dut.process(dut.forward_packet(1, 5));
  auto out2 = dut.process(dut.forward_packet(1, 5));
  EXPECT_TRUE(out1.forwarded);
  EXPECT_TRUE(out2.forwarded);
  EXPECT_LT(out2.cycles, out1.cycles);

  engine::FlowCacheStats fs =
      dut.controller()->deployer().flow_cache_stats();
  EXPECT_EQ(fs.hits, 1u);
  EXPECT_GE(fs.misses, 1u);
}

TEST(FlowCacheIntegration, RedeployBumpsEpochAndFlushes) {
  sim::ScenarioConfig cfg;
  cfg.prefixes = 4;
  cfg.accel = sim::Accel::kLinuxFpXdp;
  cfg.flow_cache = true;
  sim::LinuxTestbed dut(cfg);

  ebpf::Attachment* att = dut.controller()->deployer().attachment(
      "eth0", ebpf::HookType::kXdp);
  ASSERT_NE(att, nullptr);
  std::uint64_t epoch0 = att->flow_epoch();

  (void)dut.process(dut.forward_packet(1, 5));
  (void)dut.process(dut.forward_packet(1, 5));
  ASSERT_EQ(dut.controller()->deployer().flow_cache_stats().hits, 1u);

  // Config change -> resynthesis -> atomic swap: the epoch must advance and
  // the cached verdict from the old program must not serve.
  dut.run("ip route add 10.210.0.0/24 via 10.10.2.2 dev eth1");
  EXPECT_GT(att->flow_epoch(), epoch0);
  (void)dut.process(dut.forward_packet(1, 5));
  engine::FlowCacheStats fs =
      dut.controller()->deployer().flow_cache_stats();
  EXPECT_EQ(fs.hits, 1u);  // no new hit: the entry was epoch-flushed
  EXPECT_GE(fs.invalidations + fs.misses, 2u);
}

TEST(FlowCacheConcurrency, WorkersShareMetricsWithoutRaces) {
  sim::ScenarioConfig cfg;
  cfg.prefixes = 8;
  cfg.accel = sim::Accel::kLinuxFpXdp;
  cfg.flow_cache = true;
  sim::LinuxTestbed dut(cfg);
  dut.kernel().set_metrics_enabled(true);

  ebpf::Attachment* att = dut.controller()->deployer().attachment(
      "eth0", ebpf::HookType::kXdp);
  ASSERT_NE(att, nullptr);
  constexpr unsigned kCpus = 4;
  constexpr int kPerCpu = 500;
  att->prepare_cpus(kCpus);

  // Each worker drives its private per-CPU cache; the only shared flow-cache
  // state is the generation vector loads. TSan (tools/ci.sh) proves that.
  std::vector<std::thread> workers;
  for (unsigned cpu = 0; cpu < kCpus; ++cpu) {
    workers.emplace_back([&, cpu] {
      for (int i = 0; i < kPerCpu; ++i) {
        net::Packet pkt = dut.forward_packet(
            i % 8, static_cast<std::uint16_t>(cpu * 64 + i % 16));
        att->run(pkt, dut.ingress_ifindex(), cpu);
      }
    });
  }
  for (std::thread& t : workers) t.join();

  engine::FlowCacheStats fs = att->flow_cache_stats();
  EXPECT_EQ(fs.hits + fs.misses, static_cast<std::uint64_t>(kCpus) * kPerCpu);
  EXPECT_GT(fs.hits, 0u);
  // The registry's flowcache.* names are those per-CPU stats, summed on read.
  EXPECT_EQ(dut.kernel().metrics().value("flowcache.hits"), fs.hits);
  EXPECT_EQ(dut.kernel().metrics().value("flowcache.misses"), fs.misses);
}

// The per-CPU stores are the only copy of each fast-path event, and they are
// readable live: a reader thread polls the registry (sum-on-read sources) and
// the typed readers while two workers write. Every poll must be monotonic,
// and TSan (tools/ci.sh) must see no race. A warm-up pass first creates every
// registry name the run touches, so the name map never changes under the
// reader (counter creation is control-plane work).
TEST(FlowCacheConcurrency, LiveReadsDuringEngineRun) {
  sim::ScenarioConfig cfg;
  cfg.prefixes = 8;
  cfg.accel = sim::Accel::kLinuxFpXdp;
  cfg.flow_cache = true;
  sim::LinuxTestbed dut(cfg);
  ebpf::Attachment* att = dut.controller()->deployer().attachment(
      "eth0", ebpf::HookType::kXdp);
  ASSERT_NE(att, nullptr);
  const util::MetricsRegistry& reg = dut.kernel().metrics();

  EngineConfig ecfg;
  ecfg.queues = 2;
  ecfg.backpressure = true;
  constexpr std::uint64_t kPackets = 2000;
  // Every 10th packet has no route (prefix 20 is not installed): the
  // program punts and the slow-path thread drops it.
  auto inject_all = [&](Engine& eng) {
    for (std::uint64_t i = 0; i < kPackets; ++i) {
      const int prefix = i % 10 == 9 ? 20 : static_cast<int>(i % 8);
      eng.inject(
          dut.forward_packet(prefix, static_cast<std::uint16_t>(i % 64)));
    }
  };
  {
    Engine warm(dut.kernel(), dut.ingress_ifindex(), ecfg);
    warm.start();
    inject_all(warm);
    warm.stop();
  }

  Engine eng(dut.kernel(), dut.ingress_ifindex(), ecfg);
  eng.start();
  std::atomic<bool> polled{false};
  std::atomic<bool> done{false};
  bool monotonic = true;
  std::thread reader([&] {
    std::uint64_t last_reg = 0, last_runs = 0, last_lookups = 0;
    do {
      const std::uint64_t reg_runs = reg.value("fastpath.lfp@eth0.xdp.runs");
      const std::uint64_t runs = att->stats().runs;
      const FlowCacheStats fs = att->flow_cache_stats();
      const std::uint64_t lookups = fs.hits + fs.misses;
      if (reg_runs < last_reg || runs < last_runs || lookups < last_lookups) {
        monotonic = false;
      }
      last_reg = reg_runs;
      last_runs = runs;
      last_lookups = lookups;
      polled.store(true, std::memory_order_release);
    } while (!done.load(std::memory_order_acquire));
  });
  while (!polled.load(std::memory_order_acquire)) std::this_thread::yield();
  inject_all(eng);
  done.store(true, std::memory_order_release);
  reader.join();
  eng.stop();
  EXPECT_TRUE(monotonic);

  // Quiesced: the registry reads exactly the typed stores.
  const ebpf::AttachmentStats s = att->stats();
  EXPECT_EQ(s.runs, 2 * kPackets);
  EXPECT_EQ(reg.value("fastpath.lfp@eth0.xdp.runs"), s.runs);
  EXPECT_EQ(reg.value("fastpath.lfp@eth0.xdp.redirect"), s.redirect);
  EXPECT_EQ(reg.value("fastpath.lfp@eth0.xdp.pass"), s.pass);
  const FlowCacheStats fs = dut.controller()->deployer().flow_cache_stats();
  EXPECT_GT(fs.hits, 0u);
  EXPECT_EQ(reg.value("flowcache.hits"), fs.hits);
  EXPECT_EQ(reg.value("flowcache.misses"), fs.misses);
}

// Each derived registry name equals its typed-store sum after inline and
// engine traffic; binding the same registry again counts nothing twice; and
// the totals stay put when the stores go away (flow cache turned off, the
// controller and its attachments destroyed).
TEST(FlowCacheConcurrency, RegistryEqualsStoresAcrossEngineRun) {
  linuxfp::testing::RouterDut dut;
  dut.add_prefixes(8);
  core::ControllerOptions opts;
  opts.flow_cache = true;
  auto controller = std::make_unique<core::Controller>(dut.kernel, opts);
  controller->start();
  core::Deployer& deployer = controller->deployer();
  const util::MetricsRegistry& reg = dut.kernel.metrics();

  // Prefixes 8 and 9 have no route: those packets punt to the slow path.
  for (int i = 0; i < 200; ++i) {
    kern::CycleTrace t;
    dut.kernel.rx(
        dut.eth0_ifindex(),
        dut.packet_to_prefix(i % 10, static_cast<std::uint16_t>(i % 16)), t);
  }
  EngineConfig ecfg;
  ecfg.queues = 2;
  ecfg.backpressure = true;
  {
    Engine eng(dut.kernel, dut.eth0_ifindex(), ecfg);
    eng.start();
    for (int i = 0; i < 1000; ++i) {
      eng.inject(
          dut.packet_to_prefix(i % 10, static_cast<std::uint16_t>(i % 32)));
    }
    eng.stop();
  }

  auto expect_registry_equals_stores = [&] {
    for (const char* dev : {"eth0", "eth1"}) {
      ebpf::Attachment* att = deployer.attachment(dev, ebpf::HookType::kXdp);
      ASSERT_NE(att, nullptr) << dev;
      const ebpf::AttachmentStats s = att->stats();
      const std::string p = std::string("fastpath.lfp@") + dev + ".xdp.";
      EXPECT_EQ(reg.value(p + "runs"), s.runs) << dev;
      EXPECT_EQ(reg.value(p + "cycles"), s.total_cycles) << dev;
      EXPECT_EQ(reg.value(p + "pass"), s.pass) << dev;
      EXPECT_EQ(reg.value(p + "drop"), s.drop) << dev;
      EXPECT_EQ(reg.value(p + "tx"), s.tx) << dev;
      EXPECT_EQ(reg.value(p + "redirect"), s.redirect) << dev;
      EXPECT_EQ(reg.value(p + "to_userspace"), s.to_userspace) << dev;
      EXPECT_EQ(reg.value(p + "aborted"), s.aborted) << dev;
    }
    const FlowCacheStats fs = deployer.flow_cache_stats();
    EXPECT_EQ(reg.value("flowcache.hits"), fs.hits);
    EXPECT_EQ(reg.value("flowcache.misses"), fs.misses);
    EXPECT_EQ(reg.value("flowcache.invalidations"), fs.invalidations);
    EXPECT_EQ(reg.value("flowcache.evictions"), fs.evictions);
    EXPECT_EQ(reg.value("flowcache.uncacheable"), fs.uncacheable);
    EXPECT_EQ(reg.value("flowcache.replay_mismatch"), fs.replay_mismatch);
  };
  expect_registry_equals_stores();
  EXPECT_EQ(deployer.attachment("eth0", ebpf::HookType::kXdp)->stats().runs,
            1200u);
  EXPECT_GT(deployer.flow_cache_stats().hits, 0u);
  EXPECT_GT(deployer.flow_cache_stats().misses, 0u);

  deployer.set_metrics(&dut.kernel.metrics());
  expect_registry_equals_stores();

  auto derived = [&] {
    std::map<std::string, std::int64_t> out;
    const util::Json metrics = reg.to_json();
    for (const auto& [name, v] : metrics.at("counters").object_items()) {
      if (util::starts_with(name, "fastpath.") ||
          util::starts_with(name, "flowcache.")) {
        out[name] = v.as_int();
      }
    }
    return out;
  };
  const auto before = derived();
  ASSERT_EQ(before.count("fastpath.lfp@eth0.xdp.runs"), 1u);
  EXPECT_EQ(before.at("fastpath.lfp@eth0.xdp.runs"), 1200);
  deployer.set_flow_cache(false);
  EXPECT_EQ(deployer.flow_cache_stats().hits, 0u);
  EXPECT_EQ(derived(), before);
  controller.reset();
  EXPECT_EQ(derived(), before);
}

}  // namespace
}  // namespace linuxfp::engine
