#include "util/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace linuxfp::util {
namespace {

TEST(MetricsRegistry, CounterFindOrCreateStablePointer) {
  MetricsRegistry reg;
  Counter* a = reg.counter("drop.no_route");
  Counter* b = reg.counter("drop.no_route");
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.value("drop.no_route"), 0u);
  bump(a, 3);
  EXPECT_EQ(reg.value("drop.no_route"), 3u);
  EXPECT_EQ(reg.value("never.created"), 0u);
  EXPECT_EQ(reg.counter_count(), 1u);

  // Pointers stay valid as the deque grows past any single block.
  for (int i = 0; i < 1000; ++i) {
    reg.counter("c" + std::to_string(i));
  }
  EXPECT_EQ(reg.value("drop.no_route"), 3u);
  bump(a);
  EXPECT_EQ(reg.value("drop.no_route"), 4u);
}

TEST(MetricsRegistry, HistogramsOptIn) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("lat");
  h->record(5.0);  // disabled by default — dropped
  EXPECT_EQ(h->count(), 0u);
  reg.set_histograms_enabled(true);
  h->record(5.0);
  h->record(15.0);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_DOUBLE_EQ(h->stats().mean(), 10.0);
  reg.set_histograms_enabled(false);
  h->record(100.0);
  EXPECT_EQ(h->count(), 2u);
}

TEST(MetricsRegistry, ToJsonSortedAndComplete) {
  MetricsRegistry reg;
  *reg.counter("b.two") = 2;
  *reg.counter("a.one") = 1;
  Json j = reg.to_json();
  const Json& counters = j.at("counters");
  EXPECT_EQ(counters.at("a.one").as_int(), 1);
  EXPECT_EQ(counters.at("b.two").as_int(), 2);
  // std::map index → deterministic (sorted) iteration order.
  EXPECT_EQ(counters.object_items().begin()->first, "a.one");
}

TEST(MetricsRegistry, SourcesSumWithStoredCountersAndFoldOnRemove) {
  MetricsRegistry reg;
  bump(reg.counter("fastpath.a.runs"), 2);  // e.g. folded from a past owner
  bump(reg.counter("z.stored"), 1);
  std::uint64_t shard = 5;  // the owner's store
  int owner = 0;
  auto collect = [&](const MetricsRegistry::Emit& emit) {
    emit("fastpath.a.runs", shard_read(shard));
    emit("flowcache.hits", 0);
  };
  reg.add_source(&owner, collect);
  reg.add_source(&owner, collect);  // replaces, never doubles
  EXPECT_EQ(reg.value("fastpath.a.runs"), 7u);
  EXPECT_EQ(reg.value("flowcache.hits"), 0u);
  EXPECT_EQ(reg.counter_count(), 2u);  // derived names are not stored

  // Source names merge into the sorted counter set, summed with stored ones.
  const Json counters = reg.to_json().at("counters");
  std::vector<std::string> names;
  for (const auto& [name, value] : counters.object_items()) {
    names.push_back(name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"fastpath.a.runs",
                                             "flowcache.hits", "z.stored"}));
  EXPECT_EQ(counters.at("fastpath.a.runs").as_int(), 7);
  const std::string text = reg.prometheus_text("linuxfp");
  const std::size_t runs = text.find("linuxfp_fastpath_a_runs 7\n");
  const std::size_t hits = text.find("linuxfp_flowcache_hits 0\n");
  const std::size_t stored = text.find("linuxfp_z_stored 1\n");
  ASSERT_NE(runs, std::string::npos);
  ASSERT_NE(hits, std::string::npos);
  ASSERT_NE(stored, std::string::npos);
  EXPECT_LT(runs, hits);
  EXPECT_LT(hits, stored);

  // Reads follow the store; removal folds its last values into stored
  // counters, so the totals survive the store going away.
  shard_add(shard, 3);
  EXPECT_EQ(reg.value("fastpath.a.runs"), 10u);
  reg.remove_source(&owner);
  shard = 0;
  EXPECT_EQ(reg.value("fastpath.a.runs"), 10u);
  EXPECT_EQ(reg.counter_count(), 3u);  // flowcache.hits is stored now
  reg.remove_source(&owner);           // unknown owner: no-op
  EXPECT_EQ(reg.value("fastpath.a.runs"), 10u);
  EXPECT_EQ(reg.to_json().at("counters").at("flowcache.hits").as_int(), 0);
}

TEST(MetricsRegistry, PrometheusTextSanitizesNames) {
  MetricsRegistry reg;
  *reg.counter("fastpath.lfp@eth0.xdp.runs") = 9;
  std::string text = reg.prometheus_text("linuxfp");
  EXPECT_NE(text.find("linuxfp_fastpath_lfp_eth0_xdp_runs 9"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE linuxfp_fastpath_lfp_eth0_xdp_runs counter"),
            std::string::npos);
  // No raw '.'/'@' survives in metric identifiers.
  for (const char bad : {'.', '@'}) {
    for (std::size_t pos = 0; (pos = text.find(bad, pos)) != std::string::npos;
         ++pos) {
      ADD_FAILURE() << "unsanitized '" << bad << "' at " << pos;
    }
  }
}

TEST(StageSink, ChargesCallsCyclesPerStage) {
  MetricsRegistry reg;
  StageSink sink;
  sink.bind(&reg, "slowpath.");
  static const char* kFib = "fib_lookup";
  static const char* kNeigh = "neigh_lookup";
  sink.charge(kFib, 100);
  sink.charge(kFib, 50);
  sink.charge(kNeigh, 30);
  EXPECT_EQ(reg.value("slowpath.fib_lookup.calls"), 2u);
  EXPECT_EQ(reg.value("slowpath.fib_lookup.cycles"), 150u);
  EXPECT_EQ(reg.value("slowpath.neigh_lookup.calls"), 1u);
  EXPECT_EQ(reg.value("slowpath.neigh_lookup.cycles"), 30u);
}

TEST(StageSink, DisabledRegistrySkipsUpdates) {
  MetricsRegistry reg;
  StageSink sink;
  sink.bind(&reg, "slowpath.");
  reg.set_enabled(false);
  sink.charge("ip_rcv", 100);
  EXPECT_EQ(reg.value("slowpath.ip_rcv.calls"), 0u);
  reg.set_enabled(true);
  sink.charge("ip_rcv", 100);
  EXPECT_EQ(reg.value("slowpath.ip_rcv.calls"), 1u);
}

TEST(StageSink, ManyDistinctStagesOverflowTable) {
  // More live literals than the open-addressing table holds: the overflow
  // map must keep attribution exact.
  MetricsRegistry reg;
  StageSink sink;
  sink.bind(&reg, "s.");
  std::vector<std::string> names;
  names.reserve(300);
  for (int i = 0; i < 300; ++i) names.push_back("stage" + std::to_string(i));
  for (int round = 0; round < 3; ++round) {
    for (const auto& n : names) sink.charge(n.c_str(), 7);
  }
  for (const auto& n : names) {
    EXPECT_EQ(reg.value("s." + n + ".calls"), 3u) << n;
    EXPECT_EQ(reg.value("s." + n + ".cycles"), 21u) << n;
  }
}

TEST(StageSink, HistogramRecordsWhenEnabled) {
  MetricsRegistry reg;
  reg.set_histograms_enabled(true);
  StageSink sink;
  sink.bind(&reg, "slowpath.");
  sink.charge("fib_lookup", 100);
  sink.charge("fib_lookup", 300);
  Histogram* h = reg.histogram("slowpath.fib_lookup.cycles_hist");
  ASSERT_EQ(h->count(), 2u);
  EXPECT_DOUBLE_EQ(h->stats().mean(), 200.0);
  double p50 = h->samples().percentile(0.5);
  EXPECT_GE(p50, 100.0);
  EXPECT_LE(p50, 300.0);
}

TEST(TraceRing, EvictsOldestAtCapacity) {
  TraceRing ring(2);
  PacketTrace* a = ring.begin_packet(1, "eth0");
  a->add("slow", "ip_rcv", 10);
  PacketTrace* b = ring.begin_packet(1, "eth0");
  b->verdict = "ok";
  PacketTrace* c = ring.begin_packet(2, "eth1");
  c->verdict = "no_route";
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.packets_traced(), 3u);
  EXPECT_EQ(ring.at(0).id, 1u);
  EXPECT_EQ(ring.latest().id, 2u);
  EXPECT_EQ(ring.latest().ifindex, 2);
  EXPECT_EQ(ring.latest().verdict, "no_route");
}

TEST(TraceRing, TraceJsonRoundTrip) {
  TraceRing ring(4);
  PacketTrace* t = ring.begin_packet(3, "eth0");
  t->fast_path = true;
  t->verdict = "ok";
  t->total_cycles = 123;
  t->add("slow", "driver_rx", 90);
  t->add("ebpf", "fib_lookup", 33, "hit");
  Json j = ring.latest().to_json();
  EXPECT_EQ(j.at("device").as_string(), "eth0");
  EXPECT_TRUE(j.at("fast_path").as_bool());
  EXPECT_EQ(j.at("verdict").as_string(), "ok");
  ASSERT_EQ(j.at("events").size(), 2u);
  EXPECT_EQ(j.at("events").at(0).at("stage").as_string(), "driver_rx");
  EXPECT_EQ(j.at("events").at(1).at("layer").as_string(), "ebpf");
  EXPECT_EQ(j.at("events").at(1).at("detail").as_string(), "hit");

  Json all = ring.to_json();
  EXPECT_EQ(all.size(), 1u);
}

TEST(ActivePacketTrace, GlobalSetAndClear) {
  EXPECT_EQ(active_packet_trace(), nullptr);
  PacketTrace t;
  set_active_packet_trace(&t);
  EXPECT_EQ(active_packet_trace(), &t);
  set_active_packet_trace(nullptr);
  EXPECT_EQ(active_packet_trace(), nullptr);
}

}  // namespace
}  // namespace linuxfp::util
