#include "kernel/fib.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/rng.h"

namespace linuxfp::kern {
namespace {

Route make_route(const std::string& prefix, const std::string& gw, int oif) {
  Route r;
  r.dst = net::Ipv4Prefix::parse(prefix).value();
  if (!gw.empty()) r.gateway = net::Ipv4Addr::parse(gw).value();
  r.oif = oif;
  r.scope = gw.empty() ? RouteScope::kLink : RouteScope::kGlobal;
  return r;
}

TEST(Fib, LongestPrefixWins) {
  Fib fib;
  fib.add_route(make_route("10.0.0.0/8", "1.1.1.1", 1));
  fib.add_route(make_route("10.10.0.0/16", "2.2.2.2", 2));
  fib.add_route(make_route("10.10.3.0/24", "3.3.3.3", 3));

  auto r = fib.lookup(net::Ipv4Addr::parse("10.10.3.7").value());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->route.oif, 3);

  r = fib.lookup(net::Ipv4Addr::parse("10.10.9.1").value());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->route.oif, 2);

  r = fib.lookup(net::Ipv4Addr::parse("10.200.0.1").value());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->route.oif, 1);

  EXPECT_FALSE(fib.lookup(net::Ipv4Addr::parse("11.0.0.1").value()));
}

TEST(Fib, DefaultRoute) {
  Fib fib;
  fib.add_route(make_route("0.0.0.0/0", "9.9.9.9", 5));
  auto r = fib.lookup(net::Ipv4Addr::parse("123.45.67.89").value());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->route.oif, 5);
  EXPECT_EQ(r->next_hop.to_string(), "9.9.9.9");
}

TEST(Fib, ConnectedRouteNextHopIsDestination) {
  Fib fib;
  fib.add_route(make_route("10.10.1.0/24", "", 2));
  auto r = fib.lookup(net::Ipv4Addr::parse("10.10.1.77").value());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->next_hop.to_string(), "10.10.1.77");
  EXPECT_EQ(r->route.scope, RouteScope::kLink);
}

TEST(Fib, DeleteRoute) {
  Fib fib;
  fib.add_route(make_route("10.0.0.0/8", "1.1.1.1", 1));
  fib.add_route(make_route("10.10.0.0/16", "2.2.2.2", 2));
  EXPECT_EQ(fib.size(), 2u);
  EXPECT_TRUE(fib.del_route(net::Ipv4Prefix::parse("10.10.0.0/16").value()));
  EXPECT_EQ(fib.size(), 1u);
  EXPECT_FALSE(fib.del_route(net::Ipv4Prefix::parse("10.10.0.0/16").value()));
  auto r = fib.lookup(net::Ipv4Addr::parse("10.10.1.1").value());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->route.oif, 1);  // falls back to the /8
}

TEST(Fib, ReplaceSamePrefix) {
  Fib fib;
  fib.add_route(make_route("10.0.0.0/8", "1.1.1.1", 1));
  fib.add_route(make_route("10.0.0.0/8", "5.5.5.5", 5));
  EXPECT_EQ(fib.size(), 1u);
  auto r = fib.lookup(net::Ipv4Addr::parse("10.1.1.1").value());
  EXPECT_EQ(r->route.oif, 5);
}

TEST(Fib, SamePrefixDistinctMetricsCoexist) {
  // Regression: the FIB used to key routes by prefix alone, so
  // `ip route add ... metric 200` silently replaced the metric-0 route and
  // deleting it took the primary down with it. Same-prefix routes with
  // distinct metrics are separate entries; the lowest metric is active.
  Fib fib;
  Route primary = make_route("10.50.0.0/16", "1.1.1.1", 1);
  primary.metric = 0;
  Route backup = make_route("10.50.0.0/16", "2.2.2.2", 2);
  backup.metric = 200;
  fib.add_route(primary);
  fib.add_route(backup);
  EXPECT_EQ(fib.size(), 2u);

  auto r = fib.lookup(net::Ipv4Addr::parse("10.50.3.3").value());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->route.oif, 1) << "lowest metric must win";

  // Deleting the backup by metric leaves the primary serving traffic.
  EXPECT_TRUE(
      fib.del_route(net::Ipv4Prefix::parse("10.50.0.0/16").value(), 200));
  EXPECT_EQ(fib.size(), 1u);
  r = fib.lookup(net::Ipv4Addr::parse("10.50.3.3").value());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->route.oif, 1);

  // Re-add the backup, then drop the primary: traffic fails over.
  fib.add_route(backup);
  EXPECT_TRUE(fib.del_route(net::Ipv4Prefix::parse("10.50.0.0/16").value(), 0));
  r = fib.lookup(net::Ipv4Addr::parse("10.50.3.3").value());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->route.oif, 2);

  // Deleting a metric that does not exist is a miss, not a wildcard.
  EXPECT_FALSE(
      fib.del_route(net::Ipv4Prefix::parse("10.50.0.0/16").value(), 5));
}

TEST(Fib, ReplaceIsPerMetricAndDumpListsAll) {
  Fib fib;
  Route primary = make_route("10.60.0.0/16", "1.1.1.1", 1);
  primary.metric = 10;
  Route backup = make_route("10.60.0.0/16", "2.2.2.2", 2);
  backup.metric = 20;
  fib.add_route(primary);
  fib.add_route(backup);

  // Re-adding (prefix, metric=10) with a new gateway replaces only that
  // entry — `ip route replace` semantics.
  Route replacement = make_route("10.60.0.0/16", "3.3.3.3", 3);
  replacement.metric = 10;
  fib.add_route(replacement);
  EXPECT_EQ(fib.size(), 2u);

  auto r = fib.lookup(net::Ipv4Addr::parse("10.60.1.1").value());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->route.oif, 3);

  auto got = fib.get_route(net::Ipv4Prefix::parse("10.60.0.0/16").value(), 20);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->oif, 2) << "backup untouched by the metric-10 replace";

  // Metric-less delete removes the active (lowest-metric) route.
  EXPECT_TRUE(fib.del_route(net::Ipv4Prefix::parse("10.60.0.0/16").value()));
  r = fib.lookup(net::Ipv4Addr::parse("10.60.1.1").value());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->route.oif, 2);

  EXPECT_EQ(fib.dump().size(), 1u);
}

TEST(Fib, LookupReportsTrieDepth) {
  Fib fib;
  fib.add_route(make_route("10.0.0.0/8", "1.1.1.1", 1));
  fib.add_route(make_route("10.10.0.0/16", "2.2.2.2", 2));
  auto shallow = fib.lookup(net::Ipv4Addr::parse("10.200.0.1").value());
  auto deep = fib.lookup(net::Ipv4Addr::parse("10.10.0.1").value());
  ASSERT_TRUE(shallow.has_value());
  ASSERT_TRUE(deep.has_value());
  EXPECT_GT(shallow->depth, 0u);
  EXPECT_GT(deep->depth, shallow->depth)
      << "/16 match must walk deeper than the /8";
}

TEST(Fib, PurgeInterface) {
  Fib fib;
  fib.add_route(make_route("10.1.0.0/16", "1.1.1.1", 1));
  fib.add_route(make_route("10.2.0.0/16", "2.2.2.2", 2));
  fib.add_route(make_route("10.3.0.0/16", "2.2.2.3", 2));
  auto removed = fib.purge_interface(2);
  EXPECT_EQ(removed.size(), 2u);
  EXPECT_EQ(fib.size(), 1u);
  EXPECT_FALSE(fib.lookup(net::Ipv4Addr::parse("10.2.0.1").value()));
}

TEST(Fib, DumpRoundTrip) {
  Fib fib;
  for (int i = 0; i < 50; ++i) {
    fib.add_route(make_route("10." + std::to_string(i) + ".0.0/24",
                             "2.2.2.2", 2));
  }
  EXPECT_EQ(fib.dump().size(), 50u);
  EXPECT_EQ(fib.size(), 50u);
}

TEST(Fib, RandomizedAgainstLinearScan) {
  util::Rng rng(1234);
  Fib fib;
  std::vector<Route> routes;
  for (int i = 0; i < 300; ++i) {
    auto len = static_cast<std::uint8_t>(8 + rng.next_below(17));
    net::Ipv4Addr base(rng.next_u32());
    Route r;
    r.dst = net::Ipv4Prefix(base, len);
    r.gateway = net::Ipv4Addr(rng.next_u32() | 1);
    r.oif = static_cast<int>(1 + rng.next_below(8));
    // Avoid duplicate prefixes (replace semantics would diverge from the
    // reference list).
    bool dup = false;
    for (const auto& existing : routes) {
      if (existing.dst == r.dst) dup = true;
    }
    if (dup) continue;
    routes.push_back(r);
    fib.add_route(r);
  }
  for (int trial = 0; trial < 2000; ++trial) {
    net::Ipv4Addr probe(rng.next_u32());
    const Route* best = nullptr;
    for (const auto& r : routes) {
      if (r.dst.contains(probe) &&
          (!best || r.dst.prefix_len() > best->dst.prefix_len())) {
        best = &r;
      }
    }
    auto got = fib.lookup(probe);
    if (!best) {
      EXPECT_FALSE(got.has_value());
    } else {
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->route.dst.to_string(), best->dst.to_string());
    }
  }
}

// Seeded churn against two oracles: the route a linear scan picks (longest
// prefix, then lowest metric), and the closed-form depth of the binary trie,
// which never frees a node: the most leading bits the destination shares
// with any prefix ever added, each capped at that prefix's length. Prefixes
// nest around a few anchors and favour the lengths on either side of the
// index's 8-bit strides, and every mutation is followed by probes inside,
// on both edges of and just outside every prefix the round has used.
TEST(Fib, IndexMatchesOraclesUnderChurn) {
  constexpr std::uint8_t kStrideNeighbours[] = {0,  7,  8,  9,  15, 16,
                                                17, 23, 24, 25, 31, 32};
  util::Rng rng(2024);
  for (int round = 0; round < 6; ++round) {
    std::vector<net::Ipv4Prefix> pool;
    const std::uint32_t anchors[] = {rng.next_u32(), rng.next_u32(),
                                     rng.next_u32()};
    while (pool.size() < 48) {
      const auto len = static_cast<std::uint8_t>(
          rng.next_below(2) ? kStrideNeighbours[rng.next_below(12)]
                            : rng.next_below(33));
      // Flip a few bits of an anchor so prefixes share long runs of bits.
      std::uint32_t addr = anchors[rng.next_below(3)];
      for (int flips = static_cast<int>(rng.next_below(3)); flips > 0;
           --flips) {
        addr ^= 1u << rng.next_below(32);
      }
      pool.emplace_back(net::Ipv4Addr(addr), len);
    }

    Fib fib;
    std::vector<Route> live;               // the oracle's route set
    std::vector<net::Ipv4Prefix> created;  // every prefix ever added
    auto expect_route = [&](std::uint32_t dst) {
      const Route* best = nullptr;
      for (const Route& r : live) {
        if (!r.dst.contains(net::Ipv4Addr(dst))) continue;
        if (!best || r.dst.prefix_len() > best->dst.prefix_len() ||
            (r.dst.prefix_len() == best->dst.prefix_len() &&
             r.metric < best->metric)) {
          best = &r;
        }
      }
      return best;
    };
    auto expect_depth = [&](std::uint32_t dst) {
      std::size_t depth = 0;
      for (const net::Ipv4Prefix& p : created) {
        const std::uint32_t diff = dst ^ p.network().value();
        const std::size_t shared = diff ? __builtin_clz(diff) : 32;
        depth = std::max<std::size_t>(depth,
                                      std::min<std::size_t>(shared,
                                                            p.prefix_len()));
      }
      return depth;
    };
    auto probe_all = [&](int step) {
      for (const net::Ipv4Prefix& p : pool) {
        const std::uint32_t first = p.network().value();
        const std::uint32_t last = first | ~p.mask();
        const std::uint32_t probes[] = {
            first, last,
            static_cast<std::uint32_t>(first +
                                       rng.next_u32() % (last - first + 1ull)),
            first - 1, last + 1};
        for (std::uint32_t dst : probes) {
          const Route* want = expect_route(dst);
          auto got = fib.lookup(net::Ipv4Addr(dst));
          const std::string where = "round " + std::to_string(round) +
                                    " step " + std::to_string(step) +
                                    " dst " + net::Ipv4Addr(dst).to_string();
          if (!want) {
            ASSERT_FALSE(got.has_value()) << where;
            continue;
          }
          ASSERT_TRUE(got.has_value()) << where;
          ASSERT_EQ(got->route, *want) << where;
          ASSERT_EQ(got->depth, expect_depth(dst)) << where;
        }
      }
    };

    for (int step = 0; step < 300; ++step) {
      const std::uint64_t op = rng.next_below(10);
      if (op < 5 || live.empty()) {
        // Add, a replace of (prefix, metric), or a same-prefix backup.
        Route r;
        r.dst = pool[rng.next_below(pool.size())];
        r.metric = static_cast<std::uint32_t>(10 * rng.next_below(3));
        r.gateway = net::Ipv4Addr(rng.next_u32() | 1);
        r.oif = static_cast<int>(1 + rng.next_below(6));
        fib.add_route(r);
        created.push_back(r.dst);
        auto same = std::find_if(live.begin(), live.end(), [&](const Route& x) {
          return x.dst == r.dst && x.metric == r.metric;
        });
        if (same != live.end()) {
          *same = r;
        } else {
          live.push_back(r);
        }
      } else if (op < 7) {
        // Delete exactly (prefix, metric).
        const Route victim = live[rng.next_below(live.size())];
        ASSERT_TRUE(fib.del_route(victim.dst, victim.metric));
        live.erase(std::find(live.begin(), live.end(), victim));
      } else if (op < 9) {
        // Metric-less delete: the active route of a prefix, or nothing.
        const net::Ipv4Prefix prefix = pool[rng.next_below(pool.size())];
        auto active = live.end();
        for (auto it = live.begin(); it != live.end(); ++it) {
          if (it->dst == prefix &&
              (active == live.end() || it->metric < active->metric)) {
            active = it;
          }
        }
        ASSERT_EQ(fib.del_route(prefix), active != live.end());
        if (active != live.end()) live.erase(active);
      } else {
        const int oif = static_cast<int>(1 + rng.next_below(6));
        const auto before = live.size();
        live.erase(std::remove_if(live.begin(), live.end(),
                                  [&](const Route& x) { return x.oif == oif; }),
                   live.end());
        ASSERT_EQ(fib.purge_interface(oif).size(), before - live.size());
      }
      ASSERT_EQ(fib.size(), live.size());
      ASSERT_NO_FATAL_FAILURE(probe_all(step));
    }
  }
}

}  // namespace
}  // namespace linuxfp::kern
