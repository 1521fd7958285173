// Cache-on vs cache-off differential fuzz (DESIGN.md §12): two accelerated
// DUTs — identical except that one runs the microflow verdict cache — fed
// identical randomized traffic interleaved with randomized configuration
// mutations (route add/del, FDB churn, iptables/ipset edits, conntrack
// aging). Every emitted packet, every verdict and every kernel counter must
// stay identical: the cache must be a pure accelerator, invisible to every
// observable output. A second suite runs the cached DUT under fault
// injection and proves the deploy-rollback path flushes the cache epoch.
#include <gtest/gtest.h>

#include <cstring>

#include "core/controller.h"
#include "ebpf/loader.h"
#include "tests/kernel/test_topo.h"
#include "util/fault.h"
#include "util/rng.h"

namespace linuxfp::core {
namespace {

using linuxfp::testing::RouterDut;

void compare_counters(const kern::Kernel& on, const kern::Kernel& off,
                      const char* where) {
  const kern::KernelCounters& a = on.counters();
  const kern::KernelCounters& b = off.counters();
  EXPECT_EQ(a.slow_path_packets, b.slow_path_packets) << where;
  EXPECT_EQ(a.fast_path_packets, b.fast_path_packets) << where;
  EXPECT_EQ(a.forwarded, b.forwarded) << where;
  EXPECT_EQ(a.bridged, b.bridged) << where;
  EXPECT_EQ(a.locally_delivered, b.locally_delivered) << where;
  EXPECT_EQ(a.total_drops(), b.total_drops()) << where;
  for (const auto& [reason, count] : a.drops) {
    auto it = b.drops.find(reason);
    EXPECT_EQ(count, it == b.drops.end() ? 0ull : it->second)
        << where << " drop " << kern::drop_name(reason);
  }
  for (const auto& [reason, count] : b.drops) {
    auto it = a.drops.find(reason);
    EXPECT_EQ(it == a.drops.end() ? 0ull : it->second, count)
        << where << " drop " << kern::drop_name(reason);
  }
}

void compare_attachments(Controller& on, Controller& off, const char* where) {
  for (const char* dev : {"eth0", "eth1"}) {
    ebpf::Attachment* a = on.deployer().attachment(dev, ebpf::HookType::kXdp);
    ebpf::Attachment* b = off.deployer().attachment(dev, ebpf::HookType::kXdp);
    ASSERT_EQ(a == nullptr, b == nullptr) << where << " " << dev;
    if (!a) continue;
    // Verdict counters must agree exactly (cache hits count as runs; insn
    // and cycle totals legitimately differ — DESIGN.md §12).
    ebpf::AttachmentStats sa = a->stats();
    ebpf::AttachmentStats sb = b->stats();
    EXPECT_EQ(sa.runs, sb.runs) << where << " " << dev;
    EXPECT_EQ(sa.pass, sb.pass) << where << " " << dev;
    EXPECT_EQ(sa.drop, sb.drop) << where << " " << dev;
    EXPECT_EQ(sa.tx, sb.tx) << where << " " << dev;
    EXPECT_EQ(sa.redirect, sb.redirect) << where << " " << dev;
    EXPECT_EQ(sa.aborted, 0u) << where << " " << dev;
    EXPECT_EQ(sb.aborted, 0u) << where << " " << dev;
  }
}

TEST(FlowCacheDiff, ChurnedConfigNeverDiverges) {
  for (std::uint64_t seed : {17ull, 29ull, 53ull}) {
    util::Rng rng(seed * 9973);
    RouterDut on_dut, off_dut;
    on_dut.add_prefixes(20);
    off_dut.add_prefixes(20);
    // Side bridge for FDB churn (not in the forwarding path: its generation
    // traffic must not disturb router cache entries).
    for (RouterDut* d : {&on_dut, &off_dut}) {
      d->kernel.add_phys_dev("p9");
      d->run("ip link add br1 type bridge");
      d->run("ip link set p9 master br1");
    }

    auto both = [&](const std::string& cmd) {
      auto s1 = kern::run_command(on_dut.kernel, cmd);
      auto s2 = kern::run_command(off_dut.kernel, cmd);
      ASSERT_EQ(s1.ok(), s2.ok()) << "seed " << seed << " cmd " << cmd;
    };
    both("ipset create fuzzset hash:ip");
    both("ipset add fuzzset 10.10.1.77");
    // Stateful policy so the fast path consults conntrack (replay-validated
    // on cache hits) plus set- and prefix-based drops.
    both("iptables -A FORWARD -m state --state ESTABLISHED,RELATED -j ACCEPT");
    both("iptables -A FORWARD -m set --match-set fuzzset src -j DROP");
    both("iptables -A FORWARD -d 10.105.0.0/24 -j DROP");

    ControllerOptions on_opts;
    on_opts.flow_cache = true;
    Controller on_ctl(on_dut.kernel, on_opts);
    Controller off_ctl(off_dut.kernel);
    on_ctl.start();
    off_ctl.start();
    ASSERT_TRUE(on_ctl.deployer().flow_cache_enabled());

    int routes_added = 0;
    int rules_added = 0;
    for (int pkt_i = 0; pkt_i < 400; ++pkt_i) {
      if (pkt_i % 25 == 13) {
        // Randomized config mutation, mirrored on both DUTs.
        switch (rng.next_below(6)) {
          case 0:
            both("ip route add 10." + std::to_string(150 + routes_added++) +
                 ".0.0/24 via 10.10.2.2 dev eth1");
            break;
          case 1:
            if (routes_added > 0) {
              both("ip route del 10." + std::to_string(150 + --routes_added) +
                   ".0.0/24");
            }
            break;
          case 2:
            both("iptables -A FORWARD -d 10." +
                 std::to_string(110 + rules_added++ % 8) + ".0.0/24 -j DROP");
            break;
          case 3:
            both(rng.next_below(2) == 0 ? "ipset add fuzzset 10.10.1.88"
                                        : "ipset del fuzzset 10.10.1.88");
            break;
          case 4: {
            // FDB churn on the side bridge.
            both("bridge fdb add " +
                 net::MacAddr::from_id(0x900 + rng.next_below(4)).to_string() +
                 " dev p9");
            break;
          }
          default: {
            // Conntrack aging: jump both clocks far past the UDP timeout.
            std::uint64_t now =
                on_dut.kernel.now_ns() + 600ull * 1'000'000'000ull;
            on_dut.kernel.set_now_ns(now);
            off_dut.kernel.set_now_ns(now);
            break;
          }
        }
        on_ctl.run_once();
        off_ctl.run_once();
      }

      int prefix = static_cast<int>(rng.next_below(24));  // some unrouted
      auto flow = static_cast<std::uint16_t>(rng.next_below(48));
      net::Packet p_on = on_dut.packet_to_prefix(prefix, flow);
      net::Packet p_off = off_dut.packet_to_prefix(prefix, flow);
      if (rng.next_below(5) == 0) {
        // Occasionally source from the ipset-blacklisted host.
        auto src = net::Ipv4Addr::parse("10.10.1.77").value();
        for (net::Packet* p : {&p_on, &p_off}) {
          net::Ipv4View ip(p->data() + net::kEthHdrLen);
          ip.set_src(src);
          ip.update_checksum();
        }
      }
      kern::CycleTrace t1, t2;
      on_dut.kernel.rx(on_dut.eth0_ifindex(), std::move(p_on), t1);
      off_dut.kernel.rx(off_dut.eth0_ifindex(), std::move(p_off), t2);
      ASSERT_EQ(on_dut.tx_eth1.size(), off_dut.tx_eth1.size())
          << "seed " << seed << " pkt " << pkt_i;
      if (!on_dut.tx_eth1.empty()) {
        const net::Packet& a = on_dut.tx_eth1.back();
        const net::Packet& b = off_dut.tx_eth1.back();
        ASSERT_EQ(a.size(), b.size()) << "seed " << seed << " pkt " << pkt_i;
        ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size()))
            << "seed " << seed << " pkt " << pkt_i;
      }
    }

    compare_counters(on_dut.kernel, off_dut.kernel,
                     ("seed " + std::to_string(seed)).c_str());
    compare_attachments(on_ctl, off_ctl,
                        ("seed " + std::to_string(seed)).c_str());

    // The run must actually have exercised the machinery under test: real
    // hits, and real invalidations from the config churn.
    engine::FlowCacheStats fs = on_ctl.deployer().flow_cache_stats();
    EXPECT_GT(fs.hits, 0u) << "seed " << seed;
    EXPECT_GT(fs.invalidations + fs.replay_mismatch, 0u) << "seed " << seed;
    EXPECT_EQ(on_ctl.deployer().flow_cache_stats().hits,
              on_dut.kernel.metrics().value("flowcache.hits"))
        << "seed " << seed;
  }
}

TEST(FlowCacheDiff, FaultRollbackFlushesEpochAndStaysEquivalent) {
  // The cached DUT under an aggressive fault schedule — deploys failing,
  // devices rolling back to the PASS slow path, backoff retries recovering —
  // against a pure-Linux twin. Every rollback swap must bump the flow epoch
  // so no stale verdict survives a program change, and the packet streams
  // must never diverge.
  constexpr std::uint64_t kSeeds[] = {7, 21};
  constexpr const char* kSchedule =
      "loader.load:p=0.25;verifier.verify:p=0.2;maps.update:p=0.2;"
      "deployer.attach:p=0.15";
  std::uint64_t total_failures = 0;

  for (std::uint64_t seed : kSeeds) {
    util::FaultScope faults(seed);
    ASSERT_TRUE(faults->install_schedule(kSchedule).ok());
    util::Rng rng(seed * 3371);
    RouterDut cached, plain;
    cached.add_prefixes(12);
    plain.add_prefixes(12);

    auto both = [&](const std::string& cmd) {
      auto s1 = kern::run_command(cached.kernel, cmd);
      auto s2 = kern::run_command(plain.kernel, cmd);
      ASSERT_EQ(s1.ok(), s2.ok()) << "seed " << seed << " cmd " << cmd;
    };

    ControllerOptions opts;
    opts.flow_cache = true;
    Controller controller(cached.kernel, opts);
    controller.start();

    auto advance_to_retry = [&] {
      HealthStatus h = controller.health();
      if (h.next_retry_ns == 0) return;
      cached.kernel.set_now_ns(h.next_retry_ns);
      plain.kernel.set_now_ns(h.next_retry_ns);
      controller.run_once();
    };

    // The coherence invariant under test: whenever a deploy reaction changes
    // the active program on a device — successful swap or failed-deploy
    // rollback to PASS — the flow epoch must have advanced past the value any
    // cache entry recorded under the old program carries. (A deploy that
    // fails before touching the device, or a repeat degrade while already
    // parked on PASS, changes nothing and owes no flush.)
    std::uint64_t last_prog[2] = {0, 0};
    std::uint64_t last_epoch[2] = {0, 0};
    bool observed_change = false;
    auto check_epochs = [&](int pkt_i) {
      const char* devs[2] = {"eth0", "eth1"};
      for (int d = 0; d < 2; ++d) {
        ebpf::Attachment* att =
            controller.deployer().attachment(devs[d], ebpf::HookType::kXdp);
        if (!att) continue;
        std::uint64_t prog = att->active_prog_id();
        std::uint64_t epoch = att->flow_epoch();
        if (last_prog[d] != 0 && prog != last_prog[d]) {
          EXPECT_GT(epoch, last_epoch[d])
              << "fault seed " << seed << " pkt " << pkt_i << " " << devs[d];
          observed_change = true;
        }
        last_prog[d] = prog;
        last_epoch[d] = epoch;
      }
    };
    check_epochs(-1);

    int rules = 0;
    for (int pkt_i = 0; pkt_i < 300; ++pkt_i) {
      if (pkt_i % 40 == 20 && rules < 5) {
        both("iptables -A FORWARD -d 10." + std::to_string(108 + rules++) +
             ".0.0/24 -j DROP");
        controller.run_once();
        check_epochs(pkt_i);
      }
      if (pkt_i % 60 == 45) {
        advance_to_retry();
        check_epochs(pkt_i);
      }

      int prefix = static_cast<int>(rng.next_below(12));
      auto flow = static_cast<std::uint16_t>(rng.next_below(24));
      kern::CycleTrace t1, t2;
      cached.kernel.rx(cached.eth0_ifindex(),
                       cached.packet_to_prefix(prefix, flow), t1);
      plain.kernel.rx(plain.eth0_ifindex(),
                      plain.packet_to_prefix(prefix, flow), t2);
      ASSERT_EQ(cached.tx_eth1.size(), plain.tx_eth1.size())
          << "fault seed " << seed << " pkt " << pkt_i;
      if (!cached.tx_eth1.empty()) {
        const net::Packet& a = cached.tx_eth1.back();
        const net::Packet& b = plain.tx_eth1.back();
        ASSERT_EQ(a.size(), b.size()) << "fault seed " << seed;
        ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size()))
            << "fault seed " << seed << " pkt " << pkt_i;
      }
    }

    // Policy drops: fast-path verdicts map to xdp_drop; the twin counts
    // policy. Totals must agree.
    auto drop_of = [](const kern::Kernel& k, kern::Drop r) {
      auto it = k.counters().drops.find(r);
      return it == k.counters().drops.end() ? 0ull : it->second;
    };
    std::uint64_t cached_policy =
        drop_of(cached.kernel, kern::Drop::kPolicy) +
        drop_of(cached.kernel, kern::Drop::kXdpDrop) +
        drop_of(cached.kernel, kern::Drop::kTcDrop);
    EXPECT_EQ(cached_policy, drop_of(plain.kernel, kern::Drop::kPolicy))
        << "fault seed " << seed;
    EXPECT_EQ(drop_of(cached.kernel, kern::Drop::kNoRoute),
              drop_of(plain.kernel, kern::Drop::kNoRoute))
        << "fault seed " << seed;

    total_failures += controller.health().deploy_failures;
    EXPECT_TRUE(observed_change) << "fault seed " << seed;

    faults->clear_all();
    for (int i = 0; i < 3 && controller.health().degraded; ++i) {
      advance_to_retry();
      check_epochs(300);
    }
    EXPECT_FALSE(controller.health().degraded) << "fault seed " << seed;
  }
  // The schedule really fired somewhere across the seeds, so the epoch
  // assertions above covered genuine rollback swaps, not only clean deploys.
  EXPECT_GT(total_failures, 0u);
}

}  // namespace
}  // namespace linuxfp::core
