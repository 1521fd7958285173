// Randomized fast/slow equivalence fuzzing (the paper's §IV-B2 contract,
// stress form): random iptables rule sets (prefixes, protocols, ports,
// negation, interfaces, ipsets, user chains) and random traffic — an
// accelerated DUT and a pure-Linux twin must emit identical packet streams
// and identical drop verdicts, packet for packet.
#include <gtest/gtest.h>

#include "core/controller.h"
#include "tests/kernel/test_topo.h"
#include "util/fault.h"
#include "util/rng.h"

namespace linuxfp::core {
namespace {

using linuxfp::testing::RouterDut;

std::string random_prefix(util::Rng& rng) {
  return "10." + std::to_string(100 + rng.next_below(20)) + "." +
         std::to_string(rng.next_below(4)) + ".0/24";
}

std::string random_rule(util::Rng& rng, bool with_set) {
  std::string rule = "iptables -A FORWARD";
  if (rng.next_below(3) == 0) rule += " !";
  switch (rng.next_below(4)) {
    case 0: rule += " -s 10.10.1.0/24"; break;
    case 1: rule += " -s 10.10.9.0/24"; break;
    default: rule += " -d " + random_prefix(rng); break;
  }
  if (rng.next_below(2) == 0) {
    rule += rng.next_below(2) == 0 ? " -p udp" : " -p tcp";
    if (rng.next_below(2) == 0) {
      rule += " --dport " + std::to_string(rng.next_below(3) == 0 ? 7 : 80);
    }
  }
  if (rng.next_below(4) == 0) rule += " -i eth0";
  if (rng.next_below(5) == 0) rule += " -o eth1";
  if (with_set && rng.next_below(4) == 0) {
    rule = "iptables -A FORWARD -m set --match-set fuzzset src";
  }
  rule += rng.next_below(3) == 0 ? " -j ACCEPT" : " -j DROP";
  return rule;
}

TEST(EquivalenceFuzz, RandomFirewallsIdenticalVerdicts) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    util::Rng rng(seed * 7919);
    RouterDut fast, slow;
    fast.add_prefixes(30);
    slow.add_prefixes(30);

    auto both = [&](const std::string& cmd) {
      auto s1 = kern::run_command(fast.kernel, cmd);
      auto s2 = kern::run_command(slow.kernel, cmd);
      ASSERT_EQ(s1.ok(), s2.ok()) << cmd;
    };
    both("ipset create fuzzset hash:ip");
    for (int i = 0; i < 5; ++i) {
      both("ipset add fuzzset 10.10.1." + std::to_string(2 + i * 3));
    }
    int n_rules = 1 + static_cast<int>(rng.next_below(12));
    for (int i = 0; i < n_rules; ++i) {
      both(random_rule(rng, true));
    }
    if (rng.next_below(3) == 0) both("iptables -P FORWARD DROP");

    Controller controller(fast.kernel);
    controller.start();

    for (int pkt_i = 0; pkt_i < 150; ++pkt_i) {
      int prefix = static_cast<int>(rng.next_below(30));
      auto flow = static_cast<std::uint16_t>(rng.next_below(64));
      // Occasionally use a blacklisted-by-set source.
      net::Packet pf = fast.packet_to_prefix(prefix, flow);
      net::Packet ps = slow.packet_to_prefix(prefix, flow);
      if (rng.next_below(4) == 0) {
        net::Ipv4View ipf(pf.data() + net::kEthHdrLen);
        net::Ipv4View ips(ps.data() + net::kEthHdrLen);
        auto src = net::Ipv4Addr::parse("10.10.1.5").value();
        ipf.set_src(src);
        ipf.update_checksum();
        ips.set_src(src);
        ips.update_checksum();
      }
      kern::CycleTrace tf, ts;
      fast.kernel.rx(fast.eth0_ifindex(), std::move(pf), tf);
      slow.kernel.rx(slow.eth0_ifindex(), std::move(ps), ts);
      ASSERT_EQ(fast.tx_eth1.size(), slow.tx_eth1.size())
          << "seed " << seed << " pkt " << pkt_i;
      if (!fast.tx_eth1.empty()) {
        const net::Packet& a = fast.tx_eth1.back();
        const net::Packet& b = slow.tx_eth1.back();
        ASSERT_EQ(a.size(), b.size());
        ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size()))
            << "seed " << seed << " pkt " << pkt_i;
      }
    }
    // The accelerated DUT must actually have used its fast path for the
    // common case (unless the random policy dropped literally everything).
    if (!fast.tx_eth1.empty()) {
      EXPECT_GT(fast.kernel.counters().fast_path_packets, 0u)
          << "seed " << seed;
    }

    // Counter coherence (observability contract): the accelerated DUT's
    // per-reason drop totals must agree with the pure-Linux twin's once
    // fast-path verdicts are mapped back to their slow-path reason —
    // a policy drop executed in XDP/TC counts as xdp_drop/tc_drop on the
    // fast DUT but policy on the twin.
    auto drop_of = [](const kern::Kernel& k, kern::Drop r) {
      auto it = k.counters().drops.find(r);
      return it == k.counters().drops.end() ? 0ull : it->second;
    };
    std::uint64_t fast_policy = drop_of(fast.kernel, kern::Drop::kPolicy) +
                                drop_of(fast.kernel, kern::Drop::kXdpDrop) +
                                drop_of(fast.kernel, kern::Drop::kTcDrop);
    EXPECT_EQ(fast_policy, drop_of(slow.kernel, kern::Drop::kPolicy))
        << "seed " << seed;
    for (kern::Drop r :
         {kern::Drop::kNoRoute, kern::Drop::kMalformed, kern::Drop::kLinkDown,
          kern::Drop::kTtlExceeded, kern::Drop::kNotForUs}) {
      EXPECT_EQ(drop_of(fast.kernel, r), drop_of(slow.kernel, r))
          << "seed " << seed << " reason " << kern::drop_name(r);
    }

    // And the metrics registry's drop.* counters mirror KernelCounters
    // exactly on both DUTs — one event, two coherent views.
    for (const kern::Kernel* k : {&fast.kernel, &slow.kernel}) {
      for (const auto& [reason, count] : k->counters().drops) {
        EXPECT_EQ(k->metrics().value(std::string("drop.") +
                                     kern::drop_name(reason)),
                  count)
            << "seed " << seed << " reason " << kern::drop_name(reason);
      }
    }
  }
}

TEST(EquivalenceFuzz, FaultScheduleNeverBreaksEquivalence) {
  // The §IV-B2 contract must hold while the deploy pipeline is actively
  // failing: with injected faults at every registered point, the accelerated
  // DUT — cycling through fast path, rollback, PASS degradation and backoff
  // recovery — must stay packet-for-packet identical to the pure-Linux twin.
  // Any failure message carries the fault seed: rerun with
  //   ctest -R EquivalenceFuzz.FaultScheduleNeverBreaksEquivalence
  // after setting that seed in kFaultSeeds for a one-command repro.
  constexpr std::uint64_t kFaultSeeds[] = {11, 22, 33, 44};
  constexpr const char* kSchedule =
      "loader.load:p=0.25;verifier.verify:p=0.2;maps.update:p=0.2;"
      "deployer.attach:p=0.15;maps.lookup:p=0.05";
  std::uint64_t total_deploy_failures = 0;

  for (std::uint64_t seed : kFaultSeeds) {
    util::FaultScope faults(seed);
    ASSERT_TRUE(faults->install_schedule(kSchedule).ok()) << "seed " << seed;
    util::Rng rng(seed * 6133);
    RouterDut fast, slow;
    fast.add_prefixes(20);
    slow.add_prefixes(20);

    auto both = [&](const std::string& cmd) {
      auto s1 = kern::run_command(fast.kernel, cmd);
      auto s2 = kern::run_command(slow.kernel, cmd);
      ASSERT_EQ(s1.ok(), s2.ok()) << "seed " << seed << " cmd " << cmd;
    };

    Controller controller(fast.kernel);
    controller.start();

    // Keeps both kernels' clocks in lockstep and fires due backoff retries.
    auto advance_to_retry = [&] {
      HealthStatus h = controller.health();
      if (h.next_retry_ns == 0) return;
      fast.kernel.set_now_ns(h.next_retry_ns);
      slow.kernel.set_now_ns(h.next_retry_ns);
      controller.run_once();
    };

    int rules_added = 0;
    for (int pkt_i = 0; pkt_i < 300; ++pkt_i) {
      // Mid-stream config churn: rule/route changes force redeploys right
      // into the armed fault schedule.
      if (pkt_i % 40 == 20 && rules_added < 5) {
        both(random_rule(rng, false));
        ++rules_added;
        controller.run_once();
      }
      if (pkt_i % 60 == 30) {
        advance_to_retry();
      }
      int prefix = static_cast<int>(rng.next_below(20));
      auto flow = static_cast<std::uint16_t>(rng.next_below(32));
      kern::CycleTrace tf, ts;
      fast.kernel.rx(fast.eth0_ifindex(),
                     fast.packet_to_prefix(prefix, flow), tf);
      slow.kernel.rx(slow.eth0_ifindex(),
                     slow.packet_to_prefix(prefix, flow), ts);
      ASSERT_EQ(fast.tx_eth1.size(), slow.tx_eth1.size())
          << "fault seed " << seed << " pkt " << pkt_i;
      if (!fast.tx_eth1.empty()) {
        const net::Packet& a = fast.tx_eth1.back();
        const net::Packet& b = slow.tx_eth1.back();
        ASSERT_EQ(a.size(), b.size()) << "fault seed " << seed;
        ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size()))
            << "fault seed " << seed << " pkt " << pkt_i;
      }
    }

    // A datapath program was in place throughout: nothing ever aborted.
    for (const char* dev : {"eth0", "eth1"}) {
      ebpf::Attachment* att =
          controller.deployer().attachment(dev, ebpf::HookType::kXdp);
      if (att) {
        EXPECT_EQ(att->stats().aborted, 0u) << "fault seed " << seed;
      }
    }

    total_deploy_failures += controller.health().deploy_failures;

    // Clear the schedule (injector stays armed): pending retries must now
    // succeed and the controller must report full recovery.
    faults->clear_all();
    for (int i = 0; i < 3 && controller.health().degraded; ++i) {
      advance_to_retry();
    }
    HealthStatus h = controller.health();
    EXPECT_FALSE(h.degraded) << "fault seed " << seed;
    if (h.deploy_failures > 0) {
      EXPECT_GE(h.recoveries, 1u) << "fault seed " << seed;
    }
    // Still equivalent after recovery.
    kern::CycleTrace tf, ts;
    fast.kernel.rx(fast.eth0_ifindex(), fast.packet_to_prefix(1, 7), tf);
    slow.kernel.rx(slow.eth0_ifindex(), slow.packet_to_prefix(1, 7), ts);
    ASSERT_EQ(fast.tx_eth1.size(), slow.tx_eth1.size())
        << "fault seed " << seed << " post-recovery";
  }
  // The schedule actually bit somewhere across the seeds — otherwise this
  // test silently stopped exercising the rollback machinery.
  EXPECT_GT(total_deploy_failures, 0u);
}

TEST(EquivalenceFuzz, RandomTrafficShapesNeverDesync) {
  // Truncated/fragmented/odd-TTL/multicast traffic mixed in: both DUTs must
  // agree on every emission even when everything punts.
  util::Rng rng(424242);
  RouterDut fast, slow;
  fast.add_prefixes(8);
  slow.add_prefixes(8);
  for (const char* cmd :
       {"iptables -A FORWARD -p tcp --dport 23 -j DROP",
        "iptables -A FORWARD -d 10.101.0.0/24 -j DROP"}) {
    ASSERT_TRUE(kern::run_command(fast.kernel, cmd).ok());
    ASSERT_TRUE(kern::run_command(slow.kernel, cmd).ok());
  }
  Controller controller(fast.kernel);
  controller.start();

  for (int i = 0; i < 400; ++i) {
    net::Packet pkt = fast.packet_to_prefix(static_cast<int>(rng.next_below(8)),
                                            static_cast<std::uint16_t>(i));
    switch (rng.next_below(6)) {
      case 0: {  // fragment
        net::Ipv4View ip(pkt.data() + net::kEthHdrLen);
        ip.set_frag_field(0x2000 | static_cast<std::uint16_t>(rng.next_below(8)));
        ip.update_checksum();
        break;
      }
      case 1: {  // low TTL
        net::Ipv4View ip(pkt.data() + net::kEthHdrLen);
        ip.set_ttl(static_cast<std::uint8_t>(rng.next_below(3)));
        ip.update_checksum();
        break;
      }
      case 2: {  // multicast destination MAC
        net::EthernetView eth(pkt.data());
        eth.set_dst(net::MacAddr::parse("01:00:5e:00:00:01").value());
        break;
      }
      case 3: {  // truncated
        pkt.resize_data(net::kEthHdrLen + rng.next_below(20));
        break;
      }
      case 4: {  // IP options (IHL != 5)
        pkt.data()[net::kEthHdrLen] = 0x46;
        net::Ipv4View ip(pkt.data() + net::kEthHdrLen);
        ip.update_checksum();
        break;
      }
      default: break;  // normal packet
    }
    net::Packet copy = pkt;
    kern::CycleTrace tf, ts;
    fast.kernel.rx(fast.eth0_ifindex(), std::move(pkt), tf);
    slow.kernel.rx(slow.eth0_ifindex(), std::move(copy), ts);
    ASSERT_EQ(fast.tx_eth1.size(), slow.tx_eth1.size()) << "pkt " << i;
  }
}

}  // namespace
}  // namespace linuxfp::core
