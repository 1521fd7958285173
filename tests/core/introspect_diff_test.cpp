// Differential test of incremental introspection: the view poll() keeps
// current by applying each change event in place must equal, after every
// poll, the view a fresh initial_sync() dumps from the kernel. Seeded churn
// covers every object kind the kernel publishes.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/controller.h"
#include "core/introspect.h"
#include "kernel/commands.h"
#include "kernel/kernel.h"
#include "tests/kernel/test_topo.h"
#include "util/fault.h"
#include "util/rng.h"

namespace linuxfp::core {
namespace {

// Routes and neighbours have no defined dump order; rules compare in chain
// order and services in the kernel's order (the synthesized code lists the
// VIPs in that order).
std::vector<RouteObject> routes(std::vector<RouteObject> r) {
  std::sort(r.begin(), r.end(), [](const auto& a, const auto& b) {
    return std::tie(a.dst, a.metric) < std::tie(b.dst, b.metric);
  });
  return r;
}

std::vector<NeighObject> neighbors(std::vector<NeighObject> n) {
  std::sort(n.begin(), n.end(),
            [](const auto& a, const auto& b) { return a.ip < b.ip; });
  return n;
}

void expect_same_view(const WorldView& got, const WorldView& want,
                      const std::string& where) {
  EXPECT_TRUE(got.links == want.links) << where << ": links";
  EXPECT_TRUE(routes(got.routes) == routes(want.routes)) << where << ": routes";
  EXPECT_TRUE(neighbors(got.neighbors) == neighbors(want.neighbors))
      << where << ": neighbors";
  EXPECT_TRUE(got.chains == want.chains) << where << ": chains";
  EXPECT_TRUE(got.sets == want.sets) << where << ": sets";
  EXPECT_TRUE(got.services == want.services) << where << ": services";
  EXPECT_TRUE(got.sysctls == want.sysctls) << where << ": sysctls";
}

// A DUT with three routed interfaces and four bridge-port candidates.
void setup(kern::Kernel& k) {
  for (const char* d : {"eth0", "eth1", "eth2", "p0", "p1", "p2", "p3"}) {
    k.add_phys_dev(d);
  }
  for (const char* cmd :
       {"ip link set eth0 up", "ip addr add 10.10.1.1/24 dev eth0",
        "sysctl -w net.ipv4.ip_forward=1"}) {
    ASSERT_TRUE(kern::run_command(k, cmd).ok()) << cmd;
  }
}

// Seeded config churn over small name spaces, so that adds, deletes and
// their failures all occur.
class Churn {
 public:
  explicit Churn(std::uint64_t seed) : rng_(seed) {}

  std::string next(const kern::Kernel& k) {
    const std::string eth = "eth" + num(3);
    const std::string port = "p" + num(4);
    const std::string br = "br" + num(2);
    const std::string chain = "USER" + num(3);
    const std::string set = "s" + num(2);
    const std::string vip = "10.96.0." + num(3, 1) + ":80";
    const std::string backend = "10.1.1." + num(2, 1) + ":8080";
    const std::string prefix = "10.200." + num(6) + ".0/24";
    const std::string metric = pick(2) ? " metric " + num(3, 0, 10) : "";
    const std::string host = "10.10.1." + num(6, 2);
    const std::string veth = "v" + num(2);
    switch (pick(40)) {
      case 0: return "ip link set " + eth + (pick(2) ? " up" : " down");
      case 1: return "ip link set " + port + (pick(2) ? " up" : " down");
      case 2: return "ip addr add 10.5" + num(3) + ".0.1/24 dev " + eth;
      case 3: return "ip addr del 10.5" + num(3) + ".0.1/24 dev " + eth;
      case 4:
      case 5:
        return "ip route " + std::string(pick(3) ? "add " : "replace ") +
               prefix + " via 10.10.1." + num(3, 2) + " dev " + eth + metric;
      case 6: return "ip route del " + prefix + metric;
      case 7:
        return "ip neigh add " + host + " lladdr 02:00:00:00:00:0" +
               num(8, 1) + " dev " + (pick(3) ? eth : veth) +
               (pick(2) ? " nud permanent" : "");
      case 8: return "ip neigh del " + host;
      case 9:
      case 10:
        return "iptables -A FORWARD -s 10.77.0." + num(250, 1) + " -j DROP";
      case 11: return "iptables -A FORWARD -p tcp --dport 80 -j ACCEPT";
      case 12: return "iptables -A FORWARD -o " + eth + " -j DROP";
      case 13:
        return "iptables -A FORWARD -m set --match-set " + set +
               " src -j DROP";
      case 14:
        return "iptables -A FORWARD -m state --state ESTABLISHED -j ACCEPT";
      case 15:
        return "iptables -I FORWARD " + num(4, 1) + " -s 10.78.0." +
               num(250, 1) + " -j ACCEPT";
      case 16:
      case 17: return "iptables -D FORWARD " + num(4, 1);
      case 18: return "iptables -F " + (pick(2) ? chain : "FORWARD");
      case 19: return "iptables -N " + chain;
      case 20: return "iptables -X " + chain;
      case 21: return "iptables -A FORWARD -j " + chain;
      case 22:
        return "iptables -A " + chain + " -p udp --sport 53 -j RETURN";
      case 23: return "iptables -D " + chain + " 1";
      case 24:
        return std::string("iptables -P FORWARD ") +
               (pick(2) ? "DROP" : "ACCEPT");
      case 25: return "ipset create " + set + " hash:ip";
      case 26: return "ipset add " + set + " 10.9.0." + num(4, 1);
      case 27: return "ipset del " + set + " 10.9.0." + num(4, 1);
      case 28: return "ipset destroy " + set;
      case 29: return "ipvsadm -A -t " + vip + " -s " + (pick(2) ? "rr" : "sh");
      case 30: return "ipvsadm -D -t " + vip;
      case 31: return "ipvsadm -a -t " + vip + " -r " + backend;
      case 32: return "ipvsadm -d -t " + vip + " -r " + backend;
      case 33: return "brctl addbr " + br;
      case 34: return "brctl addif " + br + " " + port;
      case 35: return "brctl delif " + br + " " + port;
      case 36: return "brctl stp " + br + (pick(2) ? " on" : " off");
      case 37:
        return "bridge vlan add dev " + port + " vid " + num(3, 10) +
               (pick(2) ? " pvid untagged" : "");
      case 38:
        // A veth enslaved, given neighbours, and deleted while still a
        // port.
        if (!k.dev_by_name(veth)) {
          return "ip link add " + veth + " type veth peer name w" +
                 std::to_string(peers_++);
        }
        return pick(2) ? "ip link set " + veth + " master " + br
                       : "ip link del " + veth;
      default:
        return pick(2) ? "sysctl -w net.ipv4.ip_forward=" + num(2)
                       : "sysctl -w net.bridge.bridge-nf-call-iptables=" +
                             num(2);
    }
  }

 private:
  int pick(int n) { return static_cast<int>(rng_.next_below(n)); }
  // A number from {base, base + step, ..., base + (n - 1) * step}.
  std::string num(int n, int base = 0, int step = 1) {
    return std::to_string(base + step * pick(n));
  }

  util::Rng rng_;
  int peers_ = 0;
};

// The command's family, e.g. "iptables -X" or "brctl addif".
std::string family(const std::string& cmd) {
  const std::size_t first = cmd.find(' ');
  const std::size_t second = cmd.find(' ', first + 1);
  std::string f = cmd.substr(0, second);
  if (f == "ip link" || f == "ip route" || f == "ip neigh" || f == "ip addr") {
    f = cmd.substr(0, cmd.find(' ', second + 1));
  }
  return f;
}

const std::set<std::string>& required_families() {
  static const std::set<std::string> kFamilies = {
      "ip link set",     "ip link add",   "ip link del",   "ip addr add",
      "ip addr del",     "ip route add",  "ip route replace",
      "ip route del",    "ip neigh add",  "ip neigh del",  "iptables -A",
      "iptables -I",     "iptables -D",   "iptables -F",   "iptables -N",
      "iptables -X",     "iptables -P",   "ipset create",  "ipset add",
      "ipset del",       "ipset destroy", "ipvsadm -A",    "ipvsadm -D",
      "ipvsadm -a",      "ipvsadm -d",    "brctl addbr",   "brctl addif",
      "brctl delif",     "brctl stp",     "bridge vlan",   "sysctl -w"};
  return kFamilies;
}

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8};
constexpr int kPolls = 60;

TEST(IntrospectDiff, EventsKeepViewEqualToFreshDump) {
  std::set<std::string> succeeded;
  for (std::uint64_t seed : kSeeds) {
    kern::Kernel k("dut");
    setup(k);
    ServiceIntrospection si(k.netlink());
    ServiceIntrospection fresh(k.netlink());
    si.initial_sync();
    Churn churn(seed);
    util::Rng batch(seed * 7919);
    for (int p = 0; p < kPolls; ++p) {
      std::string last;
      const int n = 1 + static_cast<int>(batch.next_below(8));
      for (int i = 0; i < n; ++i) {
        last = churn.next(k);
        if (kern::run_command(k, last).ok()) succeeded.insert(family(last));
      }
      si.poll();
      fresh.initial_sync();
      expect_same_view(si.view(), fresh.view(),
                       "seed " + std::to_string(seed) + " poll " +
                           std::to_string(p) + " after `" + last + "`");
    }
    EXPECT_EQ(si.dump_failures(), 0u);
  }
  // The churn really exercised every published kind.
  for (const std::string& f : required_families()) {
    EXPECT_TRUE(succeeded.count(f)) << f << " never succeeded";
  }
}

// Each table of `got` equals either the fresh dump's or the stale one's.
template <typename Table>
bool fresh_or_stale(const Table& got, const Table& fresh, const Table& stale) {
  return got == fresh || got == stale;
}

// Fault twin: dumps fail during start-up and during some polls. A table
// whose dump failed keeps its contents, never takes a torn half of the
// queued events, and re-syncs at a later poll; after the first clean poll
// the view equals a fresh dump again.
TEST(IntrospectDiff, FailedDumpsResyncAtFirstCleanPoll) {
  std::uint64_t failures = 0;
  for (std::uint64_t seed : kSeeds) {
    util::FaultScope faults(seed);
    kern::Kernel k("dut");
    setup(k);
    ServiceIntrospection si(k.netlink());
    ServiceIntrospection fresh(k.netlink());
    faults->fail_always(util::kFaultNetlinkDump);
    si.initial_sync();
    Churn churn(seed);
    util::Rng batch(seed * 7919);
    for (int p = 0; p < kPolls; ++p) {
      const bool faulted = p < 3 || batch.next_below(3) == 0;
      if (faulted) faults->fail_probability(util::kFaultNetlinkDump, 0.5);
      else faults->clear(util::kFaultNetlinkDump);
      const int n = 1 + static_cast<int>(batch.next_below(8));
      for (int i = 0; i < n; ++i) (void)kern::run_command(k, churn.next(k));
      const WorldView before = si.view();
      si.poll();
      {
        util::FaultSuppress clean;
        fresh.initial_sync();
      }
      const std::string where =
          "seed " + std::to_string(seed) + " poll " + std::to_string(p);
      if (!faulted) {
        expect_same_view(si.view(), fresh.view(), where);
        continue;
      }
      const WorldView& v = si.view();
      const WorldView& f = fresh.view();
      EXPECT_TRUE(fresh_or_stale(v.links, f.links, before.links)) << where;
      EXPECT_TRUE(fresh_or_stale(routes(v.routes), routes(f.routes),
                                 routes(before.routes)))
          << where;
      EXPECT_TRUE(fresh_or_stale(neighbors(v.neighbors),
                                 neighbors(f.neighbors),
                                 neighbors(before.neighbors)))
          << where;
      EXPECT_TRUE(fresh_or_stale(v.chains, f.chains, before.chains)) << where;
      EXPECT_TRUE(fresh_or_stale(v.sets, f.sets, before.sets)) << where;
      EXPECT_TRUE(fresh_or_stale(v.services, f.services, before.services))
          << where;
      EXPECT_TRUE(fresh_or_stale(v.sysctls, f.sysctls, before.sysctls))
          << where;
    }
    failures += si.dump_failures();
  }
  // Every start-up dump failed, and some re-syncs did too.
  EXPECT_GT(failures, 7u * std::size(kSeeds));
}

// What a reaction deployed.
struct Deploy {
  bool changed = false;
  std::size_t graphs = 0;
  std::size_t synthesized = 0;
  std::size_t programs = 0;
  std::size_t insns = 0;

  bool operator==(const Deploy&) const = default;
};

// One event of each published kind, then deletes, each followed by a
// reaction. With `fault`, every netlink dump fails from after start().
std::vector<Deploy> drive_one_event_of_each_kind(bool fault) {
  static const char* const kEvents[] = {
      "ip link set eth2 up",
      "ip addr add 10.10.3.1/24 dev eth2",
      "ip route add 10.200.0.0/24 via 10.10.2.2 dev eth1",
      "ip neigh add 10.10.3.2 lladdr 02:00:00:00:00:09 dev eth2 nud permanent",
      "ip neigh add 10.10.3.3 lladdr 02:00:00:00:00:0a dev eth2",
      "sysctl -w net.bridge.bridge-nf-call-iptables=1",
      "iptables -N USER1",
      "iptables -A USER1 -p tcp --dport 22 -j DROP",
      "iptables -A FORWARD -j USER1",
      "ipset create s0 hash:ip",
      "ipset add s0 10.9.0.1",
      "iptables -I FORWARD 1 -m set --match-set s0 src -j DROP",
      "ipvsadm -A -t 10.96.0.1:80 -s rr",
      "ipvsadm -a -t 10.96.0.1:80 -r 10.10.2.5:8080",
      "brctl addbr br0",
      "brctl addif br0 p0",
      "brctl stp br0 on",
      "bridge vlan add dev p0 vid 10 pvid untagged",
      "iptables -D FORWARD 2",
      "iptables -F USER1",
      "iptables -X USER1",
      "ipvsadm -d -t 10.96.0.1:80 -r 10.10.2.5:8080",
      "ipset del s0 10.9.0.1",
      "brctl delif br0 p0",
      "ip neigh del 10.10.3.2",
      "ip route del 10.200.0.0/24",
      "ip addr del 10.10.3.1/24 dev eth2",
  };
  util::FaultScope faults(18);
  testing::RouterDut dut;
  dut.add_prefixes(2);
  dut.kernel.add_phys_dev("eth2");
  dut.kernel.add_phys_dev("p0");
  Controller controller(dut.kernel);
  controller.start();
  if (fault) faults->fail_always(util::kFaultNetlinkDump);
  std::vector<Deploy> deploys;
  for (const char* cmd : kEvents) {
    dut.run(cmd);
    const Reaction r = controller.run_once();
    deploys.push_back({r.changed, r.graphs, r.synthesized_graphs, r.programs,
                       r.insns});
  }
  EXPECT_EQ(controller.health().introspection_errors, 0u);
  ServiceIntrospection fresh(dut.kernel.netlink());
  {
    util::FaultSuppress clean;
    fresh.initial_sync();
  }
  expect_same_view(controller.view(), fresh.view(),
                   fault ? "faulted" : "clean");
  return deploys;
}

TEST(Introspection, EventsNeverDump) {
  const std::vector<Deploy> clean = drive_one_event_of_each_kind(false);
  const std::vector<Deploy> faulted = drive_one_event_of_each_kind(true);
  EXPECT_TRUE(clean == faulted);
}

}  // namespace
}  // namespace linuxfp::core
