// Differential oracle for the verifier's proofs (DESIGN.md §8). Every program
// the controller and the Polycube baseline load runs on a packet corpus
// twice: as loaded, decoded from its proofs (proven loads and stores, stack
// zeroed from the program's floor up), and as a twin decoded without them
// (every access checked, the whole frame zeroed). The twin runs on a second,
// identically built scenario, so helpers that write kernel state (conntrack,
// FDB learning) see the same state on both sides. Results, packet bytes and
// the flow-cache recorder's observations must be identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/polycube/polycube.h"
#include "core/controller.h"
#include "ebpf/loader.h"
#include "ebpf/vm.h"
#include "engine/flowcache.h"
#include "k8s/cluster.h"
#include "kernel/commands.h"
#include "net/headers.h"
#include "sim/testbed.h"
#include "tests/kernel/test_topo.h"

namespace linuxfp::core {
namespace {

// One loaded program table and the device it serves.
struct Hook {
  std::string label;
  ebpf::Attachment* att = nullptr;
  int ifindex = 0;
  net::MacAddr mac;
};

// Addresses the corpus is built from.
struct Traffic {
  net::MacAddr src_mac = net::MacAddr::from_id(0x501);
  net::Ipv4Addr src_ip = net::Ipv4Addr::parse("10.10.1.2").value();
  net::Ipv4Addr routed_dst = net::Ipv4Addr::parse("10.100.0.9").value();
  net::Ipv4Addr dut_ip = net::Ipv4Addr::parse("10.10.1.1").value();
  net::Ipv4Addr denied_src = net::Ipv4Addr::parse("10.66.0.1").value();
};

class Scenario {
 public:
  virtual ~Scenario() = default;
  virtual kern::Kernel& kernel() = 0;
  virtual std::vector<Hook> hooks() = 0;
  Traffic traffic;
};

// Every attachment `ctl` deployed on the devices of `kernel`.
std::vector<Hook> controller_hooks(kern::Kernel& kernel, Controller& ctl) {
  std::vector<Hook> out;
  for (kern::NetDevice* dev : kernel.devices()) {
    for (ebpf::HookType hook : {ebpf::HookType::kXdp,
                                ebpf::HookType::kTcIngress,
                                ebpf::HookType::kTcEgress}) {
      ebpf::Attachment* att = ctl.deployer().attachment(dev->name(), hook);
      if (att) {
        out.push_back({dev->name() + "/" + ebpf::hook_type_name(hook), att,
                       dev->ifindex(), dev->mac()});
      }
    }
  }
  return out;
}

void run_all(kern::Kernel& kernel, const std::vector<std::string>& cmds) {
  for (const std::string& cmd : cmds) {
    auto st = kern::run_command(kernel, cmd);
    ASSERT_TRUE(st.ok()) << cmd << " — " << st.error().message;
  }
}

// The router and gateway of the paper's line topology (sim::LinuxTestbed),
// with extra commands run through the testbed so the controller reacts.
class TestbedScenario : public Scenario {
 public:
  TestbedScenario(const sim::ScenarioConfig& cfg,
                  const std::vector<std::string>& cmds)
      : dut_(cfg) {
    for (const std::string& cmd : cmds) dut_.run(cmd);
    traffic.denied_src =
        net::Ipv4Addr::parse(sim::LinuxTestbed::blacklist_address(0)).value();
  }
  kern::Kernel& kernel() override { return dut_.kernel(); }
  std::vector<Hook> hooks() override {
    return controller_hooks(dut_.kernel(), *dut_.controller());
  }

 private:
  sim::LinuxTestbed dut_;
};

// The container host of the reaction storm: routed uplinks, a bridge with
// pod ports (bridge-port TC programs) and br_netfilter, so bridged traffic
// also runs the FORWARD chain; without br_netfilter, as perfbench's storm
// host runs, the pod ports only bridge.
class StormScenario : public Scenario {
 public:
  explicit StormScenario(bool br_netfilter = true) {
    for (const char* d : {"eth0", "eth1", "eth2", "eth3"}) {
      kernel_.add_phys_dev(d).set_phys_tx([](net::Packet&&) {});
    }
    std::vector<std::string> cmds = {
        "ip link set eth0 up", "ip link set eth1 up", "ip link set eth2 up",
        "ip link set eth3 up",
        "ip addr add 10.10.1.1/24 dev eth0",
        "ip addr add 10.10.2.1/24 dev eth1",
        "ip addr add 10.10.3.1/24 dev eth2",
        "ip addr add 10.10.4.1/24 dev eth3",
        "sysctl -w net.ipv4.ip_forward=1",
        std::string("sysctl -w net.bridge.bridge-nf-call-iptables=") +
            (br_netfilter ? "1" : "0"),
        "ip neigh add 10.10.2.2 lladdr " +
            net::MacAddr::from_id(0x601).to_string() +
            " dev eth1 nud permanent",
        "ip route add 10.100.0.0/24 via 10.10.2.2 dev eth1",
        "iptables -A FORWARD -s 10.66.0.1 -j DROP",
        "iptables -A FORWARD -p tcp --dport 23 -j DROP",
        "ip link add br0 type bridge", "ip link set br0 up"};
    for (int i = 0; i < 3; ++i) {
      const std::string n = std::to_string(i);
      cmds.push_back("ip link add pod" + n + " type veth peer name ns" + n);
      cmds.push_back("ip link set pod" + n + " up");
      cmds.push_back("ip link set pod" + n + " master br0");
    }
    run_all(kernel_, cmds);
    ControllerOptions opts;
    opts.attach_bridge_ports = true;
    controller_ = std::make_unique<Controller>(kernel_, opts);
    controller_->start();
    // The bridge learns the neighbour on pod0 and the corpus's sender on
    // pod1, so the corpus frame toward the neighbour is known unicast there.
    net::FlowKey f;
    f.src_ip = traffic.src_ip;
    f.dst_ip = traffic.dut_ip;
    const net::MacAddr bcast = net::MacAddr::parse("ff:ff:ff:ff:ff:ff").value();
    for (const auto& [port, mac] :
         {std::pair{"pod0", net::MacAddr::from_id(0x601)},
          std::pair{"pod1", traffic.src_mac}}) {
      kern::CycleTrace trace;
      kernel_.rx(kernel_.dev_by_name(port)->ifindex(),
                 net::build_udp_packet(mac, bcast, f, 64), trace);
    }
  }
  kern::Kernel& kernel() override { return kernel_; }
  std::vector<Hook> hooks() override {
    return controller_hooks(kernel_, *controller_);
  }

 private:
  kern::Kernel kernel_{"storm"};
  std::unique_ptr<Controller> controller_;
};

// A flannel-style overlay node: pods on the cni0 bridge, the flannel.1 VXLAN
// VTEP, conntrack and kube-proxy FORWARD rules, on the TC hook.
class OverlayScenario : public Scenario {
 public:
  OverlayScenario() : cluster_(1) {
    cluster_.enable_linuxfp();
    const k8s::PodRef local = cluster_.launch_pod(0);
    const k8s::PodRef remote = cluster_.launch_pod(1);
    cluster_.warm_path(local, remote);
    traffic.src_ip = local.ip;
    traffic.routed_dst = remote.ip;
    traffic.dut_ip = net::Ipv4Addr::parse("10.244.0.1").value();
  }
  kern::Kernel& kernel() override { return cluster_.node(0); }
  std::vector<Hook> hooks() override {
    return controller_hooks(cluster_.node(0), *cluster_.controller(0));
  }

 private:
  k8s::Cluster cluster_;
};

// The ipvs load balancer: a virtual service in front of two backends.
class LoadBalancerScenario : public Scenario {
 public:
  LoadBalancerScenario() {
    dut_.add_prefixes(2);
    dut_.run("ipvsadm -A -t 10.0.0.100:80 -s rr");
    dut_.run("ipvsadm -a -t 10.0.0.100:80 -r 10.100.0.5:8080");
    dut_.run("ipvsadm -a -t 10.0.0.100:80 -r 10.100.0.6:8080");
    controller_ = std::make_unique<Controller>(dut_.kernel);
    controller_->start();
    traffic.routed_dst = net::Ipv4Addr::parse("10.0.0.100").value();
    // Schedule the corpus's TCP flow to the service on the slow path, so the
    // FPM serves it from conntrack (DNAT) instead of punting.
    net::FlowKey f;
    f.src_ip = traffic.src_ip;
    f.dst_ip = traffic.routed_dst;
    f.proto = net::kIpProtoTcp;
    f.src_port = 7000;
    f.dst_port = 80;
    kern::CycleTrace trace;
    dut_.kernel.rx(dut_.eth0_ifindex(),
                   net::build_tcp_packet(traffic.src_mac, dut_.eth0_mac(), f,
                                         0x18, 64),
                   trace);
  }
  kern::Kernel& kernel() override { return dut_.kernel; }
  std::vector<Hook> hooks() override {
    return controller_hooks(dut_.kernel, *controller_);
  }

 private:
  linuxfp::testing::RouterDut dut_;
  std::unique_ptr<Controller> controller_;
};

// The Polycube router: generic cubes chained by tail calls, its state in
// maps, so its map-value accesses stay checked.
class PolycubeScenario : public Scenario {
 public:
  PolycubeScenario() : pcn_(dut_.kernel) {
    for (const std::string& cmd :
         {std::string("pcn router port add eth0 10.10.1.1/24"),
          std::string("pcn router port add eth1 10.10.2.1/24"),
          "pcn router neigh add 10.10.1.2 " + dut_.src_host_mac.to_string() +
              " eth0",
          "pcn router neigh add 10.10.2.2 " + dut_.sink_gw_mac.to_string() +
              " eth1",
          std::string("pcn router route add 10.100.0.0/24 10.10.2.2"),
          std::string("pcn firewall rule add src 10.66.0.1/32 action DROP")}) {
      auto st = pcn_.cli(cmd);
      EXPECT_TRUE(st.ok()) << cmd << " — " << st.error().message;
    }
  }
  kern::Kernel& kernel() override { return dut_.kernel; }
  std::vector<Hook> hooks() override {
    return {{"polycube", &pcn_.attachment(), dut_.eth0_ifindex(),
             dut_.eth0_mac()}};
  }

 private:
  linuxfp::testing::RouterDut dut_;
  pcn::PolycubeRouter pcn_;
};

// The corpus for one hook: every outcome a fast path distinguishes, built
// toward the hook's device.
std::vector<net::Packet> corpus(const Traffic& t, const net::MacAddr& dev) {
  auto flow = [&](net::Ipv4Addr src, std::uint8_t proto, std::uint16_t dport) {
    net::FlowKey f;
    f.src_ip = src;
    f.dst_ip = t.routed_dst;
    f.proto = proto;
    f.src_port = 7000;
    f.dst_port = dport;
    return f;
  };
  auto udp = [&](std::size_t len = 64, std::uint8_t ttl = 64) {
    return net::build_udp_packet(t.src_mac, dev,
                                 flow(t.src_ip, net::kIpProtoUdp, 53), len,
                                 ttl);
  };
  auto tcp = [&](std::uint16_t dport, std::size_t len = 64) {
    return net::build_tcp_packet(t.src_mac, dev,
                                 flow(t.src_ip, net::kIpProtoTcp, dport), 0x18,
                                 len);
  };
  auto ip_of = [](net::Packet& p) {
    return net::Ipv4View(p.data() + net::kEthHdrLen);
  };

  std::vector<net::Packet> out;
  out.push_back(udp());                  // routed
  out.push_back(udp(128));
  out.push_back(tcp(80));                // TCP ports: allowed, service,
  out.push_back(tcp(22));
  out.push_back(tcp(23));                //   and denied by a port rule
  out.push_back(net::build_udp_packet(   // blacklisted source
      t.src_mac, dev, flow(t.denied_src, net::kIpProtoUdp, 53), 64));
  out.push_back(net::build_icmp_echo(t.src_mac, dev, t.src_ip, t.dut_ip,
                                     false, 1, 1));  // to the DUT itself
  out.push_back(net::build_arp_request(t.src_mac, t.src_ip, t.dut_ip));
  {
    net::Packet p = udp();
    net::insert_vlan_tag(p, 10);
    out.push_back(std::move(p));
  }
  {
    net::Packet p = udp();  // IP options (IHL 6)
    p.data()[net::kEthHdrLen] = 0x46;
    ip_of(p).update_checksum();
    out.push_back(std::move(p));
  }
  for (std::uint16_t frag : {0x2000, 0x0001}) {  // first and later fragment
    net::Packet p = udp();
    ip_of(p).set_frag_field(frag);
    ip_of(p).update_checksum();
    out.push_back(std::move(p));
  }
  out.push_back(udp(64, 1));  // TTL 1
  out.push_back(udp(64, 0));
  for (const char* mac : {"01:00:5e:00:00:01", "ff:ff:ff:ff:ff:ff",
                          "02:00:00:00:99:99"}) {  // multicast, foreign
    net::Packet p = udp();
    net::EthernetView(p.data()).set_dst(net::MacAddr::parse(mac).value());
    out.push_back(std::move(p));
  }
  {
    net::Packet p = udp();  // toward the learned neighbour (bridged)
    net::EthernetView(p.data()).set_dst(net::MacAddr::from_id(0x601));
    out.push_back(std::move(p));
  }
  for (const net::Packet& whole : {udp(74), tcp(80, 74)}) {
    for (std::size_t len = 0; len <= 74; ++len) {
      out.push_back(net::Packet::from_bytes(whole.data(), len));
    }
  }
  return out;
}

int proven_accesses(const ebpf::Program& prog, int* memory) {
  int proven = 0;
  for (const ebpf::DecodedInsn& d : prog.code()) {
    const int op = static_cast<int>(d.op);
    if (op >= static_cast<int>(ebpf::DecodedOp::kLdx8) &&
        op <= static_cast<int>(ebpf::DecodedOp::kProvenSt64)) {
      ++*memory;
      proven += op >= static_cast<int>(ebpf::DecodedOp::kProvenLdx8);
    }
  }
  return proven;
}

struct OracleTotals {
  int runs = 0;
  int proven = 0;  // proven accesses over the programs run
  int memory = 0;  // all loads and stores over the programs run
  // Runs per action (kActAborted ... kActRedirect), per hook label, so a
  // test can require that the corpus reached the outcomes it covers.
  std::map<std::string, std::array<int, 5>> actions;
  int count(const std::string& hook, std::uint64_t act) const {
    auto it = actions.find(hook);
    return it == actions.end() ? 0 : it->second[act];
  }
};

// Runs every program of every hook of `a` as loaded, and its twin in `b`
// decoded without proofs, on the corpus, each side on its own Vm and its
// own copy of each packet, once bare and once with a flow-cache recorder.
OracleTotals run_oracle(Scenario& a, Scenario& b) {
  OracleTotals totals;
  const std::vector<Hook> ha = a.hooks();
  const std::vector<Hook> hb = b.hooks();
  EXPECT_FALSE(ha.empty());
  EXPECT_EQ(ha.size(), hb.size());
  for (std::size_t k = 0; k < std::min(ha.size(), hb.size()); ++k) {
    SCOPED_TRACE(ha[k].label);
    EXPECT_EQ(ha[k].label, hb[k].label);
    ebpf::Attachment& pa = *ha[k].att;
    ebpf::Attachment& pb = *hb[k].att;
    EXPECT_EQ(pa.programs().size(), pb.programs().size());
    std::vector<ebpf::Program> twin = pb.programs();
    for (ebpf::Program& p : twin) p.decoded.clear();
    ebpf::Vm va(a.kernel().cost(), pa.helpers(), pa.maps(), &pa.programs());
    ebpf::Vm vb(b.kernel().cost(), pb.helpers(), pb.maps(), &twin);
    engine::FlowCacheRecorder ra, rb;
    const std::vector<net::Packet> packets = corpus(a.traffic, ha[k].mac);
    for (std::size_t i = 0; i < std::min(twin.size(), pa.programs().size());
         ++i) {
      const ebpf::Program& proven = pa.programs()[i];
      // A program a later deploy replaced was released: no code to run.
      if (proven.insns.empty()) continue;
      SCOPED_TRACE(proven.name);
      totals.proven += proven_accesses(proven, &totals.memory);
      for (std::size_t n = 0; n < packets.size(); ++n) {
        for (bool record : {false, true}) {
          SCOPED_TRACE(::testing::Message() << "packet " << n
                                            << (record ? " recorded" : ""));
          net::Packet xa(packets[n]);
          net::Packet xb(packets[n]);
          if (record) {
            ra.begin(xa);
            rb.begin(xb);
          }
          const ebpf::VmResult r1 =
              va.run(proven, xa, ha[k].ifindex, &a.kernel(),
                     record ? &ra : nullptr);
          const ebpf::VmResult r2 = vb.run(twin[i], xb, hb[k].ifindex,
                                           &b.kernel(), record ? &rb : nullptr);
          ++totals.runs;
          if (r1.ret <= ebpf::kActRedirect) {
            ++totals.actions[ha[k].label][r1.ret];
          }
          EXPECT_EQ(r1.ret, r2.ret);
          EXPECT_EQ(r1.cycles, r2.cycles);
          EXPECT_EQ(r1.insns_executed, r2.insns_executed);
          EXPECT_EQ(r1.tail_calls, r2.tail_calls);
          EXPECT_EQ(r1.redirect_ifindex, r2.redirect_ifindex);
          EXPECT_EQ(r1.redirect_xsk, r2.redirect_xsk);
          EXPECT_EQ(r1.aborted, r2.aborted);
          EXPECT_EQ(r1.error, r2.error);
          EXPECT_TRUE(xa.size() == xb.size() &&
                      std::memcmp(xa.data(), xb.data(), xa.size()) == 0)
              << "packet bytes differ";
          if (record) {
            EXPECT_EQ(ra.read_mask(), rb.read_mask());
            EXPECT_EQ(ra.write_mask(), rb.write_mask());
            EXPECT_EQ(ra.deps(), rb.deps());
            EXPECT_EQ(ra.uncacheable(), rb.uncacheable());
            EXPECT_EQ(ra.ct_ops().size(), rb.ct_ops().size());
            EXPECT_EQ(ra.fdb_ops().size(), rb.fdb_ops().size());
          }
        }
      }
    }
  }
  return totals;
}

// Builds the scenario twice and runs the oracle; returns its totals.
OracleTotals oracle(const std::function<std::unique_ptr<Scenario>()>& make) {
  std::unique_ptr<Scenario> a = make();
  std::unique_ptr<Scenario> b = make();
  OracleTotals t = run_oracle(*a, *b);
  EXPECT_GT(t.runs, 0);
  return t;
}

sim::ScenarioConfig router_config() {
  sim::ScenarioConfig cfg;
  cfg.accel = sim::Accel::kLinuxFpXdp;
  return cfg;
}

sim::ScenarioConfig gateway_config(bool classifier) {
  sim::ScenarioConfig cfg = router_config();
  cfg.filter_rules = 1000;
  cfg.rule_classifier = classifier;
  return cfg;
}

TEST(VmProof, RouterAndDispatcher) {
  const OracleTotals t = oracle([] {
    return std::make_unique<TestbedScenario>(router_config(),
                                             std::vector<std::string>{});
  });
  EXPECT_EQ(t.proven, t.memory);
  EXPECT_GT(t.count("eth0/xdp", ebpf::kActRedirect), 0);  // routed
  EXPECT_GT(t.count("eth0/xdp", ebpf::kActPass), 0);      // punted
}

TEST(VmProof, GatewayWithClassifier) {
  const OracleTotals t = oracle([] {
    return std::make_unique<TestbedScenario>(gateway_config(true),
                                             std::vector<std::string>{});
  });
  EXPECT_EQ(t.proven, t.memory);
  EXPECT_GT(t.count("eth0/xdp", ebpf::kActRedirect), 0);
  EXPECT_GT(t.count("eth0/xdp", ebpf::kActDrop), 0);  // blacklisted
  EXPECT_GT(t.count("eth0/xdp", ebpf::kActPass), 0);
}

TEST(VmProof, GatewayLinearWithPortRules) {
  const std::vector<std::string> port_rules = {
      "iptables -A FORWARD -p tcp --dport 23 -j DROP",
      "iptables -A FORWARD -p udp --dport 69 -j DROP"};
  for (bool classifier : {false, true}) {
    SCOPED_TRACE(classifier ? "classifier" : "linear");
    const OracleTotals t = oracle([&] {
      return std::make_unique<TestbedScenario>(gateway_config(classifier),
                                               port_rules);
    });
    EXPECT_GT(t.proven, 0);
    EXPECT_GT(t.count("eth0/xdp", ebpf::kActRedirect), 0);
    EXPECT_GT(t.count("eth0/xdp", ebpf::kActDrop), 0);
  }
}

TEST(VmProof, ContainerHostBridgePortsAndBrNetfilter) {
  const OracleTotals t =
      oracle([] { return std::make_unique<StormScenario>(); });
  EXPECT_GT(t.proven, 0);
  EXPECT_GT(t.count("eth0/xdp", ebpf::kActRedirect), 0);
  EXPECT_GT(t.count("eth0/xdp", ebpf::kActDrop), 0);
  EXPECT_GT(t.count("pod1/xdp", ebpf::kActRedirect), 0);  // bridged
}

TEST(VmProof, OverlayVxlanHost) {
  const OracleTotals t =
      oracle([] { return std::make_unique<OverlayScenario>(); });
  EXPECT_GT(t.proven, 0);
  EXPECT_GT(t.count("flannel.1/tc_ingress", ebpf::kActRedirect), 0);
}

TEST(VmProof, IpvsLoadBalancer) {
  const OracleTotals t =
      oracle([] { return std::make_unique<LoadBalancerScenario>(); });
  EXPECT_GT(t.proven, 0);
  EXPECT_GT(t.count("eth0/xdp", ebpf::kActRedirect), 0);  // DNAT
}

TEST(VmProof, PolycubeRouterMapValuesStayChecked) {
  const OracleTotals t =
      oracle([] { return std::make_unique<PolycubeScenario>(); });
  EXPECT_GT(t.proven, 0);
  EXPECT_LT(t.proven, t.memory);
  EXPECT_GT(t.count("polycube", ebpf::kActRedirect), 0);
  EXPECT_GT(t.count("polycube", ebpf::kActDrop), 0);
}

// The synthesized router and gateway FPMs decode with no checked memory
// handler and a 384 B stack floor: a refactor that loses the proofs, or that
// stops handing them to decode, fails here on every run.
TEST(VmProof, RouterAndGatewayFpmsFullyProven) {
  struct Case {
    sim::ScenarioConfig cfg;
    int accesses;
  };
  for (const Case& c : {Case{router_config(), 27},
                        Case{gateway_config(true), 40}}) {
    sim::LinuxTestbed dut(c.cfg);
    ebpf::Attachment* att =
        dut.controller()->deployer().attachment("eth0", ebpf::HookType::kXdp);
    ASSERT_NE(att, nullptr);
    const ebpf::Program& fpm = att->programs()[att->active_prog_id()];
    SCOPED_TRACE(fpm.name);
    int memory = 0;
    EXPECT_EQ(proven_accesses(fpm, &memory), c.accesses);
    EXPECT_EQ(memory, c.accesses);
    EXPECT_EQ(fpm.stack_floor, 384u);
  }
}

// Paths and states the verifier explores on the synthesized router,
// 1,000-rule gateway and storm pod-port FPMs. Pruning only at prune points
// must not move them: no path of these programs meets an explored state
// between two prune points, so none runs on past where a prune at every pc
// would have cut it.
TEST(VmProof, FpmExplorationPinned) {
  auto explore = [](ebpf::Attachment& att) {
    const ebpf::Program& fpm = att.programs()[att.active_prog_id()];
    SCOPED_TRACE(fpm.name);
    ebpf::VerifyOptions opts;
    opts.helpers = &att.helpers();
    opts.maps = &att.maps();
    ebpf::VerifyStats stats;
    EXPECT_TRUE(ebpf::verify(fpm, opts, &stats).ok());
    return std::pair{stats.paths_explored, stats.states_visited};
  };
  using Explored = std::pair<std::size_t, std::size_t>;
  for (const auto& [cfg, want] :
       {std::pair{router_config(), Explored{12, 84}},
        std::pair{gateway_config(true), Explored{14, 112}}}) {
    sim::LinuxTestbed dut(cfg);
    ebpf::Attachment* att =
        dut.controller()->deployer().attachment("eth0", ebpf::HookType::kXdp);
    ASSERT_NE(att, nullptr);
    EXPECT_EQ(explore(*att), want);
  }
  for (const auto& [br_netfilter, want] :
       {std::pair{false, Explored{4, 36}},
        std::pair{true, Explored{15, 113}}}) {
    StormScenario storm(br_netfilter);
    int pod_ports = 0;
    for (const Hook& h : storm.hooks()) {
      if (h.label != "pod0/xdp") continue;
      ++pod_ports;
      EXPECT_EQ(explore(*h.att), want);
    }
    EXPECT_EQ(pod_ports, 1);
  }
}

}  // namespace
}  // namespace linuxfp::core
