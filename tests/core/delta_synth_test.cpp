// Delta synthesis (DESIGN.md §17): on a configuration event the controller
// diffs each FPM graph against the signature recorded at its last deploy and
// re-emits only the changed ones. These tests pin the equivalence contract —
// a delta controller and a from-scratch controller driven through identical
// event sequences must converge to identical deployed programs, and the
// graphs a controller keeps per device must equal a fresh build after every
// reaction — plus the work accounting (unchanged graphs are reused, not
// re-synthesized), the withdrawal rule, and the failed-device retry path.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/capability.h"
#include "core/controller.h"
#include "core/topology.h"
#include "ebpf/loader.h"
#include "kernel/commands.h"
#include "kernel/kernel.h"
#include "util/fault.h"

namespace linuxfp::core {
namespace {

// Mixed DUT: routed physical uplinks (router/filter graphs) plus a bridge
// with pod-facing veth ports (bridge-port graphs) — the container-host shape
// where most events touch a small fraction of the graphs.
struct MixedDut {
  kern::Kernel kernel{"host"};
  int pods = 0;

  MixedDut() {
    for (const char* d : {"eth0", "eth1", "eth2"}) {
      kernel.add_phys_dev(d).set_phys_tx([](net::Packet&&) {});
      run(std::string("ip link set ") + d + " up");
    }
    run("ip addr add 10.10.1.1/24 dev eth0");
    run("ip addr add 10.10.2.1/24 dev eth1");
    run("ip addr add 10.10.3.1/24 dev eth2");
    run("sysctl -w net.ipv4.ip_forward=1");
    run("ip neigh add 10.10.2.2 lladdr " + net::MacAddr::from_id(0x77).to_string() +
        " dev eth1 nud permanent");
    // Routing must be active (ip_forward + at least one route) for the
    // uplinks to grow router graphs.
    run("ip route add 10.100.0.0/24 via 10.10.2.2 dev eth1");
    run("ip route add 10.101.0.0/24 via 10.10.2.2 dev eth1");
    run("ip link add br0 type bridge");
    run("ip link set br0 up");
  }

  void run(const std::string& cmd) {
    auto st = kern::run_command(kernel, cmd);
    ASSERT_TRUE(st.ok()) << cmd << " — " << st.error().message;
  }

  void add_pod() {
    std::string port = "pod" + std::to_string(pods);
    run("ip link add " + port + " type veth peer name ns" +
        std::to_string(pods));
    run("ip link set " + port + " up");
    run("ip link set " + port + " master br0");
    ++pods;
  }

  void del_pod() {
    if (pods == 0) return;
    --pods;
    run("ip link del pod" + std::to_string(pods));
  }

  // Deletes pod `i` and creates a new device under its name, enslaved as
  // the old one was.
  void recreate_pod(int i) {
    const std::string port = "pod" + std::to_string(i);
    run("ip link del " + port);
    run("ip link add " + port + " type veth peer name re" +
        std::to_string(recreated++));
    run("ip link set " + port + " up");
    run("ip link set " + port + " master br0");
  }

  int recreated = 0;

  std::vector<std::string> device_names() const {
    std::vector<std::string> names{"eth0", "eth1", "eth2"};
    for (int i = 0; i < pods; ++i) names.push_back("pod" + std::to_string(i));
    return names;
  }
};

ControllerOptions mixed_options(bool delta) {
  ControllerOptions opts;
  opts.attach_bridge_ports = true;
  opts.delta_synthesis = delta;
  return opts;
}

// The deployed-FPM-set equivalence check: for every device and hook, both
// controllers expose the same attachment presence and a bit-identical active
// program (name + instruction stream), and `a`'s attachment is what the hook
// of `dut`'s device runs (these controllers have no guard in front of it).
void compare_deployments(Controller& a, Controller& b, MixedDut& dut,
                         const char* where) {
  ASSERT_EQ(a.deployer().attachment_count(), b.deployer().attachment_count())
      << where;
  for (const std::string& dev : dut.device_names()) {
    const kern::NetDevice* d = dut.kernel.dev_by_name(dev);
    ASSERT_NE(d, nullptr) << where << " " << dev;
    for (ebpf::HookType hook :
         {ebpf::HookType::kXdp, ebpf::HookType::kTcIngress}) {
      ebpf::Attachment* aa = a.deployer().attachment(dev, hook);
      ebpf::Attachment* ab = b.deployer().attachment(dev, hook);
      ASSERT_EQ(aa == nullptr, ab == nullptr) << where << " " << dev;
      if (!aa) continue;
      const kern::PacketProgram* on_hook =
          hook == ebpf::HookType::kXdp ? d->xdp_prog() : d->tc_ingress_prog();
      EXPECT_EQ(on_hook, static_cast<kern::PacketProgram*>(aa))
          << where << " " << dev;
      const ebpf::Program& pa = aa->programs()[aa->active_prog_id()];
      const ebpf::Program& pb = ab->programs()[ab->active_prog_id()];
      EXPECT_EQ(pa.name, pb.name) << where << " " << dev;
      ASSERT_EQ(pa.insns.size(), pb.insns.size()) << where << " " << dev;
      for (std::size_t i = 0; i < pa.insns.size(); ++i) {
        const ebpf::Insn& x = pa.insns[i];
        const ebpf::Insn& y = pb.insns[i];
        ASSERT_TRUE(x.op == y.op && x.dst == y.dst && x.src == y.src &&
                    x.use_imm == y.use_imm && x.off == y.off &&
                    x.imm == y.imm && x.size == y.size)
            << where << " " << dev << " insn " << i;
      }
    }
  }
}

// The graphs a reaction leaves must be those of a from-scratch build of the
// controller's view, pruned with the controller's helpers: byte for byte,
// with the same dropped FPM names in the same order. The controller renders
// only the devices whose description changed, so a description that missed
// one input of the graph would leave a stale graph behind.
void expect_from_scratch_graphs(const Controller& ctl,
                                const ControllerOptions& options,
                                const Reaction& reaction,
                                const std::string& where) {
  TopologyOptions topology;
  topology.attach_physical = options.attach_physical;
  topology.attach_bridge_ports = options.attach_bridge_ports;
  topology.attach_overlay = options.attach_overlay;
  topology.hook = options.hook;
  std::vector<std::string> dropped;
  const util::Json fresh = CapabilityManager(ctl.helpers())
                               .prune(TopologyManager(topology).build(
                                          ctl.view()),
                                      &dropped);
  EXPECT_EQ(ctl.current_graphs().dump(), fresh.dump()) << where;
  EXPECT_EQ(reaction.dropped_fpms, dropped) << where;
}

TEST(DeltaSynth, ConvergesWithFromScratchUnderChurn) {
  // The same event stream drives a delta controller, a from-scratch one,
  // and a delta controller on mainline helpers, whose prune drops FPMs.
  MixedDut delta_dut, full_dut, mainline_dut;
  const ControllerOptions delta_opts = mixed_options(true);
  const ControllerOptions full_opts = mixed_options(false);
  ControllerOptions mainline_opts = mixed_options(true);
  mainline_opts.mainline_helpers_only = true;
  Controller delta_ctl(delta_dut.kernel, delta_opts);
  Controller full_ctl(full_dut.kernel, full_opts);
  Controller mainline_ctl(mainline_dut.kernel, mainline_opts);
  std::size_t mainline_drops = 0;
  auto check = [&](const Reaction& delta, const Reaction& full,
                   const Reaction& mainline, const std::string& where) {
    expect_from_scratch_graphs(delta_ctl, delta_opts, delta, where);
    expect_from_scratch_graphs(full_ctl, full_opts, full, where);
    expect_from_scratch_graphs(mainline_ctl, mainline_opts, mainline, where);
    mainline_drops += mainline.dropped_fpms.size();
  };
  check(delta_ctl.start(), full_ctl.start(), mainline_ctl.start(), "startup");
  compare_deployments(delta_ctl, full_ctl, delta_dut, "startup");

  auto react = [&](const std::string& where) {
    const Reaction d = delta_ctl.run_once();
    const Reaction f = full_ctl.run_once();
    const Reaction m = mainline_ctl.run_once();
    check(d, f, m, where);
    return d;
  };
  auto both = [&](const std::string& cmd) {
    delta_dut.run(cmd);
    full_dut.run(cmd);
    mainline_dut.run(cmd);
    return react(cmd);
  };
  auto add_pod = [&] {
    delta_dut.add_pod();
    full_dut.add_pod();
    mainline_dut.add_pod();
    react("pod add");
  };
  auto del_pod = [&] {
    delta_dut.del_pod();
    full_dut.del_pod();
    mainline_dut.del_pod();
    react("pod del");
  };

  // An event storm touching different slices of the graph set.
  for (int i = 0; i < 3; ++i) {
    add_pod();
    compare_deployments(delta_ctl, full_ctl, delta_dut, "pod add");
  }
  // Each input a device description reads, flipped and flipped back.
  for (const char* cmd : {
           "sysctl -w net.ipv4.ip_forward=0",
           "sysctl -w net.ipv4.ip_forward=1",
           "ip route del 10.101.0.0/24",
           "ip route del 10.100.0.0/24",  // the last global route
           "ip route add 10.100.0.0/24 via 10.10.2.2 dev eth1",
           "ip route add 10.101.0.0/24 via 10.10.2.2 dev eth1",
           // A DROP policy alone makes filtering active.
           "iptables -P FORWARD DROP",
           "iptables -P FORWARD ACCEPT",
           "iptables -N CHECKS",
           "iptables -A FORWARD -j CHECKS",  // the first rule
           // What the filter specializes on, from a chain FORWARD jumps to.
           "iptables -A CHECKS -p tcp --dport 22 -j DROP",
           "sysctl -w net.bridge.bridge-nf-call-iptables=1",
           "sysctl -w net.bridge.bridge-nf-call-iptables=0",
           // Bridge ports gain router nodes and lose them again.
           "ip addr add 10.20.0.1/24 dev br0",
           "ip addr del 10.20.0.1/24 dev br0",
           "brctl stp br0 on",
           "bridge vlan add dev pod0 vid 10",
           "ipvsadm -A -t 10.0.0.100:80 -s rr",
           "ipvsadm -D -t 10.0.0.100:80",
           "ip addr add 10.10.9.1/24 dev eth0",
           "ip addr del 10.10.9.1/24 dev eth0",
           "ip link set eth0 down",
           "ip link set eth0 up",
       }) {
    both(cmd);
    compare_deployments(delta_ctl, full_ctl, delta_dut, cmd);
  }
  for (int i = 0; i < 12; ++i) {
    both("ip route add 10." + std::to_string(120 + i) +
         ".0.0/24 via 10.10.2.2 dev eth1");
  }
  compare_deployments(delta_ctl, full_ctl, delta_dut, "routes");
  both("iptables -A FORWARD -s 10.66.0.1 -j DROP");
  both("ip route del 10.120.0.0/24");
  both("ip link set eth2 down");
  compare_deployments(delta_ctl, full_ctl, delta_dut, "link down");
  both("ip link set eth2 up");

  // A static neighbour changes no description: nothing is rendered and the
  // reaction reads unchanged.
  {
    const std::uint64_t rendered = delta_ctl.graph_render_count();
    const Reaction r = both("ip neigh add 10.10.3.7 lladdr " +
                            net::MacAddr::from_id(0x78).to_string() +
                            " dev eth2 nud permanent");
    EXPECT_FALSE(r.changed);
    EXPECT_EQ(delta_ctl.graph_render_count(), rendered);
  }

  // A device deleted and re-created under its name, within one reaction
  // and across two.
  for (MixedDut* dut : {&delta_dut, &full_dut, &mainline_dut}) {
    dut->recreate_pod(0);
  }
  react("pod0 re-created");
  compare_deployments(delta_ctl, full_ctl, delta_dut, "pod0 re-created");
  both("ip link del pod1");
  for (MixedDut* dut : {&delta_dut, &full_dut, &mainline_dut}) {
    dut->run("ip link add pod1 type veth peer name re1x");
    dut->run("ip link set pod1 up");
  }
  react("pod1 re-created");
  both("ip link set pod1 master br0");
  compare_deployments(delta_ctl, full_ctl, delta_dut, "pod1 re-created");

  // The bridge deleted while it has ports, then a new one.
  both("ip link del br0");
  compare_deployments(delta_ctl, full_ctl, delta_dut, "bridge deleted");
  both("ip link add br0 type bridge");
  both("ip link set br0 up");
  add_pod();
  compare_deployments(delta_ctl, full_ctl, delta_dut, "new bridge");
  del_pod();
  compare_deployments(delta_ctl, full_ctl, delta_dut, "final");
  EXPECT_GT(mainline_drops, 0u);

  // The whole point: the delta controller synthesized a fraction of the
  // graph-emissions the from-scratch controller burned on the same events.
  EXPECT_EQ(delta_ctl.resynth_count(), full_ctl.resynth_count());
  EXPECT_LT(delta_ctl.graph_resynth_count() * 2,
            full_ctl.graph_resynth_count());
}

// A reaction describes the devices its events reach, not the devices the
// host has: each kind of storm event describes (and renders) as many
// devices at 8 pods as at 64. Only a gate flip (here ip_forward) describes
// every device.
TEST(DeltaSynth, EventsDescribeTheSameDevicesAtAnySize) {
  struct Work {
    std::vector<std::uint64_t> described, rendered;
    bool operator==(const Work&) const = default;
  };
  auto storm_work = [](int pods) {
    MixedDut dut;
    for (int i = 0; i < pods; ++i) dut.add_pod();
    // The first FORWARD rule is a gate flip (a filter appears everywhere);
    // the storm's rules follow one.
    dut.run("iptables -A FORWARD -s 10.66.1.1 -j DROP");
    Controller ctl(dut.kernel, mixed_options(true));
    ctl.start();
    Work work;
    auto event = [&](const std::function<void()>& commands) {
      const std::uint64_t described = ctl.describe_count();
      const std::uint64_t rendered = ctl.graph_render_count();
      commands();
      ctl.run_once();
      work.described.push_back(ctl.describe_count() - described);
      work.rendered.push_back(ctl.graph_render_count() - rendered);
    };
    for (int round = 0; round < 2; ++round) {
      event([&] { dut.run("ip route add 10.130.0.0/24 via 10.10.2.2 dev eth1"); });
      event([&] {
        dut.run("iptables -A FORWARD -s 10.66.0." + std::to_string(round) +
                " -j DROP");
      });
      event([&] { dut.add_pod(); });
      event([&] { dut.run("ip route del 10.130.0.0/24"); });
      event([&] { dut.del_pod(); });
    }
    const std::uint64_t described = ctl.describe_count();
    dut.run("sysctl -w net.ipv4.ip_forward=0");
    ctl.run_once();
    EXPECT_EQ(ctl.describe_count() - described,
              static_cast<std::uint64_t>(3 + pods));
    return work;
  };
  const Work small = storm_work(8);
  EXPECT_EQ(small, storm_work(64));
  // Route and rule events describe the three routed uplinks, a pod add its
  // port and the port's peer, a pod delete nothing.
  EXPECT_EQ(small.described,
            (std::vector<std::uint64_t>{3, 3, 2, 3, 0, 3, 3, 2, 3, 0}));
  EXPECT_EQ(small.rendered,
            (std::vector<std::uint64_t>{3, 3, 1, 3, 0, 3, 3, 1, 3, 0}));
}

TEST(DeltaSynth, ReusesUnchangedGraphs) {
  MixedDut dut;
  Controller ctl(dut.kernel, mixed_options(true));
  ctl.start();
  for (int i = 0; i < 4; ++i) dut.add_pod();
  Reaction r = ctl.run_once();
  ASSERT_TRUE(r.changed);

  // A route event touches only the routed uplinks; the four pod ports and
  // the untouched uplink graphs are reused verbatim.
  dut.run("ip route add 10.200.0.0/24 via 10.10.2.2 dev eth1");
  r = ctl.run_once();
  ASSERT_TRUE(r.changed);
  EXPECT_GT(r.reused_graphs, 0u);
  EXPECT_LT(r.synthesized_graphs, r.graphs);
  EXPECT_EQ(r.synthesized_graphs + r.reused_graphs, r.graphs);

  // A pod attach synthesizes exactly the new port's graph.
  dut.add_pod();
  r = ctl.run_once();
  ASSERT_TRUE(r.changed);
  EXPECT_EQ(r.synthesized_graphs, 1u);
  EXPECT_EQ(r.reused_graphs, r.graphs - 1);

  // A no-op config event (dynamic neighbour) synthesizes nothing at all.
  dut.run("ip neigh add 10.10.2.9 lladdr 02:00:00:00:00:09 dev eth1");
  r = ctl.run_once();
  EXPECT_EQ(r.synthesized_graphs, 0u);
}

TEST(DeltaSynth, WithdrawalOnlyTouchesDepartingDevice) {
  MixedDut dut;
  Controller ctl(dut.kernel, mixed_options(true));
  ctl.start();
  for (int i = 0; i < 3; ++i) dut.add_pod();
  ctl.run_once();
  std::uint64_t before = ctl.graph_resynth_count();

  // Pod teardown: the departing port's attachment is withdrawn; every other
  // graph is unchanged, so nothing is re-synthesized.
  dut.del_pod();
  Reaction r = ctl.run_once();
  ASSERT_TRUE(r.changed);
  EXPECT_EQ(r.synthesized_graphs, 0u);
  EXPECT_GT(r.reused_graphs, 0u);
  EXPECT_EQ(ctl.graph_resynth_count(), before);

  // The surviving pods keep serving; re-adding a pod synthesizes one graph.
  dut.add_pod();
  r = ctl.run_once();
  EXPECT_EQ(r.synthesized_graphs, 1u);
}

TEST(DeltaSynth, FailedDeviceIsResynthesizedDespiteUnchangedGraph) {
  MixedDut dut;
  Controller ctl(dut.kernel, mixed_options(true));
  {
    // Fault the first deploy wave: at least one device degrades, its
    // recorded graph signature is dropped, and consecutive failures arm the
    // retry timer.
    util::FaultScope faults(0x5eed);
    ASSERT_TRUE(faults->install_schedule("deployer.attach:nth=2").ok());
    Reaction r = ctl.start();
    ASSERT_TRUE(r.deploy_failed);
    ASSERT_TRUE(ctl.health().degraded);
  }

  // A config event NOT touching the failed device's graph arrives before the
  // retry timer: the delta diff must still re-synthesize the failed device
  // (its deploy never landed, so its recorded signature was dropped)
  // alongside the genuinely new graph — two emissions, not one.
  dut.add_pod();
  Reaction r = ctl.run_once();
  ASSERT_TRUE(r.changed);
  EXPECT_FALSE(r.deploy_failed);
  EXPECT_GE(r.synthesized_graphs, 2u);
  EXPECT_FALSE(ctl.health().degraded);

  // Steady state afterwards: delta accounting is back to normal.
  dut.run("ip route add 10.211.0.0/24 via 10.10.2.2 dev eth1");
  r = ctl.run_once();
  EXPECT_LT(r.synthesized_graphs, r.graphs);
}

}  // namespace
}  // namespace linuxfp::core
