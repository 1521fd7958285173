// reaction_storm: the container host of bench_table6_reaction (4 routed
// uplinks, a bridge with 64 pod ports, delta synthesis on) driven through a
// stream of config events. Events come in rounds on a fresh host, so that
// every round does the same work; after each event a few probe packets go
// through Kernel::rx toward a routed prefix, and after each round the
// deployed programs must equal those of a controller started fresh on the
// round's final config.
#include <algorithm>
#include <array>

#include "bench.h"
#include "ebpf/loader.h"
#include "kernel/commands.h"
#include "net/headers.h"

namespace perfbench {

namespace {

constexpr int kPods = 64;

// The storm host, configured through the tool front-end only.
struct StormHost {
  kern::Kernel kernel{"host"};
  int pods = 0;
  int routes = 0;
  std::vector<std::string> rules;  // appended FORWARD rules, in order

  explicit StormHost(int initial_pods = kPods) {
    for (const char* d : {"eth0", "eth1", "eth2", "eth3"}) {
      kernel.add_phys_dev(d).set_phys_tx([](net::Packet&&) {});
      run(std::string("ip link set ") + d + " up");
    }
    run("ip addr add 10.10.1.1/24 dev eth0");
    run("ip addr add 10.10.2.1/24 dev eth1");
    run("ip addr add 10.10.3.1/24 dev eth2");
    run("ip addr add 10.10.4.1/24 dev eth3");
    run("sysctl -w net.ipv4.ip_forward=1");
    run("ip neigh add 10.10.2.2 lladdr " +
        net::MacAddr::from_id(0x601).to_string() + " dev eth1 nud permanent");
    run("ip route add 10.100.0.0/24 via 10.10.2.2 dev eth1");
    run("ip link add br0 type bridge");
    run("ip link set br0 up");
    for (int i = 0; i < initial_pods; ++i) {
      for (const std::string& c : pod_add()) run(c);
    }
  }

  void run(const std::string& cmd) {
    LFP_CHECK_MSG(kern::run_command(kernel, cmd).ok(),
                  "storm setup failed: " + cmd);
  }

  // Each builder returns an event's commands and updates the bookkeeping
  // that later events and the end-state check rely on.
  Event pod_add() {
    const std::string n = std::to_string(pods++);
    return {"ip link add pod" + n + " type veth peer name ns" + n,
            "ip link set pod" + n + " up", "ip link set pod" + n + " master br0"};
  }
  Event pod_del() { return {"ip link del pod" + std::to_string(--pods)}; }
  static std::string route_prefix(int r) {
    return "10." + std::to_string(101 + r % 100) + "." +
           std::to_string(r / 100) + ".0/24";
  }
  Event route_add() {
    return {"ip route add " + route_prefix(routes++) +
            " via 10.10.2.2 dev eth1"};
  }
  Event route_del() { return {"ip route del " + route_prefix(--routes)}; }
  Event rule_add() {
    const int i = static_cast<int>(rules.size());
    rules.push_back("iptables -A FORWARD -s 10.66." + std::to_string(i / 250) +
                    "." + std::to_string(1 + i % 250) + " -j DROP");
    return {rules.back()};
  }

  std::vector<std::string> devices() const {
    std::vector<std::string> d{"eth0", "eth1", "eth2", "eth3"};
    for (int i = 0; i < pods; ++i) d.push_back("pod" + std::to_string(i));
    return d;
  }
};

core::ControllerOptions storm_options() {
  core::ControllerOptions o;
  o.attach_bridge_ports = true;
  return o;
}

// DeviceUnderTest over the host's kernel: eth0 in, routed out eth1.
class HostDut : public sim::DeviceUnderTest {
 public:
  explicit HostDut(kern::Kernel& k)
      : k_(k),
        in_(k.dev_by_name("eth0")->ifindex()),
        out_(k.dev_by_name("eth1")->ifindex()) {}
  std::string name() const override { return "storm host"; }
  double cpu_hz() const override { return k_.cost().cpu_hz; }
  sim::ProcessOutcome process(net::Packet&& pkt) override {
    const std::uint64_t tx = k_.dev(out_)->stats().tx_packets;
    kern::CycleTrace trace;
    const kern::RxSummary s = k_.rx(in_, std::move(pkt), trace);
    sim::ProcessOutcome out;
    out.cycles = trace.total();
    out.forwarded = k_.dev(out_)->stats().tx_packets > tx;
    out.dropped_by_policy = s.drop == kern::Drop::kPolicy ||
                            s.drop == kern::Drop::kXdpDrop ||
                            s.drop == kern::Drop::kTcDrop;
    out.fast_path = s.fast_path;
    return out;
  }
  int ingress() const { return in_; }
  int egress() const { return out_; }

 private:
  kern::Kernel& k_;
  int in_, out_;
};

// A host with its controller started, as every round begins.
struct Round {
  std::unique_ptr<StormHost> host = std::make_unique<StormHost>();
  std::unique_ptr<core::Controller> controller =
      std::make_unique<core::Controller>(host->kernel, storm_options());
  std::unique_ptr<HostDut> dut = std::make_unique<HostDut>(host->kernel);
  bool started = !controller->start().deploy_failed;

  DatapathTarget target() const {
    DatapathTarget t;
    t.kernel = &host->kernel;
    t.ingress = dut->ingress();
    t.egress = dut->egress();
    t.dut = dut.get();
    t.queues = 2;
    t.xdp = controller->deployer().attachment("eth0", ebpf::HookType::kXdp);
    return t;
  }
};

// 64 B UDP toward the routed 10.100.0.0/24, 4,096 uniform flows in a
// seeded order.
Traffic storm_traffic(kern::Kernel& k, std::size_t n, util::Rng& rng) {
  const net::MacAddr src_mac = net::MacAddr::from_id(0x501);
  const net::MacAddr dut_mac = k.dev_by_name("eth0")->mac();
  return uniform_traffic(4096, n, rng, [&](int f) {
    net::FlowKey key;
    key.src_ip = net::Ipv4Addr::parse("10.10.1.2").value();
    key.dst_ip = net::Ipv4Addr::from_octets(
        10, 100, 0, static_cast<std::uint8_t>(2 + f % 250));
    key.proto = net::kIpProtoUdp;
    key.src_port = static_cast<std::uint16_t>(1024 + f);
    key.dst_port = 7;
    return net::build_udp_packet(src_mac, dut_mac, key, 64);
  });
}

// One round's event order: blocks of the five event kinds, each block in a
// seeded order that keeps every delete after its add.
enum Kind { kRouteAdd, kRuleAdd, kPodAdd, kRouteDel, kPodDel };

std::vector<Kind> round_order(int blocks, util::Rng& rng) {
  std::vector<Kind> out;
  std::array<Kind, 5> b{kRouteAdd, kRuleAdd, kPodAdd, kRouteDel, kPodDel};
  for (int i = 0; i < blocks; ++i) {
    const auto pos = [&](Kind k) {
      return std::find(b.begin(), b.end(), k) - b.begin();
    };
    do {
      for (std::size_t j = b.size(); j > 1; --j) {
        std::swap(b[j - 1], b[rng.next_below(j)]);
      }
    } while (pos(kRouteDel) < pos(kRouteAdd) || pos(kPodDel) < pos(kPodAdd));
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

Event event_of(Kind k, StormHost& h) {
  switch (k) {
    case kRouteAdd: return h.route_add();
    case kRuleAdd: return h.rule_add();
    case kPodAdd: return h.pod_add();
    case kRouteDel: return h.route_del();
    case kPodDel: return h.pod_del();
  }
  return {};
}

}  // namespace

void run_storm(const Options& o, Report& r) {
  util::Rng rng(o.seed);
  const int blocks = o.smoke ? 4 : 100;  // 500 events per round
  constexpr int kProbes = 4;

  // Set-up: host build, controller start and initial deploy, one warm-up
  // pass of the datapath traffic. Repeated; the median is reported.
  std::unique_ptr<Round> round;
  Traffic traffic;
  std::vector<double> setup_s;
  for (int s = 0; s < (o.smoke ? 1 : 21); ++s) {
    round.reset();
    const std::int64_t t0 = now_ns();
    round = std::make_unique<Round>();
    const std::int64_t t1 = now_ns();
    if (traffic.size() == 0) {
      traffic = storm_traffic(round->host->kernel, o.smoke ? 4096 : 32768, rng);
    }
    const std::int64_t t2 = now_ns();
    warm_up(round->target(), traffic);
    setup_s.push_back(static_cast<double>((t1 - t0) + (now_ns() - t2)) * 1e-9);
  }
  // Memory of the ready system; the measurement's own buffers come later.
  const double rss_after_setup = peak_rss_mb();

  // The datapath is measured on the set-up host; events run in rounds on
  // fresh hosts, one round after each engine pass and process() slice.
  const std::unique_ptr<Round> datapath = std::move(round);
  const Budget budget(o.seconds);
  if (o.trace) {
    trace_datapath(datapath->target(), traffic, o.smoke, r);
  } else {
    model_datapath(datapath->target(), traffic, o.seed, o.smoke, r);
  }

  SpanLog* spans = o.trace ? &r.spans : nullptr;
  EventStats events;
  HostSampler host(datapath->target(), traffic, r);
  SampleWindow probe_ns(kWindow);
  std::uint64_t next_probe = 0;
  CpuRotor rotor;
  for (;;) {
    if (!o.trace) host.engine_pass();
    rotor.pin_next();
    if (!o.trace) host.process_slice(o.smoke ? 2000 : 100000);
    round = std::make_unique<Round>();
    r.tally.record(round->started);
    std::unique_ptr<StormHost> mirror_host;
    std::unique_ptr<Mirror> mirror;
    EventTarget et;
    et.kernel = &round->host->kernel;
    et.controller = round->controller.get();
    if (o.trace) {
      mirror_host = std::make_unique<StormHost>();
      mirror = std::make_unique<Mirror>(mirror_host->kernel, storm_options());
      r.tally.record(!mirror->start().deploy_failed);
      et.mirror_kernel = &mirror_host->kernel;
      et.mirror = mirror.get();
    }
    const DatapathTarget target = round->target();
    for (Kind k : round_order(blocks, rng)) {
      const EventTime time =
          run_event(et, event_of(k, *round->host), events, r, spans);
      events.wall_ms.add(time.wall_ms);
      if (spans) events.traced_ms.add(time.traced_ms);
      // Probes right after the reaction: work moved out of the reaction into
      // the first packets (lazy decode, cache refill) shows here. The first
      // probe after a reaction takes about 3 us, the others 1.4 us; the
      // probes' p99 lies in the tail of the first ones and spread 0.26-0.32
      // between seeds, past the 0.25 bound, so they are a per-layer metric
      // and host_pkt_ns comes from process() slices as on every workload.
      for (int p = 0; p < kProbes; ++p) {
        const std::size_t j =
            static_cast<std::size_t>(next_probe++ % traffic.size());
        net::Packet pkt = traffic.packets[j];
        const std::int64_t a = now_ns();
        const sim::ProcessOutcome out = round->dut->process(std::move(pkt));
        const std::int64_t b = now_ns();
        probe_ns.add(static_cast<double>(b - a));
        r.tally.record(outcome_ok(target, PktClass::kRouted, out, 0));
      }
    }
    // End state: a controller started fresh on the final config.
    StormHost fresh(round->host->pods);
    for (const std::string& rule : round->host->rules) fresh.run(rule);
    core::Controller fresh_ctl(fresh.kernel, storm_options());
    fresh_ctl.start();
    const bool same = deployments_equivalent(round->controller->deployer(),
                                             fresh_ctl.deployer(),
                                             round->host->devices());
    if (!same) r.note("round end state differs from a fresh controller's");
    r.tally.record(same);
    rotor.unpin();
    if (o.smoke || (now_ns() >= budget.at(1.0) &&
                    (o.trace || host.passes() >= 10))) {
      break;
    }
  }
  report_events(events, o.trace, r);
  if (o.trace) {
    const TimingSummary probes =
        least_contended(probe_ns.values(), 32 * kProbes, kKeep);
    r.set("ebpf.post_reaction_pkt_ns_p50", probes.p50, "ns");
    r.set("ebpf.post_reaction_pkt_ns_p99", probes.p99, "ns");
    note_timing(r, "ebpf.post_reaction_pkt_ns", probes, probe_ns.seen());
  } else {
    host.report(/*per_packet=*/true, o.smoke);
    r.set("setup_s", median(setup_s), "s");
    r.set("peak_rss_mb", rss_after_setup, "MB");
  }
}

}  // namespace perfbench
