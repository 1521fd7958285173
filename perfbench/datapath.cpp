// The three datapath workloads on the paper's three-node line topology:
// router_64b, gateway_imix and linux_64b. Each run sets the testbed up
// (timed, several times), measures the datapath, then runs a stream of
// config events whose net effect is nil, and checks that the controller
// ends where a freshly started one would.
#include <algorithm>
#include <cmath>

#include "bench.h"
#include "ebpf/loader.h"
#include "net/headers.h"
#include "sim/testbed.h"

namespace perfbench {

namespace {

struct Workload {
  sim::ScenarioConfig cfg;
  unsigned queues = 2;
  std::size_t packets = 65536;  // one pass
  // A config event and the event that undoes it, so that pairs leave the
  // config as they found it.
  std::function<std::pair<Event, Event>(util::Rng&)> event_pair;
};

// Gateway mix: 2% echo requests to the DUT, 10% from blacklisted sources,
// the rest Zipf(1.1) over 16,384 routed flows; frames 64/576/1500 B at
// 7:4:1. The counts per class, per routed flow and per frame size are those
// of the mix, rounded; the seed draws the order of the packets and the
// blacklisted sources. Drawing every packet's flow from the seed instead
// moved the hottest queue's share, and with it modeled_mpps, by 1% between
// seeds.
Traffic gateway_traffic(sim::LinuxTestbed& tb, int rules, std::size_t n,
                        util::Rng& rng) {
  constexpr int kFlows = 16384;
  constexpr std::size_t kImix[12] = {64,  576, 64,  64,  576, 64,
                                     1500, 64, 576, 64,  576, 64};
  constexpr int kIcmp = -1, kBlacklisted = -2;
  const std::size_t icmp = n / 50, blacklisted = n / 10;
  const std::size_t routed = n - icmp - blacklisted;
  // One slot per packet: its routed flow (or class) and frame size. Routed
  // flow r gets round(routed * cdf(r)) - round(routed * cdf(r - 1)) slots.
  std::vector<std::pair<int, std::size_t>> slots;
  slots.reserve(n);
  for (std::size_t i = 0; i < icmp; ++i) slots.emplace_back(kIcmp, 0);
  for (std::size_t i = 0; i < blacklisted; ++i) {
    slots.emplace_back(kBlacklisted, kImix[i % 12]);
  }
  double norm = 0;
  for (int r = 0; r < kFlows; ++r) {
    norm += 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
  }
  double acc = 0;
  std::size_t placed = 0;
  for (int r = 0; r < kFlows; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
    const auto upto = static_cast<std::size_t>(
        std::llround(static_cast<double>(routed) * acc / norm));
    for (; placed < std::min(upto, routed); ++placed) {
      slots.emplace_back(r, kImix[placed % 12]);
    }
  }
  for (std::size_t i = slots.size(); i > 1; --i) {
    std::swap(slots[i - 1], slots[rng.next_below(i)]);
  }

  const net::MacAddr src_mac = net::MacAddr::from_id(0x501);  // testbed peer
  const net::MacAddr dut_mac = tb.kernel().dev_by_name("eth0")->mac();
  Traffic tr;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const auto [flow, size] = slots[i];
    if (flow == kIcmp) {
      tr.add(net::build_icmp_echo(
                 src_mac, dut_mac, net::Ipv4Addr::parse("10.10.1.2").value(),
                 net::Ipv4Addr::parse("10.10.1.1").value(), false, 0x4242,
                 static_cast<std::uint16_t>(i)),
             PktClass::kIcmp);
    } else if (flow == kBlacklisted) {
      const int entry = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(rules)));
      net::FlowKey f;
      f.src_ip = net::Ipv4Addr::parse(
                     sim::LinuxTestbed::blacklist_address(entry))
                     .value();
      f.dst_ip = net::Ipv4Addr::from_octets(
          10, static_cast<std::uint8_t>(100 + rng.next_below(50)), 0, 9);
      f.proto = net::kIpProtoUdp;
      f.src_port = static_cast<std::uint16_t>(1024 + rng.next_below(4096));
      f.dst_port = 7;
      tr.add(net::build_udp_packet(src_mac, dut_mac, f, size),
             PktClass::kBlacklisted);
    } else {
      tr.add(tb.forward_packet(flow % 50, static_cast<std::uint16_t>(flow),
                               size),
             PktClass::kRouted);
    }
  }
  return tr;
}

std::pair<Event, Event> route_pair(util::Rng& rng) {
  // A prefix outside the scenario's 10.100-10.149 range.
  const std::string prefix =
      "10.200." + std::to_string(rng.next_below(250)) + ".0/24";
  return {{"ip route add " + prefix + " via 10.10.2.2 dev eth1"},
          {"ip route del " + prefix}};
}

Workload workload_for(const std::string& name) {
  Workload w;
  w.cfg.prefixes = 50;
  if (name == "router_64b") {
    w.cfg.accel = sim::Accel::kLinuxFpXdp;
    w.event_pair = route_pair;
  } else if (name == "gateway_imix") {
    w.cfg.accel = sim::Accel::kLinuxFpXdp;
    w.cfg.filter_rules = 1000;
    w.cfg.rule_classifier = true;
    w.cfg.flow_cache = true;
    const int rules = w.cfg.filter_rules;
    w.event_pair = [rules](util::Rng& rng) -> std::pair<Event, Event> {
      return {{"iptables -A FORWARD -s 10.77." +
               std::to_string(rng.next_below(250)) + "." +
               std::to_string(1 + rng.next_below(250)) + " -j DROP"},
              {"iptables -D FORWARD " + std::to_string(rules + 1)}};
    };
  } else {  // linux_64b
    w.cfg.accel = sim::Accel::kNone;
    w.queues = 1;
    w.packets = 32768;
    w.event_pair = route_pair;
  }
  return w;
}

DatapathTarget target_of(sim::LinuxTestbed& tb, unsigned queues) {
  DatapathTarget t;
  t.kernel = &tb.kernel();
  t.ingress = tb.ingress_ifindex();
  t.egress = tb.kernel().dev_by_name("eth1")->ifindex();
  t.dut = &tb;
  t.queues = queues;
  if (core::Controller* c = tb.controller()) {
    t.xdp = c->deployer().attachment("eth0", ebpf::HookType::kXdp);
  }
  return t;
}

core::ControllerOptions controller_options(const sim::ScenarioConfig& cfg) {
  core::ControllerOptions o;
  o.flow_cache = cfg.flow_cache;
  return o;
}

void run_datapath(const std::string& name, const Options& o, Report& r) {
  Workload wl = workload_for(name);
  if (o.smoke) wl.packets = 4096;
  util::Rng rng(o.seed);

  // Set-up: testbed build, controller start and initial deploy, and one
  // warm-up pass; traffic generation is not part of it. Repeated; the median
  // is reported.
  std::unique_ptr<sim::LinuxTestbed> tb;
  Traffic traffic;
  std::vector<double> setup_s;
  const int setups = o.smoke ? 1 : 21;
  for (int s = 0; s < setups; ++s) {
    tb.reset();
    const std::int64_t t0 = now_ns();
    tb = std::make_unique<sim::LinuxTestbed>(wl.cfg);
    const std::int64_t t1 = now_ns();
    if (traffic.size() == 0) {
      traffic = name == "gateway_imix"
                    ? gateway_traffic(*tb, wl.cfg.filter_rules, wl.packets, rng)
                    : uniform_traffic(4096, wl.packets, rng, [&](int f) {
                        return tb->forward_packet(
                            f % 50, static_cast<std::uint16_t>(f), 64);
                      });
    }
    const std::int64_t t2 = now_ns();
    warm_up(target_of(*tb, wl.queues), traffic);
    setup_s.push_back(static_cast<double>((t1 - t0) + (now_ns() - t2)) * 1e-9);
  }
  // Memory of the ready system; the measurement's own buffers come later.
  const double rss_after_setup = peak_rss_mb();
  const DatapathTarget target = target_of(*tb, wl.queues);
  r.tally.record(wl.cfg.accel == sim::Accel::kNone || target.xdp != nullptr);

  const Budget budget(o.seconds);
  std::unique_ptr<sim::LinuxTestbed> mirror_tb;
  std::unique_ptr<Mirror> mirror;
  if (!o.trace) {
    model_datapath(target, traffic, o.seed, o.smoke, r);
  } else {
    trace_datapath(target, traffic, o.smoke, r);
    if (tb->controller()) {
      sim::ScenarioConfig mcfg = wl.cfg;
      mcfg.accel = sim::Accel::kNone;
      mirror_tb = std::make_unique<sim::LinuxTestbed>(mcfg);
      mirror = std::make_unique<Mirror>(mirror_tb->kernel(),
                                        controller_options(wl.cfg));
      r.tally.record(!mirror->start().deploy_failed);
    }
  }

  // Until the budget is spent: in the untraced run, slices of host datapath
  // work (an engine pass, 100,000 process() calls), each followed by config
  // event pairs that undo each other; in the traced run, the event pairs
  // alone.
  EventTarget et;
  et.kernel = &tb->kernel();
  et.controller = tb->controller();
  if (mirror) {
    et.mirror_kernel = &mirror_tb->kernel();
    et.mirror = mirror.get();
  }
  EventStats events;
  HostSampler host(target, traffic, r);
  SpanLog* spans = o.trace ? &r.spans : nullptr;
  CpuRotor rotor;
  for (;;) {
    const std::int64_t slice_start = now_ns();
    if (!o.trace) host.engine_pass();
    rotor.pin_next();
    if (!o.trace) host.process_slice(o.smoke ? 2000 : 100000);
    // Events get as long as the datapath work of the slice, and at least
    // 10 ms, so that costly ones (1.4 ms on the gateway) reach 4,000 within
    // the run; but at most 1,024 pairs, so that the samples of cheap ones
    // (a 2 us route command on plain Linux) span the whole run, not only
    // the stretch the sample window still holds at its end.
    const std::int64_t now = now_ns();
    const std::int64_t events_until =
        now + std::max<std::int64_t>(now - slice_start, 10'000'000);
    for (int k = 0; o.smoke ? k < 4
                            : (k == 0 || (k < 1024 && now_ns() < events_until));
         ++k) {
      // One sample per pair, half its time: an event and its undo cost
      // different amounts (a route add a third more than its delete), and
      // the median of a sample mixing the two falls between them, where few
      // samples lie, so that it moves with the tails of both.
      const auto [apply, undo] = wl.event_pair(rng);
      const EventTime a = run_event(et, apply, events, r, spans);
      const EventTime b = run_event(et, undo, events, r, spans);
      events.wall_ms.add(0.5 * (a.wall_ms + b.wall_ms));
      if (spans) events.traced_ms.add(0.5 * (a.traced_ms + b.traced_ms));
    }
    rotor.unpin();
    // 4,000 events give 2,000 pair samples, of which the pool keeps at least
    // the fastest 1,000; 10 passes give the pooled tenth one pass.
    if (o.smoke || (now_ns() >= budget.at(1.0) && events.events >= 4000 &&
                    (o.trace || host.passes() >= 10))) {
      break;
    }
  }
  if (!o.trace) host.report(/*per_packet=*/true, o.smoke);
  report_events(events, o.trace, r);
  if (o.trace) {
    // Packets probed right after each reaction: the storm only.
    r.set("ebpf.post_reaction_pkt_ns_p50", 0, "ns");
    r.set("ebpf.post_reaction_pkt_ns_p99", 0, "ns");
  }

  // End state: the config is back to the scenario's, so the deployed
  // programs must equal those of a freshly started controller.
  if (tb->controller()) {
    sim::LinuxTestbed fresh(wl.cfg);
    const bool same = deployments_equivalent(tb->controller()->deployer(),
                                             fresh.controller()->deployer(),
                                             {"eth0", "eth1"});
    if (!same) r.note("end state differs from a fresh controller's");
    r.tally.record(same);
  }
  if (!o.trace) {
    r.set("setup_s", median(setup_s), "s");
    r.set("peak_rss_mb", rss_after_setup, "MB");
  }
}

}  // namespace

void run_router(const Options& o, Report& r) { run_datapath("router_64b", o, r); }
void run_gateway(const Options& o, Report& r) {
  run_datapath("gateway_imix", o, r);
}
void run_linux(const Options& o, Report& r) { run_datapath("linux_64b", o, r); }

}  // namespace perfbench
