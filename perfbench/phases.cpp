// Datapath phases shared by every workload: the untraced end-to-end
// measurement on both clocks and the traced per-layer breakdown.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "bench.h"
#include "ebpf/loader.h"
#include "engine/engine.h"
#include "kernel/kernel.h"
#include "net/headers.h"

namespace perfbench {

namespace {

// Consecutive process() calls per contention window (about 10 ms).
constexpr std::size_t kPacketWindow = 10000;

engine::EngineConfig engine_config(unsigned queues) {
  // Closed loop: inject() waits for ring space, so no packet is lost and
  // every count is exact. Steering and GRO stay off (see README.md).
  engine::EngineConfig cfg;
  cfg.queues = queues;
  cfg.backpressure = true;
  return cfg;
}

std::uint64_t tx_packets(kern::Kernel& k, int ifindex) {
  return k.dev(ifindex)->stats().tx_packets;
}

std::uint64_t drops_of(const kern::KernelCounters& c, kern::Drop d) {
  auto it = c.drops.find(d);
  return it == c.drops.end() ? 0 : it->second;
}

std::uint64_t policy_drops(const kern::KernelCounters& c) {
  return drops_of(c, kern::Drop::kPolicy) + drops_of(c, kern::Drop::kXdpDrop);
}

// Device-level outcome counts over one pass, checked against the classes.
struct PassCounts {
  std::uint64_t egress_tx = 0;
  std::uint64_t ingress_tx = 0;
  std::uint64_t policy = 0;
  std::uint64_t drops = 0;

  static PassCounts read(const DatapathTarget& t) {
    PassCounts c;
    c.egress_tx = tx_packets(*t.kernel, t.egress);
    c.ingress_tx = tx_packets(*t.kernel, t.ingress);
    c.policy = policy_drops(t.kernel->counters());
    c.drops = t.kernel->counters().total_drops();
    return c;
  }
};

// Packets of one pass whose outcome class does not match: routed ones that
// did not leave the egress device, echo replies that did not go back out
// the ingress device, blacklisted ones not dropped by policy, and any other
// drop.
std::uint64_t pass_failures(const Traffic& tr, const PassCounts& a,
                            const PassCounts& b) {
  const std::uint64_t policy = b.policy - a.policy;
  const std::uint64_t other = (b.drops - a.drops) - policy;
  return count_gap(b.egress_tx - a.egress_tx, tr.routed) +
         count_gap(b.ingress_tx - a.ingress_tx, tr.icmp) +
         count_gap(policy, tr.blacklisted) + other;
}

// Engine pass over a fresh copy of the traffic: wall seconds from
// Engine::start to the return of Engine::stop, and misclassified packets.
struct EnginePass {
  double wall_s = 0;
  std::uint64_t failures = 0;
};

EnginePass run_engine_pass(const DatapathTarget& t, const Traffic& tr) {
  std::vector<net::Packet> batch(tr.packets);
  const PassCounts before = PassCounts::read(t);
  EnginePass out;
  {
    engine::Engine eng(*t.kernel, t.ingress, engine_config(t.queues));
    const std::int64_t t0 = now_ns();
    eng.start();
    for (net::Packet& p : batch) eng.inject(std::move(p));
    eng.stop();
    out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  }
  out.failures = pass_failures(tr, before, PassCounts::read(t));
  return out;
}

std::vector<std::size_t> routed_indices(const Traffic& tr) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < tr.size(); ++i) {
    if (tr.classes[i] == PktClass::kRouted) idx.push_back(i);
  }
  return idx;
}

}  // namespace

void note_timing(Report& r, const std::string& name, const TimingSummary& s,
                 std::uint64_t seen) {
  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "%s: n=%zu (of %llu) p50=%.4g p99=%.4g; highest supported "
                "percentile p%.6g = %.4g",
                name.c_str(), s.count, static_cast<unsigned long long>(seen),
                s.p50, s.p99, s.tail_q * 100, s.tail);
  r.note(buf);
}

namespace {

// `count` timed process() calls over the traffic from packet `first` on,
// into `ns` (wall ns per call). Each outcome is checked against the
// packet's class.
void process_calls(const DatapathTarget& t, const Traffic& tr,
                   std::uint64_t first, std::uint64_t count, Report& r,
                   SampleWindow& ns) {
  for (std::uint64_t i = first; i < first + count; ++i) {
    const std::size_t j = static_cast<std::size_t>(i % tr.size());
    net::Packet p = tr.packets[j];
    const std::uint64_t ingress_tx = tx_packets(*t.kernel, t.ingress);
    const std::int64_t a = now_ns();
    sim::ProcessOutcome out = t.dut->process(std::move(p));
    const std::int64_t b = now_ns();
    ns.add(static_cast<double>(b - a));
    r.tally.record(outcome_ok(t, tr.classes[j], out, ingress_tx));
  }
}

}  // namespace

CpuRotor::CpuRotor() {
  CPU_ZERO(&allowed_);
  if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }
}

void CpuRotor::pin_next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  (void)sched_setaffinity(0, sizeof(one), &one);
}

void CpuRotor::unpin() {
  if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof(allowed_), &allowed_);
}

void Report::note(const std::string& line) {
  std::fprintf(stderr, "  %s\n", line.c_str());
}

void Traffic::add(net::Packet pkt, PktClass c) {
  packets.push_back(std::move(pkt));
  classes.push_back(c);
  switch (c) {
    case PktClass::kRouted: ++routed; break;
    case PktClass::kBlacklisted: ++blacklisted; break;
    case PktClass::kIcmp: ++icmp; break;
  }
}

Traffic uniform_traffic(int flows, std::size_t n, util::Rng& rng,
                        const std::function<net::Packet(int flow)>& packet) {
  Traffic tr;
  std::vector<int> order(static_cast<std::size_t>(flows));
  std::iota(order.begin(), order.end(), 0);
  while (tr.size() < n) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    for (int f : order) {
      if (tr.size() == n) break;
      tr.add(packet(f), PktClass::kRouted);
    }
  }
  return tr;
}

bool outcome_ok(const DatapathTarget& t, PktClass c,
                const sim::ProcessOutcome& out, std::uint64_t ingress_tx) {
  switch (c) {
    case PktClass::kRouted:
      return out.forwarded && !out.dropped_by_policy;
    case PktClass::kBlacklisted:
      return out.dropped_by_policy && !out.forwarded;
    case PktClass::kIcmp:
      return !out.forwarded && !out.fast_path &&
             tx_packets(*t.kernel, t.ingress) == ingress_tx + 1;
  }
  return false;
}

void warm_up(const DatapathTarget& t, const Traffic& traffic) {
  (void)run_engine_pass(t, traffic);
}

void model_datapath(const DatapathTarget& t, const Traffic& tr,
                    std::uint64_t seed, bool smoke, Report& r) {
  const std::uint64_t n = tr.size();
  // ForwardingRunner's zero-loss rate from the measured per-thread cycle
  // budgets. Runs right after the warm-up, so the flow-cache state it sees
  // is a function of the seed alone. The runner caps the rate at the line
  // rate of the frame its factory returns for index 0, so the pass starts at
  // the first smallest frame: with a 1500 B frame first, an IMIX pass read
  // 2.05 Mpps, the 1500 B line rate, instead of about 5.15.
  std::uint64_t first = 0;
  for (std::uint64_t i = 1; i < n; ++i) {
    if (tr.packets[i].size() < tr.packets[first].size()) first = i;
  }
  sim::ForwardingOptions fo;
  fo.queues = t.queues;
  sim::ForwardingResult fr = sim::ForwardingRunner(25e9, n).run(
      *t.kernel, t.ingress,
      [&tr, first](std::uint64_t i) { return tr.at(first + i); }, fo);
  r.tally.add(n, count_gap(fr.packets_out, tr.routed + tr.icmp));
  r.set("modeled_mpps", fr.total_pps / 1e6, "Mpps");

  // Tables III-V transaction model on this DUT; the seed drives its jitter.
  const std::vector<std::size_t> routed = routed_indices(tr);
  sim::RrConfig rc;
  // Enough transactions that the p99, set by rare modeled stalls, varies
  // little with the seed.
  rc.transactions = smoke ? 2000 : 2000000;
  rc.seed = seed;
  auto request = [&](int s) {
    return tr.packets[routed[static_cast<std::size_t>(s) % routed.size()]];
  };
  sim::RrResult rr = sim::RrLatencyRunner(rc).run(*t.dut, request, request);
  const TimingSummary rtt = summarize(rr.rtt_us.samples());
  r.set("modeled_rtt_us_p50", rtt.p50, "us");
  r.set("modeled_rtt_us_p99", rtt.p99, "us");
  note_timing(r, "modeled_rtt_us", rtt, rtt.count);
}

HostSampler::HostSampler(const DatapathTarget& t, const Traffic& tr,
                         Report& r)
    : t_(t), tr_(tr), r_(r) {}

void HostSampler::engine_pass() {
  const EnginePass p = run_engine_pass(t_, tr_);
  pass_s_.push_back(p.wall_s);
  r_.tally.add(tr_.size(), p.failures);
}

void HostSampler::process_slice(std::uint64_t n) {
  process_calls(t_, tr_, next_, n, r_, pkt_ns_);
  next_ += n;
}

void HostSampler::report(bool per_packet, bool smoke) {
  const std::size_t n = tr_.size();
  const TimingSummary passes = least_contended(pass_s_, 1, kKeep);
  r_.set("host_mpps", static_cast<double>(n) / passes.p50 / 1e6, "Mpps");
  const TimingSummary all = summarize(pass_s_);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "host_mpps: median pass of the fastest %zu of %zu engine "
                "passes of %zu packets (all passes: p50 %.3f, p99 %.3f Mpps)",
                passes.count, pass_s_.size(), n,
                static_cast<double>(n) / all.p50 / 1e6,
                static_cast<double>(n) / all.p99 / 1e6);
  r_.note(buf);
  if (!per_packet) return;
  const TimingSummary pkt =
      least_contended(pkt_ns_.values(), smoke ? 20 : kPacketWindow, kKeep);
  r_.set("host_pkt_ns_p50", pkt.p50, "ns");
  r_.set("host_pkt_ns_p99", pkt.p99, "ns");
  note_timing(r_, "host_pkt_ns", pkt, pkt_ns_.seen());
}

void trace_datapath(const DatapathTarget& t, const Traffic& tr, bool smoke,
                    Report& r) {
  kern::Kernel& k = *t.kernel;
  util::MetricsRegistry& reg = k.metrics();
  const std::uint64_t n = tr.size();
  const double pkts = static_cast<double>(n);
  const auto per = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  SpanLog* spans = &r.spans;

  // --- counted engine pass: engine, flow cache, eBPF and helper counts ----
  // Metric name (the helper's eBPF name) and the VM's counter for it.
  static const char* kHelpers[][2] = {
      {"bpf_fib_lookup", "ebpf.helper.fib_lookup.calls"},
      {"bpf_ipt_lookup", "ebpf.helper.ipt_lookup.calls"},
      {"bpf_redirect", "ebpf.helper.redirect.calls"}};
  std::uint64_t helper_before[3];
  for (int h = 0; h < 3; ++h) helper_before[h] = reg.value(kHelpers[h][1]);
  const ebpf::AttachmentStats as0 = t.xdp ? t.xdp->stats()
                                          : ebpf::AttachmentStats{};
  const engine::FlowCacheStats fc0 =
      t.xdp ? t.xdp->flow_cache_stats() : engine::FlowCacheStats{};
  const kern::KernelCounters kc0 = k.counters();
  const PassCounts before = PassCounts::read(t);

  std::vector<net::Packet> batch(tr.packets);
  std::vector<double> inject_ns;
  double stop_ms = 0;
  engine::Engine eng(k, t.ingress, engine_config(t.queues));
  {
    ScopedSpan pass(spans, "engine.pass");
    eng.start();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (i % 8 != 0) {
        eng.inject(std::move(batch[i]));
        continue;
      }
      const std::int64_t a = now_ns();
      eng.inject(std::move(batch[i]));
      const std::int64_t b = now_ns();
      spans->add("engine.inject", a, b);
      inject_ns.push_back(static_cast<double>(b - a));
    }
    const std::int64_t a = now_ns();
    eng.stop();
    const std::int64_t b = now_ns();
    spans->add("engine.stop", a, b);
    stop_ms = static_cast<double>(b - a) * 1e-6;
  }
  r.tally.add(n, pass_failures(tr, before, PassCounts::read(t)));

  std::uint64_t processed = 0, fast_cycles = 0, hot = 0, bp_stalls = 0,
                handoff_stalls = 0, tx_stalls = 0;
  std::uint64_t slow_cycles = eng.slow_stats().cycles + eng.tx().flush_cycles();
  for (unsigned q = 0; q < t.queues; ++q) {
    const engine::QueueStats& st = eng.queue_stats(q);
    processed += st.processed;
    fast_cycles += st.fast_cycles;
    hot = std::max(hot, st.processed);
    bp_stalls += st.backpressure_stalls;
    handoff_stalls += st.handoff_stalls;
    tx_stalls += st.tx_stalls;
    slow_cycles += eng.tx().queue_stats(q).cycles;
  }
  const double proc = static_cast<double>(processed);
  r.set("engine.worker_cycles_per_pkt", per(fast_cycles, proc), "cycles");
  r.set("engine.hot_queue_share", per(hot, proc), "share");
  r.set("engine.slow_thread_cycles_per_pkt", per(slow_cycles, pkts), "cycles");
  r.set("engine.fast_path_fraction", per(eng.total_fast_verdicts(), proc),
        "share");
  r.set("engine.inject_ns", summarize(inject_ns).p50, "ns");
  r.set("engine.stop_ms", stop_ms, "ms");
  r.set("engine.backpressure_stalls_per_kpkt.timing_dependent",
        per(1000.0 * bp_stalls, pkts), "1/kpkt");
  r.set("engine.handoff_stalls_per_kpkt.timing_dependent",
        per(1000.0 * handoff_stalls, pkts), "1/kpkt");
  r.set("engine.tx_stalls_per_kpkt.timing_dependent",
        per(1000.0 * tx_stalls, pkts), "1/kpkt");
  r.set("engine.tx.descriptors_per_pkt", per(eng.tx().descriptors(), pkts),
        "1/pkt");
  r.set("engine.tx.doorbells_per_kpkt.timing_dependent",
        per(1000.0 * eng.tx().doorbells(), pkts), "1/kpkt");

  const engine::FlowCacheStats fc1 =
      t.xdp ? t.xdp->flow_cache_stats() : engine::FlowCacheStats{};
  const double lookups = static_cast<double>((fc1.hits - fc0.hits) +
                                             (fc1.misses - fc0.misses));
  r.set("flowcache.hit_rate", per(fc1.hits - fc0.hits, lookups), "share");
  r.set("flowcache.lookups_per_pkt", per(lookups, pkts), "1/pkt");
  r.set("flowcache.evictions_per_kpkt",
        per(1000.0 * (fc1.evictions - fc0.evictions), pkts), "1/kpkt");
  r.set("flowcache.uncacheable_per_kpkt",
        per(1000.0 * (fc1.uncacheable - fc0.uncacheable), pkts), "1/kpkt");
  r.set("flowcache.invalidations",
        static_cast<double>(fc1.invalidations - fc0.invalidations), "count");

  const ebpf::AttachmentStats as1 = t.xdp ? t.xdp->stats()
                                          : ebpf::AttachmentStats{};
  const double runs = static_cast<double>(as1.runs - as0.runs);
  r.set("ebpf.runs_per_pkt", per(runs, pkts), "1/pkt");
  r.set("ebpf.insns_per_run", per(as1.total_insns - as0.total_insns, runs),
        "insns");
  r.set("ebpf.cycles_per_run", per(as1.total_cycles - as0.total_cycles, runs),
        "cycles");
  for (int h = 0; h < 3; ++h) {
    const std::uint64_t calls = reg.value(kHelpers[h][1]) - helper_before[h];
    r.set(std::string("ebpf.helper.") + kHelpers[h][0] + ".calls_per_pkt",
          per(calls, pkts), "1/pkt");
  }

  const kern::KernelCounters& kc1 = k.counters();
  const std::uint64_t policy = policy_drops(kc1) - policy_drops(kc0);
  r.set("kernel.drops.policy_per_kpkt", per(1000.0 * policy, pkts), "1/kpkt");
  r.set("kernel.drops.other_per_kpkt",
        per(1000.0 * ((kc1.total_drops() - kc0.total_drops()) - policy), pkts),
        "1/kpkt");

  // --- counted process() pass: per-stage cycles and the ledger ----------
  // Single-threaded Kernel::rx charges every stage, including driver_rx and
  // the XDP hook, through the kernel's stage counters.
  static const char* kStages[] = {"driver_rx",   "skb_alloc",  "netif_receive",
                                  "ip_rcv",      "fib_lookup", "nf_forward",
                                  "ip_forward",  "neigh_lookup", "icmp",
                                  "driver_tx"};
  const std::size_t m = std::min<std::size_t>(n, smoke ? 512 : 16384);
  std::uint64_t stage_before[10];
  for (int s = 0; s < 10; ++s) {
    stage_before[s] =
        reg.value(std::string("slowpath.") + kStages[s] + ".cycles");
  }
  const std::uint64_t fib_lookups0 = reg.value("fib.lookups");
  const std::uint64_t fib_depth0 = reg.value("fib.depth_total");
  const std::uint64_t vm_cycles0 = t.xdp ? t.xdp->stats().total_cycles : 0;
  std::uint64_t total_cycles = 0;
  std::vector<double> traced_ns;
  for (std::size_t i = 0; i < m; ++i) {
    net::Packet p = tr.packets[i];
    const std::uint64_t ingress_tx = tx_packets(k, t.ingress);
    const std::int64_t a = now_ns();
    sim::ProcessOutcome out = t.dut->process(std::move(p));
    const std::int64_t b = now_ns();
    spans->add("sim.process", a, b);
    traced_ns.push_back(static_cast<double>(b - a));
    total_cycles += out.cycles;
    r.tally.record(outcome_ok(t, tr.classes[i], out, ingress_tx));
  }
  double named = 0;
  for (int s = 0; s < 10; ++s) {
    const double c = static_cast<double>(
        reg.value(std::string("slowpath.") + kStages[s] + ".cycles") -
        stage_before[s]);
    named += c;
    r.set(std::string("kernel.slowpath.") + kStages[s] + ".cycles_per_pkt",
          c / static_cast<double>(m), "cycles");
  }
  named += static_cast<double>((t.xdp ? t.xdp->stats().total_cycles : 0) -
                               vm_cycles0);
  r.set("ledger.unattributed_cycles_per_pkt",
        (static_cast<double>(total_cycles) - named) / static_cast<double>(m),
        "cycles");
  r.set("kernel.fib.depth_mean",
        per(reg.value("fib.depth_total") - fib_depth0,
            reg.value("fib.lookups") - fib_lookups0),
        "nodes");

  // Tracing overhead: the same packets through process() without spans.
  SampleWindow untraced(m);
  process_calls(t, tr, 0, m, r, untraced);
  r.set("trace.overhead.host_pkt_ns_p50",
        summarize(traced_ns).p50 - summarize(untraced.values()).p50, "ns");

  // --- replays of sampled packets through single layers -------------------
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < n && sample.size() < 4096; i += 7) {
    sample.push_back(i);
  }
  const std::string in_if = k.dev(t.ingress)->name();
  const std::string out_if = k.dev(t.egress)->name();
  std::vector<net::Ipv4Addr> dsts;
  std::vector<kern::NfPacketInfo> infos;
  for (std::size_t i : sample) {
    net::Packet p = tr.packets[i];
    net::Ipv4View ip(p.data() + net::kEthHdrLen);
    kern::NfPacketInfo info;
    info.src = ip.src();
    info.dst = ip.dst();
    info.proto = ip.protocol();
    if (info.proto == net::kIpProtoUdp) {
      net::UdpView udp(p.data() + net::kEthHdrLen + ip.header_len());
      info.sport = udp.src_port();
      info.dport = udp.dst_port();
    }
    info.in_if = in_if;
    info.out_if = out_if;
    info.bytes = p.size();
    dsts.push_back(info.dst);
    infos.push_back(std::move(info));
  }

  std::vector<double> run_ns;
  if (t.xdp) {
    const std::uint64_t insns0 = t.xdp->stats().total_insns;
    double total_ns = 0;
    for (std::size_t i : sample) {
      net::Packet p = tr.packets[i];
      const std::int64_t a = now_ns();
      (void)t.xdp->run(p, t.ingress);
      const std::int64_t b = now_ns();
      spans->add("ebpf.run", a, b);
      run_ns.push_back(static_cast<double>(b - a));
      total_ns += static_cast<double>(b - a);
    }
    r.set("ebpf.ns_per_insn",
          per(total_ns, t.xdp->stats().total_insns - insns0), "ns");
  } else {
    r.set("ebpf.ns_per_insn", 0, "ns");
  }
  r.set("ebpf.run_ns_p50", summarize(run_ns).p50, "ns");

  // Fib::lookup and Netfilter::evaluate take tens of ns: time batches of 32
  // calls and report the per-call median.
  constexpr std::size_t kBatch = 32;
  std::vector<double> fib_ns, nf_ns;
  std::size_t examined = 0, probes = 0, evals = 0;
  for (int round = 0; round < (smoke ? 1 : 16); ++round) {
    for (std::size_t b0 = 0; b0 + kBatch <= dsts.size(); b0 += kBatch) {
      std::size_t found = 0;
      const std::int64_t a = now_ns();
      for (std::size_t i = b0; i < b0 + kBatch; ++i) {
        found += k.fib().lookup(dsts[i]).has_value();
      }
      const std::int64_t b = now_ns();
      spans->add("kernel.fib.lookup", a, b);
      fib_ns.push_back(static_cast<double>(b - a) / kBatch);
      r.tally.add(kBatch, kBatch - found);
    }
    for (std::size_t b0 = 0; b0 + kBatch <= infos.size(); b0 += kBatch) {
      const std::int64_t a = now_ns();
      for (std::size_t i = b0; i < b0 + kBatch; ++i) {
        const kern::NfEvalResult res = k.netfilter().evaluate(
            kern::NfHook::kForward, infos[i], k.ipsets());
        examined += res.rules_examined;
        probes += res.tuple_probes;
      }
      const std::int64_t b = now_ns();
      spans->add("kernel.nf.evaluate", a, b);
      nf_ns.push_back(static_cast<double>(b - a) / kBatch);
      evals += kBatch;
    }
  }
  r.set("kernel.fib.lookup_ns", summarize(fib_ns).p50, "ns");
  r.set("kernel.nf.evaluate_ns", summarize(nf_ns).p50, "ns");
  r.set("kernel.nf.rules_examined_per_pkt",
        per(static_cast<double>(examined), static_cast<double>(evals)), "1/pkt");
  r.set("kernel.nf.tuple_probes_per_pkt",
        per(static_cast<double>(probes), static_cast<double>(evals)), "1/pkt");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
