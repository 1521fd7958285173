#include "sim/runners.h"

#include <algorithm>
#include <queue>

#include "util/logging.h"

namespace linuxfp::sim {

namespace {

// Line-rate cap: the ingress wire delivers at most nic_bps of framed bits
// (frame + FCS + 20 B preamble/IFG, see Packet::wire_size), at the mean wire
// size of the `frames` frames injected (`wire_bytes` in total). Sets the
// result's rate fields from the uncapped rate `pps`.
template <typename Result>
void set_rate(Result& result, double pps, double nic_bps,
              std::uint64_t wire_bytes, std::uint64_t frames) {
  const double wire_bits =
      frames > 0 ? 8.0 * static_cast<double>(wire_bytes) /
                       static_cast<double>(frames)
                 : 0.0;
  if (wire_bits > 0 && pps >= nic_bps / wire_bits) {
    pps = nic_bps / wire_bits;
    result.line_rate_limited = true;
  }
  result.total_pps = pps;
  result.total_bps = pps * wire_bits;
}

}  // namespace

ThroughputResult ThroughputRunner::run(DeviceUnderTest& dut,
                                       const PacketFactory& factory,
                                       int cores) const {
  LFP_CHECK(cores >= 1);
  ThroughputResult result;
  std::vector<util::OnlineStats> per_core(static_cast<std::size_t>(cores));
  util::OnlineStats all;
  std::uint64_t fast = 0, wire_bytes = 0;

  for (std::uint64_t i = 0; i < samples_; ++i) {
    net::Packet pkt = factory(i);
    wire_bytes += pkt.wire_size();
    // RSS: spread flows over queues/cores by the engine's Toeplitz flow
    // hash — the same hash every other consumer uses, so fragments and
    // non-IP frames stay flow-affine instead of round-robining per packet
    // (the old i % cores fallback straddled such flows across cores).
    std::size_t core = engine::rss_hash_cached(pkt) %
                       static_cast<std::size_t>(cores);
    ProcessOutcome out = dut.process(std::move(pkt));
    per_core[core].add(static_cast<double>(out.cycles));
    all.add(static_cast<double>(out.cycles));
    if (out.fast_path) ++fast;
  }

  double total_pps = 0;
  for (auto& stats : per_core) {
    if (stats.count() == 0) {
      result.per_core_pps.push_back(0);
      continue;
    }
    double pps = dut.cpu_hz() / stats.mean();
    result.per_core_pps.push_back(pps);
    total_pps += pps;
  }

  set_rate(result, total_pps, nic_bps_, wire_bytes, samples_);
  result.mean_cycles_per_pkt = all.mean();
  result.fast_path_fraction =
      static_cast<double>(fast) / static_cast<double>(samples_);
  return result;
}

ForwardingResult ForwardingRunner::run(kern::Kernel& kernel,
                                       int ingress_ifindex,
                                       const PacketFactory& factory,
                                       const ForwardingOptions& opts) const {
  LFP_CHECK(opts.queues >= 1);
  // True packets-out: physical-device TX deltas over the run.
  std::uint64_t tx_before = 0;
  for (kern::NetDevice* d : kernel.devices()) {
    if (d->kind() == kern::DevKind::kPhysical) tx_before += d->stats().tx_packets;
  }

  engine::EngineConfig cfg;
  cfg.queues = opts.queues;
  cfg.backpressure = true;  // exact cycle means: no sample may drop
  cfg.tx = opts.tx;
  cfg.gro = opts.gro;
  cfg.steering = opts.steering;
  engine::Engine eng(kernel, ingress_ifindex, cfg);
  std::uint64_t wire_bytes = 0;
  eng.start();
  for (std::uint64_t i = 0; i < samples_; ++i) {
    net::Packet pkt = factory(i);
    wire_bytes += pkt.wire_size();
    eng.inject(std::move(pkt));
  }
  eng.stop();

  ForwardingResult result;
  result.queues = opts.queues;
  result.packets_in = samples_;
  const double cpu_hz = kernel.cost().cpu_hz;

  std::uint64_t tx_after = 0;
  for (kern::NetDevice* d : kernel.devices()) {
    if (d->kind() == kern::DevKind::kPhysical) tx_after += d->stats().tx_packets;
  }
  result.packets_out = tx_after - tx_before;

  std::uint64_t processed = 0, fast_cycles_total = 0;
  for (unsigned q = 0; q < opts.queues; ++q) {
    processed += eng.queue_stats(q).processed;
    fast_cycles_total += eng.queue_stats(q).fast_cycles;
  }
  // Worker bottleneck: RSS pins flows, so spare workers cannot steal from a
  // hot sibling; the first queue to hit its capacity throttles the system.
  double fast_pps = 0;
  bool any_queue = false;
  for (unsigned q = 0; q < opts.queues; ++q) {
    const engine::QueueStats& st = eng.queue_stats(q);
    if (st.processed == 0) {
      result.per_queue_share.push_back(0);
      continue;
    }
    double capacity = cpu_hz * static_cast<double>(st.processed) /
                      static_cast<double>(st.fast_cycles);
    double share = static_cast<double>(st.processed) /
                   static_cast<double>(processed);
    result.per_queue_share.push_back(share);
    double sustainable = capacity / share;
    if (!any_queue || sustainable < fast_pps) fast_pps = sustainable;
    any_queue = true;
  }
  if (processed > 0) {
    result.mean_fast_cycles = static_cast<double>(fast_cycles_total) /
                              static_cast<double>(processed);
    result.fast_path_fraction =
        static_cast<double>(eng.total_fast_verdicts()) /
        static_cast<double>(processed);
  }

  // Slow-thread budget: the one thread that walks the stack for kPass
  // traffic, folds GRO, drains the TX rings and rings the doorbells. Its
  // total measured cycles per injected packet bound the sustainable rate.
  std::uint64_t slow_thread_cycles = eng.slow_stats().cycles;
  for (unsigned q = 0; q < opts.queues; ++q) {
    const engine::TxQueueStats& ts = eng.tx().queue_stats(q);
    slow_thread_cycles += ts.cycles;
    result.tx_transmitted += ts.transmitted;
  }
  slow_thread_cycles += eng.tx().flush_cycles();
  result.descriptors = eng.tx().descriptors();
  result.doorbells = eng.tx().doorbells();
  result.slow_processed = eng.slow_stats().processed;
  if (const engine::GroEngine* gro = eng.gro()) {
    result.gro_coalesced = gro->stats().coalesced;
    result.gro_superpackets = gro->stats().superpackets;
  }

  double total_pps = fast_pps;
  if (slow_thread_cycles > 0 && samples_ > 0) {
    result.slow_thread_cycles = static_cast<double>(slow_thread_cycles) /
                                static_cast<double>(samples_);
    double slow_cap_pps = cpu_hz / result.slow_thread_cycles;
    if (total_pps >= slow_cap_pps) {
      total_pps = slow_cap_pps;
      result.slow_path_limited = true;
    }
  }

  set_rate(result, total_pps, nic_bps_, wire_bytes, samples_);
  return result;
}

RrResult RrLatencyRunner::run(
    DeviceUnderTest& dut,
    const std::function<net::Packet(int session)>& request,
    const std::function<net::Packet(int session)>& response) const {
  // Measure deterministic per-direction service times by running real
  // packets through the DUT (twice each, using the second run so any
  // learning/warmup effects settle).
  std::vector<double> fwd_us(static_cast<std::size_t>(config_.sessions));
  std::vector<double> rev_us(static_cast<std::size_t>(config_.sessions));
  for (int s = 0; s < config_.sessions; ++s) {
    dut.process(request(s));
    dut.process(response(s));
    ProcessOutcome f = dut.process(request(s));
    ProcessOutcome r = dut.process(response(s));
    auto adjust = [&](const ProcessOutcome& o) {
      std::uint64_t cycles = o.cycles;
      if (!o.fast_path && !dut.busy_poll()) {
        cycles += config_.slowpath_contention_cycles;
      }
      if (cycles == 0) return 0.5;  // dropped before any accounted stage
      return static_cast<double>(cycles) / dut.cpu_hz() * 1e6;
    };
    fwd_us[static_cast<std::size_t>(s)] = adjust(f);
    rev_us[static_cast<std::size_t>(s)] = adjust(r);
  }

  // Closed-loop event simulation: one service core, FIFO queue.
  struct Event {
    double time;
    int session;
    int phase;  // 0: request arrives at DUT, 1: response arrives at DUT
    double started;  // transaction start time
    bool operator>(const Event& other) const { return time > other.time; }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  util::Rng rng(config_.seed);

  double half_base = config_.base_rtt_us / 2.0;
  for (int s = 0; s < config_.sessions; ++s) {
    double start = rng.next_double() * 5.0;  // staggered session start
    events.push({start + half_base / 2, s, 0, start});
  }

  double server_free_at = 0;
  RrResult result;
  result.rtt_us.reserve(static_cast<std::size_t>(config_.transactions));
  int completed = 0;
  double last_completion = 0;

  while (completed < config_.transactions && !events.empty()) {
    Event ev = events.top();
    events.pop();
    std::size_t s = static_cast<std::size_t>(ev.session);
    double base_service = ev.phase == 0 ? fwd_us[s] : rev_us[s];
    double service =
        base_service * rng.next_lognormal(0.0, config_.jitter_sigma);
    if (rng.next_double() < config_.hiccup_per_service) {
      service += rng.next_exponential(config_.hiccup_mean_us);
    }
    double begin = std::max(ev.time, server_free_at);
    double done = begin + service;
    server_free_at = done;
    if (ev.phase == 0) {
      // Forwarded request reaches the server; response comes back after the
      // other half of the base RTT (endpoint turnaround included).
      events.push({done + half_base, ev.session, 1, ev.started});
    } else {
      double rtt = done + half_base / 2 - ev.started;
      result.rtt_us.add(rtt);
      ++completed;
      last_completion = done;
      // Closed loop: the client immediately issues the next transaction.
      events.push({done + half_base / 2, ev.session, 0, done});
    }
  }
  if (last_completion > 0) {
    result.transactions_per_second =
        static_cast<double>(completed) / (last_completion * 1e-6);
  }
  return result;
}

}  // namespace linuxfp::sim
