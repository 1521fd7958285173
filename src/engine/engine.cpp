#include "engine/engine.h"

#include <chrono>
#include <string>

#include "util/fault.h"
#include "util/logging.h"

namespace linuxfp::engine {

Engine::Engine(kern::Kernel& kernel, int ifindex, EngineConfig cfg)
    : kernel_(kernel), ifindex_(ifindex), cfg_(cfg), rss_(cfg.queues) {
  LFP_CHECK_MSG(cfg_.queues >= 1, "engine needs at least one queue");
  LFP_CHECK_MSG(cfg_.napi_budget >= 1, "napi budget must be positive");
  queues_.reserve(cfg_.queues);
  for (unsigned q = 0; q < cfg_.queues; ++q) {
    queues_.push_back(std::make_unique<QueueState>(cfg_.queue_depth));
  }
  slow_ring_ = std::make_unique<BoundedRing<net::Packet>>(cfg_.slow_ring_depth);
  tx_ = std::make_unique<TxEngine>(kernel_, rss_, cfg_.tx, cfg_.queues);
  if (cfg_.gro.enabled) gro_.assign(cfg_.queues, GroEngine(cfg_.gro));
  if (cfg_.steering.any()) {
    steerer_ = std::make_unique<FlowSteerer>(rss_, cfg_.steering);
  }
}

Engine::~Engine() { stop(); }

void Engine::start() {
  LFP_CHECK_MSG(!started_, "engine started twice");
  started_ = true;
  kern::NetDevice* d = kernel_.dev(ifindex_);
  LFP_CHECK_MSG(d != nullptr, "engine: unknown ingress ifindex");
  prog_ = d->xdp_prog();
  // Route every physical transmit through the TX batcher for the run: the
  // slow-path thread is the only transmitter while the engine is live, so
  // the batcher's doorbell state stays single-writer.
  kernel_.set_tx_batcher(tx_.get());
  // Per-CPU execution state (VMs, stat shards) is allocated before any
  // worker exists, so the hot loops never allocate or lock.
  if (prog_) prog_->prepare_cpus(cfg_.queues);
  wd_last_hb_.assign(cfg_.queues, 0);
  wd_stale_.assign(cfg_.queues, 0);
  wd_alive_streak_.assign(cfg_.queues, 0);
  wd_dead_.assign(cfg_.queues, 0);
  live_workers_.store(cfg_.queues, std::memory_order_relaxed);
  running_.store(true, std::memory_order_release);
  workers_.reserve(cfg_.queues);
  for (unsigned q = 0; q < cfg_.queues; ++q) {
    workers_.emplace_back([this, q] { worker_main(q); });
  }
  slow_thread_ = std::thread([this] { slow_main(); });
}

void Engine::inject(net::Packet&& pkt) {
  // Hash once at the NIC boundary; the stashed hash rides along for the
  // worker-side flow cache (and any later consumer) to reuse.
  const std::uint32_t hash = rss_hash_cached(pkt);
  const unsigned q =
      steerer_ ? steerer_->pick_queue(hash) : rss_.queue_for_hash(hash);
  QueueState& qs = *queues_[q];
  std::size_t occ = qs.ring.occupancy();
  if (occ > qs.stats.max_occupancy) qs.stats.max_occupancy = occ;
  std::uint64_t spins = 0;
  for (;;) {
    if (qs.ring.try_push(std::move(pkt))) {
      ++qs.stats.enqueued;
      return;
    }
    if (!cfg_.backpressure) {
      // NIC tail-drop: the wire does not wait for a stalled ring.
      ++qs.stats.tail_drops;
      return;
    }
    // Bounded wait: a stuck worker must not wedge the producer forever — the
    // stall is counted (the watchdog's demand signal) and past the spin
    // budget the packet drops like a tail-drop.
    if (spins == 0) ++qs.stats.backpressure_stalls;
    if (++spins > cfg_.backpressure_spin_limit) {
      ++qs.stats.tail_drops;
      return;
    }
    std::this_thread::yield();
  }
}

void Engine::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  running_.store(false, std::memory_order_release);
  for (std::thread& t : workers_) t.join();
  slow_thread_.join();
  kernel_.set_tx_batcher(nullptr);
  reconcile();
}

void Engine::worker_main(unsigned q) {
  QueueState& qs = *queues_[q];
  net::Packet pkt;
  for (;;) {
    if (cfg_.worker_poll_hook) cfg_.worker_poll_hook(q);
    qs.heartbeat.fetch_add(1, std::memory_order_relaxed);
    unsigned n = 0;
    while (n < cfg_.napi_budget && qs.ring.try_pop(pkt)) {
      process_packet(q, std::move(pkt));
      // Per-packet beat: a worker mid-burst is alive, and a busy queue must
      // not read as stuck just because one NAPI poll outlasts the watchdog's
      // sampling cadence.
      qs.heartbeat.fetch_add(1, std::memory_order_relaxed);
      ++n;
    }
    if (n > 0) {
      ++qs.stats.polls;
      if (n == cfg_.napi_budget) ++qs.stats.bursts;
      continue;
    }
    if (!running_.load(std::memory_order_acquire)) {
      // The producer is done; everything it pushed is visible now. Drain the
      // stragglers and exit.
      while (qs.ring.try_pop(pkt)) {
        process_packet(q, std::move(pkt));
      }
      break;
    }
    std::this_thread::yield();
  }
  live_workers_.fetch_sub(1, std::memory_order_release);
}

void Engine::process_packet(unsigned q, net::Packet&& pkt) {
  QueueStats& st = queues_[q]->stats;
  const kern::CostModel& cost = kernel_.cost();
  const std::size_t size = pkt.size();
  ++st.processed;
  st.rx_bytes += size;
  pkt.rx_queue = q;
  pkt.ingress_ifindex = static_cast<std::uint32_t>(ifindex_);

  // The driver poll and the XDP run both happen on the RSS-steered CPU,
  // exactly as in Linux; their cycles are this queue's fast-path budget.
  std::uint64_t cycles =
      cost.driver_rx +
      static_cast<std::uint64_t>(cost.per_byte_rx * static_cast<double>(size));
  kern::PacketProgram::RunResult r;  // defaults to kPass when no program
  if (prog_) {
    r = prog_->run(pkt, ifindex_, q);
    cycles += r.cycles + cost.xdp_hook_overhead;
  }
  st.fast_cycles += cycles;

  switch (r.verdict) {
    case kern::PacketProgram::Verdict::kDrop:
      ++st.xdp_drop;
      return;
    case kern::PacketProgram::Verdict::kTx:
      ++st.xdp_tx;
      tx_enqueue(q, ifindex_, std::move(pkt));
      return;
    case kern::PacketProgram::Verdict::kRedirect:
      ++st.xdp_redirect;
      tx_enqueue(q, r.redirect_ifindex, std::move(pkt));
      return;
    case kern::PacketProgram::Verdict::kUserspace:
      ++st.to_userspace;
      return;
    case kern::PacketProgram::Verdict::kAborted:
      ++st.aborted;
      break;  // aborted packets continue to the stack, like the kernel
    case kern::PacketProgram::Verdict::kPass:
      ++st.xdp_pass;
      break;
  }

  // kPass / kAborted: hand over to the slow-path thread. The kernel's
  // single-writer state is never touched from this worker.
  std::uint64_t spins = 0;
  for (;;) {
    if (slow_ring_->try_push(std::move(pkt))) return;
    if (!cfg_.backpressure) {
      ++st.slow_handoff_drops;  // backlog overflow, netif_rx-style
      return;
    }
    if (spins == 0) ++st.handoff_stalls;
    if (++spins > cfg_.backpressure_spin_limit) {
      ++st.slow_handoff_drops;
      return;
    }
    // Waiting for slow-ring space is by-design liveness, not a stall: keep
    // beating so the watchdog doesn't declare this queue dead mid-handoff.
    queues_[q]->heartbeat.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::yield();
  }
}

void Engine::tx_enqueue(unsigned q, int oif, net::Packet&& pkt) {
  QueueStats& st = queues_[q]->stats;
  // XPS: the TX queue comes from the cached RSS hash through the RETA, so a
  // flow's descriptors always land on the same ring regardless of which
  // worker carried the packet.
  const unsigned txq = tx_->select_queue(pkt);
  TxDesc d{oif, std::move(pkt)};
  std::uint64_t spins = 0;
  for (;;) {
    if (tx_->try_push(txq, std::move(d))) {
      ++st.tx_enqueued;
      return;
    }
    if (!cfg_.backpressure) {
      ++st.tx_drops;  // device ring overrun: the NIC would drop it too
      return;
    }
    if (spins == 0) ++st.tx_stalls;
    if (++spins > cfg_.backpressure_spin_limit) {
      ++st.tx_drops;
      return;
    }
    // Same liveness contract as the slow-ring handoff: waiting for the
    // drainer is not a stall, keep beating.
    queues_[q]->heartbeat.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::yield();
  }
}

void Engine::watchdog_check() {
  for (unsigned q = 0; q < cfg_.queues; ++q) {
    if (wd_dead_[q]) {
      if (!cfg_.watchdog_recovery) continue;
      // Half-open probe (the guard's circuit-breaker close, DESIGN.md §13):
      // an excluded queue whose heartbeat advances across consecutive
      // samples is running again — re-include it and re-spread the RETA.
      std::uint64_t hb = queues_[q]->heartbeat.load(std::memory_order_relaxed);
      bool advanced = hb != wd_last_hb_[q];
      wd_last_hb_[q] = hb;
      if (!advanced) {
        wd_alive_streak_[q] = 0;
        continue;
      }
      if (++wd_alive_streak_[q] < cfg_.watchdog_recover_checks) continue;
      wd_dead_[q] = 0;
      wd_stale_[q] = 0;
      wd_alive_streak_[q] = 0;
      std::size_t rewritten = rss_.include_queue(q);
      watchdog_recoveries_.fetch_add(1, std::memory_order_relaxed);
      bool any_dead = false;
      for (unsigned i = 0; i < cfg_.queues; ++i) {
        if (wd_dead_[i]) any_dead = true;
      }
      // Same ordering contract as the trip: health flips last, so an
      // observer seeing healthy() again also sees the restored RETA.
      if (!any_dead) healthy_.store(true, std::memory_order_release);
      LFP_WARN("engine") << "watchdog: queue " << q << " recovered; re-spread "
                         << rewritten << " RETA entries";
      continue;
    }
    std::uint64_t hb = queues_[q]->heartbeat.load(std::memory_order_relaxed);
    // A stuck verdict requires work waiting (occupancy > 0) with a frozen
    // heartbeat: an idle worker keeps beating, a merely slow one advances
    // between samples. The fault point forces a false positive for tests.
    bool forced =
        util::FaultInjector::global().should_fail(util::kFaultEngineWatchdog);
    bool suspect = queues_[q]->ring.occupancy() > 0 && hb == wd_last_hb_[q];
    wd_last_hb_[q] = hb;
    if (!forced) {
      if (!suspect) {
        wd_stale_[q] = 0;
        continue;
      }
      if (++wd_stale_[q] < cfg_.watchdog_stall_checks) continue;
    }
    wd_dead_[q] = 1;
    std::size_t rewritten = rss_.exclude_queue(q);
    watchdog_resteers_.fetch_add(1, std::memory_order_relaxed);
    // Health flips last, with release ordering: an observer that sees
    // !healthy() is guaranteed to also see the completed RETA re-steer and
    // the bumped counter — the flip is the "trip complete" signal.
    healthy_.store(false, std::memory_order_release);
    LFP_WARN("engine") << "watchdog: queue " << q << " stuck"
                       << (forced ? " (injected)" : "") << "; re-steered "
                       << rewritten << " RETA entries";
  }
}

void Engine::slow_main() {
  net::Packet pkt;
  std::uint64_t ticks = 0;
  auto wd_last = std::chrono::steady_clock::now();
  std::vector<net::Packet> gro_out;
  // Accounting is segment-aware so a GRO super-packet is indistinguishable
  // from per-segment processing in every counter: processed scales by
  // gso_segs, and a dropped super adds the remaining segments to the same
  // drop reason the slow path charged once.
  auto handle = [this](net::Packet&& p) {
    const std::uint32_t segs = p.gso_segs();
    kern::CycleTrace trace;
    kern::RxSummary summary =
        kernel_.netif_receive_skb(ifindex_, std::move(p), trace);
    slow_stats_.processed += segs;
    slow_stats_.cycles += trace.total();
    if (segs > 1 && summary.drop != kern::Drop::kNone &&
        summary.drop != kern::Drop::kNeighPending) {
      kernel_.note_extra_drops(summary.drop, segs - 1);
    }
  };
  auto pop_one = [this, &gro_out, &handle](net::Packet&& p) {
    if (gro_.empty()) {
      handle(std::move(p));
      return;
    }
    // The packet's own rx queue owns its GRO list; every napi_budget folds
    // of that queue end its poll window and flush what it holds
    // (napi_gro_flush), whatever the other queues are doing.
    GroEngine& gro = gro_[p.rx_queue];
    gro_out.clear();
    slow_stats_.cycles += kernel_.cost().gro_receive;
    gro.fold(std::move(p), gro_out);
    if (gro.stats().folds % cfg_.napi_budget == 0) gro.flush_all(gro_out);
    for (net::Packet& out : gro_out) handle(std::move(out));
  };
  for (;;) {
    if (cfg_.watchdog && ++ticks % cfg_.watchdog_check_interval == 0) {
      auto now = std::chrono::steady_clock::now();
      if (now - wd_last >=
          std::chrono::microseconds(cfg_.watchdog_sample_gap_us)) {
        wd_last = now;
        watchdog_check();
      }
    }
    // TX rings first: a full TX ring stalls every worker, and fast-path
    // egress should not queue behind the kPass funnel.
    std::size_t tx_moved = 0;
    for (unsigned q = 0; q < cfg_.queues; ++q) tx_moved += tx_->drain(q);
    if (slow_ring_->try_pop(pkt)) {
      pop_one(std::move(pkt));
      continue;
    }
    // An idle funnel flushes nothing: held GRO runs wait for their queue's
    // poll window and deferred doorbells for their burst watermark, or both
    // for shutdown, so neither follows host thread scheduling.
    if (live_workers_.load(std::memory_order_acquire) == 0) {
      // Workers have exited; everything they pushed is visible. Drain the
      // funnel, close every queue's GRO window, then empty the TX rings and
      // ring the last doorbells.
      while (slow_ring_->try_pop(pkt)) pop_one(std::move(pkt));
      for (GroEngine& gro : gro_) {
        gro_out.clear();
        gro.flush_all(gro_out);
        for (net::Packet& out : gro_out) handle(std::move(out));
      }
      while (true) {
        std::size_t moved = 0;
        for (unsigned q = 0; q < cfg_.queues; ++q) moved += tx_->drain(q);
        if (moved == 0) break;
      }
      tx_->flush_doorbells();
      break;
    }
    if (tx_moved == 0) std::this_thread::yield();
  }
}

void Engine::reconcile() {
  util::MetricsRegistry& reg = kernel_.metrics();
  kern::KernelCounters& kc = kernel_.mutable_counters();
  kern::NetDevice* in_dev = kernel_.dev(ifindex_);
  util::Counter* xdp_drop_counter = reg.counter("drop.xdp_drop");

  for (unsigned q = 0; q < cfg_.queues; ++q) {
    const QueueStats& st = queues_[q]->stats;
    const std::string prefix = "engine.queue" + std::to_string(q) + ".";
    util::bump(reg.counter(prefix + "polls"), st.polls);
    util::bump(reg.counter(prefix + "bursts"), st.bursts);
    util::bump(reg.counter(prefix + "drops"),
               st.tail_drops + st.slow_handoff_drops + st.tx_drops);
    util::bump(reg.counter(prefix + "occupancy"), st.max_occupancy);
    util::bump(reg.counter(prefix + "processed"), st.processed);
    util::bump(reg.counter(prefix + "backpressure_stalls"),
               st.backpressure_stalls + st.handoff_stalls);

    kc.fast_path_packets +=
        st.xdp_drop + st.xdp_tx + st.xdp_redirect + st.to_userspace;
    if (st.xdp_drop > 0) {
      kc.drops[kern::Drop::kXdpDrop] += st.xdp_drop;
      util::bump(xdp_drop_counter, st.xdp_drop);
    }
    if (in_dev) {
      in_dev->stats().rx_packets += st.processed;
      in_dev->stats().rx_bytes += st.rx_bytes;
      in_dev->stats().rx_dropped += st.tail_drops + st.slow_handoff_drops;
    }
    // No DevStats TX credit here: fast-path egress now flows through the TX
    // rings into dev_xmit, which accounts tx_packets/tx_bytes identically
    // for fast- and slow-path transmits.
  }
  util::bump(reg.counter("engine.slow.processed"), slow_stats_.processed);
  util::bump(reg.counter("engine.slow.cycles"), slow_stats_.cycles);
  {
    std::uint64_t enq = 0, stalls = 0, drops = 0;
    for (const auto& q : queues_) {
      enq += q->stats.tx_enqueued;
      stalls += q->stats.tx_stalls;
      drops += q->stats.tx_drops;
    }
    std::uint64_t transmitted = 0, bytes = 0, bursts = 0, full = 0, bad = 0,
                   cycles = 0;
    for (unsigned q = 0; q < cfg_.queues; ++q) {
      const TxQueueStats& ts = tx_->queue_stats(q);
      transmitted += ts.transmitted;
      bytes += ts.tx_bytes;
      bursts += ts.bursts;
      full += ts.full_bursts;
      bad += ts.bad_redirect;
      cycles += ts.cycles;
    }
    util::bump(reg.counter("engine.tx.enqueued"), enq);
    util::bump(reg.counter("engine.tx.stalls"), stalls);
    util::bump(reg.counter("engine.tx.drops"), drops);
    util::bump(reg.counter("engine.tx.transmitted"), transmitted);
    util::bump(reg.counter("engine.tx.bytes"), bytes);
    util::bump(reg.counter("engine.tx.bursts"), bursts);
    util::bump(reg.counter("engine.tx.full_bursts"), full);
    util::bump(reg.counter("engine.tx.bad_redirect"), bad);
    util::bump(reg.counter("engine.tx.cycles"), cycles + tx_->flush_cycles());
    util::bump(reg.counter("engine.tx.descriptors"), tx_->descriptors());
    util::bump(reg.counter("engine.tx.doorbells"), tx_->doorbells());
  }
  if (!gro_.empty()) {
    const GroStats gs = gro_stats();
    util::bump(reg.counter("engine.gro.folds"), gs.folds);
    util::bump(reg.counter("engine.gro.coalesced"), gs.coalesced);
    util::bump(reg.counter("engine.gro.superpackets"), gs.superpackets);
    util::bump(reg.counter("engine.gro.bypassed"), gs.bypassed);
    util::bump(reg.counter("engine.gro.flush_poll"), gs.flush_poll);
    util::bump(reg.counter("engine.gro.flush_mismatch"), gs.flush_mismatch);
    util::bump(reg.counter("engine.gro.flush_ooo"), gs.flush_ooo);
    util::bump(reg.counter("engine.gro.flush_max_segs"), gs.flush_max_segs);
    util::bump(reg.counter("engine.gro.flush_capacity"), gs.flush_capacity);
  }
  util::bump(reg.counter("engine.watchdog.resteers"),
             watchdog_resteers_.load(std::memory_order_relaxed));
  util::bump(reg.counter("engine.watchdog.recoveries"),
             watchdog_recoveries_.load(std::memory_order_relaxed));
  if (steerer_) {
    const SteeringStats& ss = steerer_->stats();
    util::bump(reg.counter("engine.steering.decisions"), ss.decisions);
    util::bump(reg.counter("engine.steering.adapt_passes"), ss.adapt_passes);
    util::bump(reg.counter("engine.steering.rebalances"), ss.rebalances);
    util::bump(reg.counter("engine.steering.reta_rewrites"), ss.reta_rewrites);
    util::bump(reg.counter("engine.steering.rfs_hits"), ss.rfs_hits);
    util::bump(reg.counter("engine.steering.rfs_inserts"), ss.rfs_inserts);
    util::bump(reg.counter("engine.steering.rfs_migrations"),
               ss.rfs_migrations);
    util::bump(reg.counter("engine.steering.sprayed"), ss.sprayed);
    util::bump(reg.counter("engine.steering.spray_flows"), ss.spray_flows);
    util::bump(reg.counter("engine.steering.unspray_flows"),
               ss.unspray_flows);
  }
}

GroStats Engine::gro_stats() const {
  GroStats sum;
  for (const GroEngine& gro : gro_) sum += gro.stats();
  return sum;
}

std::uint64_t Engine::total_processed() const {
  std::uint64_t n = 0;
  for (const auto& q : queues_) n += q->stats.processed;
  return n;
}

std::uint64_t Engine::total_tail_drops() const {
  std::uint64_t n = 0;
  for (const auto& q : queues_) {
    n += q->stats.tail_drops + q->stats.slow_handoff_drops;
  }
  return n;
}

std::uint64_t Engine::total_fast_verdicts() const {
  std::uint64_t n = 0;
  for (const auto& q : queues_) {
    const QueueStats& st = q->stats;
    n += st.xdp_drop + st.xdp_tx + st.xdp_redirect + st.to_userspace;
  }
  return n;
}

}  // namespace linuxfp::engine
