// The parallel datapath engine: a software model of the Linux
// RSS -> per-queue NAPI -> backlog pipeline that the paper's multi-core
// throughput results assume (§VI "Pktgen varies source ports so RSS spreads
// flows over cores").
//
// Topology of one engine run:
//
//   inject() ──RSS──> rx ring 0 ──> worker 0 ┐  XDP verdicts counted locally
//             (reta)  rx ring 1 ──> worker 1 ├──MPSC──> slow-path thread
//                     ...                    ┘  (kPass/kAborted funnel)
//
// Threading discipline (DESIGN.md §11):
//  * Each worker owns one rx ring and one per-CPU VM (PacketProgram::run
//    on its queue's cpu); it only reads kernel tables through helpers and
//    only writes its own cache-line-padded stat shard and per-CPU map slots.
//  * ALL kernel-state mutation — the stack, ARP, conntrack, dev_xmit — runs
//    on the single slow-path thread, preserving the kernel's single-writer
//    discipline; workers hand kPass packets over the bounded MPSC ring.
//  * The producer (inject caller) classifies and enqueues; on a full ring it
//    tail-drops (counted, like netif_rx backlog drops) or, in backpressure
//    mode, waits — which makes N-queue runs exactly packet-preserving for
//    the equivalence test.
//  * Shared counters (MetricsRegistry, per-CPU maps) are relaxed atomics or
//    per-CPU slots; everything else is reconciled into KernelCounters /
//    DevStats / the registry at stop(), after every thread has joined.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "engine/gro.h"
#include "engine/ring.h"
#include "engine/rss.h"
#include "engine/steering.h"
#include "engine/tx.h"
#include "kernel/kernel.h"

namespace linuxfp::engine {

struct EngineConfig {
  unsigned queues = 1;
  std::size_t queue_depth = 512;   // per rx ring
  unsigned napi_budget = 64;       // packets per worker poll
  std::size_t slow_ring_depth = 1024;
  // true: inject() waits for ring space instead of tail-dropping, making
  // runs deterministic in their counters (equivalence tests). false models
  // real NIC tail-drop under overload.
  bool backpressure = false;
  // Backpressure waits are bounded: after this many yields the packet drops
  // (counted in tail_drops / slow_handoff_drops) instead of wedging the
  // producer or a worker behind a stuck thread forever. The generous default
  // keeps equivalence runs lossless while still guaranteeing progress.
  std::uint64_t backpressure_spin_limit = 1'000'000;
  // Worker watchdog: the slow-path thread samples per-queue heartbeats every
  // `watchdog_check_interval` loop iterations; a queue with packets waiting
  // whose heartbeat froze across `watchdog_stall_checks` consecutive samples
  // is declared stuck — engine health flips and the RETA re-steers new flows
  // away from the dead queue.
  bool watchdog = false;
  unsigned watchdog_stall_checks = 3;
  unsigned watchdog_check_interval = 4096;
  // Half-open recovery (mirrors the guard's circuit-breaker close): a queue
  // the watchdog excluded is re-included — RETA re-spread to uniform via
  // include_queue — after its heartbeat advances across
  // `watchdog_recover_checks` consecutive samples. Off by default: existing
  // callers (and tests) treat exclusion as final.
  bool watchdog_recovery = false;
  unsigned watchdog_recover_checks = 2;
  // Wall-clock floor between watchdog samples. The tick interval alone is
  // not enough on an oversubscribed host: an idle slow thread burns
  // `watchdog_check_interval` iterations in microseconds — far less than a
  // scheduling quantum — so a worker that is merely descheduled (not stuck)
  // can look frozen across every sample. A genuinely blocked worker stays
  // frozen across any real-time gap; a runnable one gets CPU within it.
  std::uint64_t watchdog_sample_gap_us = 3000;
  // Test hook: runs at the top of every worker poll iteration, before the
  // heartbeat bump, so tests can stall a worker deterministically.
  std::function<void(unsigned q)> worker_poll_hook;
  // Adaptive steering (steering.h): RETA rebalancing, RFS flow affinity,
  // elephant spray/migration. All off by default — inject() then steers by
  // the static RETA exactly as before.
  SteeringConfig steering;
  // TX engine (tx.h): per-CPU TX rings + xmit_more doorbell coalescing.
  // Always on — fast-path kTx/kRedirect verdicts transmit through dev_xmit
  // via the rings; tx.burst=1 models the per-packet-doorbell driver.
  TxConfig tx;
  // GRO (gro.h): slow-path segment coalescing ahead of netif_receive_skb,
  // one GRO list per rx queue, flushed every napi_budget folds of that
  // queue. Off by default.
  GroConfig gro;
};

// Per-queue statistics, split by writer so no field is written from two
// threads: the producer fills the enqueue side, the worker the poll side.
struct QueueStats {
  // producer-written
  std::uint64_t enqueued = 0;
  std::uint64_t tail_drops = 0;
  std::uint64_t max_occupancy = 0;
  std::uint64_t backpressure_stalls = 0;  // inject() had to wait for space
  // worker-written
  std::uint64_t polls = 0;       // poll rounds that moved >= 1 packet
  std::uint64_t bursts = 0;      // polls that used the full NAPI budget
  std::uint64_t processed = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t xdp_drop = 0;
  std::uint64_t xdp_tx = 0;
  std::uint64_t xdp_redirect = 0;
  std::uint64_t xdp_pass = 0;
  std::uint64_t to_userspace = 0;
  std::uint64_t aborted = 0;
  std::uint64_t slow_handoff_drops = 0;  // slow ring full (throughput mode)
  std::uint64_t handoff_stalls = 0;      // worker had to wait for slow ring
  std::uint64_t fast_cycles = 0;  // driver + XDP cycles charged on this CPU
  // TX-ring handoff (kTx/kRedirect verdicts posted to the XPS-selected ring)
  std::uint64_t tx_enqueued = 0;
  std::uint64_t tx_stalls = 0;  // worker had to wait for TX-ring space
  std::uint64_t tx_drops = 0;   // TX ring full (throughput mode)
};

struct SlowPathStats {
  std::uint64_t processed = 0;
  std::uint64_t cycles = 0;  // slow-path stage cycles (post-handoff)
};

// One engine drives one ingress device of one kernel. Lifecycle:
//   Engine e(kernel, ifindex, cfg);
//   e.start();               // spawns workers + slow-path thread
//   e.inject(pkt); ...       // single producer thread
//   e.stop();                // drains, joins, reconciles counters
// After stop(), per-queue stats are final and mirrored into the kernel's
// registry as engine.queue<i>.{polls,bursts,drops,occupancy} (satellite of
// status_json / prometheus_status).
class Engine {
 public:
  Engine(kern::Kernel& kernel, int ifindex, EngineConfig cfg);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  void start();
  // Producer-side: classify by RSS and enqueue. Only valid between start()
  // and stop(), from one thread.
  void inject(net::Packet&& pkt);
  // Signals end of traffic, drains every ring, joins all threads and
  // reconciles per-queue shards into KernelCounters, DevStats and the
  // metrics registry. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  const EngineConfig& config() const { return cfg_; }
  const RssClassifier& rss() const { return rss_; }

  // False once the watchdog declared any worker stuck. Live-readable;
  // acquire pairs with the watchdog's release store, so !healthy() implies
  // the RETA re-steer and resteer counter are fully visible.
  bool healthy() const { return healthy_.load(std::memory_order_acquire); }
  std::uint64_t watchdog_resteers() const {
    return watchdog_resteers_.load(std::memory_order_relaxed);
  }
  std::uint64_t watchdog_recoveries() const {
    return watchdog_recoveries_.load(std::memory_order_relaxed);
  }

  // Null unless cfg.steering enables something. Producer-owned; read its
  // stats after stop() (or from the producer thread).
  const FlowSteerer* steerer() const { return steerer_.get(); }

  // The TX subsystem (never null after construction) and the GRO stats
  // summed over the per-queue GRO lists (all zero unless cfg.gro.enabled).
  // Both are final after stop().
  const TxEngine& tx() const { return *tx_; }
  GroStats gro_stats() const;

  // Final after stop().
  const QueueStats& queue_stats(unsigned q) const { return queues_[q]->stats; }
  const SlowPathStats& slow_stats() const { return slow_stats_; }

  // Totals over queues (final after stop()).
  std::uint64_t total_processed() const;
  std::uint64_t total_tail_drops() const;
  std::uint64_t total_fast_verdicts() const;  // drop+tx+redirect+userspace

 private:
  struct QueueState {
    explicit QueueState(std::size_t depth) : ring(depth) {}
    BoundedRing<net::Packet> ring;
    // Bumped once per worker poll iteration (busy or idle); a frozen value
    // with packets waiting is the watchdog's stuck signal.
    std::atomic<std::uint64_t> heartbeat{0};
    // Padded so adjacent queues' stats never share a cache line.
    alignas(64) QueueStats stats;
  };

  void worker_main(unsigned q);
  void slow_main();
  void process_packet(unsigned q, net::Packet&& pkt);
  void tx_enqueue(unsigned q, int oif, net::Packet&& pkt);
  void watchdog_check();
  void reconcile();

  kern::Kernel& kernel_;
  int ifindex_;
  EngineConfig cfg_;
  RssClassifier rss_;
  std::unique_ptr<FlowSteerer> steerer_;  // producer-thread state, may be null
  kern::PacketProgram* prog_ = nullptr;  // XDP program at start(), may be null

  std::vector<std::unique_ptr<QueueState>> queues_;
  std::unique_ptr<BoundedRing<net::Packet>> slow_ring_;
  std::unique_ptr<TxEngine> tx_;
  // One GRO list per rx queue (slow-thread state); empty when disabled.
  std::vector<GroEngine> gro_;
  SlowPathStats slow_stats_;

  std::vector<std::thread> workers_;
  std::thread slow_thread_;
  std::atomic<bool> running_{false};
  std::atomic<unsigned> live_workers_{0};
  bool started_ = false;
  bool stopped_ = false;

  // Watchdog state: atomics are live-readable from outside; the per-queue
  // sampling bookkeeping belongs to the slow-path thread alone.
  std::atomic<bool> healthy_{true};
  std::atomic<std::uint64_t> watchdog_resteers_{0};
  std::atomic<std::uint64_t> watchdog_recoveries_{0};
  std::vector<std::uint64_t> wd_last_hb_;
  std::vector<unsigned> wd_stale_;
  std::vector<unsigned> wd_alive_streak_;  // half-open probe progress
  std::vector<char> wd_dead_;
};

}  // namespace linuxfp::engine
