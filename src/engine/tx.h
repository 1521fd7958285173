// The engine's transmit half (DESIGN.md §16): per-CPU TX rings with
// xmit_more-style doorbell coalescing and XPS queue selection.
//
// Fast-path verdicts that leave the box (XDP_TX, XDP_REDIRECT) used to be
// accounted and forgotten on the worker; now the worker posts a TxDesc to a
// TX ring and the slow-path thread drains the rings in bursts, pushing every
// packet through the one true egress path (Kernel::dev_xmit) — DevStats, TC
// egress, shadow capture and GSO resegmentation all see fast-path traffic
// exactly like slow-path traffic.
//
// Queue selection (XPS): the TX queue is keyed off the packet's cached
// Toeplitz hash through the same RETA that steered it on RX, so a flow's TX
// queue is stable and affine to its RX CPU — descriptors from one flow never
// ping-pong between rings.
//
// Doorbell coalescing (skb->xmit_more): TxEngine implements kern::TxBatcher.
// While installed on the kernel, every physical transmit charges only the
// descriptor write per packet; the doorbell MMIO is deferred and rung once
// per config.burst descriptors per device, plus one flush_doorbells() at
// engine shutdown for the short tail. That is the saturated regime the
// closed-loop runner models, where every xmit_more window fills; ringing
// at round ends or on idle would make the doorbell count follow host thread
// scheduling. burst=1 degenerates to the classic one-doorbell-per-packet
// driver and is the "unbatched" leg of the forwarding benchmark. Packets
// are always delivered to the device immediately and in order — only the
// *cost* of the doorbell moves.
//
// Threading: workers produce onto the MPMC rings (a worker may select any TX
// queue); ONLY the slow-path thread drains, transmits, and touches
// TxQueueStats / doorbell state.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "engine/ring.h"
#include "engine/rss.h"
#include "kernel/kernel.h"

namespace linuxfp::engine {

struct TxConfig {
  // xmit_more window: descriptors posted between doorbells. 1 = ring the
  // doorbell for every packet (pre-batching driver behaviour).
  unsigned burst = 64;
  std::size_t ring_depth = 1024;  // per TX queue
};

// One queued transmit: the egress ifindex the verdict named plus the packet.
struct TxDesc {
  int oif = 0;
  net::Packet pkt;
};

// Consumer-side per-queue stats; written only by the slow-path thread.
struct TxQueueStats {
  std::uint64_t transmitted = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t bursts = 0;       // drain rounds that moved >= 1 descriptor
  std::uint64_t full_bursts = 0;  // rounds that moved the full burst
  std::uint64_t bad_redirect = 0;  // oif named no device (counted as
                                   // drop.no_device by dev_xmit, audited here)
  std::uint64_t cycles = 0;  // descriptor + doorbell + egress-path cycles
};

class TxEngine : public kern::TxBatcher {
 public:
  TxEngine(kern::Kernel& kernel, const RssClassifier& rss, TxConfig cfg,
           unsigned nqueues);

  const TxConfig& config() const { return cfg_; }
  unsigned queues() const { return static_cast<unsigned>(rings_.size()); }

  // --- producer side (engine workers) ---------------------------------------
  // XPS: stable TX queue from the cached RSS hash (computes it on the rare
  // uncached path).
  unsigned select_queue(net::Packet& pkt) const {
    return rss_.queue_for_hash(rss_hash_cached(pkt));
  }
  bool try_push(unsigned txq, TxDesc&& d) {
    return rings_[txq]->try_push(std::move(d));
  }

  // --- consumer side (slow-path thread only) --------------------------------
  // Pops up to config().burst descriptors from queue `txq` and transmits each
  // through dev_xmit. Returns the number of descriptors moved.
  std::size_t drain(unsigned txq);
  // Rings every deferred doorbell (shutdown), charging them to
  // flush_cycles().
  void flush_doorbells();
  bool all_empty() const;

  // kern::TxBatcher: dev_xmit calls this for every physical transmit while
  // the batcher is installed (both TX-ring drains and inline slow-path
  // transmits land here).
  void post_descriptor(kern::NetDevice& dev, std::size_t bytes,
                       kern::CycleTrace& trace) override;

  // Final after the engine stopped (or between drains on the slow thread).
  const TxQueueStats& queue_stats(unsigned q) const { return *stats_[q]; }
  std::uint64_t descriptors() const { return descriptors_; }
  std::uint64_t doorbells() const { return doorbells_; }
  std::uint64_t flush_cycles() const { return flush_cycles_; }

 private:
  kern::Kernel& kernel_;
  const RssClassifier& rss_;
  TxConfig cfg_;
  std::vector<std::unique_ptr<BoundedRing<TxDesc>>> rings_;
  // unique_ptr so each queue's stats block can be cache-line separated.
  struct alignas(64) StatsBlock : TxQueueStats {};
  std::vector<std::unique_ptr<StatsBlock>> stats_;

  // Doorbell state (slow-path thread only): descriptors posted per device
  // since its doorbell last rang.
  std::map<int, unsigned> pending_;
  std::uint64_t descriptors_ = 0;
  std::uint64_t doorbells_ = 0;
  std::uint64_t flush_cycles_ = 0;  // doorbells rung by flush_doorbells()
};

}  // namespace linuxfp::engine
