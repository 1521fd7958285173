#include "engine/tx.h"

#include <cstring>
#include <string>

#include "util/logging.h"

namespace linuxfp::engine {

TxEngine::TxEngine(kern::Kernel& kernel, const RssClassifier& rss,
                   TxConfig cfg, unsigned nqueues)
    : kernel_(kernel), rss_(rss), cfg_(cfg) {
  LFP_CHECK_MSG(cfg_.burst >= 1, "tx burst must be positive");
  LFP_CHECK_MSG(nqueues >= 1, "tx engine needs at least one queue");
  rings_.reserve(nqueues);
  stats_.reserve(nqueues);
  for (unsigned q = 0; q < nqueues; ++q) {
    rings_.push_back(std::make_unique<BoundedRing<TxDesc>>(cfg_.ring_depth));
    stats_.push_back(std::make_unique<StatsBlock>());
  }
}

void TxEngine::post_descriptor(kern::NetDevice& dev, std::size_t /*bytes*/,
                               kern::CycleTrace& trace) {
  trace.charge("tx_descriptor", kernel_.cost().tx_descriptor);
  ++descriptors_;
  unsigned& pending = pending_[dev.ifindex()];
  if (++pending >= cfg_.burst) {
    trace.charge("tx_doorbell", kernel_.cost().tx_doorbell);
    if (auto* t = trace.packet_trace()) t->add("tx", "doorbell", 0, dev.name());
    ++doorbells_;
    pending = 0;
  }
}

std::size_t TxEngine::drain(unsigned txq) {
  BoundedRing<TxDesc>& ring = *rings_[txq];
  TxQueueStats& st = *stats_[txq];
  TxDesc d;
  std::size_t n = 0;
  while (n < cfg_.burst && ring.try_pop(d)) {
    ++n;
    const std::size_t bytes = d.pkt.size();
    kern::NetDevice* od = kernel_.dev(d.oif);
    kern::CycleTrace trace;
    // pwru-style record for fast-path egress when tracing is on: the worker's
    // verdict already said TX/redirect, so the record starts at the TX ring;
    // count_drop() inside dev_xmit appends the drop reason in path order, so
    // a redirect naming a ghost ifindex shows up as verdict no_device —
    // never silent.
    util::PacketTrace* started = nullptr;
    if (auto* tring = kernel_.trace_ring()) {
      started = tring->begin_packet(d.oif, od ? od->name() : "?");
      started->fast_path = true;
      started->add("tx", "ring_dequeue", 0, "txq" + std::to_string(txq));
      trace.bind_packet_trace(started);
      util::set_active_packet_trace(started);
    }
    // dev_xmit is the one true egress path: DevStats, TC egress, shadow
    // capture, GSO resegmentation — and drop.no_device when the redirect
    // named a ghost ifindex (audited as bad_redirect here either way).
    kernel_.dev_xmit(d.oif, std::move(d.pkt), trace);
    if (started) {
      const char* verdict = "ok";
      for (const auto& ev : started->events) {
        if (std::strcmp(ev.layer, "verdict") == 0) verdict = ev.stage;
      }
      if (std::strcmp(verdict, "ok") == 0) started->add("verdict", "ok", 0);
      started->verdict = verdict;
      started->total_cycles = trace.total();
      trace.bind_packet_trace(nullptr);
      util::set_active_packet_trace(nullptr);
    }
    st.cycles += trace.total();
    if (od != nullptr) {
      ++st.transmitted;
      st.tx_bytes += bytes;
    } else {
      ++st.bad_redirect;
    }
  }
  if (n > 0) {
    ++st.bursts;
    if (n == cfg_.burst) ++st.full_bursts;
  }
  return n;
}

void TxEngine::flush_doorbells() {
  for (auto& [ifindex, count] : pending_) {
    if (count == 0) continue;
    flush_cycles_ += kernel_.cost().tx_doorbell;
    ++doorbells_;
    count = 0;
  }
}

bool TxEngine::all_empty() const {
  for (const auto& r : rings_) {
    if (r->occupancy() != 0) return false;
  }
  return true;
}

}  // namespace linuxfp::engine
