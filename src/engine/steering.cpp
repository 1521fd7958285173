#include "engine/steering.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace linuxfp::engine {

void SpaceSaving::add(std::uint32_t hash) {
  for (Item& it : items_) {
    if (it.hash == hash) {
      ++it.count;
      return;
    }
  }
  if (items_.size() < k_) {
    items_.push_back(Item{hash, 1, 0});
    return;
  }
  // Evict the minimum and inherit its count: the new item's true count is
  // somewhere in [1, min+1], so `err` records the inherited uncertainty.
  std::size_t min_i = 0;
  for (std::size_t i = 1; i < items_.size(); ++i) {
    if (items_[i].count < items_[min_i].count) min_i = i;
  }
  std::uint64_t floor = items_[min_i].count;
  items_[min_i] = Item{hash, floor + 1, floor};
}

void SpaceSaving::halve() {
  for (Item& it : items_) {
    it.count /= 2;
    it.err /= 2;
  }
  // Drop items decayed to nothing so the sketch refills with live flows.
  items_.erase(std::remove_if(items_.begin(), items_.end(),
                              [](const Item& it) { return it.count == 0; }),
               items_.end());
}

bool SpaceSaving::tracked(std::uint32_t hash) const {
  for (const Item& it : items_) {
    if (it.hash == hash) return true;
  }
  return false;
}

FlowSteerer::FlowSteerer(RssClassifier& rss, SteeringConfig cfg)
    : rss_(rss),
      cfg_(cfg),
      topk_(cfg.topk),
      queue_load_(rss.queues(), 0) {
  LFP_CHECK_MSG(cfg_.interval >= 1, "steering interval must be positive");
  if (cfg_.rfs) {
    std::size_t n = cfg_.rfs_entries;
    LFP_CHECK_MSG(n >= 2 && (n & (n - 1)) == 0,
                  "rfs table size must be a power of two");
    rfs_.resize(n);
    rfs_mask_ = n - 1;
  }
}

double FlowSteerer::spray_threshold(unsigned alive) const {
  if (cfg_.spray_share > 0) return cfg_.spray_share;
  return 0.5 / static_cast<double>(alive == 0 ? 1 : alive);
}

bool FlowSteerer::sprayed(std::uint32_t hash) const {
  for (std::uint32_t h : spray_) {
    if (h == hash) return true;
  }
  return false;
}

unsigned FlowSteerer::rfs_queue(std::uint32_t hash) const {
  if (!cfg_.rfs) return kNoQueue;
  const RfsEntry& e = rfs_[hash & rfs_mask_];
  return (e.queue != kNoQueue && e.hash == hash) ? e.queue : kNoQueue;
}

unsigned FlowSteerer::spray_next() {
  unsigned n = rss_.queues();
  for (unsigned tries = 0; tries < n; ++tries) {
    unsigned q = spray_rr_++ % n;
    if (!rss_.excluded(q)) return q;
  }
  return rss_.queue_for_hash(0);  // every queue excluded: cannot happen
}

unsigned FlowSteerer::pick_queue(std::uint32_t hash) {
  ++stats_.decisions;
  if (cfg_.elephants) topk_.add(hash);

  unsigned q = kNoQueue;
  if (cfg_.elephants && sprayed(hash)) {
    q = spray_next();
    ++stats_.sprayed;
  } else {
    // Offered load of the RETA bucket this flow falls into: the balancer's
    // bucket weights. Sprayed traffic is excluded — it follows no bucket.
    ++bucket_load_[hash & (kRetaSize - 1)];
    if (cfg_.rfs) {
      const RfsEntry& e = rfs_[hash & rfs_mask_];
      if (e.queue != kNoQueue && e.hash == hash && e.queue < rss_.queues() &&
          !rss_.excluded(e.queue)) {
        q = e.queue;
        ++stats_.rfs_hits;
      }
    }
    if (q == kNoQueue) {
      q = rss_.queue_for_hash(hash);
      if (cfg_.rfs) {
        // Pin the flow to the queue whose CPU is about to own its microflow
        // cache entry and per-CPU map slots; later RETA rewrites won't move
        // it (only an explicit migration will).
        rfs_[hash & rfs_mask_] = RfsEntry{hash, q};
        ++stats_.rfs_inserts;
      }
    }
  }

  ++queue_load_[q];
  if (++interval_count_ >= cfg_.interval) adapt();
  return q;
}

void FlowSteerer::adapt() {
  ++stats_.adapt_passes;
  const unsigned queues = rss_.queues();
  const std::uint64_t interval_total =
      std::accumulate(queue_load_.begin(), queue_load_.end(), std::uint64_t{0});
  interval_count_ = 0;

  std::vector<unsigned> alive;
  alive.reserve(queues);
  for (unsigned q = 0; q < queues; ++q) {
    if (!rss_.excluded(q)) alive.push_back(q);
  }

  // Load: the packets steered to each queue this interval. Migrations below
  // move estimates between queues, so the pass works on a copy.
  std::vector<double> load(queue_load_.begin(), queue_load_.end());
  double alive_total = 0;
  for (unsigned q : alive) alive_total += load[q];
  bool changed = false;

  if (interval_total > 0 && !alive.empty()) {
    double mean = alive_total / static_cast<double>(alive.size());
    unsigned hot = alive[0];
    for (unsigned q : alive) {
      if (load[q] > load[hot]) hot = q;
    }
    bool imbalanced =
        mean > 0 && load[hot] / mean > cfg_.imbalance_threshold;

    if (cfg_.elephants) {
      topk_window_ = topk_window_ / 2 + static_cast<double>(interval_total);
      double threshold = spray_threshold(static_cast<unsigned>(alive.size()));
      // Demote first: flows that decayed below half the spray threshold (or
      // fell out of the sketch entirely) return to normal affinity steering.
      for (std::size_t i = 0; i < spray_.size();) {
        double share = 0;
        for (const SpaceSaving::Item& it : topk_.items()) {
          if (it.hash == spray_[i]) {
            share = static_cast<double>(it.count) / topk_window_;
            break;
          }
        }
        if (share < threshold / 2 || alive.size() <= 1) {
          spray_[i] = spray_.back();
          spray_.pop_back();
          ++stats_.unspray_flows;
          changed = true;
        } else {
          ++i;
        }
      }
      // Promote: a flow bigger than any queue's fair share is split.
      if (alive.size() > 1) {
        for (const SpaceSaving::Item& it : topk_.items()) {
          double share = static_cast<double>(it.count) / topk_window_;
          if (share > threshold && !sprayed(it.hash)) {
            spray_.push_back(it.hash);
            ++stats_.spray_flows;
            changed = true;
          }
        }
      }
    }

    // Migrate pinned elephants off the hottest queue until the imbalance is
    // inside tolerance (RFS handoff: the flow re-records its microflow
    // cache entry on the target CPU; generations keep it exact).
    if (cfg_.rfs && imbalanced && alive.size() > 1) {
      std::vector<SpaceSaving::Item> hot_flows = topk_.items();
      std::sort(hot_flows.begin(), hot_flows.end(),
                [](const SpaceSaving::Item& a, const SpaceSaving::Item& b) {
                  return a.count > b.count;
                });
      for (const SpaceSaving::Item& it : hot_flows) {
        if (load[hot] / mean <= cfg_.imbalance_threshold) break;
        if (sprayed(it.hash)) continue;
        RfsEntry& e = rfs_[it.hash & rfs_mask_];
        if (e.hash != it.hash || e.queue != hot) continue;
        unsigned cold = alive[0];
        for (unsigned q : alive) {
          if (load[q] < load[cold]) cold = q;
        }
        if (cold == hot) break;
        // Estimate the flow's contribution this interval from its share of
        // the decayed window, clamped to what the hot queue actually saw.
        double moved = std::min(
            load[hot], static_cast<double>(it.count) / topk_window_ *
                           static_cast<double>(interval_total));
        e.queue = cold;
        load[hot] -= moved;
        load[cold] += moved;
        ++stats_.rfs_migrations;
        changed = true;
        for (unsigned q : alive) {
          if (load[q] > load[hot]) hot = q;
        }
      }
    }

    // Re-weight the RETA from measured bucket popularity: greedy
    // longest-processing-time packing of buckets onto the alive queues.
    // This is what new flows (and everything, when RFS is off) follow.
    if (cfg_.rebalance && imbalanced && alive.size() > 1) {
      std::array<std::uint16_t, kRetaSize> order;
      for (std::size_t i = 0; i < kRetaSize; ++i) {
        order[i] = static_cast<std::uint16_t>(i);
      }
      std::stable_sort(order.begin(), order.end(),
                       [this](std::uint16_t a, std::uint16_t b) {
                         return bucket_load_[a] > bucket_load_[b];
                       });
      std::vector<double> weight(alive.size(), 0);
      std::size_t rr = 0;
      for (std::uint16_t bucket : order) {
        std::size_t target;
        if (bucket_load_[bucket] == 0) {
          // Idle buckets round-robin so the table stays uniform for flows
          // the interval never saw.
          target = rr++ % alive.size();
        } else {
          target = 0;
          for (std::size_t i = 1; i < alive.size(); ++i) {
            if (weight[i] < weight[target]) target = i;
          }
          weight[target] += static_cast<double>(bucket_load_[bucket]);
        }
        if (rss_.set_entry(bucket, alive[target])) {
          ++stats_.reta_rewrites;
          changed = true;
        }
      }
    }
  }

  if (changed) ++stats_.rebalances;
  std::fill(queue_load_.begin(), queue_load_.end(), 0);
  bucket_load_.fill(0);
  if (cfg_.elephants) topk_.halve();
}

}  // namespace linuxfp::engine
