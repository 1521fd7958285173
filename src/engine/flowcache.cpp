#include "engine/flowcache.h"

#include <cstring>

#include "engine/rss.h"
#include "util/logging.h"

namespace linuxfp::engine {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlowCache::FlowCache(std::size_t entries) {
  LFP_CHECK_MSG(entries >= kWays, "flow cache needs at least one set");
  std::size_t sets = round_up_pow2(entries / kWays);
  set_mask_ = sets - 1;
  entries_.resize(sets * kWays);
  victim_.resize(sets, 0);
}

FlowCacheStats FlowCache::stats() const {
  FlowCacheStats s;
  s.hits = util::shard_read(stats_.hits);
  s.misses = util::shard_read(stats_.misses);
  s.invalidations = util::shard_read(stats_.invalidations);
  s.evictions = util::shard_read(stats_.evictions);
  s.uncacheable = util::shard_read(stats_.uncacheable);
  s.replay_mismatch = util::shard_read(stats_.replay_mismatch);
  return s;
}

std::size_t FlowCache::live_entries() const {
  std::size_t n = 0;
  for (const Entry& e : entries_) n += e.valid;
  return n;
}

bool FlowCache::contains(std::uint32_t rss_hash, std::uint64_t epoch) const {
  std::size_t base = set_base(rss_hash);
  for (std::size_t w = 0; w < kWays; ++w) {
    const Entry& e = entries_[base + w];
    if (e.valid && e.rss_hash == rss_hash && e.epoch == epoch) return true;
  }
  return false;
}

bool FlowCache::key_matches(const Entry& e, const net::Packet& pkt,
                            int ingress_ifindex, std::uint32_t hash) {
  if (e.rss_hash != hash || e.ingress_ifindex != ingress_ifindex ||
      e.pkt_size != pkt.size() || e.rx_queue != pkt.rx_queue ||
      e.vlan_tci != pkt.vlan_tci) {
    return false;
  }
  // Exact-match on every header byte the cached run read. Bytes the program
  // never looked at are free to differ — the verdict cannot depend on them.
  const std::uint8_t* data = pkt.data();
  std::uint64_t mask = e.read_mask;
  while (mask != 0) {
    int i = __builtin_ctzll(mask);
    if (data[i] != e.pre_bytes[static_cast<std::size_t>(i)]) return false;
    mask &= mask - 1;
  }
  return true;
}

bool FlowCache::replay_ct(const Entry& e, kern::Kernel& kernel) {
  for (const CtReplayOp& op : e.ct_ops) {
    kern::Conntrack::LookupResult r =
        op.lookup_or_create
            ? kernel.conntrack().lookup_or_create(op.key, kernel.now_ns())
            : kernel.conntrack().lookup(op.key, kernel.now_ns());
    bool found = r.entry != nullptr;
    if (found != op.expect_found) return false;
    if (!found) continue;
    std::uint8_t state =
        r.entry->state == kern::CtState::kEstablished ? 1 : 0;
    if (state != op.expect_ct_state) return false;
    if (r.is_reply_direction != op.expect_reply_dir) return false;
    bool rewrite = r.entry->dnat_addr.has_value();
    if (rewrite != op.expect_rewrite) return false;
    if (rewrite) {
      std::uint32_t addr;
      std::uint16_t port;
      if (r.is_reply_direction) {
        addr = r.entry->original.dst_ip.value();
        port = r.entry->original.dst_port;
      } else {
        addr = r.entry->dnat_addr->value();
        port = r.entry->dnat_port;
      }
      if (addr != op.expect_rewrite_addr || port != op.expect_rewrite_port) {
        return false;
      }
    }
  }
  return true;
}

void FlowCache::replay_fdb(const Entry& e, kern::Kernel& kernel) {
  for (const FdbReplayOp& op : e.fdb_ops) {
    kern::Bridge* br = kernel.bridge(op.bridge_ifindex);
    if (!br) continue;  // bridge gone would have bumped the generation
    br->fdb_learn(op.smac, op.vlan, op.port_ifindex, kernel.now_ns());
  }
}

bool FlowCache::try_hit(net::Packet& pkt, int ingress_ifindex,
                        std::uint64_t epoch, kern::Kernel& kernel, Hit* out) {
  std::uint32_t hash = rss_hash_cached(pkt);
  std::size_t base = set_base(hash);
  Entry* match = nullptr;
  for (std::size_t w = 0; w < kWays; ++w) {
    Entry& cand = entries_[base + w];
    if (cand.valid && key_matches(cand, pkt, ingress_ifindex, hash)) {
      match = &cand;
      break;
    }
  }
  if (!match) {
    util::shard_add(stats_.misses);
    return false;
  }
  Entry& e = *match;
  if (e.epoch != epoch ||
      !e.gens.matches(GenVector::snapshot(kernel), e.deps)) {
    // The program was redeployed or a depended-on subsystem mutated since
    // the entry was recorded; drop it and take the full path.
    e.valid = false;
    util::shard_add(stats_.invalidations);
    util::shard_add(stats_.misses);
    return false;
  }
  if (!replay_ct(e, kernel)) {
    // The conntrack entry this flow depends on changed shape (established,
    // NAT installed, expired). The re-performed lookups had the same side
    // effects a full run's would, so falling through to the interpreter
    // keeps kernel state exact; the full run then refreshes the entry.
    e.valid = false;
    util::shard_add(stats_.replay_mismatch);
    util::shard_add(stats_.misses);
    return false;
  }
  replay_fdb(e, kernel);
  // Replay the recorded header mutations (MAC rewrite, TTL decrement,
  // checksum fix, NAT rewrite...) byte by byte.
  std::uint8_t* data = pkt.data();
  std::uint64_t mask = e.write_mask;
  while (mask != 0) {
    int i = __builtin_ctzll(mask);
    data[i] = e.post_bytes[static_cast<std::size_t>(i)];
    mask &= mask - 1;
  }
  out->act = e.act;
  out->redirect_ifindex = e.redirect_ifindex;
  util::shard_add(stats_.hits);
  return true;
}

void FlowCache::insert(const net::Packet& pkt, int ingress_ifindex,
                       std::uint64_t epoch, const kern::Kernel& kernel,
                       const FlowCacheRecorder& rec, std::uint64_t act,
                       int redirect_ifindex, bool cacheable) {
  if (!cacheable || rec.uncacheable()) {
    util::shard_add(stats_.uncacheable);
    return;
  }
  LFP_CHECK_MSG(pkt.rss_hash_valid, "flow cache insert without RSS hash");
  std::uint32_t hash = pkt.rss_hash;
  std::size_t base = set_base(hash);
  // Prefer an invalid way; otherwise rotate the set's eviction cursor so a
  // burst of new flows cannot pin one way while the others go stale.
  std::size_t way = kWays;
  for (std::size_t w = 0; w < kWays; ++w) {
    if (!entries_[base + w].valid) {
      way = w;
      break;
    }
  }
  if (way == kWays) {
    std::size_t set = hash & set_mask_;
    way = victim_[set];
    victim_[set] = static_cast<std::uint8_t>((way + 1) % kWays);
    util::shard_add(stats_.evictions);
  }
  Entry& e = entries_[base + way];
  e.valid = true;
  e.epoch = epoch;
  e.rss_hash = hash;
  e.ingress_ifindex = ingress_ifindex;
  e.pkt_size = static_cast<std::uint32_t>(pkt.size());
  e.rx_queue = pkt.rx_queue;
  e.vlan_tci = pkt.vlan_tci;
  e.deps = rec.deps();
  // Snapshot taken after the run: any mutation that raced the recorded run
  // makes the entry fail validation on first probe, never serve stale data.
  e.gens = GenVector::snapshot(kernel);
  e.read_mask = rec.read_mask();
  e.write_mask = rec.write_mask();
  e.pre_bytes = rec.pre_bytes();
  std::size_t post_len = pkt.size() < FlowCacheRecorder::kHeaderWindow
                             ? pkt.size()
                             : FlowCacheRecorder::kHeaderWindow;
  std::memcpy(e.post_bytes.data(), pkt.data(), post_len);
  e.act = act;
  e.redirect_ifindex = redirect_ifindex;
  e.ct_ops = rec.ct_ops();
  e.fdb_ops = rec.fdb_ops();
}

}  // namespace linuxfp::engine
