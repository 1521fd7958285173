// Receive Side Scaling: the NIC-side flow classifier that picks an rx queue
// for each ingress packet, mirroring the Linux/mlx5 pipeline the paper's
// multi-core experiments rely on (Pktgen varies source ports precisely so
// this hash spreads load over cores).
//
// The hash is a Toeplitz hash over the IPv4 5-tuple with the Microsoft
// reference key, made symmetric by canonicalizing the endpoint order before
// hashing (DPDK's symmetric_toeplitz_sort): hash(src,dst) == hash(dst,src),
// so both directions of a flow land on the same queue, without the hash-image
// collapse a 16-bit-periodic "symmetric key" would cause (the flow cache
// indexes on this hash and needs its full strength). Non-IP frames (ARP,
// LLDP) fall back to an L2 Toeplitz input — canonicalized src/dst MAC plus
// ethertype — so unparsable traffic still spreads over queues instead of
// pinning to reta_[0] and colliding in one flowcache set.
//
// Queue selection goes through a 128-entry indirection table (the ethtool -x
// "RETA"), initialized round-robin over the configured queue count.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "net/packet.h"

namespace linuxfp::engine {

inline constexpr std::size_t kRetaSize = 128;

// Toeplitz hash of `len` (at most 36) bytes of input under the Microsoft
// reference key: one precomputed table word per input byte, bit-identical to
// the bit-serial definition (tests/engine keeps that one as the reference).
std::uint32_t toeplitz_hash(const std::uint8_t* data, std::size_t len);

// Toeplitz flow hash of the packet. IPv4 frames hash the canonicalized
// 5-tuple (ports omitted for fragments so every fragment of a datagram
// hashes identically); anything else hashes the canonicalized MAC pair +
// ethertype. Stateless — the hash is a property of the packet alone; the
// classifier only adds queue steering on top.
std::uint32_t rss_hash_of(const net::Packet& pkt);

// Returns the packet's flow hash, computing and stashing it in the packet's
// rss_hash metadata on first use (skb->hash memoization). Every consumer —
// engine queue steering, the flow cache, sim-path probes — goes through here
// so the hash is computed at most once per packet.
std::uint32_t rss_hash_cached(net::Packet& pkt);

// RETA entries are atomics because the table is written at runtime: the
// engine's worker watchdog repairs steering away from a stuck queue
// (exclude_queue) from the slow-path thread while the producer keeps
// classifying. Plain relaxed loads/stores — each entry is independent and a
// momentarily stale read only steers one packet to the old queue.
class RssClassifier {
 public:
  explicit RssClassifier(unsigned queues);

  unsigned queues() const { return queues_; }

  // Flow hash of the packet (see rss_hash_of).
  std::uint32_t hash(const net::Packet& pkt) const { return rss_hash_of(pkt); }

  // rx queue for an already-computed flow hash.
  unsigned queue_for_hash(std::uint32_t hash) const {
    return reta_[hash & (kRetaSize - 1)].load(std::memory_order_relaxed);
  }

  // rx queue for the packet: reta[hash & (kRetaSize-1)].
  unsigned queue_for(const net::Packet& pkt) const {
    return queue_for_hash(rss_hash_of(pkt));
  }

  // Rewrites every RETA entry pointing at `q` round-robin over the remaining
  // queues (ethtool -X weight 0 analogue; the watchdog's re-steer). No-op
  // when q is the only queue left. Returns entries rewritten.
  std::size_t exclude_queue(unsigned q);
  bool excluded(unsigned q) const {
    return q < excluded_.size() && excluded_[q].load(std::memory_order_relaxed);
  }

  // Reverses exclude_queue when the watchdog's half-open probe sees the
  // queue heartbeating again: clears the exclusion and rewrites the WHOLE
  // table round-robin over the now-alive set, so the recovered queue gets
  // its fair share of entries back instead of staying starved forever.
  // Returns entries rewritten (0 if q wasn't excluded).
  std::size_t include_queue(unsigned q);

  // Point one RETA bucket at a queue (the adaptive rebalancer's write path).
  // Rejects excluded/out-of-range targets. Returns true when the entry
  // actually changed.
  bool set_entry(std::size_t index, unsigned q);

  // Snapshot of the indirection table (tests / status reporting).
  std::array<unsigned, kRetaSize> reta() const {
    std::array<unsigned, kRetaSize> out;
    for (std::size_t i = 0; i < kRetaSize; ++i) {
      out[i] = reta_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  unsigned queues_;
  std::array<std::atomic<unsigned>, kRetaSize> reta_;
  std::vector<std::atomic<bool>> excluded_;
};

}  // namespace linuxfp::engine
