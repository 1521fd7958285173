// Packet buffer: a contiguous byte buffer with headroom so encapsulation
// (VXLAN) can push headers without copying, plus receive metadata. This is
// the object that flows through NICs, the eBPF VM (as packet memory) and the
// kernel slow path (wrapped in an SkBuff).
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "util/logging.h"

namespace linuxfp::net {

// Per-segment metadata recorded when GRO coalesces a segment into a
// super-packet (engine/gro.h). Everything the TX-side resegmentation needs
// to reproduce the original wire bytes exactly: the payload length, the
// original IP identification, and the original L4 checksum bytes (the slow
// path never touches L4 checksums, so restoring the stored value is
// byte-identical to having forwarded the segment alone).
struct GroSeg {
  std::uint16_t payload_len = 0;
  std::uint16_t ip_id = 0;
  std::uint16_t l4_csum = 0;
};

class Packet {
 public:
  static constexpr std::size_t kDefaultHeadroom = 128;

  Packet() : Packet(0) {}
  explicit Packet(std::size_t data_len, std::size_t headroom = kDefaultHeadroom)
      : buf_(headroom + data_len, 0), offset_(headroom) {}

  static Packet from_bytes(const std::uint8_t* data, std::size_t len,
                           std::size_t headroom = kDefaultHeadroom) {
    Packet p(len, headroom);
    std::memcpy(p.data(), data, len);
    return p;
  }

  std::uint8_t* data() { return buf_.data() + offset_; }
  const std::uint8_t* data() const { return buf_.data() + offset_; }
  std::size_t size() const { return buf_.size() - offset_; }
  std::size_t headroom() const { return offset_; }

  // Grows the packet at the front (encap). Returns pointer to the new bytes.
  std::uint8_t* push_front(std::size_t n) {
    LFP_CHECK_MSG(offset_ >= n, "packet headroom exhausted");
    offset_ -= n;
    return data();
  }

  // Shrinks the packet at the front (decap).
  void pull_front(std::size_t n) {
    LFP_CHECK_MSG(n <= size(), "pull beyond packet end");
    offset_ += n;
  }

  // Grows or truncates the tail.
  void resize_data(std::size_t new_len) { buf_.resize(offset_ + new_len); }

  // Wire size including Ethernet framing overhead (preamble+SFD+IFG+FCS =
  // 24 bytes total; payload below 60 B is padded to the 64 B minimum frame).
  std::size_t wire_size() const {
    std::size_t frame = size() < 60 ? 64 : size() + 4;  // +FCS
    return frame + 20;                                  // preamble + IFG
  }

  // Receive metadata (xdp_md analogue).
  std::uint32_t ingress_ifindex = 0;
  std::uint32_t rx_queue = 0;
  // VLAN metadata when offloaded by the (simulated) NIC; 0 = untagged.
  std::uint16_t vlan_tci = 0;
  // RSS Toeplitz flow hash computed once by the (simulated) NIC at receive
  // (skb->hash analogue). Consumers — queue steering, the microflow verdict
  // cache — reuse it instead of rehashing; valid only when rss_hash_valid.
  std::uint32_t rss_hash = 0;
  bool rss_hash_valid = false;
  // Equivalence-guard shadow handle (core/guard.h): non-zero marks a packet
  // whose fast-path verdict was recorded for comparison and that is now
  // traversing the slow path authoritatively; the stack adopts (and clears)
  // the cookie where it takes the packet from the hook and reports the
  // packet's fate back to the guard.
  std::uint64_t guard_cookie = 0;
  // GRO super-packet state: one entry per coalesced segment, in arrival
  // order (skb_shinfo gso_segs analogue). Empty for ordinary packets; a
  // packet with >= 2 entries is resegmented by dev_xmit before it reaches a
  // device (net::gso_segment).
  std::vector<GroSeg> gro_segs;
  // Number of wire segments this packet represents (>= 1). Counters that
  // account "packets" on the slow path scale by this so a coalesced run is
  // indistinguishable from per-segment processing in every packet count.
  std::uint32_t gso_segs() const {
    return gro_segs.size() > 1 ? static_cast<std::uint32_t>(gro_segs.size())
                               : 1u;
  }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t offset_;
};

}  // namespace linuxfp::net
