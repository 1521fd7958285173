#include "engine/rss.h"

#include <array>
#include <cstring>

#include "net/headers.h"
#include "util/logging.h"

namespace linuxfp::engine {

namespace {

// The Microsoft reference RSS key (mlx5/ixgbe default). Symmetry does NOT
// come from the key: a key that makes in-place Toeplitz symmetric must be
// 16-bit periodic (the 0x6d5a convention), which collapses the 32-bit hash
// image to ~2^16 values with heavy collisions between nearby flows — fatal
// for the flow cache that indexes on this hash. Instead rss_hash_of
// canonicalizes the tuple (sorts the endpoints, DPDK's symmetric_toeplitz_
// sort) and keeps the full-strength key.
constexpr std::size_t kKeyLen = 40;
constexpr std::uint8_t kRssKey[kKeyLen] = {
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67,
    0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb,
    0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30,
    0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa};

// Input bit i contributes the 32-bit key window starting at key bit i, so
// the key allows 36 input bytes.
constexpr std::size_t kMaxInput = kKeyLen - 4;

using ToeplitzTable = std::array<std::array<std::uint32_t, 256>, kMaxInput>;

// table[p][v] is the XOR of the key windows of the set bits of byte value v
// at input position p, so the hash is one lookup per input byte instead of
// eight conditional XORs and window shifts. Built at compile time.
constexpr ToeplitzTable make_toeplitz_table() {
  std::array<std::uint32_t, kMaxInput * 8> window{};
  for (std::size_t bit = 0; bit < window.size(); ++bit) {
    for (std::size_t k = bit; k < bit + 32; ++k) {
      window[bit] = (window[bit] << 1) | ((kRssKey[k / 8] >> (7 - k % 8)) & 1u);
    }
  }
  ToeplitzTable table{};
  for (std::size_t pos = 0; pos < kMaxInput; ++pos) {
    for (std::uint32_t v = 0; v < 256; ++v) {
      for (std::size_t bit = 0; bit < 8; ++bit) {
        if (v & (0x80u >> bit)) table[pos][v] ^= window[pos * 8 + bit];
      }
    }
  }
  return table;
}

constexpr ToeplitzTable kToeplitzTable = make_toeplitz_table();

}  // namespace

std::uint32_t toeplitz_hash(const std::uint8_t* data, std::size_t len) {
  LFP_CHECK_MSG(len <= kMaxInput, "toeplitz input exceeds key window");
  std::uint32_t result = 0;
  for (std::size_t i = 0; i < len; ++i) result ^= kToeplitzTable[i][data[i]];
  return result;
}

RssClassifier::RssClassifier(unsigned queues)
    : queues_(queues), excluded_(queues) {
  LFP_CHECK_MSG(queues_ >= 1, "RSS needs at least one queue");
  for (std::size_t i = 0; i < kRetaSize; ++i) {
    reta_[i].store(static_cast<unsigned>(i % queues_),
                   std::memory_order_relaxed);
  }
}

std::size_t RssClassifier::include_queue(unsigned q) {
  if (q >= queues_ || !excluded_[q].load(std::memory_order_relaxed)) return 0;
  excluded_[q].store(false, std::memory_order_relaxed);
  // exclude_queue only rewrote the dead queue's entries, so after recovery
  // the survivors own the whole table. Re-spread every entry round-robin
  // over the alive set so the table converges back to uniform.
  std::vector<unsigned> alive;
  for (unsigned i = 0; i < queues_; ++i) {
    if (!excluded_[i].load(std::memory_order_relaxed)) alive.push_back(i);
  }
  std::size_t rewritten = 0;
  for (std::size_t i = 0; i < kRetaSize; ++i) {
    unsigned want = alive[i % alive.size()];
    if (reta_[i].load(std::memory_order_relaxed) == want) continue;
    reta_[i].store(want, std::memory_order_relaxed);
    ++rewritten;
  }
  return rewritten;
}

bool RssClassifier::set_entry(std::size_t index, unsigned q) {
  if (index >= kRetaSize || q >= queues_ ||
      excluded_[q].load(std::memory_order_relaxed)) {
    return false;
  }
  if (reta_[index].load(std::memory_order_relaxed) == q) return false;
  reta_[index].store(q, std::memory_order_relaxed);
  return true;
}

std::size_t RssClassifier::exclude_queue(unsigned q) {
  if (q >= queues_) return 0;
  excluded_[q].store(true, std::memory_order_relaxed);
  // Survivors, in queue order; bail if excluding q would leave nothing.
  std::vector<unsigned> alive;
  for (unsigned i = 0; i < queues_; ++i) {
    if (!excluded_[i].load(std::memory_order_relaxed)) alive.push_back(i);
  }
  if (alive.empty()) {
    excluded_[q].store(false, std::memory_order_relaxed);
    return 0;
  }
  std::size_t rewritten = 0;
  std::size_t rr = 0;
  for (std::size_t i = 0; i < kRetaSize; ++i) {
    if (reta_[i].load(std::memory_order_relaxed) != q) continue;
    reta_[i].store(alive[rr++ % alive.size()], std::memory_order_relaxed);
    ++rewritten;
  }
  return rewritten;
}

std::uint32_t rss_hash_cached(net::Packet& pkt) {
  if (!pkt.rss_hash_valid) {
    pkt.rss_hash = rss_hash_of(pkt);
    pkt.rss_hash_valid = true;
  }
  return pkt.rss_hash;
}

namespace {

// Fallback flow hash for frames the IPv4 parser cannot use (ARP, LLDP,
// truncated frames): Toeplitz over the canonicalized src/dst MAC pair plus
// the ethertype. Canonicalizing the MAC order keeps the request/reply
// directions of e.g. an ARP exchange on one queue, mirroring the 5-tuple
// symmetry. Without this, all such traffic hashed to 0 and pinned to
// reta_[0]'s queue while colliding in a single flowcache set.
std::uint32_t l2_hash_of(const net::Packet& pkt) {
  const std::uint8_t* d = pkt.data();
  if (pkt.size() < 14) {
    // Not even an Ethernet header: hash whatever bytes exist.
    return toeplitz_hash(d, pkt.size());
  }
  std::uint8_t input[14];
  const std::uint8_t* dst_mac = d;
  const std::uint8_t* src_mac = d + 6;
  const std::uint8_t* lo = std::memcmp(src_mac, dst_mac, 6) <= 0 ? src_mac
                                                                 : dst_mac;
  const std::uint8_t* hi = lo == src_mac ? dst_mac : src_mac;
  std::memcpy(input, lo, 6);
  std::memcpy(input + 6, hi, 6);
  input[12] = d[12];  // ethertype, big-endian as on the wire
  input[13] = d[13];
  return toeplitz_hash(input, sizeof(input));
}

}  // namespace

std::uint32_t rss_hash_of(const net::Packet& pkt) {
  auto parsed = net::parse_packet(pkt);
  if (!parsed || !parsed->has_ipv4) return l2_hash_of(pkt);
  // Hash input layout follows the Microsoft RSS spec: src ip, dst ip,
  // src port, dst port (big-endian), ports only for TCP/UDP.
  std::uint8_t input[12];
  std::size_t len = 8;
  std::uint32_t src = parsed->ip_src.value();
  std::uint32_t dst = parsed->ip_dst.value();
  std::uint16_t sport = parsed->src_port;
  std::uint16_t dport = parsed->dst_port;
  // Canonical endpoint order (addresses and ports swapped together) makes
  // both directions of a flow hash identically without weakening the key.
  if (src > dst || (src == dst && sport > dport)) {
    std::swap(src, dst);
    std::swap(sport, dport);
  }
  input[0] = static_cast<std::uint8_t>(src >> 24);
  input[1] = static_cast<std::uint8_t>(src >> 16);
  input[2] = static_cast<std::uint8_t>(src >> 8);
  input[3] = static_cast<std::uint8_t>(src);
  input[4] = static_cast<std::uint8_t>(dst >> 24);
  input[5] = static_cast<std::uint8_t>(dst >> 16);
  input[6] = static_cast<std::uint8_t>(dst >> 8);
  input[7] = static_cast<std::uint8_t>(dst);
  if (parsed->has_ports && !parsed->ip_fragment) {
    input[8] = static_cast<std::uint8_t>(sport >> 8);
    input[9] = static_cast<std::uint8_t>(sport);
    input[10] = static_cast<std::uint8_t>(dport >> 8);
    input[11] = static_cast<std::uint8_t>(dport);
    len = 12;
  }
  return toeplitz_hash(input, len);
}

}  // namespace linuxfp::engine
