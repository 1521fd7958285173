#include "engine/gro.h"

#include <cstring>

namespace linuxfp::engine {

namespace {

// Byte offsets (from frame start) that resegmentation restores per segment;
// everything else must match the held super-packet exactly for a fold.
bool is_masked_offset(std::size_t off, bool tcp) {
  constexpr std::size_t kIp = net::kEthHdrLen;
  constexpr std::size_t kL4 = net::kEthHdrLen + net::kIpv4HdrLen;
  if (off == kIp + 2 || off == kIp + 3) return true;    // IP total_len
  if (off == kIp + 4 || off == kIp + 5) return true;    // IP id
  if (off == kIp + 10 || off == kIp + 11) return true;  // IP checksum
  if (tcp) {
    if (off >= kL4 + 4 && off < kL4 + 8) return true;     // TCP seq
    if (off == kL4 + 16 || off == kL4 + 17) return true;  // TCP checksum
  } else {
    if (off == kL4 + 4 || off == kL4 + 5) return true;  // UDP length
    if (off == kL4 + 6 || off == kL4 + 7) return true;  // UDP checksum
  }
  return false;
}

}  // namespace

GroStats& GroStats::operator+=(const GroStats& o) {
  folds += o.folds;
  coalesced += o.coalesced;
  superpackets += o.superpackets;
  bypassed += o.bypassed;
  flush_poll += o.flush_poll;
  flush_mismatch += o.flush_mismatch;
  flush_ooo += o.flush_ooo;
  flush_max_segs += o.flush_max_segs;
  flush_capacity += o.flush_capacity;
  return *this;
}

GroEngine::Classified GroEngine::classify(const net::Packet& pkt) const {
  Classified c;
  if (pkt.size() < net::kEthHdrLen + net::kIpv4HdrLen) return c;
  auto* base = const_cast<std::uint8_t*>(pkt.data());
  net::EthernetView eth(base);
  if (eth.ethertype() != net::kEtherTypeIpv4) return c;
  net::Ipv4View ip(base + net::kEthHdrLen);
  if (ip.version() != 4 || ip.ihl() != 5) return c;
  const std::uint8_t proto = ip.protocol();
  const bool tcp = proto == net::kIpProtoTcp;
  if (!tcp && proto != net::kIpProtoUdp) return c;
  // An offset-fragment has no L4 header; a first fragment (MF set) does, so
  // it still forms a key and acts as an ordering barrier — but fragments
  // never coalesce.
  const bool first_or_unfragmented = ip.frag_offset() == 0;
  const std::size_t l4_off = net::kEthHdrLen + net::kIpv4HdrLen;
  const std::size_t l4_len = tcp ? net::kTcpHdrLen : net::kUdpHdrLen;
  if (!first_or_unfragmented || pkt.size() < l4_off + l4_len) return c;
  c.has_key = true;
  c.tcp = tcp;
  c.key.src_ip = ip.src();
  c.key.dst_ip = ip.dst();
  c.key.proto = proto;
  c.key.src_port = net::load_be16(base + l4_off);
  c.key.dst_port = net::load_be16(base + l4_off + 2);
  if (ip.is_fragment() || pkt.guard_cookie != 0) return c;
  if (!tcp && !cfg_.udp) return c;
  // Link-layer padding (total_len < frame) would be lost on refold; require
  // the frame to be exactly the IP datagram.
  if (pkt.size() != net::kEthHdrLen + ip.total_len()) return c;
  std::size_t payload_off = l4_off + l4_len;
  if (tcp) {
    net::TcpView tcpv(base + l4_off);
    if ((base[l4_off + 12] >> 4) != 5) return c;  // options not handled
    if (tcpv.syn() || tcpv.fin() || tcpv.rst()) return c;
    c.seq = tcpv.seq();
  } else {
    net::UdpView udp(base + l4_off);
    if (udp.length() != ip.total_len() - net::kIpv4HdrLen) return c;
  }
  if (pkt.size() <= payload_off) return c;  // pure ACKs etc. bypass
  c.payload_off = static_cast<std::uint16_t>(payload_off);
  c.payload_len = static_cast<std::uint16_t>(pkt.size() - payload_off);
  c.coalescable = true;
  return c;
}

bool GroEngine::headers_match(const Entry& e, const net::Packet& pkt) const {
  const std::size_t l4_len = e.tcp ? net::kTcpHdrLen : net::kUdpHdrLen;
  const std::size_t hdr_len = net::kEthHdrLen + net::kIpv4HdrLen + l4_len;
  const std::uint8_t* a = e.super.data();
  const std::uint8_t* b = pkt.data();
  for (std::size_t i = 0; i < hdr_len; ++i) {
    if (a[i] != b[i] && !is_masked_offset(i, e.tcp)) return false;
  }
  return true;
}

void GroEngine::flush_entry(std::size_t idx, std::vector<net::Packet>& out,
                            std::uint64_t& reason_counter) {
  Entry& e = held_[idx];
  ++reason_counter;
  if (e.super.gro_segs.size() > 1) {
    // Finalize the super-packet headers: lengths cover the whole run, the
    // checksum matches, and per-segment fields live in gro_segs for
    // net::gso_segment to restore at TX.
    net::Ipv4View ip(e.super.data() + net::kEthHdrLen);
    ip.set_total_len(
        static_cast<std::uint16_t>(e.super.size() - net::kEthHdrLen));
    if (!e.tcp) {
      net::UdpView udp(e.super.data() + net::kEthHdrLen + net::kIpv4HdrLen);
      udp.set_length(static_cast<std::uint16_t>(
          e.super.size() - net::kEthHdrLen - net::kIpv4HdrLen));
    }
    ip.update_checksum();
    ++stats_.superpackets;
  } else {
    e.super.gro_segs.clear();  // single segment: emit the original untouched
  }
  out.push_back(std::move(e.super));
  held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(idx));
}

void GroEngine::fold(net::Packet&& pkt, std::vector<net::Packet>& out) {
  ++stats_.folds;
  const Classified c = classify(pkt);
  if (!c.coalescable) {
    // Per-flow order barrier: a bypassing packet with the same 5-tuple as a
    // held run must not overtake it.
    if (c.has_key) {
      for (std::size_t i = 0; i < held_.size(); ++i) {
        if (held_[i].key == c.key) {
          flush_entry(i, out, stats_.flush_mismatch);
          break;
        }
      }
    }
    ++stats_.bypassed;
    out.push_back(std::move(pkt));
    return;
  }

  for (std::size_t i = 0; i < held_.size(); ++i) {
    Entry& e = held_[i];
    if (e.key != c.key) continue;
    const bool in_seq = !e.tcp || c.seq == e.next_seq;
    if (!in_seq || !headers_match(e, pkt)) {
      flush_entry(i, out, in_seq ? stats_.flush_mismatch : stats_.flush_ooo);
      break;  // fall through to start a fresh run with this segment
    }
    // Fold: append payload, record the per-segment restore fields.
    const std::uint8_t* base = pkt.data();
    net::Ipv4View ip(const_cast<std::uint8_t*>(base) + net::kEthHdrLen);
    const std::size_t l4_off = net::kEthHdrLen + net::kIpv4HdrLen;
    const std::size_t csum_off = e.tcp ? l4_off + 16 : l4_off + 6;
    const std::size_t old_size = e.super.size();
    e.super.resize_data(old_size + c.payload_len);
    std::memcpy(e.super.data() + old_size, base + c.payload_off,
                c.payload_len);
    e.super.gro_segs.push_back(net::GroSeg{
        c.payload_len, ip.id(), net::load_be16(base + csum_off)});
    if (e.tcp) e.next_seq += c.payload_len;
    ++stats_.coalesced;
    if (e.super.gro_segs.size() >= cfg_.max_segs) {
      flush_entry(i, out, stats_.flush_max_segs);
    }
    return;
  }

  // Start a new run. The first segment's restore fields are recorded too so
  // gso_segment can rebuild every segment uniformly.
  if (held_.size() >= kMaxHeld) {
    flush_entry(0, out, stats_.flush_capacity);
  }
  Entry e;
  e.key = c.key;
  e.tcp = c.tcp;
  e.next_seq = c.tcp ? c.seq + c.payload_len : 0;
  e.super = std::move(pkt);
  {
    const std::uint8_t* base = e.super.data();
    net::Ipv4View ip(const_cast<std::uint8_t*>(base) + net::kEthHdrLen);
    const std::size_t l4_off = net::kEthHdrLen + net::kIpv4HdrLen;
    const std::size_t csum_off = e.tcp ? l4_off + 16 : l4_off + 6;
    e.super.gro_segs.push_back(net::GroSeg{
        c.payload_len, ip.id(), net::load_be16(base + csum_off)});
  }
  held_.push_back(std::move(e));
}

void GroEngine::flush_all(std::vector<net::Packet>& out) {
  while (!held_.empty()) flush_entry(0, out, stats_.flush_poll);
}

}  // namespace linuxfp::engine
