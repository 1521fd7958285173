#include "core/fpm_library.h"

#include "ebpf/insn.h"
#include "ebpf/kernel_helpers.h"
#include "net/ipaddr.h"
#include "net/mac.h"

namespace linuxfp::core {

using namespace ebpf;  // NOLINT: codegen reads much better unqualified

namespace {
// Stack frame layout (offsets relative to r10, which sits at +512):
// helper parameter block lives at r10-128.
constexpr std::int64_t kParamBase = -128;

// Ethernet field offsets.
constexpr std::int32_t kOffEthDst = 0;
constexpr std::int32_t kOffEthSrc = 6;
constexpr std::int32_t kOffEthType = 12;
// IPv4 field offsets (untagged frame).
constexpr std::int32_t kOffIp = 14;
constexpr std::int32_t kOffIpFrag = kOffIp + 6;
constexpr std::int32_t kOffIpTtl = kOffIp + 8;
constexpr std::int32_t kOffIpProto = kOffIp + 9;
constexpr std::int32_t kOffIpCsum = kOffIp + 10;
constexpr std::int32_t kOffIpSrc = kOffIp + 12;
constexpr std::int32_t kOffIpDst = kOffIp + 16;
constexpr std::int32_t kOffL4 = kOffIp + 20;
}  // namespace

bool FpmLibrary::mac_constants(const std::string& mac_text,
                               std::uint32_t& hi32_le,
                               std::uint16_t& lo16_le) {
  auto mac = net::MacAddr::parse(mac_text);
  if (!mac.ok()) return false;
  const auto& b = mac.value().bytes();
  hi32_le = std::uint32_t{b[0]} | std::uint32_t{b[1]} << 8 |
            std::uint32_t{b[2]} << 16 | std::uint32_t{b[3]} << 24;
  lo16_le = static_cast<std::uint16_t>(std::uint16_t{b[4]} |
                                       std::uint16_t{b[5]} << 8);
  return true;
}

void FpmLibrary::emit_prologue(ebpf::ProgramBuilder& b, bool punt_multicast) {
  b.mov_reg(kR6, kR1);
  b.ldx(kR7, kR6, kCtxData, MemSize::kU64);
  b.ldx(kR8, kR6, kCtxDataEnd, MemSize::kU64);
  // Bounds: Ethernet header must be present.
  b.mov_reg(kR2, kR7);
  b.add(kR2, 14);
  b.jgt_reg(kR2, kR8, "punt");
  if (punt_multicast) {
    // Multicast/broadcast destinations (ARP requests, STP BPDUs, flooding)
    // are corner cases: slow path.
    b.ldx(kR2, kR7, kOffEthDst, MemSize::kU8);
    b.and_(kR2, 0x01);
    b.jne(kR2, 0, "punt");
  }
}

void FpmLibrary::emit_epilogue(ebpf::ProgramBuilder& b) {
  b.label("punt");
  b.ret(kActPass);
  b.label("drop");
  b.ret(kActDrop);
}

void FpmLibrary::emit_bridge(ebpf::ProgramBuilder& b, const util::Json& conf,
                             bool has_l3_next) {
  b.new_scope();
  const bool vlan = conf.at("VLAN_enabled").as_bool();

  // params block for bpf_fdb_lookup at r10 + kParamBase.
  b.mov_reg(kR9, kR10);
  b.add(kR9, kParamBase);

  // ifindex <- ctx->ingress_ifindex
  b.ldx(kR2, kR6, kCtxIfindex, MemSize::kU64);
  b.stx(kR9, kFdbParamIfindex, kR2, MemSize::kU32);

  if (vlan) {
    // VLAN parsing snippet: included only when the bridge filters VLANs.
    // Tagged frame: ethertype == 0x8100, VID at offset 14..16.
    b.st(kR9, kFdbParamVlan, 0, MemSize::kU16);
    b.ldx(kR2, kR7, kOffEthType, MemSize::kU16);
    b.be16(kR2);
    b.jne(kR2, 0x8100, b.scoped("novlan"));
    b.mov_reg(kR2, kR7);
    b.add(kR2, 18);
    b.jgt_reg(kR2, kR8, "punt");
    b.ldx(kR2, kR7, 14, MemSize::kU16);
    b.be16(kR2);
    b.and_(kR2, 0x0fff);
    b.stx(kR9, kFdbParamVlan, kR2, MemSize::kU16);
    b.label(b.scoped("novlan"));
  } else {
    b.st(kR9, kFdbParamVlan, 0, MemSize::kU16);
  }

  // dmac / smac copies (raw byte copies, endianness irrelevant).
  b.ldx(kR2, kR7, kOffEthDst, MemSize::kU32);
  b.stx(kR9, kFdbParamDmac, kR2, MemSize::kU32);
  b.ldx(kR2, kR7, kOffEthDst + 4, MemSize::kU16);
  b.stx(kR9, kFdbParamDmac + 4, kR2, MemSize::kU16);
  b.ldx(kR2, kR7, kOffEthSrc, MemSize::kU32);
  b.stx(kR9, kFdbParamSmac, kR2, MemSize::kU32);
  b.ldx(kR2, kR7, kOffEthSrc + 4, MemSize::kU16);
  b.stx(kR9, kFdbParamSmac + 4, kR2, MemSize::kU16);

  b.mov_reg(kR1, kR6);
  b.mov_reg(kR2, kR9);
  b.call(kHelperFdbLookup);

  // Success: (optionally evaluate br_netfilter) then redirect out the
  // learned port.
  b.jne(kR0, static_cast<std::int64_t>(kFdbLkupSuccess),
        b.scoped("fdb_not_fwd"));

  if (conf.at("br_netfilter").as_bool()) {
    // bridge-nf-call-iptables=1: bridged IPv4 traffic must pass the FORWARD
    // chain; evaluate it through the bpf_ipt_lookup helper with the egress
    // port from the FDB result. Non-IPv4 frames are not iptables subjects.
    const util::Json& fconf = conf.at("filter");
    const bool needs_ports = fconf.at("needs_ports").as_bool();
    b.ldx(kR2, kR7, kOffEthType, MemSize::kU16);
    b.be16(kR2);
    b.jne(kR2, 0x0800, b.scoped("br_redirect"));
    b.mov_reg(kR2, kR7);
    b.add(kR2, kOffL4);
    b.jgt_reg(kR2, kR8, "punt");
    b.ldx(kR2, kR7, kOffIp, MemSize::kU8);
    b.jne(kR2, 0x45, "punt");
    b.ldx(kR2, kR7, kOffIpFrag, MemSize::kU16);
    b.be16(kR2);
    b.and_(kR2, 0x3fff);
    b.jne(kR2, 0, "punt");

    // ipt params in a second stack block (r3); the FDB params stay in r9.
    b.mov_reg(kR3, kR10);
    b.add(kR3, kParamBase + 64);
    b.ldx(kR2, kR7, kOffIpSrc, MemSize::kU32);
    b.be32(kR2);
    b.stx(kR3, kIptParamSrc, kR2, MemSize::kU32);
    b.ldx(kR2, kR7, kOffIpDst, MemSize::kU32);
    b.be32(kR2);
    b.stx(kR3, kIptParamDst, kR2, MemSize::kU32);
    b.ldx(kR2, kR7, kOffIpProto, MemSize::kU8);
    b.stx(kR3, kIptParamProto, kR2, MemSize::kU8);
    b.st(kR3, kIptParamHook, kIptHookForward, MemSize::kU8);
    b.st(kR3, kIptParamSport, 0, MemSize::kU16);
    b.st(kR3, kIptParamDport, 0, MemSize::kU16);
    if (needs_ports) {
      b.ldx(kR2, kR7, kOffIpProto, MemSize::kU8);
      b.jeq(kR2, 6, b.scoped("br_ports"));
      b.jne(kR2, 17, b.scoped("br_ports_done"));
      b.label(b.scoped("br_ports"));
      b.mov_reg(kR2, kR7);
      b.add(kR2, kOffL4 + 4);
      b.jgt_reg(kR2, kR8, "punt");
      b.ldx(kR2, kR7, kOffL4, MemSize::kU16);
      b.be16(kR2);
      b.stx(kR3, kIptParamSport, kR2, MemSize::kU16);
      b.ldx(kR2, kR7, kOffL4 + 2, MemSize::kU16);
      b.be16(kR2);
      b.stx(kR3, kIptParamDport, kR2, MemSize::kU16);
      b.label(b.scoped("br_ports_done"));
    }
    b.ldx(kR2, kR6, kCtxIfindex, MemSize::kU64);
    b.stx(kR3, kIptParamInIf, kR2, MemSize::kU32);
    b.ldx(kR2, kR9, kFdbParamOutIfindex, MemSize::kU32);
    b.stx(kR3, kIptParamOutIf, kR2, MemSize::kU32);
    b.mov_reg(kR1, kR6);
    b.mov_reg(kR2, kR3);
    b.call(kHelperIptLookup);
    b.jeq(kR0, static_cast<std::int64_t>(kIptVerdictDrop), "drop");
    b.jeq(kR0, static_cast<std::int64_t>(kIptVerdictPunt), "punt");
    b.label(b.scoped("br_redirect"));
  }

  b.ldx(kR1, kR9, kFdbParamOutIfindex, MemSize::kU32);
  b.call(kHelperRedirect);
  b.exit();

  b.label(b.scoped("fdb_not_fwd"));
  if (has_l3_next) {
    // Frames addressed to the bridge MAC continue to the router FPM
    // (next_nf: router); everything else (FDB miss -> flooding, learning,
    // STP) is slow-path work.
    std::uint32_t hi;
    std::uint16_t lo;
    if (mac_constants(conf.at("bridge_mac").as_string(), hi, lo)) {
      b.ldx(kR2, kR7, kOffEthDst, MemSize::kU32);
      b.jne(kR2, hi, "punt");
      b.ldx(kR2, kR7, kOffEthDst + 4, MemSize::kU16);
      b.jne(kR2, lo, "punt");
      b.ja("l3_entry");
      return;
    }
  }
  b.ja("punt");
}

void FpmLibrary::emit_l3(ebpf::ProgramBuilder& b,
                         const util::Json& filter_conf,
                         const util::Json& router_conf,
                         const std::string& dev_mac, bool skip_mac_check) {
  b.new_scope();
  b.label("l3_entry");

  if (!skip_mac_check) {
    // Only frames addressed to us are routed; others go to the slow path.
    std::uint32_t hi;
    std::uint16_t lo;
    if (mac_constants(dev_mac, hi, lo)) {
      b.ldx(kR2, kR7, kOffEthDst, MemSize::kU32);
      b.jne(kR2, hi, "punt");
      b.ldx(kR2, kR7, kOffEthDst + 4, MemSize::kU16);
      b.jne(kR2, lo, "punt");
    }
  }

  // EtherType must be IPv4 (VLAN-tagged L3 traffic is a slow-path corner
  // case unless a bridge handled the tag already).
  b.ldx(kR2, kR7, kOffEthType, MemSize::kU16);
  b.be16(kR2);
  b.jne(kR2, 0x0800, "punt");

  // Bounds: full IPv4 header.
  b.mov_reg(kR2, kR7);
  b.add(kR2, kOffL4);
  b.jgt_reg(kR2, kR8, "punt");

  // IHL must be 5 (options are slow-path).
  b.ldx(kR2, kR7, kOffIp, MemSize::kU8);
  b.jne(kR2, 0x45, "punt");

  // Fragments are slow-path (paper Table I: IP (de)fragmentation).
  b.ldx(kR2, kR7, kOffIpFrag, MemSize::kU16);
  b.be16(kR2);
  b.and_(kR2, 0x3fff);
  b.jne(kR2, 0, "punt");

  // TTL must survive the decrement; expiry generates ICMP in the slow path.
  b.ldx(kR2, kR7, kOffIpTtl, MemSize::kU8);
  b.jle(kR2, 1, "punt");

  // Locally-terminated traffic punts before any lookup work: the device's
  // own addresses are baked in at synthesis time (specialization).
  const util::Json& locals = router_conf.at("local_addrs");
  if (locals.is_array() && locals.size() > 0) {
    b.ldx(kR2, kR7, kOffIpDst, MemSize::kU32);
    b.be32(kR2);
    for (std::size_t i = 0; i < locals.size(); ++i) {
      auto addr = net::Ipv4Addr::parse(locals.at(i).as_string());
      if (addr.ok()) {
        b.jeq(kR2, addr->value(), "punt");
      }
    }
  }

  // --- FIB lookup --------------------------------------------------------------
  b.mov_reg(kR9, kR10);
  b.add(kR9, kParamBase);
  b.ldx(kR2, kR6, kCtxIfindex, MemSize::kU64);
  b.stx(kR9, kFibParamIfindex, kR2, MemSize::kU32);
  b.ldx(kR2, kR7, kOffIpDst, MemSize::kU32);
  b.be32(kR2);
  b.stx(kR9, kFibParamDst, kR2, MemSize::kU32);
  b.mov_reg(kR1, kR6);
  b.mov_reg(kR2, kR9);
  b.mov(kR3, kFibParamSize);
  b.mov(kR4, 0);
  b.call(kHelperFibLookup);
  // Anything but SUCCESS (no route, no neighbour yet) punts: the slow path
  // will ARP / generate errors, then subsequent packets stay on the fast
  // path.
  b.jne(kR0, static_cast<std::int64_t>(kFibLkupSuccess), "punt");

  // --- filter (iptables FORWARD) -------------------------------------------------
  if (!filter_conf.is_null()) {
    const bool needs_ports = filter_conf.at("needs_ports").as_bool();
    // A second parameter block right after the FIB one.
    b.mov_reg(kR9, kR10);
    b.add(kR9, kParamBase + 64);
    b.ldx(kR2, kR7, kOffIpSrc, MemSize::kU32);
    b.be32(kR2);
    b.stx(kR9, kIptParamSrc, kR2, MemSize::kU32);
    b.ldx(kR2, kR7, kOffIpDst, MemSize::kU32);
    b.be32(kR2);
    b.stx(kR9, kIptParamDst, kR2, MemSize::kU32);
    b.ldx(kR2, kR7, kOffIpProto, MemSize::kU8);
    b.stx(kR9, kIptParamProto, kR2, MemSize::kU8);
    b.st(kR9, kIptParamHook, kIptHookForward, MemSize::kU8);
    if (needs_ports) {
      // Port parsing snippet: emitted only when some rule matches ports.
      b.st(kR9, kIptParamSport, 0, MemSize::kU16);
      b.st(kR9, kIptParamDport, 0, MemSize::kU16);
      b.ldx(kR2, kR7, kOffIpProto, MemSize::kU8);
      b.jeq(kR2, 6, b.scoped("parse_ports"));
      b.jne(kR2, 17, b.scoped("ports_done"));
      b.label(b.scoped("parse_ports"));
      b.mov_reg(kR2, kR7);
      b.add(kR2, kOffL4 + 4);
      b.jgt_reg(kR2, kR8, "punt");
      b.ldx(kR2, kR7, kOffL4, MemSize::kU16);
      b.be16(kR2);
      b.stx(kR9, kIptParamSport, kR2, MemSize::kU16);
      b.ldx(kR2, kR7, kOffL4 + 2, MemSize::kU16);
      b.be16(kR2);
      b.stx(kR9, kIptParamDport, kR2, MemSize::kU16);
      b.label(b.scoped("ports_done"));
    } else {
      b.st(kR9, kIptParamSport, 0, MemSize::kU16);
      b.st(kR9, kIptParamDport, 0, MemSize::kU16);
    }
    // in/out ifindex: ingress from ctx; egress from the FIB result, so -o
    // rules match correctly (the fused filter runs after route lookup).
    b.ldx(kR2, kR6, kCtxIfindex, MemSize::kU64);
    b.stx(kR9, kIptParamInIf, kR2, MemSize::kU32);
    b.mov_reg(kR3, kR10);
    b.add(kR3, kParamBase);
    b.ldx(kR2, kR3, kFibParamOutIfindex, MemSize::kU32);
    b.stx(kR9, kIptParamOutIf, kR2, MemSize::kU32);

    b.mov_reg(kR1, kR6);
    b.mov_reg(kR2, kR9);
    b.call(kHelperIptLookup);
    b.jeq(kR0, static_cast<std::int64_t>(kIptVerdictDrop), "drop");
    b.jeq(kR0, static_cast<std::int64_t>(kIptVerdictPunt), "punt");
  }

  // --- rewrite + forward ----------------------------------------------------------
  b.mov_reg(kR9, kR10);
  b.add(kR9, kParamBase);
  // dmac <- fib.dmac, smac <- fib.smac
  b.ldx(kR2, kR9, kFibParamDmac, MemSize::kU32);
  b.stx(kR7, kOffEthDst, kR2, MemSize::kU32);
  b.ldx(kR2, kR9, kFibParamDmac + 4, MemSize::kU16);
  b.stx(kR7, kOffEthDst + 4, kR2, MemSize::kU16);
  b.ldx(kR2, kR9, kFibParamSmac, MemSize::kU32);
  b.stx(kR7, kOffEthSrc, kR2, MemSize::kU32);
  b.ldx(kR2, kR9, kFibParamSmac + 4, MemSize::kU16);
  b.stx(kR7, kOffEthSrc + 4, kR2, MemSize::kU16);

  // TTL decrement with incremental checksum update (RFC 1141): the checksum,
  // read as a big-endian value, increases by 0x0100 with end-around carry.
  b.ldx(kR2, kR7, kOffIpTtl, MemSize::kU8);
  b.sub(kR2, 1);
  b.stx(kR7, kOffIpTtl, kR2, MemSize::kU8);
  b.ldx(kR2, kR7, kOffIpCsum, MemSize::kU16);
  b.be16(kR2);
  b.add(kR2, 0x0100);
  b.mov_reg(kR3, kR2);
  b.rsh(kR3, 16);
  b.add_reg(kR2, kR3);
  b.and_(kR2, 0xffff);
  b.be16(kR2);
  b.stx(kR7, kOffIpCsum, kR2, MemSize::kU16);

  b.ldx(kR1, kR9, kFibParamOutIfindex, MemSize::kU32);
  b.call(kHelperRedirect);
  b.exit();
}

void FpmLibrary::emit_filter_only(ebpf::ProgramBuilder& b,
                                  const util::Json& conf) {
  b.new_scope();
  const bool needs_ports = conf.at("needs_ports").as_bool();

  b.ldx(kR2, kR7, kOffEthType, MemSize::kU16);
  b.be16(kR2);
  b.jne(kR2, 0x0800, "punt");
  b.mov_reg(kR2, kR7);
  b.add(kR2, kOffL4);
  b.jgt_reg(kR2, kR8, "punt");
  b.ldx(kR2, kR7, kOffIp, MemSize::kU8);
  b.jne(kR2, 0x45, "punt");
  b.ldx(kR2, kR7, kOffIpFrag, MemSize::kU16);
  b.be16(kR2);
  b.and_(kR2, 0x3fff);
  b.jne(kR2, 0, "punt");

  b.mov_reg(kR9, kR10);
  b.add(kR9, kParamBase + 64);
  b.ldx(kR2, kR7, kOffIpSrc, MemSize::kU32);
  b.be32(kR2);
  b.stx(kR9, kIptParamSrc, kR2, MemSize::kU32);
  b.ldx(kR2, kR7, kOffIpDst, MemSize::kU32);
  b.be32(kR2);
  b.stx(kR9, kIptParamDst, kR2, MemSize::kU32);
  b.ldx(kR2, kR7, kOffIpProto, MemSize::kU8);
  b.stx(kR9, kIptParamProto, kR2, MemSize::kU8);
  b.st(kR9, kIptParamHook, kIptHookForward, MemSize::kU8);
  b.st(kR9, kIptParamSport, 0, MemSize::kU16);
  b.st(kR9, kIptParamDport, 0, MemSize::kU16);
  if (needs_ports) {
    b.ldx(kR2, kR7, kOffIpProto, MemSize::kU8);
    b.jeq(kR2, 6, b.scoped("parse_ports"));
    b.jne(kR2, 17, b.scoped("ports_done"));
    b.label(b.scoped("parse_ports"));
    b.mov_reg(kR2, kR7);
    b.add(kR2, kOffL4 + 4);
    b.jgt_reg(kR2, kR8, "punt");
    b.ldx(kR2, kR7, kOffL4, MemSize::kU16);
    b.be16(kR2);
    b.stx(kR9, kIptParamSport, kR2, MemSize::kU16);
    b.ldx(kR2, kR7, kOffL4 + 2, MemSize::kU16);
    b.be16(kR2);
    b.stx(kR9, kIptParamDport, kR2, MemSize::kU16);
    b.label(b.scoped("ports_done"));
  }
  b.ldx(kR2, kR6, kCtxIfindex, MemSize::kU64);
  b.stx(kR9, kIptParamInIf, kR2, MemSize::kU32);
  b.st(kR9, kIptParamOutIf, 0, MemSize::kU32);

  b.mov_reg(kR1, kR6);
  b.mov_reg(kR2, kR9);
  b.call(kHelperIptLookup);
  b.jeq(kR0, static_cast<std::int64_t>(kIptVerdictDrop), "drop");
  b.jeq(kR0, static_cast<std::int64_t>(kIptVerdictPunt), "punt");
}

namespace {
// Incrementally patches the IPv4 header checksum for a rewritten 32-bit
// address at packet offset `addr_off`, then stores the new address.
// In: r9 = ct params (rewrite_addr at kCtParamRewriteAddr). Clobbers r1-r5.
// RFC 1624 eqn 3: HC' = ~(~HC + ~m + m'), word by word.
void emit_addr_rewrite(ProgramBuilder& b, std::int32_t addr_off) {
  // Old address words (as big-endian 16-bit values).
  b.ldx(kR3, kR7, addr_off, MemSize::kU16);
  b.be16(kR3);
  b.ldx(kR4, kR7, addr_off + 2, MemSize::kU16);
  b.be16(kR4);
  // New address (host order) from the helper result.
  b.ldx(kR5, kR9, kCtParamRewriteAddr, MemSize::kU32);

  // r2 = ~csum
  b.ldx(kR2, kR7, kOffIpCsum, MemSize::kU16);
  b.be16(kR2);
  b.mov(kR1, 0xffff);
  b.sub_reg(kR1, kR2);
  b.mov_reg(kR2, kR1);
  // + ~old_w0 + ~old_w1
  b.mov(kR1, 0xffff);
  b.sub_reg(kR1, kR3);
  b.add_reg(kR2, kR1);
  b.mov(kR1, 0xffff);
  b.sub_reg(kR1, kR4);
  b.add_reg(kR2, kR1);
  // + new_w0 + new_w1
  b.mov_reg(kR1, kR5);
  b.rsh(kR1, 16);
  b.add_reg(kR2, kR1);
  b.mov_reg(kR1, kR5);
  b.and_(kR1, 0xffff);
  b.add_reg(kR2, kR1);
  // fold twice
  for (int i = 0; i < 2; ++i) {
    b.mov_reg(kR1, kR2);
    b.rsh(kR1, 16);
    b.and_(kR2, 0xffff);
    b.add_reg(kR2, kR1);
  }
  // csum' = ~acc
  b.mov(kR1, 0xffff);
  b.sub_reg(kR1, kR2);
  b.mov_reg(kR2, kR1);
  b.be16(kR2);
  b.stx(kR7, kOffIpCsum, kR2, MemSize::kU16);
  // Store the new address (big-endian on the wire).
  b.mov_reg(kR1, kR5);
  b.be32(kR1);
  b.stx(kR7, addr_off, kR1, MemSize::kU32);
}
}  // namespace

void FpmLibrary::emit_loadbalance(ebpf::ProgramBuilder& b,
                                  const util::Json& conf) {
  b.new_scope();
  const std::string done = b.scoped("lb_done");
  // Non-IPv4 / fragments / short frames: not load-balancer subjects; they
  // continue to the next FPM, whose own checks punt what it cannot handle.
  b.ldx(kR2, kR7, kOffEthType, MemSize::kU16);
  b.be16(kR2);
  b.jne(kR2, 0x0800, done);
  b.mov_reg(kR2, kR7);
  b.add(kR2, kOffL4 + 4);
  b.jgt_reg(kR2, kR8, done);
  b.ldx(kR2, kR7, kOffIp, MemSize::kU8);
  b.jne(kR2, 0x45, done);
  b.ldx(kR2, kR7, kOffIpFrag, MemSize::kU16);
  b.be16(kR2);
  b.and_(kR2, 0x3fff);
  b.jne(kR2, 0, done);

  // Conntrack lookup.
  b.mov_reg(kR9, kR10);
  b.add(kR9, kParamBase + 64);
  b.ldx(kR2, kR7, kOffIpSrc, MemSize::kU32);
  b.be32(kR2);
  b.stx(kR9, kCtParamSrc, kR2, MemSize::kU32);
  b.ldx(kR2, kR7, kOffIpDst, MemSize::kU32);
  b.be32(kR2);
  b.stx(kR9, kCtParamDst, kR2, MemSize::kU32);
  b.ldx(kR2, kR7, kOffIpProto, MemSize::kU8);
  b.stx(kR9, kCtParamProto, kR2, MemSize::kU8);
  b.ldx(kR2, kR7, kOffL4, MemSize::kU16);
  b.be16(kR2);
  b.stx(kR9, kCtParamSport, kR2, MemSize::kU16);
  b.ldx(kR2, kR7, kOffL4 + 2, MemSize::kU16);
  b.be16(kR2);
  b.stx(kR9, kCtParamDport, kR2, MemSize::kU16);
  b.mov_reg(kR1, kR6);
  b.mov_reg(kR2, kR9);
  b.call(kHelperCtLookup);
  b.jeq(kR0, static_cast<std::int64_t>(kCtLkupFound),
        b.scoped("lb_tracked"));

  // Conntrack miss. If (and only if) the destination is one of the
  // configured virtual services, the flow is NEW and needs slow-path
  // scheduling; all other traffic simply is not load-balancer business.
  // The VIP endpoints are synthesis-time constants (specialization).
  {
    const util::Json& services = conf.at("services");
    b.ldx(kR4, kR7, kOffIpDst, MemSize::kU32);
    b.be32(kR4);
    b.ldx(kR5, kR7, kOffL4 + 2, MemSize::kU16);
    b.be16(kR5);
    b.ldx(kR3, kR7, kOffIpProto, MemSize::kU8);
    for (std::size_t i = 0; i < services.size(); ++i) {
      const util::Json& svc = services.at(i);
      auto vip = net::Ipv4Addr::parse(svc.at("vip").as_string());
      if (!vip.ok()) continue;
      std::string next = b.scoped("lb_svc" + std::to_string(i));
      b.jne(kR4, vip->value(), next);
      b.jne(kR5, svc.at("port").as_int(), next);
      b.jne(kR3, svc.at("proto").as_int(), next);
      b.ja("punt");  // NEW flow to this VIP: schedule in the slow path
      b.label(next);
    }
    b.ja(done);  // untracked non-VIP traffic: continue down the fast path
  }

  b.label(b.scoped("lb_tracked"));
  b.ldx(kR2, kR9, kCtParamFlags, MemSize::kU8);
  b.jset(kR2, kCtFlagRewrite, b.scoped("lb_rewrite"));
  b.ja(done);  // plain tracked flow, no NAT

  b.label(b.scoped("lb_rewrite"));
  b.ldx(kR2, kR9, kCtParamFlags, MemSize::kU8);
  b.and_(kR2, kCtFlagReply);
  b.jne(kR2, 0, b.scoped("lb_reply"));
  // Original direction: DNAT destination toward the backend.
  emit_addr_rewrite(b, kOffIpDst);
  b.ldx(kR2, kR9, kCtParamRewritePort, MemSize::kU16);
  b.be16(kR2);
  b.stx(kR7, kOffL4 + 2, kR2, MemSize::kU16);
  b.ja(done);

  b.label(b.scoped("lb_reply"));
  // Reply direction: un-NAT source back to the VIP.
  emit_addr_rewrite(b, kOffIpSrc);
  b.ldx(kR2, kR9, kCtParamRewritePort, MemSize::kU16);
  b.be16(kR2);
  b.stx(kR7, kOffL4, kR2, MemSize::kU16);

  b.label(done);
}

void FpmLibrary::emit_trivial_nf(ebpf::ProgramBuilder& b, int index) {
  b.new_scope();
  // One packet load + a little ALU, like a minimal monitoring NF.
  b.ldx(kR2, kR7, kOffEthType, MemSize::kU16);
  b.add(kR2, index);
  b.and_(kR2, 0xffff);
}

}  // namespace linuxfp::core
