// The FPM library: code snippets for individual tasks (parse Ethernet/VLAN,
// bridge FDB lookup+forward, FIB lookup+rewrite+forward, iptables filter,
// conntrack affinity), specialized at synthesis time from the "conf"
// attributes in the processing graph. This is the C++ equivalent of the
// paper's Jinja template library (§IV-B3): conditional template blocks become
// conditional emission — code that is not needed for the current
// configuration is simply never generated.
//
// Register conventions inside a synthesized program:
//   r6 = ctx (saved), r7 = data, r8 = data_end, r9 = scratch/param pointer.
// Labels "punt" (XDP_PASS to the Linux slow path) and "drop" are defined by
// emit_epilogue and shared by all snippets of one program.
#pragma once

#include <cstdint>
#include <string>

#include "ebpf/builder.h"
#include "util/json.h"

namespace linuxfp::core {

class FpmLibrary {
 public:
  // Program prologue: saves ctx, loads data/data_end, bounds-checks the
  // Ethernet header, punts multicast destinations when `punt_multicast`.
  static void emit_prologue(ebpf::ProgramBuilder& b, bool punt_multicast);

  // Defines the shared "punt" (PASS) and "drop" labels. Must be emitted
  // exactly once, after all snippets.
  static void emit_epilogue(ebpf::ProgramBuilder& b);

  // Bridge FPM. conf: {bridge_mac, STP_enabled, VLAN_enabled}. When
  // `has_l3_next` the snippet forwards frames addressed to the bridge MAC to
  // the "l3_entry" label instead of punting.
  static void emit_bridge(ebpf::ProgramBuilder& b, const util::Json& conf,
                          bool has_l3_next);

  // Combined filter+router FPM starting at label "l3_entry". filter_conf may
  // be null (no filtering configured). dev_mac is the attachment device's
  // (or bridge's) MAC: frames not addressed to it are punted unless
  // `skip_mac_check` (set when the bridge snippet already dispatched).
  static void emit_l3(ebpf::ProgramBuilder& b, const util::Json& filter_conf,
                      const util::Json& router_conf, const std::string& dev_mac,
                      bool skip_mac_check);

  // Standalone filter FPM (tail-call mode): parses IPv4(+ports if needed),
  // evaluates the FORWARD chain with out-ifindex 0, drops/punts/falls
  // through. Used when the filter is its own chained program.
  static void emit_filter_only(ebpf::ProgramBuilder& b,
                               const util::Json& conf);

  // Full ipvs fast path (paper Table I, load-balancing row): parse, conntrack
  // lookup via bpf_ct_lookup, NAT rewrite (DNAT toward the scheduled backend
  // on the original direction; un-NAT back to the VIP on replies) with an
  // incremental IP-checksum fix, then fall through to the router FPM. NEW
  // flows punt — scheduling is slow-path work.
  static void emit_loadbalance(ebpf::ProgramBuilder& b,
                               const util::Json& conf);

  // A trivial pass-through NF used by the Fig 10 chain-composition bench:
  // touches the packet (one load) and falls through.
  static void emit_trivial_nf(ebpf::ProgramBuilder& b, int index);

  // Parses a MAC text ("02:00:..") into the two little-endian constants the
  // generated comparisons use. Returns false on parse failure.
  static bool mac_constants(const std::string& mac_text,
                            std::uint32_t& hi32_le, std::uint16_t& lo16_le);
};

}  // namespace linuxfp::core
