#include "ebpf/kernel_helpers.h"

#include <cstring>

#include "engine/flowcache.h"
#include "kernel/kernel.h"
#include "net/checksum.h"
#include "util/logging.h"

namespace linuxfp::ebpf {

namespace {

std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint16_t load_u16(const std::uint8_t* p) {
  std::uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
void store_u32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }

const kern::CostModel& cost_of(HelperContext& ctx,
                               const kern::CostModel& fallback) {
  return ctx.kernel() ? ctx.kernel()->cost() : fallback;
}

// --- generic helpers ---------------------------------------------------------

void register_generic(HelperRegistry& registry, const kern::CostModel& cost) {
  registry.register_helper(
      kHelperMapLookup, "bpf_map_lookup_elem",
      [cost](HelperContext& ctx, std::uint64_t r1, std::uint64_t r2,
             std::uint64_t, std::uint64_t, std::uint64_t) -> std::uint64_t {
        Map* map = ctx.map(static_cast<std::uint32_t>(r1));
        if (!map) return 0;
        std::uint8_t* key = ctx.mem(r2, map->key_size());
        if (!key) return 0;
        const kern::CostModel& c = cost_of(ctx, cost);
        ctx.charge(map->is_array_like()
                       ? c.bpf_map_array
                       : (map->type() == MapType::kLpmTrie ? c.bpf_map_lpm
                                                           : c.bpf_map_hash));
        // On a per-CPU map this yields the running CPU's slot, so concurrent
        // workers each write private bytes (this_cpu_ptr semantics).
        std::uint8_t* value = map->lookup(key, ctx.cpu());
        if (!value) return 0;
        return ctx.make_map_value_ptr(value, map->value_size());
      });

  registry.register_helper(
      kHelperMapUpdate, "bpf_map_update_elem",
      [cost](HelperContext& ctx, std::uint64_t r1, std::uint64_t r2,
             std::uint64_t r3, std::uint64_t, std::uint64_t) -> std::uint64_t {
        Map* map = ctx.map(static_cast<std::uint32_t>(r1));
        if (!map) return static_cast<std::uint64_t>(-1);
        std::uint8_t* key = ctx.mem(r2, map->key_size());
        std::uint8_t* value = ctx.mem(r3, map->value_size());
        if (!key || !value) return static_cast<std::uint64_t>(-1);
        const kern::CostModel& c = cost_of(ctx, cost);
        ctx.charge(map->is_array_like() ? c.bpf_map_array : c.bpf_map_hash);
        // Program-side per-CPU update touches only this CPU's slot (and, for
        // per-CPU hashes, fails on a missing key rather than inserting).
        return map->update_cpu(key, value, ctx.cpu()).ok()
                   ? 0
                   : static_cast<std::uint64_t>(-1);
      });

  registry.register_helper(
      kHelperMapDelete, "bpf_map_delete_elem",
      [cost](HelperContext& ctx, std::uint64_t r1, std::uint64_t r2,
             std::uint64_t, std::uint64_t, std::uint64_t) -> std::uint64_t {
        Map* map = ctx.map(static_cast<std::uint32_t>(r1));
        if (!map) return static_cast<std::uint64_t>(-1);
        std::uint8_t* key = ctx.mem(r2, map->key_size());
        if (!key) return static_cast<std::uint64_t>(-1);
        const kern::CostModel& c = cost_of(ctx, cost);
        ctx.charge(map->is_array_like() ? c.bpf_map_array : c.bpf_map_hash);
        return map->erase(key) ? 0 : static_cast<std::uint64_t>(-1);
      });

  // bpf_tail_call is intercepted by the interpreter itself; the registration
  // only makes it visible to the verifier's capability check.
  registry.register_helper(
      kHelperTailCall, "bpf_tail_call",
      [](HelperContext&, std::uint64_t, std::uint64_t, std::uint64_t,
         std::uint64_t, std::uint64_t) -> std::uint64_t {
        return static_cast<std::uint64_t>(-1);
      });

  registry.register_helper(
      kHelperKtimeGetNs, "bpf_ktime_get_ns",
      [](HelperContext& ctx, std::uint64_t, std::uint64_t, std::uint64_t,
         std::uint64_t, std::uint64_t) -> std::uint64_t {
        return ctx.kernel() ? ctx.kernel()->now_ns() : 0;
      });

  registry.register_helper(
      kHelperGetSmpProcessorId, "bpf_get_smp_processor_id",
      [](HelperContext& ctx, std::uint64_t, std::uint64_t, std::uint64_t,
         std::uint64_t, std::uint64_t) -> std::uint64_t {
        return ctx.cpu();
      });

  registry.register_helper(
      kHelperRedirect, "bpf_redirect",
      [cost](HelperContext& ctx, std::uint64_t r1, std::uint64_t,
             std::uint64_t, std::uint64_t, std::uint64_t) -> std::uint64_t {
        ctx.charge(cost_of(ctx, cost).bpf_redirect);
        ctx.set_redirect(static_cast<int>(r1));
        return kActRedirect;
      });

  registry.register_helper(
      kHelperRedirectMap, "bpf_redirect_map",
      [cost](HelperContext& ctx, std::uint64_t r1, std::uint64_t r2,
             std::uint64_t, std::uint64_t, std::uint64_t) -> std::uint64_t {
        Map* map = ctx.map(static_cast<std::uint32_t>(r1));
        if (!map || (map->type() != MapType::kDevMap &&
                     map->type() != MapType::kXskMap)) {
          return kActAborted;
        }
        std::uint32_t key = static_cast<std::uint32_t>(r2);
        std::uint8_t* value =
            map->lookup(reinterpret_cast<const std::uint8_t*>(&key));
        if (!value) return kActAborted;
        ctx.charge(cost_of(ctx, cost).bpf_redirect);
        if (map->type() == MapType::kXskMap) {
          // AF_XDP: the value is an XSK socket registry slot.
          ctx.set_redirect_xsk(static_cast<int>(load_u32(value)));
        } else {
          ctx.set_redirect(static_cast<int>(load_u32(value)));
        }
        return kActRedirect;
      });

  registry.register_helper(
      kHelperCsumDiff, "bpf_csum_diff",
      [](HelperContext& ctx, std::uint64_t r1, std::uint64_t r2,
         std::uint64_t r3, std::uint64_t r4, std::uint64_t r5) -> std::uint64_t {
        // csum_diff(from, from_size, to, to_size, seed)
        std::uint32_t seed = static_cast<std::uint32_t>(r5);
        if (r2 > 0) {
          const std::uint8_t* from = ctx.mem(r1, r2);
          if (!from) return static_cast<std::uint64_t>(-1);
          // subtracting: add one's complement
          std::uint32_t sum = net::checksum_fold(from, r2);
          seed += static_cast<std::uint16_t>(~sum);
        }
        if (r4 > 0) {
          const std::uint8_t* to = ctx.mem(r3, r4);
          if (!to) return static_cast<std::uint64_t>(-1);
          seed = net::checksum_fold(to, r4, seed);
        }
        while (seed >> 16) seed = (seed & 0xffff) + (seed >> 16);
        return seed;
      });
}

// --- bpf_fib_lookup -----------------------------------------------------------

void register_fib(HelperRegistry& registry, const kern::CostModel& cost) {
  registry.register_helper(
      kHelperFibLookup, "bpf_fib_lookup",
      [cost](HelperContext& ctx, std::uint64_t, std::uint64_t r2,
             std::uint64_t, std::uint64_t, std::uint64_t) -> std::uint64_t {
        kern::Kernel* kernel = ctx.kernel();
        if (!kernel) return kFibLkupNotFwded;
        std::uint8_t* p = ctx.mem(r2, kFibParamSize);
        if (!p) return kFibLkupNotFwded;
        ctx.charge(cost_of(ctx, cost).bpf_fib_lookup_helper);

        if (auto* rec = ctx.recorder()) {
          // The lookup outcome depends on the FIB, the neighbour table and
          // device state (oif up, MAC, MTU).
          rec->add_dep(engine::kDepFib | engine::kDepNeigh |
                       engine::kDepDevice);
        }
        net::Ipv4Addr dst(load_u32(p + kFibParamDst));
        auto hit = kernel->fib().lookup(dst);
        if (kernel->metrics().enabled()) {
          ctx.note_fib_lookup(hit ? hit->depth : 0);
        }
        if (!hit) return kFibLkupNotFwded;
        const kern::NetDevice* out = kernel->dev(hit->route.oif);
        if (!out || !out->is_up()) return kFibLkupNotFwded;

        const kern::NeighEntry* neigh = kernel->neigh().lookup(hit->next_hop);
        if (!neigh || neigh->state == kern::NeighState::kIncomplete) {
          return kFibLkupNoNeigh;  // punt: slow path performs ARP
        }
        store_u32(p + kFibParamOutIfindex,
                  static_cast<std::uint32_t>(hit->route.oif));
        std::memcpy(p + kFibParamSmac, out->mac().bytes().data(), 6);
        std::memcpy(p + kFibParamDmac, neigh->mac.bytes().data(), 6);
        store_u32(p + kFibParamMtu, out->mtu());
        return kFibLkupSuccess;
      });
}

// --- bpf_fdb_lookup (paper's new helper) ---------------------------------------

void register_fdb(HelperRegistry& registry, const kern::CostModel& cost) {
  registry.register_helper(
      kHelperFdbLookup, "bpf_fdb_lookup",
      [cost](HelperContext& ctx, std::uint64_t, std::uint64_t r2,
             std::uint64_t, std::uint64_t, std::uint64_t) -> std::uint64_t {
        kern::Kernel* kernel = ctx.kernel();
        if (!kernel) return kFdbLkupMiss;
        std::uint8_t* p = ctx.mem(r2, kFdbParamSize);
        if (!p) return kFdbLkupMiss;
        ctx.charge(cost_of(ctx, cost).bpf_fdb_lookup_helper);

        if (auto* rec = ctx.recorder()) {
          // Bridge membership/STP/VLAN config and the FDB itself.
          rec->add_dep(engine::kDepBridge | engine::kDepDevice);
        }
        int in_ifindex = static_cast<int>(load_u32(p + kFdbParamIfindex));
        std::uint16_t vlan = load_u16(p + kFdbParamVlan);
        kern::NetDevice* in_dev = kernel->dev(in_ifindex);
        if (!in_dev || in_dev->master() == 0) return kFdbLkupMiss;
        kern::Bridge* br = kernel->bridge(in_dev->master());
        if (!br) return kFdbLkupMiss;

        const kern::BridgePort* in_port = br->port(in_ifindex);
        if (!in_port || !in_port->can_forward()) return kFdbLkupBlocked;
        if (br->vlan_filtering()) {
          std::uint16_t effective = vlan ? vlan : in_port->pvid;
          if (!in_port->allows_vlan(effective)) return kFdbLkupVlanDenied;
          vlan = effective;
        } else {
          vlan = 0;
        }

        std::array<std::uint8_t, 6> mac_bytes;
        std::memcpy(mac_bytes.data(), p + kFdbParamSmac, 6);
        net::MacAddr smac(mac_bytes);
        const kern::FdbEntry* src_entry = br->fdb_lookup(smac, vlan);
        if (!src_entry || src_entry->port_ifindex != in_ifindex) {
          return kFdbLkupLearn;  // punt: slow path learns / migrates
        }
        // Refresh so the entry does not age out under fast-path traffic
        // (the helper "supports FDB entry aging", paper §V).
        br->fdb_learn(smac, vlan, in_ifindex, kernel->now_ns());
        if (auto* rec = ctx.recorder()) {
          // Replay the refresh on every cache hit so cached forwarding
          // keeps the FDB entry alive exactly like interpreted runs do.
          rec->add_fdb_refresh(engine::FdbReplayOp{
              in_dev->master(), smac, vlan, in_ifindex});
        }

        std::memcpy(mac_bytes.data(), p + kFdbParamDmac, 6);
        net::MacAddr dmac(mac_bytes);
        if (dmac.is_broadcast() || dmac.is_multicast()) return kFdbLkupMiss;
        const kern::FdbEntry* entry = br->fdb_lookup(dmac, vlan);
        if (!entry) return kFdbLkupMiss;
        if (entry->port_ifindex == in_ifindex) return kFdbLkupBlocked;
        const kern::BridgePort* out_port = br->port(entry->port_ifindex);
        if (!out_port || !out_port->can_forward()) return kFdbLkupBlocked;
        if (br->vlan_filtering() && !out_port->allows_vlan(vlan)) {
          return kFdbLkupVlanDenied;
        }
        store_u32(p + kFdbParamOutIfindex,
                  static_cast<std::uint32_t>(entry->port_ifindex));
        return kFdbLkupSuccess;
      });
}

// --- bpf_ipt_lookup (paper's new helper) ----------------------------------------

void register_ipt(HelperRegistry& registry, const kern::CostModel& cost) {
  registry.register_helper(
      kHelperIptLookup, "bpf_ipt_lookup",
      [cost](HelperContext& ctx, std::uint64_t, std::uint64_t r2,
             std::uint64_t, std::uint64_t, std::uint64_t) -> std::uint64_t {
        kern::Kernel* kernel = ctx.kernel();
        if (!kernel) return kIptVerdictPunt;
        std::uint8_t* p = ctx.mem(r2, kIptParamSize);
        if (!p) return kIptVerdictPunt;

        if (auto* rec = ctx.recorder()) {
          // Rule table, ipset membership and device names (-i/-o matches).
          rec->add_dep(engine::kDepNetfilter | engine::kDepIpSet |
                       engine::kDepDevice);
        }
        kern::NfPacketInfo info;
        info.src = net::Ipv4Addr(load_u32(p + kIptParamSrc));
        info.dst = net::Ipv4Addr(load_u32(p + kIptParamDst));
        info.proto = p[kIptParamProto];
        info.sport = load_u16(p + kIptParamSport);
        info.dport = load_u16(p + kIptParamDport);

        // Conntrack consultation mirrors the slow path's PREROUTING hook:
        // the helper creates/refreshes the entry in the SAME kernel table,
        // so `-m state` rules see identical state on either path.
        if (kernel->conntrack_enabled() &&
            (info.proto == net::kIpProtoTcp ||
             info.proto == net::kIpProtoUdp)) {
          net::FlowKey key{info.src, info.dst, info.proto, info.sport,
                           info.dport};
          auto ct = kernel->conntrack().lookup_or_create(key,
                                                         kernel->now_ns());
          ctx.charge(ct.created ? cost_of(ctx, cost).conntrack_new
                                : cost_of(ctx, cost).conntrack_lookup);
          info.ct_state =
              ct.entry->state == kern::CtState::kEstablished ? 1 : 0;
          if (auto* rec = ctx.recorder()) {
            // Cache hits re-perform this lookup_or_create (identical side
            // effects: refresh, promotion) and compare the state the rules
            // saw; a change falls back to a full run.
            rec->add_dep(engine::kDepConntrack);
            engine::CtReplayOp op;
            op.key = key;
            op.lookup_or_create = true;
            op.expect_found = true;
            op.expect_ct_state = info.ct_state;
            op.expect_reply_dir = ct.is_reply_direction;
            op.expect_rewrite = ct.entry->dnat_addr.has_value();
            if (op.expect_rewrite) {
              if (ct.is_reply_direction) {
                op.expect_rewrite_addr = ct.entry->original.dst_ip.value();
                op.expect_rewrite_port = ct.entry->original.dst_port;
              } else {
                op.expect_rewrite_addr = ct.entry->dnat_addr->value();
                op.expect_rewrite_port = ct.entry->dnat_port;
              }
            }
            rec->add_ct_replay(op);
          }
        }
        const kern::NetDevice* in_dev =
            kernel->dev(static_cast<int>(load_u32(p + kIptParamInIf)));
        const kern::NetDevice* out_dev =
            kernel->dev(static_cast<int>(load_u32(p + kIptParamOutIf)));
        if (in_dev) info.in_if = in_dev->name();
        if (out_dev) info.out_if = out_dev->name();

        kern::NfHook hook;
        switch (p[kIptParamHook]) {
          case kIptHookForward: hook = kern::NfHook::kForward; break;
          case kIptHookInput: hook = kern::NfHook::kInput; break;
          case kIptHookOutput: hook = kern::NfHook::kOutput; break;
          default: return kIptVerdictPunt;
        }

        auto result = kernel->netfilter().evaluate(hook, info,
                                                   kernel->ipsets());
        const kern::CostModel& c = cost_of(ctx, cost);
        // Same ABI, same verdict — only the charge reflects how the lookup
        // was answered: per-rule scan work, or tuple probes + residual
        // compares when the compiled classifier served it (DESIGN.md §17).
        ctx.charge(kern::nf_eval_cost(result, c.nf_hook_base,
                                      c.bpf_ipt_per_rule, c.bpf_ipt_clf_probe,
                                      c.ipset_lookup));
        return result.verdict == kern::NfVerdict::kDrop ? kIptVerdictDrop
                                                        : kIptVerdictAccept;
      });
}

// --- bpf_ct_lookup (ipvs extension) ---------------------------------------------

void register_ct(HelperRegistry& registry, const kern::CostModel& cost) {
  registry.register_helper(
      kHelperCtLookup, "bpf_ct_lookup",
      [cost](HelperContext& ctx, std::uint64_t, std::uint64_t r2,
             std::uint64_t, std::uint64_t, std::uint64_t) -> std::uint64_t {
        kern::Kernel* kernel = ctx.kernel();
        if (!kernel) return kCtLkupMiss;
        std::uint8_t* p = ctx.mem(r2, kCtParamSize);
        if (!p) return kCtLkupMiss;
        ctx.charge(cost_of(ctx, cost).conntrack_lookup);

        net::FlowKey key;
        key.src_ip = net::Ipv4Addr(load_u32(p + kCtParamSrc));
        key.dst_ip = net::Ipv4Addr(load_u32(p + kCtParamDst));
        key.proto = p[kCtParamProto];
        key.src_port = load_u16(p + kCtParamSport);
        key.dst_port = load_u16(p + kCtParamDport);

        auto result = kernel->conntrack().lookup(key, kernel->now_ns());
        if (auto* rec = ctx.recorder()) {
          rec->add_dep(engine::kDepConntrack);
          engine::CtReplayOp op;
          op.key = key;
          op.expect_found = result.entry != nullptr;
          if (result.entry) {
            op.expect_ct_state =
                result.entry->state == kern::CtState::kEstablished ? 1 : 0;
            op.expect_reply_dir = result.is_reply_direction;
            op.expect_rewrite = result.entry->dnat_addr.has_value();
            if (op.expect_rewrite) {
              if (result.is_reply_direction) {
                op.expect_rewrite_addr = result.entry->original.dst_ip.value();
                op.expect_rewrite_port = result.entry->original.dst_port;
              } else {
                op.expect_rewrite_addr = result.entry->dnat_addr->value();
                op.expect_rewrite_port = result.entry->dnat_port;
              }
            }
          }
          rec->add_ct_replay(op);
        }
        if (!result.entry) return kCtLkupMiss;  // slow path creates
        store_u32(p + kCtParamState,
                  result.entry->state == kern::CtState::kEstablished ? 1 : 0);
        std::uint8_t flags = result.is_reply_direction ? kCtFlagReply : 0;
        std::uint32_t rewrite_addr = 0;
        std::uint16_t rewrite_port = 0;
        if (result.entry->dnat_addr) {
          flags |= kCtFlagRewrite;
          if (result.is_reply_direction) {
            // Replies are un-NATed back to the virtual service address.
            rewrite_addr = result.entry->original.dst_ip.value();
            rewrite_port = result.entry->original.dst_port;
          } else {
            rewrite_addr = result.entry->dnat_addr->value();
            rewrite_port = result.entry->dnat_port;
          }
        }
        store_u32(p + kCtParamRewriteAddr, rewrite_addr);
        std::memcpy(p + kCtParamRewritePort, &rewrite_port, 2);
        p[kCtParamFlags] = flags;
        return kCtLkupFound;
      });
}

}  // namespace

void register_all_helpers(HelperRegistry& registry,
                          const kern::CostModel& cost) {
  register_generic(registry, cost);
  register_fib(registry, cost);
  register_fdb(registry, cost);
  register_ipt(registry, cost);
  register_ct(registry, cost);
}

void register_mainline_helpers(HelperRegistry& registry,
                               const kern::CostModel& cost) {
  register_generic(registry, cost);
  register_fib(registry, cost);
}

}  // namespace linuxfp::ebpf
