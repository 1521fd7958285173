#include "ebpf/vm.h"

#include <cstring>

#include "engine/flowcache.h"
#include "util/logging.h"

namespace linuxfp::ebpf {

void Program::decode() const {
  decoded.clear();
  decoded.reserve(insns.size());
  for (std::size_t pc = 0; pc < insns.size(); ++pc) {
    const Insn& in = insns[pc];
    DecodedInsn d;
    d.op = in.op;
    d.dst = in.dst;
    d.src = in.src;
    d.src_sel = in.use_imm ? static_cast<std::uint8_t>(kImmSlot) : in.src;
    d.use_imm = in.use_imm;
    d.size = in.size;
    d.off = in.off;
    d.imm = in.imm;
    d.jump_target = static_cast<std::size_t>(
        static_cast<std::int64_t>(pc) + 1 + in.off);
    decoded.push_back(d);
  }
}

namespace {

// Helpers whose behaviour is a pure function of the packet bytes, the
// generation-guarded kernel subsystems and the recorded replay ops. Anything
// else (map access, ktime, custom test helpers) makes a run uncacheable.
bool flowcache_replayable_helper(std::uint32_t id) {
  switch (id) {
    case kHelperGetSmpProcessorId:  // per-CPU cache: cpu is fixed
    case kHelperRedirect:           // target captured in the verdict
    case kHelperCsumDiff:           // pure over bytes read via mem()
    case kHelperFibLookup:          // generation-guarded (fib/neigh/dev)
    case kHelperFdbLookup:          // generation-guarded + FDB replay op
    case kHelperIptLookup:          // generation-guarded + ct replay op
    case kHelperCtLookup:           // ct replay op
      return true;
    default:
      return false;
  }
}

std::uint64_t load_sized(const std::uint8_t* p, MemSize size) {
  switch (size) {
    case MemSize::kU8: return *p;
    case MemSize::kU16: {
      std::uint16_t v;
      std::memcpy(&v, p, 2);
      return v;
    }
    case MemSize::kU32: {
      std::uint32_t v;
      std::memcpy(&v, p, 4);
      return v;
    }
    case MemSize::kU64: {
      std::uint64_t v;
      std::memcpy(&v, p, 8);
      return v;
    }
  }
  return 0;
}

void store_sized(std::uint8_t* p, MemSize size, std::uint64_t v) {
  switch (size) {
    case MemSize::kU8: {
      std::uint8_t b = static_cast<std::uint8_t>(v);
      std::memcpy(p, &b, 1);
      break;
    }
    case MemSize::kU16: {
      std::uint16_t h = static_cast<std::uint16_t>(v);
      std::memcpy(p, &h, 2);
      break;
    }
    case MemSize::kU32: {
      std::uint32_t w = static_cast<std::uint32_t>(v);
      std::memcpy(p, &w, 4);
      break;
    }
    case MemSize::kU64:
      std::memcpy(p, &v, 8);
      break;
  }
}

// Adds a displacement to a tagged pointer (regions propagate through
// pointer arithmetic, as in eBPF).
std::uint64_t ptr_add(std::uint64_t tagged, std::int64_t delta) {
  if (ptr_region(tagged) == Region::kNone) {
    return tagged + static_cast<std::uint64_t>(delta);
  }
  return make_ptr(ptr_region(tagged),
                  ptr_payload(tagged) + static_cast<std::uint64_t>(delta));
}

}  // namespace

const char* hook_type_name(HookType type) {
  switch (type) {
    case HookType::kXdp: return "xdp";
    case HookType::kTcIngress: return "tc_ingress";
    case HookType::kTcEgress: return "tc_egress";
  }
  return "?";
}

const char* helper_name(std::uint32_t id) {
  switch (id) {
    case kHelperMapLookup: return "map_lookup";
    case kHelperMapUpdate: return "map_update";
    case kHelperMapDelete: return "map_delete";
    case kHelperKtimeGetNs: return "ktime_get_ns";
    case kHelperGetSmpProcessorId: return "get_smp_processor_id";
    case kHelperTailCall: return "tail_call";
    case kHelperCsumDiff: return "csum_diff";
    case kHelperRedirect: return "redirect";
    case kHelperRedirectMap: return "redirect_map";
    case kHelperFibLookup: return "fib_lookup";
    case kHelperFdbLookup: return "fdb_lookup";
    case kHelperIptLookup: return "ipt_lookup";
    case kHelperCtLookup: return "ct_lookup";
  }
  return "unknown";
}

const char* action_name(std::uint64_t ret) {
  switch (ret) {
    case kActAborted: return "aborted";
    case kActDrop: return "drop";
    case kActPass: return "pass";
    case kActTx: return "tx";
    case kActRedirect: return "redirect";
  }
  return "invalid";
}

void Vm::set_metrics(util::MetricsRegistry* registry) {
  metrics_ = registry;
  helper_counters_.clear();
  if (!registry) {
    map_hits_ = map_misses_ = tail_call_counter_ = nullptr;
    return;
  }
  map_hits_ = registry->counter("ebpf.map.hits");
  map_misses_ = registry->counter("ebpf.map.misses");
  tail_call_counter_ = registry->counter("ebpf.tail_calls");
  // Resolve every registered helper's counter now: counter creation mutates
  // the registry and is only safe on the control plane, while run() may
  // execute on an engine worker thread.
  for (std::uint32_t id : helpers_.ids()) helper_counter(id);
}

util::Counter* Vm::helper_counter(std::uint32_t helper_id) {
  if (helper_counters_.size() <= helper_id) {
    helper_counters_.resize(helper_id + 1, nullptr);
  }
  util::Counter*& slot = helper_counters_[helper_id];
  if (!slot) {
    slot = metrics_->counter(std::string("ebpf.helper.") +
                             helper_name(helper_id) + ".calls");
  }
  return slot;
}

// --- HelperRegistry / MapSet --------------------------------------------------

void HelperRegistry::register_helper(std::uint32_t id, std::string name,
                                     HelperFn fn) {
  helpers_[id] = Helper{id, std::move(name), std::move(fn)};
}

const Helper* HelperRegistry::find(std::uint32_t id) const {
  auto it = helpers_.find(id);
  return it == helpers_.end() ? nullptr : &it->second;
}

std::vector<std::uint32_t> HelperRegistry::ids() const {
  std::vector<std::uint32_t> out;
  for (const auto& [id, h] : helpers_) out.push_back(id);
  return out;
}

std::uint32_t MapSet::create(std::string name, MapType type,
                             std::uint32_t key_size, std::uint32_t value_size,
                             std::uint32_t max_entries) {
  maps_.push_back(
      std::make_unique<Map>(std::move(name), type, key_size, value_size,
                            max_entries));
  return static_cast<std::uint32_t>(maps_.size() - 1);
}

Map* MapSet::get(std::uint32_t id) {
  return id < maps_.size() ? maps_[id].get() : nullptr;
}

const Map* MapSet::get(std::uint32_t id) const {
  return id < maps_.size() ? maps_[id].get() : nullptr;
}

void MapSet::destroy(std::uint32_t id) {
  if (id < maps_.size()) maps_[id].reset();
}

Map* MapSet::by_name(const std::string& name) {
  for (auto& m : maps_) {
    if (m && m->name() == name) return m.get();
  }
  return nullptr;
}

std::size_t MapSet::count() const {
  std::size_t n = 0;
  for (const auto& m : maps_) n += m != nullptr;
  return n;
}

// --- HelperContext ------------------------------------------------------------

util::Result<std::uint8_t*> HelperContext::mem(std::uint64_t tagged,
                                               std::size_t len) {
  auto r = vm_.translate(tagged, len);
  // Helpers receive an untyped span; conservatively treat packet-region
  // accesses as both read and written for the flow-cache diff.
  if (r.ok() && vm_.state_->recorder &&
      ptr_region(tagged) == Region::kPacket) {
    vm_.state_->recorder->note_packet_read(ptr_payload(tagged), len);
    vm_.state_->recorder->note_packet_write(ptr_payload(tagged), len);
  }
  return r;
}

engine::FlowCacheRecorder* HelperContext::recorder() {
  return vm_.state_->recorder;
}

void HelperContext::charge(std::uint64_t cycles) {
  vm_.state_->extra_cycles += cycles;
}

void HelperContext::set_redirect(int ifindex) {
  vm_.state_->redirect_ifindex = ifindex;
}

void HelperContext::set_redirect_xsk(int slot) {
  vm_.state_->redirect_xsk = slot;
}

Map* HelperContext::map(std::uint32_t map_id) { return vm_.maps_.get(map_id); }

unsigned HelperContext::cpu() const { return vm_.cpu(); }

std::uint64_t HelperContext::make_map_value_ptr(std::uint8_t* base,
                                                std::size_t size) {
  auto& spans = vm_.state_->spans;
  spans.push_back({base, size});
  return make_ptr(Region::kMapValue,
                  (static_cast<std::uint64_t>(spans.size() - 1) << 24));
}

// --- Vm -----------------------------------------------------------------------

util::Result<std::uint8_t*> Vm::translate(std::uint64_t tagged,
                                          std::size_t len) {
  LFP_CHECK(state_ != nullptr);
  Region region = ptr_region(tagged);
  std::uint64_t payload = ptr_payload(tagged);
  switch (region) {
    case Region::kStack:
      if (payload + len > kStackSize) {
        return util::Error::make("vm.oob", "stack access out of bounds");
      }
      return state_->stack + payload;
    case Region::kPacket:
      if (!state_->pkt || payload + len > state_->pkt->size()) {
        return util::Error::make("vm.oob", "packet access out of bounds");
      }
      return state_->pkt->data() + payload;
    case Region::kCtx:
      if (payload + len > kCtxSize) {
        return util::Error::make("vm.oob", "ctx access out of bounds");
      }
      return state_->ctx + payload;
    case Region::kMapValue: {
      std::uint64_t handle = payload >> 24;
      std::uint64_t off = payload & 0xffffff;
      if (handle >= state_->spans.size()) {
        return util::Error::make("vm.oob", "bad map value handle");
      }
      auto& span = state_->spans[handle];
      if (off + len > span.size) {
        return util::Error::make("vm.oob", "map value access out of bounds");
      }
      return span.base + off;
    }
    case Region::kNone:
      break;
  }
  return util::Error::make("vm.badptr", "dereference of scalar value");
}

VmResult Vm::run(const Program& entry_prog, net::Packet& pkt,
                 int ingress_ifindex, kern::Kernel* kernel,
                 engine::FlowCacheRecorder* recorder) {
  RunState state;
  state.pkt = &pkt;
  state.recorder = recorder;
  std::memset(state.stack, 0, sizeof(state.stack));
  std::memset(state.ctx, 0, sizeof(state.ctx));
  std::memset(state.regs, 0, sizeof(state.regs));

  // Populate the context struct.
  store_sized(state.ctx + kCtxData, MemSize::kU64, make_ptr(Region::kPacket, 0));
  store_sized(state.ctx + kCtxDataEnd, MemSize::kU64,
              make_ptr(Region::kPacket, pkt.size()));
  store_sized(state.ctx + kCtxIfindex, MemSize::kU64,
              static_cast<std::uint64_t>(ingress_ifindex));
  store_sized(state.ctx + kCtxRxQueue, MemSize::kU64, pkt.rx_queue);
  store_sized(state.ctx + kCtxVlanTci, MemSize::kU64, pkt.vlan_tci);

  state.regs[kR1] = make_ptr(Region::kCtx, 0);
  state.regs[kR10] = make_ptr(Region::kStack, kStackSize);

  state_ = &state;
  struct StateGuard {
    Vm& vm;
    ~StateGuard() { vm.state_ = nullptr; }
  } guard{*this};

  HelperContext hctx(*this, &pkt, kernel, ingress_ifindex);
  return interpret(entry_prog, hctx);
}

VmResult Vm::interpret(const Program& entry_prog, HelperContext& hctx) {
  RunState& state = *state_;
  engine::FlowCacheRecorder* recorder = state.recorder;
  VmResult result;

  const Program* prog = &entry_prog;
  // Hot loop runs over the pre-decoded instruction stream: operand selector
  // and jump targets were resolved at load time (Program::decode).
  const DecodedInsn* code = prog->code().data();
  std::size_t prog_size = prog->insns.size();
  std::size_t pc = 0;
  std::uint64_t executed = 0;
  constexpr std::uint64_t kMaxExecuted = 1u << 20;

  auto fail = [&](const std::string& why) {
    result.aborted = true;
    result.error = why;
    result.ret = kActAborted;
    result.insns_executed = executed;
    result.cycles = executed * cost_.bpf_insn + state.extra_cycles;
    return result;
  };

  while (true) {
    if (pc >= prog_size) {
      return fail("pc out of bounds (missing exit?)");
    }
    if (++executed > kMaxExecuted) {
      return fail("instruction budget exceeded");
    }
    const DecodedInsn& insn = code[pc];
    auto& regs = state.regs;
    // The imm slot mirrors this instruction's immediate, so the second
    // operand is one unconditional indexed load (no use_imm branch).
    regs[kImmSlot] = static_cast<std::uint64_t>(insn.imm);
    std::uint64_t src_val = regs[insn.src_sel];

    switch (insn.op) {
      case Op::kMov:
        regs[insn.dst] = src_val;
        ++pc;
        break;
      case Op::kAdd:
        regs[insn.dst] = ptr_region(regs[insn.dst]) != Region::kNone
                             ? ptr_add(regs[insn.dst],
                                       static_cast<std::int64_t>(src_val))
                             : regs[insn.dst] + src_val;
        ++pc;
        break;
      case Op::kSub:
        if (ptr_region(regs[insn.dst]) != Region::kNone &&
            !insn.use_imm && ptr_region(regs[insn.src]) ==
                ptr_region(regs[insn.dst])) {
          // pointer - pointer = scalar distance
          regs[insn.dst] =
              ptr_payload(regs[insn.dst]) - ptr_payload(regs[insn.src]);
        } else if (ptr_region(regs[insn.dst]) != Region::kNone) {
          regs[insn.dst] =
              ptr_add(regs[insn.dst], -static_cast<std::int64_t>(src_val));
        } else {
          regs[insn.dst] -= src_val;
        }
        ++pc;
        break;
      case Op::kMul: regs[insn.dst] *= src_val; ++pc; break;
      case Op::kDiv:
        if (src_val == 0) return fail("division by zero");
        regs[insn.dst] /= src_val;
        ++pc;
        break;
      case Op::kMod:
        if (src_val == 0) return fail("mod by zero");
        regs[insn.dst] %= src_val;
        ++pc;
        break;
      case Op::kAnd: regs[insn.dst] &= src_val; ++pc; break;
      case Op::kOr: regs[insn.dst] |= src_val; ++pc; break;
      case Op::kXor: regs[insn.dst] ^= src_val; ++pc; break;
      case Op::kLsh: regs[insn.dst] <<= (src_val & 63); ++pc; break;
      case Op::kRsh: regs[insn.dst] >>= (src_val & 63); ++pc; break;
      case Op::kArsh:
        regs[insn.dst] = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(regs[insn.dst]) >>
            (src_val & 63));
        ++pc;
        break;
      case Op::kNeg:
        regs[insn.dst] = static_cast<std::uint64_t>(
            -static_cast<std::int64_t>(regs[insn.dst]));
        ++pc;
        break;
      case Op::kBe16: {
        std::uint16_t v = static_cast<std::uint16_t>(regs[insn.dst]);
        regs[insn.dst] = static_cast<std::uint16_t>((v >> 8) | (v << 8));
        ++pc;
        break;
      }
      case Op::kBe32: {
        std::uint32_t v = static_cast<std::uint32_t>(regs[insn.dst]);
        regs[insn.dst] = ((v >> 24) & 0xff) | ((v >> 8) & 0xff00) |
                         ((v << 8) & 0xff0000) | (v << 24);
        ++pc;
        break;
      }
      case Op::kLdx: {
        std::uint64_t addr = ptr_add(regs[insn.src], insn.off);
        auto mem = translate(addr, static_cast<std::size_t>(insn.size));
        if (!mem.ok()) return fail(mem.error().message);
        if (recorder && ptr_region(addr) == Region::kPacket) {
          recorder->note_packet_read(ptr_payload(addr),
                                     static_cast<std::size_t>(insn.size));
        }
        regs[insn.dst] = load_sized(mem.value(), insn.size);
        ++pc;
        break;
      }
      case Op::kStx: {
        std::uint64_t addr = ptr_add(regs[insn.dst], insn.off);
        auto mem = translate(addr, static_cast<std::size_t>(insn.size));
        if (!mem.ok()) return fail(mem.error().message);
        if (recorder && ptr_region(addr) == Region::kPacket) {
          recorder->note_packet_write(ptr_payload(addr),
                                      static_cast<std::size_t>(insn.size));
        }
        store_sized(mem.value(), insn.size, regs[insn.src]);
        ++pc;
        break;
      }
      case Op::kSt: {
        std::uint64_t addr = ptr_add(regs[insn.dst], insn.off);
        auto mem = translate(addr, static_cast<std::size_t>(insn.size));
        if (!mem.ok()) return fail(mem.error().message);
        if (recorder && ptr_region(addr) == Region::kPacket) {
          recorder->note_packet_write(ptr_payload(addr),
                                      static_cast<std::size_t>(insn.size));
        }
        store_sized(mem.value(), insn.size,
                    static_cast<std::uint64_t>(insn.imm));
        ++pc;
        break;
      }
      case Op::kJa:
        pc = insn.jump_target;
        break;
      case Op::kJeq:
      case Op::kJne:
      case Op::kJgt:
      case Op::kJge:
      case Op::kJlt:
      case Op::kJle:
      case Op::kJset: {
        std::uint64_t a = regs[insn.dst];
        std::uint64_t b = src_val;
        // Pointer comparisons compare payloads within the same region (the
        // data_end bounds-check pattern).
        if (ptr_region(a) != Region::kNone && !insn.use_imm &&
            ptr_region(b) == ptr_region(a)) {
          a = ptr_payload(a);
          b = ptr_payload(b);
        }
        bool take = false;
        switch (insn.op) {
          case Op::kJeq: take = a == b; break;
          case Op::kJne: take = a != b; break;
          case Op::kJgt: take = a > b; break;
          case Op::kJge: take = a >= b; break;
          case Op::kJlt: take = a < b; break;
          case Op::kJle: take = a <= b; break;
          case Op::kJset: take = (a & b) != 0; break;
          default: break;
        }
        pc = take ? insn.jump_target : pc + 1;
        break;
      }
      case Op::kCall: {
        auto helper_id = static_cast<std::uint32_t>(insn.imm);
        if (helper_id == kHelperTailCall) {
          // bpf_tail_call(ctx=r1, prog_array=r2(map id), index=r3)
          if (result.tail_calls + 1 > kMaxTailCalls) {
            return fail("tail call limit exceeded");
          }
          Map* prog_array = maps_.get(static_cast<std::uint32_t>(regs[kR2]));
          if (!prog_array || prog_array->type() != MapType::kProgArray) {
            return fail("tail call on non prog-array map");
          }
          auto target =
              prog_array->prog_at(static_cast<std::uint32_t>(regs[kR3]));
          if (!target || !prog_table_ ||
              *target >= prog_table_->size()) {
            // Miss: like the kernel, fall through to the next instruction.
            regs[kR0] = static_cast<std::uint64_t>(-1);
            ++pc;
            break;
          }
          ++result.tail_calls;
          state.extra_cycles += cost_.bpf_tail_call;
          if (metrics_ && metrics_->enabled()) util::bump(tail_call_counter_);
          if (auto* t = util::active_packet_trace()) {
            t->add("ebpf", "tail_call", cost_.bpf_tail_call,
                   (*prog_table_)[*target].name);
          }
          prog = &(*prog_table_)[*target];
          code = prog->code().data();
          prog_size = prog->insns.size();
          pc = 0;
          // Tail call preserves only the context pointer convention: r1 is
          // re-established; caller-saved state is lost.
          regs[kR1] = make_ptr(Region::kCtx, 0);
          break;
        }
        const Helper* helper = helpers_.find(helper_id);
        if (!helper) return fail("unknown helper " + std::to_string(helper_id));
        if (recorder && !flowcache_replayable_helper(helper_id)) {
          // Map contents, time and custom helpers are outside the
          // generation-guarded replay model.
          recorder->mark_uncacheable("helper escapes replay model");
        }
        std::uint64_t cycles_before = state.extra_cycles;
        state.extra_cycles += cost_.bpf_helper_base;
        regs[kR0] = helper->fn(hctx, regs[kR1], regs[kR2], regs[kR3],
                               regs[kR4], regs[kR5]);
        if (metrics_ && metrics_->enabled()) {
          util::bump(helper_counter(helper_id));
          if (helper_id == kHelperMapLookup) {
            util::bump(regs[kR0] != 0 ? map_hits_ : map_misses_);
          }
        }
        if (auto* t = util::active_packet_trace()) {
          // Helper base cost plus whatever the helper charged itself.
          t->add("ebpf", helper_name(helper_id),
                 state.extra_cycles - cycles_before);
        }
        // r1-r5 are clobbered by calls.
        for (int r = kR1; r <= kR5; ++r) regs[r] = 0;
        ++pc;
        break;
      }
      case Op::kExit: {
        result.ret = regs[kR0];
        result.redirect_ifindex = state.redirect_ifindex;
        result.redirect_xsk = state.redirect_xsk;
        result.insns_executed = executed;
        result.cycles = executed * cost_.bpf_insn + state.extra_cycles;
        if (auto* t = util::active_packet_trace()) {
          t->add("ebpf", "exit", result.cycles, action_name(result.ret));
        }
        return result;
      }
    }
  }
}

}  // namespace linuxfp::ebpf
