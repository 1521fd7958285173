#include "ebpf/vm.h"

#include <cstring>

#include "engine/flowcache.h"
#include "util/logging.h"

namespace linuxfp::ebpf {

namespace {

DecodedOp decoded_op(const Insn& in) {
  // Memory handlers come in kU8, kU16, kU32, kU64 order.
  auto sized = [&](DecodedOp u8) {
    int step = 0;
    switch (in.size) {
      case MemSize::kU8: step = 0; break;
      case MemSize::kU16: step = 1; break;
      case MemSize::kU32: step = 2; break;
      case MemSize::kU64: step = 3; break;
    }
    return static_cast<DecodedOp>(static_cast<int>(u8) + step);
  };
  // Two-operand handlers come in (immediate, register) pairs.
  auto form = [&](DecodedOp imm) {
    return static_cast<DecodedOp>(static_cast<int>(imm) + (in.use_imm ? 0 : 1));
  };
  switch (in.op) {
    case Op::kMov: return form(DecodedOp::kMovImm);
    case Op::kAdd: return form(DecodedOp::kAddImm);
    case Op::kSub: return form(DecodedOp::kSubImm);
    case Op::kMul: return form(DecodedOp::kMulImm);
    case Op::kDiv: return form(DecodedOp::kDivImm);
    case Op::kMod: return form(DecodedOp::kModImm);
    case Op::kAnd: return form(DecodedOp::kAndImm);
    case Op::kOr: return form(DecodedOp::kOrImm);
    case Op::kXor: return form(DecodedOp::kXorImm);
    case Op::kLsh: return form(DecodedOp::kLshImm);
    case Op::kRsh: return form(DecodedOp::kRshImm);
    case Op::kArsh: return form(DecodedOp::kArshImm);
    case Op::kNeg: return DecodedOp::kNeg;
    case Op::kBe16: return DecodedOp::kBe16;
    case Op::kBe32: return DecodedOp::kBe32;
    case Op::kLdx: return sized(DecodedOp::kLdx8);
    case Op::kStx: return sized(DecodedOp::kStx8);
    case Op::kSt: return sized(DecodedOp::kSt8);
    case Op::kJa: return DecodedOp::kJa;
    case Op::kJeq: return form(DecodedOp::kJeqImm);
    case Op::kJne: return form(DecodedOp::kJneImm);
    case Op::kJgt: return form(DecodedOp::kJgtImm);
    case Op::kJge: return form(DecodedOp::kJgeImm);
    case Op::kJlt: return form(DecodedOp::kJltImm);
    case Op::kJle: return form(DecodedOp::kJleImm);
    case Op::kJset: return form(DecodedOp::kJsetImm);
    case Op::kCall:
      return static_cast<std::uint32_t>(in.imm) == kHelperTailCall
                 ? DecodedOp::kTailCall
                 : DecodedOp::kCall;
    case Op::kExit: return DecodedOp::kExit;
  }
  return DecodedOp::kExit;
}

// The proven twin of a checked load or store handler: the twelve proven
// handlers follow the twelve checked ones in the same order.
static_assert(static_cast<int>(DecodedOp::kProvenLdx8) -
                      static_cast<int>(DecodedOp::kLdx8) ==
                  12 &&
              static_cast<int>(DecodedOp::kSt64) -
                      static_cast<int>(DecodedOp::kLdx8) ==
                  11);
DecodedOp proven_op(DecodedOp checked) {
  return static_cast<DecodedOp>(static_cast<int>(checked) + 12);
}

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

// The interpreter's per-instruction helpers below are forced inline: its
// function is large enough that GCC would otherwise call them out of line.

// Sized memory access; T is the access width. Loads zero-extend.
template <typename T>
[[gnu::always_inline]] inline std::uint64_t load_as(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
[[gnu::always_inline]] inline void store_as(std::uint8_t* p, std::uint64_t v) {
  const T narrow = static_cast<T>(v);
  std::memcpy(p, &narrow, sizeof(T));
}

// Adds a displacement to a tagged pointer (regions propagate through
// pointer arithmetic, as in eBPF).
[[gnu::always_inline]] inline std::uint64_t ptr_add(std::uint64_t tagged,
                                                    std::int64_t delta) {
  if (ptr_region(tagged) == Region::kNone) {
    return tagged + static_cast<std::uint64_t>(delta);
  }
  return make_ptr(ptr_region(tagged),
                  ptr_payload(tagged) + static_cast<std::uint64_t>(delta));
}

// A register-form conditional jump's operands. Pointer comparisons compare
// payloads within the same region (the data_end bounds-check pattern).
struct JumpOperands {
  std::uint64_t a;
  std::uint64_t b;
};
[[gnu::always_inline]] inline JumpOperands jump_operands(std::uint64_t a,
                                                         std::uint64_t b) {
  if (ptr_region(a) != Region::kNone && ptr_region(b) == ptr_region(a)) {
    return {ptr_payload(a), ptr_payload(b)};
  }
  return {a, b};
}

}  // namespace

void Program::decode(const ProgramProofs* proofs) const {
  LFP_CHECK_MSG(!proofs || proofs->access.size() == insns.size(),
                "proofs of another program");
  decoded.clear();
  decoded.reserve(insns.size());
  for (std::size_t pc = 0; pc < insns.size(); ++pc) {
    const Insn& in = insns[pc];
    DecodedInsn d;
    d.op = decoded_op(in);
    d.dst = in.dst;
    d.src = in.src;
    d.off = in.off;
    d.imm = in.imm;
    d.jump_target = static_cast<std::size_t>(
        static_cast<std::int64_t>(pc) + 1 + in.off);
    if (proofs && proofs->access[pc].region != Region::kNone) {
      const AccessProof& proof = proofs->access[pc];
      LFP_CHECK_MSG(in.op == Op::kLdx || in.op == Op::kStx || in.op == Op::kSt,
                    "access proof on a non-memory instruction");
      LFP_CHECK_MSG(proof.off >= 0 && (proof.region == Region::kStack ||
                                       proof.region == Region::kPacket ||
                                       proof.region == Region::kCtx),
                    "access proof outside the per-run regions");
      d.op = proven_op(d.op);
      d.region = proof.region;
      d.off = proof.off;
    }
    decoded.push_back(d);
  }
  stack_floor = proofs ? proofs->stack_floor : 0;
}

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

// --- HelperRegistry / MapSet --------------------------------------------------

void HelperRegistry::register_helper(std::uint32_t id, std::string name,
                                     HelperFn fn) {
  LFP_CHECK_MSG(id < kIdLimit, "helper id beyond HelperRegistry::kIdLimit");
  by_id_[id] = std::make_unique<Helper>(Helper{id, std::move(name),
                                               std::move(fn)});
}

std::vector<std::uint32_t> HelperRegistry::ids() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t id = 0; id < kIdLimit; ++id) {
    if (by_id_[id]) out.push_back(id);
  }
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

engine::FlowCacheRecorder* HelperContext::recorder() {
  return vm_.state_->recorder;
}

void HelperContext::charge(std::uint64_t cycles) {
  vm_.state_->extra_cycles += cycles;
}

void HelperContext::note_fib_lookup(std::uint64_t depth) {
  util::shard_add(vm_.counts_.fib_lookups);
  util::shard_add(vm_.counts_.fib_depth_total, depth);
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
  auto& spans = *vm_.state_->spans;
  spans.push_back({base, size});
  return make_ptr(Region::kMapValue,
                  (static_cast<std::uint64_t>(spans.size() - 1) << 24));
}

// --- Vm -----------------------------------------------------------------------

[[gnu::always_inline]] inline void Vm::zero_stack_from(RunState& state,
                                                      std::size_t lo) {
  if (lo < state.zeroed) {
    std::memset(state.stack + lo, 0, state.zeroed - lo);
    state.zeroed = lo;
  }
}

[[gnu::always_inline]] inline std::uint8_t* Vm::resolve(
    RunState& state, std::uint64_t tagged, std::size_t len) {
  const std::uint64_t payload = ptr_payload(tagged);
  switch (ptr_region(tagged)) {
    case Region::kStack:
      if (payload + len > kStackSize) return nullptr;
      // Below every access the verifier saw: only a helper reading through
      // an untyped argument, or a checked access the proofs did not cover.
      if (__builtin_expect(payload < state.zeroed, 0)) {
        zero_stack_from(state, payload);
      }
      return state.stack + payload;
    case Region::kPacket:
      return payload + len <= state.pkt->size() ? state.pkt->data() + payload
                                                : nullptr;
    case Region::kCtx:
      return payload + len <= kCtxSize ? state.ctx + payload : nullptr;
    case Region::kMapValue: {
      const std::uint64_t handle = payload >> 24;
      const std::uint64_t off = payload & 0xffffff;
      if (handle >= state.spans->size()) return nullptr;
      const Span& span = (*state.spans)[handle];
      return off + len <= span.size ? span.base + off : nullptr;
    }
    case Region::kNone:
      break;
  }
  return nullptr;
}

std::uint8_t* HelperContext::mem(std::uint64_t tagged, std::size_t len) {
  std::uint8_t* p = Vm::resolve(*vm_.state_, tagged, len);
  // Helpers receive an untyped span; conservatively treat packet-region
  // accesses as both read and written for the flow-cache diff.
  if (p && vm_.state_->recorder && ptr_region(tagged) == Region::kPacket) {
    vm_.state_->recorder->note_packet_read(ptr_payload(tagged), len);
    vm_.state_->recorder->note_packet_write(ptr_payload(tagged), len);
  }
  return p;
}

util::Result<std::uint8_t*> Vm::translate(std::uint64_t tagged,
                                          std::size_t len) {
  LFP_CHECK(state_ != nullptr);
  if (std::uint8_t* p = resolve(*state_, tagged, len)) return p;
  switch (ptr_region(tagged)) {
    case Region::kStack:
      return util::Error::make("vm.oob", "stack access out of bounds");
    case Region::kPacket:
      return util::Error::make("vm.oob", "packet access out of bounds");
    case Region::kCtx:
      return util::Error::make("vm.oob", "ctx access out of bounds");
    case Region::kMapValue:
      if ((ptr_payload(tagged) >> 24) >= state_->spans->size()) {
        return util::Error::make("vm.oob", "bad map value handle");
      }
      return util::Error::make("vm.oob", "map value access out of bounds");
    case Region::kNone:
      break;
  }
  return util::Error::make("vm.badptr", "dereference of scalar value");
}

VmResult Vm::fail(std::string_view why, std::uint64_t executed,
                  std::uint32_t tail_calls) const {
  VmResult result;
  result.aborted = true;
  result.error = why;
  result.ret = kActAborted;
  result.insns_executed = executed;
  result.tail_calls = tail_calls;
  result.cycles = executed * cost_.bpf_insn + state_->extra_cycles;
  return result;
}

VmResult Vm::fail_access(std::uint64_t tagged, std::size_t len,
                         std::uint64_t executed, std::uint32_t tail_calls) {
  return fail(translate(tagged, len).error().message, executed, tail_calls);
}

VmResult Vm::run(const Program& entry_prog, net::Packet& pkt,
                 int ingress_ifindex, kern::Kernel* kernel,
                 engine::FlowCacheRecorder* recorder) {
  RunState state;
  state.pkt = &pkt;
  state.recorder = recorder;
  state.stack = frame_;
  spans_.clear();
  state.spans = &spans_;
  entry_prog.code();  // a lazy decode sets the floor
  zero_stack_from(state, entry_prog.stack_floor);
  std::memset(state.ctx, 0, sizeof(state.ctx));
  std::memset(state.regs, 0, sizeof(state.regs));

  // Populate the context struct.
  store_as<std::uint64_t>(state.ctx + kCtxData, make_ptr(Region::kPacket, 0));
  store_as<std::uint64_t>(state.ctx + kCtxDataEnd,
                          make_ptr(Region::kPacket, pkt.size()));
  store_as<std::uint64_t>(state.ctx + kCtxIfindex,
                          static_cast<std::uint64_t>(ingress_ifindex));
  store_as<std::uint64_t>(state.ctx + kCtxRxQueue, pkt.rx_queue);
  store_as<std::uint64_t>(state.ctx + kCtxVlanTci, pkt.vlan_tci);

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

// Threaded dispatch: every handler ends in its own indirect jump through
// kDispatch (indexed by DecodedOp), so the host's branch predictor learns
// each handler's successors separately instead of sharing one jump site.
// The pc and budget checks run in every dispatch, and every runtime check of
// the handlers stays; a failed check leaves the loop through the cold fail()
// path. vm.cpp is built with -fno-crossjumping so that GCC does not merge the
// identical dispatch tails back into one jump.
#define LFP_VM_NEXT()                                                 \
  do {                                                                \
    if (__builtin_expect(pc >= prog_size, 0)) goto pc_out_of_bounds;  \
    if (__builtin_expect(++executed > kMaxExecuted, 0)) {             \
      goto budget_exceeded;                                           \
    }                                                                 \
    insn = &code[pc];                                                 \
    goto* kDispatch[static_cast<std::size_t>(insn->op)];              \
  } while (0)

// An ALU op in both operand forms: the statements run with `src` bound to
// the immediate (op_<name>_imm) or to regs[insn->src] (op_<name>_reg), and
// kReg telling which.
#define LFP_VM_ALU(name, ...)                                               \
  op_##name##_imm : {                                                       \
    [[maybe_unused]] constexpr bool kReg = false;                           \
    const std::uint64_t src = static_cast<std::uint64_t>(insn->imm);        \
    __VA_ARGS__;                                                            \
    ++pc;                                                                   \
    LFP_VM_NEXT();                                                          \
  }                                                                         \
  op_##name##_reg : {                                                       \
    [[maybe_unused]] constexpr bool kReg = true;                            \
    const std::uint64_t src = regs[insn->src];                              \
    __VA_ARGS__;                                                            \
    ++pc;                                                                   \
    LFP_VM_NEXT();                                                          \
  }

// A conditional jump in both operand forms, taken when `cond` holds over
// `a` (regs[dst]) and `b` (the immediate, or the JumpOperands of regs[dst]
// and regs[src]).
#define LFP_VM_JUMP(name, cond)                                             \
  op_##name##_imm : {                                                       \
    const std::uint64_t a = regs[insn->dst];                                \
    const std::uint64_t b = static_cast<std::uint64_t>(insn->imm);          \
    pc = (cond) ? insn->jump_target : pc + 1;                               \
    LFP_VM_NEXT();                                                          \
  }                                                                         \
  op_##name##_reg : {                                                       \
    const auto [a, b] = jump_operands(regs[insn->dst], regs[insn->src]);    \
    pc = (cond) ? insn->jump_target : pc + 1;                               \
    LFP_VM_NEXT();                                                          \
  }

// A checked load of sizeof(T) bytes: regs[dst] = *(T*)(regs[src] + off).
#define LFP_VM_LDX(T)                                                       \
  do {                                                                      \
    const std::uint64_t addr = ptr_add(regs[insn->src], insn->off);         \
    const std::uint8_t* p = resolve(state, addr, sizeof(T));                \
    if (__builtin_expect(p == nullptr, 0)) {                                \
      return fail_access(addr, sizeof(T), executed, tail_calls);            \
    }                                                                       \
    if (recorder && ptr_region(addr) == Region::kPacket) {                  \
      recorder->note_packet_read(ptr_payload(addr), sizeof(T));             \
    }                                                                       \
    regs[insn->dst] = load_as<T>(p);                                        \
    ++pc;                                                                   \
    LFP_VM_NEXT();                                                          \
  } while (0)

// A checked store of sizeof(T) bytes: *(T*)(regs[dst] + off) = value.
#define LFP_VM_STORE(T, value)                                              \
  do {                                                                      \
    const std::uint64_t addr = ptr_add(regs[insn->dst], insn->off);         \
    std::uint8_t* p = resolve(state, addr, sizeof(T));                      \
    if (__builtin_expect(p == nullptr, 0)) {                                \
      return fail_access(addr, sizeof(T), executed, tail_calls);            \
    }                                                                       \
    if (recorder && ptr_region(addr) == Region::kPacket) {                  \
      recorder->note_packet_write(ptr_payload(addr), sizeof(T));            \
    }                                                                       \
    store_as<T>(p, (value));                                                \
    ++pc;                                                                   \
    LFP_VM_NEXT();                                                          \
  } while (0)

// A proven access of sizeof(T) bytes at offset off of the run's region
// `region` (the verifier pinned both on every path): no tag to decode and
// no region to switch on. The length compare stays, so a verifier miss
// aborts instead of touching host memory. `access` loads or stores through
// p; `note` is the recorder's packet read or write hook.
#define LFP_VM_PROVEN(T, note, access)                                      \
  do {                                                                      \
    const auto r = static_cast<std::size_t>(insn->region);                  \
    const std::uint64_t off = static_cast<std::uint32_t>(insn->off);        \
    if (__builtin_expect(off + sizeof(T) > limit[r], 0)) {                  \
      return fail_access(make_ptr(insn->region, off), sizeof(T), executed,  \
                         tail_calls);                                       \
    }                                                                       \
    if (recorder && insn->region == Region::kPacket) {                      \
      recorder->note(off, sizeof(T));                                       \
    }                                                                       \
    std::uint8_t* const p = base[r] + off;                                  \
    access;                                                                 \
    ++pc;                                                                   \
    LFP_VM_NEXT();                                                          \
  } while (0)

VmResult Vm::interpret(const Program& entry_prog, HelperContext& hctx) {
  // One entry per DecodedOp, in enum order.
  static const void* const kDispatch[] = {
      &&op_mov_imm,  &&op_mov_reg,  &&op_add_imm,  &&op_add_reg,
      &&op_sub_imm,  &&op_sub_reg,  &&op_mul_imm,  &&op_mul_reg,
      &&op_div_imm,  &&op_div_reg,  &&op_mod_imm,  &&op_mod_reg,
      &&op_and_imm,  &&op_and_reg,  &&op_or_imm,   &&op_or_reg,
      &&op_xor_imm,  &&op_xor_reg,  &&op_lsh_imm,  &&op_lsh_reg,
      &&op_rsh_imm,  &&op_rsh_reg,  &&op_arsh_imm, &&op_arsh_reg,
      &&op_neg,      &&op_be16,     &&op_be32,
      &&op_ldx8,     &&op_ldx16,    &&op_ldx32,    &&op_ldx64,
      &&op_stx8,     &&op_stx16,    &&op_stx32,    &&op_stx64,
      &&op_st8,      &&op_st16,     &&op_st32,     &&op_st64,
      &&op_pldx8,    &&op_pldx16,   &&op_pldx32,   &&op_pldx64,
      &&op_pstx8,    &&op_pstx16,   &&op_pstx32,   &&op_pstx64,
      &&op_pst8,     &&op_pst16,    &&op_pst32,    &&op_pst64,
      &&op_ja,
      &&op_jeq_imm,  &&op_jeq_reg,  &&op_jne_imm,  &&op_jne_reg,
      &&op_jgt_imm,  &&op_jgt_reg,  &&op_jge_imm,  &&op_jge_reg,
      &&op_jlt_imm,  &&op_jlt_reg,  &&op_jle_imm,  &&op_jle_reg,
      &&op_jset_imm, &&op_jset_reg,
      &&op_call,     &&op_tail_call,
      &&op_exit,
  };
  static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) == kNumDecodedOps,
                "one dispatch entry per DecodedOp");
  constexpr std::uint64_t kMaxExecuted = 1u << 20;

  RunState& state = *state_;
  std::uint64_t* const regs = state.regs;
  engine::FlowCacheRecorder* const recorder = state.recorder;
  util::PacketTrace* const trace = util::active_packet_trace();
  // The proven handlers' region bases and sizes, indexed by Region. No
  // helper moves or resizes the packet, so they hold for the whole run.
  std::uint8_t* const base[] = {nullptr, state.stack, state.pkt->data(),
                                state.ctx};
  const std::uint64_t limit[] = {0, kStackSize, state.pkt->size(), kCtxSize};

  // Hot loop runs over the pre-decoded instruction stream: handler, operand
  // form and jump targets were resolved at load time (Program::decode).
  const DecodedInsn* code = entry_prog.code().data();
  std::size_t prog_size = entry_prog.insns.size();
  std::size_t pc = 0;
  std::uint64_t executed = 0;
  std::uint32_t tail_calls = 0;
  const DecodedInsn* insn = nullptr;

  LFP_VM_NEXT();

  LFP_VM_ALU(mov, regs[insn->dst] = src)
  LFP_VM_ALU(add, {
    std::uint64_t& dst = regs[insn->dst];
    dst = ptr_region(dst) != Region::kNone
              ? ptr_add(dst, static_cast<std::int64_t>(src))
              : dst + src;
  })
  LFP_VM_ALU(sub, {
    std::uint64_t& dst = regs[insn->dst];
    if (kReg && ptr_region(dst) != Region::kNone &&
        ptr_region(src) == ptr_region(dst)) {
      // pointer - pointer = scalar distance
      dst = ptr_payload(dst) - ptr_payload(src);
    } else if (ptr_region(dst) != Region::kNone) {
      dst = ptr_add(dst, -static_cast<std::int64_t>(src));
    } else {
      dst -= src;
    }
  })
  LFP_VM_ALU(mul, regs[insn->dst] *= src)
  LFP_VM_ALU(div, {
    if (src == 0) return fail("division by zero", executed, tail_calls);
    regs[insn->dst] /= src;
  })
  LFP_VM_ALU(mod, {
    if (src == 0) return fail("mod by zero", executed, tail_calls);
    regs[insn->dst] %= src;
  })
  LFP_VM_ALU(and, regs[insn->dst] &= src)
  LFP_VM_ALU(or, regs[insn->dst] |= src)
  LFP_VM_ALU(xor, regs[insn->dst] ^= src)
  LFP_VM_ALU(lsh, regs[insn->dst] <<= (src & 63))
  LFP_VM_ALU(rsh, regs[insn->dst] >>= (src & 63))
  LFP_VM_ALU(arsh, regs[insn->dst] = static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(regs[insn->dst]) >>
                       (src & 63)))
op_neg:
  regs[insn->dst] = static_cast<std::uint64_t>(
      -static_cast<std::int64_t>(regs[insn->dst]));
  ++pc;
  LFP_VM_NEXT();
op_be16: {
  const auto v = static_cast<std::uint16_t>(regs[insn->dst]);
  regs[insn->dst] = static_cast<std::uint16_t>((v >> 8) | (v << 8));
  ++pc;
  LFP_VM_NEXT();
}
op_be32: {
  const auto v = static_cast<std::uint32_t>(regs[insn->dst]);
  regs[insn->dst] = ((v >> 24) & 0xff) | ((v >> 8) & 0xff00) |
                    ((v << 8) & 0xff0000) | (v << 24);
  ++pc;
  LFP_VM_NEXT();
}
op_ldx8:
  LFP_VM_LDX(std::uint8_t);
op_ldx16:
  LFP_VM_LDX(std::uint16_t);
op_ldx32:
  LFP_VM_LDX(std::uint32_t);
op_ldx64:
  LFP_VM_LDX(std::uint64_t);
op_stx8:
  LFP_VM_STORE(std::uint8_t, regs[insn->src]);
op_stx16:
  LFP_VM_STORE(std::uint16_t, regs[insn->src]);
op_stx32:
  LFP_VM_STORE(std::uint32_t, regs[insn->src]);
op_stx64:
  LFP_VM_STORE(std::uint64_t, regs[insn->src]);
op_st8:
  LFP_VM_STORE(std::uint8_t, static_cast<std::uint64_t>(insn->imm));
op_st16:
  LFP_VM_STORE(std::uint16_t, static_cast<std::uint64_t>(insn->imm));
op_st32:
  LFP_VM_STORE(std::uint32_t, static_cast<std::uint64_t>(insn->imm));
op_st64:
  LFP_VM_STORE(std::uint64_t, static_cast<std::uint64_t>(insn->imm));
op_pldx8:
  LFP_VM_PROVEN(std::uint8_t, note_packet_read,
                regs[insn->dst] = load_as<std::uint8_t>(p));
op_pldx16:
  LFP_VM_PROVEN(std::uint16_t, note_packet_read,
                regs[insn->dst] = load_as<std::uint16_t>(p));
op_pldx32:
  LFP_VM_PROVEN(std::uint32_t, note_packet_read,
                regs[insn->dst] = load_as<std::uint32_t>(p));
op_pldx64:
  LFP_VM_PROVEN(std::uint64_t, note_packet_read,
                regs[insn->dst] = load_as<std::uint64_t>(p));
op_pstx8:
  LFP_VM_PROVEN(std::uint8_t, note_packet_write,
                store_as<std::uint8_t>(p, regs[insn->src]));
op_pstx16:
  LFP_VM_PROVEN(std::uint16_t, note_packet_write,
                store_as<std::uint16_t>(p, regs[insn->src]));
op_pstx32:
  LFP_VM_PROVEN(std::uint32_t, note_packet_write,
                store_as<std::uint32_t>(p, regs[insn->src]));
op_pstx64:
  LFP_VM_PROVEN(std::uint64_t, note_packet_write,
                store_as<std::uint64_t>(p, regs[insn->src]));
op_pst8:
  LFP_VM_PROVEN(std::uint8_t, note_packet_write,
                store_as<std::uint8_t>(
                    p, static_cast<std::uint64_t>(insn->imm)));
op_pst16:
  LFP_VM_PROVEN(std::uint16_t, note_packet_write,
                store_as<std::uint16_t>(
                    p, static_cast<std::uint64_t>(insn->imm)));
op_pst32:
  LFP_VM_PROVEN(std::uint32_t, note_packet_write,
                store_as<std::uint32_t>(
                    p, static_cast<std::uint64_t>(insn->imm)));
op_pst64:
  LFP_VM_PROVEN(std::uint64_t, note_packet_write,
                store_as<std::uint64_t>(
                    p, static_cast<std::uint64_t>(insn->imm)));
op_ja:
  pc = insn->jump_target;
  LFP_VM_NEXT();
  LFP_VM_JUMP(jeq, a == b)
  LFP_VM_JUMP(jne, a != b)
  LFP_VM_JUMP(jgt, a > b)
  LFP_VM_JUMP(jge, a >= b)
  LFP_VM_JUMP(jlt, a < b)
  LFP_VM_JUMP(jle, a <= b)
  LFP_VM_JUMP(jset, (a & b) != 0)
op_call: {
  const auto helper_id = static_cast<std::uint32_t>(insn->imm);
  const Helper* helper = helpers_.find(helper_id);
  if (!helper) {
    return fail("unknown helper " + std::to_string(helper_id), executed,
                tail_calls);
  }
  if (recorder && !flowcache_replayable_helper(helper_id)) {
    // Map contents, time and custom helpers are outside the
    // generation-guarded replay model.
    recorder->mark_uncacheable("helper escapes replay model");
  }
  const std::uint64_t cycles_before = state.extra_cycles;
  state.extra_cycles += cost_.bpf_helper_base;
  regs[kR0] = helper->fn(hctx, regs[kR1], regs[kR2], regs[kR3], regs[kR4],
                         regs[kR5]);
  util::shard_add(counts_.helper_calls[helper_id]);
  if (helper_id == kHelperMapLookup) {
    util::shard_add(regs[kR0] != 0 ? counts_.map_hits : counts_.map_misses);
  }
  if (trace) {
    // Helper base cost plus whatever the helper charged itself.
    trace->add("ebpf", helper_name(helper_id),
               state.extra_cycles - cycles_before);
  }
  // r1-r5 are clobbered by calls.
  for (int r = kR1; r <= kR5; ++r) regs[r] = 0;
  ++pc;
  LFP_VM_NEXT();
}
op_tail_call: {
  // bpf_tail_call(ctx=r1, prog_array=r2(map id), index=r3)
  if (tail_calls + 1 > kMaxTailCalls) {
    return fail("tail call limit exceeded", executed, tail_calls);
  }
  Map* prog_array = maps_.get(static_cast<std::uint32_t>(regs[kR2]));
  if (!prog_array || prog_array->type() != MapType::kProgArray) {
    return fail("tail call on non prog-array map", executed, tail_calls);
  }
  const auto target =
      prog_array->prog_at(static_cast<std::uint32_t>(regs[kR3]));
  if (!target || !prog_table_ || *target >= prog_table_->size()) {
    // Miss: like the kernel, fall through to the next instruction.
    regs[kR0] = static_cast<std::uint64_t>(-1);
    ++pc;
    LFP_VM_NEXT();
  }
  ++tail_calls;
  state.extra_cycles += cost_.bpf_tail_call;
  util::shard_add(counts_.tail_calls);
  const Program& next = (*prog_table_)[*target];
  if (trace) trace->add("ebpf", "tail_call", cost_.bpf_tail_call, next.name);
  code = next.code().data();
  prog_size = next.insns.size();
  pc = 0;
  // The next program's proven stack accesses reach down to its floor, which
  // this run may not have zeroed yet.
  zero_stack_from(state, next.stack_floor);
  // Tail call preserves only the context pointer convention: r1 is
  // re-established; caller-saved state is lost.
  regs[kR1] = make_ptr(Region::kCtx, 0);
  LFP_VM_NEXT();
}
op_exit: {
  VmResult result;
  result.ret = regs[kR0];
  result.redirect_ifindex = state.redirect_ifindex;
  result.redirect_xsk = state.redirect_xsk;
  result.insns_executed = executed;
  result.tail_calls = tail_calls;
  result.cycles = executed * cost_.bpf_insn + state.extra_cycles;
  if (trace) trace->add("ebpf", "exit", result.cycles, action_name(result.ret));
  return result;
}
pc_out_of_bounds:
  return fail("pc out of bounds (missing exit?)", executed, tail_calls);
budget_exceeded:
  return fail("instruction budget exceeded", executed, tail_calls);
}

#undef LFP_VM_PROVEN
#undef LFP_VM_STORE
#undef LFP_VM_LDX
#undef LFP_VM_JUMP
#undef LFP_VM_ALU
#undef LFP_VM_NEXT

}  // namespace linuxfp::ebpf
