#include "ebpf/verifier.h"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <vector>

#include "util/fault.h"
#include "util/logging.h"

namespace linuxfp::ebpf {

namespace {

using util::Error;
using util::Status;

enum class RT : std::uint8_t {
  kUninit,
  kScalar,
  kPtrStack,
  kPtrCtx,
  kPtrPacket,
  kPtrPacketEnd,
  kPtrMapValue,
  kPtrMapValueOrNull,
};

struct RegState {
  RT type = RT::kUninit;
  bool const_known = false;      // scalar constant tracking
  std::uint32_t mv_size = 0;     // map value size for map-value pointers
  std::int64_t off = 0;          // pointer offset
  std::int64_t const_val = 0;    // meaningful only while const_known

  static RegState scalar() {
    RegState r;
    r.type = RT::kScalar;
    return r;
  }
  static RegState konst(std::int64_t v) {
    RegState r;
    r.type = RT::kScalar;
    r.const_known = true;
    r.const_val = v;
    return r;
  }
  bool is_ptr() const {
    return type != RT::kUninit && type != RT::kScalar;
  }
  // Equal registers behave alike on every later step. A constant that is no
  // longer known is never read again, so it takes no part.
  bool operator==(const RegState& o) const {
    return type == o.type && off == o.off && mv_size == o.mv_size &&
           const_known == o.const_known &&
           (!const_known || const_val == o.const_val);
  }
};
static_assert(sizeof(RegState) == 24, "explored states stay compact");

struct AbsState {
  std::size_t pc = 0;
  std::array<RegState, kNumRegs> regs;
  // Bytes from packet start proven to be readable (data + verified <= end).
  std::int64_t pkt_verified = 0;

  // Exploring an equal state at the same pc again cannot find new
  // violations, nor pin a different access.
  bool same_as(const AbsState& o) const {
    return pkt_verified == o.pkt_verified && regs == o.regs;
  }
};
static_assert(sizeof(AbsState) == 280, "explored states stay compact");

Status reject(const std::string& code, std::size_t pc,
              const std::string& message) {
  return Error::make("verifier." + code,
                     "insn " + std::to_string(pc) + ": " + message);
}

// Marks an access whose visits disagreed (or that is never provable): region
// kNone with this offset is never pinned again. A never-visited access reads
// {kNone, 0}; a pinned offset is >= 0.
constexpr std::int32_t kUnpinned = std::numeric_limits<std::int32_t>::min();

// Explored-state list heads: a pc that is no prune point, and the end of a
// prune point's list.
constexpr std::uint32_t kNoPrunePoint =
    std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kEndOfList = kNoPrunePoint - 1;

class Verifier {
 public:
  Verifier(const Program& prog, const VerifyOptions& opts, VerifyStats* stats,
           ProgramProofs* proofs)
      : prog_(prog), opts_(opts), stats_(stats), proofs_(proofs) {}

  Status run() {
    LFP_CHECK_MSG(opts_.helpers != nullptr, "verifier needs a helper set");
    if (prog_.insns.empty()) {
      return Error::make("verifier.empty", "empty program");
    }
    if (prog_.insns.size() > kMaxInsns) {
      return Error::make("verifier.too_long",
                         "program exceeds " + std::to_string(kMaxInsns) +
                             " instructions");
    }
    // Structural pass: jump targets and back-edge rejection. Every jump
    // target and the fall-through of every conditional jump is a prune
    // point: the only pcs where explored states are kept and compared.
    const std::size_t n = prog_.insns.size();
    head_.assign(n, kNoPrunePoint);
    std::size_t prune_points = 0, cond_jumps = 0;
    auto mark = [&](std::size_t pc) {
      if (head_[pc] == kNoPrunePoint) {
        head_[pc] = kEndOfList;
        ++prune_points;
      }
    };
    for (std::size_t pc = 0; pc < n; ++pc) {
      const Insn& insn = prog_.insns[pc];
      if (insn.op >= Op::kJa && insn.op <= Op::kJset) {
        std::int64_t target =
            static_cast<std::int64_t>(pc) + 1 + insn.off;
        if (target < 0 || target >= static_cast<std::int64_t>(n)) {
          return reject("jump_oob", pc, "jump target out of range");
        }
        if (insn.off < 0) {
          return reject("back_edge", pc, "backward jump (loop) not allowed");
        }
        mark(static_cast<std::size_t>(target));
        if (insn.op != Op::kJa) {
          ++cond_jumps;
          if (pc + 1 < n) mark(pc + 1);
        }
      }
      if (insn.dst >= kNumRegs || insn.src >= kNumRegs) {
        return reject("bad_reg", pc, "register index out of range");
      }
    }
    // The last reachable instruction chain must exit; symbolic exec enforces
    // "pc past end" as an error anyway.
    if (proofs_) {
      proofs_->access.assign(prog_.insns.size(), AccessProof{});
      proofs_->stack_floor = kStackSize;
    }

    AbsState init;
    init.pc = 0;
    init.regs[kR1] = RegState{.type = RT::kPtrCtx};
    init.regs[kR10] = RegState{
        .type = RT::kPtrStack, .off = static_cast<std::int64_t>(kStackSize)};

    // Sized so that exploring allocates nothing more in the common case:
    // one kept state per prune point, and one pending branch per
    // conditional jump, the most the worklist can hold, since a path
    // meets each conditional jump at most once (jumps only go forward).
    states_.reserve(prune_points);
    std::vector<AbsState> worklist;
    worklist.reserve(cond_jumps + 1);
    worklist.push_back(init);
    std::size_t visited = 0;

    while (!worklist.empty()) {
      AbsState st = std::move(worklist.back());
      worklist.pop_back();
      if (stats_) ++stats_->paths_explored;

      while (true) {
        if (++visited > opts_.max_states) {
          return Error::make("verifier.state_explosion",
                             "too many states explored");
        }
        if (stats_) stats_->states_visited = visited;
        // Prune point: an equal state was already explored here, so this
        // path cannot uncover anything new.
        if (st.pc < n && head_[st.pc] != kNoPrunePoint && explored(st)) break;
        if (st.pc >= n) {
          return reject("fallthrough", st.pc - 1,
                        "control flow falls off program end");
        }
        const Insn& insn = prog_.insns[st.pc];
        Status s = step(st, insn, worklist);
        if (!s.ok()) return s;
        if (insn.op == Op::kExit) break;  // path done
        if (insn.op == Op::kJa) {
          st.pc = st.pc + 1 + static_cast<std::size_t>(insn.off);
          continue;
        }
        if (insn.op >= Op::kJeq && insn.op <= Op::kJset) {
          // step() pushed the taken branch; we continue on fall-through.
          st.pc += 1;
          continue;
        }
        st.pc += 1;
      }
    }
    return {};
  }

 private:
  // True when a state equal to `st` was explored at its pc (a prune point);
  // otherwise records `st` there and returns false.
  bool explored(const AbsState& st) {
    std::uint32_t& head = head_[st.pc];
    for (std::uint32_t i = head; i != kEndOfList; i = states_[i].next) {
      if (states_[i].state.same_as(st)) return true;
    }
    states_.push_back({st, head});
    head = static_cast<std::uint32_t>(states_.size() - 1);
    return false;
  }

  // Records that the access at `pc` reached `region` at offset `off` on the
  // path being explored. The first visit pins the pair; a visit that
  // disagrees unpins it for good. A pruned visit needs no call: its state
  // equals an explored one, so every access it would still reach was pinned
  // with the same base register type and offset, the only inputs of the
  // pair.
  void pin(std::size_t pc, Region region, std::int64_t off) {
    if (!proofs_) return;
    AccessProof& p = proofs_->access[pc];
    const bool first = p.region == Region::kNone && p.off == 0;
    if (first && off <= std::numeric_limits<std::int32_t>::max()) {
      p = {region, static_cast<std::int32_t>(off)};
    } else if (first || p.region != region || p.off != off) {
      p = {Region::kNone, kUnpinned};
    }
  }
  // The access at `pc` is never proven (a map value's span handle is known
  // only at run time).
  void unpin(std::size_t pc) {
    if (proofs_) proofs_->access[pc] = {Region::kNone, kUnpinned};
  }
  void note_stack(std::int64_t lo) {
    if (proofs_) {
      proofs_->stack_floor =
          std::min(proofs_->stack_floor, static_cast<std::size_t>(lo));
    }
  }

  Status check_mem_access(const AbsState& st, const RegState& base,
                          std::int32_t disp, MemSize size, std::size_t pc,
                          bool is_store) {
    std::int64_t width = static_cast<std::int64_t>(size);
    switch (base.type) {
      case RT::kPtrStack: {
        std::int64_t lo = base.off + disp;
        if (lo < 0 || lo + width > static_cast<std::int64_t>(kStackSize)) {
          return reject("stack_oob", pc, "stack access out of bounds");
        }
        pin(pc, Region::kStack, lo);
        note_stack(lo);
        return {};
      }
      case RT::kPtrCtx: {
        std::int64_t lo = base.off + disp;
        if (lo < 0 || lo + width > kCtxSize) {
          return reject("ctx_oob", pc, "ctx access out of bounds");
        }
        if (is_store && lo < kCtxIfindex) {
          // data/data_end are read-only, as in the kernel.
          return reject("ctx_ro", pc, "write to read-only ctx field");
        }
        pin(pc, Region::kCtx, lo);
        return {};
      }
      case RT::kPtrPacket: {
        std::int64_t lo = base.off + disp;
        if (lo < 0) return reject("pkt_oob", pc, "negative packet offset");
        if (lo + width > st.pkt_verified) {
          return reject("pkt_unverified", pc,
                        "packet access without bounds check (need " +
                            std::to_string(lo + width) + " verified, have " +
                            std::to_string(st.pkt_verified) + ")");
        }
        pin(pc, Region::kPacket, lo);
        return {};
      }
      case RT::kPtrMapValue: {
        std::int64_t lo = base.off + disp;
        if (lo < 0 || lo + width > static_cast<std::int64_t>(base.mv_size)) {
          return reject("mapvalue_oob", pc, "map value access out of bounds");
        }
        unpin(pc);
        return {};
      }
      case RT::kPtrMapValueOrNull:
        return reject("maybe_null", pc,
                      "map value dereference without null check");
      case RT::kPtrPacketEnd:
        return reject("pkt_end_deref", pc, "dereference of data_end");
      case RT::kScalar:
      case RT::kUninit:
        return reject("bad_ptr", pc, "memory access on non-pointer");
    }
    return {};
  }

  Status check_helper_args(const AbsState& st, std::uint32_t helper_id,
                           std::size_t pc) {
    const auto& r = st.regs;
    auto need_stack_buf = [&](int reg, std::int64_t min_size) -> Status {
      if (r[reg].type != RT::kPtrStack) {
        return reject("helper_arg", pc,
                      "r" + std::to_string(reg) + " must be a stack pointer");
      }
      if (r[reg].off < 0 ||
          r[reg].off + min_size > static_cast<std::int64_t>(kStackSize)) {
        return reject("helper_arg", pc, "stack buffer too small for helper");
      }
      note_stack(r[reg].off);
      return {};
    };
    switch (helper_id) {
      case kHelperMapLookup:
      case kHelperMapUpdate:
      case kHelperMapDelete: {
        if (!r[kR1].const_known) {
          return reject("helper_arg", pc, "map id must be a known constant");
        }
        if (opts_.maps &&
            !opts_.maps->get(static_cast<std::uint32_t>(r[kR1].const_val))) {
          return reject("helper_arg", pc, "unknown map id");
        }
        if (!r[kR2].is_ptr()) {
          return reject("helper_arg", pc, "key must be a pointer");
        }
        return {};
      }
      case kHelperTailCall: {
        if (r[kR1].type != RT::kPtrCtx) {
          return reject("helper_arg", pc, "tail call needs ctx in r1");
        }
        if (!r[kR2].const_known) {
          return reject("helper_arg", pc,
                        "prog array id must be a known constant");
        }
        return {};
      }
      case kHelperFibLookup:
        if (r[kR1].type != RT::kPtrCtx) {
          return reject("helper_arg", pc, "fib_lookup needs ctx in r1");
        }
        return need_stack_buf(kR2, 40);  // struct bpf_fib_lookup (modeled)
      case kHelperFdbLookup:
        if (r[kR1].type != RT::kPtrCtx) {
          return reject("helper_arg", pc, "fdb_lookup needs ctx in r1");
        }
        return need_stack_buf(kR2, 24);
      case kHelperIptLookup:
        if (r[kR1].type != RT::kPtrCtx) {
          return reject("helper_arg", pc, "ipt_lookup needs ctx in r1");
        }
        return need_stack_buf(kR2, 24);
      case kHelperCtLookup:
        if (r[kR1].type != RT::kPtrCtx) {
          return reject("helper_arg", pc, "ct_lookup needs ctx in r1");
        }
        return need_stack_buf(kR2, 32);
      case kHelperRedirect:
        if (r[kR1].type != RT::kScalar) {
          return reject("helper_arg", pc, "redirect ifindex must be scalar");
        }
        return {};
      default:
        return {};
    }
  }

  // Applies branch refinement to `st` for the given comparison outcome.
  static void refine(AbsState& st, const Insn& insn, bool taken) {
    RegState& dst = st.regs[insn.dst];
    // Null-check refinement on maybe-null map values: jeq/jne against 0.
    if (dst.type == RT::kPtrMapValueOrNull && insn.use_imm && insn.imm == 0) {
      bool is_null = (insn.op == Op::kJeq && taken) ||
                     (insn.op == Op::kJne && !taken);
      if (is_null) {
        dst = RegState::konst(0);
      } else {
        dst.type = RT::kPtrMapValue;
      }
      return;
    }
    if (insn.use_imm) return;
    RegState& src = st.regs[insn.src];
    // Packet bounds refinement: compare packet ptr against data_end.
    auto apply_pkt = [&](const RegState& pkt_reg, bool ptr_le_end) {
      if (ptr_le_end) {
        st.pkt_verified = std::max(st.pkt_verified, pkt_reg.off);
      }
    };
    if (dst.type == RT::kPtrPacket && src.type == RT::kPtrPacketEnd) {
      // forms: if (ptr > end) / (ptr >= end) / (ptr < end) / (ptr <= end)
      switch (insn.op) {
        case Op::kJgt: apply_pkt(dst, !taken); break;  // !taken: ptr <= end
        case Op::kJge: if (!taken) apply_pkt(dst, true); break;  // ptr < end
        case Op::kJlt: apply_pkt(dst, taken); break;   // taken: ptr < end
        case Op::kJle: apply_pkt(dst, taken); break;   // taken: ptr <= end
        default: break;
      }
    } else if (dst.type == RT::kPtrPacketEnd && src.type == RT::kPtrPacket) {
      switch (insn.op) {
        case Op::kJgt: apply_pkt(src, taken); break;   // end > ptr
        case Op::kJge: apply_pkt(src, taken); break;
        case Op::kJlt: apply_pkt(src, !taken); break;
        case Op::kJle: if (!taken) apply_pkt(src, true); break;
        default: break;
      }
    }
  }

  Status step(AbsState& st, const Insn& insn,
              std::vector<AbsState>& worklist) {
    auto& regs = st.regs;
    std::size_t pc = st.pc;

    auto require_init = [&](int reg) -> Status {
      if (regs[reg].type == RT::kUninit) {
        return reject("uninit", pc,
                      "read of uninitialized r" + std::to_string(reg));
      }
      return {};
    };

    switch (insn.op) {
      case Op::kMov: {
        if (insn.dst == kR10) return reject("fp_write", pc, "write to r10");
        if (insn.use_imm) {
          regs[insn.dst] = RegState::konst(insn.imm);
        } else {
          Status s = require_init(insn.src);
          if (!s.ok()) return s;
          regs[insn.dst] = regs[insn.src];
        }
        return {};
      }
      case Op::kAdd:
      case Op::kSub: {
        if (insn.dst == kR10) return reject("fp_write", pc, "write to r10");
        Status s = require_init(insn.dst);
        if (!s.ok()) return s;
        std::optional<std::int64_t> delta;
        if (insn.use_imm) {
          delta = insn.imm;
        } else {
          s = require_init(insn.src);
          if (!s.ok()) return s;
          if (regs[insn.src].type == RT::kScalar &&
              regs[insn.src].const_known) {
            delta = regs[insn.src].const_val;
          }
        }
        RegState& dst = regs[insn.dst];
        if (dst.is_ptr()) {
          // ptr - ptr (same region) = scalar
          if (!insn.use_imm && regs[insn.src].type == dst.type &&
              insn.op == Op::kSub) {
            regs[insn.dst] = RegState::scalar();
            return {};
          }
          if (!delta) {
            return reject("var_ptr", pc,
                          "pointer arithmetic with unknown scalar");
          }
          dst.off += insn.op == Op::kAdd ? *delta : -*delta;
          dst.const_known = false;
          return {};
        }
        // scalar arithmetic with constant folding
        if (dst.const_known && delta) {
          dst.const_val += insn.op == Op::kAdd ? *delta : -*delta;
        } else {
          dst.const_known = false;
        }
        return {};
      }
      case Op::kMul:
      case Op::kDiv:
      case Op::kMod:
      case Op::kAnd:
      case Op::kOr:
      case Op::kXor:
      case Op::kLsh:
      case Op::kRsh:
      case Op::kArsh:
      case Op::kNeg:
      case Op::kBe16:
      case Op::kBe32: {
        if (insn.dst == kR10) return reject("fp_write", pc, "write to r10");
        Status s = require_init(insn.dst);
        if (!s.ok()) return s;
        if (regs[insn.dst].is_ptr()) {
          return reject("ptr_alu", pc, "ALU op on pointer");
        }
        if (!insn.use_imm && insn.op != Op::kNeg && insn.op != Op::kBe16 &&
            insn.op != Op::kBe32) {
          s = require_init(insn.src);
          if (!s.ok()) return s;
          if (regs[insn.src].is_ptr()) {
            return reject("ptr_alu", pc, "ALU op with pointer operand");
          }
        }
        regs[insn.dst] = RegState::scalar();
        return {};
      }
      case Op::kLdx: {
        if (insn.dst == kR10) return reject("fp_write", pc, "write to r10");
        Status s = require_init(insn.src);
        if (!s.ok()) return s;
        s = check_mem_access(st, regs[insn.src], insn.off, insn.size, pc,
                             false);
        if (!s.ok()) return s;
        // Loading ctx->data / ctx->data_end yields typed pointers.
        if (regs[insn.src].type == RT::kPtrCtx && insn.size == MemSize::kU64) {
          std::int64_t field = regs[insn.src].off + insn.off;
          if (field == kCtxData) {
            regs[insn.dst] = RegState{.type = RT::kPtrPacket};
            return {};
          }
          if (field == kCtxDataEnd) {
            regs[insn.dst] = RegState{.type = RT::kPtrPacketEnd};
            return {};
          }
        }
        regs[insn.dst] = RegState::scalar();
        return {};
      }
      case Op::kStx: {
        Status s = require_init(insn.dst);
        if (!s.ok()) return s;
        s = require_init(insn.src);
        if (!s.ok()) return s;
        if (regs[insn.src].is_ptr() &&
            regs[insn.dst].type != RT::kPtrStack) {
          return reject("ptr_leak", pc,
                        "storing pointer outside the stack");
        }
        return check_mem_access(st, regs[insn.dst], insn.off, insn.size, pc,
                                true);
      }
      case Op::kSt: {
        Status s = require_init(insn.dst);
        if (!s.ok()) return s;
        return check_mem_access(st, regs[insn.dst], insn.off, insn.size, pc,
                                true);
      }
      case Op::kJa:
        return {};
      case Op::kJeq:
      case Op::kJne:
      case Op::kJgt:
      case Op::kJge:
      case Op::kJlt:
      case Op::kJle:
      case Op::kJset: {
        Status s = require_init(insn.dst);
        if (!s.ok()) return s;
        if (!insn.use_imm) {
          s = require_init(insn.src);
          if (!s.ok()) return s;
        }
        // Fork: push the taken branch, caller continues fall-through.
        AbsState taken = st;
        taken.pc = st.pc + 1 + static_cast<std::size_t>(insn.off);
        refine(taken, insn, /*taken=*/true);
        refine(st, insn, /*taken=*/false);
        worklist.push_back(std::move(taken));
        return {};
      }
      case Op::kCall: {
        auto helper_id = static_cast<std::uint32_t>(insn.imm);
        if (!opts_.helpers->supports(helper_id)) {
          return reject("helper_unknown", pc,
                        "helper " + std::to_string(helper_id) +
                            " not available at this hook (capability check)");
        }
        Status s = check_helper_args(st, helper_id, pc);
        if (!s.ok()) return s;
        // Return value typing.
        if (helper_id == kHelperMapLookup) {
          std::uint32_t mv_size = 0;
          if (opts_.maps && regs[kR1].const_known) {
            const Map* m =
                opts_.maps->get(static_cast<std::uint32_t>(regs[kR1].const_val));
            if (m) mv_size = m->value_size();
          }
          regs[kR0] =
              RegState{.type = RT::kPtrMapValueOrNull, .mv_size = mv_size};
        } else {
          regs[kR0] = RegState::scalar();
        }
        for (int r = kR1; r <= kR5; ++r) regs[r] = RegState{};
        return {};
      }
      case Op::kExit: {
        if (regs[kR0].type == RT::kUninit) {
          return reject("r0_uninit", pc, "exit with uninitialized r0");
        }
        return {};
      }
    }
    return reject("bad_op", pc, "unknown opcode");
  }

  // A state kept at a prune point, and the state kept there before it.
  struct Explored {
    AbsState state;
    std::uint32_t next;
  };

  const Program& prog_;
  const VerifyOptions& opts_;
  VerifyStats* stats_;
  ProgramProofs* proofs_;
  // head_[pc]: the last state kept at prune point pc (kEndOfList: none yet),
  // or kNoPrunePoint. Every prune point's states are one list in states_.
  std::vector<std::uint32_t> head_;
  std::vector<Explored> states_;
};

}  // namespace

Status verify(const Program& prog, const VerifyOptions& options,
              VerifyStats* stats, ProgramProofs* proofs) {
  // Injected rejection: models a kernel verifier that refuses a program the
  // synthesizer believed to be valid (version skew, complexity limits).
  Status st = util::FaultInjector::global().check(util::kFaultVerifier);
  if (st.ok()) st = Verifier(prog, options, stats, proofs).run();
  if (!st.ok() && proofs) *proofs = ProgramProofs{};
  return st;
}

}  // namespace linuxfp::ebpf
