// The instruction set of the simulated eBPF virtual machine.
//
// A simplified-but-faithful model of eBPF bytecode: eleven 64-bit registers
// (r0 return value / scratch, r1-r5 argument/caller-saved, r6-r9
// callee-saved, r10 read-only frame pointer), a 512-byte stack, ALU64 ops,
// sized memory accesses, conditional forward jumps, helper calls and tail
// calls. Pointers are tagged with a memory region so the VM can bounds-check
// at runtime and the verifier can type-check statically. A load or store the
// verifier proved to hit one region at one offset on every path is decoded
// to a handler that skips the tag (see DecodedOp).
#pragma once

#include <cstdint>
#include <string>

namespace linuxfp::ebpf {

inline constexpr int kNumRegs = 11;
inline constexpr int kR0 = 0;   // return value
inline constexpr int kR1 = 1;   // arg1 / ctx on entry
inline constexpr int kR2 = 2;
inline constexpr int kR3 = 3;
inline constexpr int kR4 = 4;
inline constexpr int kR5 = 5;
inline constexpr int kR6 = 6;   // callee-saved
inline constexpr int kR7 = 7;
inline constexpr int kR8 = 8;
inline constexpr int kR9 = 9;
inline constexpr int kR10 = 10;  // frame pointer (read-only)

inline constexpr std::size_t kStackSize = 512;
inline constexpr std::size_t kMaxInsns = 4096;
inline constexpr int kMaxTailCalls = 33;  // kernel's MAX_TAIL_CALL_CNT

// XDP/TC action codes returned in r0 (XDP numbering; TC programs reuse it
// via the attachment adapter).
inline constexpr std::uint64_t kActAborted = 0;
inline constexpr std::uint64_t kActDrop = 1;
inline constexpr std::uint64_t kActPass = 2;
inline constexpr std::uint64_t kActTx = 3;
inline constexpr std::uint64_t kActRedirect = 4;

enum class Op : std::uint8_t {
  // ALU64: dst = dst <op> (src register or immediate)
  kMov, kAdd, kSub, kMul, kDiv, kMod, kAnd, kOr, kXor, kLsh, kRsh, kArsh,
  kNeg,
  // Byte swaps (we expose be16/be32 conversions used for network fields).
  kBe16, kBe32,
  // Memory: kLdx dst = *(size*)(src + off); kStx *(size*)(dst + off) = src;
  // kSt *(size*)(dst + off) = imm.
  kLdx, kStx, kSt,
  // Jumps: target = pc + 1 + off. kJa unconditional; others compare dst
  // against src/imm.
  kJa, kJeq, kJne, kJgt, kJge, kJlt, kJle, kJset,
  // Helper call: imm = helper id.
  kCall,
  // Program exit: r0 is the action / return value.
  kExit,
};

enum class MemSize : std::uint8_t { kU8 = 1, kU16 = 2, kU32 = 4, kU64 = 8 };

struct Insn {
  Op op = Op::kExit;
  std::uint8_t dst = 0;
  std::uint8_t src = 0;
  bool use_imm = true;   // ALU/branch second operand: imm (true) or src reg
  std::int32_t off = 0;  // memory displacement or jump offset
  std::int64_t imm = 0;
  MemSize size = MemSize::kU64;
};

// The interpreter's handler for one decoded instruction: the Op, split so
// that no handler decides at run time what decode already knows.
//  - Every two-operand ALU op and every conditional jump has an immediate
//    form (`*Imm`: the second operand is DecodedInsn::imm) and a register
//    form (`*Reg`: regs[src]).
//  - Loads and stores are split by access size, so no handler switches on
//    the size. The checked forms (kLdx8 ... kSt64) decode the base
//    register's pointer tag and bounds-check the region it names. The
//    proven forms (kProvenLdx8 ... kProvenSt64) serve an access the verifier
//    pinned to one region and one offset on every path: they add
//    DecodedInsn::off to the run's base of DecodedInsn::region and keep only
//    the length compare against that region's size.
//  - A call to bpf_tail_call gets its own handler (the interpreter performs
//    it; it is not a registry helper).
// The interpreter's dispatch table has one entry per value, in this order.
enum class DecodedOp : std::uint8_t {
  kMovImm, kMovReg, kAddImm, kAddReg, kSubImm, kSubReg,
  kMulImm, kMulReg, kDivImm, kDivReg, kModImm, kModReg,
  kAndImm, kAndReg, kOrImm, kOrReg, kXorImm, kXorReg,
  kLshImm, kLshReg, kRshImm, kRshReg, kArshImm, kArshReg,
  kNeg, kBe16, kBe32,
  kLdx8, kLdx16, kLdx32, kLdx64,
  kStx8, kStx16, kStx32, kStx64,
  kSt8, kSt16, kSt32, kSt64,
  kProvenLdx8, kProvenLdx16, kProvenLdx32, kProvenLdx64,
  kProvenStx8, kProvenStx16, kProvenStx32, kProvenStx64,
  kProvenSt8, kProvenSt16, kProvenSt32, kProvenSt64,
  kJa,
  kJeqImm, kJeqReg, kJneImm, kJneReg, kJgtImm, kJgtReg,
  kJgeImm, kJgeReg, kJltImm, kJltReg, kJleImm, kJleReg,
  kJsetImm, kJsetReg,
  kCall, kTailCall,
  kExit,
};
inline constexpr std::size_t kNumDecodedOps =
    static_cast<std::size_t>(DecodedOp::kExit) + 1;

// Pointer tagging: region in bits [56,64), payload in the low 48 bits.
enum class Region : std::uint8_t {
  kNone = 0,      // scalar
  kStack = 1,     // payload = offset into the 512-byte frame
  kPacket = 2,    // payload = offset into packet data
  kCtx = 3,       // payload = offset into the context struct
  kMapValue = 4,  // payload = (handle << 24) | offset
};

// Load-time decoded form of an Insn: the handler is chosen (operand form,
// access size, proven or checked) and jump targets are absolute, so the hot
// loop does no per-instruction re-derivation.
struct DecodedInsn {
  DecodedOp op = DecodedOp::kExit;
  std::uint8_t dst = 0;
  std::uint8_t src = 0;
  Region region = Region::kNone;  // proven loads and stores: what off indexes
  std::int32_t off = 0;  // memory displacement; proven forms: region offset
  std::int64_t imm = 0;
  std::size_t jump_target = 0;  // absolute pc for kJa / taken kJ*
};
static_assert(sizeof(DecodedInsn) <= 32, "decoded stream stays dense");

inline std::uint64_t make_ptr(Region region, std::uint64_t payload) {
  return (static_cast<std::uint64_t>(region) << 56) | (payload & 0xffffffffffffull);
}
inline Region ptr_region(std::uint64_t v) {
  return static_cast<Region>(v >> 56);
}
inline std::uint64_t ptr_payload(std::uint64_t v) {
  return v & 0xffffffffffffull;
}

// Context struct layout (xdp_md / __sk_buff merged analogue). All fields are
// u64 slots; data/data_end hold tagged packet pointers.
inline constexpr std::int32_t kCtxData = 0;
inline constexpr std::int32_t kCtxDataEnd = 8;
inline constexpr std::int32_t kCtxIfindex = 16;
inline constexpr std::int32_t kCtxRxQueue = 24;
inline constexpr std::int32_t kCtxVlanTci = 32;
inline constexpr std::int32_t kCtxSize = 40;

const char* op_name(Op op);
std::string disassemble(const Insn& insn);

}  // namespace linuxfp::ebpf
