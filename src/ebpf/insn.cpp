#include "ebpf/insn.h"

#include <cstdio>

namespace linuxfp::ebpf {

const char* op_name(Op op) {
  switch (op) {
    case Op::kMov: return "mov";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kDiv: return "div";
    case Op::kMod: return "mod";
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kXor: return "xor";
    case Op::kLsh: return "lsh";
    case Op::kRsh: return "rsh";
    case Op::kArsh: return "arsh";
    case Op::kNeg: return "neg";
    case Op::kBe16: return "be16";
    case Op::kBe32: return "be32";
    case Op::kLdx: return "ldx";
    case Op::kStx: return "stx";
    case Op::kSt: return "st";
    case Op::kJa: return "ja";
    case Op::kJeq: return "jeq";
    case Op::kJne: return "jne";
    case Op::kJgt: return "jgt";
    case Op::kJge: return "jge";
    case Op::kJlt: return "jlt";
    case Op::kJle: return "jle";
    case Op::kJset: return "jset";
    case Op::kCall: return "call";
    case Op::kExit: return "exit";
  }
  return "?";
}

std::string disassemble(const Insn& insn) {
  char buf[96];
  switch (insn.op) {
    case Op::kLdx:
      std::snprintf(buf, sizeof(buf), "r%d = *(u%d*)(r%d %+d)", insn.dst,
                    static_cast<int>(insn.size) * 8, insn.src, insn.off);
      break;
    case Op::kStx:
      std::snprintf(buf, sizeof(buf), "*(u%d*)(r%d %+d) = r%d",
                    static_cast<int>(insn.size) * 8, insn.dst, insn.off,
                    insn.src);
      break;
    case Op::kSt:
      std::snprintf(buf, sizeof(buf), "*(u%d*)(r%d %+d) = %lld",
                    static_cast<int>(insn.size) * 8, insn.dst, insn.off,
                    static_cast<long long>(insn.imm));
      break;
    case Op::kCall:
      std::snprintf(buf, sizeof(buf), "call %lld",
                    static_cast<long long>(insn.imm));
      break;
    case Op::kExit:
      std::snprintf(buf, sizeof(buf), "exit");
      break;
    case Op::kJa:
      std::snprintf(buf, sizeof(buf), "ja %+d", insn.off);
      break;
    default:
      if (insn.op >= Op::kJeq) {
        if (insn.use_imm) {
          std::snprintf(buf, sizeof(buf), "%s r%d, %lld, %+d",
                        op_name(insn.op), insn.dst,
                        static_cast<long long>(insn.imm), insn.off);
        } else {
          std::snprintf(buf, sizeof(buf), "%s r%d, r%d, %+d",
                        op_name(insn.op), insn.dst, insn.src, insn.off);
        }
      } else if (insn.use_imm) {
        std::snprintf(buf, sizeof(buf), "%s r%d, %lld", op_name(insn.op),
                      insn.dst, static_cast<long long>(insn.imm));
      } else {
        std::snprintf(buf, sizeof(buf), "%s r%d, r%d", op_name(insn.op),
                      insn.dst, insn.src);
      }
  }
  return buf;
}

}  // namespace linuxfp::ebpf
