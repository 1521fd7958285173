#include "ebpf/verifier.h"

#include <gtest/gtest.h>

#include "ebpf/builder.h"
#include "ebpf/kernel_helpers.h"

namespace linuxfp::ebpf {
namespace {

class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest() {
    register_all_helpers(helpers_, cost_);
    opts_.helpers = &helpers_;
    opts_.maps = &maps_;
  }

  util::Status verify_prog(const Program& p) { return verify(p, opts_); }

  kern::CostModel cost_;
  HelperRegistry helpers_;
  MapSet maps_;
  VerifyOptions opts_;
};

TEST_F(VerifierTest, AcceptsMinimalProgram) {
  ProgramBuilder b("ok", HookType::kXdp);
  b.ret(kActPass);
  EXPECT_TRUE(verify_prog(b.build().value()).ok());
}

TEST_F(VerifierTest, RejectsEmptyProgram) {
  Program p;
  EXPECT_FALSE(verify_prog(p).ok());
}

TEST_F(VerifierTest, RejectsExitWithUninitializedR0) {
  Program p;
  p.insns.push_back({Op::kExit, 0, 0, true, 0, 0, MemSize::kU64});
  auto st = verify_prog(p);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "verifier.r0_uninit");
}

TEST_F(VerifierTest, RejectsUninitializedRegisterRead) {
  ProgramBuilder b("uninit", HookType::kXdp);
  b.mov_reg(kR0, kR5);  // r5 never written
  b.exit();
  auto st = verify_prog(b.build().value());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "verifier.uninit");
}

TEST_F(VerifierTest, RejectsPacketAccessWithoutBoundsCheck) {
  ProgramBuilder b("nobounds", HookType::kXdp);
  b.mov_reg(kR6, kR1);
  b.ldx(kR7, kR6, kCtxData, MemSize::kU64);
  b.ldx(kR0, kR7, 0, MemSize::kU16);  // no check against data_end
  b.exit();
  auto st = verify_prog(b.build().value());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "verifier.pkt_unverified");
}

TEST_F(VerifierTest, AcceptsPacketAccessAfterBoundsCheck) {
  ProgramBuilder b("bounds", HookType::kXdp);
  b.mov_reg(kR6, kR1);
  b.ldx(kR7, kR6, kCtxData, MemSize::kU64);
  b.ldx(kR8, kR6, kCtxDataEnd, MemSize::kU64);
  b.mov_reg(kR2, kR7);
  b.add(kR2, 14);
  b.jgt_reg(kR2, kR8, "out");
  b.ldx(kR0, kR7, 12, MemSize::kU16);
  b.exit();
  b.label("out");
  b.ret(kActPass);
  auto st = verify_prog(b.build().value());
  EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
}

TEST_F(VerifierTest, BoundsCheckDoesNotLeakToUncheckedOffsets) {
  ProgramBuilder b("partial", HookType::kXdp);
  b.mov_reg(kR6, kR1);
  b.ldx(kR7, kR6, kCtxData, MemSize::kU64);
  b.ldx(kR8, kR6, kCtxDataEnd, MemSize::kU64);
  b.mov_reg(kR2, kR7);
  b.add(kR2, 14);
  b.jgt_reg(kR2, kR8, "out");
  b.ldx(kR0, kR7, 20, MemSize::kU32);  // beyond the 14 verified bytes
  b.exit();
  b.label("out");
  b.ret(kActPass);
  auto st = verify_prog(b.build().value());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "verifier.pkt_unverified");
}

TEST_F(VerifierTest, RejectsBackwardJump) {
  Program p;
  p.insns.push_back({Op::kMov, kR0, 0, true, 0, 0, MemSize::kU64});
  p.insns.push_back({Op::kJa, 0, 0, true, -2, 0, MemSize::kU64});
  p.insns.push_back({Op::kExit, 0, 0, true, 0, 0, MemSize::kU64});
  auto st = verify_prog(p);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "verifier.back_edge");
}

TEST_F(VerifierTest, RejectsJumpOutOfRange) {
  Program p;
  p.insns.push_back({Op::kJa, 0, 0, true, 100, 0, MemSize::kU64});
  auto st = verify_prog(p);
  EXPECT_EQ(st.error().code, "verifier.jump_oob");
}

TEST_F(VerifierTest, RejectsFallOffEnd) {
  Program p;
  p.insns.push_back({Op::kMov, kR0, 0, true, 0, 0, MemSize::kU64});
  auto st = verify_prog(p);
  EXPECT_EQ(st.error().code, "verifier.fallthrough");
}

TEST_F(VerifierTest, RejectsStackOutOfBounds) {
  ProgramBuilder b("stackoob", HookType::kXdp);
  b.mov_reg(kR2, kR10);
  b.add(kR2, -520);  // below the frame
  b.st(kR2, 0, 1, MemSize::kU64);
  b.ret(kActPass);
  auto st = verify_prog(b.build().value());
  EXPECT_EQ(st.error().code, "verifier.stack_oob");
}

TEST_F(VerifierTest, RejectsWriteToFramePointer) {
  ProgramBuilder b("fp", HookType::kXdp);
  b.mov(kR10, 0);
  b.ret(kActPass);
  EXPECT_EQ(verify_prog(b.build().value()).error().code,
            "verifier.fp_write");
}

TEST_F(VerifierTest, RejectsUnknownHelper) {
  ProgramBuilder b("badhelper", HookType::kXdp);
  b.mov(kR1, 0);
  b.call(9999);
  b.ret(kActPass);
  EXPECT_EQ(verify_prog(b.build().value()).error().code,
            "verifier.helper_unknown");
}

TEST_F(VerifierTest, CapabilityPruningRejectsFdbHelperOnMainline) {
  HelperRegistry mainline;
  register_mainline_helpers(mainline, cost_);
  VerifyOptions opts;
  opts.helpers = &mainline;
  ProgramBuilder b("fdb", HookType::kXdp);
  b.mov_reg(kR6, kR1);
  b.mov_reg(kR9, kR10);
  b.add(kR9, -64);
  b.mov_reg(kR1, kR6);
  b.mov_reg(kR2, kR9);
  b.call(kHelperFdbLookup);
  b.ret(kActPass);
  auto st = verify(b.build().value(), opts);
  EXPECT_EQ(st.error().code, "verifier.helper_unknown");
}

TEST_F(VerifierTest, RejectsMapValueDerefWithoutNullCheck) {
  std::uint32_t map_id = maps_.create("m", MapType::kHash, 4, 8, 4);
  ProgramBuilder b("nonull", HookType::kXdp);
  b.mov_reg(kR2, kR10);
  b.add(kR2, -8);
  b.st(kR2, 0, 1, MemSize::kU32);
  b.mov(kR1, map_id);
  b.call(kHelperMapLookup);
  b.ldx(kR0, kR0, 0, MemSize::kU64);  // no null check
  b.exit();
  EXPECT_EQ(verify_prog(b.build().value()).error().code,
            "verifier.maybe_null");
}

TEST_F(VerifierTest, AcceptsMapValueDerefAfterNullCheck) {
  std::uint32_t map_id = maps_.create("m", MapType::kHash, 4, 8, 4);
  ProgramBuilder b("null_ok", HookType::kXdp);
  b.mov_reg(kR2, kR10);
  b.add(kR2, -8);
  b.st(kR2, 0, 1, MemSize::kU32);
  b.mov(kR1, map_id);
  b.call(kHelperMapLookup);
  b.jeq(kR0, 0, "miss");
  b.ldx(kR0, kR0, 0, MemSize::kU64);
  b.exit();
  b.label("miss");
  b.ret(0);
  auto st = verify_prog(b.build().value());
  EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
}

TEST_F(VerifierTest, RejectsMapValueOutOfBounds) {
  std::uint32_t map_id = maps_.create("m", MapType::kHash, 4, 8, 4);
  ProgramBuilder b("mv_oob", HookType::kXdp);
  b.mov_reg(kR2, kR10);
  b.add(kR2, -8);
  b.st(kR2, 0, 1, MemSize::kU32);
  b.mov(kR1, map_id);
  b.call(kHelperMapLookup);
  b.jeq(kR0, 0, "miss");
  b.ldx(kR0, kR0, 4, MemSize::kU64);  // 4+8 > value_size 8
  b.exit();
  b.label("miss");
  b.ret(0);
  EXPECT_EQ(verify_prog(b.build().value()).error().code,
            "verifier.mapvalue_oob");
}

TEST_F(VerifierTest, RejectsPointerLeakToPacket) {
  ProgramBuilder b("leak", HookType::kXdp);
  b.mov_reg(kR6, kR1);
  b.ldx(kR7, kR6, kCtxData, MemSize::kU64);
  b.ldx(kR8, kR6, kCtxDataEnd, MemSize::kU64);
  b.mov_reg(kR2, kR7);
  b.add(kR2, 16);
  b.jgt_reg(kR2, kR8, "out");
  b.stx(kR7, 0, kR10, MemSize::kU64);  // write stack ptr into the packet
  b.label("out");
  b.ret(kActPass);
  EXPECT_EQ(verify_prog(b.build().value()).error().code,
            "verifier.ptr_leak");
}

TEST_F(VerifierTest, RejectsCtxStoreToReadOnlyFields) {
  ProgramBuilder b("ctxw", HookType::kXdp);
  b.st(kR1, kCtxData, 0, MemSize::kU64);
  b.ret(kActPass);
  EXPECT_EQ(verify_prog(b.build().value()).error().code, "verifier.ctx_ro");
}

TEST_F(VerifierTest, RejectsVariablePointerArithmetic) {
  ProgramBuilder b("varptr", HookType::kXdp);
  b.mov_reg(kR6, kR1);
  b.ldx(kR7, kR6, kCtxData, MemSize::kU64);
  b.ldx(kR3, kR6, kCtxIfindex, MemSize::kU64);  // unknown scalar
  b.add_reg(kR7, kR3);
  b.ret(kActPass);
  EXPECT_EQ(verify_prog(b.build().value()).error().code, "verifier.var_ptr");
}

TEST_F(VerifierTest, RejectsScalarDereference) {
  ProgramBuilder b("scalarptr", HookType::kXdp);
  b.mov(kR2, 1234);
  b.ldx(kR0, kR2, 0, MemSize::kU64);
  b.exit();
  EXPECT_EQ(verify_prog(b.build().value()).error().code, "verifier.bad_ptr");
}

TEST_F(VerifierTest, RejectsOverlongProgram) {
  Program p;
  for (std::size_t i = 0; i < kMaxInsns + 1; ++i) {
    p.insns.push_back({Op::kMov, kR0, 0, true, 0, 0, MemSize::kU64});
  }
  p.insns.push_back({Op::kExit, 0, 0, true, 0, 0, MemSize::kU64});
  EXPECT_EQ(verify_prog(p).error().code, "verifier.too_long");
}

TEST_F(VerifierTest, BothBranchesAreExplored) {
  // The taken branch is fine; the fall-through dereferences the packet
  // without a check — must still be rejected.
  ProgramBuilder b("paths", HookType::kXdp);
  b.mov_reg(kR6, kR1);
  b.ldx(kR7, kR6, kCtxData, MemSize::kU64);
  b.ldx(kR3, kR6, kCtxIfindex, MemSize::kU64);
  b.jeq(kR3, 7, "safe");
  b.ldx(kR0, kR7, 0, MemSize::kU8);  // unchecked!
  b.exit();
  b.label("safe");
  b.ret(kActPass);
  EXPECT_EQ(verify_prog(b.build().value()).error().code,
            "verifier.pkt_unverified");
}

TEST_F(VerifierTest, StatsReportExploration) {
  ProgramBuilder b("stats", HookType::kXdp);
  b.mov(kR3, 1);
  b.jeq(kR3, 1, "a");
  b.label("a");
  b.jeq(kR3, 2, "b");
  b.label("b");
  b.ret(kActPass);
  VerifyStats stats;
  ASSERT_TRUE(verify(b.build().value(), opts_, &stats).ok());
  EXPECT_GE(stats.paths_explored, 3u);
  EXPECT_GT(stats.states_visited, 0u);
}

// r2 is ctx->ifindex (an unknown scalar) on the taken arm and the constant -1
// on the fall-through, which is explored first. At the join the two states
// differ, so the unknown arm is explored too and its pointer arithmetic is
// rejected. A state hash that maps a known -1 and an unknown scalar to one
// value prunes that arm and accepts the program; run with ifindex 5, its
// proven store then writes stack byte 511 while the checked twin aborts
// with "stack access out of bounds".
TEST_F(VerifierTest, KnownMinusOneIsNotAnUnknownScalar) {
  ProgramBuilder b("minus_one", HookType::kXdp);
  b.ldx(kR2, kR1, kCtxIfindex, MemSize::kU64);
  b.jeq(kR2, 5, "join");
  b.mov(kR2, -1);
  b.label("join");
  b.mov_reg(kR3, kR10);
  b.add_reg(kR3, kR2);
  b.st(kR3, 0, 7, MemSize::kU8);
  b.ret(kActPass);
  auto st = verify_prog(b.build().value());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "verifier.var_ptr");
}

// 40 diamonds in a row. Both arms of each write one register, `r = k;
// r += r3` against `r = k + 1; r += r3` with r3 unknown, so they differ only
// in a constant that is no longer known, which no later step reads: the
// joined states are equal and exploration stays linear in the program. The
// diamonds rotate over seven registers, so a comparison that counted those
// stale constants would keep up to 2^7 distinct states at every join and run
// out of the 8-states-per-instruction budget.
TEST_F(VerifierTest, StaleConstantsDoNotSplitJoinedStates) {
  const int regs[] = {kR2, kR4, kR5, kR6, kR7, kR8, kR9};
  ProgramBuilder b("diamonds", HookType::kXdp);
  b.ldx(kR3, kR1, kCtxIfindex, MemSize::kU64);
  for (int i = 0; i < 40; ++i) {
    const int r = regs[i % 7];
    const std::string other = b.scoped("other");
    const std::string join = b.scoped("join");
    b.jeq(kR3, i, other);
    b.mov(r, 2 * i);
    b.add_reg(r, kR3);
    b.ja(join);
    b.label(other);
    b.mov(r, 2 * i + 1);
    b.add_reg(r, kR3);
    b.label(join);
    b.new_scope();
  }
  b.ret(kActPass);
  const Program p = b.build().value();
  VerifyOptions opts = opts_;
  opts.max_states = 8 * p.size();
  VerifyStats stats;
  auto st = verify(p, opts, &stats);
  ASSERT_TRUE(st.ok()) << st.error().code;
  EXPECT_EQ(stats.paths_explored, 41u);
  EXPECT_LT(stats.states_visited, 8 * p.size());
}

// --- proofs: what an accepted program exports for Program::decode ----------

// Index of the only instruction of `op` in `p`.
std::size_t pc_of(const Program& p, Op op) {
  std::size_t found = p.insns.size();
  for (std::size_t pc = 0; pc < p.insns.size(); ++pc) {
    if (p.insns[pc].op == op) {
      EXPECT_EQ(found, p.insns.size()) << "more than one " << op_name(op);
      found = pc;
    }
  }
  EXPECT_LT(found, p.insns.size());
  return found;
}

// A store reached on two paths whose base registers point at `a_off` and
// `b_off` below the frame pointer. r4 differs between the paths, so neither
// visit is pruned as a repeat of the other.
Program two_path_store(std::int64_t a_off, std::int64_t b_off) {
  ProgramBuilder b("two_paths", HookType::kXdp);
  b.ldx(kR3, kR1, kCtxIfindex, MemSize::kU64);
  b.mov_reg(kR2, kR10);
  b.jeq(kR3, 1, "b");
  b.add(kR2, -a_off);
  b.mov(kR4, 1);
  b.ja("store");
  b.label("b");
  b.add(kR2, -b_off);
  b.mov(kR4, 2);
  b.label("store");
  b.st(kR2, 0, 7, MemSize::kU64);
  b.ret(kActPass);
  return b.build().value();
}

TEST_F(VerifierTest, ProofPinsAnAccessOnlyWhenEveryPathAgrees) {
  for (bool agree : {true, false}) {
    SCOPED_TRACE(agree ? "equal offsets" : "different offsets");
    const Program p = two_path_store(16, agree ? 16 : 24);
    ProgramProofs proofs;
    VerifyStats stats;
    ASSERT_TRUE(verify(p, opts_, &stats, &proofs).ok());
    ASSERT_EQ(proofs.access.size(), p.insns.size());
    const std::size_t store = pc_of(p, Op::kSt);
    // The ctx load is on every path, once.
    EXPECT_EQ(proofs.access[0].region, Region::kCtx);
    EXPECT_EQ(proofs.access[0].off, kCtxIfindex);
    p.decode(&proofs);
    if (agree) {
      EXPECT_EQ(proofs.access[store].region, Region::kStack);
      EXPECT_EQ(proofs.access[store].off, 512 - 16);
      EXPECT_EQ(p.decoded[store].op, DecodedOp::kProvenSt64);
      EXPECT_EQ(p.decoded[store].off, 512 - 16);
      EXPECT_EQ(p.stack_floor, 512u - 16);
    } else {
      EXPECT_EQ(proofs.access[store].region, Region::kNone);
      EXPECT_EQ(p.decoded[store].op, DecodedOp::kSt64);
      EXPECT_EQ(p.decoded[store].off, 0);  // the displacement, unresolved
      EXPECT_EQ(p.stack_floor, 512u - 24);
    }
    // Non-memory instructions carry no proof.
    EXPECT_EQ(proofs.access[1].region, Region::kNone);
  }
}

TEST_F(VerifierTest, MapValueAccessIsNeverProven) {
  std::uint32_t map_id = maps_.create("m", MapType::kHash, 4, 8, 4);
  ProgramBuilder b("mapval", HookType::kXdp);
  b.mov_reg(kR2, kR10);
  b.add(kR2, -8);
  b.st(kR2, 0, 1, MemSize::kU32);
  b.mov(kR1, map_id);
  b.call(kHelperMapLookup);
  b.jeq(kR0, 0, "miss");
  b.ldx(kR0, kR0, 0, MemSize::kU64);
  b.exit();
  b.label("miss");
  b.ret(kActPass);
  const Program p = b.build().value();
  ProgramProofs proofs;
  ASSERT_TRUE(verify(p, opts_, nullptr, &proofs).ok());
  const std::size_t load = pc_of(p, Op::kLdx);
  EXPECT_EQ(proofs.access[load].region, Region::kNone);
  // The key store on the stack is proven.
  EXPECT_EQ(proofs.access[pc_of(p, Op::kSt)].region, Region::kStack);
  p.decode(&proofs);
  EXPECT_EQ(p.decoded[load].op, DecodedOp::kLdx64);
}

TEST_F(VerifierTest, StackFloorIsTheLowestStackAccess) {
  ProgramBuilder b("floor", HookType::kXdp);
  b.st(kR10, -8, 1, MemSize::kU64);       // 504
  b.ldx(kR3, kR10, -100, MemSize::kU8);   // 412
  b.mov_reg(kR2, kR10);
  b.add(kR2, -200);
  b.ldx(kR3, kR2, 16, MemSize::kU16);     // 312 + 16 = 328
  b.ldx(kR3, kR1, kCtxIfindex, MemSize::kU64);  // ctx: not the stack
  b.ret(kActPass);
  ProgramProofs proofs;
  ASSERT_TRUE(verify(b.build().value(), opts_, nullptr, &proofs).ok());
  EXPECT_EQ(proofs.stack_floor, 328u);

  // No stack access: nothing to zero.
  ProgramBuilder none("nostack", HookType::kXdp);
  none.ret(kActPass);
  ASSERT_TRUE(verify(none.build().value(), opts_, nullptr, &proofs).ok());
  EXPECT_EQ(proofs.stack_floor, kStackSize);

  // A typed helper buffer counts: bpf_fib_lookup writes 40 B at r2.
  ProgramBuilder fib("fib", HookType::kXdp);
  fib.mov_reg(kR2, kR10);
  fib.add(kR2, -64);
  fib.st(kR2, 0, 0, MemSize::kU64);  // 448
  fib.mov_reg(kR2, kR10);
  fib.add(kR2, -128);                // 384, only the helper touches it
  fib.call(kHelperFibLookup);
  fib.ret(kActPass);
  ASSERT_TRUE(verify(fib.build().value(), opts_, nullptr, &proofs).ok());
  EXPECT_EQ(proofs.stack_floor, 384u);
}

TEST_F(VerifierTest, RejectedProgramExportsNoProofs) {
  ProgramProofs proofs;
  ASSERT_TRUE(verify(two_path_store(16, 16), opts_, nullptr, &proofs).ok());
  ASSERT_FALSE(proofs.access.empty());
  ProgramBuilder b("oob", HookType::kXdp);
  b.st(kR10, 0, 1, MemSize::kU64);
  b.ret(kActPass);
  EXPECT_FALSE(verify(b.build().value(), opts_, nullptr, &proofs).ok());
  EXPECT_TRUE(proofs.access.empty());
  EXPECT_EQ(proofs.stack_floor, kStackSize);
}

}  // namespace
}  // namespace linuxfp::ebpf
