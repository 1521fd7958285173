#include "ebpf/vm.h"

#include <gtest/gtest.h>

#include "ebpf/builder.h"
#include "ebpf/kernel_helpers.h"
#include "ebpf/verifier.h"
#include "kernel/kernel.h"
#include "net/headers.h"

namespace linuxfp::ebpf {
namespace {

class VmTest : public ::testing::Test {
 protected:
  VmTest() { register_all_helpers(helpers_, cost_); }

  VmResult run(Program prog, net::Packet& pkt) {
    Vm vm(cost_, helpers_, maps_, &progs_);
    return vm.run(prog, pkt, 1, nullptr);
  }

  // `prog` verified and decoded from its proofs, as Attachment::load does.
  Program proven(Program prog) {
    VerifyOptions opts;
    opts.helpers = &helpers_;
    opts.maps = &maps_;
    ProgramProofs proofs;
    EXPECT_TRUE(verify(prog, opts, nullptr, &proofs).ok());
    prog.decode(&proofs);
    return prog;
  }

  // Fills the whole frame of `vm` with 0xff, as an earlier run may leave it.
  void dirty_frame(Vm& vm) {
    ProgramBuilder b("dirty", HookType::kXdp);
    b.mov(kR2, -1);
    for (int slot = 1; slot <= static_cast<int>(kStackSize / 8); ++slot) {
      b.stx(kR10, -8 * slot, kR2, MemSize::kU64);
    }
    b.ret(kActPass);
    net::Packet pkt(64);
    ASSERT_FALSE(vm.run(b.build().value(), pkt, 1, nullptr).aborted);
  }

  kern::CostModel cost_;
  HelperRegistry helpers_;
  MapSet maps_;
  std::vector<Program> progs_;
};

TEST_F(VmTest, ReturnsAction) {
  ProgramBuilder b("ret", HookType::kXdp);
  b.ret(kActDrop);
  net::Packet pkt(64);
  auto r = run(b.build().value(), pkt);
  EXPECT_FALSE(r.aborted);
  EXPECT_EQ(r.ret, kActDrop);
  EXPECT_EQ(r.insns_executed, 2u);
}

TEST_F(VmTest, AluOps) {
  ProgramBuilder b("alu", HookType::kXdp);
  b.mov(kR0, 10);
  b.add(kR0, 5);       // 15
  b.lsh(kR0, 2);       // 60
  b.sub(kR0, 10);      // 50
  b.mov(kR1, 7);
  b.add_reg(kR0, kR1); // 57
  b.and_(kR0, 0x3f);   // 57
  b.or_(kR0, 0x40);    // 121
  b.exit();
  net::Packet pkt(64);
  auto r = run(b.build().value(), pkt);
  EXPECT_EQ(r.ret, 121u);

  // Every ALU op, each in its immediate form (`op r0, imm`) and its register
  // form (`op r0, r1`). Each op yields a different result on these operands,
  // so a dispatch-table entry pointing at the wrong handler fails here.
  const std::uint64_t a = 0x00E1D2C3B4A59687;  // a scalar (region bits 0)
  const std::uint64_t b_op = 13;
  struct AluCase {
    Op op;
    std::uint64_t lhs;
    std::uint64_t want;
  };
  const std::uint64_t neg8 = static_cast<std::uint64_t>(-8);
  const AluCase alu[] = {
      {Op::kMov, a, b_op},
      {Op::kAdd, a, a + b_op},
      {Op::kSub, a, a - b_op},
      {Op::kMul, a, a * b_op},
      {Op::kDiv, a, a / b_op},
      {Op::kMod, a, a % b_op},
      {Op::kAnd, a, a & b_op},
      {Op::kOr, a, a | b_op},
      {Op::kXor, a, a ^ b_op},
      {Op::kLsh, a, a << b_op},
      {Op::kRsh, neg8, neg8 >> b_op},
      {Op::kArsh, neg8,
       static_cast<std::uint64_t>(static_cast<std::int64_t>(neg8) >> b_op)},
      // Unary: the operand form is ignored.
      {Op::kNeg, a, static_cast<std::uint64_t>(-static_cast<std::int64_t>(a))},
      {Op::kBe16, a, 0x8796},
      {Op::kBe32, a, 0x8796A5B4},
  };
  for (const AluCase& c : alu) {
    for (bool use_imm : {true, false}) {
      SCOPED_TRACE(std::string(op_name(c.op)) + (use_imm ? " imm" : " reg"));
      Program p;
      p.name = "alu_form";
      p.insns.push_back({Op::kMov, kR0, 0, true, 0,
                         static_cast<std::int64_t>(c.lhs), MemSize::kU64});
      p.insns.push_back({Op::kMov, kR1, 0, true, 0,
                         static_cast<std::int64_t>(b_op), MemSize::kU64});
      p.insns.push_back({c.op, kR0, kR1, use_imm, 0,
                         use_imm ? static_cast<std::int64_t>(b_op) : 0,
                         MemSize::kU64});
      p.insns.push_back({Op::kExit, 0, 0, true, 0, 0, MemSize::kU64});
      auto res = run(p, pkt);
      EXPECT_FALSE(res.aborted) << res.error;
      EXPECT_EQ(res.ret, c.want);
    }
  }
}

TEST_F(VmTest, ByteSwaps) {
  ProgramBuilder b("bswap", HookType::kXdp);
  b.mov(kR0, 0x1234);
  b.be16(kR0);
  b.exit();
  net::Packet pkt(64);
  EXPECT_EQ(run(b.build().value(), pkt).ret, 0x3412u);

  ProgramBuilder b2("bswap32", HookType::kXdp);
  b2.mov(kR0, 0x12345678);
  b2.be32(kR0);
  b2.exit();
  EXPECT_EQ(run(b2.build().value(), pkt).ret, 0x78563412u);
}

TEST_F(VmTest, PacketLoadAfterBoundsCheck) {
  ProgramBuilder b("pktload", HookType::kXdp);
  b.mov_reg(kR6, kR1);
  b.ldx(kR7, kR6, kCtxData, MemSize::kU64);
  b.ldx(kR8, kR6, kCtxDataEnd, MemSize::kU64);
  b.mov_reg(kR2, kR7);
  b.add(kR2, 14);
  b.jgt_reg(kR2, kR8, "short");
  b.ldx(kR0, kR7, 12, MemSize::kU16);  // ethertype raw
  b.be16(kR0);
  b.exit();
  b.label("short");
  b.ret(kActAborted);

  net::FlowKey f;
  f.src_ip = net::Ipv4Addr::parse("1.1.1.1").value();
  f.dst_ip = net::Ipv4Addr::parse("2.2.2.2").value();
  net::Packet pkt = net::build_udp_packet(net::MacAddr::from_id(1),
                                          net::MacAddr::from_id(2), f, 64);
  auto r = run(b.build().value(), pkt);
  EXPECT_FALSE(r.aborted);
  EXPECT_EQ(r.ret, 0x0800u);
}

// Every conditional jump, taken and not taken, in three forms: against an
// immediate, against a register, and the bounds-check form that compares a
// packet pointer with data_end (payloads compared within the region).
TEST_F(VmTest, ConditionalJumpsTakenAndNotTaken) {
  constexpr std::uint64_t kTaken = 200;
  constexpr std::uint64_t kNotTaken = 100;
  // r0 = lhs, r1 = rhs (scalars, or r0 = data + lhs and r1 = data_end when
  // `packet`); then `op r0, rhs|r1, +2`, returning kTaken or kNotTaken.
  auto jump_prog = [](Op op, bool use_imm, bool packet, std::int64_t lhs,
                      std::int64_t rhs) {
    Program p;
    p.name = "jump";
    if (packet) {
      p.insns.push_back({Op::kLdx, kR0, kR1, false, kCtxData, 0,
                         MemSize::kU64});
      p.insns.push_back({Op::kAdd, kR0, 0, true, 0, lhs, MemSize::kU64});
      p.insns.push_back({Op::kLdx, kR1, kR1, false, kCtxDataEnd, 0,
                         MemSize::kU64});
    } else {
      p.insns.push_back({Op::kMov, kR0, 0, true, 0, lhs, MemSize::kU64});
      p.insns.push_back({Op::kMov, kR1, 0, true, 0, rhs, MemSize::kU64});
    }
    p.insns.push_back({op, kR0, kR1, use_imm, 2, use_imm ? rhs : 0,
                       MemSize::kU64});
    p.insns.push_back({Op::kMov, kR0, 0, true, 0, kNotTaken, MemSize::kU64});
    p.insns.push_back({Op::kExit, 0, 0, true, 0, 0, MemSize::kU64});
    p.insns.push_back({Op::kMov, kR0, 0, true, 0, kTaken, MemSize::kU64});
    p.insns.push_back({Op::kExit, 0, 0, true, 0, 0, MemSize::kU64});
    return p;
  };
  struct JumpCase {
    Op op;
    std::int64_t taken_lhs, taken_rhs;
    std::int64_t not_lhs, not_rhs;
  };
  // Scalar operands. Adjacent ops disagree on at least one pair, so a
  // dispatch-table entry pointing at the wrong handler fails.
  const JumpCase scalar[] = {
      {Op::kJeq, 5, 5, 5, 6},  {Op::kJne, 5, 6, 5, 5},
      {Op::kJgt, -1, 1, 5, 5},  // unsigned: 2^64-1 > 1
      {Op::kJge, 5, 5, 4, 5},  {Op::kJlt, 4, 5, 5, 5},
      {Op::kJle, 5, 5, 6, 5},  {Op::kJset, 6, 2, 5, 2},
  };
  for (const JumpCase& c : scalar) {
    for (bool use_imm : {true, false}) {
      SCOPED_TRACE(std::string(op_name(c.op)) + (use_imm ? " imm" : " reg"));
      net::Packet pkt(64);
      EXPECT_EQ(run(jump_prog(c.op, use_imm, false, c.taken_lhs, c.taken_rhs),
                    pkt)
                    .ret,
                kTaken);
      EXPECT_EQ(run(jump_prog(c.op, use_imm, false, c.not_lhs, c.not_rhs),
                    pkt)
                    .ret,
                kNotTaken);
    }
  }
  // data + lhs against data_end on a 64 B packet. Tagged values would set
  // every jset; payloads 14 & 64 share no bit.
  const JumpCase packet[] = {
      {Op::kJeq, 64, 0, 14, 0},  {Op::kJne, 14, 0, 64, 0},
      {Op::kJgt, 65, 0, 64, 0},  {Op::kJge, 64, 0, 14, 0},
      {Op::kJlt, 14, 0, 64, 0},  {Op::kJle, 64, 0, 65, 0},
      {Op::kJset, 64, 0, 14, 0},
  };
  for (const JumpCase& c : packet) {
    SCOPED_TRACE(std::string(op_name(c.op)) + " data_end");
    net::Packet pkt(64);
    EXPECT_EQ(run(jump_prog(c.op, false, true, c.taken_lhs, 0), pkt).ret,
              kTaken);
    EXPECT_EQ(run(jump_prog(c.op, false, true, c.not_lhs, 0), pkt).ret,
              kNotTaken);
  }
}

TEST_F(VmTest, PacketStoreModifiesBytes) {
  ProgramBuilder b("pktstore", HookType::kXdp);
  b.mov_reg(kR6, kR1);
  b.ldx(kR7, kR6, kCtxData, MemSize::kU64);
  b.ldx(kR8, kR6, kCtxDataEnd, MemSize::kU64);
  b.mov_reg(kR2, kR7);
  b.add(kR2, 14);
  b.jgt_reg(kR2, kR8, "out");
  b.st(kR7, 0, 0xAB, MemSize::kU8);
  b.label("out");
  b.ret(kActPass);
  net::Packet pkt(64);
  run(b.build().value(), pkt);
  EXPECT_EQ(pkt.data()[0], 0xAB);
}

TEST_F(VmTest, RuntimeOutOfBoundsAborts) {
  // The VM itself enforces bounds even if a hostile program skips the check
  // (defense in depth; the verifier would reject this program).
  ProgramBuilder b("oob", HookType::kXdp);
  b.mov_reg(kR6, kR1);
  b.ldx(kR7, kR6, kCtxData, MemSize::kU64);
  b.ldx(kR0, kR7, 1000, MemSize::kU32);
  b.exit();
  net::Packet pkt(64);
  auto r = run(b.build().value(), pkt);
  EXPECT_TRUE(r.aborted);
  EXPECT_NE(r.error.find("out of bounds"), std::string::npos);
}

TEST_F(VmTest, StackReadWrite) {
  ProgramBuilder b("stack", HookType::kXdp);
  b.mov_reg(kR2, kR10);
  b.add(kR2, -16);
  b.st(kR2, 0, 0x1122, MemSize::kU32);
  b.ldx(kR0, kR2, 0, MemSize::kU32);
  b.exit();
  net::Packet pkt(64);
  EXPECT_EQ(run(b.build().value(), pkt).ret, 0x1122u);
}

TEST_F(VmTest, DivisionByZeroAborts) {
  ProgramBuilder b("div0", HookType::kXdp);
  b.mov(kR0, 5);
  b.mov(kR1, 0);
  Insn div{Op::kDiv, kR0, kR1, false, 0, 0, MemSize::kU64};
  b.mov(kR0, 5);
  // emit raw div via builder-internal path: use mov + manual insn
  Program p = b.build().value();
  p.insns.pop_back();  // nothing; construct manually instead
  p.insns.clear();
  p.insns.push_back({Op::kMov, kR0, 0, true, 0, 5, MemSize::kU64});
  p.insns.push_back({Op::kMov, kR1, 0, true, 0, 0, MemSize::kU64});
  p.insns.push_back(div);
  p.insns.push_back({Op::kExit, 0, 0, true, 0, 0, MemSize::kU64});
  net::Packet pkt(64);
  auto r = run(p, pkt);
  EXPECT_TRUE(r.aborted);
}

TEST_F(VmTest, TailCallSwitchesProgram) {
  std::uint32_t pa = maps_.create("jmp", MapType::kProgArray, 4, 4, 8);

  ProgramBuilder target("target", HookType::kXdp);
  target.ret(kActTx);
  progs_.push_back(target.build().value());
  maps_.get(pa)->set_prog(3, 0);

  ProgramBuilder entry("entry", HookType::kXdp);
  entry.mov_reg(kR6, kR1);
  entry.mov_reg(kR1, kR6);
  entry.mov(kR2, pa);
  entry.mov(kR3, 3);
  entry.call(kHelperTailCall);
  entry.ret(kActPass);  // only on miss

  net::Packet pkt(64);
  Vm vm(cost_, helpers_, maps_, &progs_);
  auto r = vm.run(entry.build().value(), pkt, 1, nullptr);
  EXPECT_EQ(r.ret, kActTx);
  EXPECT_EQ(r.tail_calls, 1u);
  EXPECT_GT(r.cycles, cost_.bpf_tail_call);
  // The interpreter performs the tail call: counted as one, not as a
  // helper call.
  EXPECT_EQ(vm.tail_calls(), 1u);
  EXPECT_EQ(vm.helper_calls(kHelperTailCall), 0u);
}

TEST_F(VmTest, TailCallMissFallsThrough) {
  std::uint32_t pa = maps_.create("jmp", MapType::kProgArray, 4, 4, 8);
  ProgramBuilder entry("entry", HookType::kXdp);
  entry.mov_reg(kR6, kR1);
  entry.mov_reg(kR1, kR6);
  entry.mov(kR2, pa);
  entry.mov(kR3, 5);  // empty slot
  entry.call(kHelperTailCall);
  entry.ret(kActPass);
  net::Packet pkt(64);
  auto r = run(entry.build().value(), pkt);
  EXPECT_EQ(r.ret, kActPass);
  EXPECT_EQ(r.tail_calls, 0u);
}

TEST_F(VmTest, TailCallDepthLimited) {
  std::uint32_t pa = maps_.create("jmp", MapType::kProgArray, 4, 4, 8);
  // A program that tail-calls itself forever.
  ProgramBuilder loop("loop", HookType::kXdp);
  loop.mov_reg(kR6, kR1);
  loop.mov_reg(kR1, kR6);
  loop.mov(kR2, pa);
  loop.mov(kR3, 0);
  loop.call(kHelperTailCall);
  loop.ret(kActPass);
  progs_.push_back(loop.build().value());
  maps_.get(pa)->set_prog(0, 0);

  net::Packet pkt(64);
  auto r = run(progs_[0], pkt);
  EXPECT_TRUE(r.aborted);
  EXPECT_NE(r.error.find("tail call"), std::string::npos);
}

TEST_F(VmTest, RedirectHelperSetsTarget) {
  ProgramBuilder b("redir", HookType::kXdp);
  b.mov(kR1, 42);
  b.call(kHelperRedirect);
  b.exit();
  net::Packet pkt(64);
  auto r = run(b.build().value(), pkt);
  EXPECT_EQ(r.ret, kActRedirect);
  EXPECT_EQ(r.redirect_ifindex, 42);
}

TEST_F(VmTest, CyclesScaleWithInstructionCount) {
  ProgramBuilder b10("p10", HookType::kXdp);
  for (int i = 0; i < 10; ++i) b10.mov(kR0, i);
  b10.exit();
  ProgramBuilder b100("p100", HookType::kXdp);
  for (int i = 0; i < 100; ++i) b100.mov(kR0, i);
  b100.exit();
  net::Packet pkt(64);
  auto small = run(b10.build().value(), pkt);
  auto big = run(b100.build().value(), pkt);
  EXPECT_EQ(big.cycles - small.cycles, 90 * cost_.bpf_insn);
}

TEST_F(VmTest, MapLookupThroughHelper) {
  std::uint32_t map_id = maps_.create("h", MapType::kHash, 4, 8, 16);
  std::uint32_t key = 7;
  std::uint64_t value = 0xdeadbeef;
  maps_.get(map_id)->update(reinterpret_cast<std::uint8_t*>(&key),
                            reinterpret_cast<std::uint8_t*>(&value));

  ProgramBuilder b("lookup", HookType::kXdp);
  b.mov_reg(kR2, kR10);
  b.add(kR2, -8);
  b.st(kR2, 0, 7, MemSize::kU32);
  b.mov(kR1, map_id);
  b.call(kHelperMapLookup);
  b.jeq(kR0, 0, "miss");
  b.ldx(kR0, kR0, 0, MemSize::kU64);
  b.exit();
  b.label("miss");
  b.ret(0);
  net::Packet pkt(64);
  Program prog = b.build().value();
  Vm vm(cost_, helpers_, maps_, &progs_);
  auto r = vm.run(prog, pkt, 1, nullptr);
  EXPECT_FALSE(r.aborted) << r.error;
  EXPECT_EQ(r.ret, 0xdeadbeefu);

  // The VM counts every helper call and each lookup's outcome.
  std::uint32_t other = 8;
  maps_.get(map_id)->erase(reinterpret_cast<std::uint8_t*>(&key));
  maps_.get(map_id)->update(reinterpret_cast<std::uint8_t*>(&other),
                            reinterpret_cast<std::uint8_t*>(&value));
  EXPECT_EQ(vm.run(prog, pkt, 1, nullptr).ret, 0u);
  EXPECT_EQ(vm.helper_calls(kHelperMapLookup), 2u);
  EXPECT_EQ(vm.map_hits(), 1u);
  EXPECT_EQ(vm.map_misses(), 1u);
}

// be16/be32 are 16/32-bit conversions: on a register whose high bits are
// set they must truncate before swapping.
TEST_F(VmTest, ByteswapTruncatesHighBits) {
  ProgramBuilder b16("be16hi", HookType::kXdp);
  b16.mov(kR0, 0x11223344);
  b16.lsh(kR0, 16);
  b16.or_(kR0, 0x5566);  // r0 = 0x1122_3344_5566
  b16.be16(kR0);
  b16.exit();
  net::Packet pkt(64);
  auto r = run(b16.build().value(), pkt);
  EXPECT_EQ(r.ret, 0x6655u);

  ProgramBuilder b32("be32hi", HookType::kXdp);
  b32.mov(kR0, 0x11223344);
  b32.lsh(kR0, 16);
  b32.or_(kR0, 0x5566);
  b32.be32(kR0);
  b32.exit();
  r = run(b32.build().value(), pkt);
  EXPECT_EQ(r.ret, 0x66554433u);
}

// Sub-64-bit loads zero-extend: a u64 of all-ones read back at u32/u16/u8
// widths must yield exactly the low bytes.
TEST_F(VmTest, NarrowLoadsZeroExtend) {
  struct Case {
    MemSize size;
    std::uint64_t want;
  };
  const Case cases[] = {{MemSize::kU32, 0xFFFFFFFFu},
                        {MemSize::kU16, 0xFFFFu},
                        {MemSize::kU8, 0xFFu}};
  for (const Case& c : cases) {
    ProgramBuilder b("zext", HookType::kXdp);
    b.mov_reg(kR2, kR10);
    b.add(kR2, -8);
    b.mov(kR3, -1);  // 0xFFFF...FF
    b.stx(kR2, 0, kR3, MemSize::kU64);
    b.ldx(kR0, kR2, 0, c.size);
    b.exit();
    net::Packet pkt(64);
    auto r = run(b.build().value(), pkt);
    EXPECT_EQ(r.ret, c.want);
  }

  // Every access size in every region (stack, packet, ctx, map value), for
  // each of ldx, stx and st, checked and proven: fill 8 bytes with ones,
  // store the pattern at the size under test, then read it back at that
  // size (ldx width) or at u64 (store width). A handler of the wrong width
  // fails one of the three.
  const std::uint32_t vals = maps_.create("vals", MapType::kHash, 4, 8, 4);
  std::uint32_t key = 7;
  std::uint64_t zero = 0;
  ASSERT_TRUE(maps_.get(vals)
                  ->update(reinterpret_cast<std::uint8_t*>(&key),
                           reinterpret_cast<std::uint8_t*>(&zero))
                  .ok());
  enum class Where { kStack, kPacket, kCtx, kMapValue };
  enum class Check { kStxLdx, kStxWidth, kStWidth };
  const std::int64_t pattern = 0x1122334455667788;
  auto mem_prog = [&](Where where, MemSize size, Check check) {
    ProgramBuilder b("sizes", HookType::kXdp);
    switch (where) {  // r6 = 8 writable bytes
      case Where::kStack:
        b.mov_reg(kR6, kR10);
        b.add(kR6, -16);
        break;
      case Where::kPacket:
        b.ldx(kR6, kR1, kCtxData, MemSize::kU64);
        b.ldx(kR2, kR1, kCtxDataEnd, MemSize::kU64);
        b.mov_reg(kR3, kR6);
        b.add(kR3, 16);
        b.jgt_reg(kR3, kR2, "out");
        b.add(kR6, 8);
        break;
      case Where::kCtx:
        b.mov_reg(kR6, kR1);
        b.add(kR6, kCtxVlanTci);
        break;
      case Where::kMapValue:
        b.mov_reg(kR2, kR10);
        b.add(kR2, -8);
        b.st(kR2, 0, key, MemSize::kU32);
        b.mov(kR1, vals);
        b.call(kHelperMapLookup);
        b.jeq(kR0, 0, "out");
        b.mov_reg(kR6, kR0);
        break;
    }
    b.st(kR6, 0, -1, MemSize::kU64);
    if (check == Check::kStWidth) {
      b.st(kR6, 0, pattern, size);
    } else {
      b.mov(kR3, pattern);
      b.stx(kR6, 0, kR3, size);
    }
    b.ldx(kR0, kR6, 0, check == Check::kStxLdx ? size : MemSize::kU64);
    b.exit();
    b.label("out");
    b.ret(kActAborted);
    return b.build().value();
  };
  for (Where where :
       {Where::kStack, Where::kPacket, Where::kCtx, Where::kMapValue}) {
    for (MemSize size :
         {MemSize::kU8, MemSize::kU16, MemSize::kU32, MemSize::kU64}) {
      const int bits = static_cast<int>(size) * 8;
      const std::uint64_t mask =
          bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
      const std::uint64_t low = static_cast<std::uint64_t>(pattern) & mask;
      for (Check check : {Check::kStxLdx, Check::kStxWidth, Check::kStWidth}) {
        SCOPED_TRACE(::testing::Message()
                     << "region " << static_cast<int>(where) << " u" << bits
                     << " check " << static_cast<int>(check));
        // Checked handlers (decoded without proofs), then the proven ones
        // (every access but the map value's is pinned).
        const Program checked = mem_prog(where, size, check);
        const Program pinned = proven(checked);
        int proven_ops = 0;
        for (const DecodedInsn& d : pinned.code()) {
          proven_ops += d.op >= DecodedOp::kProvenLdx8 &&
                        d.op <= DecodedOp::kProvenSt64;
        }
        // Three accesses through r6, plus the packet's two ctx loads or the
        // map key's stack store; the map value's own three stay checked.
        EXPECT_EQ(proven_ops, where == Where::kPacket     ? 5
                              : where == Where::kMapValue ? 1
                                                          : 3);
        for (const Program* prog : {&checked, &pinned}) {
          net::Packet pkt(64);
          auto r = run(*prog, pkt);
          ASSERT_FALSE(r.aborted) << r.error;
          EXPECT_EQ(r.ret, check == Check::kStxLdx ? low : (low | ~mask));
        }
      }
    }
  }
}

// Division/modulo by zero abort at the faulting instruction (error string
// names the zero divisor, cycles charged for exactly the three executed
// instructions) and kArsh stays an arithmetic (sign-extending) shift.
TEST_F(VmTest, DivModByZeroAndArshEdges) {
  auto raw = [](Op op, std::int64_t lhs, std::int64_t rhs) {
    Program p;
    p.name = "aluedge";
    p.insns.push_back({Op::kMov, kR0, 0, true, 0, lhs, MemSize::kU64});
    p.insns.push_back({Op::kMov, kR1, 0, true, 0, rhs, MemSize::kU64});
    p.insns.push_back({op, kR0, kR1, false, 0, 0, MemSize::kU64});
    p.insns.push_back({Op::kExit, 0, 0, true, 0, 0, MemSize::kU64});
    return p;
  };

  net::Packet pkt(64);
  for (Op op : {Op::kDiv, Op::kMod}) {
    auto r = run(raw(op, 5, 0), pkt);
    EXPECT_TRUE(r.aborted);
    EXPECT_NE(r.error.find("zero"), std::string::npos) << r.error;
    EXPECT_EQ(r.insns_executed, 3u);
    EXPECT_EQ(r.cycles, 3 * cost_.bpf_insn);
  }
  EXPECT_EQ(run(raw(Op::kDiv, 7, 2), pkt).ret, 3u);
  EXPECT_EQ(run(raw(Op::kMod, 7, 2), pkt).ret, 1u);
  // -8 >> 1 arithmetic = -4; logical would give a huge positive.
  EXPECT_EQ(run(raw(Op::kArsh, -8, 1), pkt).ret,
            static_cast<std::uint64_t>(-4));
  EXPECT_EQ(run(raw(Op::kRsh, -8, 1), pkt).ret,
            static_cast<std::uint64_t>(-8) >> 1);
}

// Every abort reason the interpreter has, pinned field by field: the abort
// flag, the ABORTED action, the exact message, the instructions executed up
// to and including the faulting one, the cycles charged for them (plus any
// helper/tail-call cycles already spent) and the tail calls taken.
TEST_F(VmTest, AbortReasonsPinned) {
  auto insn = [](Op op, int dst, int src, bool use_imm, std::int32_t off,
                 std::int64_t imm, MemSize size = MemSize::kU64) {
    return Insn{op, static_cast<std::uint8_t>(dst),
                static_cast<std::uint8_t>(src), use_imm, off, imm, size};
  };
  auto mov = [&](int dst, std::int64_t imm) {
    return insn(Op::kMov, dst, 0, true, 0, imm);
  };
  auto mov_reg = [&](int dst, int src) {
    return insn(Op::kMov, dst, src, false, 0, 0);
  };
  auto ldx = [&](int dst, int src, std::int32_t off, MemSize size) {
    return insn(Op::kLdx, dst, src, true, off, 0, size);
  };
  auto call = [&](std::uint32_t id) {
    return insn(Op::kCall, 0, 0, true, 0, id);
  };

  const std::uint32_t hash = maps_.create("vals", MapType::kHash, 4, 8, 4);
  std::uint32_t key = 7;
  std::uint64_t value = 1;
  ASSERT_TRUE(maps_.get(hash)
                  ->update(reinterpret_cast<std::uint8_t*>(&key),
                           reinterpret_cast<std::uint8_t*>(&value))
                  .ok());
  // A program that tail-calls itself until the limit stops it.
  const std::uint32_t jmp = maps_.create("jmp", MapType::kProgArray, 4, 4, 1);
  const std::vector<Insn> self_tail_call = {
      mov_reg(kR6, kR1), mov_reg(kR1, kR6), mov(kR2, jmp), mov(kR3, 0),
      call(kHelperTailCall), mov(kR0, kActPass), insn(Op::kExit, 0, 0, true, 0, 0)};
  Program looping;
  looping.name = "loop";
  looping.insns = self_tail_call;
  progs_.push_back(looping);
  ASSERT_TRUE(maps_.get(jmp)->set_prog(0, 0).ok());

  struct Case {
    const char* name;
    std::vector<Insn> insns;
    std::string error;
    std::uint64_t executed;
    std::uint64_t extra_cycles;  // helper and tail-call cycles before abort
    std::uint32_t tail_calls = 0;
  };
  const Case cases[] = {
      {"stack load", {mov_reg(kR2, kR10), ldx(kR0, kR2, 0, MemSize::kU64)},
       "stack access out of bounds", 2, 0},
      {"stack store",
       {mov_reg(kR2, kR10),
        insn(Op::kStx, kR2, kR1, false, -2, 0, MemSize::kU32)},
       "stack access out of bounds", 2, 0},
      {"ctx load", {ldx(kR0, kR1, kCtxSize - 4, MemSize::kU64)},
       "ctx access out of bounds", 1, 0},
      {"ctx store", {insn(Op::kSt, kR1, 0, true, kCtxSize, 1, MemSize::kU8)},
       "ctx access out of bounds", 1, 0},
      {"packet load",
       {ldx(kR2, kR1, kCtxData, MemSize::kU64),
        ldx(kR0, kR2, 1000, MemSize::kU32)},
       "packet access out of bounds", 2, 0},
      {"packet store",
       {ldx(kR2, kR1, kCtxData, MemSize::kU64),
        insn(Op::kSt, kR2, 0, true, 63, 0, MemSize::kU16)},
       "packet access out of bounds", 2, 0},
      {"map value",
       {mov_reg(kR2, kR10), insn(Op::kAdd, kR2, 0, true, 0, -8),
        insn(Op::kSt, kR2, 0, true, 0, 7, MemSize::kU32), mov(kR1, hash),
        call(kHelperMapLookup), ldx(kR0, kR0, 8, MemSize::kU64)},
       "map value access out of bounds", 6,
       cost_.bpf_helper_base + cost_.bpf_map_hash},
      {"map value handle",
       {mov(kR2, static_cast<std::int64_t>(
                     make_ptr(Region::kMapValue, std::uint64_t{5} << 24))),
        ldx(kR0, kR2, 0, MemSize::kU8)},
       "bad map value handle", 2, 0},
      {"scalar", {mov(kR2, 4096), ldx(kR0, kR2, 0, MemSize::kU64)},
       "dereference of scalar value", 2, 0},
      {"division",
       {mov(kR0, 5), mov(kR1, 0), insn(Op::kDiv, kR0, kR1, false, 0, 0)},
       "division by zero", 3, 0},
      {"modulo", {mov(kR0, 5), insn(Op::kMod, kR0, 0, true, 0, 0)},
       "mod by zero", 2, 0},
      {"unknown helper", {call(999)}, "unknown helper 999", 1, 0},
      {"pc past end", {mov(kR0, 1)}, "pc out of bounds (missing exit?)", 1,
       0},
      {"budget", {insn(Op::kJa, 0, 0, true, -1, 0)},
       "instruction budget exceeded", (std::uint64_t{1} << 20) + 1, 0},
      {"tail call limit", self_tail_call, "tail call limit exceeded",
       5 * (kMaxTailCalls + 1), kMaxTailCalls * cost_.bpf_tail_call,
       kMaxTailCalls},
      {"tail call map", {mov(kR2, hash), mov(kR3, 0), call(kHelperTailCall)},
       "tail call on non prog-array map", 3, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Program p;
    p.name = c.name;
    p.insns = c.insns;
    net::Packet pkt(64);
    const VmResult r = run(p, pkt);
    EXPECT_TRUE(r.aborted);
    EXPECT_EQ(r.ret, kActAborted);
    EXPECT_EQ(r.error, c.error);
    EXPECT_EQ(r.insns_executed, c.executed);
    EXPECT_EQ(r.cycles, c.executed * cost_.bpf_insn + c.extra_cycles);
    EXPECT_EQ(r.tail_calls, c.tail_calls);
  }
}

// A run zeroes the frame only from the entry program's stack floor up. A
// tail call into a program with a lower floor zeroes the gap first, so on a
// frame an earlier run left dirty the callee reads 0 from every byte this run
// did not write, and reads what the caller wrote.
TEST_F(VmTest, TailCallZeroesTheStackBelowTheCallersFloor) {
  const std::uint32_t pa = maps_.create("jmp", MapType::kProgArray, 4, 4, 1);
  // Callee, floor 0: r0 = the sum of the frame's 64 u64 slots.
  ProgramBuilder callee("callee", HookType::kXdp);
  callee.mov(kR0, 0);
  for (int slot = 64; slot >= 1; --slot) {
    callee.ldx(kR2, kR10, -8 * slot, MemSize::kU64);
    callee.add_reg(kR0, kR2);
  }
  callee.exit();
  progs_.push_back(proven(callee.build().value()));
  ASSERT_EQ(progs_[0].stack_floor, 0u);
  ASSERT_TRUE(maps_.get(pa)->set_prog(0, 0).ok());
  // Caller, floor 504: writes its slot, then tail-calls the callee.
  ProgramBuilder caller("caller", HookType::kXdp);
  caller.st(kR10, -8, 0x1234, MemSize::kU64);
  caller.mov(kR2, pa);
  caller.mov(kR3, 0);
  caller.call(kHelperTailCall);
  caller.ret(kActPass);
  const Program entry = proven(caller.build().value());
  ASSERT_EQ(entry.stack_floor, kStackSize - 8);
  for (const DecodedInsn& d : progs_[0].code()) {
    EXPECT_FALSE(d.op == DecodedOp::kLdx64) << "callee load left checked";
  }

  Vm vm(cost_, helpers_, maps_, &progs_);
  dirty_frame(vm);
  net::Packet pkt(64);
  const VmResult r = vm.run(entry, pkt, 1, nullptr);
  ASSERT_FALSE(r.aborted) << r.error;
  EXPECT_EQ(r.tail_calls, 1u);
  EXPECT_EQ(r.ret, 0x1234u);
}

// A helper reads through whatever r1-r5 hold. bpf_csum_diff's buffers are
// not typed by the verifier, so a tagged constant reaches it as a scalar and
// can point below the stack floor: the helper's access zeroes the gap first.
TEST_F(VmTest, HelperReadBelowTheStackFloorReadsZeros) {
  ProgramBuilder b("csum", HookType::kXdp);
  b.st(kR10, -8, -1, MemSize::kU64);  // floor 504
  b.mov(kR1, 0);
  b.mov(kR2, 0);
  b.mov(kR3, static_cast<std::int64_t>(make_ptr(Region::kStack, 0)));
  b.mov(kR4, kStackSize - 8);
  b.mov(kR5, 0);
  b.call(kHelperCsumDiff);  // checksum of bytes [0, 504): 0 iff all zero
  b.exit();
  const Program prog = proven(b.build().value());
  ASSERT_EQ(prog.stack_floor, kStackSize - 8);

  Vm vm(cost_, helpers_, maps_, &progs_);
  dirty_frame(vm);
  net::Packet pkt(64);
  const VmResult r = vm.run(prog, pkt, 1, nullptr);
  ASSERT_FALSE(r.aborted) << r.error;
  EXPECT_EQ(r.ret, 0u);
  // The same program decoded without proofs zeroes the whole frame itself.
  Program unproven = prog;
  unproven.decoded.clear();
  dirty_frame(vm);
  EXPECT_EQ(vm.run(unproven, pkt, 1, nullptr).ret, 0u);
  EXPECT_EQ(unproven.stack_floor, 0u);
}

// A proven access keeps its length compare: if the verifier were wrong about
// a packet bound, the run aborts with the checked handler's message instead
// of reading past the packet.
TEST_F(VmTest, ProvenAccessKeepsTheLengthCompare) {
  ProgramBuilder b("pkt", HookType::kXdp);
  b.ldx(kR2, kR1, kCtxData, MemSize::kU64);
  b.ldx(kR3, kR1, kCtxDataEnd, MemSize::kU64);
  b.mov_reg(kR4, kR2);
  b.add(kR4, 14);
  b.jgt_reg(kR4, kR3, "short");
  b.ldx(kR0, kR2, 12, MemSize::kU16);
  b.exit();
  b.label("short");
  b.ret(kActDrop);
  Program prog = proven(b.build().value());
  const std::size_t load = 5;
  ASSERT_EQ(prog.decoded[load].op, DecodedOp::kProvenLdx16);
  // Pretend the proof had named offset 63 (within no 64 B packet's 2 B).
  prog.decoded[load].off = 63;
  net::Packet pkt(64);
  const VmResult r = run(prog, pkt);
  EXPECT_TRUE(r.aborted);
  EXPECT_EQ(r.error, "packet access out of bounds");
  EXPECT_EQ(r.insns_executed, 6u);
}

TEST_F(VmTest, InstructionBudgetGuard) {
  // Without back-edge rejection at load time, a self-jump would spin; the
  // VM's budget still catches it.
  Program p;
  p.name = "spin";
  p.insns.push_back({Op::kJa, 0, 0, true, -1, 0, MemSize::kU64});
  net::Packet pkt(64);
  auto r = run(p, pkt);
  EXPECT_TRUE(r.aborted);
}

}  // namespace
}  // namespace linuxfp::ebpf
