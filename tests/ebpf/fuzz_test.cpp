// Property/fuzz tests for the verifier-VM contract:
//  1. Soundness: any program the verifier ACCEPTS must never abort at
//     runtime with a memory error, on any packet.
//  2. Robustness: random instruction streams (mostly garbage) must be
//     cleanly rejected — never crash the verifier or, if accepted, the VM.
//  3. Proofs: an accepted program decoded from its proofs (proven handlers,
//     stack zeroed from its floor up) runs exactly like the same program
//     decoded without them, on a frame the previous runs left dirty.
#include <gtest/gtest.h>

#include <algorithm>

#include "ebpf/builder.h"
#include "ebpf/kernel_helpers.h"
#include "ebpf/verifier.h"
#include "ebpf/vm.h"
#include "util/rng.h"

namespace linuxfp::ebpf {
namespace {

class FuzzRig {
 public:
  FuzzRig() { register_all_helpers(helpers_, cost_); }

  util::Status verify_prog(const Program& p) {
    VerifyOptions opts;
    opts.helpers = &helpers_;
    opts.maps = &maps_;
    return verify(p, opts);
  }

  // Runs accepted program `p` on `pkt` twice, each on its own persistent Vm:
  // decoded without proofs (every access checked, whole frame zeroed), and
  // decoded from its proofs, as Attachment::load does. Requires equal
  // results and packet bytes, and returns the unproven run's result.
  VmResult run_both(const Program& p, net::Packet& pkt) {
    VerifyOptions opts;
    opts.helpers = &helpers_;
    opts.maps = &maps_;
    ProgramProofs proofs;
    EXPECT_TRUE(verify(p, opts, nullptr, &proofs).ok());
    Program proven = p;
    proven.decode(&proofs);
    Program checked = p;
    checked.decoded.clear();
    net::Packet twin(pkt);
    const VmResult a = checked_vm_.run(checked, pkt, 1, nullptr);
    const VmResult b = proven_vm_.run(proven, twin, 1, nullptr);
    EXPECT_EQ(a.ret, b.ret);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.insns_executed, b.insns_executed);
    EXPECT_EQ(a.tail_calls, b.tail_calls);
    EXPECT_EQ(a.redirect_ifindex, b.redirect_ifindex);
    EXPECT_EQ(a.redirect_xsk, b.redirect_xsk);
    EXPECT_EQ(a.aborted, b.aborted);
    EXPECT_EQ(a.error, b.error);
    EXPECT_TRUE(std::equal(pkt.data(), pkt.data() + pkt.size(), twin.data(),
                           twin.data() + twin.size()));
    return a;
  }

  kern::CostModel cost_;
  HelperRegistry helpers_;
  MapSet maps_;
  Vm checked_vm_{cost_, helpers_, maps_, nullptr};
  Vm proven_vm_{cost_, helpers_, maps_, nullptr};
};

// Completely random (garbage) instruction streams.
Program random_program(util::Rng& rng) {
  Program p;
  std::size_t n = 1 + rng.next_below(64);
  for (std::size_t i = 0; i < n; ++i) {
    Insn insn;
    insn.op = static_cast<Op>(rng.next_below(28));
    insn.dst = static_cast<std::uint8_t>(rng.next_below(12));  // incl. invalid
    insn.src = static_cast<std::uint8_t>(rng.next_below(12));
    insn.use_imm = rng.next_below(2) == 0;
    insn.off = static_cast<std::int32_t>(rng.next_below(128)) - 32;
    insn.imm = static_cast<std::int64_t>(rng.next_below(1 << 16)) - (1 << 15);
    insn.size = static_cast<MemSize>(1u << rng.next_below(4));
    p.insns.push_back(insn);
  }
  p.insns.push_back({Op::kMov, kR0, 0, true, 0, 2, MemSize::kU64});
  p.insns.push_back({Op::kExit, 0, 0, true, 0, 0, MemSize::kU64});
  return p;
}

TEST(VerifierFuzz, GarbageProgramsNeverCrashAndAcceptedOnesNeverAbort) {
  FuzzRig rig;
  util::Rng rng(0xF00D);
  int accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    Program p = random_program(rng);
    auto st = rig.verify_prog(p);
    if (!st.ok()) continue;  // rejection is fine; not crashing is the test
    ++accepted;
    for (std::size_t len : {0u, 14u, 60u, 1500u}) {
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " len " << len);
      net::Packet pkt(len);
      auto r = rig.run_both(p, pkt);
      // Division by zero is the one runtime trap the verifier does not
      // track (the kernel patches in a runtime guard instead; our VM's
      // abort models that guard).
      if (r.aborted) {
        EXPECT_TRUE(r.error.find("zero") != std::string::npos)
            << "accepted program aborted with: " << r.error;
      }
    }
  }
  // Sanity: the generator does occasionally produce verifiable programs.
  EXPECT_GT(accepted, 0);
}

// Structured generator: prologue with a real bounds check, then random
// *verified-range* packet reads, stack traffic and ALU. These must always
// verify and always run clean.
Program structured_program(util::Rng& rng) {
  ProgramBuilder b("fuzz", HookType::kXdp);
  b.mov_reg(kR6, kR1);
  b.ldx(kR7, kR6, kCtxData, MemSize::kU64);
  b.ldx(kR8, kR6, kCtxDataEnd, MemSize::kU64);
  std::int64_t verified = 14 + static_cast<std::int64_t>(rng.next_below(40));
  b.mov_reg(kR2, kR7);
  b.add(kR2, verified);
  b.jgt_reg(kR2, kR8, "out");

  int ops = 2 + static_cast<int>(rng.next_below(30));
  for (int i = 0; i < ops; ++i) {
    switch (rng.next_below(6)) {
      case 0: {  // verified packet read
        auto width = static_cast<std::int64_t>(1u << rng.next_below(3));
        auto off = static_cast<std::int32_t>(
            rng.next_below(static_cast<std::uint64_t>(verified - width + 1)));
        b.ldx(kR3, kR7, off,
              width == 1 ? MemSize::kU8
                         : width == 2 ? MemSize::kU16 : MemSize::kU32);
        break;
      }
      case 1: {  // stack write + read
        auto off = -8 * (1 + static_cast<std::int32_t>(rng.next_below(32)));
        b.mov_reg(kR4, kR10);
        b.add(kR4, off);
        b.st(kR4, 0, static_cast<std::int64_t>(rng.next_below(1000)),
             MemSize::kU64);
        b.ldx(kR3, kR4, 0, MemSize::kU64);
        break;
      }
      case 2:
        b.mov(kR3, static_cast<std::int64_t>(rng.next_below(100000)));
        b.add(kR3, 17);
        break;
      case 3:
        b.mov(kR5, static_cast<std::int64_t>(rng.next_below(256)));
        b.and_(kR5, 0x7f);
        b.or_(kR5, 0x10);
        break;
      case 4:
        b.mov(kR3, static_cast<std::int64_t>(rng.next_below(1 << 20)));
        b.be32(kR3);
        b.rsh(kR3, static_cast<std::int64_t>(rng.next_below(31)));
        break;
      case 5: {  // forward branch over one op
        b.mov(kR3, static_cast<std::int64_t>(rng.next_below(4)));
        std::string label = b.scoped("skip" + std::to_string(i));
        b.jeq(kR3, 1, label);
        b.mov(kR4, 7);
        b.label(label);
        b.new_scope();
        break;
      }
    }
  }
  b.ret(kActPass);
  b.label("out");
  b.ret(kActPass);
  auto built = b.build();
  EXPECT_TRUE(built.ok());
  return std::move(built).take();
}

TEST(VerifierFuzz, StructuredProgramsAlwaysVerifyAndRunClean) {
  FuzzRig rig;
  util::Rng rng(0xBEEF);
  for (int trial = 0; trial < 500; ++trial) {
    Program p = structured_program(rng);
    auto st = rig.verify_prog(p);
    ASSERT_TRUE(st.ok()) << "trial " << trial << ": " << st.error().message;
    for (std::size_t len : {14u, 54u, 60u, 128u, 1514u}) {
      net::Packet pkt(len);
      for (std::size_t i = 0; i < pkt.size(); ++i) {
        pkt.data()[i] = static_cast<std::uint8_t>(rng.next_u64());
      }
      auto r = rig.run_both(p, pkt);
      ASSERT_FALSE(r.aborted)
          << "trial " << trial << " len " << len << ": " << r.error;
      EXPECT_EQ(r.ret, kActPass);
    }
  }
}

// The verifier must also reject the structured programs when their bounds
// check is removed — a mutation test on the checker itself.
TEST(VerifierFuzz, MutatedProgramsWithoutBoundsCheckRejected) {
  FuzzRig rig;
  util::Rng rng(0xCAFE);
  int exercised = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Program p = structured_program(rng);
    // Remove the jgt bounds-check instruction (index 5 in the prologue) by
    // turning it into a no-op mov — any later packet read must now fail.
    bool has_pkt_read = false;
    for (std::size_t i = 6; i < p.insns.size(); ++i) {
      if (p.insns[i].op == Op::kLdx && p.insns[i].src == kR7) {
        has_pkt_read = true;
      }
    }
    if (!has_pkt_read) continue;
    ++exercised;
    p.insns[5] = {Op::kMov, kR2, 0, true, 0, 0, MemSize::kU64};
    auto st = rig.verify_prog(p);
    ASSERT_FALSE(st.ok()) << "trial " << trial;
    EXPECT_EQ(st.error().code, "verifier.pkt_unverified");
  }
  EXPECT_GT(exercised, 50);
}

// A register that is the constant c on one arm of a branch and an unknown
// scalar on the other is unknown at the join, whichever arm is explored
// first: used as a stack-pointer delta or as bpf_tail_call's prog-array id,
// it must be rejected. The store's displacement keeps every constant arm in
// bounds, so only the unknown arm can be the reason.
Program join_program(std::int64_t c, bool constant_first, bool tail_call) {
  ProgramBuilder b("join", HookType::kXdp);
  b.mov_reg(kR6, kR1);
  b.ldx(kR2, kR6, kCtxIfindex, MemSize::kU64);
  if (constant_first) {  // the fall-through, explored first, is constant
    b.jeq(kR2, 5, "join");
    b.mov(kR2, c);
  } else {
    b.jeq(kR2, 5, "constant");
    b.ja("join");
    b.label("constant");
    b.mov(kR2, c);
  }
  b.label("join");
  if (tail_call) {
    b.mov_reg(kR1, kR6);
    b.mov(kR3, 0);
    b.call(kHelperTailCall);
  } else {
    b.mov_reg(kR3, kR10);
    b.add_reg(kR3, kR2);
    b.st(kR3, -32, 7, MemSize::kU8);
  }
  b.ret(kActPass);
  return b.build().value();
}

TEST(VerifierFuzz, JoinsNeverMergeAConstantWithAnUnknown) {
  FuzzRig rig;
  for (std::int64_t c = -16; c <= 16; ++c) {
    for (bool constant_first : {true, false}) {
      for (bool tail_call : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "c " << c << (constant_first ? " constant first" : "")
                     << (tail_call ? " tail call" : " stack delta"));
        auto st = rig.verify_prog(join_program(c, constant_first, tail_call));
        EXPECT_FALSE(st.ok());
        if (st.ok()) continue;
        EXPECT_EQ(st.error().code,
                  tail_call ? "verifier.helper_arg" : "verifier.var_ptr");
      }
    }
  }
}

}  // namespace
}  // namespace linuxfp::ebpf
