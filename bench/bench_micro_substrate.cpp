// google-benchmark microbenchmarks of the substrate itself: real host-time
// costs of the VM interpreter, verifier, LPM trie, FDB, netfilter evaluation
// and the controller's synthesis pipeline. These measure the SIMULATOR's
// speed (how fast the reproduction runs), complementing the modeled-cycle
// benches that reproduce the paper's numbers.
#include <benchmark/benchmark.h>

#include "core/controller.h"
#include "core/synthesizer.h"
#include "core/topology.h"
#include "core/introspect.h"
#include "ebpf/kernel_helpers.h"
#include "ebpf/verifier.h"
#include "ebpf/vm.h"
#include "sim/testbed.h"

using namespace linuxfp;

namespace {

sim::LinuxTestbed& router_dut(sim::Accel accel) {
  static sim::LinuxTestbed* linux_dut = [] {
    sim::ScenarioConfig cfg;
    cfg.prefixes = 50;
    return new sim::LinuxTestbed(cfg);
  }();
  static sim::LinuxTestbed* lfp_dut = [] {
    sim::ScenarioConfig cfg;
    cfg.prefixes = 50;
    cfg.accel = sim::Accel::kLinuxFpXdp;
    return new sim::LinuxTestbed(cfg);
  }();
  return accel == sim::Accel::kNone ? *linux_dut : *lfp_dut;
}

void BM_SlowPathForward(benchmark::State& state) {
  auto& dut = router_dut(sim::Accel::kNone);
  dut.kernel().set_metrics_enabled(true);
  int i = 0;
  for (auto _ : state) {
    auto out =
        dut.process(dut.forward_packet(i % 50, static_cast<std::uint16_t>(i)));
    benchmark::DoNotOptimize(out.cycles);
    ++i;
  }
}
BENCHMARK(BM_SlowPathForward);

// Bare = observability counters disabled; the delta against the metered
// variant above is the real host-time cost of the metrics layer. tools/ci.sh
// guards this ratio (DESIGN.md overhead budget: < 2% modeled, < ~35% host
// time under the microbench's tight loop).
void BM_SlowPathForwardBare(benchmark::State& state) {
  auto& dut = router_dut(sim::Accel::kNone);
  dut.kernel().set_metrics_enabled(false);
  int i = 0;
  for (auto _ : state) {
    auto out =
        dut.process(dut.forward_packet(i % 50, static_cast<std::uint16_t>(i)));
    benchmark::DoNotOptimize(out.cycles);
    ++i;
  }
  dut.kernel().set_metrics_enabled(true);
}
BENCHMARK(BM_SlowPathForwardBare);

void BM_FastPathForward(benchmark::State& state) {
  auto& dut = router_dut(sim::Accel::kLinuxFpXdp);
  dut.kernel().set_metrics_enabled(true);
  int i = 0;
  for (auto _ : state) {
    auto out =
        dut.process(dut.forward_packet(i % 50, static_cast<std::uint16_t>(i)));
    benchmark::DoNotOptimize(out.cycles);
    ++i;
  }
}
BENCHMARK(BM_FastPathForward);

void BM_FastPathForwardBare(benchmark::State& state) {
  auto& dut = router_dut(sim::Accel::kLinuxFpXdp);
  dut.kernel().set_metrics_enabled(false);
  int i = 0;
  for (auto _ : state) {
    auto out =
        dut.process(dut.forward_packet(i % 50, static_cast<std::uint16_t>(i)));
    benchmark::DoNotOptimize(out.cycles);
    ++i;
  }
  dut.kernel().set_metrics_enabled(true);
}
BENCHMARK(BM_FastPathForwardBare);

void BM_FibLookup(benchmark::State& state) {
  kern::Fib fib;
  for (int i = 0; i < 1000; ++i) {
    kern::Route r;
    r.dst = net::Ipv4Prefix(
        net::Ipv4Addr(0x0A000000u + (static_cast<std::uint32_t>(i) << 8)), 24);
    r.gateway = net::Ipv4Addr(0x0A0A0202);
    r.oif = 2;
    fib.add_route(r);
  }
  std::uint32_t probe = 0;
  for (auto _ : state) {
    auto hit = fib.lookup(net::Ipv4Addr(0x0A000009u + ((probe++ % 1000) << 8)));
    benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(BM_FibLookup);

void BM_NetfilterLinearScan(benchmark::State& state) {
  kern::Netfilter nf;
  kern::IpSetManager sets;
  for (int i = 0; i < state.range(0); ++i) {
    kern::Rule r;
    r.match.src = net::Ipv4Prefix(
        net::Ipv4Addr(0x0A420000u + static_cast<std::uint32_t>(i) * 256), 24);
    r.target = kern::RuleTarget::kDrop;
    (void)nf.append_rule("FORWARD", std::move(r));
  }
  kern::NfPacketInfo info;
  info.src = net::Ipv4Addr(0x0B000001);
  info.dst = net::Ipv4Addr(0x0C000001);
  for (auto _ : state) {
    auto res = nf.evaluate(kern::NfHook::kForward, info, sets);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_NetfilterLinearScan)->Arg(10)->Arg(100)->Arg(1000);

void BM_VmInterpretation(benchmark::State& state) {
  kern::CostModel cost;
  ebpf::HelperRegistry helpers;
  ebpf::register_all_helpers(helpers, cost);
  ebpf::MapSet maps;
  ebpf::ProgramBuilder b("alu", ebpf::HookType::kXdp);
  b.mov(ebpf::kR0, 0);
  for (int i = 0; i < 64; ++i) {
    b.add(ebpf::kR0, i);
    b.and_(ebpf::kR0, 0xffff);
  }
  b.exit();
  ebpf::Program prog = b.build().value();
  ebpf::Vm vm(cost, helpers, maps, nullptr);
  net::Packet pkt(64);
  for (auto _ : state) {
    auto r = vm.run(prog, pkt, 1, nullptr);
    benchmark::DoNotOptimize(r.ret);
  }
}
BENCHMARK(BM_VmInterpretation);

// Twin of BM_VmInterpretation that reports per-instruction interpreter cost
// (items = executed insns, so google-benchmark prints items_per_second).
// The hot loop runs over the pre-decoded DecodedInsn array — operand
// selection (use_imm) and jump targets resolved at load time — and
// tools/ci.sh asserts ns/insn stays under budget so the decode stage can
// never silently regress back into the dispatch loop.
void BM_VmNsPerInsn(benchmark::State& state) {
  kern::CostModel cost;
  ebpf::HelperRegistry helpers;
  ebpf::register_all_helpers(helpers, cost);
  ebpf::MapSet maps;
  ebpf::ProgramBuilder b("alu_per_insn", ebpf::HookType::kXdp);
  b.mov(ebpf::kR0, 0);
  for (int i = 0; i < 64; ++i) {
    b.add(ebpf::kR0, i);
    b.and_(ebpf::kR0, 0xffff);
  }
  b.exit();
  ebpf::Program prog = b.build().value();
  const std::size_t insns_per_run = prog.insns.size();  // mov + 128 ALU + exit
  ebpf::Vm vm(cost, helpers, maps, nullptr);
  net::Packet pkt(64);
  for (auto _ : state) {
    auto r = vm.run(prog, pkt, 1, nullptr);
    benchmark::DoNotOptimize(r.ret);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(insns_per_run));
}
BENCHMARK(BM_VmNsPerInsn);

void BM_VerifierRouterProgram(benchmark::State& state) {
  sim::ScenarioConfig cfg;
  cfg.prefixes = 10;
  sim::LinuxTestbed dut(cfg);
  core::ServiceIntrospection si(dut.kernel().netlink());
  si.initial_sync();
  core::TopologyManager tm;
  auto graphs = tm.build(si.view());
  core::Synthesizer synth;
  auto result = synth.synthesize(graphs.at(0));
  kern::CostModel cost;
  ebpf::HelperRegistry helpers;
  ebpf::register_all_helpers(helpers, cost);
  ebpf::VerifyOptions opts;
  opts.helpers = &helpers;
  for (auto _ : state) {
    auto st = ebpf::verify(result->programs[0], opts);
    benchmark::DoNotOptimize(st.ok());
  }
}
BENCHMARK(BM_VerifierRouterProgram);

void BM_ControllerReaction(benchmark::State& state) {
  sim::ScenarioConfig cfg;
  cfg.prefixes = 10;
  cfg.accel = sim::Accel::kLinuxFpXdp;
  sim::LinuxTestbed dut(cfg);
  int toggle = 0;
  for (auto _ : state) {
    // Alternate a rule append/delete so every iteration re-synthesizes.
    if (toggle++ % 2 == 0) {
      (void)kern::run_command(dut.kernel(),
                              "iptables -A FORWARD -s 10.77.0.0/24 -j DROP");
    } else {
      (void)kern::run_command(dut.kernel(), "iptables -D FORWARD 1");
    }
    auto reaction = dut.controller()->run_once();
    benchmark::DoNotOptimize(reaction.insns);
  }
}
BENCHMARK(BM_ControllerReaction);

}  // namespace

BENCHMARK_MAIN();
