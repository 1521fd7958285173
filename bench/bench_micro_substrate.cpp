// google-benchmark microbenchmarks of the substrate itself: real host-time
// costs of the VM interpreter, verifier, LPM trie, FDB, netfilter evaluation
// and the controller's synthesis pipeline. These measure the SIMULATOR's
// speed (how fast the reproduction runs), complementing the modeled-cycle
// benches that reproduce the paper's numbers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "core/controller.h"
#include "core/synthesizer.h"
#include "core/topology.h"
#include "core/introspect.h"
#include "ebpf/kernel_helpers.h"
#include "ebpf/loader.h"
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

// The metrics layer's host-time cost as one number per path: process()
// calls as in the two benchmarks above, metered and bare (metrics disabled),
// alternate in blocks of 32 packets, each block timed, so both halves of
// every ratio see the same host conditions; which half runs first
// alternates too. Reports "ratio", the median metered/bare ratio over the
// tenth of block pairs that took least time. Interference on a shared host
// comes in stretches far longer than a block and adds the same time to both
// halves, which pulls their ratio toward 1; the quickest pairs are the ones
// it spared. tools/ci.sh guards the ratio.
void metering_ratio(benchmark::State& state, sim::Accel accel) {
  auto& dut = router_dut(accel);
  constexpr int kBlock = 32;
  int i = 0;
  auto timed_block = [&](bool metered) {
    dut.kernel().set_metrics_enabled(metered);
    const auto start = std::chrono::steady_clock::now();
    for (int k = 0; k < kBlock; ++k, ++i) {
      auto out = dut.process(
          dut.forward_packet(i % 50, static_cast<std::uint16_t>(i)));
      benchmark::DoNotOptimize(out.cycles);
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  struct Pair {
    double total;
    double ratio;
  };
  std::vector<Pair> pairs;
  for (auto _ : state) {
    const bool metered_first = pairs.size() % 2 == 0;
    const double first = timed_block(metered_first);
    const double second = timed_block(!metered_first);
    pairs.push_back({first + second,
                     metered_first ? first / second : second / first});
  }
  dut.kernel().set_metrics_enabled(true);
  std::sort(pairs.begin(), pairs.end(),
            [](const Pair& a, const Pair& b) { return a.total < b.total; });
  std::vector<double> quick;
  for (std::size_t k = 0; k < std::max<std::size_t>(1, pairs.size() / 10);
       ++k) {
    quick.push_back(pairs[k].ratio);
  }
  auto mid = quick.begin() + static_cast<std::ptrdiff_t>(quick.size() / 2);
  std::nth_element(quick.begin(), mid, quick.end());
  state.counters["ratio"] = *mid;
}

void BM_MeteringRatioSlowPath(benchmark::State& state) {
  metering_ratio(state, sim::Accel::kNone);
}
BENCHMARK(BM_MeteringRatioSlowPath);

void BM_MeteringRatioFastPath(benchmark::State& state) {
  metering_ratio(state, sim::Accel::kLinuxFpXdp);
}
BENCHMARK(BM_MeteringRatioFastPath);

// 4,096 prebuilt 64 B packets toward the router's 50 prefixes, one flow
// each. The Prebuilt benchmarks copy one per iteration, so the timed loop
// builds no headers and measures process() itself: header construction
// takes 270-470 ns of BM_{Slow,Fast}PathForward and hides part of the gap
// between the two paths.
constexpr std::size_t kPrebuiltRing = 4096;

const std::vector<net::Packet>& prebuilt_packets(sim::Accel accel) {
  auto build = [](sim::Accel a) {
    auto* ring = new std::vector<net::Packet>;
    for (std::size_t i = 0; i < kPrebuiltRing; ++i) {
      ring->push_back(router_dut(a).forward_packet(
          static_cast<int>(i % 50), static_cast<std::uint16_t>(i)));
    }
    return ring;
  };
  static const std::vector<net::Packet>* linux_ring = build(sim::Accel::kNone);
  static const std::vector<net::Packet>* lfp_ring =
      build(sim::Accel::kLinuxFpXdp);
  return accel == sim::Accel::kNone ? *linux_ring : *lfp_ring;
}

// process() on a copy of the next prebuilt packet, metrics on (as in
// perfbench). tools/ci.sh prints the LinuxFP/Linux ratio of the two twins.
void forward_prebuilt(benchmark::State& state, sim::Accel accel) {
  auto& dut = router_dut(accel);
  const auto& ring = prebuilt_packets(accel);
  dut.kernel().set_metrics_enabled(true);
  std::size_t i = 0;
  for (auto _ : state) {
    auto out = dut.process(net::Packet(ring[i++ % kPrebuiltRing]));
    benchmark::DoNotOptimize(out.cycles);
  }
}

void BM_SlowPathForwardPrebuilt(benchmark::State& state) {
  forward_prebuilt(state, sim::Accel::kNone);
}
BENCHMARK(BM_SlowPathForwardPrebuilt);

void BM_FastPathForwardPrebuilt(benchmark::State& state) {
  forward_prebuilt(state, sim::Accel::kLinuxFpXdp);
}
BENCHMARK(BM_FastPathForwardPrebuilt);

// All-in interpreter cost on the synthesized router FPM: Attachment::run on
// a copy of a prebuilt packet (dispatcher, tail call, 28 memory accesses,
// bpf_fib_lookup and bpf_redirect), with items = executed instructions, so
// it reads as ns/insn next to the ALU-only BM_VmNsPerInsn.
void BM_RouterFpmNsPerInsn(benchmark::State& state) {
  auto& dut = router_dut(sim::Accel::kLinuxFpXdp);
  const auto& ring = prebuilt_packets(sim::Accel::kLinuxFpXdp);
  ebpf::Attachment* fpm =
      dut.controller()->deployer().attachment("eth0", ebpf::HookType::kXdp);
  const std::uint64_t insns_before = fpm->stats().total_insns;
  net::Packet pkt = ring[0];
  std::size_t i = 0;
  for (auto _ : state) {
    pkt = ring[i++ % kPrebuiltRing];
    auto out = fpm->run(pkt, dut.ingress_ifindex());
    benchmark::DoNotOptimize(out.cycles);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(fpm->stats().total_insns - insns_before));
}
BENCHMARK(BM_RouterFpmNsPerInsn);

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
