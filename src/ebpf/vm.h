// The eBPF interpreter with cycle accounting.
//
// Executes verified programs against a packet + context. Cycles charged:
// per-instruction cost, per-helper base cost plus whatever the helper itself
// charges (e.g. a FIB lookup charges the kernel's LPM cost), and a tail-call
// penalty per transition — the source of the Fig 10 result. The cycles do
// not depend on how a program was decoded: a load or store the verifier
// proved runs a handler that adds its offset to the run's base of its region
// and keeps one length compare; every other access decodes the pointer tag
// and bounds-checks the region it names (DESIGN.md §8).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ebpf/program.h"
#include "kernel/cost_model.h"
#include "net/packet.h"
#include "util/metrics.h"

namespace linuxfp::engine {
class FlowCacheRecorder;
}

namespace linuxfp::ebpf {

struct VmResult {
  std::uint64_t ret = kActAborted;
  std::uint64_t cycles = 0;
  bool aborted = false;
  std::string error;
  int redirect_ifindex = 0;
  int redirect_xsk = -1;  // XSK map slot on AF_XDP redirect
  std::uint64_t insns_executed = 0;
  std::uint32_t tail_calls = 0;
};

class Vm {
 public:
  Vm(const kern::CostModel& cost, const HelperRegistry& helpers,
     MapSet& maps, const std::vector<Program>* prog_table)
      : cost_(cost), helpers_(helpers), maps_(maps), prog_table_(prog_table) {}

  // Runs `prog` on the packet. `kernel` is the kernel whose state the
  // kernel-bound helpers access (nullptr for pure programs). When `recorder`
  // is non-null the run is observed for the microflow verdict cache: packet
  // reads/writes, helper subsystem dependencies and replayable side effects
  // are captured, and non-replayable runs are marked uncacheable.
  VmResult run(const Program& prog, net::Packet& pkt, int ingress_ifindex,
               kern::Kernel* kernel,
               engine::FlowCacheRecorder* recorder = nullptr);

  // The CPU this VM models (one engine worker per CPU). Selects the slot of
  // per-CPU maps and the return value of bpf_get_smp_processor_id. A Vm is
  // single-threaded; parallelism comes from one Vm per CPU over shared maps.
  // It owns the 512 B stack frame its runs use: a run zeroes the frame only
  // from the program's stack floor up, and further down only where it
  // reaches (a tail call into a program with a lower floor, or a helper's
  // or checked access below the zeroed range). So a run never reads a byte
  // an earlier run left, and what it leaves is deterministic.
  void set_cpu(unsigned cpu) { cpu_ = cpu; }
  unsigned cpu() const { return cpu_; }

  // This VM's event counts since construction: calls per registry helper
  // id, bpf_map_lookup_elem hits and misses, tail calls taken, and the FIB
  // lookups bpf_fib_lookup made with the trie depth they walked. Only the
  // VM's own thread adds to them (util::shard_add); any thread may read
  // them. The owning attachment's registry source sums them over its VMs as
  // "ebpf.helper.<name>.calls", "ebpf.map.hits|misses", "ebpf.tail_calls"
  // and "fib.lookups|depth_total".
  std::uint64_t helper_calls(std::uint32_t helper_id) const {
    return helper_id < HelperRegistry::kIdLimit
               ? util::shard_read(counts_.helper_calls[helper_id])
               : 0;
  }
  std::uint64_t map_hits() const { return util::shard_read(counts_.map_hits); }
  std::uint64_t map_misses() const {
    return util::shard_read(counts_.map_misses);
  }
  std::uint64_t tail_calls() const {
    return util::shard_read(counts_.tail_calls);
  }
  std::uint64_t fib_lookups() const {
    return util::shard_read(counts_.fib_lookups);
  }
  std::uint64_t fib_depth_total() const {
    return util::shard_read(counts_.fib_depth_total);
  }

 private:
  friend class HelperContext;

  // A map value handed out by bpf_map_lookup_elem: a map-value pointer's
  // handle indexes the run's spans.
  struct Span {
    std::uint8_t* base;
    std::size_t size;
  };

  struct RunState {
    net::Packet* pkt = nullptr;
    std::uint8_t* stack = nullptr;  // the Vm's frame_
    // Lowest frame byte zeroed so far in this run: [zeroed, kStackSize)
    // holds only bytes this run wrote or zeroed.
    std::size_t zeroed = kStackSize;
    std::uint8_t ctx[kCtxSize];
    std::uint64_t regs[kNumRegs];
    engine::FlowCacheRecorder* recorder = nullptr;
    std::uint64_t extra_cycles = 0;
    int redirect_ifindex = 0;
    int redirect_xsk = -1;
    std::vector<Span>* spans = nullptr;  // the Vm's spans_
  };

  // Zeroes the frame from byte `lo` up to the range already zeroed.
  static void zero_stack_from(RunState& state, std::size_t lo);
  // The host address of `len` bytes at tagged pointer `tagged`, or null when
  // the region or bounds check fails. A stack access below the zeroed range
  // zeroes the gap first. Inline: every checked load and store runs it.
  static std::uint8_t* resolve(RunState& state, std::uint64_t tagged,
                               std::size_t len);
  // resolve() with the reason for a failure, for the abort message of a
  // faulting load or store.
  util::Result<std::uint8_t*> translate(std::uint64_t tagged, std::size_t len);

  // The threaded interpreter loop; state_ must be live.
  VmResult interpret(const Program& prog, HelperContext& hctx);

  // The result of a run aborted after `executed` instructions and
  // `tail_calls` tail calls: ABORTED, `why`, and the cycles charged so far.
  // Out of line and cold, so the interpreter loop carries no abort code.
  [[gnu::cold, gnu::noinline]] VmResult fail(std::string_view why,
                                             std::uint64_t executed,
                                             std::uint32_t tail_calls) const;
  // fail() for a load or store of `len` bytes at `tagged` that resolve()
  // refused, with translate()'s message.
  [[gnu::cold, gnu::noinline]] VmResult fail_access(
      std::uint64_t tagged, std::size_t len, std::uint64_t executed,
      std::uint32_t tail_calls);

  const kern::CostModel& cost_;
  const HelperRegistry& helpers_;
  MapSet& maps_;
  const std::vector<Program>* prog_table_;
  unsigned cpu_ = 0;
  RunState* state_ = nullptr;  // valid during run()
  alignas(8) std::uint8_t frame_[kStackSize] = {};
  // The map-value spans of the current run. A run starts by clearing them
  // and keeps their capacity, so a map hit allocates only when a run holds
  // more spans than any run before it on this VM.
  std::vector<Span> spans_;

  struct Counts {
    std::array<std::uint64_t, HelperRegistry::kIdLimit> helper_calls{};
    std::uint64_t map_hits = 0;
    std::uint64_t map_misses = 0;
    std::uint64_t tail_calls = 0;
    std::uint64_t fib_lookups = 0;
    std::uint64_t fib_depth_total = 0;
  };
  Counts counts_;
};

}  // namespace linuxfp::ebpf
