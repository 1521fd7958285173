// The eBPF interpreter with cycle accounting.
//
// Executes verified programs against a packet + context. Cycles charged:
// per-instruction cost, per-helper base cost plus whatever the helper itself
// charges (e.g. a FIB lookup charges the kernel's LPM cost), and a tail-call
// penalty per transition — the source of the Fig 10 result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ebpf/program.h"
#include "kernel/cost_model.h"
#include "net/packet.h"

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
  void set_cpu(unsigned cpu) { cpu_ = cpu; }
  unsigned cpu() const { return cpu_; }

  // Binds per-helper-call counters ("ebpf.helper.<name>.calls"), map
  // hit/miss counters and the tail-call counter to `registry` (null
  // unbinds). Counter pointers for every registered helper are resolved
  // eagerly here (creation is control-plane-only; worker threads must never
  // insert into the registry), so the per-call cost is one indexed relaxed
  // increment.
  void set_metrics(util::MetricsRegistry* registry);

 private:
  friend class HelperContext;

  struct RunState {
    net::Packet* pkt = nullptr;
    std::uint8_t stack[kStackSize];
    std::uint8_t ctx[kCtxSize];
    // One extra slot (kImmSlot) mirrors the current instruction's immediate
    // so operand selection is an unconditional indexed load.
    std::uint64_t regs[kNumRegs + 1];
    engine::FlowCacheRecorder* recorder = nullptr;
    std::uint64_t extra_cycles = 0;
    int redirect_ifindex = 0;
    int redirect_xsk = -1;
    // Live map-value spans handed out by map_lookup during this run.
    struct Span {
      std::uint8_t* base;
      std::size_t size;
    };
    std::vector<Span> spans;
  };

  util::Result<std::uint8_t*> translate(std::uint64_t tagged, std::size_t len);
  util::Counter* helper_counter(std::uint32_t helper_id);

  // The pre-decoded interpreter loop; state_ must be live.
  VmResult interpret(const Program& prog, HelperContext& hctx);

  const kern::CostModel& cost_;
  const HelperRegistry& helpers_;
  MapSet& maps_;
  const std::vector<Program>* prog_table_;
  unsigned cpu_ = 0;
  RunState* state_ = nullptr;  // valid during run()

  util::MetricsRegistry* metrics_ = nullptr;
  std::vector<util::Counter*> helper_counters_;  // indexed by helper id
  util::Counter* map_hits_ = nullptr;
  util::Counter* map_misses_ = nullptr;
  util::Counter* tail_call_counter_ = nullptr;
};

}  // namespace linuxfp::ebpf
