// Fast Path Synthesizer: turns a per-device processing graph (JSON) into
// eBPF programs via the FPM library, specialized to the current
// configuration (paper §IV-B3, §V "Controller").
//
// Two composition modes are supported:
//  - kInlineCalls (LinuxFP's choice): all FPMs are concatenated into a single
//    program — snippet "function calls" are inlined, no per-hop overhead.
//  - kTailCalls (Polycube's choice): one program per FPM chained with
//    bpf_tail_call. Each program must re-derive its state (re-parse), and
//    every transition costs a tail call — the Fig 10 effect.
#pragma once

#include <string>
#include <vector>

#include "core/fpm_library.h"
#include "ebpf/program.h"
#include "util/json.h"
#include "util/result.h"

namespace linuxfp::core {

enum class ChainMode { kInlineCalls, kTailCalls };

struct SynthesisResult {
  std::string device;
  int ifindex = 0;
  ebpf::HookType hook = ebpf::HookType::kXdp;
  // programs[0] is the chain entry. In tail-call mode programs[i] tail-calls
  // into dispatcher prog-array index (tail_call_base + i + 1), so the
  // deployer must install programs[j] (j >= 1) at index tail_call_base + j.
  std::vector<ebpf::Program> programs;
  std::uint32_t tail_call_base = 1;
  // FPM names included, in order (for logging / tests / reaction model).
  std::vector<std::string> fpms;
};

class Synthesizer {
 public:
  explicit Synthesizer(ChainMode mode = ChainMode::kInlineCalls)
      : mode_(mode) {}

  // Optional custom snippet injected ahead of the synthesized FPMs (paper
  // §VIII: "support the insertion of custom functionality, e.g. for
  // monitoring modules"). The emitter must not fall off the program: it
  // either falls through to the next FPM or jumps to punt/drop.
  using CustomSnippet = std::function<void(ebpf::ProgramBuilder&)>;
  void set_custom_snippet(CustomSnippet snippet) {
    custom_ = std::move(snippet);
  }

  // Synthesizes one device graph. `tail_call_base` is the dispatcher
  // prog-array index where the deployer will place programs[1..] (tail-call
  // mode only).
  util::Result<SynthesisResult> synthesize(const util::Json& graph,
                                           std::uint32_t tail_call_base = 1)
      const;

 private:
  util::Result<ebpf::Program> synthesize_inline(const util::Json& graph) const;
  util::Status synthesize_tailcalls(const util::Json& graph,
                                    std::uint32_t base,
                                    SynthesisResult& out) const;

  ChainMode mode_;
  CustomSnippet custom_;
};

}  // namespace linuxfp::core
