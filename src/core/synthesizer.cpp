#include "core/synthesizer.h"

#include "ebpf/builder.h"
#include "ebpf/kernel_helpers.h"

namespace linuxfp::core {

namespace {

ebpf::HookType hook_from_text(const std::string& text) {
  if (text == "tc") return ebpf::HookType::kTcIngress;
  return ebpf::HookType::kXdp;
}

std::string device_mac_for_l3(const util::Json& graph) {
  // Router-only graphs punt frames not addressed to the device; when a
  // bridge node precedes the router, the bridge MAC is checked instead.
  const util::Json& nodes = graph.at("nodes");
  if (nodes.contains("bridge")) {
    return nodes.at("bridge").at("conf").at("bridge_mac").as_string();
  }
  return graph.at("dev_mac").as_string();
}

}  // namespace

util::Result<SynthesisResult> Synthesizer::synthesize(
    const util::Json& graph, std::uint32_t tail_call_base) const {
  SynthesisResult out;
  out.device = graph.at("device").as_string();
  out.ifindex = static_cast<int>(graph.at("ifindex").as_int());
  out.hook = hook_from_text(graph.at("hook").as_string());
  for (const auto& [name, node] : graph.at("nodes").object_items()) {
    out.fpms.push_back(name);
  }
  if (out.fpms.empty()) {
    return util::Error::make("synth.empty", "graph has no nodes");
  }
  out.tail_call_base = tail_call_base;

  if (mode_ == ChainMode::kInlineCalls) {
    auto prog = synthesize_inline(graph);
    if (!prog.ok()) return prog.error();
    out.programs.push_back(std::move(prog).take());
    return out;
  }
  auto st = synthesize_tailcalls(graph, tail_call_base, out);
  if (!st.ok()) return st.error();
  return out;
}

util::Result<ebpf::Program> Synthesizer::synthesize_inline(
    const util::Json& graph) const {
  const util::Json& nodes = graph.at("nodes");
  ebpf::HookType hook = hook_from_text(graph.at("hook").as_string());
  ebpf::ProgramBuilder b("lfp_" + graph.at("device").as_string(), hook);

  bool has_bridge = nodes.contains("bridge");
  bool has_router = nodes.contains("router");
  bool has_lb = nodes.contains("loadbalance");

  FpmLibrary::emit_prologue(b, /*punt_multicast=*/true);
  if (custom_) custom_(b);
  if (has_lb) {
    FpmLibrary::emit_loadbalance(b, nodes.at("loadbalance").at("conf"));
  }
  if (has_bridge) {
    FpmLibrary::emit_bridge(b, nodes.at("bridge").at("conf"), has_router);
  }
  if (has_router) {
    // Without a filter node this conf reads null, as util::Json::at does
    // for a missing key.
    FpmLibrary::emit_l3(b, nodes.at("filter").at("conf"),
                        nodes.at("router").at("conf"), device_mac_for_l3(graph),
                        /*skip_mac_check=*/has_bridge);
  } else if (!has_bridge) {
    return util::Error::make("synth.nodes", "unsupported node combination");
  }
  // A bridge-only graph falls through into the shared "punt" label:
  // unhandled traffic goes to Linux.
  FpmLibrary::emit_epilogue(b);
  return b.build();
}

util::Status Synthesizer::synthesize_tailcalls(const util::Json& graph,
                                               std::uint32_t base,
                                               SynthesisResult& out) const {
  const util::Json& nodes = graph.at("nodes");
  ebpf::HookType hook = hook_from_text(graph.at("hook").as_string());
  const std::string device = graph.at("device").as_string();

  bool has_bridge = nodes.contains("bridge");
  bool has_router = nodes.contains("router");
  bool has_filter = nodes.contains("filter");
  bool has_lb = nodes.contains("loadbalance");

  // Chain layout: [bridge] -> [loadbalance] -> [filter] -> [router], each
  // its own program. Dispatcher prog-array index of the i-th chain program
  // is base + i.
  std::vector<std::string> chain;
  if (has_bridge) chain.push_back("bridge");
  if (has_lb) chain.push_back("loadbalance");
  if (has_filter) chain.push_back("filter");
  if (has_router) chain.push_back("router");
  if (chain.empty()) {
    return util::Error::make("synth.empty", "graph has no nodes");
  }

  for (std::size_t i = 0; i < chain.size(); ++i) {
    bool last = i + 1 == chain.size();
    std::uint32_t next_index = base + static_cast<std::uint32_t>(i) + 1;
    ebpf::ProgramBuilder b("lfp_" + device + "_" + chain[i], hook);
    FpmLibrary::emit_prologue(b, /*punt_multicast=*/true);
    if (i == 0 && custom_) custom_(b);

    auto emit_next = [&](ebpf::ProgramBuilder& bb) {
      if (last) {
        bb.ja("punt");
        return;
      }
      bb.mov_reg(ebpf::kR1, ebpf::kR6);
      bb.mov(ebpf::kR2, 0);  // dispatcher prog array is always map id 0
      bb.mov(ebpf::kR3, next_index);
      bb.call(ebpf::kHelperTailCall);
      bb.ja("punt");  // tail-call miss: degrade to the slow path
    };

    if (chain[i] == "bridge") {
      // In tail-call mode the bridge cannot fall through to the router
      // inline; frames to the bridge MAC tail-call the next program.
      FpmLibrary::emit_bridge(b, nodes.at("bridge").at("conf"),
                              /*has_l3_next=*/!last);
      if (!last) {
        b.label("l3_entry");
        emit_next(b);
      }
    } else if (chain[i] == "loadbalance") {
      FpmLibrary::emit_loadbalance(b, nodes.at("loadbalance").at("conf"));
      emit_next(b);
    } else if (chain[i] == "filter") {
      // Standalone filter: runs before routing, so output-interface rules
      // cannot be evaluated here — punt everything if any exist (slow path
      // stays correct; paper: unsupported constructs stay on the slow path).
      const util::Json& fconf = nodes.at("filter").at("conf");
      if (fconf.at("has_out_if").as_bool()) {
        b.ja("punt");
      } else {
        FpmLibrary::emit_filter_only(b, fconf);
        emit_next(b);
      }
    } else {  // router
      FpmLibrary::emit_l3(b, util::Json(nullptr),
                          nodes.at("router").at("conf"),
                          device_mac_for_l3(graph),
                          /*skip_mac_check=*/has_bridge);
    }

    FpmLibrary::emit_epilogue(b);
    auto prog = b.build();
    if (!prog.ok()) return prog.error();
    out.programs.push_back(std::move(prog).take());
  }
  return {};
}

}  // namespace linuxfp::core
