// Capability Manager: ensures the system supports the fast path being built
// (paper §V) by checking each FPM's required helpers against the helper set
// the target kernel exposes. Unsupportable nodes are pruned from the graph —
// e.g. on a mainline kernel without the paper's bpf_fdb_lookup patch, bridge
// FPMs are not synthesized and bridging stays on the slow path.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "ebpf/program.h"
#include "util/json.h"

namespace linuxfp::core {

class CapabilityManager {
 public:
  explicit CapabilityManager(const ebpf::HelperRegistry& helpers)
      : helpers_(helpers) {}

  // Helpers an FPM requires (static storage; empty for an unknown FPM).
  static std::span<const std::uint32_t> required_helpers(
      const std::string& fpm);

  bool supports(const std::string& fpm) const;

  // Returns `graphs` with unsupported nodes removed (and dangling next_nf
  // references fixed up). Kept fields and nodes are moved, not copied, into
  // the result: pass a graph set that is no longer needed with std::move; an
  // lvalue is copied once on the way in. Names of dropped nodes are appended
  // to `dropped` when provided.
  util::Json prune(util::Json graphs,
                   std::vector<std::string>* dropped = nullptr) const;

 private:
  const ebpf::HelperRegistry& helpers_;
};

}  // namespace linuxfp::core
