#include "core/capability.h"

#include "ebpf/kernel_helpers.h"

namespace linuxfp::core {

std::vector<std::uint32_t> CapabilityManager::required_helpers(
    const std::string& fpm) {
  if (fpm == "bridge") {
    return {ebpf::kHelperFdbLookup, ebpf::kHelperRedirect};
  }
  if (fpm == "router") {
    return {ebpf::kHelperFibLookup, ebpf::kHelperRedirect};
  }
  if (fpm == "filter") {
    return {ebpf::kHelperIptLookup};
  }
  if (fpm == "loadbalance") {
    return {ebpf::kHelperCtLookup};
  }
  return {};
}

bool CapabilityManager::supports(const std::string& fpm) const {
  for (std::uint32_t id : required_helpers(fpm)) {
    if (!helpers_.supports(id)) return false;
  }
  return true;
}

util::Json CapabilityManager::prune(const util::Json& graphs,
                                    std::vector<std::string>* dropped) const {
  util::Json out = util::Json::array();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const util::Json& graph = graphs.at(i);
    util::Json pruned = util::Json::object();
    pruned["device"] = graph.at("device");
    pruned["ifindex"] = graph.at("ifindex");
    pruned["hook"] = graph.at("hook");
    pruned["dev_mac"] = graph.at("dev_mac");
    const util::Json& in_nodes = graph.at("nodes");
    const std::string device = graph.at("device").as_string();
    bool has_bridge = in_nodes.contains("bridge");
    bool has_filter = in_nodes.contains("filter");
    bool has_router = in_nodes.contains("router");
    bool has_lb = in_nodes.contains("loadbalance");

    bool keep_bridge = has_bridge && supports("bridge");
    bool keep_filter = has_filter && supports("filter");
    bool keep_lb = has_lb && supports("loadbalance");
    // Correctness over speed: if filtering (or ipvs NAT) is configured but
    // its FPM cannot be synthesized, the router FPM must not be deployed
    // either — a routing-only fast path would bypass iptables / forward
    // un-NATed VIP traffic. The whole L3 pipeline stays on the
    // (always-correct) slow path.
    bool keep_router = has_router && supports("router") &&
                       (!has_filter || keep_filter) && (!has_lb || keep_lb);
    if (!keep_router) {
      keep_filter = false;
      keep_lb = false;
    }

    auto report = [&](const char* name) {
      if (dropped) dropped->push_back(device + ":" + name);
    };
    if (has_bridge && !keep_bridge) report("bridge");
    if (has_lb && !keep_lb) report("loadbalance");
    if (has_filter && !keep_filter) report("filter");
    if (has_router && !keep_router) report("router");

    util::Json nodes = util::Json::object();
    if (keep_bridge) {
      if (keep_router) {
        nodes["bridge"] = in_nodes.at("bridge");
      } else {
        // Strip a dangling next_nf reference.
        util::Json bridge = util::Json::object();
        bridge["conf"] = in_nodes.at("bridge").at("conf");
        nodes["bridge"] = bridge;
      }
    }
    if (keep_lb) nodes["loadbalance"] = in_nodes.at("loadbalance");
    if (keep_filter) nodes["filter"] = in_nodes.at("filter");
    if (keep_router) nodes["router"] = in_nodes.at("router");
    if (nodes.size() > 0) {
      pruned["nodes"] = nodes;
      out.push_back(pruned);
    }
  }
  return out;
}

}  // namespace linuxfp::core
