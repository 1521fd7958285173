#include "core/capability.h"

#include "ebpf/kernel_helpers.h"

namespace linuxfp::core {

namespace {

constexpr std::uint32_t kBridgeHelpers[] = {ebpf::kHelperFdbLookup,
                                            ebpf::kHelperRedirect};
constexpr std::uint32_t kRouterHelpers[] = {ebpf::kHelperFibLookup,
                                            ebpf::kHelperRedirect};
constexpr std::uint32_t kFilterHelpers[] = {ebpf::kHelperIptLookup};
constexpr std::uint32_t kLoadBalanceHelpers[] = {ebpf::kHelperCtLookup};

// Moves `value[key]` out, or returns null where util::Json::at would read
// null (no such member, or `value` is not an object).
util::Json take(util::Json& value, const std::string& key) {
  return value.contains(key) ? std::move(value[key]) : util::Json();
}

}  // namespace

std::span<const std::uint32_t> CapabilityManager::required_helpers(
    const std::string& fpm) {
  if (fpm == "bridge") return kBridgeHelpers;
  if (fpm == "router") return kRouterHelpers;
  if (fpm == "filter") return kFilterHelpers;
  if (fpm == "loadbalance") return kLoadBalanceHelpers;
  return {};
}

bool CapabilityManager::supports(const std::string& fpm) const {
  for (std::uint32_t id : required_helpers(fpm)) {
    if (!helpers_.supports(id)) return false;
  }
  return true;
}

util::Json CapabilityManager::prune(util::Json graphs,
                                    std::vector<std::string>* dropped) const {
  util::JsonArray out;
  util::JsonArray* in = graphs.mutable_array();
  if (in == nullptr) return util::Json(std::move(out));
  out.reserve(in->size());
  const bool bridge_ok = supports("bridge");
  const bool filter_ok = supports("filter");
  const bool lb_ok = supports("loadbalance");
  const bool router_ok = supports("router");
  for (util::Json& graph : *in) {
    util::Json in_nodes = take(graph, "nodes");
    bool has_bridge = in_nodes.contains("bridge");
    bool has_filter = in_nodes.contains("filter");
    bool has_router = in_nodes.contains("router");
    bool has_lb = in_nodes.contains("loadbalance");

    bool keep_bridge = has_bridge && bridge_ok;
    bool keep_filter = has_filter && filter_ok;
    bool keep_lb = has_lb && lb_ok;
    // Correctness over speed: if filtering (or ipvs NAT) is configured but
    // its FPM cannot be synthesized, the router FPM must not be deployed
    // either — a routing-only fast path would bypass iptables / forward
    // un-NATed VIP traffic. The whole L3 pipeline stays on the
    // (always-correct) slow path.
    bool keep_router = has_router && router_ok &&
                       (!has_filter || keep_filter) && (!has_lb || keep_lb);
    if (!keep_router) {
      keep_filter = false;
      keep_lb = false;
    }

    auto report = [&](const char* name) {
      if (dropped) {
        dropped->push_back(graph.at("device").as_string() + ":" + name);
      }
    };
    if (has_bridge && !keep_bridge) report("bridge");
    if (has_lb && !keep_lb) report("loadbalance");
    if (has_filter && !keep_filter) report("filter");
    if (has_router && !keep_router) report("router");

    util::Json nodes = util::Json::object();
    if (keep_bridge) {
      util::Json bridge = take(in_nodes, "bridge");
      if (!keep_router) {
        // Strip a dangling next_nf reference.
        util::Json stripped = util::Json::object();
        stripped["conf"] = take(bridge, "conf");
        bridge = std::move(stripped);
      }
      nodes["bridge"] = std::move(bridge);
    }
    if (keep_lb) nodes["loadbalance"] = take(in_nodes, "loadbalance");
    if (keep_filter) nodes["filter"] = take(in_nodes, "filter");
    if (keep_router) nodes["router"] = take(in_nodes, "router");
    if (nodes.size() == 0) continue;
    util::Json pruned = util::Json::object();
    pruned["device"] = take(graph, "device");
    pruned["ifindex"] = take(graph, "ifindex");
    pruned["hook"] = take(graph, "hook");
    pruned["dev_mac"] = take(graph, "dev_mac");
    pruned["nodes"] = std::move(nodes);
    out.push_back(std::move(pruned));
  }
  return util::Json(std::move(out));
}

}  // namespace linuxfp::core
