// Forwarding Information Base: an LPM binary trie over IPv4 prefixes,
// modeling the kernel's fib_trie. This is the authoritative routing state
// shared by the slow path and (via the bpf_fib_lookup helper) the fast path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/ipaddr.h"
#include "util/result.h"

namespace linuxfp::kern {

enum class RouteScope { kLink, kGlobal };  // link = directly connected subnet

struct Route {
  net::Ipv4Prefix dst;
  net::Ipv4Addr gateway;   // zero for directly connected routes
  int oif = 0;             // egress interface index
  RouteScope scope = RouteScope::kGlobal;
  std::uint32_t metric = 0;

  bool operator==(const Route& o) const {
    return dst == o.dst && gateway == o.gateway && oif == o.oif &&
           scope == o.scope && metric == o.metric;
  }
};

struct FibResult {
  Route route;
  // The address to resolve at L2: the gateway, or the destination itself for
  // directly connected routes.
  net::Ipv4Addr next_hop;
  // Number of trie nodes visited by this lookup, counted as fib.depth_total.
  // Depth scales no cost: the cost model charges a constant fib_lookup (slow
  // path) or bpf_fib_lookup_helper (fast path) per lookup. Returned
  // per-result rather than stored on the Fib so concurrent readers never
  // race.
  std::size_t depth = 0;
};

class Fib {
 public:
  Fib();
  ~Fib();
  Fib(const Fib&) = delete;
  Fib& operator=(const Fib&) = delete;

  // Inserts or replaces the route for (prefix, metric): same-prefix routes
  // with distinct metrics coexist (a backup route survives), and re-adding
  // an existing (prefix, metric) replaces it, mirroring `ip route replace`.
  void add_route(const Route& route);
  // Removes a route for this prefix. With a metric, removes exactly
  // (prefix, metric); without, removes the active (lowest-metric) route.
  // Returns false if no matching route exists.
  bool del_route(const net::Ipv4Prefix& prefix,
                 std::optional<std::uint32_t> metric = std::nullopt);
  // The route del_route would remove, without removing it.
  std::optional<Route> get_route(
      const net::Ipv4Prefix& prefix,
      std::optional<std::uint32_t> metric = std::nullopt) const;
  // Removes all routes whose egress is this interface (link-down semantics).
  std::vector<Route> purge_interface(int ifindex);

  // Longest-prefix-match lookup; among same-prefix routes the lowest metric
  // wins.
  std::optional<FibResult> lookup(net::Ipv4Addr dst) const;

  std::vector<Route> dump() const;
  std::size_t size() const { return size_; }

  // Monotonic mutation counter: bumped whenever the route set changes.
  // Fast-path caches snapshot it and revalidate with a relaxed load, so a
  // stale cached FIB decision can never outlive the mutation that made it
  // stale.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

 private:
  struct Node;
  Node* walk_to(const net::Ipv4Prefix& prefix) const;
  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace linuxfp::kern
