// Forwarding Information Base, modeling the kernel's fib_trie. This is the
// authoritative routing state shared by the slow path and (via the
// bpf_fib_lookup helper) the fast path.
//
// Two structures, one state. A binary trie over IPv4 prefixes stores the
// routes: every mutation, get_route and dump use it, and its shape defines
// FibResult::depth. Lookups read only a lookup index compiled from the trie,
// of 256-slot tables, one per 8 address bits (at most four levels). A slot
// either points to the next table or holds, leaf-pushed, the active route
// and the trie depth shared by every address it covers, so a lookup makes at
// most four dependent slot loads instead of one per address bit
// (DESIGN.md §8).
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
  // Number of binary-trie nodes a per-bit walk to this destination would
  // visit, counted as fib.depth_total. The index stores it per slot, so it
  // costs the lookup no walk. Depth scales no cost: the cost model charges a
  // constant fib_lookup (slow path) or bpf_fib_lookup_helper (fast path) per
  // lookup. Returned per-result rather than stored on the Fib so concurrent
  // readers never race.
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
  // One level of the lookup index: a slot per value of the next 8 address
  // bits. A slot word with its low bit set points to the next level's
  // Table; otherwise it is the active route's address (null: no route), and
  // depth[i] is the trie depth of every address under the slot. A table is
  // filled before the release store that publishes it, and lookups load
  // slots with acquire, so a concurrent lookup sees the old slot or the new
  // one. Tables are never freed while the Fib lives, like trie nodes.
  struct Table {
    std::atomic<std::uintptr_t> slot[256];
    std::atomic<std::uint8_t> depth[256];
  };
  // What the index pushes down to a slot: the active route at or above a
  // trie position and the depth of the deepest node on the path to it.
  struct Leaf {
    const Route* best;
    std::uint8_t depth;
  };

  Node* walk_to(const net::Ipv4Prefix& prefix) const;
  // `leaf` carried down to trie position `len`, where `node` sits (null: no
  // node there): a node deepens it and its active route replaces `best`.
  static Leaf descend(Leaf leaf, const Node* node, unsigned len);
  // Recompiles every index slot that covers an address of the first `len`
  // bits of `addr`.
  void reindex(std::uint32_t addr, unsigned len);
  // Rewrites the 2^bits slots of `table` (at `level`) from `first` on,
  // which together cover the trie position of prefix length `len` where
  // `node` sits (null: no node there); `leaf` already includes `node`.
  void fill(Table& table, unsigned level, unsigned first, unsigned bits,
            const Node* node, unsigned len, Leaf leaf);
  // Rewrites slot `i` of `table` (at `level`), whose prefix's trie node is
  // `node`: a leaf when no node lies below it, otherwise the next level's
  // table, filled before it is published when it is new.
  void fill_slot(Table& table, unsigned level, unsigned i, const Node* node,
                 Leaf leaf);

  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
  std::atomic<std::uint64_t> generation_{0};
  Table index_{};                               // level 0: address bits 0-7
  std::vector<std::unique_ptr<Table>> tables_;  // levels 1-3, never freed
};

}  // namespace linuxfp::kern
