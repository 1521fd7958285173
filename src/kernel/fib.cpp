#include "kernel/fib.h"

#include <algorithm>
#include <functional>

namespace linuxfp::kern {

struct Fib::Node {
  std::unique_ptr<Node> child[2];
  // Routes terminating at this prefix, ascending by metric: front() is the
  // active route, the rest are backups (kernel fib_alias list semantics).
  std::vector<Route> routes;
};

Fib::Fib() : root_(std::make_unique<Node>()) {}
Fib::~Fib() = default;

namespace {
// Bit i (0 = MSB) of an IPv4 address.
inline int addr_bit(std::uint32_t addr, std::uint8_t i) {
  return (addr >> (31 - i)) & 1u;
}

// Each index level consumes kStride address bits; a slot word with kChildTag
// set points to the next level's table.
constexpr unsigned kStride = 8;
constexpr std::uintptr_t kChildTag = 1;
static_assert(alignof(Route) > kChildTag,
              "a route's address must leave the child tag bit clear");

// The slot of a level-`level` table that `addr` selects.
inline unsigned slot_of(std::uint32_t addr, unsigned level) {
  return (addr >> (32 - kStride * (level + 1))) & ((1u << kStride) - 1);
}
}  // namespace

Fib::Node* Fib::walk_to(const net::Ipv4Prefix& prefix) const {
  Node* node = root_.get();
  std::uint32_t addr = prefix.network().value();
  for (std::uint8_t i = 0; i < prefix.prefix_len(); ++i) {
    int b = addr_bit(addr, i);
    if (!node->child[b]) return nullptr;
    node = node->child[b].get();
  }
  return node;
}

void Fib::add_route(const Route& route) {
  Node* node = root_.get();
  std::uint32_t addr = route.dst.network().value();
  // A new trie node deepens the walk of every address under it, not only of
  // those under the route's prefix, so the index is recompiled from the
  // shallowest node this add creates.
  unsigned changed_len = route.dst.prefix_len();
  for (std::uint8_t i = 0; i < route.dst.prefix_len(); ++i) {
    int b = addr_bit(addr, i);
    if (!node->child[b]) {
      node->child[b] = std::make_unique<Node>();
      changed_len = std::min<unsigned>(changed_len, i + 1u);
    }
    node = node->child[b].get();
  }
  // Replace an existing (prefix, metric) entry; otherwise insert keeping the
  // list sorted so a same-prefix backup route with a higher metric coexists
  // instead of being dropped.
  auto it = std::find_if(
      node->routes.begin(), node->routes.end(),
      [&](const Route& r) { return r.metric == route.metric; });
  if (it != node->routes.end()) {
    *it = route;
  } else {
    it = std::upper_bound(
        node->routes.begin(), node->routes.end(), route,
        [](const Route& a, const Route& b) { return a.metric < b.metric; });
    node->routes.insert(it, route);
    ++size_;
  }
  reindex(addr, changed_len);
  generation_.fetch_add(1, std::memory_order_relaxed);
}

bool Fib::del_route(const net::Ipv4Prefix& prefix,
                    std::optional<std::uint32_t> metric) {
  Node* node = walk_to(prefix);
  if (!node || node->routes.empty()) return false;
  if (metric) {
    auto it = std::find_if(
        node->routes.begin(), node->routes.end(),
        [&](const Route& r) { return r.metric == *metric; });
    if (it == node->routes.end()) return false;
    node->routes.erase(it);
  } else {
    node->routes.erase(node->routes.begin());
  }
  --size_;
  reindex(prefix.network().value(), prefix.prefix_len());
  generation_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::optional<Route> Fib::get_route(const net::Ipv4Prefix& prefix,
                                    std::optional<std::uint32_t> metric) const {
  const Node* node = walk_to(prefix);
  if (!node || node->routes.empty()) return std::nullopt;
  if (!metric) return node->routes.front();
  for (const Route& r : node->routes) {
    if (r.metric == *metric) return r;
  }
  return std::nullopt;
}

std::vector<Route> Fib::purge_interface(int ifindex) {
  std::vector<Route> removed;
  std::function<void(Node*)> walk = [&](Node* node) {
    if (!node) return;
    auto it = node->routes.begin();
    while (it != node->routes.end()) {
      if (it->oif == ifindex) {
        removed.push_back(*it);
        it = node->routes.erase(it);
        --size_;
      } else {
        ++it;
      }
    }
    walk(node->child[0].get());
    walk(node->child[1].get());
  };
  walk(root_.get());
  for (const Route& r : removed) {
    reindex(r.dst.network().value(), r.dst.prefix_len());
  }
  if (!removed.empty()) generation_.fetch_add(1, std::memory_order_relaxed);
  return removed;
}

std::optional<FibResult> Fib::lookup(net::Ipv4Addr dst) const {
  const std::uint32_t addr = dst.value();
  const Table* table = &index_;
  unsigned i = slot_of(addr, 0);
  std::uintptr_t word = table->slot[i].load(std::memory_order_acquire);
  for (unsigned level = 1; word & kChildTag; ++level) {
    table = reinterpret_cast<const Table*>(word & ~kChildTag);
    i = slot_of(addr, level);
    word = table->slot[i].load(std::memory_order_acquire);
  }
  const Route* best = reinterpret_cast<const Route*>(word);
  if (!best) return std::nullopt;
  FibResult res;
  res.route = *best;
  res.next_hop = best->gateway.is_zero() ? dst : best->gateway;
  res.depth = table->depth[i].load(std::memory_order_relaxed);
  return res;
}

// --- lookup index -------------------------------------------------------------

Fib::Leaf Fib::descend(Leaf leaf, const Node* node, unsigned len) {
  if (!node) return leaf;
  return {node->routes.empty() ? leaf.best : &node->routes.front(),
          static_cast<std::uint8_t>(len)};
}

void Fib::reindex(std::uint32_t addr, unsigned len) {
  Table* table = &index_;
  const Node* node = root_.get();
  Leaf leaf = descend({nullptr, 0}, node, 0);
  unsigned walked = 0;
  for (unsigned level = 0;; ++level) {
    // Walk the trie down to the prefix or to this level's slot boundary,
    // whichever is shorter.
    const unsigned boundary = kStride * (level + 1);
    const unsigned stop = std::min(len, boundary);
    for (; walked < stop && node; ++walked) {
      node = node->child[addr_bit(addr, static_cast<std::uint8_t>(walked))]
                 .get();
      leaf = descend(leaf, node, walked + 1);
    }
    walked = stop;
    if (len <= boundary) {
      // The prefix covers whole slots of this table.
      const unsigned bits = boundary - len;
      fill(*table, level, slot_of(addr, level) & ~((1u << bits) - 1), bits,
           node, len, leaf);
      return;
    }
    // The prefix lies under one slot: descend into its table, or give the
    // slot one now that nodes lie below it.
    const unsigned i = slot_of(addr, level);
    const std::uintptr_t word = table->slot[i].load(std::memory_order_relaxed);
    if (!(word & kChildTag)) {
      fill_slot(*table, level, i, node, leaf);
      return;
    }
    table = reinterpret_cast<Table*>(word & ~kChildTag);
  }
}

void Fib::fill(Table& table, unsigned level, unsigned first, unsigned bits,
               const Node* node, unsigned len, Leaf leaf) {
  if (!node) {
    // No trie node here, so none below: every slot is the inherited leaf.
    for (unsigned i = first; i < first + (1u << bits); ++i) {
      fill_slot(table, level, i, nullptr, leaf);
    }
    return;
  }
  if (bits == 0) {
    fill_slot(table, level, first, node, leaf);
    return;
  }
  for (unsigned b = 0; b < 2; ++b) {
    const Node* child = node->child[b].get();
    fill(table, level, first + (b << (bits - 1)), bits - 1, child, len + 1,
         descend(leaf, child, len + 1));
  }
}

void Fib::fill_slot(Table& table, unsigned level, unsigned i,
                    const Node* node, Leaf leaf) {
  if (!node || (!node->child[0] && !node->child[1])) {
    table.depth[i].store(leaf.depth, std::memory_order_relaxed);
    table.slot[i].store(reinterpret_cast<std::uintptr_t>(leaf.best),
                        std::memory_order_release);
    return;
  }
  // Addresses under this slot walk to different depths: it needs the next
  // level. An existing table is rewritten in place; a new one is filled
  // before the release store publishes it.
  const std::uintptr_t word = table.slot[i].load(std::memory_order_relaxed);
  if (word & kChildTag) {
    fill(*reinterpret_cast<Table*>(word & ~kChildTag), level + 1, 0, kStride,
         node, kStride * (level + 1), leaf);
    return;
  }
  Table* next = tables_.emplace_back(std::make_unique<Table>()).get();
  fill(*next, level + 1, 0, kStride, node, kStride * (level + 1), leaf);
  table.slot[i].store(reinterpret_cast<std::uintptr_t>(next) | kChildTag,
                      std::memory_order_release);
}

std::vector<Route> Fib::dump() const {
  std::vector<Route> out;
  std::function<void(const Node*)> walk = [&](const Node* node) {
    if (!node) return;
    for (const Route& r : node->routes) out.push_back(r);
    walk(node->child[0].get());
    walk(node->child[1].get());
  };
  walk(root_.get());
  return out;
}

}  // namespace linuxfp::kern
