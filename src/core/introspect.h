// Service Introspection: maintains a WorldView of the kernel configuration
// by (1) issuing full dumps at startup and (2) subscribing to netlink
// multicast groups for incremental updates (paper §IV-C1, §V "Controller").
//
// Every notification carries the object it changed, so poll() applies it to
// the view in place: an event costs O(change), not O(table). A table dump is
// not cheap (about 1.2 ms for a 1k-rule FORWARD chain), so dumps happen only
// in initial_sync() and to re-sync a table whose last dump failed.
//
// Each applied change is also recorded as what it touched (ViewChanges), so
// a consumer re-derives only the devices a change can reach.
#pragma once

#include <array>
#include <utility>
#include <vector>

#include "core/objects.h"
#include "netlink/netlink.h"

namespace linuxfp::core {

// What the view changes since the last take_changes() touched.
struct ViewChanges {
  // The links that changed, appeared or were deleted, by ifindex, unsorted
  // and possibly repeated. A bridge's own change also names its ports,
  // whose descriptions read the bridge; an enslave or release names the
  // port. A dump names every link before and after it.
  std::vector<int> links;
  // Routes, rules, sysctls or services changed, or were re-dumped: the
  // inputs every device's description shares.
  bool shared = false;
};

class ServiceIntrospection {
 public:
  // Opens a socket on the bus and joins all relevant multicast groups.
  explicit ServiceIntrospection(nl::Bus& bus);

  // Full dump (RTM_GET* for every subsystem). Notifications queued before it
  // are dropped: the bus is synchronous, so the dump already includes them.
  void initial_sync();

  // Re-syncs stale tables, then applies pending notifications; returns true
  // if the view changed in a way that can affect the fast path.
  bool poll();

  const WorldView& view() const { return view_; }
  // What changed since the last call (initial_sync() changes everything).
  ViewChanges take_changes() { return std::exchange(changes_, {}); }

  std::uint64_t events_processed() const { return events_; }
  // Netlink dump reads that failed (fault-injected). The affected table
  // kept its stale-but-coherent contents and is re-dumped by the next poll.
  std::uint64_t dump_failures() const { return dump_failures_; }

 private:
  // The view's tables, one dump each, in dump order. Address events update
  // links.
  enum Table {
    kLinks,
    kRoutes,
    kRules,
    kSets,
    kNeighbors,
    kServices,
    kSysctls,
    kTableCount
  };
  static Table table_of(nl::MsgType type);

  // Replaces one table from a dump. On a failed dump the table keeps its
  // contents (a torn half-refresh would be worse) and is marked stale.
  bool sync(Table table);
  bool apply(const nl::Message& msg);
  bool apply_rule(const util::Json& attrs);
  // Applies a link's new object (or its deletion) and keeps the port list
  // of its old and new master in step.
  void apply_link(LinkObject link, bool del);
  // Lists `port` in its master's port list, in ifindex order.
  void list_port(const LinkObject& port);
  void unlist_port(int master, int port_ifindex);

  nl::Bus& bus_;
  nl::Socket* socket_;
  WorldView view_;
  ViewChanges changes_;
  std::array<bool, kTableCount> stale_{};
  std::uint64_t events_ = 0;
  std::uint64_t dump_failures_ = 0;
};

}  // namespace linuxfp::core
