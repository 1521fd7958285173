// Service Introspection: maintains a WorldView of the kernel configuration
// by (1) issuing full dumps at startup and (2) subscribing to netlink
// multicast groups for incremental updates (paper §IV-C1, §V "Controller").
//
// Every notification carries the object it changed, so poll() applies it to
// the view in place: an event costs O(change), not O(table). A table dump is
// not cheap (about 1.2 ms for a 1k-rule FORWARD chain), so dumps happen only
// in initial_sync() and to re-sync a table whose last dump failed.
#pragma once

#include <array>

#include "core/objects.h"
#include "netlink/netlink.h"

namespace linuxfp::core {

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

  nl::Bus& bus_;
  nl::Socket* socket_;
  WorldView view_;
  std::array<bool, kTableCount> stale_{};
  std::uint64_t events_ = 0;
  std::uint64_t dump_failures_ = 0;
};

}  // namespace linuxfp::core
