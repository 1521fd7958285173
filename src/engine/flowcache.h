// Microflow verdict cache with generation-vector coherence (OVS-style
// microflow cache applied to the eBPF fast path).
//
// A miss runs the program normally while a FlowCacheRecorder observes the
// run: which kernel subsystems its helpers consulted (the dependency mask),
// which packet-header bytes it read and wrote (byte-granular bitmasks over a
// bounded 64-byte window), and which conntrack/FDB side effects it performed
// (replay ops). If the run was replayable, the cache stores the verdict, the
// header byte diff and a snapshot of the generation counters of every
// subsystem in the dependency mask.
//
// A later packet with identical ctx-visible fields and identical bytes under
// the read mask hits the entry: the cache validates the generation vector
// with relaxed loads (every mutating kernel object bumps a monotonic
// counter), re-performs the recorded conntrack lookups (comparing the
// observed outputs, so per-packet conntrack churn needs no generation
// traffic), replays the byte diff and returns the stored verdict for a small
// fixed CostModel charge — skipping the interpreter entirely.
//
// Coherence argument (DESIGN.md §12): a cached verdict is a pure function of
//   (a) the bytes under the read mask + ctx fields   -> compared exactly,
//   (b) kernel state reachable through helpers        -> generation-guarded
//                                                        or replay-validated,
//   (c) the deployed program                          -> epoch-guarded.
// Runs that escape this model (ktime, map access, reads beyond the window,
// AF_XDP, aborts) are conservatively uncacheable.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "kernel/kernel.h"
#include "kernel/netdev.h"
#include "net/headers.h"
#include "net/packet.h"
#include "util/metrics.h"

namespace linuxfp::engine {

// --- dependency mask ---------------------------------------------------------

// One bit per kernel subsystem a helper can consult during a run. The cache
// only validates the generation counters of subsystems in the mask, so a
// pure L2 program is not invalidated by route churn and vice versa.
enum DepBit : std::uint32_t {
  kDepFib = 1u << 0,
  kDepBridge = 1u << 1,
  kDepNeigh = 1u << 2,
  kDepNetfilter = 1u << 3,
  kDepIpSet = 1u << 4,
  kDepConntrack = 1u << 5,
  kDepDevice = 1u << 6,  // link/addr/sysctl/master config
};

// Snapshot of every subsystem generation counter; matches() only compares
// the components selected by the dependency mask.
struct GenVector {
  std::uint64_t fib = 0;
  std::uint64_t bridge = 0;
  std::uint64_t neigh = 0;
  std::uint64_t netfilter = 0;
  std::uint64_t ipset = 0;
  std::uint64_t conntrack = 0;
  std::uint64_t dev = 0;

  static GenVector snapshot(const kern::Kernel& kernel) {
    GenVector g;
    g.fib = kernel.fib().generation();
    g.bridge = kernel.bridge_generation();
    g.neigh = kernel.neigh().generation();
    g.netfilter = kernel.netfilter().generation();
    g.ipset = kernel.ipsets().generation();
    g.conntrack = kernel.conntrack().generation();
    g.dev = kernel.dev_generation();
    return g;
  }

  bool matches(const GenVector& current, std::uint32_t deps) const {
    if ((deps & kDepFib) && fib != current.fib) return false;
    if ((deps & kDepBridge) && bridge != current.bridge) return false;
    if ((deps & kDepNeigh) && neigh != current.neigh) return false;
    if ((deps & kDepNetfilter) && netfilter != current.netfilter) return false;
    if ((deps & kDepIpSet) && ipset != current.ipset) return false;
    if ((deps & kDepConntrack) && conntrack != current.conntrack) return false;
    if ((deps & kDepDevice) && dev != current.dev) return false;
    return true;
  }
};

// --- replay ops --------------------------------------------------------------

// A conntrack consultation recorded during the cached run. On a hit the
// cache re-performs the identical lookup (so per-packet side effects —
// last_seen refresh, packet counts, NEW->ESTABLISHED promotion — happen
// exactly as a full run would) and compares the observed outputs against
// what the cached run saw; any difference falls back to a full run. This is
// why per-packet conntrack refreshes do not need to bump the conntrack
// generation counter.
struct CtReplayOp {
  net::FlowKey key;
  bool lookup_or_create = false;  // ipt path creates; ct_lookup is pure
  // Observations from the recorded run:
  bool expect_found = true;            // pure-lookup only
  std::uint8_t expect_ct_state = 0;    // 1 = ESTABLISHED
  bool expect_reply_dir = false;
  bool expect_rewrite = false;
  std::uint32_t expect_rewrite_addr = 0;
  std::uint16_t expect_rewrite_port = 0;
};

// An FDB refresh performed by bpf_fdb_lookup during the cached run. Replayed
// on every hit so fast-path traffic keeps its bridge FDB entry alive (entry
// aging support) without the interpreter. Same-port refreshes do not bump
// the bridge generation, so the replay never self-invalidates.
struct FdbReplayOp {
  int bridge_ifindex = 0;
  net::MacAddr smac;
  std::uint16_t vlan = 0;
  int port_ifindex = 0;
};

// --- recorder ----------------------------------------------------------------

// Rides along with one VM run and captures everything the cache needs to
// decide cacheability and build an entry. Owned by the FlowCache (one per
// CPU, reused per packet); the VM and the kernel helpers call into it.
class FlowCacheRecorder {
 public:
  // Bounded header window the cache understands. Reads or writes beyond it
  // make the run uncacheable (Eth+IPv4+TCP is 54 bytes; 64 covers the
  // realistic header stack while keeping the diff fixed-size).
  static constexpr std::size_t kHeaderWindow = 64;

  void begin(const net::Packet& pkt) {
    deps_ = 0;
    read_mask_ = 0;
    write_mask_ = 0;
    uncacheable_ = false;
    reason_ = nullptr;
    ct_ops_.clear();
    fdb_ops_.clear();
    pre_len_ = pkt.size() < kHeaderWindow ? pkt.size() : kHeaderWindow;
    std::memcpy(pre_bytes_.data(), pkt.data(), pre_len_);
  }

  void add_dep(std::uint32_t bits) { deps_ |= bits; }

  void mark_uncacheable(const char* reason) {
    uncacheable_ = true;
    reason_ = reason;
  }
  bool uncacheable() const { return uncacheable_; }
  const char* uncacheable_reason() const { return reason_; }

  void note_packet_read(std::size_t off, std::size_t len) {
    if (off + len > kHeaderWindow) {
      mark_uncacheable("packet read beyond header window");
      return;
    }
    read_mask_ |= mask_bits(off, len);
  }
  void note_packet_write(std::size_t off, std::size_t len) {
    if (off + len > kHeaderWindow) {
      mark_uncacheable("packet write beyond header window");
      return;
    }
    write_mask_ |= mask_bits(off, len);
  }

  void add_ct_replay(const CtReplayOp& op) { ct_ops_.push_back(op); }
  void add_fdb_refresh(const FdbReplayOp& op) { fdb_ops_.push_back(op); }

  std::uint32_t deps() const { return deps_; }
  std::uint64_t read_mask() const { return read_mask_; }
  std::uint64_t write_mask() const { return write_mask_; }
  const std::array<std::uint8_t, kHeaderWindow>& pre_bytes() const {
    return pre_bytes_;
  }
  std::size_t pre_len() const { return pre_len_; }
  const std::vector<CtReplayOp>& ct_ops() const { return ct_ops_; }
  const std::vector<FdbReplayOp>& fdb_ops() const { return fdb_ops_; }

 private:
  static std::uint64_t mask_bits(std::size_t off, std::size_t len) {
    // len <= 8 in practice (sized loads/stores) but helpers can touch
    // larger spans; build the run without shifting by >= 64.
    if (len == 0) return 0;
    std::uint64_t span = (len >= 64) ? ~0ull : ((1ull << len) - 1);
    return span << off;
  }

  std::uint32_t deps_ = 0;
  std::uint64_t read_mask_ = 0;   // 1 bit per byte of the header window
  std::uint64_t write_mask_ = 0;
  bool uncacheable_ = false;
  const char* reason_ = nullptr;
  std::size_t pre_len_ = 0;
  std::array<std::uint8_t, kHeaderWindow> pre_bytes_{};
  std::vector<CtReplayOp> ct_ops_;
  std::vector<FdbReplayOp> fdb_ops_;
};

// --- the cache ---------------------------------------------------------------

// One cache's outcome counts. Each per-CPU cache is the only store of its
// events: the owning worker adds with util::shard_add, and the registry's
// "flowcache.*" names are summed from the caches on read (Attachment).
struct FlowCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;  // stale generation vector or epoch
  std::uint64_t evictions = 0;      // live entry replaced by a new flow
  std::uint64_t uncacheable = 0;    // miss whose run could not be cached
  std::uint64_t replay_mismatch = 0;  // conntrack replay observed a change

  FlowCacheStats& operator+=(const FlowCacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    invalidations += o.invalidations;
    evictions += o.evictions;
    uncacheable += o.uncacheable;
    replay_mismatch += o.replay_mismatch;
    return *this;
  }
};

// Per-CPU set-associative exact-match cache indexed by the packet's RSS
// Toeplitz hash (computed once at the simulated NIC and stashed in the
// packet). Set-associative (OVS-EMC style) rather than direct-mapped because
// the symmetric RSS key is 16-bit periodic — a hard requirement for
// bidirectional flow affinity — which collapses the hash image enough that
// distinct 5-tuples routinely share a hash; the ways absorb those
// collisions. Single-threaded by construction — each engine worker owns its
// cache, and the sim path owns CPU 0's — so probes and inserts never
// synchronize; only the generation-counter loads are atomic, and the stats
// are single-writer shards that stats() may read from any thread.
class FlowCache {
 public:
  static constexpr std::size_t kWays = 4;

  explicit FlowCache(std::size_t entries = 1024);

  struct Hit {
    std::uint64_t act = 0;  // raw XDP action code; caller maps to a verdict
    int redirect_ifindex = 0;
  };

  // Probes the cache for `pkt`. On a hit: validates the generation vector,
  // re-performs recorded conntrack ops, replays the header diff onto the
  // packet and fills `out`. Returns false on miss/invalid/mismatch (the
  // caller runs the program; stats are updated either way).
  bool try_hit(net::Packet& pkt, int ingress_ifindex, std::uint64_t epoch,
               kern::Kernel& kernel, Hit* out);

  // Builds an entry from a completed miss run. `rec` is the recorder that
  // observed the run; `pkt` is the post-run packet (write-mask bytes are
  // captured from it). No-op (counted as uncacheable) if the run escaped the
  // replayable model.
  void insert(const net::Packet& pkt, int ingress_ifindex, std::uint64_t epoch,
              const kern::Kernel& kernel, const FlowCacheRecorder& rec,
              std::uint64_t act, int redirect_ifindex, bool cacheable);

  // Recorder for the next miss on this CPU (reused across packets).
  FlowCacheRecorder& recorder() { return recorder_; }

  // Snapshot of the counters; safe while the owning worker runs.
  FlowCacheStats stats() const;
  std::size_t capacity() const { return entries_.size(); }
  std::size_t live_entries() const;
  // Whether a valid entry for this flow hash exists at the given program
  // epoch (steering-migration coherence tests: the hash's warm state is
  // per-CPU, so after a migration the old CPU's cache may still hold it and
  // the new CPU's must re-record).
  bool contains(std::uint32_t rss_hash, std::uint64_t epoch) const;

 private:
  struct Entry {
    bool valid = false;
    std::uint64_t epoch = 0;
    std::uint32_t rss_hash = 0;
    // Exact-match key: every ctx-visible field plus the header bytes the
    // program read. For any program that parses Ethernet + IPv4 + L4 this
    // is a superset of (ingress ifindex, eth addrs/ethertype, 5-tuple).
    int ingress_ifindex = 0;
    std::uint32_t pkt_size = 0;
    std::uint32_t rx_queue = 0;
    std::uint16_t vlan_tci = 0;
    std::uint32_t deps = 0;
    GenVector gens;
    std::uint64_t read_mask = 0;
    std::uint64_t write_mask = 0;
    std::array<std::uint8_t, FlowCacheRecorder::kHeaderWindow> pre_bytes{};
    std::array<std::uint8_t, FlowCacheRecorder::kHeaderWindow> post_bytes{};
    std::uint64_t act = 0;
    int redirect_ifindex = 0;
    std::vector<CtReplayOp> ct_ops;
    std::vector<FdbReplayOp> fdb_ops;
  };

  // First entry of the hash's set; the set spans kWays consecutive entries.
  std::size_t set_base(std::uint32_t hash) const {
    return (hash & set_mask_) * kWays;
  }
  static bool key_matches(const Entry& e, const net::Packet& pkt,
                          int ingress_ifindex, std::uint32_t hash);
  static bool replay_ct(const Entry& e, kern::Kernel& kernel);
  static void replay_fdb(const Entry& e, kern::Kernel& kernel);

  std::size_t set_mask_ = 0;
  std::vector<Entry> entries_;
  std::vector<std::uint8_t> victim_;  // per-set round-robin eviction cursor
  FlowCacheRecorder recorder_;
  FlowCacheStats stats_;
};

}  // namespace linuxfp::engine
