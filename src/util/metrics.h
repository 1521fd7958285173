// Datapath observability layer: a process-wide-free, registry-based metric
// store plus a pwru-style per-packet trace ring.
//
// The paper motivates LinuxFP with a per-stage hotspot profile of the kernel
// datapath (Fig 1) and evaluates coherence and reaction time — both need the
// simulated datapath to be observable. Three pieces live here:
//
//  * MetricsRegistry — named monotonic counters (always on, ~one increment
//    per event) and opt-in latency Histograms (OnlineStats + SampleSet).
//    Counter storage is deque-backed so &counter is stable forever; hot
//    paths resolve a name once and add through the cached pointer. Owners
//    that already keep per-CPU stores register a read-time *source* instead
//    of mirroring every event: reads sum the source with the stored counters.
//  * StageSink — a fixed-size open-addressing cache keyed on the *address*
//    of a stage-name string literal, so CycleTrace::charge() costs two
//    plain adds (no `lock` prefix) instead of a string lookup.
//  * PacketTrace / TraceRing — when tracing is enabled on a testbed, each
//    packet records the ordered (layer, stage, cycles) events it hit in the
//    slow path and in the eBPF VM, dumpable as JSON (tools/linuxfptrace).
//
// Each name has one source of truth (DESIGN.md §10). Stored counters, each
// with one datapath writer (owner_add) or only control-plane folds (bump):
//   slowpath.<stage>.calls / .cycles      one pair per CycleTrace stage
//   drop.<reason>                         per-reason drop counts (a mirror
//                                         of KernelCounters::drops, whose
//                                         std::map cannot be read live)
//   fpm.<name>.deployed                   per-FPM deploy counts
//   engine.*                              engine shards, folded at stop()
// Derived on read from single-writer stores (Attachment and Kernel sources):
//   fastpath.<attachment>.<hook>.*        per-attachment verdicts/cycles
//   flowcache.*                           microflow cache outcomes
//   ebpf.helper.<name>.calls              per-helper-call counts (per-CPU Vm)
//   ebpf.map.{hits,misses}, ebpf.tail_calls   map lookups, tail calls taken
//   fib.lookups / fib.depth_total         FIB activity (depth via FibResult):
//                                         bpf_fib_lookup per Vm, plus the
//                                         kernel's own slow-path lookups
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/stats.h"

namespace linuxfp::util {

// Counter storage. Counters are relaxed atomics so that any thread may read
// them while the datapath runs (no fences, no ordering guarantees between
// counters, which monitoring never needs).
using Counter = std::atomic<std::uint64_t>;

// Relaxed atomic increment (a `lock add`), safe from any number of threads.
// For control-plane folds (MetricsRegistry::remove_source, Engine::reconcile,
// deploy counts), never per packet.
inline void bump(Counter* c, std::uint64_t n = 1) {
  c->fetch_add(n, std::memory_order_relaxed);
}

// Single-writer add, shard_add's discipline for a registry counter: only the
// counter's one datapath writer adds through it — for slowpath.* and drop.*,
// the thread running that kernel's slow path (DESIGN.md §11). A relaxed load
// plus store: no `lock` prefix, yet concurrent readers stay race-free.
inline void owner_add(Counter* c, std::uint64_t n = 1) {
  c->store(c->load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

inline std::uint64_t counter_value(const Counter* c) {
  return c->load(std::memory_order_relaxed);
}

// Single-writer shard counter, the per-CPU-map discipline: only the thread
// that owns a shard adds to it, any thread may read it. A relaxed load plus
// store is not an atomic read-modify-write — it compiles to a plain load,
// add and store (the work `c += n` does), with no `lock` prefix — yet it
// makes reads concurrent with the owner race-free.
inline void shard_add(std::uint64_t& c, std::uint64_t n = 1) {
  std::atomic_ref<std::uint64_t> ref(c);
  ref.store(ref.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
}

// Read twin of shard_add (the shard is never written through this ref).
inline std::uint64_t shard_read(const std::uint64_t& c) {
  return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(c))
      .load(std::memory_order_relaxed);
}

// Opt-in latency histogram: Welford summary plus retained samples for exact
// percentiles. record() is a no-op until the owning registry enables
// histograms, so always-on call sites stay cheap.
class Histogram {
 public:
  explicit Histogram(const bool* enabled) : enabled_(enabled) {}

  void record(double v) {
    if (!*enabled_) return;
    stats_.add(v);
    if (samples_.count() < kMaxSamples) samples_.add(v);
  }

  const OnlineStats& stats() const { return stats_; }
  const SampleSet& samples() const { return samples_; }
  std::size_t count() const { return stats_.count(); }

  Json to_json() const;

 private:
  static constexpr std::size_t kMaxSamples = 1 << 16;
  const bool* enabled_;
  OnlineStats stats_;
  SampleSet samples_;
};

// Named metric store. Threading contract: counter *creation* (counter(),
// histogram(), add/remove_source, bind/set_metrics calls) is control-plane
// work and must be single-threaded; increments through previously obtained
// Counter pointers come from each counter's one writer (owner_add) or from
// control-plane folds (bump), and reads are safe from any thread — sources
// read their owners' shards through shard_read.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create. The returned pointer is stable for the registry's
  // lifetime — hot paths cache it and bump without any lookup.
  Counter* counter(const std::string& name);
  Histogram* histogram(const std::string& name);

  // Read-time source: `collect` emits (name, value) sums of a store its
  // owner keeps (per-CPU shards), so the event is counted once, there.
  // value/to_json/prometheus_text add each emitted value to the stored
  // counter of the same name, if any. One registration per owner; adding
  // again replaces the callback.
  using Emit = std::function<void(const std::string&, std::uint64_t)>;
  using Collect = std::function<void(const Emit&)>;
  void add_source(const void* owner, Collect collect);
  // Unregisters `owner`, folding its last values into stored counters, so
  // totals never go backwards when the owner's store goes away.
  void remove_source(const void* owner);

  // Stored value plus every source's emission of `name` (0 if neither).
  std::uint64_t value(const std::string& name) const;

  void set_histograms_enabled(bool on) { histograms_enabled_ = on; }
  bool histograms_enabled() const { return histograms_enabled_; }

  // When false, StageSink/drop/FIB emission sites skip their updates, so
  // slowpath.*, drop.* and fib.* freeze (they keep their values; no reset).
  // Every other source reads stores that count regardless, so fastpath.*,
  // flowcache.* and the ebpf.* VM families keep moving.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Stored counters only (source names are not counted).
  std::size_t counter_count() const { return counters_.size(); }

  // {"counters": {name: value, ...}, "histograms": {name: {...}, ...}}
  // Names are sorted so output is deterministic.
  Json to_json() const;

  // Prometheus-style text exposition: one "<prefix>_<name> <value>" line per
  // counter ('.' and '-' become '_'), plus _count/_sum/quantile lines per
  // histogram.
  std::string prometheus_text(const std::string& prefix = "linuxfp") const;

 private:
  // Stored counters summed with every source, sorted by name.
  std::map<std::string, std::uint64_t> snapshot() const;

  bool enabled_ = true;
  bool histograms_enabled_ = false;
  std::deque<Counter> counter_values_;         // stable addresses
  std::map<std::string, Counter*> counters_;
  std::deque<Histogram> histogram_values_;     // stable addresses
  std::map<std::string, Histogram*> histograms_;
  std::map<const void*, Collect> sources_;
};

// Per-stage counter cache for the cycle-charge hot path. Stage names are
// string literals, so identity-hashing the pointer is both correct per
// charge site and far cheaper than hashing the string. Distinct literals
// with equal text simply resolve to the same registry counters.
class StageSink {
 public:
  // Counters are created as "<prefix><stage>.calls|cycles" (+ a
  // "<prefix><stage>.cycles_hist" histogram, recorded only when the
  // registry has histograms enabled).
  void bind(MetricsRegistry* registry, std::string prefix);
  void unbind() { registry_ = nullptr; }
  bool bound() const { return registry_ != nullptr; }

  // Single writer: only the thread running the owning kernel's slow path
  // charges a sink, so the adds need no `lock` prefix (as the histogram,
  // which is not atomic at all, already relies on).
  void charge(const char* stage, std::uint64_t cycles) {
    if (!registry_ || !registry_->enabled()) return;
    Slot& slot = slot_for(stage);
    owner_add(slot.calls);
    owner_add(slot.cycles, cycles);
    slot.hist->record(static_cast<double>(cycles));
  }

 private:
  struct Slot {
    const char* stage = nullptr;
    Counter* calls = nullptr;
    Counter* cycles = nullptr;
    Histogram* hist = nullptr;
  };

  Slot& slot_for(const char* stage);
  Slot& overflow_slot_for(const char* stage);

  static constexpr std::size_t kSlots = 128;  // power of two; ~30 stages live
  MetricsRegistry* registry_ = nullptr;
  std::string prefix_;
  std::vector<Slot> slots_;
  std::map<const char*, Slot> overflow_;  // cold fallback if the table fills
};

// One event in a packet's journey. layer/stage point at string literals;
// detail is only populated for verdict-ish events (allocates, but tracing is
// opt-in).
struct TraceEvent {
  const char* layer;  // "slow" | "ebpf" | "verdict"
  const char* stage;  // stage, helper, or verdict name
  std::string detail;
  std::uint64_t cycles = 0;
};

// The ordered trace of a single packet through the datapath.
struct PacketTrace {
  std::uint64_t id = 0;
  int ifindex = 0;
  std::string device;
  bool fast_path = false;
  std::string verdict;
  std::uint64_t total_cycles = 0;
  std::vector<TraceEvent> events;

  void add(const char* layer, const char* stage, std::uint64_t cycles,
           std::string detail = {}) {
    events.push_back(TraceEvent{layer, stage, std::move(detail), cycles});
  }

  Json to_json() const;
};

// Fixed-capacity ring of recent packet traces (pwru-style). begin_packet()
// evicts the oldest record if full, so the returned pointer stays valid
// until the next begin_packet().
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity = 64) : capacity_(capacity) {}

  PacketTrace* begin_packet(int ifindex, std::string device);
  std::size_t size() const { return ring_.size(); }
  bool empty() const { return ring_.empty(); }
  const PacketTrace& at(std::size_t i) const { return ring_[i]; }
  const PacketTrace& latest() const { return ring_.back(); }
  std::uint64_t packets_traced() const { return next_id_; }
  void clear() { ring_.clear(); }

  Json to_json() const;

 private:
  std::size_t capacity_;
  std::uint64_t next_id_ = 0;
  std::deque<PacketTrace> ring_;
};

// The packet currently being traced by *this thread*, if any. Thread-local:
// the slow-path thread can trace its packets while engine workers (which
// never enable tracing) always observe null, so the eBPF VM can append
// events without widening every interface between the kernel and the
// loader. Null means tracing is off — emission sites must check.
PacketTrace* active_packet_trace();
void set_active_packet_trace(PacketTrace* trace);

}  // namespace linuxfp::util
