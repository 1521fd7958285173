// Attachment: one loaded fast path on one hook of one device (the libbpf
// analogue). Owns the program table, the map set (including the tail-call
// dispatcher's prog array and the redirect devmap), and a VM. Implements
// kern::PacketProgram so the kernel invokes it at the hook.
//
// Atomic redeploy (paper §IV-A2 / Fig 4): detaching and re-attaching an eBPF
// program loses packets for seconds; instead the attachment's entry point is
// a tiny dispatcher that tail-calls prog_array[0], and deploying a new fast
// path is a single prog-array update — packets never observe a missing
// program.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ebpf/afxdp.h"
#include "ebpf/program.h"
#include "ebpf/verifier.h"
#include "ebpf/vm.h"
#include "engine/flowcache.h"
#include "kernel/kernel.h"

namespace linuxfp::ebpf {

struct AttachmentStats {
  std::uint64_t runs = 0;
  std::uint64_t pass = 0;
  std::uint64_t drop = 0;
  std::uint64_t tx = 0;
  std::uint64_t redirect = 0;
  std::uint64_t to_userspace = 0;
  std::uint64_t aborted = 0;
  std::uint64_t total_cycles = 0;
  std::uint64_t total_insns = 0;
};

// Map requested by an object about to be loaded (the BTF map section
// analogue): load_object creates these before verifying the programs.
struct MapSpec {
  std::string name;
  MapType type = MapType::kArray;
  std::uint32_t key_size = 4;
  std::uint32_t value_size = 4;
  std::uint32_t max_entries = 1;
};

// Everything one load_object call produced, for wiring and for unloading.
struct LoadedObject {
  std::vector<std::uint32_t> map_ids;
  std::vector<std::uint32_t> prog_ids;
};

class Attachment : public kern::PacketProgram {
 public:
  // `helpers` defines the capability set available at this hook; the
  // verifier rejects programs calling anything else.
  Attachment(std::string name, HookType hook, kern::Kernel& kernel,
             const HelperRegistry& helpers);
  // Folds the shard totals into the bound registry's stored counters.
  ~Attachment() override;
  // The registry's sources hold `this`.
  Attachment(const Attachment&) = delete;
  Attachment& operator=(const Attachment&) = delete;

  // --- program management ------------------------------------------------------
  // Verifies and loads; returns the program id.
  util::Result<std::uint32_t> load(Program prog);

  // Transactional object load (the libbpf bpf_object__load analogue): creates
  // the requested maps, then verifies and loads every program. On ANY
  // failure, everything this call created is freed — maps are destroyed and
  // the program table is restored — so a partial load never leaks map FDs or
  // unreachable programs.
  util::Result<LoadedObject> load_object(const std::vector<MapSpec>& maps,
                                         std::vector<Program> progs);
  // Reverts a load_object whose programs were never activated. Only the most
  // recently loaded object can be unloaded (program ids are table indices and
  // must stay stable for everything loaded before it).
  void unload_object(const LoadedObject& obj);
  // Frees the code of an object that a swap has replaced: each program's
  // instructions and decoded stream. Its ids, names and table slots stay, so
  // no id moves; a released program has no instructions. The caller
  // unreferences the object first (prog-array entries of its chain); the
  // entry and the active program are never in it. Control-plane call: no
  // worker may be running this attachment.
  void release_object(const LoadedObject& obj);

  // Dispatcher mode: entry tail-calls prog_array[0]. swap() retargets it.
  void enable_dispatcher();
  bool dispatcher_enabled() const { return dispatcher_enabled_; }
  util::Status swap(std::uint32_t prog_id);
  // Direct mode: entry is the given program (no dispatcher indirection).
  util::Status set_entry(std::uint32_t prog_id);

  MapSet& maps() { return maps_; }
  // The capability set the verifier checks and the VMs call into.
  const HelperRegistry& helpers() const { return helpers_; }

  // Binds an AF_XDP socket; the returned slot is what an XSK-map entry must
  // contain for bpf_redirect_map to deliver into this socket.
  std::uint32_t register_xsk(AfXdpSocket* socket);
  const std::vector<Program>& programs() const { return programs_; }
  std::uint32_t active_prog_id() const { return active_prog_; }

  // --- kern::PacketProgram -----------------------------------------------------
  // Runs on `cpu`'s private VM against the shared map set and charges
  // `cpu`'s stats shard; safe concurrently across distinct cpus after
  // prepare_cpus. AF_XDP delivery is not per-CPU sharded — XSK redirect
  // programs must be driven single-queue.
  RunResult run(net::Packet& pkt, int ingress_ifindex,
                unsigned cpu = 0) override;
  // Grows the per-CPU VM/stat shards to `n` (control plane, no workers
  // running). Idempotent; cpu 0 always exists.
  void prepare_cpus(unsigned n) override;
  std::string name() const override { return name_; }

  // Summed over the per-CPU shards. Safe while workers run (shards are
  // single-writer, util::shard_add/shard_read); exact once they quiesce.
  AttachmentStats stats() const;
  HookType hook() const { return hook_; }
  unsigned ncpus() const { return static_cast<unsigned>(vms_.size()); }

  // Registers the stats shards and the per-CPU VMs' counts with `registry`
  // as a read-time source of "fastpath.<name>.<hook>.*",
  // "ebpf.helper.<name>.calls" (every registered helper but bpf_tail_call,
  // zeros included), "ebpf.map.hits|misses", "ebpf.tail_calls" and the
  // helper's share of "fib.lookups|depth_total", and the flow caches as one
  // of "flowcache.*" (zeros while the cache is off).
  // Binding the same registry again is a no-op; null unbinds, folding the
  // current totals into the old registry's stored counters. The registry
  // must outlive the binding (the destructor unbinds).
  void set_metrics(util::MetricsRegistry* registry);

  // --- microflow verdict cache (DESIGN.md §12) -------------------------------
  // Opt-in per-CPU exact-match verdict cache probed before the interpreter.
  // Control-plane call (no workers running). Off by default; turning it off
  // folds the caches' totals into the registry before discarding them.
  void set_flow_cache(bool on);
  bool flow_cache_enabled() const { return flow_cache_on_; }
  // Deploy epoch: bumped whenever the reachable program set can change
  // (swap, set_entry, load/unload). Cached verdicts from an older epoch are
  // invalid, so every redeploy — including a fault-injection rollback —
  // flushes the cache.
  std::uint64_t flow_epoch() const {
    return flow_epoch_.load(std::memory_order_relaxed);
  }
  // Summed over the per-CPU caches; safe while workers run, exact once
  // they quiesce.
  engine::FlowCacheStats flow_cache_stats() const;
  const engine::FlowCache* flow_cache(unsigned cpu) const {
    return cpu < flow_caches_.size() ? flow_caches_[cpu].get() : nullptr;
  }

 private:
  // Registers the stats shards (owner `this`) and the flow caches (owner
  // `&flow_caches_`) as separate sources, so set_flow_cache(false) can fold
  // the caches it discards without folding the shards it keeps.
  void add_metric_sources();

  // One stats shard per CPU, cache-line padded so concurrent workers never
  // false-share; stats() sums the shards.
  struct alignas(64) CpuStats {
    AttachmentStats s;
  };

  std::string name_;
  HookType hook_;
  kern::Kernel& kernel_;
  const HelperRegistry& helpers_;
  MapSet maps_;
  std::vector<Program> programs_;
  // vms_[cpu] is that CPU's interpreter: same cost model, helper registry,
  // map set and program table, private run state. Index 0 is the slow-path /
  // single-queue VM.
  std::vector<std::unique_ptr<Vm>> vms_;
  std::vector<CpuStats> cpu_stats_;
  void bump_flow_epoch() {
    flow_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  // Serves a probe-hit: verdict mapping, stats, trace event.
  RunResult finish_cache_hit(const engine::FlowCache::Hit& hit,
                             AttachmentStats& sh);

  bool dispatcher_enabled_ = false;
  std::uint32_t prog_array_id_ = 0;
  std::uint32_t entry_prog_ = 0;
  std::uint32_t active_prog_ = 0;
  bool has_entry_ = false;
  std::vector<AfXdpSocket*> xsk_sockets_;

  // flow_caches_[cpu] parallels vms_[cpu]; populated only when enabled.
  bool flow_cache_on_ = false;
  std::vector<std::unique_ptr<engine::FlowCache>> flow_caches_;
  std::atomic<std::uint64_t> flow_epoch_{0};

  util::MetricsRegistry* metrics_registry_ = nullptr;
};

// Attach/detach convenience wrappers (libbpf-style API). The program is any
// kern::PacketProgram — a raw Attachment, or a decorator such as the
// equivalence guard's GuardUnit wrapping one (core/guard.h).
util::Status attach_to_device(kern::Kernel& kernel, const std::string& dev,
                              HookType hook, kern::PacketProgram* program);
void detach_from_device(kern::Kernel& kernel, const std::string& dev,
                        HookType hook);

}  // namespace linuxfp::ebpf
