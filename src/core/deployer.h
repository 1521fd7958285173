// Fast Path Deployer: compiles (verifies + loads) synthesized programs and
// installs them on the XDP/TC hooks without packet loss.
//
// Each (device, hook) gets one long-lived Attachment whose entry point is a
// tail-call dispatcher; deploying a new fast path loads the new programs and
// atomically retargets prog_array[0] (paper §IV-A2, Fig 4). Once that swap
// commits, or a degrade parks the hook on its PASS program, the object it
// replaced is released: its chain's prog-array entries are erased and its
// programs' code is freed (Attachment::release_object; ids stay). The
// dispatcher and the PASS program are never released. Releasing right after
// the swap relies on the contract that no engine worker runs an attachment
// while a deploy runs (the controller reacts between engine passes); under
// live traffic it would need a grace period until every worker has left the
// old program.
//
// Every per-device deploy is a transaction: if any step fails (program load,
// verifier rejection, map create/update, attach), everything that step
// created is rolled back and the device is atomically degraded to the bare
// slow path (dispatcher PASS fallback) — the datapath never observes a torn
// or structurally stale program. The controller then retries with backoff.
//
// A slot records the ifindex of the device it attached to. When that device
// is deleted, the slot is freed: its guard unit is dropped and its
// attachment destroyed, which folds the attachment's metrics sources into
// the registry. A device re-created under the same name gets a new slot on
// the new device.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/guard.h"
#include "core/synthesizer.h"
#include "ebpf/loader.h"

namespace linuxfp::core {

struct DeviceFailure {
  std::string device;
  util::Error error;
};

struct DeployReport {
  std::size_t devices = 0;      // devices deployed successfully
  std::size_t programs = 0;
  std::size_t total_insns = 0;
  std::size_t rollbacks = 0;    // device transactions rolled back
  std::vector<DeviceFailure> failures;
  // Wall-clock estimate of what the real controller spends forking clang,
  // linking and libbpf-loading (this reproduction verifies+loads in-process
  // in microseconds; the model keeps Table VI comparable — see
  // EXPERIMENTS.md).
  double modeled_compile_seconds = 0;

  bool all_ok() const { return failures.empty(); }
};

class Deployer {
 public:
  // (device, hook-int): what a slot serves.
  using SlotKey = std::pair<std::string, int>;

  Deployer(kern::Kernel& kernel, const ebpf::HelperRegistry& helpers)
      : kernel_(kernel), helpers_(helpers) {}

  // Deploys every synthesis result, then withdraws the slots in
  // `withdrawn`: the keys that left the desired coverage since the last
  // deploy (DESIGN.md §17). Devices with an existing attachment are
  // atomically swapped, new devices get a fresh attachment; every other
  // slot keeps its program untouched. A withdrawn slot is swapped to its
  // PASS program (acceleration withdrawn, Linux handles everything), or
  // freed when its device is gone. A device whose deploy fails is rolled
  // back, recorded in report.failures, and does not abort the rest of the
  // batch. The failure fallback depends on `old_is_current`: when true
  // (forced redeploy with unchanged structural signature, e.g. snippet
  // injection) the previously active program still matches the live
  // configuration and keeps serving; when false (structure changed) the old
  // program is stale, so the device degrades to the bare slow path (PASS)
  // to preserve fast/slow coherence.
  DeployReport deploy_delta(const std::vector<SynthesisResult>& results,
                            bool old_is_current,
                            const std::vector<SlotKey>& withdrawn);

  // deploy_delta with the withdrawals derived from a full coverage set:
  // every slot neither in `coverage` nor in `results` is withdrawn. When
  // `coverage` is null (from-scratch deploy), coverage is exactly the
  // devices in `results`.
  DeployReport deploy(const std::vector<SynthesisResult>& results,
                      bool old_is_current = false,
                      const std::set<SlotKey>* coverage = nullptr);

  // Frees every slot attached to the device `ifindex`, which was deleted.
  void release_device(int ifindex);

  ebpf::Attachment* attachment(const std::string& device,
                               ebpf::HookType hook);
  // Next free dispatcher prog-array index for a device (1 if unattached);
  // the controller passes this to the synthesizer as tail_call_base. Each
  // chain goes right after the live one and wraps to the start of the prog
  // array before it could overrun its end, so a chain never overlaps the
  // live one, whose replaced predecessor release_live erased.
  std::uint32_t next_chain_index(const std::string& device,
                                 ebpf::HookType hook) const;
  std::size_t attachment_count() const { return attachments_.size(); }
  std::uint64_t deploys() const { return deploys_; }
  std::uint64_t rollbacks() const { return rollbacks_; }

  // Binds every attachment (present and future) to `registry` — its
  // fastpath.*/flowcache.* sources and its VMs' ebpf.* counters — and
  // records per-FPM deploy counts ("fpm.<name>.deployed"). The controller
  // points this at its kernel's registry so one registry covers both paths.
  void set_metrics(util::MetricsRegistry* registry);

  // Routes every hook through the equivalence guard (core/guard.h): slot
  // creation installs the guard's decorator unit on the device instead of
  // the raw attachment, and swap/degrade transitions notify the guard's
  // breaker state machine. Must be set before the first deploy — existing
  // slots are not rewired.
  void set_guard(EquivalenceGuard* guard) { guard_ = guard; }

  // Breaker quarantine: atomically park the hook on its PASS fallback (the
  // swap bumps the flow epoch, flushing cached verdicts). Called by the
  // controller when the guard reports a tripped unit.
  void quarantine(const std::string& device, ebpf::HookType hook);

  // Turns the microflow verdict cache (DESIGN.md §12) on or off for every
  // attachment, present and future. Control-plane call.
  void set_flow_cache(bool on);
  bool flow_cache_enabled() const { return flow_cache_; }
  // Summed over all attachments' per-CPU caches, freed ones included.
  engine::FlowCacheStats flow_cache_stats() const;

 private:
  struct Slot {
    std::string device;
    int ifindex = 0;  // of the device the hook program is attached to
    ebpf::HookType hook = ebpf::HookType::kXdp;
    std::unique_ptr<ebpf::Attachment> attachment;
    std::uint32_t next_chain_index = 1;
    std::uint32_t pass_prog = 0;
    bool has_pass_prog = false;
    bool has_deployed = false;  // at least one successful deploy_one
    // The object prog_array[0] serves (empty after a degrade), and the
    // tail_call_base its chain was wired at.
    ebpf::LoadedObject live;
    std::uint32_t live_base = 0;
  };
  using Slots = std::map<SlotKey, Slot>;

  util::Status deploy_one(const SynthesisResult& result, DeployReport& report);
  // The slot of `device`'s hook; a slot left by a deleted device of that
  // name is freed first.
  util::Result<Slot*> slot_for(const std::string& device, ebpf::HookType hook);
  // Atomically swaps the device to its PASS fallback (bare slow path).
  // Fault-suppressed: degradation is the terminal fallback and must not fail.
  void degrade_to_pass(Slot& slot);
  // Releases slot.live, which a swap has just replaced: erases its chain's
  // prog-array entries and frees its code.
  void release_live(Slot& slot);
  // Parks a slot that left coverage on PASS, or frees it if its device is
  // gone.
  void withdraw(Slots::iterator it);
  // Detaches the slot if its device still exists, drops its guard unit and
  // destroys it.
  void free_slot(Slots::iterator it);

  kern::Kernel& kernel_;
  const ebpf::HelperRegistry& helpers_;
  Slots attachments_;
  // (ifindex, hook-int) -> key, for release_device.
  std::map<std::pair<int, int>, SlotKey> by_ifindex_;
  // The flow-cache counts of freed attachments.
  engine::FlowCacheStats freed_flow_cache_;
  std::uint64_t deploys_ = 0;
  std::uint64_t rollbacks_ = 0;
  util::MetricsRegistry* metrics_ = nullptr;
  bool flow_cache_ = false;
  EquivalenceGuard* guard_ = nullptr;
};

}  // namespace linuxfp::core
