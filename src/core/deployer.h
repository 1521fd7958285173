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
  Deployer(kern::Kernel& kernel, const ebpf::HelperRegistry& helpers)
      : kernel_(kernel), helpers_(helpers) {}

  // Deploys every synthesis result; devices with an existing attachment are
  // atomically swapped, new devices get a fresh attachment. Devices that had
  // a fast path but are absent from `results` are swapped to a PASS program
  // (acceleration withdrawn, Linux handles everything). A device whose
  // deploy fails is rolled back, recorded in report.failures, and does not
  // abort the rest of the batch. The failure fallback depends on
  // `old_is_current`: when true (forced redeploy with unchanged structural
  // signature, e.g. snippet injection) the previously active program still
  // matches the live configuration and keeps serving; when false (structure
  // changed) the old program is stale, so the device degrades to the bare
  // slow path (PASS) to preserve fast/slow coherence.
  //
  // `coverage` widens the withdrawal rule for delta synthesis (DESIGN.md
  // §17): when non-null it names every (device, hook-int) the desired
  // configuration still wants — devices in `coverage` but absent from
  // `results` were synthesized before, are unchanged, and keep their current
  // program untouched. When null (from-scratch deploy), coverage is exactly
  // the devices in `results`, preserving the original semantics.
  DeployReport deploy(const std::vector<SynthesisResult>& results,
                      bool old_is_current = false,
                      const std::set<std::pair<std::string, int>>* coverage =
                          nullptr);

  ebpf::Attachment* attachment(const std::string& device,
                               ebpf::HookType hook);
  // Next free dispatcher prog-array index for a device (1 if unattached);
  // the controller passes this to the synthesizer as tail_call_base.
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
  // Summed over all attachments' per-CPU caches.
  engine::FlowCacheStats flow_cache_stats() const;

 private:
  struct Slot {
    std::string device;
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
  util::Status deploy_one(const SynthesisResult& result, DeployReport& report);
  util::Result<Slot*> slot_for(const std::string& device, ebpf::HookType hook);
  // Atomically swaps the device to its PASS fallback (bare slow path).
  // Fault-suppressed: degradation is the terminal fallback and must not fail.
  void degrade_to_pass(Slot& slot);
  // Releases slot.live, which a swap has just replaced: erases its chain's
  // prog-array entries and frees its code.
  void release_live(Slot& slot);

  kern::Kernel& kernel_;
  const ebpf::HelperRegistry& helpers_;
  std::map<std::pair<std::string, int>, Slot> attachments_;
  std::uint64_t deploys_ = 0;
  std::uint64_t rollbacks_ = 0;
  util::MetricsRegistry* metrics_ = nullptr;
  bool flow_cache_ = false;
  EquivalenceGuard* guard_ = nullptr;
};

}  // namespace linuxfp::core
