#include "core/deployer.h"

#include <algorithm>
#include <climits>
#include <set>

#include "ebpf/builder.h"
#include "util/fault.h"
#include "util/logging.h"

namespace linuxfp::core {

namespace {
// Reaction-time model for the toolchain stages this reproduction replaces
// with in-process work: fork/exec of clang on the rendered C, ELF link, and
// libbpf load/attach syscalls. Calibrated against paper Table VI.
double modeled_compile_seconds(std::size_t programs, std::size_t insns,
                               bool has_filter) {
  double t = 0.42;                                // clang startup + template IO
  t += 0.0012 * static_cast<double>(insns);       // codegen/verify scaling
  t += 0.05 * static_cast<double>(programs);      // per-object load/attach
  if (has_filter) t += 0.38;                      // libiptc full-table walk
  return t;
}

// The most programs one chain holds: one per FPM kind (bridge, loadbalance,
// filter, router).
constexpr std::uint32_t kMaxChainPrograms = 4;
}  // namespace

void Deployer::set_metrics(util::MetricsRegistry* registry) {
  metrics_ = registry;
  for (auto& [key, slot] : attachments_) {
    if (slot.attachment) slot.attachment->set_metrics(registry);
  }
}

void Deployer::set_flow_cache(bool on) {
  flow_cache_ = on;
  for (auto& [key, slot] : attachments_) {
    if (slot.attachment) slot.attachment->set_flow_cache(on);
  }
}

engine::FlowCacheStats Deployer::flow_cache_stats() const {
  engine::FlowCacheStats total = freed_flow_cache_;
  for (const auto& [key, slot] : attachments_) {
    if (slot.attachment) total += slot.attachment->flow_cache_stats();
  }
  return total;
}

util::Result<Deployer::Slot*> Deployer::slot_for(const std::string& device,
                                                 ebpf::HookType hook) {
  auto key = std::make_pair(device, static_cast<int>(hook));
  const kern::NetDevice* dev = kernel_.dev_by_name(device);
  auto it = attachments_.find(key);
  if (it != attachments_.end()) {
    if (dev && dev->ifindex() == it->second.ifindex) return &it->second;
    // The device the slot attached to is gone; the name is another's now.
    free_slot(it);
  }
  // Creating the slot is the fallible part of attach: the dispatcher swap-in
  // (XDP_FLAGS_REPLACE-style) can be rejected by the driver.
  if (auto st = util::FaultInjector::global().check(util::kFaultDeployerAttach);
      !st.ok()) {
    return st.error();
  }
  Slot slot;
  slot.device = device;
  slot.ifindex = dev ? dev->ifindex() : 0;
  slot.hook = hook;
  slot.attachment = std::make_unique<ebpf::Attachment>(
      "lfp@" + device, hook, kernel_, helpers_);
  if (metrics_) slot.attachment->set_metrics(metrics_);
  if (flow_cache_) slot.attachment->set_flow_cache(true);
  slot.attachment->enable_dispatcher();
  // With a guard, the hook runs the guard's decorator unit, which fronts the
  // attachment with the canary/sampling/breaker state machine.
  kern::PacketProgram* hook_prog =
      guard_ ? guard_->attach_unit(device, hook, slot.attachment.get())
             : static_cast<kern::PacketProgram*>(slot.attachment.get());
  auto st = ebpf::attach_to_device(kernel_, device, hook, hook_prog);
  // On attach failure nothing was installed on the device; dropping the
  // local Slot releases everything the attempt created (and the guard unit,
  // which would otherwise outlive its attachment).
  if (!st.ok()) {
    if (guard_) guard_->drop_unit(device, hook);
    return st.error();
  }
  by_ifindex_[{slot.ifindex, key.second}] = key;
  return &attachments_.emplace(key, std::move(slot)).first->second;
}

void Deployer::withdraw(Slots::iterator it) {
  if (kernel_.dev(it->second.ifindex)) {
    degrade_to_pass(it->second);
  } else {
    free_slot(it);
  }
}

void Deployer::free_slot(Slots::iterator it) {
  Slot& slot = it->second;
  // A deleted device took its hook with it; one still present (a release
  // of a live device) is detached before its program goes.
  if (const kern::NetDevice* dev = kernel_.dev(slot.ifindex)) {
    ebpf::detach_from_device(kernel_, dev->name(), slot.hook);
  }
  if (guard_) guard_->drop_unit(slot.device, slot.hook);
  freed_flow_cache_ += slot.attachment->flow_cache_stats();
  by_ifindex_.erase({slot.ifindex, static_cast<int>(slot.hook)});
  // ~Attachment folds its metrics sources into the registry.
  attachments_.erase(it);
}

void Deployer::release_device(int ifindex) {
  auto at = by_ifindex_.lower_bound({ifindex, INT_MIN});
  while (at != by_ifindex_.end() && at->first.first == ifindex) {
    const SlotKey key = (at++)->second;
    free_slot(attachments_.find(key));
  }
}

void Deployer::degrade_to_pass(Slot& slot) {
  // Terminal fallback: park the dispatcher on a PASS program so every packet
  // takes the slow path. Must be infallible — it is what every other failure
  // degrades onto — hence the fault suppression (a prog-array update of a
  // loaded program cannot transiently fail in the kernel either).
  util::FaultSuppress suppress;
  if (!slot.has_pass_prog) {
    ebpf::ProgramBuilder b("lfp_pass", slot.attachment->hook());
    b.ret(ebpf::kActPass);
    auto prog = b.build();
    LFP_CHECK(prog.ok());
    auto id = slot.attachment->load(std::move(prog).take());
    LFP_CHECK(id.ok());
    slot.pass_prog = id.value();
    slot.has_pass_prog = true;
  }
  if (slot.attachment->active_prog_id() != slot.pass_prog) {
    auto st = slot.attachment->swap(slot.pass_prog);
    LFP_CHECK_MSG(st.ok(), "degrade-to-pass swap failed");
  }
  release_live(slot);
  // A quarantined unit stays quarantined (this degrade IS its completion);
  // any other mode resets so the next real deploy re-canaries.
  if (guard_) guard_->on_degrade(slot.device, slot.hook);
}

void Deployer::release_live(Slot& slot) {
  // Every deploy wires its chain at fresh indices, so these are the replaced
  // object's own.
  ebpf::Map* prog_array = slot.attachment->maps().get(0);
  for (std::size_t i = 1; i < slot.live.prog_ids.size(); ++i) {
    std::uint32_t index = slot.live_base + static_cast<std::uint32_t>(i);
    prog_array->erase(reinterpret_cast<const std::uint8_t*>(&index));
  }
  slot.attachment->release_object(slot.live);
  slot.live = {};
}

void Deployer::quarantine(const std::string& device, ebpf::HookType hook) {
  auto it = attachments_.find({device, static_cast<int>(hook)});
  if (it == attachments_.end()) return;
  degrade_to_pass(it->second);
}

util::Status Deployer::deploy_one(const SynthesisResult& result,
                                  DeployReport& report) {
  auto slot_r = slot_for(result.device, result.hook);
  if (!slot_r.ok()) return slot_r.error();
  Slot& slot = **slot_r;
  ebpf::Attachment& att = *slot.attachment;

  // Transaction step 1: load every program of the object; all-or-nothing
  // (load_object frees everything it created on failure).
  auto obj = att.load_object({}, result.programs);
  if (!obj.ok()) {
    ++report.rollbacks;
    ++rollbacks_;
    return obj.error();
  }
  const std::vector<std::uint32_t>& ids = obj->prog_ids;

  // Transaction step 2: wire chain programs (index base+i for i >= 1).
  // Tail-call chains occupy fresh prog-array indices each deploy so the old
  // chain keeps working until the entry swap. The synthesizer already
  // encoded tail-call targets relative to result.tail_call_base.
  std::uint32_t base = result.tail_call_base;
  ebpf::Map* prog_array = att.maps().get(0);
  auto rollback = [&](std::size_t wired) {
    // Un-wire what we wired (fresh indices, so erasing restores the exact
    // pre-transaction map state), then unload the object. Fault-suppressed:
    // rollback only removes state and cannot fail.
    util::FaultSuppress suppress;
    for (std::size_t i = 1; i <= wired; ++i) {
      std::uint32_t index = base + static_cast<std::uint32_t>(i);
      prog_array->erase(reinterpret_cast<const std::uint8_t*>(&index));
    }
    att.unload_object(*obj);
    ++report.rollbacks;
    ++rollbacks_;
  };
  for (std::size_t i = 1; i < ids.size(); ++i) {
    auto st = prog_array->set_prog(base + static_cast<std::uint32_t>(i),
                                   ids[i]);
    if (!st.ok()) {
      rollback(i - 1);
      return st;
    }
  }

  // Transaction step 3: atomic activation. Until this single prog-array
  // update commits, packets still run the previous program.
  auto st = att.swap(ids[0]);
  if (!st.ok()) {
    rollback(ids.empty() ? 0 : ids.size() - 1);
    return st;
  }

  slot.next_chain_index =
      base + static_cast<std::uint32_t>(ids.size() ? ids.size() : 1);
  if (slot.next_chain_index + kMaxChainPrograms > prog_array->max_entries()) {
    slot.next_chain_index = 1;
  }
  slot.has_deployed = true;
  // Committed: nothing reaches the replaced object any more.
  release_live(slot);
  slot.live = std::move(*obj);
  slot.live_base = base;
  if (guard_) guard_->on_swap(result.device, result.hook, kernel_.now_ns());
  for (const ebpf::Program& prog : result.programs) {
    report.total_insns += prog.size();
    ++report.programs;
  }
  return {};
}

DeployReport Deployer::deploy(const std::vector<SynthesisResult>& results,
                              bool old_is_current,
                              const std::set<SlotKey>* coverage) {
  std::vector<SlotKey> withdrawn;
  for (const auto& [key, slot] : attachments_) {
    if (coverage && coverage->count(key)) continue;
    const bool in_results =
        std::any_of(results.begin(), results.end(),
                    [&key = key](const SynthesisResult& r) {
                      return static_cast<int>(r.hook) == key.second &&
                             r.device == key.first;
                    });
    if (!in_results) withdrawn.push_back(key);
  }
  return deploy_delta(results, old_is_current, withdrawn);
}

DeployReport Deployer::deploy_delta(const std::vector<SynthesisResult>& results,
                                    bool old_is_current,
                                    const std::vector<SlotKey>& withdrawn) {
  DeployReport report;
  bool has_filter = false;
  for (const SynthesisResult& r : results) {
    auto st = deploy_one(r, report);
    if (!st.ok()) {
      report.failures.push_back(DeviceFailure{r.device, st.error()});
      auto it = attachments_.find({r.device, static_cast<int>(r.hook)});
      bool keep_old =
          old_is_current && it != attachments_.end() && it->second.has_deployed;
      LFP_WARN("deployer") << "deploy failed for " << r.device << ": "
                           << st.error().message
                           << (keep_old ? " — keeping current program"
                                        : " — degrading to slow path");
      // When the structural signature changed, the previous program is stale
      // (deploys only run on signature changes), so coherence demands the
      // bare slow path until a retry succeeds. On a forced redeploy with an
      // unchanged signature the old program still matches the configuration
      // and keeps serving the fast path.
      if (!keep_old && it != attachments_.end()) degrade_to_pass(it->second);
      continue;
    }
    ++report.devices;
    for (const std::string& fpm : r.fpms) {
      if (fpm == "filter") has_filter = true;
      if (metrics_) util::bump(metrics_->counter("fpm." + fpm + ".deployed"));
    }
  }
  // Withdraw acceleration from devices no longer covered by any graph.
  for (const SlotKey& key : withdrawn) {
    auto it = attachments_.find(key);
    if (it != attachments_.end()) withdraw(it);
  }
  ++deploys_;
  report.modeled_compile_seconds =
      modeled_compile_seconds(report.programs, report.total_insns, has_filter);
  return report;
}

ebpf::Attachment* Deployer::attachment(const std::string& device,
                                       ebpf::HookType hook) {
  auto it = attachments_.find({device, static_cast<int>(hook)});
  return it == attachments_.end() ? nullptr : it->second.attachment.get();
}

std::uint32_t Deployer::next_chain_index(const std::string& device,
                                         ebpf::HookType hook) const {
  auto it = attachments_.find({device, static_cast<int>(hook)});
  return it == attachments_.end() ? 1 : it->second.next_chain_index;
}

}  // namespace linuxfp::core
