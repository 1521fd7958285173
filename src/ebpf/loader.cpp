#include "ebpf/loader.h"

#include "ebpf/builder.h"
#include "util/fault.h"
#include "util/logging.h"

namespace linuxfp::ebpf {

Attachment::Attachment(std::string name, HookType hook, kern::Kernel& kernel,
                       const HelperRegistry& helpers)
    : name_(std::move(name)), hook_(hook), kernel_(kernel), helpers_(helpers) {
  vms_.push_back(
      std::make_unique<Vm>(kernel_.cost(), helpers_, maps_, &programs_));
  cpu_stats_.resize(1);
}

Attachment::~Attachment() { set_metrics(nullptr); }

void Attachment::prepare_cpus(unsigned n) {
  while (vms_.size() < n) {
    auto vm = std::make_unique<Vm>(kernel_.cost(), helpers_, maps_,
                                   &programs_);
    vm->set_cpu(static_cast<unsigned>(vms_.size()));
    vms_.push_back(std::move(vm));
  }
  if (cpu_stats_.size() < vms_.size()) cpu_stats_.resize(vms_.size());
  if (flow_cache_on_) set_flow_cache(true);
}

void Attachment::set_flow_cache(bool on) {
  flow_cache_on_ = on;
  if (!on) {
    // The caches' counts go with them: fold them into the registry first
    // (the re-registered source then reads the empty set as zeros).
    if (metrics_registry_) metrics_registry_->remove_source(&flow_caches_);
    flow_caches_.clear();
    if (metrics_registry_) add_metric_sources();
    return;
  }
  while (flow_caches_.size() < vms_.size()) {
    flow_caches_.push_back(std::make_unique<engine::FlowCache>());
  }
}

engine::FlowCacheStats Attachment::flow_cache_stats() const {
  engine::FlowCacheStats total;
  for (const auto& fc : flow_caches_) total += fc->stats();
  return total;
}

AttachmentStats Attachment::stats() const {
  AttachmentStats total;
  for (const CpuStats& shard : cpu_stats_) {
    const AttachmentStats& s = shard.s;
    total.runs += util::shard_read(s.runs);
    total.pass += util::shard_read(s.pass);
    total.drop += util::shard_read(s.drop);
    total.tx += util::shard_read(s.tx);
    total.redirect += util::shard_read(s.redirect);
    total.to_userspace += util::shard_read(s.to_userspace);
    total.aborted += util::shard_read(s.aborted);
    total.total_cycles += util::shard_read(s.total_cycles);
    total.total_insns += util::shard_read(s.total_insns);
  }
  return total;
}

util::Result<std::uint32_t> Attachment::load(Program prog) {
  // Injected load failure: models bpf(BPF_PROG_LOAD) returning an error
  // (memlock limits, allocation failure) before verification even runs.
  if (auto st = util::FaultInjector::global().check(util::kFaultLoaderLoad);
      !st.ok()) {
    return st.error();
  }
  VerifyOptions opts;
  opts.helpers = &helpers_;
  opts.maps = &maps_;
  ProgramProofs proofs;
  auto status = verify(prog, opts, nullptr, &proofs);
  if (!status.ok()) return status.error();
  programs_.push_back(std::move(prog));
  // Decode eagerly, from what the verifier proved: per-CPU VMs run this
  // program concurrently and must only ever read the finished stream, never
  // build it. The program keeps the stream and its stack floor, not the
  // proofs.
  programs_.back().decode(&proofs);
  return static_cast<std::uint32_t>(programs_.size() - 1);
}

util::Result<LoadedObject> Attachment::load_object(
    const std::vector<MapSpec>& maps, std::vector<Program> progs) {
  LoadedObject obj;
  auto cleanup = [&] {
    util::FaultSuppress suppress;
    for (std::uint32_t id : obj.map_ids) maps_.destroy(id);
    // Programs appended by this call form the table tail; ids were never
    // handed out, so truncation is safe.
    programs_.resize(programs_.size() - obj.prog_ids.size());
  };
  for (const MapSpec& spec : maps) {
    if (auto st = util::FaultInjector::global().check(util::kFaultMapCreate);
        !st.ok()) {
      cleanup();
      return st.error();
    }
    obj.map_ids.push_back(maps_.create(spec.name, spec.type, spec.key_size,
                                       spec.value_size, spec.max_entries));
  }
  for (Program& prog : progs) {
    auto id = load(std::move(prog));
    if (!id.ok()) {
      cleanup();
      return id.error();
    }
    obj.prog_ids.push_back(id.value());
  }
  bump_flow_epoch();  // the reachable program set changed
  return obj;
}

void Attachment::unload_object(const LoadedObject& obj) {
  util::FaultSuppress suppress;
  for (std::uint32_t id : obj.map_ids) maps_.destroy(id);
  if (!obj.prog_ids.empty()) {
    LFP_CHECK_MSG(obj.prog_ids.back() + 1 == programs_.size(),
                  "unload_object: object is not the program-table tail");
    programs_.resize(programs_.size() - obj.prog_ids.size());
    LFP_CHECK_MSG(!has_entry_ || (entry_prog_ < programs_.size() &&
                                  active_prog_ < programs_.size()),
                  "unload_object: active program was in the object");
  }
  bump_flow_epoch();
}

void Attachment::release_object(const LoadedObject& obj) {
  for (std::uint32_t id : obj.prog_ids) {
    LFP_CHECK_MSG(id != entry_prog_ && id != active_prog_,
                  "release_object: program is still the entry or active");
    Program& prog = programs_[id];
    std::vector<Insn>().swap(prog.insns);
    std::vector<DecodedInsn>().swap(prog.decoded);
  }
}

void Attachment::enable_dispatcher() {
  if (dispatcher_enabled_) return;
  // The dispatcher is the degradation anchor: its tail-call-or-PASS stub is
  // what guarantees a missing fast path falls back to Linux. Creating it is
  // modeled as infallible (fault-suppressed) — everything that CAN fail
  // happens behind it and degrades onto it.
  util::FaultSuppress suppress;
  prog_array_id_ = maps_.create("fp_dispatch", MapType::kProgArray, 4, 4, 256);

  ProgramBuilder b("dispatcher", hook_);
  // bpf_tail_call(ctx, prog_array, 0); fall through to PASS on miss so the
  // window between attach and first deploy degrades to pure Linux.
  b.mov_reg(kR6, kR1);
  b.mov_reg(kR1, kR6);
  b.mov(kR2, prog_array_id_);
  b.mov(kR3, 0);
  b.call(kHelperTailCall);
  b.ret(kActPass);
  auto prog = b.build();
  LFP_CHECK(prog.ok());
  auto id = load(std::move(prog).take());
  LFP_CHECK_MSG(id.ok(), "dispatcher failed verification");
  entry_prog_ = id.value();
  has_entry_ = true;
  dispatcher_enabled_ = true;
}

util::Status Attachment::swap(std::uint32_t prog_id) {
  if (!dispatcher_enabled_) {
    return util::Error::make("loader.nodispatch", "dispatcher not enabled");
  }
  if (prog_id >= programs_.size()) {
    return util::Error::make("loader.badprog", "unknown program id");
  }
  Map* prog_array = maps_.get(prog_array_id_);
  auto st = prog_array->set_prog(0, prog_id);
  if (st.ok()) active_prog_ = prog_id;
  // Any deploy — including a rollback after fault injection — flushes every
  // cached verdict: entries carry the epoch they were recorded under.
  bump_flow_epoch();
  return st;
}

util::Status Attachment::set_entry(std::uint32_t prog_id) {
  if (prog_id >= programs_.size()) {
    return util::Error::make("loader.badprog", "unknown program id");
  }
  entry_prog_ = prog_id;
  active_prog_ = prog_id;
  has_entry_ = true;
  bump_flow_epoch();
  return {};
}

std::uint32_t Attachment::register_xsk(AfXdpSocket* socket) {
  xsk_sockets_.push_back(socket);
  return static_cast<std::uint32_t>(xsk_sockets_.size() - 1);
}

void Attachment::set_metrics(util::MetricsRegistry* registry) {
  if (registry == metrics_registry_) return;
  if (metrics_registry_) {
    metrics_registry_->remove_source(this);
    metrics_registry_->remove_source(&flow_caches_);
  }
  metrics_registry_ = registry;
  if (registry) add_metric_sources();
}

void Attachment::add_metric_sources() {
  using Emit = util::MetricsRegistry::Emit;
  const std::string prefix =
      "fastpath." + name_ + "." + hook_type_name(hook_) + ".";
  metrics_registry_->add_source(this, [this, prefix](const Emit& emit) {
    const AttachmentStats s = stats();
    emit(prefix + "runs", s.runs);
    emit(prefix + "cycles", s.total_cycles);
    emit(prefix + "pass", s.pass);
    emit(prefix + "drop", s.drop);
    emit(prefix + "tx", s.tx);
    emit(prefix + "redirect", s.redirect);
    emit(prefix + "to_userspace", s.to_userspace);
    emit(prefix + "aborted", s.aborted);
    // The VMs' counts. bpf_tail_call is performed by the interpreter, not
    // called as a helper: it is counted once, as ebpf.tail_calls.
    std::uint64_t hits = 0, misses = 0, tail_calls = 0, fib_lookups = 0,
                  fib_depth = 0;
    for (const auto& vm : vms_) {
      hits += vm->map_hits();
      misses += vm->map_misses();
      tail_calls += vm->tail_calls();
      fib_lookups += vm->fib_lookups();
      fib_depth += vm->fib_depth_total();
    }
    emit("ebpf.map.hits", hits);
    emit("ebpf.map.misses", misses);
    emit("ebpf.tail_calls", tail_calls);
    // bpf_fib_lookup's share of fib.*; the kernel's source adds the slow
    // path's own lookups.
    emit("fib.lookups", fib_lookups);
    emit("fib.depth_total", fib_depth);
    for (std::uint32_t id : helpers_.ids()) {
      if (id == kHelperTailCall) continue;
      std::uint64_t calls = 0;
      for (const auto& vm : vms_) calls += vm->helper_calls(id);
      emit(std::string("ebpf.helper.") + helper_name(id) + ".calls", calls);
    }
  });
  metrics_registry_->add_source(&flow_caches_, [this](const Emit& emit) {
    const engine::FlowCacheStats s = flow_cache_stats();
    emit("flowcache.hits", s.hits);
    emit("flowcache.misses", s.misses);
    emit("flowcache.invalidations", s.invalidations);
    emit("flowcache.evictions", s.evictions);
    emit("flowcache.uncacheable", s.uncacheable);
    emit("flowcache.replay_mismatch", s.replay_mismatch);
  });
}

Attachment::RunResult Attachment::finish_cache_hit(
    const engine::FlowCache::Hit& hit, AttachmentStats& sh) {
  RunResult out;
  std::uint64_t cycles = kernel_.cost().flowcache_hit;
  util::shard_add(sh.runs);
  util::shard_add(sh.total_cycles, cycles);
  out.cycles = cycles;
  switch (hit.act) {
    case kActDrop:
      util::shard_add(sh.drop);
      out.verdict = Verdict::kDrop;
      break;
    case kActTx:
      util::shard_add(sh.tx);
      out.verdict = Verdict::kTx;
      break;
    case kActRedirect:
      util::shard_add(sh.redirect);
      out.verdict = Verdict::kRedirect;
      out.redirect_ifindex = hit.redirect_ifindex;
      break;
    default:
      util::shard_add(sh.pass);
      out.verdict = Verdict::kPass;
      break;
  }
  if (auto* t = util::active_packet_trace()) {
    t->add("ebpf", "flowcache_hit", cycles, action_name(hit.act));
  }
  return out;
}

Attachment::RunResult Attachment::run(net::Packet& pkt, int ingress_ifindex,
                                      unsigned cpu) {
  LFP_CHECK_MSG(cpu < vms_.size(), "run on a cpu without prepare_cpus");
  AttachmentStats& sh = cpu_stats_[cpu].s;
  RunResult out;
  if (!has_entry_) {
    out.verdict = Verdict::kPass;
    return out;
  }
  engine::FlowCache* fc = flow_cache_on_ && cpu < flow_caches_.size()
                              ? flow_caches_[cpu].get()
                              : nullptr;
  if (fc) {
    engine::FlowCache::Hit hit;
    if (fc->try_hit(pkt, ingress_ifindex, flow_epoch(), kernel_, &hit)) {
      return finish_cache_hit(hit, sh);
    }
  }
  if (auto* t = util::active_packet_trace()) {
    t->add("ebpf", "prog_entry", 0, programs_[entry_prog_].name);
  }
  engine::FlowCacheRecorder* rec = nullptr;
  if (fc) {
    rec = &fc->recorder();
    rec->begin(pkt);
  }
  VmResult r = vms_[cpu]->run(programs_[entry_prog_], pkt, ingress_ifindex,
                              &kernel_, rec);
  if (fc) {
    // AF_XDP delivery and aborts escape the replayable model; everything
    // else the recorder judged is insertable.
    bool cacheable =
        !r.aborted && r.redirect_xsk < 0 &&
        (r.ret == kActDrop || r.ret == kActPass || r.ret == kActTx ||
         r.ret == kActRedirect);
    fc->insert(pkt, ingress_ifindex, flow_epoch(), kernel_, *rec, r.ret,
               r.redirect_ifindex, cacheable);
  }
  util::shard_add(sh.runs);
  util::shard_add(sh.total_cycles, r.cycles);
  util::shard_add(sh.total_insns, r.insns_executed);
  out.cycles = r.cycles;
  if (r.aborted) {
    util::shard_add(sh.aborted);
    out.verdict = Verdict::kAborted;
    LFP_WARN("ebpf") << name_ << " aborted: " << r.error;
    return out;
  }
  switch (r.ret) {
    case kActDrop:
      util::shard_add(sh.drop);
      out.verdict = Verdict::kDrop;
      break;
    case kActTx:
      util::shard_add(sh.tx);
      out.verdict = Verdict::kTx;
      break;
    case kActRedirect:
      if (r.redirect_xsk >= 0) {
        // AF_XDP delivery: hand the frame to the bound user-space socket.
        if (static_cast<std::size_t>(r.redirect_xsk) < xsk_sockets_.size()) {
          xsk_sockets_[static_cast<std::size_t>(r.redirect_xsk)]->push_rx(
              net::Packet(pkt));
          util::shard_add(sh.to_userspace);
          out.verdict = Verdict::kUserspace;
        } else {
          util::shard_add(sh.aborted);
          out.verdict = Verdict::kAborted;
        }
        break;
      }
      util::shard_add(sh.redirect);
      out.verdict = Verdict::kRedirect;
      out.redirect_ifindex = r.redirect_ifindex;
      break;
    case kActPass:
      util::shard_add(sh.pass);
      out.verdict = Verdict::kPass;
      break;
    default:
      util::shard_add(sh.aborted);
      out.verdict = Verdict::kAborted;
      break;
  }
  return out;
}

util::Status attach_to_device(kern::Kernel& kernel, const std::string& dev,
                              HookType hook, kern::PacketProgram* program) {
  // Injected attach failure: models the netlink XDP/TC attach request being
  // rejected (driver without XDP support, qdisc race).
  if (auto st = util::FaultInjector::global().check(util::kFaultLoaderAttach);
      !st.ok()) {
    return st;
  }
  kern::NetDevice* d = kernel.dev_by_name(dev);
  if (!d) return util::Error::make("dev.missing", "no such device: " + dev);
  switch (hook) {
    case HookType::kXdp: d->attach_xdp(program); break;
    case HookType::kTcIngress: d->attach_tc_ingress(program); break;
    case HookType::kTcEgress: d->attach_tc_egress(program); break;
  }
  return {};
}

void detach_from_device(kern::Kernel& kernel, const std::string& dev,
                        HookType hook) {
  kern::NetDevice* d = kernel.dev_by_name(dev);
  if (!d) return;
  switch (hook) {
    case HookType::kXdp: d->attach_xdp(nullptr); break;
    case HookType::kTcIngress: d->attach_tc_ingress(nullptr); break;
    case HookType::kTcEgress: d->attach_tc_egress(nullptr); break;
  }
}

}  // namespace linuxfp::ebpf
