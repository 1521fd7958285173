#include "core/guard.h"

#include <algorithm>
#include <cstring>

#include "engine/rss.h"
#include "util/fault.h"
#include "util/logging.h"

namespace linuxfp::core {

namespace {

// Cookie layout: [unit+1 : 8][cpu : 8][seq+1 : 48]. Both biased fields keep
// a live cookie from ever being zero (zero means "empty slot").
constexpr std::uint64_t cookie_of(std::uint8_t unit, unsigned cpu,
                                  std::uint64_t seq) {
  return (static_cast<std::uint64_t>(unit + 1) << 56) |
         (static_cast<std::uint64_t>(cpu & 0xff) << 48) |
         ((seq + 1) & 0xffff'ffff'ffffULL);
}

// Finalizer-style 32-bit mixer (lowbias32). The sampler must not reuse the
// raw rss_hash: the RETA keys off its low 7 bits, so `hash % K` would make
// the sample set correlate with queue steering (entire queues all-sampled or
// never-sampled). Mixing decorrelates the two consumers of the same hash.
std::uint32_t mix32(std::uint32_t x) {
  x ^= x >> 16;
  x *= 0x7feb352dU;
  x ^= x >> 15;
  x *= 0x846ca68bU;
  x ^= x >> 16;
  return x;
}

}  // namespace

const char* guard_mode_name(GuardMode mode) {
  switch (mode) {
    case GuardMode::kShadow: return "shadow";
    case GuardMode::kActive: return "active";
    case GuardMode::kQuarantined: return "quarantined";
    case GuardMode::kHalfOpen: return "half_open";
  }
  return "?";
}

const char* trip_reason_name(TripReason reason) {
  switch (reason) {
    case TripReason::kNone: return "none";
    case TripReason::kDivergence: return "divergence";
    case TripReason::kAbortRate: return "abort_rate";
    case TripReason::kForced: return "forced";
  }
  return "?";
}

// ---------------------------------------------------------------- GuardUnit

GuardUnit::GuardUnit(EquivalenceGuard& guard, std::uint8_t id,
                     std::string device, ebpf::HookType hook,
                     ebpf::Attachment* attachment)
    : guard_(guard),
      id_(id),
      device_(std::move(device)),
      hook_(hook),
      att_(attachment) {
  prepare_cpus(1);  // inline (sim) path uses cpu 0 before any engine starts
}

void GuardUnit::prepare_cpus(unsigned n) {
  att_->prepare_cpus(n);
  const std::uint32_t depth = guard_.policy().expectation_slots;
  LFP_CHECK_MSG((depth & (depth - 1)) == 0, "expectation_slots: power of two");
  while (cpus_.size() < n) {
    auto cs = std::make_unique<CpuSlots>();
    cs->slots = std::vector<Slot>(depth);
    cpus_.push_back(std::move(cs));
  }
}

std::string GuardUnit::name() const { return "guard(" + att_->name() + ")"; }

GuardUnit::RunResult GuardUnit::run(net::Packet& pkt, int ingress_ifindex,
                                    unsigned cpu) {
  switch (mode_.load(std::memory_order_acquire)) {
    case GuardMode::kQuarantined:
      // Breaker open: unconditional PASS before the flow-cache probe — the
      // datapath is the bare slow path the instant the CAS lands, even
      // before the controller swaps the PASS fallback program in.
      quarantine_passes_.fetch_add(1, std::memory_order_relaxed);
      return RunResult{};
    case GuardMode::kShadow:
    case GuardMode::kHalfOpen:
      return run_shadowed(pkt, ingress_ifindex, cpu);
    case GuardMode::kActive:
      break;
  }
  const std::uint32_t k = guard_.policy().sample_every;
  if (k != 0 &&
      EquivalenceGuard::sampled_hash(engine::rss_hash_cached(pkt), k)) {
    sampled_.fetch_add(1, std::memory_order_relaxed);
    return run_shadowed(pkt, ingress_ifindex, cpu);
  }
  RunResult r = att_->run(pkt, ingress_ifindex, cpu);
  note_abort_window(r.verdict == Verdict::kAborted);
  return r;
}

GuardUnit::RunResult GuardUnit::run_shadowed(net::Packet& pkt,
                                             int ingress_ifindex,
                                             unsigned cpu) {
  LFP_CHECK_MSG(cpu < cpus_.size(), "guard: cpu beyond prepare_cpus");
  // The program may rewrite headers (MACs, TTL), so it runs on a copy; the
  // original continues down the slow path untouched and authoritative.
  net::Packet copy(pkt);
  RunResult r = att_->run(copy, ingress_ifindex, cpu);
  note_abort_window(r.verdict == Verdict::kAborted);
  shadow_runs_.fetch_add(1, std::memory_order_relaxed);

  CpuSlots& cs = *cpus_[cpu];
  const std::uint64_t seq = cs.next_seq++;
  Slot& slot = cs.slots[seq & (cs.slots.size() - 1)];
  if (slot.cookie.load(std::memory_order_relaxed) != 0) {
    // The previous occupant was never resolved (its packet tail-dropped in
    // the engine before reaching the slow path). Count and reclaim.
    stale_.fetch_add(1, std::memory_order_relaxed);
  }
  slot.verdict = r.verdict;
  slot.oif = r.verdict == Verdict::kTx ? ingress_ifindex : r.redirect_ifindex;
  slot.armed_ns = guard_.kernel().now_ns();
  slot.bytes.clear();
  if (r.verdict == Verdict::kTx || r.verdict == Verdict::kRedirect) {
    slot.bytes.assign(copy.data(), copy.data() + copy.size());
  }
  // Fault seam: corrupt the recorded expectation into one no slow path can
  // satisfy (a transmit out an impossible interface), modelling a synthesis
  // bug whose fast path misforwards. Datapath seam — tests may only arm it
  // on single-threaded runs (the injector is not thread-safe).
  if (util::FaultInjector::global().should_fail(util::kFaultGuardVerdict)) {
    slot.verdict = Verdict::kTx;
    slot.oif = -1;
    slot.bytes.clear();
  }
  const std::uint64_t cookie = cookie_of(id_, cpu, seq);
  slot.cookie.store(cookie, std::memory_order_release);
  // The cookie rides with the packet; the kernel adopts it where the stack
  // takes the packet from this hook and resolves it when the packet
  // terminates, or reports it skipped when it cannot capture.
  pkt.guard_cookie = cookie;
  // PASS hands the packet to the stack; the shadow fast-path run's cycles
  // are still charged — that cost IS the guard's overhead.
  return RunResult{Verdict::kPass, 0, r.cycles};
}

GuardUnit::Slot* GuardUnit::claim(std::uint64_t cookie) {
  const unsigned cpu = static_cast<unsigned>((cookie >> 48) & 0xff);
  if (cpu >= cpus_.size()) return nullptr;
  CpuSlots& cs = *cpus_[cpu];
  Slot& slot = cs.slots[((cookie & 0xffff'ffff'ffffULL) - 1) &
                        (cs.slots.size() - 1)];
  if (slot.cookie.load(std::memory_order_acquire) != cookie) {
    stale_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  return &slot;
}

void GuardUnit::skip(std::uint64_t cookie) {
  Slot* slot = claim(cookie);
  if (slot == nullptr) return;
  slot->cookie.store(0, std::memory_order_release);
  skipped_.fetch_add(1, std::memory_order_relaxed);
}

void GuardUnit::resolve(std::uint64_t cookie, const kern::RxSummary& summary,
                        const std::vector<kern::ShadowEmission>& emissions) {
  Slot* slot = claim(cookie);
  if (slot == nullptr) return;
  const Verdict verdict = slot->verdict;
  const int oif = slot->oif;
  // The slot is only reclaimed by its owning worker a full ring-depth later,
  // so reading the payload after the acquire and then clearing is safe.
  const std::vector<std::uint8_t> bytes = slot->bytes;
  slot->cookie.store(0, std::memory_order_release);

  bool match = true;
  switch (verdict) {
    case Verdict::kPass:
    case Verdict::kAborted:
      // The fast path deferred to the stack — trivially equivalent.
      break;
    case Verdict::kUserspace:
      // AF_XDP delivery has no slow-path analogue to compare against; the
      // guard is not meant to front XSK workloads.
      skipped_.fetch_add(1, std::memory_order_relaxed);
      return;
    case Verdict::kDrop:
      if (summary.drop == kern::Drop::kNeighPending) {
        // Queued awaiting ARP is neither forwarded nor dropped; comparing
        // would raise false divergences during resolution windows.
        skipped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      match = summary.drop != kern::Drop::kNone;
      break;
    case Verdict::kTx:
    case Verdict::kRedirect: {
      if (summary.drop == kern::Drop::kNeighPending) {
        skipped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      match = false;
      for (const kern::ShadowEmission& e : emissions) {
        if (e.ifindex != oif) continue;
        if (e.pkt.size() == bytes.size() &&
            std::memcmp(e.pkt.data(), bytes.data(), bytes.size()) == 0) {
          match = true;
          break;
        }
      }
      break;
    }
  }
  compares_.fetch_add(1, std::memory_order_relaxed);
  if (match) {
    note_clean();
    return;
  }
  divergences_.fetch_add(1, std::memory_order_relaxed);
  LFP_WARN("guard") << device_ << ": fast path diverged from slow path "
                    << "(fast verdict " << static_cast<int>(verdict)
                    << " oif " << oif << ", slow drop "
                    << kern::drop_name(summary.drop) << ", " << emissions.size()
                    << " slow emissions)";
  trip(TripReason::kDivergence, guard_.kernel().now_ns());
}

void GuardUnit::note_clean() {
  const GuardMode mode = mode_.load(std::memory_order_acquire);
  if (mode == GuardMode::kShadow) {
    const std::uint32_t streak =
        clean_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (streak >= guard_.policy().canary_packets) {
      GuardMode expected = GuardMode::kShadow;
      if (mode_.compare_exchange_strong(expected, GuardMode::kActive,
                                        std::memory_order_acq_rel)) {
        clean_streak_.store(0, std::memory_order_relaxed);
        promotions_.fetch_add(1, std::memory_order_relaxed);
        LFP_INFO("guard") << device_ << ": canary promoted after " << streak
                          << " clean compares";
      }
    }
  } else if (mode == GuardMode::kHalfOpen) {
    const std::uint32_t streak =
        clean_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (streak >= guard_.policy().half_open_packets) {
      GuardMode expected = GuardMode::kHalfOpen;
      if (mode_.compare_exchange_strong(expected, GuardMode::kActive,
                                        std::memory_order_acq_rel)) {
        clean_streak_.store(0, std::memory_order_relaxed);
        consecutive_trips_.store(0, std::memory_order_relaxed);
        trip_reason_.store(TripReason::kNone, std::memory_order_relaxed);
        closes_.fetch_add(1, std::memory_order_relaxed);
        LFP_INFO("guard") << device_ << ": breaker closed after " << streak
                          << " clean half-open probes";
      }
    }
  }
}

void GuardUnit::note_abort_window(bool aborted) {
  const std::uint32_t window = guard_.policy().abort_window;
  if (window == 0) return;
  if (aborted) win_aborts_.fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t runs =
      win_runs_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (runs < window) return;
  const std::uint32_t aborts = win_aborts_.load(std::memory_order_relaxed);
  win_runs_.store(0, std::memory_order_relaxed);
  win_aborts_.store(0, std::memory_order_relaxed);
  if (static_cast<double>(aborts) >
      guard_.policy().abort_rate_threshold * static_cast<double>(runs)) {
    LFP_WARN("guard") << device_ << ": abort rate " << aborts << "/" << runs
                      << " breached the breaker threshold";
    trip(TripReason::kAbortRate, guard_.kernel().now_ns());
  }
}

void GuardUnit::trip(TripReason reason, std::uint64_t now_ns) {
  GuardMode mode = mode_.load(std::memory_order_acquire);
  for (;;) {
    if (mode == GuardMode::kQuarantined) return;  // already open
    if (mode_.compare_exchange_weak(mode, GuardMode::kQuarantined,
                                    std::memory_order_acq_rel)) {
      break;
    }
  }
  if (mode == GuardMode::kShadow) {
    canary_rejections_.fetch_add(1, std::memory_order_relaxed);
  }
  trip_reason_.store(reason, std::memory_order_relaxed);
  last_trip_ns_.store(now_ns, std::memory_order_relaxed);
  clean_streak_.store(0, std::memory_order_relaxed);
  quarantines_.fetch_add(1, std::memory_order_relaxed);
  pending_quarantine_.store(true, std::memory_order_release);
  LFP_WARN("guard") << device_ << ": breaker tripped ("
                    << trip_reason_name(reason) << ") from "
                    << guard_mode_name(mode) << "; quarantined";
}

GuardUnitStats GuardUnit::stats() const {
  GuardUnitStats s;
  s.shadow_runs = shadow_runs_.load(std::memory_order_relaxed);
  s.compares = compares_.load(std::memory_order_relaxed);
  s.divergences = divergences_.load(std::memory_order_relaxed);
  s.skipped = skipped_.load(std::memory_order_relaxed);
  s.stale = stale_.load(std::memory_order_relaxed);
  s.sampled = sampled_.load(std::memory_order_relaxed);
  s.quarantine_passes = quarantine_passes_.load(std::memory_order_relaxed);
  s.promotions = promotions_.load(std::memory_order_relaxed);
  s.canary_rejections = canary_rejections_.load(std::memory_order_relaxed);
  s.quarantines = quarantines_.load(std::memory_order_relaxed);
  s.half_open_probes = half_open_probes_.load(std::memory_order_relaxed);
  s.closes = closes_.load(std::memory_order_relaxed);
  return s;
}

// --------------------------------------------------------- EquivalenceGuard

EquivalenceGuard::EquivalenceGuard(kern::Kernel& kernel, GuardPolicy policy)
    : kernel_(kernel),
      policy_(policy),
      reprobe_rng_(policy.reprobe_jitter_seed) {
  if (policy_.expectation_slots == 0 ||
      (policy_.expectation_slots & (policy_.expectation_slots - 1)) != 0) {
    policy_.expectation_slots = 4096;
  }
  kernel_.set_shadow_observer(this);
}

EquivalenceGuard::~EquivalenceGuard() {
  if (kernel_.shadow_observer() == this) kernel_.set_shadow_observer(nullptr);
}

bool EquivalenceGuard::sampled_hash(std::uint32_t rss_hash, std::uint32_t k) {
  if (k == 0) return false;
  return mix32(rss_hash) % k == 0;
}

kern::PacketProgram* EquivalenceGuard::attach_unit(
    const std::string& device, ebpf::HookType hook,
    ebpf::Attachment* attachment) {
  const auto key = std::make_pair(device, static_cast<int>(hook));
  auto it = units_.find(key);
  if (it != units_.end()) {
    it->second->att_ = attachment;
    return it->second.get();
  }
  std::size_t id = 0;
  while (id < kMaxUnits && by_id_[id].load(std::memory_order_relaxed)) ++id;
  LFP_CHECK_MSG(id < kMaxUnits, "guard: too many guarded hooks");
  auto unit = std::make_unique<GuardUnit>(*this, static_cast<std::uint8_t>(id),
                                          device, hook, attachment);
  GuardUnit* raw = unit.get();
  units_.emplace(key, std::move(unit));
  by_id_[id].store(raw, std::memory_order_release);
  return raw;
}

void EquivalenceGuard::drop_unit(const std::string& device,
                                 ebpf::HookType hook) {
  auto it = units_.find(std::make_pair(device, static_cast<int>(hook)));
  if (it == units_.end()) return;
  by_id_[it->second->id_].store(nullptr, std::memory_order_release);
  units_.erase(it);
}

GuardUnit* EquivalenceGuard::unit(const std::string& device,
                                  ebpf::HookType hook) {
  auto it = units_.find(std::make_pair(device, static_cast<int>(hook)));
  return it == units_.end() ? nullptr : it->second.get();
}

std::vector<GuardUnit*> EquivalenceGuard::units() {
  std::vector<GuardUnit*> out;
  out.reserve(units_.size());
  for (auto& [key, u] : units_) out.push_back(u.get());
  return out;
}

void EquivalenceGuard::on_swap(const std::string& device, ebpf::HookType hook,
                               std::uint64_t now_ns) {
  (void)now_ns;
  GuardUnit* u = unit(device, hook);
  if (u == nullptr) return;
  const GuardMode mode = u->mode_.load(std::memory_order_acquire);
  u->clean_streak_.store(0, std::memory_order_relaxed);
  u->win_runs_.store(0, std::memory_order_relaxed);
  u->win_aborts_.store(0, std::memory_order_relaxed);
  if (mode == GuardMode::kQuarantined) {
    // The re-probe redeploy landed: probe the fresh program in half-open
    // shadow mode — the slow path still serves until the streak closes it.
    u->pending_quarantine_.store(false, std::memory_order_relaxed);
    u->reprobe_at_ns_ = 0;
    u->half_open_probes_.fetch_add(1, std::memory_order_relaxed);
    u->mode_.store(GuardMode::kHalfOpen, std::memory_order_release);
    LFP_INFO("guard") << device << ": redeploy entered half-open probing";
  } else {
    // New or re-synthesized program: restart the canary from scratch.
    u->mode_.store(GuardMode::kShadow, std::memory_order_release);
  }
}

void EquivalenceGuard::on_degrade(const std::string& device,
                                  ebpf::HookType hook) {
  GuardUnit* u = unit(device, hook);
  if (u == nullptr) return;
  if (u->mode_.load(std::memory_order_acquire) == GuardMode::kQuarantined) {
    return;  // quarantine IS a degrade; keep breaker state
  }
  // Withdrawal or failure-path degrade: the PASS fallback needs no guarding,
  // and whatever deploys next must re-canary.
  u->clean_streak_.store(0, std::memory_order_relaxed);
  u->mode_.store(GuardMode::kShadow, std::memory_order_release);
}

std::uint64_t EquivalenceGuard::reprobe_delay_ns(
    std::uint32_t consecutive_trips) {
  std::uint64_t delay = policy_.reprobe_base_ns;
  for (std::uint32_t i = 1; i < consecutive_trips && delay < policy_.reprobe_max_ns;
       ++i) {
    delay *= 2;
  }
  delay = std::min(delay, policy_.reprobe_max_ns);
  const double jitter = policy_.reprobe_jitter;
  if (jitter > 0.0) {
    const double f = 1.0 + jitter * (2.0 * reprobe_rng_.next_double() - 1.0);
    delay = static_cast<std::uint64_t>(static_cast<double>(delay) * f);
  }
  return std::max<std::uint64_t>(delay, 1);
}

GuardMaintenance EquivalenceGuard::maintain(std::uint64_t now_ns,
                                            const QuarantineFn& quarantine_cb) {
  GuardMaintenance m;
  // Control-plane fault seam: force-trip the first closed breaker, modelling
  // an operator/monitoring-driven trip racing the deploy loop.
  if (util::FaultInjector::global().should_fail(util::kFaultGuardBreaker)) {
    for (auto& [key, u] : units_) {
      const GuardMode mode = u->mode_.load(std::memory_order_acquire);
      if (mode == GuardMode::kActive || mode == GuardMode::kShadow ||
          mode == GuardMode::kHalfOpen) {
        u->trip(TripReason::kForced, now_ns);
        break;
      }
    }
  }
  for (auto& [key, u] : units_) {
    if (u->pending_quarantine_.exchange(false, std::memory_order_acq_rel)) {
      // Complete the quarantine through the deployer: park the hook on the
      // PASS fallback (bumping the flow epoch, so cached verdicts flush) and
      // schedule a re-probe with bounded jittered backoff.
      if (quarantine_cb) quarantine_cb(u->device_, u->hook_);
      const std::uint32_t trips =
          u->consecutive_trips_.fetch_add(1, std::memory_order_relaxed) + 1;
      u->reprobe_at_ns_ = now_ns + reprobe_delay_ns(trips);
      m.quarantined_devices.push_back(u->device_);
      LFP_INFO("guard") << u->device_ << ": quarantine completed; re-probe in "
                        << (u->reprobe_at_ns_ - now_ns) / 1000000 << " ms";
    }
    if (u->mode_.load(std::memory_order_acquire) == GuardMode::kQuarantined &&
        u->reprobe_at_ns_ != 0 && now_ns >= u->reprobe_at_ns_) {
      m.reprobe_due = true;
    }
  }
  return m;
}

std::uint64_t EquivalenceGuard::next_reprobe_ns() const {
  std::uint64_t next = 0;
  for (const auto& [key, u] : units_) {
    if (u->reprobe_at_ns_ == 0) continue;
    if (next == 0 || u->reprobe_at_ns_ < next) next = u->reprobe_at_ns_;
  }
  return next;
}

GuardTotals EquivalenceGuard::totals() const {
  GuardTotals t;
  for (const auto& [key, u] : units_) {
    const GuardUnitStats s = u->stats();
    t.divergences += s.divergences;
    t.quarantines += s.quarantines;
    t.promotions += s.promotions;
    t.canary_rejections += s.canary_rejections;
    t.half_open_probes += s.half_open_probes;
    t.closes += s.closes;
    t.compares += s.compares;
    t.sampled += s.sampled;
    ++t.units;
    const GuardMode mode = u->mode_.load(std::memory_order_acquire);
    if (mode != GuardMode::kActive) ++t.units_open;
    if (mode == GuardMode::kQuarantined || mode == GuardMode::kHalfOpen) {
      ++t.units_unhealthy;
    }
  }
  return t;
}

GuardUnit* EquivalenceGuard::unit_of(std::uint64_t cookie) const {
  const std::size_t id = static_cast<std::size_t>(cookie >> 56);
  if (id == 0 || id > kMaxUnits) return nullptr;
  return by_id_[id - 1].load(std::memory_order_acquire);
}

void EquivalenceGuard::on_shadow_resolved(
    std::uint64_t cookie, const kern::RxSummary& summary,
    std::vector<kern::ShadowEmission>&& emissions) {
  if (GuardUnit* u = unit_of(cookie)) u->resolve(cookie, summary, emissions);
}

void EquivalenceGuard::on_shadow_skipped(std::uint64_t cookie) {
  if (GuardUnit* u = unit_of(cookie)) u->skip(cookie);
}

}  // namespace linuxfp::core
