// Runtime equivalence guard (DESIGN.md §13): canary deployment, sampled
// shadow execution and per-FPM circuit breakers with self-healing
// quarantine.
//
// LinuxFP's safety argument — synthesized FPMs are semantically equivalent
// to the slow path — is checked offline (verifier + differential fuzz) but
// was never enforced at runtime: one latent synthesizer/VM/coherence bug
// would misforward at line rate forever. The guard closes that gap with one
// mechanism used in two regimes:
//
//   * Canary (shadow mode): a newly swapped-in program's verdict is computed
//     on a COPY of each packet and recorded; the guard then returns kPass so
//     the ORIGINAL packet traverses the slow path authoritatively. The
//     kernel's shadow capture (kern::ShadowObserver) reports what the slow
//     path actually did — terminal summary plus every attempted transmit —
//     and the guard compares verdict and rewritten bytes. N clean compares
//     promote the program to active; the first divergence rejects it.
//     Because the slow path serves every canary packet, a diverging canary
//     never alters externally visible behaviour.
//
//   * Sampled shadow execution (active mode): a deterministic per-flow
//     sampler (1-in-K by mixed rss_hash, so the sample is uncorrelated with
//     RETA steering) keeps replaying a thin slice of traffic through the
//     slow path exactly as in canary mode. Sampled flows are served by the
//     slow path; the other (K-1)/K of traffic runs the fast path untouched,
//     so steady-state overhead is ~S/(K·F) of the fast-path cost.
//
// Divergence — or a sliding-window abort-rate breach — trips the per-unit
// circuit breaker: the unit atomically flips to kQuarantined (the guard
// returns kPass before even probing the flow cache), and the controller
// completes the quarantine on its next turn via the deployer's
// degrade-to-PASS path (which also bumps the flow epoch, flushing cached
// verdicts). Re-probes are scheduled with bounded jittered backoff; a
// redeploy moves the unit to kHalfOpen (shadow probing), and a clean probe
// streak closes the breaker back to kActive.
//
// Threading: verdict recording runs on engine workers (per-CPU expectation
// slots, release/acquire on the slot cookie); comparison and trips run on
// the single slow-path thread (atomics only); quarantine completion,
// backoff and re-probe run on the controller thread via maintain().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ebpf/loader.h"
#include "kernel/kernel.h"
#include "util/rng.h"

namespace linuxfp::core {

struct GuardPolicy {
  bool enabled = false;
  // Canary: clean compares required to promote shadow -> active; the first
  // divergence rejects (quarantines) instead.
  std::uint32_t canary_packets = 128;
  // Active-mode sampling: 1-in-K flows by mixed rss_hash (0 disables
  // sampling; promoted programs then run unchecked).
  std::uint32_t sample_every = 64;
  // Sliding-window abort-rate breaker over fast-path runs in active mode.
  std::uint32_t abort_window = 256;
  double abort_rate_threshold = 0.5;
  // Half-open: clean shadow compares required to close the breaker.
  std::uint32_t half_open_packets = 64;
  // Per-CPU deferred-expectation slots (power of two). Must exceed the
  // engine's slow-ring depth so an in-flight cookie is never overwritten;
  // 4096 covers the default 1024-deep slow ring 4x.
  std::uint32_t expectation_slots = 4096;
  // Re-probe backoff after a quarantine: base doubling per consecutive trip
  // up to the cap, +/- jitter (deterministic per seed).
  std::uint64_t reprobe_base_ns = 50'000'000;     // 50 ms
  std::uint64_t reprobe_max_ns = 5'000'000'000;   // 5 s cap
  double reprobe_jitter = 0.2;
  std::uint64_t reprobe_jitter_seed = 0x6a2dbeefu;
};

// Breaker state of one guarded (device, hook) unit.
enum class GuardMode : std::uint8_t {
  kShadow,       // canary: slow path serves, every packet compared
  kActive,       // fast path serves, 1-in-K flows compared
  kQuarantined,  // breaker open: unconditional kPass (bare slow path)
  kHalfOpen,     // re-probe after redeploy: shadow semantics
};

const char* guard_mode_name(GuardMode mode);

// Why a breaker tripped (sticky until the next close).
enum class TripReason : std::uint8_t { kNone, kDivergence, kAbortRate, kForced };

const char* trip_reason_name(TripReason reason);

// Counters of one unit; all datapath/slow-thread written fields are atomics,
// so a live read is safe (and exact once traffic quiesces).
struct GuardUnitStats {
  std::uint64_t shadow_runs = 0;      // verdicts recorded for comparison
  std::uint64_t compares = 0;         // resolved comparisons
  std::uint64_t divergences = 0;
  std::uint64_t skipped = 0;  // uncomparable (ARP-pending, AF_XDP, re-entry)
  std::uint64_t stale = 0;            // cookie never resolved in time
  std::uint64_t sampled = 0;          // active-mode sampled packets
  std::uint64_t quarantine_passes = 0;  // packets short-circuited while open
  std::uint64_t promotions = 0;       // canary -> active
  std::uint64_t canary_rejections = 0;
  std::uint64_t quarantines = 0;      // breaker trips (any reason)
  std::uint64_t half_open_probes = 0; // redeploys that entered half-open
  std::uint64_t closes = 0;           // half-open -> active recoveries
};

class EquivalenceGuard;

// The PacketProgram decorator installed on the device hook instead of the
// raw attachment. Owned by the guard; one per (device, hook).
class GuardUnit : public kern::PacketProgram {
 public:
  GuardUnit(EquivalenceGuard& guard, std::uint8_t id, std::string device,
            ebpf::HookType hook, ebpf::Attachment* attachment);

  // kern::PacketProgram. A shadowed packet leaves with its cookie in
  // pkt.guard_cookie for the kernel's stack to adopt (kern::Kernel).
  RunResult run(net::Packet& pkt, int ingress_ifindex,
                unsigned cpu = 0) override;
  void prepare_cpus(unsigned n) override;
  std::string name() const override;

  const std::string& device() const { return device_; }
  ebpf::HookType hook() const { return hook_; }
  ebpf::Attachment* attachment() const { return att_; }
  GuardMode mode() const { return mode_.load(std::memory_order_acquire); }
  TripReason trip_reason() const {
    return trip_reason_.load(std::memory_order_relaxed);
  }
  GuardUnitStats stats() const;

 private:
  friend class EquivalenceGuard;

  // One recorded fast-path expectation awaiting its slow-path truth. The
  // cookie is released after the payload write and acquired before the read;
  // a slot is only reused after its sequence advances by the whole ring,
  // which exceeds any in-flight window (see GuardPolicy::expectation_slots).
  struct Slot {
    std::atomic<std::uint64_t> cookie{0};
    Verdict verdict = Verdict::kPass;
    int oif = 0;
    std::uint64_t armed_ns = 0;
    std::vector<std::uint8_t> bytes;  // fast-rewritten frame (kTx/kRedirect)
  };
  struct CpuSlots {
    std::uint64_t next_seq = 0;  // owning worker only
    std::vector<Slot> slots;
  };

  // Shadow-semantics run shared by kShadow/kHalfOpen/sampled-kActive:
  // records the expectation, puts its cookie on the packet, returns kPass.
  RunResult run_shadowed(net::Packet& pkt, int ingress_ifindex, unsigned cpu);
  // The slot still holding `cookie`'s expectation; null (counted stale
  // when the slot has moved on) otherwise. The caller clears the slot.
  Slot* claim(std::uint64_t cookie);
  // Resolution: compare one expectation against the slow path's truth.
  void resolve(std::uint64_t cookie, const kern::RxSummary& summary,
               const std::vector<kern::ShadowEmission>& emissions);
  // The kernel could not capture the packet: drop the expectation.
  void skip(std::uint64_t cookie);
  void note_clean();
  void trip(TripReason reason, std::uint64_t now_ns);
  void note_abort_window(bool aborted);

  EquivalenceGuard& guard_;
  std::uint8_t id_;
  std::string device_;
  ebpf::HookType hook_;
  ebpf::Attachment* att_;

  std::atomic<GuardMode> mode_{GuardMode::kShadow};
  std::atomic<std::uint32_t> clean_streak_{0};
  std::atomic<bool> pending_quarantine_{false};
  std::atomic<TripReason> trip_reason_{TripReason::kNone};
  std::atomic<std::uint64_t> last_trip_ns_{0};

  // Abort-rate window (relaxed; sampling-grade accuracy is enough).
  std::atomic<std::uint32_t> win_runs_{0};
  std::atomic<std::uint32_t> win_aborts_{0};

  // stats (names mirror GuardUnitStats)
  std::atomic<std::uint64_t> shadow_runs_{0}, compares_{0}, divergences_{0},
      skipped_{0}, stale_{0}, sampled_{0}, quarantine_passes_{0},
      promotions_{0}, canary_rejections_{0}, quarantines_{0},
      half_open_probes_{0}, closes_{0};

  // Control-plane bookkeeping. consecutive_trips_ is atomic because the
  // slow-path thread zeroes it when a half-open probe streak closes the
  // breaker; reprobe_at_ns_ is controller-thread only.
  std::atomic<std::uint32_t> consecutive_trips_{0};
  std::uint64_t reprobe_at_ns_ = 0;  // 0 = none scheduled

  std::vector<std::unique_ptr<CpuSlots>> cpus_;
};

// Aggregate view over every unit, read by status_json and prometheus_status.
struct GuardTotals {
  std::uint64_t divergences = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t promotions = 0;
  std::uint64_t canary_rejections = 0;
  std::uint64_t half_open_probes = 0;
  std::uint64_t closes = 0;
  std::uint64_t compares = 0;
  std::uint64_t sampled = 0;
  // Units currently not in kActive (shadow/quarantined/half-open).
  std::uint32_t units_open = 0;
  // Units currently quarantined or half-open (breaker not closed).
  std::uint32_t units_unhealthy = 0;
  std::uint32_t units = 0;
};

// What one maintain() pass did / wants done.
struct GuardMaintenance {
  // Units whose breaker tripped since the last pass; the controller already
  // had the deployer park them on PASS by the time maintain() returns.
  std::vector<std::string> quarantined_devices;
  bool reprobe_due = false;  // force a redeploy (re-enter via on_swap)
};

class EquivalenceGuard : public kern::ShadowObserver {
 public:
  EquivalenceGuard(kern::Kernel& kernel, GuardPolicy policy);
  ~EquivalenceGuard() override;
  EquivalenceGuard(const EquivalenceGuard&) = delete;
  EquivalenceGuard& operator=(const EquivalenceGuard&) = delete;

  const GuardPolicy& policy() const { return policy_; }
  kern::Kernel& kernel() { return kernel_; }

  // Deployer integration: returns the PacketProgram to install on the hook
  // (creating the unit on first sight). The attachment must outlive the
  // guard or be re-registered after reconstruction.
  kern::PacketProgram* attach_unit(const std::string& device,
                                   ebpf::HookType hook,
                                   ebpf::Attachment* attachment);
  // The deployer freed the unit's slot (its device was deleted, or the
  // attach that created the unit failed): the unit goes, and a later unit
  // may reuse its id. As with any program the deployer releases, no packet
  // of the unit's hook may still be in flight.
  void drop_unit(const std::string& device, ebpf::HookType hook);
  // A successful atomic swap activated a (possibly new) program: fresh units
  // and re-deploys re-enter canary shadow; a quarantined unit's redeploy
  // enters half-open probing.
  void on_swap(const std::string& device, ebpf::HookType hook,
               std::uint64_t now_ns);
  // The device was parked on the PASS fallback (withdrawal or failure
  // degrade). Quarantined units stay quarantined; everything else resets to
  // shadow so the next real deploy re-canaries.
  void on_degrade(const std::string& device, ebpf::HookType hook);

  // Controller-thread pass: completes pending quarantines through
  // `quarantine_cb` (the deployer's degrade path), schedules re-probes with
  // backoff, and reports whether a re-probe deadline has passed. The
  // guard.breaker fault point fires here, force-tripping active units.
  using QuarantineFn =
      std::function<void(const std::string& device, ebpf::HookType hook)>;
  GuardMaintenance maintain(std::uint64_t now_ns,
                            const QuarantineFn& quarantine_cb);
  // Earliest pending re-probe deadline (0 = none).
  std::uint64_t next_reprobe_ns() const;

  GuardUnit* unit(const std::string& device, ebpf::HookType hook);
  std::vector<GuardUnit*> units();
  GuardTotals totals() const;

  // kern::ShadowObserver: the slow path finished a shadowed packet, or
  // could not capture one.
  void on_shadow_resolved(std::uint64_t cookie, const kern::RxSummary& summary,
                          std::vector<kern::ShadowEmission>&& emissions)
      override;
  void on_shadow_skipped(std::uint64_t cookie) override;

  // Deterministic per-flow sampler: true when the (mixed) hash falls in the
  // 1-in-K sample. Exposed for tests and the sampling-cost bench.
  static bool sampled_hash(std::uint32_t rss_hash, std::uint32_t k);

  // Unit ids are bounded so cookie decoding on the slow-path thread can index
  // a fixed atomic array while the controller thread keeps creating units.
  static constexpr std::size_t kMaxUnits = 64;

 private:
  friend class GuardUnit;
  std::uint64_t reprobe_delay_ns(std::uint32_t consecutive_trips);
  // The unit a cookie names; null once that unit is gone.
  GuardUnit* unit_of(std::uint64_t cookie) const;

  kern::Kernel& kernel_;
  GuardPolicy policy_;
  std::map<std::pair<std::string, int>, std::unique_ptr<GuardUnit>> units_;
  std::array<std::atomic<GuardUnit*>, kMaxUnits> by_id_{};
  util::Rng reprobe_rng_;
};

}  // namespace linuxfp::core
