// Operator-facing status report (what a `linuxfpctl show` CLI prints):
// the introspected world view, the current processing graphs, per-attachment
// fast-path statistics, and the controller health record. Pure formatting
// over controller state.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "util/json.h"

namespace linuxfp::core {

class Controller;

// Controller health record: degraded-mode state plus failure accounting for
// the deploy pipeline. A deploy failure never leaves the datapath without a
// working program — the affected device falls back to the bare slow path —
// but it does flip `degraded` until a retry succeeds, so operators (and
// tests) can observe that acceleration is withdrawn.
struct HealthStatus {
  bool degraded = false;
  // Consecutive failed deploy reactions; drives exponential backoff.
  std::uint32_t consecutive_failures = 0;
  std::uint64_t deploy_attempts = 0;   // reactions that reached the deployer
  std::uint64_t deploy_failures = 0;   // reactions with >= 1 failed device
  std::uint64_t device_rollbacks = 0;  // per-device transactions rolled back
  std::uint64_t retries_scheduled = 0;
  std::uint64_t recoveries = 0;        // degraded -> healthy transitions
  std::uint64_t introspection_errors = 0;  // failed netlink dump reads
  std::uint64_t next_retry_ns = 0;     // 0 = no retry pending
  // Monotonic sim-clock stamps of the newest degrade/recovery transition
  // (deploy failure or guard quarantine / deploy recovery or breaker close);
  // 0 until the first such event.
  std::uint64_t last_degraded_ns = 0;
  std::uint64_t last_recovered_ns = 0;
  std::string last_error;              // "code: message" of the newest failure
  // Failure counts keyed by error code; injected faults use "fault.<point>",
  // so this doubles as the per-injection-point failure counter table.
  std::map<std::string, std::uint64_t> failures_by_code;
};

util::Json health_json(const HealthStatus& health);

// Multi-line human-readable report.
std::string format_status(Controller& controller);

// Machine-readable variant (JSON) for tooling. Includes a "datapath"
// section (kernel packet/drop counters) and a "metrics" section (the full
// observability registry: per-stage slow-path counters, per-FPM fast-path
// counters, helper calls, map hits/misses, FIB depth, histograms).
util::Json status_json(Controller& controller);

// Prometheus-style text exposition of the same state: every registry
// counter/histogram plus the health gauges, suitable for a scrape endpoint.
std::string prometheus_status(Controller& controller);

}  // namespace linuxfp::core
