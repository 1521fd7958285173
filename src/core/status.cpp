#include "core/status.h"

#include <sstream>
#include <vector>

#include "core/controller.h"
#include "ebpf/loader.h"
#include "util/fault.h"
#include "util/strings.h"

namespace linuxfp::core {

namespace {
ebpf::HookType hook_of(const util::Json& graph) {
  return graph.at("hook").as_string() == "tc" ? ebpf::HookType::kTcIngress
                                              : ebpf::HookType::kXdp;
}
}  // namespace

util::Json health_json(const HealthStatus& health) {
  util::Json h = util::Json::object();
  h["degraded"] = health.degraded;
  h["consecutive_failures"] =
      static_cast<std::int64_t>(health.consecutive_failures);
  h["deploy_attempts"] = static_cast<std::int64_t>(health.deploy_attempts);
  h["deploy_failures"] = static_cast<std::int64_t>(health.deploy_failures);
  h["device_rollbacks"] = static_cast<std::int64_t>(health.device_rollbacks);
  h["retries_scheduled"] = static_cast<std::int64_t>(health.retries_scheduled);
  h["recoveries"] = static_cast<std::int64_t>(health.recoveries);
  h["introspection_errors"] =
      static_cast<std::int64_t>(health.introspection_errors);
  h["next_retry_ns"] = static_cast<std::int64_t>(health.next_retry_ns);
  h["last_degraded_ns"] = static_cast<std::int64_t>(health.last_degraded_ns);
  h["last_recovered_ns"] =
      static_cast<std::int64_t>(health.last_recovered_ns);
  h["last_error"] = health.last_error;
  util::Json by_code = util::Json::object();
  for (const auto& [code, count] : health.failures_by_code) {
    by_code[code] = static_cast<std::int64_t>(count);
  }
  h["failures_by_code"] = by_code;
  return h;
}

util::Json status_json(Controller& controller) {
  util::Json out = util::Json::object();

  const WorldView& view = controller.view();
  util::Json world = util::Json::object();
  world["links"] = static_cast<std::int64_t>(view.links.size());
  world["routes"] = static_cast<std::int64_t>(view.routes.size());
  world["forward_rules"] =
      static_cast<std::int64_t>(view.forward_rule_count());
  world["ipsets"] = static_cast<std::int64_t>(view.sets.size());
  world["services"] = static_cast<std::int64_t>(view.services.size());
  world["ip_forward"] = view.ip_forward();
  out["world"] = world;

  out["graphs"] = controller.current_graphs();
  out["resyntheses"] = static_cast<std::int64_t>(controller.resynth_count());

  util::Json attachments = util::Json::array();
  for (std::size_t i = 0; i < controller.current_graphs().size(); ++i) {
    const util::Json& graph = controller.current_graphs().at(i);
    const std::string device = graph.at("device").as_string();
    ebpf::Attachment* att =
        controller.deployer().attachment(device, hook_of(graph));
    if (!att) continue;
    util::Json a = util::Json::object();
    a["device"] = device;
    a["hook"] = graph.at("hook");
    a["programs_loaded"] = static_cast<std::int64_t>(att->programs().size());
    a["active_program"] =
        att->programs().empty()
            ? util::Json(nullptr)
            : util::Json(att->programs()[att->active_prog_id()].name);
    a["active_insns"] = static_cast<std::int64_t>(
        att->programs().empty()
            ? 0
            : att->programs()[att->active_prog_id()].size());
    const ebpf::AttachmentStats& s = att->stats();
    util::Json stats = util::Json::object();
    stats["runs"] = static_cast<std::int64_t>(s.runs);
    stats["pass"] = static_cast<std::int64_t>(s.pass);
    stats["drop"] = static_cast<std::int64_t>(s.drop);
    stats["redirect"] = static_cast<std::int64_t>(s.redirect);
    stats["to_userspace"] = static_cast<std::int64_t>(s.to_userspace);
    stats["aborted"] = static_cast<std::int64_t>(s.aborted);
    a["stats"] = stats;
    attachments.push_back(a);
  }
  out["attachments"] = attachments;

  const kern::Kernel& kernel = controller.kernel();
  const kern::KernelCounters& kc = kernel.counters();
  util::Json datapath = util::Json::object();
  datapath["slow_path_packets"] = kc.slow_path_packets;
  datapath["fast_path_packets"] = kc.fast_path_packets;
  datapath["forwarded"] = kc.forwarded;
  datapath["bridged"] = kc.bridged;
  datapath["locally_delivered"] = kc.locally_delivered;
  datapath["total_drops"] = kc.total_drops();
  util::Json drops = util::Json::object();
  for (const auto& [reason, count] : kc.drops) {
    drops[kern::drop_name(reason)] = count;
  }
  datapath["drops"] = drops;
  out["datapath"] = datapath;

  // Parallel engine observability: the engine.* counters Engine::reconcile
  // folds in at Engine::stop(), grouped for operators. Derived from the
  // registry names, so a new engine counter cannot go missing here:
  // engine.queue<i>.<name> lands in queues[i].<name>, any other
  // engine.<group>.<name> in <group>.<name> (slow, tx, gro, steering,
  // watchdog). The raw counters also flow through "metrics" and
  // prometheus_status.
  util::Json metrics = kernel.metrics().to_json();
  util::Json engine = util::Json::object();
  std::vector<util::Json> queues;
  for (const auto& [name, value] : metrics.at("counters").object_items()) {
    if (!util::starts_with(name, "engine.")) continue;
    const std::string rest = name.substr(std::string("engine.").size());
    const std::size_t dot = rest.find('.');
    const std::string group = rest.substr(0, dot);
    const std::string leaf = rest.substr(dot + 1);
    unsigned long long q = 0;
    if (util::starts_with(group, "queue") &&
        util::parse_u64(group.substr(std::string("queue").size()), q)) {
      while (queues.size() <= q) {
        util::Json qj = util::Json::object();
        qj["queue"] = static_cast<std::int64_t>(queues.size());
        queues.push_back(qj);
      }
      queues[q][leaf] = value;
    } else {
      engine[group][leaf] = value;
    }
  }
  if (!queues.empty()) engine["queues"] = util::Json(std::move(queues));
  if (!engine.object_items().empty()) out["engine"] = engine;
  out["metrics"] = metrics;

  // Microflow verdict cache (DESIGN.md §12), present while the deployer has
  // the cache on: the registry's flowcache.* names (summed on read from every
  // attachment's per-CPU caches) plus the derived hit rate.
  if (controller.deployer().flow_cache_enabled()) {
    util::Json fc = util::Json::object();
    for (const auto& [name, value] : metrics.at("counters").object_items()) {
      if (!util::starts_with(name, "flowcache.")) continue;
      fc[name.substr(std::string("flowcache.").size())] = value;
    }
    const double hits = fc.at("hits").as_number();
    const double lookups = hits + fc.at("misses").as_number();
    fc["hit_rate"] = lookups == 0 ? 0.0 : hits / lookups;
    out["flowcache"] = fc;
  }

  out["health"] = health_json(controller.health());

  // Equivalence-guard breaker state (DESIGN.md §13), present only when the
  // guard is enabled: per-unit mode plus aggregate comparison counters.
  if (EquivalenceGuard* guard = controller.guard()) {
    util::Json gj = util::Json::object();
    util::Json units = util::Json::array();
    for (GuardUnit* u : guard->units()) {
      const GuardUnitStats s = u->stats();
      util::Json uj = util::Json::object();
      uj["device"] = u->device();
      uj["mode"] = guard_mode_name(u->mode());
      uj["trip_reason"] = trip_reason_name(u->trip_reason());
      uj["compares"] = static_cast<std::int64_t>(s.compares);
      uj["divergences"] = static_cast<std::int64_t>(s.divergences);
      uj["sampled"] = static_cast<std::int64_t>(s.sampled);
      uj["quarantines"] = static_cast<std::int64_t>(s.quarantines);
      uj["promotions"] = static_cast<std::int64_t>(s.promotions);
      uj["closes"] = static_cast<std::int64_t>(s.closes);
      units.push_back(uj);
    }
    gj["units"] = units;
    const GuardTotals t = guard->totals();
    gj["divergences"] = static_cast<std::int64_t>(t.divergences);
    gj["quarantines"] = static_cast<std::int64_t>(t.quarantines);
    gj["promotions"] = static_cast<std::int64_t>(t.promotions);
    gj["canary_rejections"] =
        static_cast<std::int64_t>(t.canary_rejections);
    gj["half_open_probes"] =
        static_cast<std::int64_t>(t.half_open_probes);
    gj["closes"] = static_cast<std::int64_t>(t.closes);
    gj["compares"] = static_cast<std::int64_t>(t.compares);
    gj["sampled"] = static_cast<std::int64_t>(t.sampled);
    gj["units_open"] = static_cast<std::int64_t>(t.units_open);
    out["guard"] = gj;
  }

  util::FaultInjector& fi = util::FaultInjector::global();
  if (fi.armed()) {
    util::Json faults = util::Json::array();
    for (const util::FaultInjector::PointStats& p : fi.stats()) {
      util::Json f = util::Json::object();
      f["point"] = p.point;
      f["hits"] = static_cast<std::int64_t>(p.hits);
      f["fires"] = static_cast<std::int64_t>(p.fires);
      faults.push_back(f);
    }
    out["fault_injection"] = faults;
  }
  return out;
}

std::string prometheus_status(Controller& controller) {
  std::ostringstream out;
  out << controller.kernel().metrics().prometheus_text("linuxfp");
  const HealthStatus h = controller.health();
  out << "# TYPE linuxfp_controller_degraded gauge\n";
  out << "linuxfp_controller_degraded " << (h.degraded ? 1 : 0) << "\n";
  out << "# TYPE linuxfp_controller_deploy_attempts counter\n";
  out << "linuxfp_controller_deploy_attempts " << h.deploy_attempts << "\n";
  out << "# TYPE linuxfp_controller_deploy_failures counter\n";
  out << "linuxfp_controller_deploy_failures " << h.deploy_failures << "\n";
  out << "# TYPE linuxfp_controller_recoveries counter\n";
  out << "linuxfp_controller_recoveries " << h.recoveries << "\n";
  out << "# TYPE linuxfp_controller_resyntheses counter\n";
  out << "linuxfp_controller_resyntheses " << controller.resynth_count()
      << "\n";
  out << "# TYPE linuxfp_controller_last_degraded_ns gauge\n";
  out << "linuxfp_controller_last_degraded_ns " << h.last_degraded_ns << "\n";
  out << "# TYPE linuxfp_controller_last_recovered_ns gauge\n";
  out << "linuxfp_controller_last_recovered_ns " << h.last_recovered_ns
      << "\n";
  if (EquivalenceGuard* guard = controller.guard()) {
    const GuardTotals t = guard->totals();
    out << "# TYPE linuxfp_guard_compares counter\n";
    out << "linuxfp_guard_compares " << t.compares << "\n";
    out << "# TYPE linuxfp_guard_divergences counter\n";
    out << "linuxfp_guard_divergences " << t.divergences << "\n";
    out << "# TYPE linuxfp_guard_quarantines counter\n";
    out << "linuxfp_guard_quarantines " << t.quarantines << "\n";
    out << "# TYPE linuxfp_guard_promotions counter\n";
    out << "linuxfp_guard_promotions " << t.promotions << "\n";
    out << "# TYPE linuxfp_guard_recoveries counter\n";
    out << "linuxfp_guard_recoveries " << t.closes << "\n";
    out << "# TYPE linuxfp_guard_sampled counter\n";
    out << "linuxfp_guard_sampled " << t.sampled << "\n";
    out << "# TYPE linuxfp_guard_units_open gauge\n";
    out << "linuxfp_guard_units_open " << t.units_open << "\n";
  }
  return out.str();
}

std::string format_status(Controller& controller) {
  util::Json j = status_json(controller);
  std::ostringstream out;
  out << "LinuxFP controller status\n";
  out << "=========================\n";
  const util::Json& world = j.at("world");
  out << "introspected: " << world.at("links").as_int() << " links, "
      << world.at("routes").as_int() << " routes, "
      << world.at("forward_rules").as_int() << " FORWARD rules, "
      << world.at("ipsets").as_int() << " ipsets, "
      << world.at("services").as_int() << " ipvs services, ip_forward="
      << (world.at("ip_forward").as_bool() ? "on" : "off") << "\n";
  out << "resyntheses: " << j.at("resyntheses").as_int() << "\n\n";

  const util::Json& graphs = j.at("graphs");
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const util::Json& g = graphs.at(i);
    out << "device " << g.at("device").as_string() << " (hook "
        << g.at("hook").as_string() << "): ";
    bool first = true;
    for (const auto& [name, node] : g.at("nodes").object_items()) {
      if (!first) out << " -> ";
      first = false;
      out << name;
    }
    out << "\n";
  }
  out << "\n";

  const util::Json& atts = j.at("attachments");
  for (std::size_t i = 0; i < atts.size(); ++i) {
    const util::Json& a = atts.at(i);
    const util::Json& s = a.at("stats");
    out << "attachment " << a.at("device").as_string() << ": active='"
        << a.at("active_program").as_string() << "' ("
        << a.at("active_insns").as_int() << " insns, "
        << a.at("programs_loaded").as_int() << " loaded)  runs="
        << s.at("runs").as_int() << " redirect=" << s.at("redirect").as_int()
        << " drop=" << s.at("drop").as_int() << " pass="
        << s.at("pass").as_int() << " user=" << s.at("to_userspace").as_int()
        << " aborted=" << s.at("aborted").as_int() << "\n";
  }

  const util::Json& h = j.at("health");
  out << "\nhealth: "
      << (h.at("degraded").as_bool() ? "DEGRADED (slow path)" : "ok")
      << "  deploys=" << h.at("deploy_attempts").as_int()
      << " failures=" << h.at("deploy_failures").as_int()
      << " rollbacks=" << h.at("device_rollbacks").as_int()
      << " recoveries=" << h.at("recoveries").as_int();
  if (h.at("degraded").as_bool()) {
    out << "  last_error='" << h.at("last_error").as_string() << "'";
  }
  out << "\n";
  return out.str();
}

}  // namespace linuxfp::core
