#include "util/metrics.h"

#include <algorithm>
#include <sstream>

namespace linuxfp::util {

namespace {

thread_local PacketTrace* g_active_trace = nullptr;

std::string sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '.' || c == '-' || c == '@' || c == '/') c = '_';
  }
  return out;
}

std::string format_number(double v) {
  // Counters and cycle sums are integers in disguise; print them as such.
  if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

Json Histogram::to_json() const {
  Json h = Json::object();
  h["count"] = static_cast<std::uint64_t>(stats_.count());
  h["mean"] = stats_.mean();
  h["stddev"] = stats_.stddev();
  h["min"] = stats_.min();
  h["max"] = stats_.max();
  if (!samples_.empty()) {
    h["p50"] = samples_.p50();
    h["p90"] = samples_.percentile(0.90);
    h["p99"] = samples_.p99();
  }
  return h;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  counter_values_.emplace_back(0);
  Counter* slot = &counter_values_.back();
  counters_.emplace(name, slot);
  return slot;
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  histogram_values_.emplace_back(&histograms_enabled_);
  Histogram* slot = &histogram_values_.back();
  histograms_.emplace(name, slot);
  return slot;
}

void MetricsRegistry::add_source(const void* owner, Collect collect) {
  sources_[owner] = std::move(collect);
}

void MetricsRegistry::remove_source(const void* owner) {
  auto it = sources_.find(owner);
  if (it == sources_.end()) return;
  it->second([this](const std::string& name, std::uint64_t v) {
    bump(counter(name), v);
  });
  sources_.erase(it);
}

std::map<std::string, std::uint64_t> MetricsRegistry::snapshot() const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : counters_) out[name] = counter_value(value);
  for (const auto& [owner, collect] : sources_) {
    collect([&](const std::string& n, std::uint64_t v) { out[n] += v; });
  }
  return out;
}

std::uint64_t MetricsRegistry::value(const std::string& name) const {
  const auto all = snapshot();
  auto it = all.find(name);
  return it == all.end() ? 0 : it->second;
}

Json MetricsRegistry::to_json() const {
  Json out = Json::object();
  Json counters = Json::object();
  for (const auto& [name, value] : snapshot()) counters[name] = value;
  out["counters"] = counters;
  Json hists = Json::object();
  for (const auto& [name, hist] : histograms_) {
    if (hist->count() > 0) hists[name] = hist->to_json();
  }
  out["histograms"] = hists;
  return out;
}

std::string MetricsRegistry::prometheus_text(const std::string& prefix) const {
  std::ostringstream out;
  for (const auto& [name, value] : snapshot()) {
    std::string metric = prefix + "_" + sanitize(name);
    out << "# TYPE " << metric << " counter\n";
    out << metric << " " << value << "\n";
  }
  for (const auto& [name, hist] : histograms_) {
    if (hist->count() == 0) continue;
    std::string metric = prefix + "_" + sanitize(name);
    out << "# TYPE " << metric << " summary\n";
    const SampleSet& s = hist->samples();
    if (!s.empty()) {
      out << metric << "{quantile=\"0.5\"} " << format_number(s.p50()) << "\n";
      out << metric << "{quantile=\"0.99\"} " << format_number(s.p99())
          << "\n";
    }
    out << metric << "_sum "
        << format_number(hist->stats().mean() *
                         static_cast<double>(hist->stats().count()))
        << "\n";
    out << metric << "_count " << hist->stats().count() << "\n";
  }
  return out.str();
}

void StageSink::bind(MetricsRegistry* registry, std::string prefix) {
  registry_ = registry;
  prefix_ = std::move(prefix);
  slots_.assign(kSlots, Slot{});
  overflow_.clear();
}

StageSink::Slot& StageSink::slot_for(const char* stage) {
  // Pointer-identity hash: stage names are string literals, so the address
  // is a stable key and probing costs no string work at all.
  auto h = reinterpret_cast<std::uintptr_t>(stage);
  h ^= h >> 9;  // literals are aligned; mix the low bits
  std::size_t idx = static_cast<std::size_t>(h) & (kSlots - 1);
  for (std::size_t probe = 0; probe < kSlots; ++probe) {
    Slot& slot = slots_[(idx + probe) & (kSlots - 1)];
    if (slot.stage == stage) return slot;
    if (slot.stage == nullptr) {
      slot.stage = stage;
      std::string base = prefix_ + stage;
      slot.calls = registry_->counter(base + ".calls");
      slot.cycles = registry_->counter(base + ".cycles");
      slot.hist = registry_->histogram(base + ".cycles_hist");
      return slot;
    }
  }
  return overflow_slot_for(stage);
}

StageSink::Slot& StageSink::overflow_slot_for(const char* stage) {
  auto it = overflow_.find(stage);
  if (it != overflow_.end()) return it->second;
  Slot slot;
  slot.stage = stage;
  std::string base = prefix_ + stage;
  slot.calls = registry_->counter(base + ".calls");
  slot.cycles = registry_->counter(base + ".cycles");
  slot.hist = registry_->histogram(base + ".cycles_hist");
  return overflow_.emplace(stage, slot).first->second;
}

Json PacketTrace::to_json() const {
  Json out = Json::object();
  out["id"] = id;
  out["ifindex"] = static_cast<std::int64_t>(ifindex);
  out["device"] = device;
  out["fast_path"] = fast_path;
  out["verdict"] = verdict;
  out["total_cycles"] = total_cycles;
  Json events_json = Json::array();
  for (const TraceEvent& ev : events) {
    Json e = Json::object();
    e["layer"] = ev.layer;
    e["stage"] = ev.stage;
    if (!ev.detail.empty()) e["detail"] = ev.detail;
    e["cycles"] = ev.cycles;
    events_json.push_back(e);
  }
  out["events"] = events_json;
  return out;
}

PacketTrace* TraceRing::begin_packet(int ifindex, std::string device) {
  if (ring_.size() >= capacity_) ring_.pop_front();
  ring_.emplace_back();
  PacketTrace& trace = ring_.back();
  trace.id = next_id_++;
  trace.ifindex = ifindex;
  trace.device = std::move(device);
  return &trace;
}

Json TraceRing::to_json() const {
  Json out = Json::array();
  for (const PacketTrace& trace : ring_) out.push_back(trace.to_json());
  return out;
}

PacketTrace* active_packet_trace() { return g_active_trace; }
void set_active_packet_trace(PacketTrace* trace) { g_active_trace = trace; }

}  // namespace linuxfp::util
