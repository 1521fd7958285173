// Benchmark entry point:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--spans <file>]
// Prints, as its last stdout line, one JSON object with the keys correct,
// attempted, failed and metrics (end-to-end metrics untraced, per-layer
// metrics traced). Exits 1 when any output was wrong, 2 on bad arguments.
#include <sys/personality.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "bench.h"
#include "util/logging.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "router_64b|gateway_imix|linux_64b|reaction_storm --seed N "
               "--seconds S --trace 0|1 [--smoke] [--spans FILE]\n");
}

void print_self_times(const perfbench::SpanLog& spans) {
  std::fprintf(stderr, "  self time by span (traced run):\n");
  for (const auto& [name, v] : spans.self_by_name()) {
    std::fprintf(stderr, "    %-28s n=%-8llu self=%.3f ms\n", name.c_str(),
                 static_cast<unsigned long long>(v.first),
                 static_cast<double>(v.second) * 1e-6);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Host timings of single-threaded phases (a 2 us route command, a process()
  // call) take one of two levels for a whole run depending on where the
  // address-space layout randomization put the heap and stack; with the
  // layout fixed they repeat. So the benchmark re-executes itself once with
  // randomization off, and carries on randomized if that is not permitted.
  const int persona = personality(0xffffffff);
  if (persona != -1 && !(persona & ADDR_NO_RANDOMIZE) &&
      personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) !=
          -1) {
    execv("/proc/self/exe", argv);
  }

  perfbench::Options o;
  std::string spans_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
      have_workload = true;
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--spans" && has_value) {
      spans_path = argv[++i];
    } else {
      usage();
      return 2;
    }
  }
  static const std::map<std::string,
                        void (*)(const perfbench::Options&, perfbench::Report&)>
      kWorkloads = {{"router_64b", perfbench::run_router},
                    {"gateway_imix", perfbench::run_gateway},
                    {"linux_64b", perfbench::run_linux},
                    {"reaction_storm", perfbench::run_storm}};
  auto it = kWorkloads.find(o.workload);
  if (!have_workload || it == kWorkloads.end() || !(o.seconds > 0)) {
    usage();
    return 2;
  }
  linuxfp::util::set_log_level(linuxfp::util::LogLevel::kError);

  std::fprintf(stderr, "perfbench %s seed=%llu seconds=%g trace=%d%s\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               o.seconds, o.trace ? 1 : 0, o.smoke ? " smoke" : "");
  perfbench::Report report;
  it->second(o, report);

  if (o.trace) {
    print_self_times(report.spans);
    if (!spans_path.empty()) {
      if (std::FILE* f = std::fopen(spans_path.c_str(), "w")) {
        // The storm records about 600,000 spans; the file keeps the first
        // 50,000 (self times above cover all of them).
        report.spans.write_jsonl(f, 50000);
        std::fclose(f);
      }
    }
  }
  const perfbench::Tally& t = report.tally;
  std::fprintf(stderr, "  error_frac=%.6g (%llu failed of %llu attempted)\n",
               t.error_frac(), static_cast<unsigned long long>(t.failed()),
               static_cast<unsigned long long>(t.attempted()));

  std::string line = "{\"correct\": ";
  line += t.failed() == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(t.attempted());
  line += ", \"failed\": " + std::to_string(t.failed());
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return t.failed() == 0 ? 0 : 1;
}
