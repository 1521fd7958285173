// Measurement helpers of the benchmark, kept free of LinuxFP types so that
// helpers_test.cpp can pin their behaviour down on hand-made inputs:
//  * the percentile rule for timings (median plus the highest percentile
//    that still has at least ten samples beyond it),
//  * spans recorded around calls into a layer, and their self time,
//  * the attempted/failed tally that makes up error_frac.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- percentiles ------------------------------------------------------------

// Nearest-rank percentile of `sorted` (ascending): the value at 1-based rank
// ceil(q * n). q in (0, 1].
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// Samples strictly beyond the nearest-rank q-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n > rank ? n - rank : 0;
}

// The highest of the usual reporting percentiles that leaves at least
// `min_beyond` samples beyond it; 0 when even the median does not.
inline double highest_supported_percentile(std::size_t n,
                                           std::size_t min_beyond = 10) {
  static constexpr double kLadder[] = {0.9999, 0.999, 0.99, 0.95, 0.9, 0.5};
  for (double q : kLadder) {
    if (samples_beyond(n, q) >= min_beyond) return q;
  }
  return 0.0;
}

struct TimingSummary {
  std::size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  double tail_q = 0;     // highest percentile the sample supports
  double tail = 0;       // value at tail_q
  bool p99_supported = false;
};

inline TimingSummary summarize(std::vector<double> samples) {
  TimingSummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile_sorted(samples, 0.50);
  s.p99 = percentile_sorted(samples, 0.99);
  s.tail_q = highest_supported_percentile(samples.size());
  s.tail = s.tail_q > 0 ? percentile_sorted(samples, s.tail_q) : 0.0;
  s.p99_supported = s.tail_q >= 0.99;
  return s;
}

// Timing samples in a fixed window: storage is allocated and touched up
// front, and once full the oldest sample is overwritten, so a run's memory
// does not grow with how fast the host happens to be.
class SampleWindow {
 public:
  explicit SampleWindow(std::size_t capacity) : buf_(capacity) {}
  void add(double v) {
    buf_[next_] = v;
    next_ = next_ + 1 == buf_.size() ? 0 : next_ + 1;
    ++seen_;
  }
  std::uint64_t seen() const { return seen_; }
  // The kept samples, oldest first.
  std::vector<double> values() const {
    if (seen_ <= buf_.size()) {
      return {buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(seen_)};
    }
    std::vector<double> out(buf_.begin() + static_cast<std::ptrdiff_t>(next_),
                            buf_.end());
    out.insert(out.end(), buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(next_));
    return out;
  }

 private:
  std::vector<double> buf_;
  std::size_t next_ = 0;
  std::uint64_t seen_ = 0;
};

// Host timings on a machine shared with other tenants come in stretches:
// the same code reads up to 1.6x slower while a neighbour contends for the
// shared caches, and the share of contended time changes from minute to
// minute. So a run's samples (in the order taken) are cut into windows of
// `window` consecutive samples, the `keep` share of windows with the lowest
// medians, but windows of at least `min_pool` samples, is pooled, and the
// pool is summarized. Count and percentiles in the result refer to the pool.
inline TimingSummary least_contended(const std::vector<double>& ordered,
                                     std::size_t window, double keep,
                                     std::size_t min_pool = 0) {
  std::vector<std::pair<double, std::size_t>> windows;  // (median, start)
  for (std::size_t start = 0; start + window <= ordered.size();
       start += window) {
    std::vector<double> w(ordered.begin() + static_cast<std::ptrdiff_t>(start),
                          ordered.begin() +
                              static_cast<std::ptrdiff_t>(start + window));
    std::nth_element(w.begin(), w.begin() + static_cast<std::ptrdiff_t>(
                                                (window - 1) / 2),
                     w.end());
    windows.emplace_back(w[(window - 1) / 2], start);
  }
  std::sort(windows.begin(), windows.end());
  const std::size_t n = std::max<std::size_t>(
      {1, static_cast<std::size_t>(std::ceil(keep * windows.size())),
       (min_pool + window - 1) / window});
  std::vector<double> pool;
  for (std::size_t i = 0; i < n && i < windows.size(); ++i) {
    const auto first =
        ordered.begin() + static_cast<std::ptrdiff_t>(windows[i].second);
    pool.insert(pool.end(), first, first + static_cast<std::ptrdiff_t>(window));
  }
  return summarize(std::move(pool));
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- spans ------------------------------------------------------------------

struct Span {
  const char* name = "";
  int id = 0;
  int parent = -1;  // -1: root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// In-memory span log for one thread. begin/end nest: a span opened while
// another is open becomes its child. Spans are only written out
// (write_jsonl) when the run ends.
class SpanLog {
 public:
  int begin(const char* name, std::int64_t t = now_ns()) {
    Span s;
    s.name = name;
    s.id = static_cast<int>(spans_.size());
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = t;
    spans_.push_back(s);
    open_.push_back(s.id);
    return s.id;
  }
  void end(int id, std::int64_t t = now_ns()) {
    spans_[static_cast<std::size_t>(id)].end_ns = t;
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }
  // Records an already-closed span under the innermost open one.
  void add(const char* name, std::int64_t start, std::int64_t stop) {
    end(begin(name, start), stop);
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span: its duration minus the part of its interval
  // that the union of its children's intervals covers.
  std::vector<std::int64_t> self_ns() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                              s.end_ns);
      }
    }
    std::vector<std::int64_t> out(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      std::int64_t covered = 0;
      std::int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
      out[i] = (s.end_ns - s.start_ns) - covered;
    }
    return out;
  }

  // Per span name: {count, total self ns}.
  std::map<std::string, std::pair<std::uint64_t, std::int64_t>> self_by_name()
      const {
    std::map<std::string, std::pair<std::uint64_t, std::int64_t>> out;
    const std::vector<std::int64_t> self = self_ns();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& slot = out[spans_[i].name];
      ++slot.first;
      slot.second += self[i];
    }
    return out;
  }

  // One JSON object per line: {"id","parent","name","start_ns","end_ns"},
  // times relative to the first span; the first `limit` spans only.
  void write_jsonl(std::FILE* f, std::size_t limit) const {
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) {
      if (static_cast<std::size_t>(s.id) >= limit) break;
      std::fprintf(f,
                   "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld}\n",
                   s.id, s.parent, s.name,
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0));
    }
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null log records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log ? log->begin(name) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// Runs f() under a span named `name`; returns what f returns.
template <class F>
auto in_span(SpanLog* log, const char* name, F&& f) {
  ScopedSpan s(log, name);
  return f();
}

// --- error accounting -------------------------------------------------------

// Operations attempted and failed across a run: packets whose outcome or
// count was wrong, config commands or deploys that failed, end states that
// differ from a fresh controller's. error_frac = failed / attempted.
class Tally {
 public:
  void record(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  // `failed` of `attempted` operations went wrong; failures beyond the
  // attempts made (a count off by more than it covers) are capped.
  void add(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += std::min(failed, attempted);
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double error_frac() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// |a - b| for counts, as the number of operations a count mismatch covers.
inline std::uint64_t count_gap(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : b - a;
}

}  // namespace perfbench
