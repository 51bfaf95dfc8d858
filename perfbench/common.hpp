// Shared pieces of the perfbench driver: seeded input generation, clocks,
// /proc readers, the raw-result record each workload fills, and the span
// recorder of the traced run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace obs {
class TraceSink;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// SplitMix64: the benchmark's only source of randomness, so that inputs
/// depend on the seed and on nothing in the program under test.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform float in [0, 1) with 24 random mantissa bits.
  float unit_f32() { return static_cast<float>(next() >> 40) * 0x1p-24f; }
  double unit_f64() { return static_cast<double>(next() >> 11) * 0x1p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// Seed of an independent stream: (run seed, stream tag, index).
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed,
                                        std::string_view tag,
                                        std::uint64_t index);

/// The benchmark's own oracle: inclusive SAT of a rows×cols row-major
/// array, summed in `Acc` and stored as `Out`. It shares no code with the
/// library's engines.
template <class Acc, class In, class Out>
void reference_sat(const In* in, Out* out, std::size_t rows,
                   std::size_t cols) {
  std::vector<Acc> col(cols, Acc{0});
  for (std::size_t r = 0; r < rows; ++r) {
    Acc row{0};
    for (std::size_t c = 0; c < cols; ++c) {
      row += static_cast<Acc>(in[r * cols + c]);
      col[c] += row;
      out[r * cols + c] = static_cast<Out>(col[c]);
    }
  }
}

/// FNV-1a over raw bytes (self-tests compare generated inputs with it).
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ull);

/// Peak resident set (VmHWM) of `pid` (0 = this process) in KiB, 0 if
/// unreadable.
[[nodiscard]] double vm_hwm_kib(int pid = 0);

/// Resets the VmHWM of `pid` (0 = this process) to its current RSS.
void reset_peak_rss(int pid = 0);

/// CPU time counters from /proc/stat, for the steal share of a phase.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  static CpuTimes now();
};
[[nodiscard]] double steal_pct(const CpuTimes& a, const CpuTimes& b);

/// Everything one timed pass of one workload measured. run.py turns it into
/// metrics; nothing here is a percentile yet.
struct PassResult {
  std::string workload;
  bool traced = false;
  std::vector<double> setup_s;     ///< one entry per set-up repetition
  std::vector<double> latency_ms;  ///< per call, frame or phase-1 request
  double elements = 0;             ///< verified elements in the rate window
  double rate_window_s = 0;        ///< denominator of throughput
  std::uint64_t attempted = 0;
  std::uint64_t wrong = 0;       ///< outputs that failed verification
  std::uint64_t errors = 0;      ///< ERROR replies other than OVERLOADED
  std::uint64_t overloaded = 0;  ///< OVERLOADED replies
  std::uint64_t missing = 0;     ///< requests that got no reply
  double steal_pct = 0;
  /// Per-layer series, and "peak_rss_kib": the timed phase's VmHWM beyond
  /// the benchmark's own data (library workloads), or the daemon's VmHWM
  /// per sampling window (satd-mixed), each measured from a reset.
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;                ///< per-layer scalars
  std::string satd_metrics_json;  ///< satd /metrics body, when scraped

  [[nodiscard]] std::string to_json() const;
};

/// Records the benchmark's own spans around layer calls into a TraceSink
/// (no-op when the sink is null). Every span carries its id, its parent's
/// id and name, and, for satd requests, the request's trace id.
class Spans {
 public:
  explicit Spans(obs::TraceSink* sink);
  [[nodiscard]] bool on() const { return sink_ != nullptr; }
  [[nodiscard]] std::uint64_t next_id();
  void record(std::string_view name, Clock::time_point t0,
              Clock::time_point t1, std::uint64_t id, std::uint64_t parent,
              std::string_view parent_name, std::uint64_t lane,
              std::uint64_t trace_id = 0);
  /// The same as an async span keyed by `trace_id`, for an operation that
  /// overlaps its siblings (a satd request in flight).
  void record_async(std::string_view name, Clock::time_point t0,
                    Clock::time_point t1, std::uint64_t id,
                    std::uint64_t trace_id);

 private:
  [[nodiscard]] std::string args(std::uint64_t id, std::uint64_t parent,
                                 std::string_view parent_name,
                                 std::uint64_t trace_id) const;
  [[nodiscard]] double ts_us(Clock::time_point t) const;

  obs::TraceSink* sink_;
  int pid_ = 0;
  Clock::time_point base_;
  double base_us_ = 0;
  std::atomic<std::uint64_t> next_{1};
};

/// Same-run physical floors: median time of copying `bytes` between cold
/// buffers, and of a store-and-forward loopback TCP echo of `bytes`.
[[nodiscard]] double memcpy_floor_s(std::size_t bytes);
[[nodiscard]] double loopback_echo_s(std::size_t bytes, int reps);

/// Runs `fn` until `seconds` of wall time have passed (at least `min_iters`
/// times); returns the wall time used.
template <class Fn>
double run_for(double seconds, std::size_t min_iters, Fn&& fn) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (i >= min_iters && seconds_between(t0, Clock::now()) >= seconds) break;
    fn(i);
  }
  return seconds_between(t0, Clock::now());
}

}  // namespace perfbench
