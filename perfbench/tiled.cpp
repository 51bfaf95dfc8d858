// tiled-frames: one caller in a closed loop of frames. Each frame is one
// one-shot sat::compute_sat_tiled<int32_t> call (kSkssLb, cpu_threads = 2,
// no caller pool, default residual tile width) on a 2048² byte-valued frame,
// then a seeded batch of sat::region_sum(TiledSat, Rect) queries on the
// compressed table.
#include <malloc.h>

#include <algorithm>
#include <optional>

#include "core/api.hpp"
#include "obs/registry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kN = 2048;
constexpr std::size_t kFrames = 4;
// Sized so that encoding and querying each take a third to two thirds of a
// frame on the reference machine (README.md, "tiled-frames").
constexpr std::size_t kQueries = 120000;
constexpr int kWarmupFrames = 2;

struct FrameSet {
  sat::Matrix<std::int32_t> input;
  std::vector<sat::Rect> rects;
  std::vector<std::int64_t> expect;  ///< exact sums from a dense i64 SAT
};

FrameSet make_frame(std::uint64_t seed, std::size_t index) {
  FrameSet f;
  f.input = byte_frame(seed, "tiled-frames", index, kN);
  std::vector<std::int64_t> s(kN * kN);
  reference_sat<std::int64_t>(f.input.data(), s.data(), kN, kN);
  // at(r, c): sum of input[<r][<c].
  const auto at = [&s](std::size_t r, std::size_t c) -> std::int64_t {
    return r == 0 || c == 0 ? 0 : s[(r - 1) * kN + c - 1];
  };
  Rng rng(stream_seed(seed, "tiled-queries", index));
  f.rects.resize(kQueries);
  f.expect.resize(kQueries);
  for (std::size_t q = 0; q < kQueries; ++q) {
    std::size_t r0 = rng.below(kN), r1 = rng.below(kN + 1);
    std::size_t c0 = rng.below(kN), c1 = rng.below(kN + 1);
    if (r1 <= r0) std::swap(r0, r1), ++r1;
    if (c1 <= c0) std::swap(c0, c1), ++c1;
    r1 = std::min(r1, kN);
    c1 = std::min(c1, kN);
    f.rects[q] = {r0, c0, r1, c1};
    f.expect[q] = at(r1, c1) - at(r0, c1) - at(r1, c0) + at(r0, c0);
  }
  return f;
}

/// Bytes the benchmark itself keeps resident for `frames`: inputs, query
/// rectangles, expected and received sums.
double own_bytes(const std::vector<FrameSet>& frames) {
  std::size_t bytes = kQueries * sizeof(std::int64_t);
  for (const FrameSet& f : frames)
    bytes += f.input.storage().size() * sizeof(std::int32_t) +
             f.rects.size() * sizeof(sat::Rect) +
             f.expect.size() * sizeof(std::int64_t);
  return static_cast<double>(bytes);
}

}  // namespace

sat::Matrix<std::int32_t> byte_frame(std::uint64_t seed, const char* tag,
                                     std::size_t index, std::size_t n) {
  Rng rng(stream_seed(seed, tag, index));
  sat::Matrix<std::int32_t> m(n, n);
  for (std::size_t i = 0; i < n * n; ++i)
    m.data()[i] = static_cast<std::int32_t>(rng.next() & 0xFF);
  return m;
}

PassResult run_tiled(const RunConfig& cfg) {
  // Every buffer of 128 KiB or more is a fresh mapping, returned on free.
  // glibc's default moves this threshold at run time, so whether a frame
  // reuses the last frame's 16 MiB residual plane from the heap or faults a
  // new one in would change from run to run (README.md, "tiled-frames").
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  PassResult res;
  res.workload = "tiled-frames";
  res.traced = cfg.trace != nullptr;
  std::vector<FrameSet> frames;
  for (std::size_t i = 0; i < (cfg.cold_start ? 1 : kFrames); ++i)
    frames.push_back(make_frame(cfg.seed, i));

  sat::Options opt;
  opt.backend = sat::Backend::kCpu;
  opt.cpu_engine = sat::CpuEngine::kSkssLb;
  opt.cpu_threads = 2;
  std::optional<obs::Registry> reg;
  Spans spans(cfg.trace);
  std::vector<std::int64_t> got(kQueries);

  // One frame: encode, query, check. Only timed frames enter the latency
  // and throughput; every frame's answers are checked.
  const auto frame = [&](std::size_t step, bool timed) {
    const FrameSet& f = frames[step % frames.size()];
    const auto t0 = Clock::now();
    const sat::TiledResult<std::int32_t> r =
        sat::compute_sat_tiled<std::int32_t>(f.input, opt);
    const auto t1 = Clock::now();
    for (std::size_t q = 0; q < kQueries; ++q)
      got[q] = sat::region_sum(r.table, f.rects[q]);
    const auto t2 = Clock::now();
    if (cfg.corrupt_one && timed && step == 1) got[kQueries / 2] += 1;
    bool ok = true;
    for (std::size_t q = 0; q < kQueries; ++q) ok &= got[q] == f.expect[q];
    const auto t3 = Clock::now();
    ++res.attempted;
    if (!ok) ++res.wrong;
    if (!timed) return seconds_between(t0, t2);
    res.latency_ms.push_back(1e3 * seconds_between(t0, t2));
    res.samples["core_ms"].push_back(1e3 * seconds_between(t0, t1));
    res.samples["query_ns"].push_back(1e9 * seconds_between(t1, t2) /
                                      static_cast<double>(kQueries));
    if (ok) res.elements += static_cast<double>(kN * kN);
    if (spans.on()) {
      const std::uint64_t root = spans.next_id();
      spans.record("tiled.frame", t0, t3, root, 0, "", 0);
      spans.record("core", t0, t1, spans.next_id(), root, "tiled.frame", 0);
      spans.record("sat.query", t1, t2, spans.next_id(), root, "tiled.frame",
                   0);
      spans.record("bench.verify", t2, t3, spans.next_id(), root,
                   "tiled.frame", 0);
    }
    return seconds_between(t0, t2);
  };

  // Set-up is the first frame of a fresh process: it pays the cold code,
  // the first thread starts and the first page faults. run.py starts
  // several such processes and reports their median.
  if (cfg.cold_start) {
    res.setup_s.push_back(frame(0, false));
    return res;
  }
  for (int i = 0; i < kWarmupFrames; ++i)
    (void)frame(static_cast<std::size_t>(i), false);

  if (cfg.trace != nullptr) {
    reg.emplace();
    opt.metrics = &*reg;
    opt.trace = cfg.trace;
  }
  const CpuTimes cpu0 = CpuTimes::now();
  reset_peak_rss();
  run_for(cfg.seconds, 100, [&](std::size_t step) { (void)frame(step, true); });
  // Peak resident memory of the timed phase beyond the benchmark's own
  // buffers: the library's tables, pool threads and the process itself.
  res.samples["peak_rss_kib"].push_back(vm_hwm_kib() - own_bytes(frames) / 1024);
  res.steal_pct = steal_pct(cpu0, CpuTimes::now());
  double busy_s = 0;
  for (double ms : res.latency_ms) busy_s += ms / 1e3;
  res.rate_window_s = busy_s;
  res.values["array_bytes"] = static_cast<double>(kN * kN * 4 * 2);
  res.values["elements_per_call"] = static_cast<double>(kN * kN);
  res.values["calls"] = static_cast<double>(res.latency_ms.size());
  if (reg) {
    // The encoder's own exact byte and tile counts (host.storage.*).
    const obs::Snapshot snap = reg->snapshot();
    for (const char* name : {"host.storage.residual_bytes",
                             "host.storage.dense_bytes",
                             "host.storage.overflow_tiles"}) {
      const std::uint64_t* v = snap.counter(name);
      res.values[name] = v == nullptr ? 0.0 : static_cast<double>(*v);
    }
  }
  return res;
}

}  // namespace perfbench
