// dense-4k: one caller in a closed loop of sat::compute_sat_batch_into<float>
// calls (kCpu, kSkssLb, caller-owned 2-worker pool, caller-owned buffers) on
// 4096² f32 images, rotating through enough input/output pairs to exceed the
// last-level cache several times over.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>

#include "core/api.hpp"
#include "host/thread_pool.hpp"
#include "obs/registry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kN = 4096;
constexpr std::size_t kPairs = 10;  // 10 × (64 MiB in + 64 MiB out) = 1.25 GiB
constexpr std::size_t kWorkers = 2;
// A fixed tile width: 64 tiles of 512². With two workers the automatic width
// picks 2048 (four tiles, three on the critical path); on the reference
// machine that ran at 44 ms per call against 19 ms at 512, and moved between
// 25 and 43 ms from run to run (README.md, "dense-4k").
constexpr std::size_t kTileW = 512;
constexpr int kSetupReps = 5;
// validate_sat's default relative tolerance (core/api.hpp).
constexpr double kRelTol = 1e-4;

/// f64 SAT of `in`, rounded to f32 for storage. The rounding adds at most
/// 2^-24 relative error, far inside kRelTol.
std::vector<float> oracle(const std::vector<float>& in) {
  std::vector<float> out(in.size());
  reference_sat<double>(in.data(), out.data(), kN, kN);
  return out;
}

/// True when every element of `got` is within kRelTol of `expect`
/// (validate_sat's test; NaN never passes).
bool matches(const float* got, const float* expect, std::size_t count) {
  bool ok = true;
  for (std::size_t i = 0; i < count; ++i) {
    const double e = expect[i];
    const double diff = std::fabs(static_cast<double>(got[i]) - e);
    ok &= diff <= kRelTol * std::max(1.0, std::fabs(e));
  }
  return ok;
}

struct Buffers {
  std::vector<std::unique_ptr<float[]>> out;
  std::unique_ptr<sathost::ThreadPool> pool;
};

}  // namespace

std::vector<float> dense_input(std::uint64_t seed, std::size_t index,
                               std::size_t n) {
  Rng rng(stream_seed(seed, "dense-4k", index));
  std::vector<float> v(n * n);
  for (float& x : v) x = rng.unit_f32();
  return v;
}

PassResult run_dense(const RunConfig& cfg) {
  PassResult res;
  res.workload = "dense-4k";
  res.traced = cfg.trace != nullptr;
  const std::size_t elems = kN * kN;

  // Inputs and oracles: outside every timing.
  std::vector<std::vector<float>> in(kPairs), expect(kPairs);
  for (std::size_t p = 0; p < kPairs; ++p) {
    in[p] = dense_input(cfg.seed, p, kN);
    expect[p] = oracle(in[p]);
  }

  sat::Options opt;
  opt.backend = sat::Backend::kCpu;
  opt.cpu_engine = sat::CpuEngine::kSkssLb;
  opt.cpu_tile_w = kTileW;
  const auto call = [&](std::size_t p, float* out) {
    const std::vector<satutil::Span2d<const float>> src{{in[p].data(), kN, kN}};
    const std::vector<satutil::Span2d<float>> dst{{out, kN, kN}};
    (void)sat::compute_sat_batch_into<float>(src, dst, opt);
  };

  // Set-up: pool, output buffers (first-touched), warm-up calls. Repeated;
  // the last repetition's state is kept.
  Buffers buf;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    buf = Buffers{};
    const auto t0 = Clock::now();
    buf.pool = std::make_unique<sathost::ThreadPool>(kWorkers);
    opt.pool = buf.pool.get();
    for (std::size_t p = 0; p < kPairs; ++p) {
      buf.out.emplace_back(new float[elems]);
      std::memset(buf.out.back().get(), 0xFF, elems * sizeof(float));
    }
    call(0, buf.out[0].get());
    call(1, buf.out[1].get());
    res.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  for (auto& o : buf.out) std::memset(o.get(), 0xFF, elems * sizeof(float));

  std::optional<obs::Registry> reg;
  if (cfg.trace != nullptr) {
    reg.emplace();
    opt.metrics = &*reg;
    opt.trace = cfg.trace;
  }
  Spans spans(cfg.trace);

  const CpuTimes cpu0 = CpuTimes::now();
  double call_s_total = 0;
  auto& core_ms = res.samples["core_ms"];
  // One step is a cycle of back-to-back calls over every pair, then the
  // check of all their outputs: the pool's workers see no benchmark pause
  // between calls, only between cycles.
  reset_peak_rss();
  run_for(cfg.seconds, 10, [&](std::size_t cycle) {
    const std::uint64_t root = spans.next_id();
    const auto c0 = Clock::now();
    for (std::size_t p = 0; p < kPairs; ++p) {
      const auto t0 = Clock::now();
      call(p, buf.out[p].get());
      const auto t1 = Clock::now();
      const double ms = 1e3 * seconds_between(t0, t1);
      res.latency_ms.push_back(ms);
      core_ms.push_back(ms);
      call_s_total += ms / 1e3;
      spans.record("core", t0, t1, spans.next_id(), root, "dense.cycle",
                   0);
    }
    if (cfg.corrupt_one && cycle == 0) buf.out[1][elems / 2] = -1.0f;
    const auto v0 = Clock::now();
    for (std::size_t p = 0; p < kPairs; ++p) {
      float* out = buf.out[p].get();
      ++res.attempted;
      if (matches(out, expect[p].data(), elems)) {
        res.elements += static_cast<double>(elems);
      } else {
        ++res.wrong;
      }
      // Poison the output so the next cycle cannot pass on stale data.
      std::memset(out, 0xFF, elems * sizeof(float));
    }
    const auto v1 = Clock::now();
    spans.record("bench.verify", v0, v1, spans.next_id(), root, "dense.cycle",
                 0);
    spans.record("dense.cycle", c0, v1, root, 0, "", 0);
  });
  // Peak resident memory of the timed phase beyond the benchmark's own
  // inputs, outputs and oracles: what the library and the process add.
  const double own_bytes =
      static_cast<double>(3 * kPairs * elems * sizeof(float));
  res.samples["peak_rss_kib"].push_back(vm_hwm_kib() - own_bytes / 1024);
  res.steal_pct = steal_pct(cpu0, CpuTimes::now());
  res.rate_window_s = call_s_total;
  res.values["array_bytes"] =
      static_cast<double>(kPairs * 2 * elems * sizeof(float));
  res.values["elements_per_call"] = static_cast<double>(elems);
  if (reg) {
    const obs::Snapshot snap = reg->snapshot();
    const auto counter = [&snap](const char* name) {
      const std::uint64_t* v = snap.counter(name);
      return v == nullptr ? 0.0 : static_cast<double>(*v);
    };
    res.values["host.lookback.tiles_retired"] =
        counter("host.lookback.tiles_retired");
    res.values["host.lookback.fastpath_tiles"] =
        counter("host.lookback.fastpath_tiles");
    res.values["host.lookback.steals"] = counter("host.lookback.steals");
    const obs::HistogramSnapshot* wait =
        snap.histogram("host.lookback.flag_wait_us");
    res.values["host.lookback.flag_wait_us_sum"] =
        wait == nullptr ? 0.0 : static_cast<double>(wait->sum);
    res.values["calls"] = static_cast<double>(res.attempted);
  }
  return res;
}

}  // namespace perfbench
