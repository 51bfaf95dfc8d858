#include "core/api.hpp"

#include <cmath>
#include <sstream>

#include "host/sat_cpu.hpp"
#include "host/sat_parallel.hpp"
#include "host/sat_residual.hpp"
#include "host/sat_simd.hpp"
#include "host/sat_skss_lb.hpp"
#include "host/sat_wavefront.hpp"
#include "host/thread_pool.hpp"
#include "sat/algo_batch.hpp"
#include "scan/row_scan.hpp"

namespace sat {

namespace {

template <class T>
Result<T> compute_on_simulated_gpu(const Matrix<T>& input,
                                   const Options& opts) {
  // The kernels run on tile-aligned matrices; zero-padding on the
  // bottom/right does not change any SAT entry inside the original region,
  // so the result is simply cropped back. Every algorithm is rectangular-
  // native, so each dimension pads independently to the tile width.
  SAT_CHECK_MSG(opts.tile_w > 0 && opts.tile_w % 32 == 0,
                "tile width " << opts.tile_w
                              << " must be a positive multiple of 32");
  auto align = [&](std::size_t x) {
    return (x + opts.tile_w - 1) / opts.tile_w * opts.tile_w;
  };
  const std::size_t rows = align(input.rows());
  const std::size_t cols = align(input.cols());

  gpusim::SimContext sim(opts.device);
  sim.checker = opts.checker;
  sim.metrics = opts.metrics;
  sim.trace = opts.trace;
  gpusim::GlobalBuffer<T> a(sim, rows * cols, "input");
  gpusim::GlobalBuffer<T> b(sim, rows * cols, "sat");
  if (rows == input.rows() && cols == input.cols()) {
    a.upload(input.storage());
  } else if (sim.materialize) {
    auto padded = a.view2d(rows, cols);
    for (std::size_t i = 0; i < input.rows(); ++i)
      for (std::size_t j = 0; j < input.cols(); ++j)
        padded(i, j) = input(i, j);
  }

  satalgo::SatParams params;
  params.tile_w = opts.tile_w;
  params.threads_per_block = opts.threads_per_block;
  params.arrangement = opts.arrangement;
  params.order = opts.order;
  params.seed = opts.seed;
  params.hybrid_r = opts.hybrid_r;
  params.inject = opts.inject;
  params.inject_serial = opts.inject_serial;

  satalgo::RunResult run = satalgo::run_algorithm_rect(
      sim, opts.algorithm, a, b, rows, cols, params);

  Result<T> result;
  result.table = Matrix<T>(input.rows(), input.cols());
  const satutil::Span2d<const T> out = b.view2d(rows, cols);
  for (std::size_t i = 0; i < input.rows(); ++i)
    for (std::size_t j = 0; j < input.cols(); ++j)
      result.table(i, j) = out(i, j);

  const gpusim::Counters totals = run.totals();
  result.stats.algorithm = run.algorithm;
  result.stats.padded_n = std::max(rows, cols);
  result.stats.kernel_calls = run.kernel_calls();
  result.stats.max_threads = run.max_threads();
  result.stats.element_reads = totals.element_reads;
  result.stats.element_writes = totals.element_writes;
  result.stats.global_read_sectors = totals.global_read_sectors;
  result.stats.global_write_sectors = totals.global_write_sectors;
  result.stats.atomic_ops = totals.atomic_ops;
  result.stats.flag_reads = totals.flag_reads;
  result.stats.flag_writes = totals.flag_writes;
  result.stats.max_lookback_depth = run.max_lookback_depth();
  result.stats.critical_path_us = run.sum_critical_path_us();
  return result;
}

// Resolves the thread pool a CPU-backend call runs on: the caller-owned
// Options::pool when set (a server reusing one pool across requests —
// the owner configures its observability, we leave set_obs alone), else a
// per-call pool wired to the call's obs pointers.
class PoolRef {
 public:
  explicit PoolRef(const Options& opts) {
    if (opts.pool != nullptr) {
      pool_ = opts.pool;
    } else {
      owned_ = std::make_unique<sathost::ThreadPool>(opts.cpu_threads);
      owned_->set_obs(opts.metrics, opts.trace);
      pool_ = owned_.get();
    }
  }
  sathost::ThreadPool& get() { return *pool_; }

 private:
  sathost::ThreadPool* pool_ = nullptr;
  std::unique_ptr<sathost::ThreadPool> owned_;
};

/// Residual tile width for this call (Options::cpu_tile_w doubles as the
/// residual W; 0 picks the documented default).
inline std::size_t residual_tile_w(const Options& opts) {
  return opts.cpu_tile_w != 0 ? opts.cpu_tile_w : kDefaultResidualTileW;
}

/// The engine dispatch shared by the Matrix and Span2d entry points.
template <class T>
std::string run_cpu_engine(satutil::Span2d<const T> src, satutil::Span2d<T> dst,
                           const Options& opts) {
  if (opts.storage == Storage::kKahanF32) {
    if constexpr (std::is_floating_point_v<T>) {
      switch (opts.cpu_engine) {
        case CpuEngine::kSequential:
          sathost::sat_sequential_kahan<T>(src, dst);
          return "cpu-sequential-kahan";
        case CpuEngine::kSimd:
          sathost::sat_kahan<T>(src, dst, /*tile=*/4096, opts.metrics);
          return "cpu-simd-kahan";
        case CpuEngine::kSkssLb: {
          PoolRef pool(opts);
          sathost::SkssLbOptions lb;
          lb.tile_w = opts.cpu_tile_w;
          lb.metrics = opts.metrics;
          lb.trace = opts.trace;
          lb.kahan = true;
          sathost::sat_skss_lb<T>(pool.get(), src, dst, lb);
          return "cpu-skss-lb-kahan";
        }
        default:
          SAT_CHECK_MSG(false,
                        "Storage::kKahanF32 supports the sequential, simd, "
                        "and skss_lb engines");
      }
    } else {
      SAT_CHECK_MSG(false,
                    "Storage::kKahanF32 requires a floating-point element "
                    "type");
    }
  }
  if (opts.storage == Storage::kTiledResidual) {
    // Compatibility path for the dense-result entry points: encode, then
    // decode into the caller's buffer. Callers that want the compressed
    // form (and its bandwidth win) use compute_sat_tiled instead.
    TiledSat<T> tiled(src.rows(), src.cols(), residual_tile_w(opts));
    if (opts.cpu_engine == CpuEngine::kSkssLb) {
      PoolRef pool(opts);
      sathost::SkssLbOptions lb;
      lb.tile_w = tiled.tile_w();
      lb.metrics = opts.metrics;
      lb.trace = opts.trace;
      sathost::sat_skss_lb_residual<T>(pool.get(), src, tiled, lb);
      tiled.decode_into(dst);
      return "cpu-skss-lb-resid";
    }
    sathost::sat_residual<T>(src, tiled, opts.metrics);
    tiled.decode_into(dst);
    return "cpu-resid";
  }
  switch (opts.cpu_engine) {
    case CpuEngine::kSequential:
      sathost::sat_sequential<T>(src, dst);
      return "cpu-sequential";
    case CpuEngine::kSimd:
      sathost::sat_simd<T>(src, dst, /*tile=*/4096, opts.metrics);
      return "cpu-simd";
    case CpuEngine::kParallel: {
      PoolRef pool(opts);
      sathost::sat_parallel<T>(pool.get(), src, dst);
      return "cpu-parallel";
    }
    case CpuEngine::kWavefront: {
      PoolRef pool(opts);
      sathost::sat_wavefront<T>(pool.get(), src, dst,
                                opts.cpu_tile_w != 0 ? opts.cpu_tile_w : 128);
      return "cpu-wavefront";
    }
    case CpuEngine::kSkssLb: {
      PoolRef pool(opts);
      sathost::SkssLbOptions lb;
      lb.tile_w = opts.cpu_tile_w;
      lb.metrics = opts.metrics;
      lb.trace = opts.trace;
      sathost::sat_skss_lb<T>(pool.get(), src, dst, lb);
      return "cpu-skss-lb";
    }
  }
  SAT_CHECK_MSG(false, "unknown cpu engine");
  return {};
}

template <class T>
Result<T> compute_on_cpu(const Matrix<T>& input, const Options& opts) {
  Result<T> result;
  result.table = Matrix<T>(input.rows(), input.cols());
  result.stats.algorithm =
      run_cpu_engine<T>(input.view(), result.table.view(), opts);
  return result;
}

// Batched host computation. The paper's engine gets the real pipeline —
// every image shares ONE claim-range scheduler, so workers flow across
// image boundaries without a barrier (see sathost::sat_skss_lb_batch).
// The other engines have no cross-image protocol; they run image-at-a-time
// on one pool, which still amortizes thread start-up across the batch.
template <class T>
BatchResult<T> compute_batch_on_cpu(const std::vector<Matrix<T>>& inputs,
                                    const Options& opts) {
  BatchResult<T> result;
  result.tables.reserve(inputs.size());
  for (const auto& m : inputs) result.tables.emplace_back(m.rows(), m.cols());

  std::vector<satutil::Span2d<const T>> srcs;
  std::vector<satutil::Span2d<T>> dsts;
  srcs.reserve(inputs.size());
  dsts.reserve(inputs.size());
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    srcs.push_back(inputs[k].view());
    dsts.push_back(result.tables[k].view());
  }
  result.stats = compute_sat_batch_into<T>(srcs, dsts, opts);
  return result;
}

}  // namespace

template <class T>
Stats compute_sat_batch_into(
    const std::vector<satutil::Span2d<const T>>& inputs,
    const std::vector<satutil::Span2d<T>>& outputs, const Options& opts) {
  SAT_CHECK_MSG(opts.backend == Backend::kCpu,
                "compute_sat_batch_into is CPU-only (the simulated device "
                "owns its buffers)");
  SAT_CHECK_MSG(!inputs.empty(), "empty batch");
  SAT_CHECK_MSG(inputs.size() == outputs.size(),
                "inputs/outputs batch size mismatch");
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    SAT_CHECK_MSG(outputs[k].rows() == inputs[k].rows() &&
                      outputs[k].cols() == inputs[k].cols(),
                  "output " << k << " shape mismatch");
  }
  Stats stats;
  if (opts.cpu_engine == CpuEngine::kSkssLb &&
      opts.storage == Storage::kTiledResidual) {
    // One batched claim-range residual pass, decoded into the caller's
    // dense buffers (the wire/result format stays dense; the engine's
    // output traffic is the narrow residual plane).
    const std::size_t w = residual_tile_w(opts);
    std::vector<TiledSat<T>> tiled;
    std::vector<TiledSat<T>*> ptrs;
    tiled.reserve(inputs.size());
    ptrs.reserve(inputs.size());
    for (const auto& in : inputs) tiled.emplace_back(in.rows(), in.cols(), w);
    for (auto& t : tiled) ptrs.push_back(&t);
    PoolRef pool(opts);
    sathost::SkssLbOptions lb;
    lb.tile_w = w;
    lb.metrics = opts.metrics;
    lb.trace = opts.trace;
    sathost::sat_skss_lb_residual_batch<T>(pool.get(), inputs, ptrs, lb);
    for (std::size_t k = 0; k < tiled.size(); ++k)
      tiled[k].decode_into(outputs[k]);
    stats.algorithm = "cpu-skss-lb-batch-resid";
    return stats;
  }
  if (opts.cpu_engine == CpuEngine::kSkssLb &&
      opts.storage != Storage::kKahanF32) {
    PoolRef pool(opts);
    sathost::SkssLbOptions lb;
    lb.tile_w = opts.cpu_tile_w;
    lb.metrics = opts.metrics;
    lb.trace = opts.trace;
    sathost::sat_skss_lb_batch<T>(pool.get(), inputs, outputs, lb);
    stats.algorithm = "cpu-skss-lb-batch";
    return stats;
  }
  if (opts.cpu_engine == CpuEngine::kSkssLb) {
    // kKahanF32: one batched pass with the compensated tile sweep.
    if constexpr (std::is_floating_point_v<T>) {
      PoolRef pool(opts);
      sathost::SkssLbOptions lb;
      lb.tile_w = opts.cpu_tile_w;
      lb.metrics = opts.metrics;
      lb.trace = opts.trace;
      lb.kahan = true;
      sathost::sat_skss_lb_batch<T>(pool.get(), inputs, outputs, lb);
      stats.algorithm = "cpu-skss-lb-batch-kahan";
      return stats;
    } else {
      SAT_CHECK_MSG(false,
                    "Storage::kKahanF32 requires a floating-point element "
                    "type");
    }
  }
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    stats.algorithm = run_cpu_engine<T>(inputs[k], outputs[k], opts) + "-batch";
  }
  return stats;
}

template <class T>
Result<T> compute_sat(const Matrix<T>& input, const Options& opts) {
  SAT_CHECK_MSG(!input.empty(), "input matrix is empty");
  SAT_CHECK_MSG(
      opts.storage == Storage::kDense || opts.backend == Backend::kCpu,
      "non-dense storage modes are CPU-backend only");
  switch (opts.backend) {
    case Backend::kSimulatedGpu:
      return compute_on_simulated_gpu(input, opts);
    case Backend::kCpu:
      return compute_on_cpu(input, opts);
  }
  SAT_CHECK_MSG(false, "unknown backend");
  return {};
}

template <class T>
BatchResult<T> compute_sat_batch(const std::vector<Matrix<T>>& inputs,
                                 const Options& opts) {
  SAT_CHECK_MSG(!inputs.empty(), "empty batch");
  const std::size_t in_rows = inputs[0].rows();
  const std::size_t in_cols = inputs[0].cols();
  for (const auto& m : inputs) {
    SAT_CHECK_MSG(m.rows() == in_rows && m.cols() == in_cols,
                  "batched matrices must share one shape");
  }
  if (opts.backend == Backend::kCpu) return compute_batch_on_cpu(inputs, opts);
  SAT_CHECK_MSG(opts.storage == Storage::kDense,
                "non-dense storage modes are CPU-backend only");
  SAT_CHECK(opts.tile_w > 0 && opts.tile_w % 32 == 0);
  auto align = [&](std::size_t x) {
    return (x + opts.tile_w - 1) / opts.tile_w * opts.tile_w;
  };
  const std::size_t rows = align(in_rows);
  const std::size_t cols = align(in_cols);
  const std::size_t batch = inputs.size();

  gpusim::SimContext sim(opts.device);
  sim.checker = opts.checker;
  sim.metrics = opts.metrics;
  sim.trace = opts.trace;
  gpusim::GlobalBuffer<T> a(sim, batch * rows * cols, "batch.input");
  gpusim::GlobalBuffer<T> b(sim, batch * rows * cols, "batch.sat");
  if (sim.materialize) {
    for (std::size_t k = 0; k < batch; ++k) {
      T* base = a.data() + k * rows * cols;
      for (std::size_t i = 0; i < in_rows; ++i)
        for (std::size_t j = 0; j < in_cols; ++j)
          base[i * cols + j] = inputs[k](i, j);
    }
  }

  satalgo::SatParams params;
  params.tile_w = opts.tile_w;
  params.threads_per_block = opts.threads_per_block;
  params.arrangement = opts.arrangement;
  params.order = opts.order;
  params.seed = opts.seed;

  const satalgo::RunResult run =
      satalgo::run_skss_lb_batch(sim, a, b, batch, rows, cols, params);

  BatchResult<T> result;
  result.tables.reserve(batch);
  for (std::size_t k = 0; k < batch; ++k) {
    Matrix<T> table(in_rows, in_cols);
    const T* base = b.data() + k * rows * cols;
    for (std::size_t i = 0; i < in_rows; ++i)
      for (std::size_t j = 0; j < in_cols; ++j)
        table(i, j) = base[i * cols + j];
    result.tables.push_back(std::move(table));
  }
  const gpusim::Counters totals = run.totals();
  result.stats.algorithm = run.algorithm;
  result.stats.padded_n = std::max(rows, cols);
  result.stats.kernel_calls = run.kernel_calls();
  result.stats.max_threads = run.max_threads();
  result.stats.element_reads = totals.element_reads;
  result.stats.element_writes = totals.element_writes;
  result.stats.global_read_sectors = totals.global_read_sectors;
  result.stats.global_write_sectors = totals.global_write_sectors;
  result.stats.atomic_ops = totals.atomic_ops;
  result.stats.flag_reads = totals.flag_reads;
  result.stats.flag_writes = totals.flag_writes;
  result.stats.max_lookback_depth = run.max_lookback_depth();
  result.stats.critical_path_us = run.sum_critical_path_us();
  return result;
}

template <class T>
TiledResult<T> compute_sat_tiled(const Matrix<T>& input, const Options& opts) {
  SAT_CHECK_MSG(!input.empty(), "input matrix is empty");
  SAT_CHECK_MSG(opts.backend == Backend::kCpu,
                "compute_sat_tiled is CPU-backend only");
  TiledResult<T> result{
      TiledSat<T>(input.rows(), input.cols(), residual_tile_w(opts)), {}};
  if (opts.cpu_engine == CpuEngine::kSkssLb) {
    PoolRef pool(opts);
    sathost::SkssLbOptions lb;
    lb.tile_w = result.table.tile_w();
    lb.metrics = opts.metrics;
    lb.trace = opts.trace;
    sathost::sat_skss_lb_residual<T>(pool.get(), input.view(), result.table,
                                     lb);
    result.stats.algorithm = "cpu-skss-lb-resid";
  } else {
    sathost::sat_residual<T>(input.view(), result.table, opts.metrics);
    result.stats.algorithm = "cpu-resid";
  }
  return result;
}

template <class T>
std::vector<T> inclusive_scan(const std::vector<T>& values,
                              const Options& opts) {
  if (values.empty()) return {};
  gpusim::SimContext sim(opts.device);
  sim.checker = opts.checker;
  sim.metrics = opts.metrics;
  sim.trace = opts.trace;
  gpusim::GlobalBuffer<T> src(sim, values.size(), "scan.src");
  gpusim::GlobalBuffer<T> dst(sim, values.size(), "scan.dst");
  src.upload(values);
  satscan::RowScanTuning tune;
  tune.order = opts.order;
  tune.seed = opts.seed;
  satscan::row_wise_inclusive_scan(sim, src, dst, 1, values.size(), tune);
  std::vector<T> out(values.size());
  for (std::size_t k = 0; k < values.size(); ++k) out[k] = dst[k];
  return out;
}

Options auto_tune(std::size_t rows, std::size_t cols, const Options& base) {
  SAT_CHECK(rows > 0 && cols > 0);
  Options best = base;
  double best_ms = 1e300;
  for (satalgo::Algorithm algo :
       {satalgo::Algorithm::kSkssLb, satalgo::Algorithm::kSkss,
        satalgo::Algorithm::k2R1W}) {
    for (std::size_t w : {std::size_t{32}, std::size_t{64}, std::size_t{128}}) {
      const std::size_t longest = std::max(rows, cols);
      const std::size_t n = (longest + w - 1) / w * w;
      gpusim::SimContext sim(base.device);
      sim.materialize = false;
      gpusim::GlobalBuffer<float> a(sim, n * n, "tune.in");
      gpusim::GlobalBuffer<float> b(sim, n * n, "tune.out");
      satalgo::SatParams p;
      p.tile_w = w;
      p.threads_per_block = base.threads_per_block;
      const auto run = satalgo::run_algorithm(sim, algo, a, b, n, p);
      double us = 0;
      for (const auto& r : run.reports)
        us += sim.cost.kernel_launch_us + r.critical_path_us;
      if (us < best_ms) {
        best_ms = us;
        best.algorithm = algo;
        best.tile_w = w;
      }
    }
  }
  return best;
}

template <class T>
std::optional<std::string> validate_sat(const Matrix<T>& input,
                                        const Matrix<T>& table,
                                        double rel_tol) {
  if (input.rows() != table.rows() || input.cols() != table.cols()) {
    return "shape mismatch";
  }
  Matrix<T> ref(input.rows(), input.cols());
  sathost::sat_sequential<T>(input.view(), ref.view());
  for (std::size_t i = 0; i < input.rows(); ++i) {
    for (std::size_t j = 0; j < input.cols(); ++j) {
      const double expect = static_cast<double>(ref(i, j));
      const double got = static_cast<double>(table(i, j));
      bool ok;
      if constexpr (std::is_integral_v<T>) {
        ok = ref(i, j) == table(i, j);
      } else {
        const double scale = std::max(1.0, std::fabs(expect));
        ok = std::fabs(got - expect) <= rel_tol * scale;
      }
      if (!ok) {
        std::ostringstream os;
        os << "mismatch at (" << i << "," << j << "): expected " << expect
           << ", got " << got;
        return os.str();
      }
    }
  }
  return std::nullopt;
}

// Explicit instantiations for the supported element types (the paper uses
// 4-byte float; integral types give the tests exact arithmetic).
template Result<float> compute_sat<float>(const Matrix<float>&,
                                          const Options&);
template Result<double> compute_sat<double>(const Matrix<double>&,
                                            const Options&);
template Result<std::int32_t> compute_sat<std::int32_t>(
    const Matrix<std::int32_t>&, const Options&);
template Result<std::uint32_t> compute_sat<std::uint32_t>(
    const Matrix<std::uint32_t>&, const Options&);
template Result<std::int64_t> compute_sat<std::int64_t>(
    const Matrix<std::int64_t>&, const Options&);

template BatchResult<float> compute_sat_batch<float>(
    const std::vector<Matrix<float>>&, const Options&);
template BatchResult<double> compute_sat_batch<double>(
    const std::vector<Matrix<double>>&, const Options&);
template BatchResult<std::int32_t> compute_sat_batch<std::int32_t>(
    const std::vector<Matrix<std::int32_t>>&, const Options&);
template BatchResult<std::int64_t> compute_sat_batch<std::int64_t>(
    const std::vector<Matrix<std::int64_t>>&, const Options&);

template Stats compute_sat_batch_into<float>(
    const std::vector<satutil::Span2d<const float>>&,
    const std::vector<satutil::Span2d<float>>&, const Options&);
template Stats compute_sat_batch_into<double>(
    const std::vector<satutil::Span2d<const double>>&,
    const std::vector<satutil::Span2d<double>>&, const Options&);
template Stats compute_sat_batch_into<std::int32_t>(
    const std::vector<satutil::Span2d<const std::int32_t>>&,
    const std::vector<satutil::Span2d<std::int32_t>>&, const Options&);
template Stats compute_sat_batch_into<std::int64_t>(
    const std::vector<satutil::Span2d<const std::int64_t>>&,
    const std::vector<satutil::Span2d<std::int64_t>>&, const Options&);

template TiledResult<float> compute_sat_tiled<float>(const Matrix<float>&,
                                                     const Options&);
template TiledResult<double> compute_sat_tiled<double>(const Matrix<double>&,
                                                       const Options&);
template TiledResult<std::int32_t> compute_sat_tiled<std::int32_t>(
    const Matrix<std::int32_t>&, const Options&);
template TiledResult<std::uint32_t> compute_sat_tiled<std::uint32_t>(
    const Matrix<std::uint32_t>&, const Options&);
template TiledResult<std::int64_t> compute_sat_tiled<std::int64_t>(
    const Matrix<std::int64_t>&, const Options&);

template std::vector<float> inclusive_scan<float>(const std::vector<float>&,
                                                  const Options&);
template std::vector<double> inclusive_scan<double>(const std::vector<double>&,
                                                    const Options&);
template std::vector<std::int32_t> inclusive_scan<std::int32_t>(
    const std::vector<std::int32_t>&, const Options&);
template std::vector<std::int64_t> inclusive_scan<std::int64_t>(
    const std::vector<std::int64_t>&, const Options&);
template std::vector<std::uint32_t> inclusive_scan<std::uint32_t>(
    const std::vector<std::uint32_t>&, const Options&);

template std::optional<std::string> validate_sat<float>(const Matrix<float>&,
                                                        const Matrix<float>&,
                                                        double);
template std::optional<std::string> validate_sat<double>(
    const Matrix<double>&, const Matrix<double>&, double);
template std::optional<std::string> validate_sat<std::int32_t>(
    const Matrix<std::int32_t>&, const Matrix<std::int32_t>&, double);
template std::optional<std::string> validate_sat<std::uint32_t>(
    const Matrix<std::uint32_t>&, const Matrix<std::uint32_t>&, double);
template std::optional<std::string> validate_sat<std::int64_t>(
    const Matrix<std::int64_t>&, const Matrix<std::int64_t>&, double);

}  // namespace sat
