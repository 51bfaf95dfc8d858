// Host 1R1W-SKSS-LB engine: the paper's single-kernel tiled SAT (§IV) on
// CPU worker threads, with the 1R1W-SKSS neighbour wait (Funasaka et al.,
// the paper's [15]) as its tile protocol.
//
// Why this engine exists: SAT is memory-bound, so every extra sweep over the
// matrix is pure wasted DRAM traffic. The repo's two earlier multithreaded
// host engines both pay one: `sat_parallel` materializes a full intermediate
// pass (2R2W-shaped traffic), `sat_wavefront` re-reads finished dst cells to
// recover carries and barriers once per anti-diagonal. This engine is the
// paper's answer ported to the host: worker threads act as CUDA blocks,
// self-assigning tiles in diagonal-major serial order
//   σ(I,J) = (I+J)(I+J+1)/2 + I                        (Figure 9),
// computing each tile's SAT with the fused SIMD kernels in one read and one
// write over the matrix, and taking the left and top prefixes from what the
// neighbours published (lookback.hpp) instead of a barrier between passes.
//
// Per tile: wait until the left and the upper neighbour are DONE, then run
// one fused sweep straight into dst, seeded with their prefixes — row p's
// carry-in is GRS(I,J−1)[p], the accumulator row starts as the bottom table
// row of T(I−1,J). GRS falls out as the row carries, the bottom row is the
// final accumulator row; then DONE is released. Every tile adds in the same
// order whatever the worker count or timing, and row carries and
// accumulator rows cross tile edges unchanged, so each element sees the
// adds a whole-matrix sweep would make: results depend only on the input
// and the shape (bitwise, for floating-point T too, when W is a multiple
// of 4 and of the SIMD width; Kahan's per-tile compensation adds W).
//
// Why not the paper's look-back on the host: it earns its keep with
// thousands of resident blocks on dependency chains 2·n/W tiles long. Here
// a few workers cover a few tile columns, a wait is short, and a second
// (look-back) path would only cost a W² staging pass and make f32 results
// timing-dependent. docs/host_engine.md §3 has the measurements; the
// look-back stays in the gpusim reproduction.
//
// Scheduling: each claim takes the next serial off one shared counter
// (ClaimScheduler in lookback.hpp), the paper's atomicAdd work counter.
// One ticket per tile keeps the tiles of one anti-diagonal in flight on
// different workers at once.
//
// Deadlock-freedom with a finite thread pool is the paper's induction:
// serials are handed out in increasing order and both neighbour waits of
// T(I,J) point to a tile with a strictly smaller serial. The smallest
// unfinished serial has therefore been claimed by a running worker (claims
// happen only inside running worker bodies) and all its dependencies are
// finished, so that worker never waits. Workers never block on anything
// *pool*-related while holding a tile (run_persistent keeps them off the
// pool mutex). Induction gives progress for any worker count ≥ 1,
// including oversubscribed and single-core machines (waiters yield the
// timeslice; see util/backoff.hpp).
//
// Batch pipelining: sat_skss_lb_batch runs B same-shaped images through one
// serial space of B·tiles serials. Tiles of different images share no data,
// so no new synchronization is needed — workers simply start claiming image
// k+1's tiles while the tail of image k drains, gated only by the existing
// per-tile flags *within* each image. Dependencies still point at strictly
// smaller global serials (same image, smaller local serial), so the
// deadlock argument is untouched.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <vector>

#include "host/lookback.hpp"
#include "host/sat_simd.hpp"
#include "host/thread_pool.hpp"
#include "obs/trace.hpp"
#include "sat/tiles.hpp"
#include "util/span2d.hpp"

namespace sathost {

struct SkssLbOptions {
  /// Tile width W (tiles are W×W, clipped at the matrix edges). Any
  /// positive value is accepted — the host has no warp-multiple constraint.
  /// 0 picks W automatically: two tile columns per worker, never below 128,
  /// capped so a W-element accumulator row fits L1 (16 KiB: 4096 for f32).
  /// Unlike a GPU with thousands of blocks in flight, the host only needs
  /// enough tiles to keep every worker on an anti-diagonal, and bigger
  /// tiles keep each worker's sweep on long contiguous runs of src/dst.
  /// With one worker the choice is the whole matrix (up to the cap) in one
  /// fused sweep, the 1R1W limit case.
  std::size_t tile_w = 0;
  /// Worker threads acting as blocks; 0 = every thread of the pool. May
  /// exceed the pool size (extra workers queue; see ThreadPool::
  /// run_persistent) — correctness never depends on the count.
  std::size_t workers = 0;
  /// Optional observability (not owned): host.lookback.{flag_wait_us,
  /// tiles_retired,fastpath_tiles,overlap_tiles} metrics, the
  /// host.lookback.pipeline_overlap_pct gauge of a batch, and one trace
  /// span per tile.
  obs::Registry* metrics = nullptr;
  obs::TraceSink* trace = nullptr;
  /// Test hook, called right after a worker claims each tile serial (used
  /// by the flag-protocol stress test to inject randomized stalls). In a
  /// batch run the serial is global: image = serial / tiles_per_image.
  /// Leave empty in production.
  std::function<void(std::size_t serial)> tile_hook;
  /// Kahan-compensate the column accumulation inside each tile sweep
  /// (Storage::kKahanF32). Floating-point T only. The compensation row
  /// resets at tile boundaries — the residue a tile hands to the one below
  /// travels through the published bottom row uncompensated — so the
  /// error bound is O(tiles per column) ulp instead of kahan's O(1), still
  /// far below the O(rows) ulp of plain f32 accumulation. Uses the 1-deep
  /// row kernel (the register-blocked variant has no compensated form).
  bool kahan = false;
};

namespace detail {

/// Bytes per OS page, for the first-touch arena placement below.
inline constexpr std::size_t kPageBytes = 4096;

/// Per-worker scratch arena: page-aligned, first-touched by the owning
/// worker thread. Under the first-touch NUMA policy the OS backs a page on
/// the node of the thread that first *writes* it, so the arena is
/// constructed inside the worker body and faults its own pages there —
/// both the W-element rows and the (lazy) W² tile buffer land on the
/// worker's node. Page alignment keeps one worker's scratch from sharing a
/// page (and hence a placement decision, or a false-shared tail line) with
/// a peer's. The tile buffer is W² elements and is allocated on first use:
/// only the residual encoder stages tiles (sat_residual.hpp); the dense
/// engine sweeps straight into dst and never touches it.
template <class T>
class TileArena {
  static_assert(std::is_arithmetic_v<T>,
                "arena scratch is zero-filled bytewise");

 public:
  explicit TileArena(std::size_t w) : w_(w), rows_(alloc_touched(2 * w)) {}

  /// The W-element column accumulator row.
  T* acc() noexcept { return rows_.get(); }
  /// A second W-element row: the Kahan compensation row of the dense
  /// engine (SkssLbOptions::kahan; zeroed per tile), the row-carry or
  /// band row of the residual encoder.
  T* aux() noexcept { return rows_.get() + w_; }

  /// The W² tile buffer, faulted on first use.
  T* tile() {
    if (tile_ == nullptr) tile_ = alloc_touched(w_ * w_);
    return tile_.get();
  }

 private:
  struct PageFree {
    void operator()(T* p) const noexcept {
      ::operator delete(p, std::align_val_t{kPageBytes});
    }
  };
  using Block = std::unique_ptr<T[], PageFree>;

  static Block alloc_touched(std::size_t count) {
    const std::size_t bytes =
        (count * sizeof(T) + kPageBytes - 1) / kPageBytes * kPageBytes;
    Block b(static_cast<T*>(
                ::operator new(bytes, std::align_val_t{kPageBytes})),
            PageFree{});
    // The first touch: fault (and zero) every page on the calling thread.
    std::memset(b.get(), 0, bytes);
    return b;
  }

  std::size_t w_;
  Block rows_;
  Block tile_;
};

}  // namespace detail

/// Computes the SATs of `srcs[b]` into `dsts[b]` for every image of the
/// batch with the host 1R1W-SKSS-LB engine, pipelining tiles of image k+1
/// behind the draining tail of image k (see the header comment). All images
/// must share one shape; each `dsts[b]` must match it and not alias its
/// source. Results are exact for integral T; floating-point results differ
/// from the sequential oracle only by association order, which W fixes:
/// they do not depend on the worker count or on timing.
template <class T>
void sat_skss_lb_batch(ThreadPool& pool,
                       const std::vector<satutil::Span2d<const T>>& srcs,
                       const std::vector<satutil::Span2d<T>>& dsts,
                       const SkssLbOptions& opt = {}) {
  const std::size_t batch = srcs.size();
  SAT_CHECK(dsts.size() == batch);
  if (batch == 0) return;
  const std::size_t rows = srcs[0].rows();
  const std::size_t cols = srcs[0].cols();
  for (std::size_t b = 0; b < batch; ++b) {
    SAT_CHECK(srcs[b].rows() == rows && srcs[b].cols() == cols);
    SAT_CHECK(dsts[b].rows() == rows && dsts[b].cols() == cols);
  }
  if (rows == 0 || cols == 0) return;
  if constexpr (!std::is_floating_point_v<T>)
    SAT_CHECK_MSG(!opt.kahan,
                  "SkssLbOptions::kahan requires a floating-point table");

  const std::size_t nworkers =
      opt.workers != 0 ? opt.workers : pool.size();
  std::size_t w = opt.tile_w;
  if (w == 0) {
    // Two tile columns per worker won a sweep over W and the worker count
    // at 2048²–8192² f32 (docs/host_engine.md §3, "Tile width").
    const std::size_t maxdim = std::max(rows, cols);
    const std::size_t slices = nworkers == 1 ? 1 : 2 * nworkers;
    w = std::max<std::size_t>(128, (maxdim + slices - 1) / slices);
    // Cap W so one accumulator row (W elements) stays L1-resident: the fast
    // path carries the column prefix through it on every sweep, and past
    // ~16 KiB it starts thrashing (measured 30% slower at 8192² f32 with an
    // uncapped 32 KiB acc row vs. two 4096-wide tile columns).
    const std::size_t cap =
        std::max<std::size_t>(128, std::size_t{16384} / sizeof(T));
    w = std::min(w, cap);
  }
  // Diagonal-major serials over the tile grid; edge tiles are clipped to the
  // matrix, so the grid is built on the padded-to-W shape. All images share
  // the grid; image b's tiles occupy global serials [b·tpi, (b+1)·tpi).
  const satalgo::TileGrid grid((rows + w - 1) / w * w, (cols + w - 1) / w * w,
                               w);
  const std::size_t tpi = grid.count();  // tiles per image
  std::vector<LookbackAux<T>> aux;
  aux.reserve(batch);
  for (std::size_t b = 0; b < batch; ++b) aux.emplace_back(tpi, w);
  ClaimScheduler sched(batch * tpi);

  LookbackObs obs;
  obs.resolve(opt.metrics);
  int trace_pid = 0;
#if SATLIB_OBS_ENABLED
  if (opt.trace != nullptr)
    trace_pid = opt.trace->register_process("host skss-lb");
  std::vector<std::size_t> overlap_count(nworkers, 0);
#endif

  const bool allow_stream = rows * cols * sizeof(T) >= kStreamMinBytes;

  // The per-tile body, shared by every image of the batch. `local` is the
  // tile's serial within its image.
  auto process_tile = [&](LookbackAux<T>& iaux, satutil::Span2d<const T> src,
                          satutil::Span2d<T> dst, std::size_t local,
                          std::size_t img, std::size_t worker_index,
                          detail::TileArena<T>& arena) {
#if SATLIB_OBS_ENABLED
    const double ts = opt.trace != nullptr ? opt.trace->now_host_us() : 0.0;
#endif
    const auto [ti, tj] = grid.tile_of_serial(local);
    const std::size_t self = grid.idx(ti, tj);
    const std::size_t r0 = ti * w, c0 = tj * w;
    const std::size_t P = std::min(w, rows - r0);  // tile rows
    const std::size_t Q = std::min(w, cols - c0);  // tile cols

    const auto in = iaux.wait_neighbours(grid, ti, tj, obs);
    const T* grs_in = in.grs;

    // One fused sweep straight into dst, seeded with the neighbours'
    // prefixes, so each output element is final as it is stored. The
    // accumulator row continues the upper tile's bottom row as is.
    T* grs_self = iaux.grs.get() + iaux.vec_base(self);
    T* bottom_self = iaux.bottom.get() + iaux.vec_base(self);
    T* acc = arena.acc();
    if (in.bottom != nullptr) {
      std::copy(in.bottom, in.bottom + Q, acc);
    } else {
      std::fill(acc, acc + Q, T{});
    }
    std::size_t p = 0;
    if constexpr (std::is_floating_point_v<T>) {
      if (opt.kahan) {
        // Compensated sweep: 1-deep rows only; comp resets per tile (the
        // residue crossing to the tile below is dropped, see the option's
        // comment). Leaves p == P, so the blocked loops below no-op.
        T* comp = arena.aux();
        std::fill(comp, comp + Q, T{});
        for (; p < P; ++p) {
          const T carry_in = grs_in != nullptr ? grs_in[p] : T{};
          grs_self[p] = kahan_row_scan_acc(&src(r0 + p, c0), acc, comp,
                                           &dst(r0 + p, c0), Q, carry_in,
                                           allow_stream);
        }
      }
    }
    for (; p + 4 <= P; p += 4) {
      const T* srows[4] = {&src(r0 + p, c0), &src(r0 + p + 1, c0),
                           &src(r0 + p + 2, c0), &src(r0 + p + 3, c0)};
      T* drows[4] = {&dst(r0 + p, c0), &dst(r0 + p + 1, c0),
                     &dst(r0 + p + 2, c0), &dst(r0 + p + 3, c0)};
      T carries[4];
      for (std::size_t k = 0; k < 4; ++k)
        carries[k] = grs_in != nullptr ? grs_in[p + k] : T{};
      simd_row_scan_acc4(srows, acc, drows, Q, carries, allow_stream);
      for (std::size_t k = 0; k < 4; ++k) grs_self[p + k] = carries[k];
    }
    for (; p < P; ++p) {
      const T carry_in = grs_in != nullptr ? grs_in[p] : T{};
      grs_self[p] = simd_row_scan_acc(&src(r0 + p, c0), acc, &dst(r0 + p, c0),
                                      Q, carry_in, allow_stream);
    }
    // acc now holds the tile's bottom output row.
    std::copy(acc, acc + Q, bottom_self);
    iaux.status.publish(self, hflag::kDone);

#if SATLIB_OBS_ENABLED
    if (obs.tiles_retired != nullptr) obs.tiles_retired->add();
    if (obs.fastpath_tiles != nullptr && !in.waited)
      obs.fastpath_tiles->add();
    if (opt.trace != nullptr) {
      char args[112];
      std::snprintf(
          args, sizeof args,
          "{\"serial\":%zu,\"ti\":%zu,\"tj\":%zu,\"img\":%zu,\"fast\":%d}",
          local, ti, tj, img, in.waited ? 0 : 1);
      opt.trace->complete(trace_pid, worker_index, "tile", "host",
                          ts, opt.trace->now_host_us() - ts, args);
    }
#else
    (void)img;
    (void)worker_index;
#endif
  };

  auto worker = [&](std::size_t worker_index) {
    // Per-worker scratch, first-touched on this thread (see TileArena).
    detail::TileArena<T> arena(w);

    for (;;) {
      // Self-assignment: the next diagonal-major serial, one per claim.
      const std::size_t serial = sched.next();
      if (serial == ClaimScheduler::kNone) break;
      if (opt.tile_hook) opt.tile_hook(serial);
      const std::size_t img = serial / tpi;
      const std::size_t local = serial % tpi;
#if SATLIB_OBS_ENABLED
      // Pipeline overlap: this tile starts while the previous image's
      // terminal tile (largest σ ⇒ row-major index tpi−1) is still
      // unpublished. A metric, not a gate — tiles of different images
      // share no data.
      if (obs.overlap_tiles != nullptr && img > 0 &&
          aux[img - 1].status.peek(tpi - 1) < hflag::kDone)
        ++overlap_count[worker_index];
#endif
      process_tile(aux[img], srcs[img], dsts[img], local, img, worker_index,
                   arena);
    }
    satsimd::store_fence();
    if (testhook::g_sched_hook != nullptr) testhook::g_sched_hook->on_exit();
  };

  pool.run_persistent(nworkers, worker);

#if SATLIB_OBS_ENABLED
  if (opt.metrics != nullptr) {
    std::size_t overlap = 0;
    for (const std::size_t c : overlap_count) overlap += c;
    if (obs.overlap_tiles != nullptr && overlap > 0)
      obs.overlap_tiles->add(overlap);
    if (batch > 1) {
      // Share of cross-image-eligible tiles (every tile of image 1..B−1)
      // claimed while their predecessor image was still in flight.
      const std::size_t eligible = (batch - 1) * tpi;
      opt.metrics->gauge("host.lookback.pipeline_overlap_pct")
          .set(100.0 * static_cast<double>(overlap) /
               static_cast<double>(eligible));
    }
  }
#endif
}

/// Computes the SAT of `src` into `dst` with the host 1R1W-SKSS-LB engine.
/// `src` and `dst` must have identical shape and must not alias. The
/// single-image form of sat_skss_lb_batch (a batch of one).
template <class T>
void sat_skss_lb(ThreadPool& pool, satutil::Span2d<const T> src,
                 satutil::Span2d<T> dst, const SkssLbOptions& opt = {}) {
  SAT_CHECK(src.rows() == dst.rows() && src.cols() == dst.cols());
  sat_skss_lb_batch<T>(pool, {src}, {dst}, opt);
}

}  // namespace sathost
