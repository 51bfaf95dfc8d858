// Host encoders for Storage::kTiledResidual (sat/storage.hpp).
//
// Two engines produce the tiled base+residual form:
//
//   - sat_residual: single-threaded band-by-band sweep. One pass over src
//     with the fused SIMD row kernel per tile; the wide bases fall out of
//     two running vectors (the SAT of the row above the current tile band,
//     and the per-row sums left of the current tile). The sat_simd analog.
//
//   - sat_skss_lb_residual_batch: the 1R1W-SKSS-LB engine re-targeted at a
//     TiledSat output. Identical one-ticket-per-tile claims and neighbour wait
//     as sat_skss_lb_batch (host/sat_skss_lb.hpp), with two deltas: the
//     flag-published quantities are WIDE (LookbackAux<Wide>, so the bases
//     stay exact past T's range), and the fused store to dst becomes the
//     tile encode. Residual encoding must see the whole tile before it
//     chooses a width, so each tile first computes its tile-local SAT and
//     value range into the arena's staging buffer — before the wait, so the
//     sweep overlaps a slow neighbour. After the wait, the prefix of the
//     left neighbour's GRS IS RowBand and the upper neighbour's bottom
//     table row IS ColBand; the tile publishes its own GRS and bottom row
//     and DONE, then TiledSat::encode_tile picks the residual width from
//     the tile's value range, with the wide fallback on u32 overflow. What
//     the engine saves is the output traffic — u16 residuals stream 2–4×
//     fewer bytes than the dense table.
//
// Deadlock freedom, claim discipline, and flag semantics are exactly those
// of sat_skss_lb_batch; see that header's proof sketch.
//
// Both engines publish host.storage.{residual_bytes,dense_bytes,
// overflow_tiles} when given a registry (docs/observability.md).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <vector>

#include "host/lookback.hpp"
#include "host/sat_simd.hpp"
#include "host/sat_skss_lb.hpp"
#include "host/thread_pool.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sat/storage.hpp"
#include "sat/tiles.hpp"
#include "util/span2d.hpp"

namespace sathost {

namespace detail {

inline void publish_storage_metrics(obs::Registry* reg,
                                    std::size_t residual_bytes,
                                    std::size_t dense_bytes,
                                    std::size_t overflow_tiles) {
#if SATLIB_OBS_ENABLED
  if (reg == nullptr) return;
  reg->counter("host.storage.residual_bytes").add(residual_bytes);
  reg->counter("host.storage.dense_bytes").add(dense_bytes);
  if (overflow_tiles > 0)
    reg->counter("host.storage.overflow_tiles").add(overflow_tiles);
#else
  (void)reg;
  (void)residual_bytes;
  (void)dense_bytes;
  (void)overflow_tiles;
#endif
}

}  // namespace detail

/// Single-threaded tiled-residual SAT encoder. `out` fixes the shape and
/// tile width. Bit-exact reconstruction for integral T whenever every
/// tile-local SAT fits T (see sat/storage.hpp's contract — the FULL table
/// need not fit T).
template <class T>
void sat_residual(satutil::Span2d<const T> src, sat::TiledSat<T>& out,
                  obs::Registry* reg = nullptr) {
  using Wide = typename sat::TiledSat<T>::Wide;
  const std::size_t rows = src.rows();
  const std::size_t cols = src.cols();
  SAT_CHECK_MSG(out.rows() == rows && out.cols() == cols,
                "TiledSat shape mismatch: " << out.rows() << "x" << out.cols()
                                            << " vs " << rows << "x" << cols);
  const std::size_t w = out.tile_w();
  const bool allow_stream = rows * cols * sizeof(T) >= kStreamMinBytes;

  std::vector<T> tilebuf(w * w);
  std::vector<T> acc(w);
  std::vector<T> lrs(w);
  // SAT(r0−1, c) along the full width — ColBand of the current tile band.
  std::vector<Wide> garow(cols, Wide{});
  // Per-row sums of src(r0+p, ·) left of the current tile.
  std::vector<Wide> bandrow(w);
  std::vector<Wide> row_band(w), col_band(w);

  out.begin_encode();
  for (std::size_t ti = 0; ti < out.tile_rows(); ++ti) {
    const std::size_t r0 = ti * w;
    const std::size_t P = std::min(w, rows - r0);
    std::fill(bandrow.begin(), bandrow.begin() + P, Wide{});
    for (std::size_t tj = 0; tj < out.tile_cols(); ++tj) {
      const std::size_t c0 = tj * w;
      const std::size_t Q = std::min(w, cols - c0);

      // Tile-local SAT (computed in T — the fast kernels; exactness
      // contract above), row carries are the tile's row sums. The value
      // range feeds encode_tile's width choice and is tracked here, per
      // row, while the row is still L1-hot — a post-hoc sweep would be a
      // second cold pass over the whole tile.
      std::fill(acc.begin(), acc.begin() + Q, T{});
      T mn{}, mx{};
      for (std::size_t p = 0; p < P; ++p) {
        T* row = tilebuf.data() + p * w;
        lrs[p] = simd_row_scan_acc(&src(r0 + p, c0), acc.data(), row, Q, T{},
                                   /*allow_stream=*/false);
        if (p == 0) {
          mn = row[0];
          mx = row[0];
        }
        sat::detail::update_range(row, Q, mn, mx);
      }

      {
        Wide run{};
        for (std::size_t p = 0; p < P; ++p) {
          run += bandrow[p];
          row_band[p] = run;
        }
      }
      for (std::size_t q = 0; q < Q; ++q) col_band[q] = garow[c0 + q];

      out.encode_tile(out.tile_index(ti, tj), tilebuf.data(), w, P, Q,
                      row_band.data(), col_band.data(), mn, mx, allow_stream);

      // Advance the running vectors: the band-bottom SAT row over this
      // tile's columns, and this tile's row sums into the left-of-tile
      // accumulator for the next tile of the band.
      const T* bottom = tilebuf.data() + (P - 1) * w;
      for (std::size_t q = 0; q < Q; ++q)
        garow[c0 + q] =
            col_band[q] + row_band[P - 1] + static_cast<Wide>(bottom[q]);
      for (std::size_t p = 0; p < P; ++p)
        bandrow[p] += static_cast<Wide>(lrs[p]);
    }
  }
  detail::publish_storage_metrics(reg, out.residual_bytes(), out.dense_bytes(),
                                  out.overflow_tiles());
}

/// Batched 1R1W-SKSS-LB tiled-residual encoder: every image of the batch
/// through one claim counter (pipelined across images exactly
/// like sat_skss_lb_batch). All images share one shape; every `outs[b]`
/// must match it and all must share one tile width, which fixes W
/// (opt.tile_w, if set, must agree). opt.kahan does not apply to residual
/// encoding and must be false.
template <class T>
void sat_skss_lb_residual_batch(ThreadPool& pool,
                                const std::vector<satutil::Span2d<const T>>& srcs,
                                const std::vector<sat::TiledSat<T>*>& outs,
                                const SkssLbOptions& opt = {}) {
  using Wide = typename sat::TiledSat<T>::Wide;
  const std::size_t batch = srcs.size();
  SAT_CHECK(outs.size() == batch);
  if (batch == 0) return;
  const std::size_t rows = srcs[0].rows();
  const std::size_t cols = srcs[0].cols();
  SAT_CHECK(outs[0] != nullptr);
  const std::size_t w = outs[0]->tile_w();
  for (std::size_t b = 0; b < batch; ++b) {
    SAT_CHECK(srcs[b].rows() == rows && srcs[b].cols() == cols);
    SAT_CHECK(outs[b] != nullptr && outs[b]->rows() == rows &&
              outs[b]->cols() == cols && outs[b]->tile_w() == w);
  }
  SAT_CHECK_MSG(opt.tile_w == 0 || opt.tile_w == w,
                "tile width is fixed by the TiledSat outputs");
  SAT_CHECK_MSG(!opt.kahan, "kahan does not apply to residual encoding");
  if (rows == 0 || cols == 0) return;

  const std::size_t nworkers = opt.workers != 0 ? opt.workers : pool.size();
  const satalgo::TileGrid grid((rows + w - 1) / w * w, (cols + w - 1) / w * w,
                               w);
  const std::size_t tpi = grid.count();
  std::vector<LookbackAux<Wide>> aux;
  aux.reserve(batch);
  for (std::size_t b = 0; b < batch; ++b) aux.emplace_back(tpi, w);
  ClaimScheduler sched(batch * tpi);

  LookbackObs obs;
  obs.resolve(opt.metrics);
  int trace_pid = 0;
#if SATLIB_OBS_ENABLED
  if (opt.trace != nullptr)
    trace_pid = opt.trace->register_process("host skss-lb-resid");
#endif

  const bool allow_stream = rows * cols * sizeof(T) >= kStreamMinBytes;
  for (sat::TiledSat<T>* out : outs) out->begin_encode();

  auto process_tile = [&](LookbackAux<Wide>& iaux,
                          satutil::Span2d<const T> src, sat::TiledSat<T>& out,
                          std::size_t local, std::size_t img,
                          std::size_t worker_index,
                          detail::TileArena<T>& tarena,
                          detail::TileArena<Wide>& warena) {
#if SATLIB_OBS_ENABLED
    const double ts = opt.trace != nullptr ? opt.trace->now_host_us() : 0.0;
#endif
    const auto [ti, tj] = grid.tile_of_serial(local);
    const std::size_t self = grid.idx(ti, tj);
    const std::size_t r0 = ti * w, c0 = tj * w;
    const std::size_t P = std::min(w, rows - r0);
    const std::size_t Q = std::min(w, cols - c0);
    T* acc = tarena.acc();
    T* tilebuf = tarena.tile();
    T* lrs = tarena.aux();  // the tile's own row sums, in T

    // Tile-local SAT in T with the register-blocked sweep. The value range
    // for encode_tile's width choice is folded in right behind each kernel
    // call, while the freshly written rows are still L1-hot.
    std::fill(acc, acc + Q, T{});
    T mn{}, mx{};
    auto track_rows = [&](std::size_t p0, std::size_t count) {
      if (p0 == 0) {
        mn = tilebuf[0];
        mx = tilebuf[0];
      }
      for (std::size_t k = 0; k < count; ++k)
        sat::detail::update_range(tilebuf + (p0 + k) * w, Q, mn, mx);
    };
    std::size_t p = 0;
    for (; p + 4 <= P; p += 4) {
      const T* srows[4] = {&src(r0 + p, c0), &src(r0 + p + 1, c0),
                           &src(r0 + p + 2, c0), &src(r0 + p + 3, c0)};
      T* brows[4] = {tilebuf + p * w, tilebuf + (p + 1) * w,
                     tilebuf + (p + 2) * w, tilebuf + (p + 3) * w};
      T carries[4] = {T{}, T{}, T{}, T{}};
      simd_row_scan_acc4(srows, acc, brows, Q, carries,
                         /*allow_stream=*/false);
      for (std::size_t k = 0; k < 4; ++k) lrs[p + k] = carries[k];
      track_rows(p, 4);
    }
    for (; p < P; ++p) {
      lrs[p] = simd_row_scan_acc(&src(r0 + p, c0), acc, tilebuf + p * w, Q,
                                 T{}, /*allow_stream=*/false);
      track_rows(p, 1);
    }

    const auto in = iaux.wait_neighbours(grid, ti, tj, obs);
    const Wide* grs_in = in.grs;

    // RowBand(p) = Σ GRS(I,J−1)[0..p]; ColBand(q) = SAT(r0−1, c0+q), the
    // bottom row of T(I−1,J) (sat/storage.hpp header).
    Wide* row_band = warena.acc();
    Wide* col_band = warena.aux();
    {
      Wide run{};
      for (std::size_t k = 0; k < P; ++k) {
        run += grs_in != nullptr ? grs_in[k] : Wide{};
        row_band[k] = run;
      }
    }
    if (in.bottom != nullptr) {
      std::copy(in.bottom, in.bottom + Q, col_band);
    } else {
      std::fill(col_band, col_band + Q, Wide{});
    }
    // Publish before the encode: the neighbours need only these sums, so
    // the encode's output traffic stays off their dependency chain.
    // GRS = left GRS + own row sums; the bottom table row = ColBand +
    // RowBand(P−1) + the tile-local bottom row.
    Wide* grs_self = iaux.grs.get() + iaux.vec_base(self);
    Wide* bottom_self = iaux.bottom.get() + iaux.vec_base(self);
    for (std::size_t k = 0; k < P; ++k)
      grs_self[k] = (grs_in != nullptr ? grs_in[k] : Wide{}) +
                    static_cast<Wide>(lrs[k]);
    const T* bottom = tilebuf + (P - 1) * w;
    for (std::size_t q = 0; q < Q; ++q)
      bottom_self[q] =
          col_band[q] + row_band[P - 1] + static_cast<Wide>(bottom[q]);
    iaux.status.publish(self, hflag::kDone);

    out.encode_tile(out.tile_index(ti, tj), tilebuf, w, P, Q, row_band,
                    col_band, mn, mx, allow_stream);

#if SATLIB_OBS_ENABLED
    if (obs.tiles_retired != nullptr) obs.tiles_retired->add();
    if (obs.fastpath_tiles != nullptr && !in.waited)
      obs.fastpath_tiles->add();
    if (opt.trace != nullptr) {
      char args[112];
      std::snprintf(
          args, sizeof args,
          "{\"serial\":%zu,\"ti\":%zu,\"tj\":%zu,\"img\":%zu,\"enc\":%d}",
          local, ti, tj, img,
          static_cast<int>(out.enc(out.tile_index(ti, tj))));
      opt.trace->complete(trace_pid, worker_index, "tile", "host", ts,
                          opt.trace->now_host_us() - ts, args);
    }
#else
    (void)img;
    (void)worker_index;
#endif
  };

  auto worker = [&](std::size_t worker_index) {
    detail::TileArena<T> tarena(w);
    detail::TileArena<Wide> warena(w);
    for (;;) {
      const std::size_t serial = sched.next();
      if (serial == ClaimScheduler::kNone) break;
      if (opt.tile_hook) opt.tile_hook(serial);
      const std::size_t img = serial / tpi;
      const std::size_t local = serial % tpi;
      process_tile(aux[img], srcs[img], *outs[img], local, img, worker_index,
                   tarena, warena);
    }
    satsimd::store_fence();
    if (testhook::g_sched_hook != nullptr) testhook::g_sched_hook->on_exit();
  };

  pool.run_persistent(nworkers, worker);

  if (opt.metrics != nullptr) {
    std::size_t resid = 0, dense = 0, overflow = 0;
    for (const sat::TiledSat<T>* out : outs) {
      resid += out->residual_bytes();
      dense += out->dense_bytes();
      overflow += out->overflow_tiles();
    }
    detail::publish_storage_metrics(opt.metrics, resid, dense, overflow);
  }
}

/// Single-image form of sat_skss_lb_residual_batch (a batch of one).
template <class T>
void sat_skss_lb_residual(ThreadPool& pool, satutil::Span2d<const T> src,
                          sat::TiledSat<T>& out,
                          const SkssLbOptions& opt = {}) {
  sat_skss_lb_residual_batch<T>(pool, {src}, {&out}, opt);
}

}  // namespace sathost
