// Shared pieces of the host tile protocol: the 1R1W-SKSS neighbour wait of
// Funasaka et al. (the paper's [15]) on CPU worker threads.
//
// Worker threads stand in for the paper's CUDA blocks. A tile T(I,J) waits
// until its left neighbour T(I,J−1) and its upper neighbour T(I−1,J) are
// DONE, reads what they published (the GRS of the left tile, the bottom
// table row of the upper tile), computes its own SAT in one fused sweep,
// publishes its own GRS and bottom row and raises its DONE flag. The bottom
// row is the paper's GS(I−1,J−1) plus the prefix of GCS(I−1,J), already
// summed: the tile below starts its column accumulator from the very values
// a single whole-matrix sweep would hold there, so a floating-point table
// does not depend on W (for W a multiple of the SIMD width and of 4).
//
// The paper's decoupled look-back (LOCAL → GLOBAL publication and the walks
// over many predecessors) pays off only with thousands of resident blocks on
// dependency chains 2·n/W tiles long; the host runs a handful of workers
// over a few tile columns, where the wait is short and one path is enough.
// The look-back stays in the gpusim reproduction (src/sat/algo_skss_lb.hpp);
// docs/host_engine.md §3 has the measurements.
//
// Memory ordering: every value is written *before* its flag is released
// (store-release); every waiter acquires the flag before reading the value.
// This is the host-visible form of the algorithm's flag-after-data rule that
// the protocol checker enforces on the simulator — here the C++ memory model
// enforces it directly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "obs/registry.hpp"
#include "sat/tiles.hpp"
#include "util/backoff.hpp"
#include "util/check.hpp"

namespace sathost {

// ── Interleaving-explorer hook layer ────────────────────────────────────
//
// tests/test_interleave.cpp drives the engine through every protocol step
// under a deterministic scheduler: each flag observe/publish and each tile
// claim funnels through one global hook, so the test can serialize workers
// and enumerate schedules (see docs/static_analysis.md). Production cost is
// one predicted null test per protocol step — the same pattern as
// SkssLbOptions::tile_hook. The pointer is written only while no worker
// threads are running (before the pool batch is published / after it
// completes), so a plain pointer is race-free.
namespace testhook {

class SchedHook {
 public:
  virtual ~SchedHook() = default;
  /// A worker is about to claim the next tile serial (before the counter
  /// fetch_add, so claim order is schedule-controlled).
  virtual void on_claim() = 0;
  /// A worker just loaded flag `idx` of StatusFlags `arr` and observed
  /// `seen`; `want` is the state it is waiting for (0 for a non-blocking
  /// peek). Called after the load, before the worker acts on the snapshot.
  virtual void on_observe(const void* arr, std::size_t idx,
                          std::uint8_t seen, std::uint8_t want) = 0;
  /// A worker is about to release-store `state` into flag `idx` of `arr`.
  virtual void on_publish(const void* arr, std::size_t idx,
                          std::uint8_t state) = 0;
  /// A worker body finished (it will hit no further scheduling points).
  virtual void on_exit() = 0;
};

inline SchedHook* g_sched_hook = nullptr;  ///< test-only; null in production

}  // namespace testhook

// The host flag lattice: one state per tile, 0 → DONE.
namespace hflag {
inline constexpr std::uint8_t kDone = 1;  ///< GRS and bottom row published
}  // namespace hflag

/// Metric handles for the tile-protocol hot path, resolved once per run (the
/// registry's name lookup takes a mutex; flag waits must not). All null when
/// observability is off — every publication site is one pointer test.
struct LookbackObs {
  obs::Counter* tiles_retired = nullptr;
  obs::Counter* fastpath_tiles = nullptr;
  obs::Counter* overlap_tiles = nullptr;
  obs::Histogram* flag_wait_us = nullptr;

  void resolve(obs::Registry* reg) {
#if SATLIB_OBS_ENABLED
    if (reg == nullptr) return;
    tiles_retired = &reg->counter("host.lookback.tiles_retired");
    fastpath_tiles = &reg->counter("host.lookback.fastpath_tiles");
    overlap_tiles = &reg->counter("host.lookback.overlap_tiles");
    flag_wait_us = &reg->histogram("host.lookback.flag_wait_us");
#else
    (void)reg;
#endif
  }
};

/// One status array over the tile grid. Flags start at 0 and only ever
/// increase; publish() is a store-release, wait/peek are load-acquire.
class StatusFlags {
 public:
  explicit StatusFlags(std::size_t count)
      : flags_(std::make_unique<std::atomic<std::uint8_t>[]>(count)) {
    for (std::size_t i = 0; i < count; ++i)
      // satlint: allow(flag-store-ordering) -- constructor zero-fill; the
      // array is published to workers by the pool's batch mutex, so a
      // release here would order nothing a waiter could miss.
      flags_[i].store(0, std::memory_order_relaxed);
  }

  /// Releases `state` for tile `idx`. All data the state guards must be
  /// written before this call.
  void publish(std::size_t idx, std::uint8_t state) noexcept {
    // satlint: allow(flag-load-ordering) -- debug self-check of the tile's
    // own monotonicity; only the claiming worker stores this slot, so the
    // relaxed read synchronizes with nothing by design.
    SAT_DCHECK(state > flags_[idx].load(std::memory_order_relaxed));
    if (testhook::g_sched_hook != nullptr)
      testhook::g_sched_hook->on_publish(this, idx, state);
    flags_[idx].store(state, std::memory_order_release);
  }

  /// Non-blocking snapshot (acquire): the returned state's data is visible.
  [[nodiscard]] std::uint8_t peek(std::size_t idx) const noexcept {
    const std::uint8_t s = flags_[idx].load(std::memory_order_acquire);
    if (testhook::g_sched_hook != nullptr)
      testhook::g_sched_hook->on_observe(this, idx, s, 0);
    return s;
  }

  /// Blocks until tile `idx` reaches at least `want`. Returns true when the
  /// first load saw a lower state (the caller had to wait). Spins briefly,
  /// then yields (the publisher may need this core); a blocking wait records
  /// its wall time in `obs.flag_wait_us`.
  bool wait_at_least(std::size_t idx, std::uint8_t want,
                     const LookbackObs& obs) const noexcept {
    std::uint8_t s = flags_[idx].load(std::memory_order_acquire);
    if (testhook::g_sched_hook != nullptr)
      testhook::g_sched_hook->on_observe(this, idx, s, want);
    if (s >= want) return false;
    const auto t0 = std::chrono::steady_clock::now();
    satutil::SpinBackoff backoff;
    do {
      backoff.pause();
      s = flags_[idx].load(std::memory_order_acquire);
      if (testhook::g_sched_hook != nullptr)
        testhook::g_sched_hook->on_observe(this, idx, s, want);
    } while (s < want);
#if SATLIB_OBS_ENABLED
    if (obs.flag_wait_us != nullptr) {
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      obs.flag_wait_us->record(static_cast<std::uint64_t>(us + 0.5));
    }
#else
    (void)t0;
    (void)obs;
#endif
    return true;
  }

 private:
  std::unique_ptr<std::atomic<std::uint8_t>[]> flags_;
};

/// The paper's self-assignment counter (Fig. 9): each claim takes the next
/// diagonal-major serial with one fetch_add — the host form of the device
/// algorithm's atomicAdd on a global counter. One ticket per tile is what
/// lets the tiles of one anti-diagonal run side by side on different
/// workers (docs/host_engine.md §3).
///
/// Deadlock freedom is the paper's induction: serials are handed out in
/// increasing order and every dependency of a tile has a smaller serial,
/// so the smallest unfinished serial is held by a running worker whose
/// dependencies are all finished.
///
/// Memory ordering: relaxed. A serial is a pure work token — all data a
/// tile reads is guarded by the status flags' release/acquire pairs
/// (StatusFlags), and an atomic RMW operates on the latest value
/// regardless of order.
class ClaimScheduler {
 public:
  /// Returned by next() when every serial in [0, total) is claimed.
  static constexpr std::size_t kNone = ~std::size_t{0};

  explicit ClaimScheduler(std::size_t total) : total_(total) {}

  /// The next serial to process, or kNone when the grid is fully claimed.
  /// Never blocks.
  std::size_t next() noexcept {
    if (testhook::g_sched_hook != nullptr)
      testhook::g_sched_hook->on_claim();
    const std::size_t serial =
        work_counter_.fetch_add(1, std::memory_order_relaxed);
    return serial < total_ ? serial : kNone;
  }

 private:
  std::size_t total_;
  /// The claim counter; the name is part of the satmc conformance
  /// contract (claim order). On its own line: every claim writes it.
  alignas(64) std::atomic<std::size_t> work_counter_{0};
};

/// The per-tile published quantities that the neighbour wait reads, host
/// layout: one length-W slot per tile for each vector (row-major by tile
/// index, like the device SatAux). Element storage is default-initialized
/// (not zeroed) — every slot is written before its flag releases it, so
/// zero-filling would only add a cold pass over the arrays.
template <class T>
struct LookbackAux {
  LookbackAux(std::size_t tile_count, std::size_t tile_w)
      : w(tile_w),
        grs(new T[tile_count * tile_w]),
        bottom(new T[tile_count * tile_w]),
        status(tile_count) {}

  /// First element of tile `idx`'s vector slot.
  [[nodiscard]] std::size_t vec_base(std::size_t idx) const {
    return idx * w;
  }

  /// What the neighbour wait hands tile T(I,J): GRS(I,J−1) and the bottom
  /// row of T(I−1,J) (null at the matrix border), and whether either wait
  /// found its neighbour unfinished.
  struct Prefixes {
    const T* grs = nullptr;
    const T* bottom = nullptr;
    bool waited = false;
  };

  /// The neighbour wait of tile (ti, tj): blocks until the left, then the
  /// upper neighbour is DONE, and returns what they published. Both carry
  /// a smaller σ, so the claim-order induction (ClaimScheduler) guarantees
  /// they finish.
  Prefixes wait_neighbours(const satalgo::TileGrid& grid, std::size_t ti,
                           std::size_t tj, const LookbackObs& obs) const {
    Prefixes in;
    if (tj > 0) {
      in.waited |= status.wait_at_least(grid.idx(ti, tj - 1), hflag::kDone,
                                        obs);
      in.grs = grs.get() + vec_base(grid.idx(ti, tj - 1));
    }
    if (ti > 0) {
      in.waited |= status.wait_at_least(grid.idx(ti - 1, tj), hflag::kDone,
                                        obs);
      in.bottom = bottom.get() + vec_base(grid.idx(ti - 1, tj));
    }
    return in;
  }

  std::size_t w;
  /// Global row sums: row r0+p summed from column 0 through the tile's
  /// last column (length-P slots).
  std::unique_ptr<T[]> grs;
  /// The tile's bottom table row, SAT(r1, c) for each of its columns c
  /// (length-Q slots).
  std::unique_ptr<T[]> bottom;
  StatusFlags status;  ///< 0 → hflag::kDone
};

}  // namespace sathost
