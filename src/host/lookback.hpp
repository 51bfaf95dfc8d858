// Shared pieces of the host tile protocol: the 1R1W-SKSS neighbour wait of
// Funasaka et al. (the paper's [15]) on CPU worker threads.
//
// Worker threads stand in for the paper's CUDA blocks. A tile T(I,J) waits
// until its left neighbour T(I,J−1) and its upper neighbour T(I−1,J) are
// DONE, reads their published global sums (GRS of the left tile, GCS of the
// upper tile, GS of the diagonal tile), computes its own SAT in one fused
// sweep, publishes its own GRS/GCS/GS and raises its DONE flag. The corner
// GS needs no third wait: the upper tile acquired the diagonal tile's flag
// before it released its own, and happens-before is transitive.
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

#include <algorithm>
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
inline constexpr std::uint8_t kDone = 1;  ///< GRS/GCS/GS(I,J) published
}  // namespace hflag

/// Metric handles for the tile-protocol hot path, resolved once per run (the
/// registry's name lookup takes a mutex; flag waits must not). All null when
/// observability is off — every publication site is one pointer test.
struct LookbackObs {
  obs::Counter* tiles_retired = nullptr;
  obs::Counter* fastpath_tiles = nullptr;
  obs::Counter* steals = nullptr;
  obs::Counter* stolen_tiles = nullptr;
  obs::Counter* overlap_tiles = nullptr;
  obs::Histogram* flag_wait_us = nullptr;
  obs::Histogram* range_tiles = nullptr;

  void resolve(obs::Registry* reg) {
#if SATLIB_OBS_ENABLED
    if (reg == nullptr) return;
    tiles_retired = &reg->counter("host.lookback.tiles_retired");
    fastpath_tiles = &reg->counter("host.lookback.fastpath_tiles");
    steals = &reg->counter("host.lookback.steals");
    stolen_tiles = &reg->counter("host.lookback.stolen_tiles");
    overlap_tiles = &reg->counter("host.lookback.overlap_tiles");
    flag_wait_us = &reg->histogram("host.lookback.flag_wait_us");
    range_tiles = &reg->histogram("host.lookback.range_tiles");
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

/// Per-worker diagonal-major claim ranges with chunked work-stealing.
///
/// Replaces the engine's single global claim counter: each worker draws a
/// contiguous block of serials [base, base+chunk) off the shared cursor
/// with one fetch_add, then pops that range front-to-back with a CAS on its
/// own cache line (uncontended until a thief arrives). When a worker's
/// range drains and the cursor is exhausted, it steals the *tail half* of a
/// peer's remaining range with one CAS on the victim's span — so a worker
/// parked in a long neighbour wait cannot strand the serials queued behind
/// its current tile.
///
/// Deadlock freedom (the finite-pool induction of docs/host_engine.md §3
/// survives): ranges are handed out only to already-running workers, every
/// (sub-)range is consumed in increasing serial order, and pops, refills
/// and steals never block. The globally smallest unfinished serial is
/// therefore either (a) the current tile of the worker owning its range —
/// all of whose neighbour dependencies carry smaller serials and are thus
/// finished, so that worker progresses — or (b) beyond every claimed
/// range, in which case some running worker reaches the claim loop (claim
/// code never blocks) and draws it from the cursor.
///
/// Memory ordering: every span and cursor access is relaxed. A serial is a
/// pure work token — all data a tile reads is guarded by the status flags'
/// release/acquire pairs (StatusFlags), never by range ownership,
/// and an atomic RMW operates on the latest value regardless of order.
class ClaimScheduler {
 public:
  /// Returned by next() when every serial in [0, total) is claimed.
  static constexpr std::size_t kNone = ~std::size_t{0};

  ClaimScheduler(std::size_t total, std::size_t nworkers)
      : total_(total),
        nworkers_(nworkers == 0 ? 1 : nworkers),
        chunk_(range_chunk(total, nworkers_)),
        spans_(std::make_unique<Span[]>(nworkers_)) {
    SAT_DCHECK(total < (std::size_t{1} << 32));
  }

  /// Serials per cursor draw: two ranges per worker, so the schedule tail
  /// is balanced by at-most-half-range steals while a 1-worker run still
  /// claims the whole grid in two RMWs.
  [[nodiscard]] static std::size_t range_chunk(std::size_t total,
                                               std::size_t nworkers) {
    const std::size_t slices = 2 * std::max<std::size_t>(1, nworkers);
    return std::max<std::size_t>(1, (total + slices - 1) / slices);
  }

  [[nodiscard]] std::size_t chunk() const noexcept { return chunk_; }

  /// The next serial `worker` should process, or kNone when the grid is
  /// fully claimed. Never blocks.
  std::size_t next(std::size_t worker, const LookbackObs& obs) noexcept {
    SAT_DCHECK(worker < nworkers_);
    for (;;) {
      // One hook per claim round: a pop, refill, or steal scan is a single
      // scheduling point. The explorer serializes rounds, so every CAS
      // below runs uncontended within its round and schedules replay
      // deterministically.
      if (testhook::g_sched_hook != nullptr)
        testhook::g_sched_hook->on_claim();
      const std::size_t serial = pop(worker);
      if (serial != kNone) return serial;
      if (refill(worker, obs)) continue;
      if (!steal(worker, obs)) return kNone;
    }
  }

 private:
  struct alignas(64) Span {
    /// `next` in the low 32 bits, `end` in the high 32: one CAS moves both
    /// bounds, so an owner pop and a peer steal can never tear the range.
    std::atomic<std::uint64_t> range{0};
  };

  static constexpr std::uint64_t pack(std::uint64_t next,
                                      std::uint64_t end) noexcept {
    return next | (end << 32);
  }
  static constexpr std::uint32_t lo(std::uint64_t v) noexcept {
    return static_cast<std::uint32_t>(v & 0xFFFFFFFFu);
  }
  static constexpr std::uint32_t hi(std::uint64_t v) noexcept {
    return static_cast<std::uint32_t>(v >> 32);
  }

  std::size_t pop(std::size_t worker) noexcept {
    auto& r = spans_[worker].range;
    std::uint64_t cur = r.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint32_t next = lo(cur);
      const std::uint32_t end = hi(cur);
      if (next >= end) return kNone;
      if (r.compare_exchange_weak(cur, pack(next + 1, end),
                                  std::memory_order_relaxed,
                                  std::memory_order_relaxed))
        return next;
    }
  }

  bool refill(std::size_t worker, const LookbackObs& obs) noexcept {
    if (work_counter_.load(std::memory_order_relaxed) >= total_) return false;
    const std::size_t base =
        work_counter_.fetch_add(chunk_, std::memory_order_relaxed);
    if (base >= total_) return false;
    const std::size_t take = std::min(chunk_, total_ - base);
    // Only the owner installs into its own *empty* span and thieves skip
    // empty spans, so this plain store cannot overwrite a concurrent steal.
    spans_[worker].range.store(pack(base, base + take),
                               std::memory_order_relaxed);
#if SATLIB_OBS_ENABLED
    if (obs.range_tiles != nullptr) obs.range_tiles->record(take);
#else
    (void)obs;
#endif
    return true;
  }

  bool steal(std::size_t thief, const LookbackObs& obs) noexcept {
    for (std::size_t k = 1; k < nworkers_; ++k) {
      const std::size_t victim = (thief + k) % nworkers_;
      auto& r = spans_[victim].range;
      std::uint64_t cur = r.load(std::memory_order_relaxed);
      for (;;) {
        const std::uint32_t next = lo(cur);
        const std::uint32_t end = hi(cur);
        if (next >= end) break;  // empty; try the next peer
        // Take the tail half (rounded up): the victim keeps the serials
        // nearest its current tile, both sub-ranges stay in increasing
        // serial order, and a 1-serial remainder transfers whole.
        const std::uint32_t mid = next + (end - next) / 2;
        if (r.compare_exchange_weak(cur, pack(next, mid),
                                    std::memory_order_relaxed,
                                    std::memory_order_relaxed)) {
          spans_[thief].range.store(pack(mid, end),
                                    std::memory_order_relaxed);
#if SATLIB_OBS_ENABLED
          if (obs.steals != nullptr) obs.steals->add(1);
          if (obs.stolen_tiles != nullptr) obs.stolen_tiles->add(end - mid);
#else
          (void)obs;
#endif
          return true;
        }
      }
    }
    return false;
  }

  std::size_t total_;
  std::size_t nworkers_;
  std::size_t chunk_;
  std::unique_ptr<Span[]> spans_;
  /// Shared range cursor — the successor of PR 4's per-tile claim counter;
  /// the name is part of the satmc conformance contract (claim order).
  std::atomic<std::size_t> work_counter_{0};
};

/// The per-tile published quantities of Table II that the neighbour wait
/// reads, host layout: one length-W slot per tile for each vector sum
/// (row-major by tile index, like the device SatAux), one scalar slot per
/// tile for GS. Element storage is default-initialized (not zeroed) — every
/// slot is written before its flag releases it, so zero-filling would only
/// add a cold pass over the arrays.
template <class T>
struct LookbackAux {
  LookbackAux(std::size_t tile_count, std::size_t tile_w)
      : w(tile_w),
        grs(new T[tile_count * tile_w]),
        gcs(new T[tile_count * tile_w]),
        gs(new T[tile_count]),
        status(tile_count) {}

  /// First element of tile `idx`'s vector slot.
  [[nodiscard]] std::size_t vec_base(std::size_t idx) const {
    return idx * w;
  }

  /// What the neighbour wait hands tile T(I,J): GRS(I,J−1) and GCS(I−1,J)
  /// (null at the matrix border), GS(I−1,J−1) (zero at the border), and
  /// whether either wait found its neighbour unfinished.
  struct Prefixes {
    const T* grs = nullptr;
    const T* gcs = nullptr;
    T corner{};
    bool waited = false;
  };

  /// The neighbour wait of tile (ti, tj): blocks until the left, then the
  /// upper neighbour is DONE, and returns their published sums. Both carry
  /// a smaller σ, so the claim-order induction (ClaimScheduler) guarantees
  /// they finish. The corner needs no wait of its own: the upper tile
  /// acquired its flag before releasing its own.
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
      in.gcs = gcs.get() + vec_base(grid.idx(ti - 1, tj));
    }
    if (ti > 0 && tj > 0) in.corner = gs[grid.idx(ti - 1, tj - 1)];
    return in;
  }

  std::size_t w;
  std::unique_ptr<T[]> grs;  ///< global row sums (length-P slots)
  std::unique_ptr<T[]> gcs;  ///< global column sums (length-Q slots)
  std::unique_ptr<T[]> gs;   ///< global sums (scalar per tile)
  StatusFlags status;        ///< 0 → hflag::kDone
};

}  // namespace sathost
