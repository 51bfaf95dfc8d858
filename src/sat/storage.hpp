// SAT storage modes (ROADMAP item 3, after Ehsan et al.'s compact integral
// image representations).
//
// Every host engine in the ledger is bound by DRAM traffic, and the SAT
// *output* write is the dominant term — so a representation that halves the
// output bytes is a throughput lever, not just a footprint one. The SKSS-LB
// tile structure makes a base+residual encoding nearly free: the engine
// already computes, per tile, the global prefix sums entering from the left
// and from above (its GRS/GCS look-back values). Splitting the table as
//
//     SAT(r0+p, c0+q) = RowBand(p) + ColBand(q) + L(p, q)
//
//       RowBand(p) = Σ_{p'≤p} (sum of row r0+p' left of the tile)
//       ColBand(q) = SAT(r0−1, c0+q)            (0 above the top band)
//       L(p, q)    = tile-local SAT of the W×W tile
//
// stores two W-entry *wide* base vectors per tile plus a dense plane of
// *narrow* local residuals. Only L varies per cell; its per-tile range is
// bounded by the tile's own content, so for most inputs it fits u16 or u32
// even when the global SAT needs 64 bits. Per tile we store the minimum of
// L as a bias (folded into RowBand, so readers never see it) and pick the
// narrowest width that holds max−min, falling back to the wide type when the
// tile's dynamic range overflows u32 (counted, never wrong).
//
// Exactness contract (integral T): reconstruction is bit-exact versus the
// dense i64 oracle whenever every *tile-local* SAT fits T. That is strictly
// weaker than the dense-mode requirement that the FULL table fits T — tiled
// residual storage is a range extension as well as a compression: an i32
// input whose total exceeds INT32_MAX still reconstructs exactly, because
// the base vectors are 64-bit. For floating T the residual plane is f32 and
// the bases are f64; error is bounded by the f32 representation of the
// tile-local values (see docs/host_engine.md, "Storage modes").
//
// Layout: all residuals live in ONE byte plane. When a tile is encoded it
// takes a slot of exactly tp·W·sizeof(width) bytes, rounded up to 64, from
// the plane's bump cursor, and its byte offset is kept beside its width tag;
// inside the slot the residual of (p, q) sits at p*W + q. Slots start
// 64-byte aligned, so every row is too whenever W is a multiple of 32 — the
// non-temporal store path in the encoders requires never mixing streamed and
// regular stores in one cache line. The slot order follows the order in
// which tiles claim their slots and may differ from run to run; the values,
// the width tags and the byte counts do not. Touched memory is therefore
// plane_bytes() ≈ the residual part of residual_bytes(), however the widths
// mix. The plane reserves address space for the worst case (8 bytes per
// element for integral T, 4 for floating T) and is never zero-filled by the
// library. On Linux a plane of 2 MiB or more is its own 2 MiB-aligned
// anonymous mapping advised MADV_HUGEPAGE: the encode faults in one 2 MiB
// page per 2 MiB it writes instead of 512 small ones, and random corner
// lookups miss the TLB far less. Elsewhere it is a 64-byte-aligned `new`.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "core/region.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"
#include "util/span2d.hpp"

namespace sat {

/// Output representation of a computed SAT (Options::storage).
enum class Storage : std::uint8_t {
  kDense = 0,          ///< one full-width table entry per cell (default)
  kTiledResidual = 1,  ///< per-tile wide bases + narrow local residuals
  kKahanF32 = 2,       ///< f32 table, Kahan-compensated column accumulation
};

[[nodiscard]] constexpr const char* storage_name(Storage s) {
  switch (s) {
    case Storage::kDense: return "dense";
    case Storage::kTiledResidual: return "residual";
    case Storage::kKahanF32: return "kahan";
  }
  return "?";
}

namespace detail {

template <class U>
struct AlignedFree {
  void operator()(U* p) const noexcept {
    ::operator delete[](static_cast<void*>(p), std::align_val_t{64});
  }
};

template <class U>
using AlignedArray = std::unique_ptr<U[], AlignedFree<U>>;

/// 64-byte-aligned, default-initialized (pages stay virtual until touched).
template <class U>
[[nodiscard]] AlignedArray<U> aligned_array(std::size_t n) {
  if (n == 0) return {};
  return AlignedArray<U>(new (std::align_val_t{64}) U[n]);
}

[[nodiscard]] constexpr std::size_t round_up(std::size_t n, std::size_t to) {
  return (n + to - 1) / to * to;
}

inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Frees a residual plane: `mapped` is the length of its huge-page mapping,
/// or 0 when it came from the aligned `new`.
struct PlaneFree {
  std::size_t mapped = 0;
  void operator()(std::byte* p) const noexcept {
#if defined(__linux__)
    if (mapped != 0) {
      ::munmap(p, mapped);
      return;
    }
#endif
    ::operator delete[](static_cast<void*>(p), std::align_val_t{64});
  }
};

using Plane = std::unique_ptr<std::byte[], PlaneFree>;

/// `bytes` of uninitialized residual storage, 64-byte aligned; 2 MiB-aligned
/// and advised MADV_HUGEPAGE when it is at least 2 MiB on Linux (see the
/// file header). Falls back to the aligned `new` if the mapping fails.
[[nodiscard]] inline Plane make_plane(std::size_t bytes) {
  if (bytes == 0) return {};
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  if (bytes >= kHugePageBytes) {
    const std::size_t len = round_up(bytes, kHugePageBytes);
    // Over-map by one huge page, then trim both ends to 2 MiB boundaries.
    void* raw = ::mmap(nullptr, len + kHugePageBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw != MAP_FAILED) {
      const auto at = reinterpret_cast<std::uintptr_t>(raw);
      const std::size_t head = round_up(at, kHugePageBytes) - at;
      std::byte* base = static_cast<std::byte*>(raw) + head;
      if (head != 0) ::munmap(raw, head);
      ::munmap(base + len, kHugePageBytes - head);
      (void)::madvise(base, len, MADV_HUGEPAGE);
      return Plane(base, PlaneFree{len});
    }
  }
#endif
  return Plane(
      static_cast<std::byte*>(::operator new[](bytes, std::align_val_t{64})));
}

/// The residual plane's bump cursor. encode_tile takes each tile's slot with
/// one relaxed fetch_add, so tiles encoded on different threads get disjoint
/// byte ranges. Relaxed is enough: the cursor only splits the plane, it
/// publishes nothing. Readers see the residuals through the encoder's own
/// happens-before edge (the pool join that ends an encode).
class SlotCursor {
 public:
  SlotCursor() = default;
  SlotCursor(SlotCursor&& other) noexcept : next_(other.used()) {}
  SlotCursor& operator=(SlotCursor&& other) noexcept {
    next_.store(other.used(), std::memory_order_relaxed);
    return *this;
  }

  /// Claims `bytes` and returns the offset of the first.
  std::size_t take(std::size_t bytes) noexcept {
    return next_.fetch_add(bytes, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t used() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }
  void rewind() noexcept { next_.store(0, std::memory_order_relaxed); }

 private:
  // satlint: allow(atomic-whitelist) -- a byte-range bump counter, not a
  // protocol word: no reader waits on it or infers data visibility from it
  // (the pool join that ends an encode orders the residual data before any
  // reader), so relaxed fetch_add is its whole contract and it needs no
  // audited primitive.
  std::atomic<std::size_t> next_{0};
};

/// Folds `row[0..n)` into the running [mn, mx] range. 8-lane AVX2 sweep for
/// the 4-byte types (the range scan otherwise costs more than the narrow
/// conversion it feeds); engines call this on each tile row right after the
/// scan kernel produces it, while the row is still cache-hot.
template <class U>
inline void update_range(const U* row, std::size_t n, U& mn, U& mx) {
  std::size_t q = 0;
#if defined(SATSIMD_BACKEND_AVX2)
  if constexpr (sizeof(U) == 4) {
    if (n >= 8) {
      if constexpr (std::is_same_v<U, float>) {
        __m256 vmn = _mm256_set1_ps(mn), vmx = _mm256_set1_ps(mx);
        for (; q + 8 <= n; q += 8) {
          const __m256 v = _mm256_loadu_ps(row + q);
          vmn = _mm256_min_ps(vmn, v);
          vmx = _mm256_max_ps(vmx, v);
        }
        alignas(32) float lanes[8];
        _mm256_store_ps(lanes, vmn);
        for (float v : lanes) mn = v < mn ? v : mn;
        _mm256_store_ps(lanes, vmx);
        for (float v : lanes) mx = v > mx ? v : mx;
      } else {
        __m256i vmn = _mm256_set1_epi32(static_cast<int>(mn));
        __m256i vmx = _mm256_set1_epi32(static_cast<int>(mx));
        for (; q + 8 <= n; q += 8) {
          const __m256i v =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + q));
          if constexpr (std::is_signed_v<U>) {
            vmn = _mm256_min_epi32(vmn, v);
            vmx = _mm256_max_epi32(vmx, v);
          } else {
            vmn = _mm256_min_epu32(vmn, v);
            vmx = _mm256_max_epu32(vmx, v);
          }
        }
        alignas(32) U lanes[8];
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmn);
        for (U v : lanes) mn = v < mn ? v : mn;
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmx);
        for (U v : lanes) mx = v > mx ? v : mx;
      }
    }
  }
#endif
  for (; q < n; ++q) {
    mn = row[q] < mn ? row[q] : mn;
    mx = row[q] > mx ? row[q] : mx;
  }
}

}  // namespace detail

/// A SAT in tiled base+residual form. Readers use value()/region_sum()
/// (O(1), two base loads + one narrow load per corner) or decode_into()
/// to materialize a dense table.
template <class T>
class TiledSat {
  static_assert(std::is_arithmetic_v<T>);

 public:
  /// Accumulator type of the base vectors: f64 for floating tables,
  /// i64 for integral ones.
  using Wide =
      std::conditional_t<std::is_floating_point_v<T>, double, std::int64_t>;

  /// Per-tile residual encoding, chosen from the tile's value range.
  enum class TileEnc : std::uint8_t {
    kU16 = 0,   ///< bias-relative residual in 2 bytes (integral T)
    kU32 = 1,   ///< bias-relative residual in 4 bytes (integral T)
    kF32 = 2,   ///< bias-relative residual in 4 bytes (floating T)
    kWide = 3,  ///< overflow fallback: raw tile-local SAT value in Wide
  };

  TiledSat() = default;

  TiledSat(std::size_t rows, std::size_t cols, std::size_t tile_w)
      : rows_(rows), cols_(cols), w_(tile_w) {
    SAT_CHECK_MSG(rows > 0 && cols > 0 && tile_w > 0,
                  "TiledSat needs a non-empty shape and tile width");
    tr_ = (rows + w_ - 1) / w_;
    tc_ = (cols + w_ - 1) / w_;
    const std::size_t tiles = tr_ * tc_;
    row_base_ = detail::aligned_array<Wide>(tiles * w_);
    col_base_ = detail::aligned_array<Wide>(tiles * w_);
    enc_.assign(tiles, static_cast<std::uint8_t>(TileEnc::kWide));
    off_.assign(tiles, 0);
    // Worst case: every tile at the widest residual the element type uses.
    const std::size_t widest = std::is_floating_point_v<T>
                                   ? residual_size(TileEnc::kF32)
                                   : residual_size(TileEnc::kWide);
    for (std::size_t ti = 0; ti < tr_; ++ti)
      capacity_ += tc_ * slot_bytes(extent(rows_, ti), widest);
    plane_ = detail::make_plane(capacity_);
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t tile_w() const { return w_; }
  [[nodiscard]] std::size_t tile_rows() const { return tr_; }
  [[nodiscard]] std::size_t tile_cols() const { return tc_; }
  [[nodiscard]] std::size_t tile_count() const { return tr_ * tc_; }
  [[nodiscard]] std::size_t tile_index(std::size_t ti, std::size_t tj) const {
    return ti * tc_ + tj;
  }

  [[nodiscard]] TileEnc enc(std::size_t tile) const {
    return static_cast<TileEnc>(enc_[tile]);
  }

  // ---- encoder side ------------------------------------------------------
  // Each tile's slots are disjoint; distinct tiles may be encoded from
  // distinct threads without synchronization (the SKSS-LB batch encoder
  // does exactly that).

  /// Rewinds the residual plane for a whole-table encode: every tile must
  /// then be encoded exactly once before the table is read. Not concurrent
  /// with encode_tile.
  void begin_encode() noexcept { cursor_.rewind(); }

  [[nodiscard]] Wide* row_base(std::size_t tile) {
    return row_base_.get() + tile * w_;
  }
  [[nodiscard]] Wide* col_base(std::size_t tile) {
    return col_base_.get() + tile * w_;
  }
  [[nodiscard]] const Wide* row_base(std::size_t tile) const {
    return row_base_.get() + tile * w_;
  }
  [[nodiscard]] const Wide* col_base(std::size_t tile) const {
    return col_base_.get() + tile * w_;
  }

  /// Encode one tile from its local SAT `tilebuf` (tp×tq values, leading
  /// dimension `ld`) and its two wide base vectors:
  ///   row_band[p] = RowBand(p), col_band[q] = ColBand(q)  (see file header).
  /// Chooses the narrowest residual width that holds the tile's value range,
  /// folds the bias into the stored row base, and — when `allow_stream` and
  /// the geometry permits — writes u16 residuals with non-temporal stores
  /// (a store fence is issued before returning, so cross-thread readers only
  /// need the usual release/acquire handoff).
  void encode_tile(std::size_t tile, const T* tilebuf, std::size_t ld,
                   std::size_t tp, std::size_t tq, const Wide* row_band,
                   const Wide* col_band, bool allow_stream = false) {
    T mn = tilebuf[0];
    T mx = tilebuf[0];
    for (std::size_t p = 0; p < tp; ++p)
      detail::update_range(tilebuf + p * ld, tq, mn, mx);
    encode_tile(tile, tilebuf, ld, tp, tq, row_band, col_band, mn, mx,
                allow_stream);
  }

  /// encode_tile with the tile's value range already known. The fused
  /// engines track [mn, mx] during staging (detail::update_range on each
  /// row while it is L1-hot), turning the encoder's own sweep — a second
  /// full pass over a by-then cold tile — into a no-op. The range must
  /// cover every tilebuf value; a too-narrow range corrupts the residuals.
  void encode_tile(std::size_t tile, const T* tilebuf, std::size_t ld,
                   std::size_t tp, std::size_t tq, const Wide* row_band,
                   const Wide* col_band, T mn, T mx,
                   bool allow_stream = false) {
    Wide* rb = row_base_.get() + tile * w_;
    Wide* cb = col_base_.get() + tile * w_;
    for (std::size_t q = 0; q < tq; ++q) cb[q] = col_band[q];

    TileEnc e;
    if constexpr (std::is_floating_point_v<T>) {
      e = TileEnc::kF32;
    } else {
      // Two's-complement subtraction in u64 yields the exact range even
      // when max−min overflows the signed type.
      const std::uint64_t range =
          static_cast<std::uint64_t>(mx) - static_cast<std::uint64_t>(mn);
      e = range <= 0xFFFFu  ? TileEnc::kU16
          : range <= 0xFFFFFFFFu ? TileEnc::kU32
                                 : TileEnc::kWide;
    }
    enc_[tile] = static_cast<std::uint8_t>(e);

    const std::size_t bytes = slot_bytes(tp, residual_size(e));
    const std::size_t off = cursor_.take(bytes);
    SAT_CHECK_MSG(off + bytes <= capacity_,
                  "TiledSat residual plane overrun: a tile was encoded twice "
                  "without begin_encode()");
    off_[tile] = off;

    if (e == TileEnc::kWide) {
      // Overflow fallback: raw values, no bias (avoids i64 range games).
      for (std::size_t p = 0; p < tp; ++p) rb[p] = row_band[p];
      Wide* dst = residuals<Wide>(tile);
      for (std::size_t p = 0; p < tp; ++p) {
        const T* src = tilebuf + p * ld;
        Wide* out = dst + p * w_;
        for (std::size_t q = 0; q < tq; ++q)
          out[q] = static_cast<Wide>(src[q]);
      }
      return;
    }

    const Wide bias = static_cast<Wide>(mn);
    for (std::size_t p = 0; p < tp; ++p) rb[p] = row_band[p] + bias;

    if (e == TileEnc::kF32) {
      if constexpr (std::is_floating_point_v<T>) {
        float* dst = residuals<float>(tile);
        for (std::size_t p = 0; p < tp; ++p) {
          const T* src = tilebuf + p * ld;
          float* out = dst + p * w_;
          for (std::size_t q = 0; q < tq; ++q)
            out[q] = static_cast<float>(src[q] - mn);
        }
      }
      return;
    }

    if (e == TileEnc::kU16) {
      std::uint16_t* dst = residuals<std::uint16_t>(tile);
      bool streamed = false;
#if defined(SATSIMD_BACKEND_AVX2)
      // Pack 16 bias-relative i32 residuals to u16 and stream them. Gated
      // on W and tq being multiples of 32 so every streamed row covers
      // whole 64-byte lines and no scalar tail shares a line with them.
      if constexpr (sizeof(T) == 4 && std::is_integral_v<T>) {
        if (allow_stream && w_ % 32 == 0 && tq % 32 == 0) {
          const __m256i vbias = _mm256_set1_epi32(static_cast<int>(
              static_cast<std::uint32_t>(static_cast<std::int64_t>(mn))));
          for (std::size_t p = 0; p < tp; ++p) {
            const T* src = tilebuf + p * ld;
            std::uint16_t* out = dst + p * w_;
            for (std::size_t q = 0; q < tq; q += 16) {
              __m256i lo = _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(src + q));
              __m256i hi = _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(src + q + 8));
              lo = _mm256_sub_epi32(lo, vbias);
              hi = _mm256_sub_epi32(hi, vbias);
              __m256i packed = _mm256_packus_epi32(lo, hi);
              packed = _mm256_permute4x64_epi64(packed, _MM_SHUFFLE(3, 1, 2, 0));
              _mm256_stream_si256(reinterpret_cast<__m256i*>(out + q), packed);
            }
          }
          satsimd::store_fence();
          streamed = true;
        }
      }
#else
      (void)allow_stream;
#endif
      if (!streamed) {
        for (std::size_t p = 0; p < tp; ++p) {
          const T* src = tilebuf + p * ld;
          std::uint16_t* out = dst + p * w_;
          for (std::size_t q = 0; q < tq; ++q)
            out[q] = static_cast<std::uint16_t>(
                static_cast<std::uint64_t>(src[q]) -
                static_cast<std::uint64_t>(mn));
        }
      }
      return;
    }

    std::uint32_t* dst = residuals<std::uint32_t>(tile);
    for (std::size_t p = 0; p < tp; ++p) {
      const T* src = tilebuf + p * ld;
      std::uint32_t* out = dst + p * w_;
      for (std::size_t q = 0; q < tq; ++q)
        out[q] = static_cast<std::uint32_t>(static_cast<std::uint64_t>(src[q]) -
                                            static_cast<std::uint64_t>(mn));
    }
  }

  // ---- reader side -------------------------------------------------------

  /// SAT value at (r, c), reconstructed as base + residual.
  [[nodiscard]] Wide value(std::size_t r, std::size_t c) const {
    SAT_DCHECK(r < rows_ && c < cols_);
    const std::size_t ti = r / w_, tj = c / w_;
    const std::size_t p = r % w_, q = c % w_;
    const std::size_t t = ti * tc_ + tj;
    const Wide base = row_base_[t * w_ + p] + col_base_[t * w_ + q];
    const std::size_t i = p * w_ + q;
    switch (static_cast<TileEnc>(enc_[t])) {
      case TileEnc::kU16:
        return base + static_cast<Wide>(residuals<std::uint16_t>(t)[i]);
      case TileEnc::kU32:
        return base + static_cast<Wide>(residuals<std::uint32_t>(t)[i]);
      case TileEnc::kF32:
        return base + static_cast<Wide>(residuals<float>(t)[i]);
      case TileEnc::kWide: return base + residuals<Wide>(t)[i];
    }
    return base;
  }

  /// Materialize the dense table. For integral T the cast back to T is
  /// exact only when the dense SAT itself fits T (the dense-mode contract);
  /// residual storage can represent tables that dense T storage cannot.
  void decode_into(satutil::Span2d<T> out) const {
    SAT_CHECK_MSG(out.rows() == rows_ && out.cols() == cols_,
                  "decode_into shape mismatch: " << out.rows() << "x"
                                                 << out.cols() << " vs "
                                                 << rows_ << "x" << cols_);
    for (std::size_t ti = 0; ti < tr_; ++ti) {
      const std::size_t r0 = ti * w_;
      const std::size_t tp = extent(rows_, ti);
      for (std::size_t tj = 0; tj < tc_; ++tj) {
        const std::size_t c0 = tj * w_;
        const std::size_t tq = extent(cols_, tj);
        const std::size_t t = ti * tc_ + tj;
        const Wide* rb = row_base_.get() + t * w_;
        const Wide* cb = col_base_.get() + t * w_;
        auto decode_tile = [&](const auto* res) {
          for (std::size_t p = 0; p < tp; ++p) {
            T* dst = &out(r0 + p, c0);
            const Wide base_r = rb[p];
            const auto* row = res + p * w_;
            for (std::size_t q = 0; q < tq; ++q)
              dst[q] =
                  static_cast<T>(base_r + cb[q] + static_cast<Wide>(row[q]));
          }
        };
        switch (static_cast<TileEnc>(enc_[t])) {
          case TileEnc::kU16: decode_tile(residuals<std::uint16_t>(t)); break;
          case TileEnc::kU32: decode_tile(residuals<std::uint32_t>(t)); break;
          case TileEnc::kF32: decode_tile(residuals<float>(t)); break;
          case TileEnc::kWide: decode_tile(residuals<Wide>(t)); break;
        }
      }
    }
  }

  // ---- accounting --------------------------------------------------------

  /// Bytes this representation actually stores (residuals at their chosen
  /// widths + base vectors + tags), counting only the live tp×tq region of
  /// clipped edge tiles.
  [[nodiscard]] std::size_t residual_bytes() const {
    std::size_t bytes = 0;
    for (std::size_t ti = 0; ti < tr_; ++ti) {
      const std::size_t tp = extent(rows_, ti);
      for (std::size_t tj = 0; tj < tc_; ++tj) {
        const std::size_t tq = extent(cols_, tj);
        bytes += tp * tq * residual_size(enc(ti * tc_ + tj)) +
                 (tp + tq) * sizeof(Wide) + 1;
      }
    }
    return bytes;
  }

  /// Bytes of the residual plane the last encode claimed: the high-water
  /// mark of its cursor, i.e. the sum of every tile's 64-byte-rounded
  /// tp·W·sizeof(width) slot. This is what an encode touches.
  [[nodiscard]] std::size_t plane_bytes() const { return cursor_.used(); }

  /// Bytes the dense table of the same shape occupies.
  [[nodiscard]] std::size_t dense_bytes() const {
    return rows_ * cols_ * sizeof(T);
  }

  /// Tiles whose value range overflowed u32 and fell back to wide storage.
  [[nodiscard]] std::size_t overflow_tiles() const {
    std::size_t n = 0;
    for (std::uint8_t e : enc_)
      n += e == static_cast<std::uint8_t>(TileEnc::kWide) ? 1u : 0u;
    return n;
  }

 private:
  static constexpr std::size_t residual_size(TileEnc e) {
    switch (e) {
      case TileEnc::kU16: return sizeof(std::uint16_t);
      case TileEnc::kU32: return sizeof(std::uint32_t);
      case TileEnc::kF32: return sizeof(float);
      case TileEnc::kWide: return sizeof(Wide);
    }
    return sizeof(Wide);
  }

  /// Rows (or columns) of tile `k` along a dimension of length `n`.
  [[nodiscard]] std::size_t extent(std::size_t n, std::size_t k) const {
    return n - k * w_ < w_ ? n - k * w_ : w_;
  }

  /// Plane slot of a tile with `tp` rows at `esz` bytes per residual.
  [[nodiscard]] std::size_t slot_bytes(std::size_t tp, std::size_t esz) const {
    return detail::round_up(tp * w_ * esz, 64);
  }

  template <class U>
  [[nodiscard]] U* residuals(std::size_t tile) {
    return reinterpret_cast<U*>(plane_.get() + off_[tile]);
  }
  template <class U>
  [[nodiscard]] const U* residuals(std::size_t tile) const {
    return reinterpret_cast<const U*>(plane_.get() + off_[tile]);
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t w_ = 0;
  std::size_t tr_ = 0;
  std::size_t tc_ = 0;
  detail::AlignedArray<Wide> row_base_;
  detail::AlignedArray<Wide> col_base_;
  std::vector<std::uint8_t> enc_;
  std::vector<std::size_t> off_;  ///< each tile's byte offset into plane_
  std::size_t capacity_ = 0;      ///< plane_ bytes (worst-case widths)
  detail::Plane plane_;
  detail::SlotCursor cursor_;
};

/// region_sum on a tiled table — the same four-corner identity and guard
/// semantics as the dense overload in core/region.hpp, but each corner is a
/// decompress-on-the-fly base+residual lookup and the sum is returned in
/// the wide accumulator type (bit-exact for integral T under the tile-local
/// exactness contract).
template <class T>
[[nodiscard]] typename TiledSat<T>::Wide region_sum(const TiledSat<T>& table,
                                                    const Rect& rect) {
  using Wide = typename TiledSat<T>::Wide;
  SAT_CHECK_MSG(rect.r0 <= rect.r1 && rect.c0 <= rect.c1 &&
                    rect.r1 <= table.rows() && rect.c1 <= table.cols(),
                "rectangle [" << rect.r0 << "," << rect.r1 << ")x[" << rect.c0
                              << "," << rect.c1 << ") out of bounds for "
                              << table.rows() << "x" << table.cols());
  if (rect.r0 == rect.r1 || rect.c0 == rect.c1) return Wide{};
  Wide sum = table.value(rect.r1 - 1, rect.c1 - 1);
  if (rect.r0 > 0) sum -= table.value(rect.r0 - 1, rect.c1 - 1);
  if (rect.c0 > 0) sum -= table.value(rect.r1 - 1, rect.c0 - 1);
  if (rect.r0 > 0 && rect.c0 > 0) sum += table.value(rect.r0 - 1, rect.c0 - 1);
  return sum;
}

/// Mean of `rect` on a tiled table; requires a non-empty rect.
template <class T>
[[nodiscard]] double region_mean(const TiledSat<T>& table, const Rect& rect) {
  SAT_CHECK(rect.area() > 0);
  return static_cast<double>(region_sum(table, rect)) /
         static_cast<double>(rect.area());
}

}  // namespace sat
