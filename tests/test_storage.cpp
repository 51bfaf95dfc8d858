// Storage::kTiledResidual end to end: the TiledSat container and both host
// encoders (fused single-threaded sat_residual, claim-range
// sat_skss_lb_residual) against the sequential i64 oracle, the per-tile
// width selection and its wide overflow fallback, the range-extension
// contract (tables whose dense form overflows T still reconstruct exactly),
// the decompress-on-the-fly query kernel, the vision consumers on a
// compressed table, and the API plumbing (compute_sat_tiled,
// Options::storage, host.storage.* metrics).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sys/resource.h>
#endif

#include "core/api.hpp"
#include "host/sat_cpu.hpp"
#include "host/sat_residual.hpp"
#include "host/thread_pool.hpp"
#include "obs/registry.hpp"
#include "sat/query_kernel.hpp"
#include "sat/storage.hpp"
#include "util/rng.hpp"
#include "vision/haar.hpp"
#include "vision/integral_ops.hpp"
#include "vision/match.hpp"

namespace {

using sat::Matrix;
using sat::Rect;
using sat::TiledSat;

/// Sequential i64 oracle SAT of an integer-valued input.
template <class T>
Matrix<std::int64_t> oracle_i64(const Matrix<T>& in) {
  Matrix<std::int64_t> wide(in.rows(), in.cols());
  for (std::size_t i = 0; i < in.rows(); ++i)
    for (std::size_t j = 0; j < in.cols(); ++j)
      wide(i, j) = static_cast<std::int64_t>(in(i, j));
  Matrix<std::int64_t> out(in.rows(), in.cols());
  sathost::sat_sequential<std::int64_t>(wide.view(), out.view());
  return out;
}

std::vector<Rect> random_rects(std::size_t rows, std::size_t cols,
                               std::size_t count, std::uint64_t seed) {
  satutil::Rng rng(seed);
  std::vector<Rect> out(count);
  for (auto& r : out) {
    std::size_t r0 = rng.next_below(rows), r1 = rng.next_below(rows + 1);
    std::size_t c0 = rng.next_below(cols), c1 = rng.next_below(cols + 1);
    if (r0 > r1) std::swap(r0, r1);
    if (c0 > c1) std::swap(c0, c1);
    r = {r0, c0, r1, c1};
  }
  return out;
}

// Both encoders, several shapes (square / rectangular / tile-clipped
// edges), bit-exact against the i64 oracle at every cell and for
// region_sum over random rectangles.
TEST(TiledResidual, BothEncodersMatchI64Oracle) {
  sathost::ThreadPool pool(3);
  const struct {
    std::size_t rows, cols, w;
  } shapes[] = {{64, 64, 32}, {96, 160, 32}, {70, 45, 32}, {128, 128, 64}};
  for (const auto& s : shapes) {
    const auto in = Matrix<std::int32_t>::random(s.rows, s.cols, 11, 0, 255);
    const auto oracle = oracle_i64(in);
    TiledSat<std::int32_t> fused(s.rows, s.cols, s.w);
    sathost::sat_residual<std::int32_t>(in.view(), fused);
    TiledSat<std::int32_t> lb(s.rows, s.cols, s.w);
    sathost::sat_skss_lb_residual<std::int32_t>(pool, in.view(), lb);
    for (std::size_t i = 0; i < s.rows; ++i)
      for (std::size_t j = 0; j < s.cols; ++j) {
        ASSERT_EQ(fused.value(i, j), oracle(i, j))
            << s.rows << "x" << s.cols << " w=" << s.w << " @" << i << ","
            << j;
        ASSERT_EQ(lb.value(i, j), oracle(i, j))
            << s.rows << "x" << s.cols << " w=" << s.w << " @" << i << ","
            << j;
      }
    for (const Rect& r : random_rects(s.rows, s.cols, 200, 5)) {
      ASSERT_EQ(sat::region_sum(fused, r), sat::region_sum(oracle, r));
      ASSERT_EQ(sat::region_sum(lb, r), sat::region_sum(oracle, r));
    }
  }
}

TEST(TiledResidual, DecodeIntoMatchesValueAndDenseEngine) {
  const std::size_t n = 96;
  const auto in = Matrix<std::int32_t>::random(n, n, 3, 0, 100);
  TiledSat<std::int32_t> tiled(n, n, 32);
  sathost::sat_residual<std::int32_t>(in.view(), tiled);
  Matrix<std::int32_t> decoded(n, n);
  tiled.decode_into(decoded.view());
  Matrix<std::int32_t> dense(n, n);
  sathost::sat_sequential<std::int32_t>(in.view(), dense.view());
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(decoded(i, j), dense(i, j));
      ASSERT_EQ(tiled.value(i, j), static_cast<std::int64_t>(dense(i, j)));
    }
}

// Width selection: an all-zero input keeps every tile-local range at 0
// (u16); a full-range random input at a wide tile exceeds u16; values
// large enough to blow a tile's range past u32 take the wide fallback.
TEST(TiledResidual, PicksNarrowestWidthPerTile) {
  using Enc = TiledSat<std::int32_t>::TileEnc;
  const std::size_t n = 64, w = 32;
  {
    Matrix<std::int32_t> zeros(n, n);
    TiledSat<std::int32_t> t(n, n, w);
    sathost::sat_residual<std::int32_t>(zeros.view(), t);
    for (std::size_t k = 0; k < t.tile_count(); ++k)
      EXPECT_EQ(t.enc(k), Enc::kU16);
    EXPECT_EQ(t.overflow_tiles(), 0u);
  }
  {
    // Constant 100: tile-local SAT spans [100, 32·32·100] = 102 400 > u16.
    Matrix<std::int32_t> big(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) big(i, j) = 100;
    TiledSat<std::int32_t> t(n, n, w);
    sathost::sat_residual<std::int32_t>(big.view(), t);
    for (std::size_t k = 0; k < t.tile_count(); ++k)
      EXPECT_EQ(t.enc(k), Enc::kU32);
    EXPECT_EQ(t.overflow_tiles(), 0u);
  }
}

// One compact residual plane: a checkerboard of binary tiles (u16) and
// byte-valued tiles (u32) with ragged edge tiles, through both encoders and
// the SKSS-LB encoder at 1, 2 and 4 workers. Slot order in the plane may
// follow claim timing; the decoded table, every tile's width and the plane's
// high-water mark must not.
TEST(TiledResidual, MixedWidthsShareOneCompactPlane) {
  using Enc = TiledSat<std::int32_t>::TileEnc;
  sathost::ThreadPool pool(4);
  const struct {
    std::size_t n, w;
  } shapes[] = {{1000, 128}, {2048, 256}};
  for (const auto& s : shapes) {
    const std::size_t n = s.n, w = s.w;
    auto in = Matrix<std::int32_t>::random(n, n, 29, 0, 255);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if ((i / w + j / w) % 2 == 0) in(i, j) &= 1;
    const auto oracle = oracle_i64(in);

    std::vector<TiledSat<std::int32_t>> tables;
    tables.emplace_back(n, n, w);
    // Twice: a second encode must reuse the plane from its start.
    sathost::sat_residual<std::int32_t>(in.view(), tables.back());
    sathost::sat_residual<std::int32_t>(in.view(), tables.back());
    for (std::size_t workers : {1u, 2u, 4u}) {
      sathost::SkssLbOptions opt;
      opt.workers = workers;
      tables.emplace_back(n, n, w);
      sathost::sat_skss_lb_residual<std::int32_t>(pool, in.view(),
                                                  tables.back(), opt);
    }

    const TiledSat<std::int32_t>& ref = tables.front();
    std::size_t u16 = 0, u32 = 0, slots = 0;
    for (std::size_t ti = 0; ti < ref.tile_rows(); ++ti)
      for (std::size_t tj = 0; tj < ref.tile_cols(); ++tj) {
        const Enc e = ref.enc(ref.tile_index(ti, tj));
        ASSERT_TRUE(e == Enc::kU16 || e == Enc::kU32) << ti << "," << tj;
        (e == Enc::kU16 ? u16 : u32) += 1;
        const std::size_t tp = std::min(w, n - ti * w);
        const std::size_t esz = e == Enc::kU16 ? 2 : 4;
        slots += (tp * w * esz + 63) / 64 * 64;
      }
    EXPECT_GT(u16, 0u) << n;
    EXPECT_GT(u32, 0u) << n;

    for (std::size_t k = 0; k < tables.size(); ++k) {
      const TiledSat<std::int32_t>& t = tables[k];
      for (std::size_t tile = 0; tile < t.tile_count(); ++tile)
        ASSERT_EQ(t.enc(tile), ref.enc(tile))
            << n << " table " << k << " tile " << tile;
      EXPECT_EQ(t.plane_bytes(), slots) << n << " table " << k;
      EXPECT_EQ(t.residual_bytes(), ref.residual_bytes()) << n << " " << k;
      Matrix<std::int32_t> decoded(n, n);
      t.decode_into(decoded.view());
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
          ASSERT_EQ(decoded(i, j), oracle(i, j))
              << n << " table " << k << " @" << i << "," << j;
      for (const Rect& r : random_rects(n, n, 200, 37))
        ASSERT_EQ(sat::region_sum(t, r), sat::region_sum(oracle, r))
            << n << " table " << k;
    }
  }
}

// Touched memory follows the compact plane, not the worst-case reservation:
// encoding a 2048² checkerboard of u16 and u32 tiles grows RSS by at most
// residual_bytes plus one 2 MiB huge page. (Four per-width planes advised
// MADV_HUGEPAGE grew it by about twice residual_bytes.)
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define STORAGE_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define STORAGE_TEST_SANITIZED 1
#endif
#endif
TEST(TiledResidual, MixedWidthRssStaysNearResidualBytes) {
#if defined(STORAGE_TEST_SANITIZED)
  GTEST_SKIP() << "sanitizer shadow memory counts toward RSS";
#elif defined(__linux__)
  const auto rss_bytes = [] {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
      if (line.rfind("VmRSS:", 0) == 0)
        return std::stoull(line.substr(6)) * 1024;
    return 0ull;
  };
  const std::size_t n = 2048, w = 256;
  auto in = Matrix<std::int32_t>::random(n, n, 7, 0, 255);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if ((i / w + j / w) % 2 == 0) in(i, j) &= 1;
  // A live same-shape table takes any block an earlier test parked in the
  // block cache, so the measured table maps fresh memory.
  TiledSat<std::int32_t> held(n, n, w);
  const auto before = rss_bytes();
  ASSERT_GT(before, 0u);
  TiledSat<std::int32_t> t(n, n, w);
  sathost::sat_residual<std::int32_t>(in.view(), t);
  const auto after = rss_bytes();
  const auto grown = after > before ? after - before : 0;
  EXPECT_EQ(t.overflow_tiles(), 0u);
  EXPECT_LE(grown, t.residual_bytes() + (std::size_t{2} << 20))
      << "residual_bytes " << t.residual_bytes();
#else
  GTEST_SKIP() << "reads /proc/self/status";
#endif
}

/// A u16/u32 checkerboard: binary tiles where (i/w + j/w) is even, byte
/// tiles elsewhere.
Matrix<std::int32_t> checkerboard(std::size_t n, std::size_t w,
                                  std::uint64_t seed) {
  auto in = Matrix<std::int32_t>::random(n, n, seed, 0, 255);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if ((i / w + j / w) % 2 == 0) in(i, j) &= 1;
  return in;
}

// A destroyed table's storage block is parked and handed to the next table
// of the same shape. The new table must never read the old one's bytes:
// table A (uniform bytes, every tile u32) is encoded and destroyed, then a
// same-shape table B (u16/u32 checkerboard, so its slots land at other
// offsets than A's) is encoded into the recycled block by each encoder.
TEST(TiledResidual, RecycledBlockNeverLeaksStaleBytes) {
  using Enc = TiledSat<std::int32_t>::TileEnc;
  sathost::ThreadPool pool(2);
  const struct {
    std::size_t n, w;
  } shapes[] = {{2048, 256}, {1000, 128}};
  for (const auto& s : shapes) {
    const std::size_t n = s.n, w = s.w;
    const auto a_in = Matrix<std::int32_t>::random(n, n, 41, 0, 255);
    const auto b_in = checkerboard(n, w, 43);
    const auto oracle = oracle_i64(b_in);
    for (int engine = 0; engine < 2; ++engine) {
      const auto encode = [&](const Matrix<std::int32_t>& in,
                              TiledSat<std::int32_t>& t, obs::Registry* reg) {
        if (engine == 0) {
          sathost::sat_residual<std::int32_t>(in.view(), t, reg);
        } else {
          sathost::SkssLbOptions opt;
          opt.metrics = reg;
          sathost::sat_skss_lb_residual<std::int32_t>(pool, in.view(), t,
                                                      opt);
        }
      };
      {
        TiledSat<std::int32_t> a(n, n, w);
        encode(a_in, a, nullptr);
        for (std::size_t k = 0; k < a.tile_count(); ++k)
          ASSERT_EQ(a.enc(k), Enc::kU32) << n << " tile " << k;
      }
      obs::Registry reg;
      TiledSat<std::int32_t> b(n, n, w);
#if defined(__linux__)
      EXPECT_TRUE(b.recycled()) << n << " engine " << engine;
#endif
      encode(b_in, b, &reg);
      Matrix<std::int32_t> decoded(n, n);
      b.decode_into(decoded.view());
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
          ASSERT_EQ(decoded(i, j), oracle(i, j))
              << n << " engine " << engine << " @" << i << "," << j;
      for (const Rect& r : random_rects(n, n, 500, 47))
        ASSERT_EQ(sat::region_sum(b, r), sat::region_sum(oracle, r))
            << n << " engine " << engine;
#if SATLIB_OBS_ENABLED
      const obs::Snapshot snap = reg.snapshot();
      const std::uint64_t* recycled =
          snap.counter("host.storage.recycled_tables");
      if (b.recycled()) {
        ASSERT_NE(recycled, nullptr);
        EXPECT_EQ(*recycled, 1u);
      } else {
        EXPECT_EQ(recycled, nullptr);
      }
#endif
    }
  }
}

// A recycled block costs no page faults: constructing a second same-shape
// table and encoding every tile takes fewer minor faults than one per 2 MiB
// of its plane, while the first such table takes at least that many.
TEST(TiledResidual, RecycledTableTakesNoPageFaults) {
#if defined(STORAGE_TEST_SANITIZED)
  GTEST_SKIP() << "sanitizer runtimes fault in shadow memory";
#elif defined(__linux__)
  const std::size_t n = 2048, w = 256;
  // One tile-local SAT whose range needs u32, reused for every tile.
  std::vector<std::int32_t> tilebuf(w * w);
  for (std::size_t i = 0; i < tilebuf.size(); ++i)
    tilebuf[i] = static_cast<std::int32_t>(3 * i);
  const std::vector<std::int64_t> band(w, 0);
  const auto minor_faults = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<long>(ru.ru_minflt);
  };
  std::size_t plane = 0;
  const auto faults_of_one_table = [&] {
    const long before = minor_faults();
    TiledSat<std::int32_t> t(n, n, w);
    t.begin_encode();
    for (std::size_t k = 0; k < t.tile_count(); ++k)
      t.encode_tile(k, tilebuf.data(), w, w, w, band.data(), band.data());
    const long faults = minor_faults() - before;
    plane = t.plane_bytes();
    EXPECT_EQ(t.enc(0), TiledSat<std::int32_t>::TileEnc::kU32);
    return faults;
  };
  // Takes any block an earlier test parked, so the first table maps fresh.
  TiledSat<std::int32_t> held(n, n, w);
  const long first = faults_of_one_table();
  const long second = faults_of_one_table();
  const long per_2mib = static_cast<long>(plane >> 21);
  ASSERT_EQ(per_2mib, 8);
  EXPECT_GE(first, per_2mib);
  EXPECT_LT(second, per_2mib);
#else
  GTEST_SKIP() << "the block cache is Linux-only";
#endif
}

// The cache holds one block of one size. A table of another size unmaps the
// parked block before it maps its own, so a later table of the first size
// maps fresh memory even while the other-size table is still alive.
TEST(TiledResidual, OtherSizeTableUnmapsTheParkedBlock) {
#if defined(__linux__)
  const std::size_t w = 256;
  { const TiledSat<std::int32_t> a(1024, 1024, w); }
  {
    const TiledSat<std::int32_t> a(1024, 1024, w);
    EXPECT_TRUE(a.recycled());
  }
  const TiledSat<std::int32_t> other(1536, 1536, w);
  EXPECT_FALSE(other.recycled());
  const TiledSat<std::int32_t> again(1024, 1024, w);
  EXPECT_FALSE(again.recycled());
#else
  GTEST_SKIP() << "the block cache is Linux-only";
#endif
}

// Four threads create, encode, check and destroy same-shape tables, so the
// block cache is taken from and refilled concurrently (the TSan job runs
// this binary). Each thread's input differs: a block handed across threads
// with stale or shared bytes would show in the decoded table.
TEST(TiledResidual, ConcurrentTablesShareTheBlockCache) {
  const std::size_t n = 640, w = 128;
  constexpr int kThreads = 4, kRounds = 6;
  std::vector<Matrix<std::int32_t>> inputs;
  std::vector<Matrix<std::int64_t>> oracles;
  for (int k = 0; k < kThreads; ++k) {
    inputs.push_back(checkerboard(n, w, 50 + static_cast<std::uint64_t>(k)));
    oracles.push_back(oracle_i64(inputs.back()));
  }
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int k = 0; k < kThreads; ++k)
    threads.emplace_back([&, k] {
      Matrix<std::int32_t> decoded(n, n);
      for (int round = 0; round < kRounds; ++round) {
        TiledSat<std::int32_t> t(n, n, w);
        sathost::sat_residual<std::int32_t>(inputs[k].view(), t);
        t.decode_into(decoded.view());
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < n; ++j)
            mismatches[k] += decoded(i, j) != oracles[k](i, j) ? 1 : 0;
      }
    });
  for (std::thread& t : threads) t.join();
  for (int k = 0; k < kThreads; ++k)
    EXPECT_EQ(mismatches[k], 0u) << "thread " << k;
}

// High-dynamic-range input (i64 elements ~2^38): every tile's local range
// overflows u32, the encoder falls back to wide residuals, and the result
// is still bit-exact. This is the overflow path the ISSUE requires
// exercised.
TEST(TiledResidual, HighDynamicRangeFallsBackToWideExactly) {
  using Enc = TiledSat<std::int64_t>::TileEnc;
  const std::size_t n = 64, w = 32;
  const std::int64_t big = std::int64_t{1} << 38;
  auto in = Matrix<std::int64_t>::random(n, n, 17, 0, 3);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if ((i + j) % 7 == 0) in(i, j) += big;
  Matrix<std::int64_t> dense(n, n);
  sathost::sat_sequential<std::int64_t>(in.view(), dense.view());

  sathost::ThreadPool pool(2);
  for (int engine = 0; engine < 2; ++engine) {
    TiledSat<std::int64_t> t(n, n, w);
    if (engine == 0) {
      sathost::sat_residual<std::int64_t>(in.view(), t);
    } else {
      sathost::sat_skss_lb_residual<std::int64_t>(pool, in.view(), t);
    }
    EXPECT_GT(t.overflow_tiles(), 0u) << "engine " << engine;
    bool saw_wide = false;
    for (std::size_t k = 0; k < t.tile_count(); ++k)
      saw_wide |= t.enc(k) == Enc::kWide;
    EXPECT_TRUE(saw_wide);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        ASSERT_EQ(t.value(i, j), dense(i, j)) << "engine " << engine;
  }
}

// The range-extension contract: an i32 input whose FULL table overflows
// i32 (dense i32 storage would be wrong) still reconstructs exactly,
// because only the tile-local SAT must fit T and the bases are 64-bit.
TEST(TiledResidual, RepresentsTablesDenseTCannotHold) {
  const std::size_t n = 256, w = 64;
  Matrix<std::int32_t> in(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) in(i, j) = 65535;
  const auto oracle = oracle_i64(in);
  ASSERT_GT(oracle(n - 1, n - 1),
            static_cast<std::int64_t>(std::numeric_limits<std::int32_t>::max()))
      << "input not extreme enough to prove the extension";
  // Tile-local SAT max = 64·64·65535 < 2^31: contract holds.
  TiledSat<std::int32_t> t(n, n, w);
  sathost::sat_residual<std::int32_t>(in.view(), t);
  EXPECT_EQ(t.overflow_tiles(), 0u);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) ASSERT_EQ(t.value(i, j), oracle(i, j));
}

TEST(TiledResidual, FloatResidualsStayWithinF32Error) {
  const std::size_t n = 128, w = 32;
  const auto in = Matrix<double>::random(n, n, 23, 0.0, 1.0);
  TiledSat<double> t(n, n, w);
  sathost::sat_residual<double>(in.view(), t);
  Matrix<double> dense(n, n);
  sathost::sat_sequential<double>(in.view(), dense.view());
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      // Residuals are f32 of tile-local values (≤ 32·32 unit elements), so
      // absolute error per cell is bounded by one f32 ulp of ~1024.
      ASSERT_NEAR(t.value(i, j), dense(i, j), 1e-3) << i << "," << j;
    }
}

TEST(TiledResidual, ResidualBytesUndercutDenseBytes) {
  const std::size_t n = 512, w = 128;
  const auto in = Matrix<std::int32_t>::random(n, n, 7, 0, 1);
  TiledSat<std::int32_t> t(n, n, w);
  obs::Registry reg;
  sathost::sat_residual<std::int32_t>(in.view(), t, &reg);
  // Binary input, W=128: every tile-local SAT ≤ 16384, all tiles u16 —
  // 2 bytes/element + bases. ≥ 40% under the 4-byte dense table.
  EXPECT_EQ(t.overflow_tiles(), 0u);
  EXPECT_LE(t.residual_bytes(), t.dense_bytes() * 6 / 10);
#if SATLIB_OBS_ENABLED
  const auto snap = reg.snapshot();
  const std::uint64_t* rb = snap.counter("host.storage.residual_bytes");
  const std::uint64_t* db = snap.counter("host.storage.dense_bytes");
  ASSERT_NE(rb, nullptr);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(*rb, t.residual_bytes());
  EXPECT_EQ(*db, t.dense_bytes());
  // No overflow ⇒ the counter is never resolved, so it must be absent.
  EXPECT_EQ(snap.counter("host.storage.overflow_tiles"), nullptr);
#endif
}

TEST(TiledResidual, LbEncoderPublishesStorageMetrics) {
#if SATLIB_OBS_ENABLED
  const std::size_t n = 128, w = 32;
  const auto in = Matrix<std::int32_t>::random(n, n, 9, 0, 3);
  TiledSat<std::int32_t> t(n, n, w);
  sathost::ThreadPool pool(2);
  obs::Registry reg;
  sathost::SkssLbOptions opt;
  opt.metrics = &reg;
  sathost::sat_skss_lb_residual<std::int32_t>(pool, in.view(), t, opt);
  const auto snap = reg.snapshot();
  const std::uint64_t* rb = snap.counter("host.storage.residual_bytes");
  const std::uint64_t* db = snap.counter("host.storage.dense_bytes");
  ASSERT_NE(rb, nullptr);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(*rb, t.residual_bytes());
  EXPECT_EQ(*db, t.dense_bytes());
#else
  GTEST_SKIP() << "observability compiled out";
#endif
}

// --- decompress-on-the-fly query kernel ---------------------------------

TEST(TiledResidual, QueryKernelMatchesDenseKernelBitExactly) {
  const std::size_t n = 128, w = 32;
  const auto in = Matrix<std::int64_t>::random(n, n, 3, 0, 50);
  Matrix<std::int64_t> dense(n, n);
  sathost::sat_sequential<std::int64_t>(in.view(), dense.view());
  TiledSat<std::int64_t> tiled(n, n, w);
  sathost::sat_residual<std::int64_t>(in.view(), tiled);

  gpusim::SimContext sim;
  gpusim::GlobalBuffer<std::int64_t> tab_buf(sim, n * n, "tab");
  tab_buf.upload(dense.storage());
  const auto rects = random_rects(n, n, 400, 13);
  const auto via_dense =
      satalgo::run_query_kernel(sim, tab_buf, n, n, rects);
  const auto via_tiled = satalgo::run_query_kernel_tiled(sim, tiled, rects);
  ASSERT_EQ(via_tiled.size(), rects.size());
  for (std::size_t k = 0; k < rects.size(); ++k)
    ASSERT_EQ(via_tiled[k], via_dense[k]) << k;
}

TEST(TiledResidual, QueryKernelTrafficReflectsNarrowResiduals) {
  // u16 tiles: the tiled kernel must model each live corner as one 2-byte
  // residual gather plus two 8-byte L2-resident base loads — the byte
  // accounting is welded exactly, so a regression in the corner
  // classification or the charged widths is caught here. (Random scattered
  // corners occupy one DRAM sector each regardless of width, so the
  // sector-count win of the narrow plane shows up under clustered query
  // sets and in table footprint, not in this gather-bound count.)
  const std::size_t n = 128, w = 32;
  const auto in = Matrix<std::int64_t>::random(n, n, 3, 0, 3);
  TiledSat<std::int64_t> tiled(n, n, w);
  sathost::sat_residual<std::int64_t>(in.view(), tiled);
  using Enc = TiledSat<std::int64_t>::TileEnc;
  for (std::size_t k = 0; k < tiled.tile_count(); ++k)
    ASSERT_EQ(tiled.enc(k), Enc::kU16);

  const auto rects = random_rects(n, n, 512, 21);
  std::size_t corners = 0;
  for (const Rect& r : rects) {
    if (r.r0 >= r.r1 || r.c0 >= r.c1) continue;
    corners += 1 + (r.r0 > 0 ? 1 : 0) + (r.c0 > 0 ? 1 : 0) +
               (r.r0 > 0 && r.c0 > 0 ? 1 : 0);
  }
  gpusim::SimContext co;
  co.materialize = false;
  gpusim::KernelReport tiled_rep;
  (void)satalgo::run_query_kernel_tiled(co, tiled, rects, &tiled_rep);
  EXPECT_EQ(tiled_rep.counters.element_reads, 3 * corners);
  EXPECT_EQ(tiled_rep.counters.global_bytes_read,
            corners * 2 + 2 * corners * sizeof(std::int64_t));
}

// --- vision consumers on a compressed table -----------------------------

TEST(TiledResidual, HaarAndBoxFilterMatchDenseTables) {
  const std::size_t n = 96;
  const auto img = Matrix<std::int32_t>::random(n, n, 31, 0, 255);
  Matrix<std::int64_t> dense = oracle_i64(img);
  TiledSat<std::int32_t> tiled(n, n, 32);
  sathost::sat_residual<std::int32_t>(img.view(), tiled);

  const auto feat = satvision::haar_edge_horizontal(16, 24);
  for (std::size_t r = 0; r + 16 <= n; r += 13)
    for (std::size_t c = 0; c + 24 <= n; c += 11)
      ASSERT_DOUBLE_EQ(feat.evaluate(tiled, r, c), feat.evaluate(dense, r, c));
  const auto hits_dense = satvision::scan_feature(dense, feat, 1000.0, 7);
  const auto hits_tiled = satvision::scan_feature(tiled, feat, 1000.0, 7);
  ASSERT_EQ(hits_dense.size(), hits_tiled.size());
  for (std::size_t k = 0; k < hits_dense.size(); ++k) {
    EXPECT_EQ(hits_dense[k].row, hits_tiled[k].row);
    EXPECT_EQ(hits_dense[k].col, hits_tiled[k].col);
    EXPECT_DOUBLE_EQ(hits_dense[k].response, hits_tiled[k].response);
  }

  const auto box_dense = satvision::box_filter(dense, 3);
  const auto box_tiled = satvision::box_filter(tiled, 3);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_FLOAT_EQ(box_dense(i, j), box_tiled(i, j));
}

TEST(TiledResidual, TiledMomentTablesDriveTemplateMatching) {
  const std::size_t n = 80;
  auto img = Matrix<float>::random(n, n, 41, 0.0f, 64.0f);
  // Plant a distinctive patch.
  Matrix<float> templ(12, 12);
  for (std::size_t i = 0; i < 12; ++i)
    for (std::size_t j = 0; j < 12; ++j) {
      templ(i, j) = static_cast<float>((i * 31 + j * 17) % 97);
      img(40 + i, 23 + j) = templ(i, j);
    }
  const auto dense_mom = satvision::MomentTables::build(img);
  const auto tiled_mom = satvision::TiledMomentTables::build(img, 32);
  const auto via_dense = satvision::match_template_with(img, templ, dense_mom);
  const auto via_tiled = satvision::match_template_with(img, templ, tiled_mom);
  ASSERT_EQ(via_dense.size(), 1u);
  ASSERT_EQ(via_tiled.size(), 1u);
  EXPECT_EQ(via_tiled[0].row, 40u);
  EXPECT_EQ(via_tiled[0].col, 23u);
  EXPECT_EQ(via_dense[0].row, via_tiled[0].row);
  EXPECT_EQ(via_dense[0].col, via_tiled[0].col);
  EXPECT_NEAR(via_dense[0].score, via_tiled[0].score, 1e-6);
  // And the classic wrapper still agrees.
  const auto classic = satvision::match_template(img, templ);
  ASSERT_EQ(classic.size(), 1u);
  EXPECT_EQ(classic[0].row, via_tiled[0].row);
}

// --- API plumbing -------------------------------------------------------

TEST(StorageApi, ComputeSatTiledKeepsCompressedForm) {
  const std::size_t n = 200;
  const auto in = Matrix<std::int32_t>::random(n, n, 51, 0, 200);
  const auto oracle = oracle_i64(in);
  for (sat::CpuEngine engine :
       {sat::CpuEngine::kSimd, sat::CpuEngine::kSkssLb}) {
    sat::Options o;
    o.backend = sat::Backend::kCpu;
    o.cpu_engine = engine;
    o.cpu_threads = 2;
    o.cpu_tile_w = 64;
    const auto r = sat::compute_sat_tiled(in, o);
    EXPECT_EQ(r.table.tile_w(), 64u);
    for (const Rect& rect : random_rects(n, n, 100, 3))
      ASSERT_EQ(sat::region_sum(r.table, rect), sat::region_sum(oracle, rect));
  }
}

TEST(StorageApi, DenseEntryPointDecodesResidualStorage) {
  const std::size_t n = 160;
  const auto in = Matrix<std::int32_t>::random(n, n, 8, 0, 50);
  Matrix<std::int32_t> expect(n, n);
  sathost::sat_sequential<std::int32_t>(in.view(), expect.view());
  for (sat::CpuEngine engine :
       {sat::CpuEngine::kSimd, sat::CpuEngine::kSkssLb}) {
    sat::Options o;
    o.backend = sat::Backend::kCpu;
    o.cpu_engine = engine;
    o.cpu_threads = 2;
    o.storage = sat::Storage::kTiledResidual;
    o.cpu_tile_w = 64;
    const auto r = sat::compute_sat(in, o);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        ASSERT_EQ(r.table(i, j), expect(i, j));
  }
}

TEST(StorageApi, KahanStorageRequiresFloatAndStaysClose) {
  const std::size_t n = 128;
  const auto in = Matrix<float>::random(n, n, 77, 0.0f, 255.0f);
  const auto oracle = [&] {
    Matrix<double> wide(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        wide(i, j) = static_cast<double>(in(i, j));
    Matrix<double> out(n, n);
    sathost::sat_sequential<double>(wide.view(), out.view());
    return out;
  }();
  sat::Options o;
  o.backend = sat::Backend::kCpu;
  o.cpu_engine = sat::CpuEngine::kSkssLb;
  o.cpu_threads = 2;
  o.storage = sat::Storage::kKahanF32;
  const auto r = sat::compute_sat(in, o);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const double rel = std::abs(r.table(i, j) - oracle(i, j)) /
                         std::max(1.0, std::abs(oracle(i, j)));
      ASSERT_LT(rel, 1e-6) << i << "," << j;
    }
  // Integral input must be rejected.
  const auto bad = Matrix<std::int32_t>::random(8, 8, 1, 0, 5);
  sat::Options ob = o;
  EXPECT_THROW((void)sat::compute_sat(bad, ob), satutil::CheckError);
}

}  // namespace
