// Determinism of the host SKSS-LB engines across worker counts and timing.
//
// A result may depend only on the input, the shape, the tile width W and
// the storage mode. For f32 that means *bitwise* equal: every tile adds in
// the same order whatever the worker count, so the 1-worker table is the
// reference and every multi-worker run, repeated several times so claim
// order and neighbour-wait timing vary, must reproduce it byte for byte.
// Covered: dense f32 and Kahan f32, single images and batches of 8, and the
// i32 tiled-residual encoder (decoded table, per-tile encodings and byte
// counts).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/matrix.hpp"
#include "host/sat_residual.hpp"
#include "host/sat_skss_lb.hpp"
#include "host/thread_pool.hpp"
#include "sat/storage.hpp"
#include "util/span2d.hpp"

namespace {

using sat::Matrix;

constexpr std::size_t kTileWidths[] = {128, 256, 512};
constexpr std::size_t kWorkerCounts[] = {2, 3, 4, 8};
constexpr int kRepeats = 6;

sathost::ThreadPool& shared_pool() {
  static sathost::ThreadPool pool(8);
  return pool;
}

sathost::SkssLbOptions options(std::size_t w, std::size_t workers,
                               bool kahan) {
  sathost::SkssLbOptions opt;
  opt.tile_w = w;
  opt.workers = workers;
  opt.kahan = kahan;
  return opt;
}

bool bitwise_equal(const Matrix<float>& a, const Matrix<float>& b) {
  return std::memcmp(a.data(), b.data(), a.rows() * a.cols() * sizeof(float)) ==
         0;
}

/// Runs one f32 image through sat_skss_lb at every (W, workers, repeat)
/// and compares each table with the 1-worker table of the same W.
void check_single_image(std::size_t n, bool kahan) {
  const auto input = Matrix<float>::random(n, n, 31, 0.0f, 1.0f);
  Matrix<float> ref(n, n), got(n, n);
  for (const std::size_t w : kTileWidths) {
    sathost::sat_skss_lb<float>(shared_pool(), input.view(), ref.view(),
                                options(w, 1, kahan));
    for (const std::size_t workers : kWorkerCounts) {
      for (int rep = 0; rep < kRepeats; ++rep) {
        sathost::sat_skss_lb<float>(shared_pool(), input.view(), got.view(),
                                    options(w, workers, kahan));
        ASSERT_TRUE(bitwise_equal(got, ref))
            << "W=" << w << " workers=" << workers << " repeat=" << rep
            << ": table differs bitwise from the 1-worker table";
      }
    }
  }
}

/// The batch form: 8 images through one sat_skss_lb_batch call per run.
void check_batch(std::size_t n, bool kahan) {
  constexpr std::size_t kBatch = 8;
  std::vector<Matrix<float>> inputs, refs, gots;
  std::vector<satutil::Span2d<const float>> srcs;
  std::vector<satutil::Span2d<float>> ref_views, got_views;
  for (std::size_t b = 0; b < kBatch; ++b) {
    inputs.push_back(Matrix<float>::random(n, n, 100 + b, 0.0f, 1.0f));
    refs.emplace_back(n, n);
    gots.emplace_back(n, n);
  }
  for (std::size_t b = 0; b < kBatch; ++b) {
    srcs.push_back(inputs[b].view());
    ref_views.push_back(refs[b].view());
    got_views.push_back(gots[b].view());
  }
  for (const std::size_t w : kTileWidths) {
    sathost::sat_skss_lb_batch<float>(shared_pool(), srcs, ref_views,
                                      options(w, 1, kahan));
    for (const std::size_t workers : kWorkerCounts) {
      for (int rep = 0; rep < kRepeats; ++rep) {
        sathost::sat_skss_lb_batch<float>(shared_pool(), srcs, got_views,
                                          options(w, workers, kahan));
        for (std::size_t b = 0; b < kBatch; ++b)
          ASSERT_TRUE(bitwise_equal(gots[b], refs[b]))
              << "W=" << w << " workers=" << workers << " repeat=" << rep
              << " image=" << b
              << ": table differs bitwise from the 1-worker table";
      }
    }
  }
}

TEST(Determinism, DenseF32BitwiseAcrossWorkerCounts) {
  check_single_image(2048, /*kahan=*/false);
}

TEST(Determinism, KahanF32BitwiseAcrossWorkerCounts) {
  check_single_image(2048, /*kahan=*/true);
}

TEST(Determinism, DenseF32Batch8BitwiseAcrossWorkerCounts) {
  check_batch(512, /*kahan=*/false);
}

TEST(Determinism, KahanF32Batch8BitwiseAcrossWorkerCounts) {
  check_batch(512, /*kahan=*/true);
}

TEST(Determinism, ResidualI32IdenticalAcrossWorkerCounts) {
  // Byte-valued frames (the tiled-storage use case), encoded to i32
  // TiledSat tables: the decoded table, every tile's encoding and the byte
  // counts must match the 1-worker run.
  const std::size_t n = 1000;  // ragged edge tiles at every W
  const auto input = Matrix<std::int32_t>::random(n, n, 47, 0, 255);
  Matrix<std::int32_t> ref_dense(n, n), got_dense(n, n);
  for (const std::size_t w : kTileWidths) {
    sat::TiledSat<std::int32_t> ref(n, n, w);
    sathost::sat_skss_lb_residual<std::int32_t>(shared_pool(), input.view(),
                                                ref, options(0, 1, false));
    ref.decode_into(ref_dense.view());
    for (const std::size_t workers : kWorkerCounts) {
      for (int rep = 0; rep < kRepeats; ++rep) {
        sat::TiledSat<std::int32_t> got(n, n, w);
        sathost::sat_skss_lb_residual<std::int32_t>(
            shared_pool(), input.view(), got, options(0, workers, false));
        const std::string where = "W=" + std::to_string(w) +
                                  " workers=" + std::to_string(workers) +
                                  " repeat=" + std::to_string(rep);
        got.decode_into(got_dense.view());
        ASSERT_EQ(got_dense, ref_dense) << where;
        for (std::size_t t = 0; t < ref.tile_count(); ++t)
          ASSERT_EQ(got.enc(t), ref.enc(t)) << where << " tile=" << t;
        ASSERT_EQ(got.residual_bytes(), ref.residual_bytes()) << where;
        ASSERT_EQ(got.dense_bytes(), ref.dense_bytes()) << where;
      }
    }
  }
}

}  // namespace
