// The three perfbench workloads and the generators they share with the
// self-tests. Each run_* function sets up, measures for cfg.seconds, checks
// every output and returns the raw record (see README.md for the design).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/matrix.hpp"

namespace obs {
class TraceSink;
}

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  obs::TraceSink* trace = nullptr;  ///< traced pass when non-null
  bool corrupt_one = false;  ///< self-test: spoil one output after a call
  bool cold_start = false;   ///< tiled-frames: time only the first frame
  std::string satd_path;     ///< satd binary (satd-mixed only)
  std::string work_dir;      ///< port files, logs, satd trace output
};

PassResult run_dense(const RunConfig& cfg);
PassResult run_tiled(const RunConfig& cfg);
PassResult run_satd(const RunConfig& cfg);

/// dense-4k input `index`: n×n f32 uniform in [0, 1).
std::vector<float> dense_input(std::uint64_t seed, std::size_t index,
                               std::size_t n);

/// Byte-valued i32 frame (values 0..255) of stream `tag`, number `index`.
sat::Matrix<std::int32_t> byte_frame(std::uint64_t seed, const char* tag,
                                     std::size_t index, std::size_t n);

/// One open-loop request: when it is due (seconds from phase start) and
/// which input frame it carries.
struct Arrival {
  double due_s = 0;
  std::uint32_t frame = 0;
};

/// The satd-mixed input set: frames[0..small) are 256², the rest 1024².
struct SatdFrame {
  std::uint32_t n = 0;
  std::vector<std::int32_t> input;
  std::vector<std::int32_t> expect;  ///< sequential SAT of input
};
std::vector<SatdFrame> satd_frames(std::uint64_t seed);

/// Seeded Poisson arrivals of stream `stream` at `rate_per_s` until
/// `duration_s`, each carrying a random one of the n×n `frames`.
std::vector<Arrival> poisson_schedule(std::uint64_t seed, int stream,
                                      double rate_per_s, double duration_s,
                                      const std::vector<SatdFrame>& frames,
                                      std::uint32_t n);

/// Open-loop client phase against a satd-protocol server on `port`: one
/// connection, a sender thread following `schedule` and a reader thread
/// draining replies as they come. Per request it records lateness and
/// latency, both from the due time.
struct OpenLoopRecord {
  double late_ms = -1;     ///< send start − due
  double latency_ms = -1;  ///< reply decoded − due (−1: no reply)
  double from_send_ms = -1;  ///< reply decoded − send start
  int status = 0;            ///< 0 none, 1 ok, 2 wrong, 3 overloaded, 4 error
};
std::vector<OpenLoopRecord> open_loop_client(
    std::uint16_t port, const std::vector<Arrival>& schedule,
    const std::vector<SatdFrame>& frames, double reply_timeout_s);

int run_selftest(const RunConfig& cfg);

}  // namespace perfbench
