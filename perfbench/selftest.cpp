// Driver self-tests (run.py --self-test runs them):
//   1. the same seed gives byte-identical inputs and an identical arrival
//      schedule, and another seed gives different ones;
//   2. open-loop latency is timed from the due time, not the send time,
//      shown against a fake server that stalls before reading.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <thread>

#include "tools/satd/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("selftest %s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

std::uint64_t schedule_hash(const std::vector<Arrival>& s) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const Arrival& a : s) {
    h = fnv1a(&a.due_s, sizeof a.due_s, h);
    h = fnv1a(&a.frame, sizeof a.frame, h);
  }
  return h;
}

std::uint64_t frames_hash(const std::vector<SatdFrame>& frames) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const SatdFrame& f : frames)
    h = fnv1a(f.input.data(), f.input.size() * sizeof(std::int32_t), h);
  return h;
}

void test_seeding() {
  const auto dense = [](std::uint64_t seed) {
    const std::vector<float> v = dense_input(seed, 3, 64);
    return fnv1a(v.data(), v.size() * sizeof(float));
  };
  const auto frame = [](std::uint64_t seed) {
    const sat::Matrix<std::int32_t> m = byte_frame(seed, "tiled-frames", 1, 64);
    return fnv1a(m.data(), m.size() * sizeof(std::int32_t));
  };
  expect(dense(7) == dense(7) && dense(7) != dense(8),
         "dense-4k inputs repeat per seed and differ across seeds");
  expect(frame(7) == frame(7) && frame(7) != frame(8),
         "tiled-frames inputs repeat per seed and differ across seeds");
  const std::vector<SatdFrame> f7 = satd_frames(7), f8 = satd_frames(8);
  expect(frames_hash(f7) == frames_hash(satd_frames(7)) &&
             frames_hash(f7) != frames_hash(f8),
         "satd-mixed inputs repeat per seed and differ across seeds");
  const auto sched = [&f7](std::uint64_t seed) {
    return schedule_hash(poisson_schedule(seed, 0, 100.0, 5.0, f7, 256));
  };
  expect(sched(7) == sched(7) && sched(7) != sched(8),
         "arrival schedule repeats per seed and differs across seeds");
  const std::vector<Arrival> s = poisson_schedule(7, 1, 100.0, 20.0, f7, 1024);
  bool shaped = true;
  for (const Arrival& a : s) shaped &= f7[a.frame].n == 1024;
  expect(s.size() > 1800 && s.size() < 2200 && shaped,
         "arrivals follow the rate and carry the requested shape");
}

/// A satd-protocol server on an ephemeral port that sleeps `stall_ms`
/// after accepting before it reads anything, then answers every COMPUTE
/// with the correct SAT and every PING with PONG.
class StalledServer {
 public:
  explicit StalledServer(int stall_ms) {
    lfd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (lfd_ < 0 ||
        ::bind(lfd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(lfd_, 1) != 0 ||
        ::getsockname(lfd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
      return;
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, stall_ms] { serve(stall_ms); });
  }
  ~StalledServer() {
    ::shutdown(lfd_, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    if (lfd_ >= 0) ::close(lfd_);
  }
  StalledServer(const StalledServer&) = delete;
  StalledServer& operator=(const StalledServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  void serve(int stall_ms) {
    const int fd = ::accept(lfd_, nullptr, nullptr);
    if (fd < 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
    std::vector<std::uint8_t> buf;
    std::uint8_t chunk[1 << 16];
    for (;;) {
      satd::Frame f;
      std::size_t used = 0;
      if (satd::decode_frame(buf.data(), buf.size(), f, used) !=
          satd::DecodeStatus::kOk) {
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0) break;
        buf.insert(buf.end(), chunk, chunk + n);
        continue;
      }
      buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(used));
      std::vector<std::uint8_t> reply;
      satd::MatrixPayload m;
      if (f.type == satd::Type::kPing) {
        reply = satd::encode_frame(satd::Type::kPong, f.trace_id);
      } else if (satd::parse_matrix_payload(f.payload, m)) {
        std::vector<std::int32_t> in(std::size_t{m.rows} * m.cols), out(in.size());
        std::memcpy(in.data(), m.data, in.size() * sizeof(std::int32_t));
        reference_sat<std::int64_t>(in.data(), out.data(), m.rows, m.cols);
        reply = satd::encode_frame(
            satd::Type::kResult, f.trace_id,
            satd::encode_matrix_payload(m.rows, m.cols, satd::Dtype::kI32,
                                        out.data()));
      } else {
        break;
      }
      const std::uint8_t* p = reply.data();
      std::size_t left = reply.size();
      while (left > 0) {
        const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
        if (n <= 0) break;
        p += n;
        left -= static_cast<std::size_t>(n);
      }
    }
    ::close(fd);
  }

  int lfd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

void test_due_time_latency() {
  constexpr int kStallMs = 400;
  const std::vector<SatdFrame> frames = satd_frames(1);
  // Eight 4 MiB requests due 5 ms apart: far more than the socket buffers
  // hold, so the sender blocks while the server stalls and the later
  // requests go out late.
  std::vector<Arrival> sched;
  for (std::uint32_t k = 0; k < 8; ++k) {
    std::uint32_t large = 0;
    while (frames[large].n != 1024) ++large;
    sched.push_back({0.005 * k, large + k % 8});
  }
  StalledServer server(kStallMs);
  const std::vector<OpenLoopRecord> rec =
      open_loop_client(server.port(), sched, frames, 30.0);
  bool all_ok = rec.size() == sched.size();
  for (const OpenLoopRecord& r : rec) all_ok &= r.status == 1;
  expect(all_ok, "stalled server: every request answered and verified");
  if (!all_ok) return;
  const OpenLoopRecord& last = rec.back();
  const double due_ms = 1e3 * sched.back().due_s;
  expect(last.late_ms > kStallMs / 2.0,
         "stalled server: the generator ran late and reports it");
  expect(last.latency_ms >= kStallMs - due_ms,
         "stalled server: latency counts from the due time");
  expect(last.latency_ms > last.from_send_ms + kStallMs / 2.0,
         "stalled server: timing from the send would hide the stall");
}

}  // namespace

int run_selftest(const RunConfig&) {
  test_seeding();
  test_due_time_latency();
  std::printf("selftest: %d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
