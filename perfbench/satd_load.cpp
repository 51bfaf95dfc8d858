// satd-mixed: the real satd daemon as a child process, driven over two
// connections. Phase 1 is an open loop of seeded Poisson arrivals; phase 2
// a closed loop with a fixed window per connection. Every connection reads
// replies on its own thread while its sender runs, so a slow daemon can
// never be wedged by unread replies (README.md, "satd generator").
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <semaphore>
#include <stdexcept>
#include <thread>

#include "core/api.hpp"
#include "host/thread_pool.hpp"
#include "tools/satd/client.hpp"
#include "tools/satd/protocol.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace {

constexpr std::uint32_t kSmall = 256;
constexpr std::uint32_t kLarge = 1024;
constexpr std::size_t kSmallFrames = 24;
constexpr std::size_t kLargeFrames = 8;
constexpr int kConns = 2;
// Phase-1 arrival rate over both connections. Its 25 large requests/s keep
// the 1024² connection about half busy on the reference machine (README.md,
// "satd-mixed").
constexpr double kPhase1Rate = 100.0;
constexpr double kPhase1Share = 0.6;  // of --seconds; phase 2 gets the rest
constexpr int kWindow = 8;            // phase-2 requests in flight per conn
constexpr int kSetupReps = 3;
constexpr double kReplyTimeoutS = 30.0;

enum Status : int { kNone = 0, kOk = 1, kWrong = 2, kOverloaded = 3, kError = 4 };

/// The satd child process. Stopping it (SIGTERM, then SIGKILL after 10 s)
/// and reaping it happen in the destructor on every path.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::string& dir, bool traced,
         std::uint64_t seed) {
    port_file_ = dir + "/satd.port";
    ::unlink(port_file_.c_str());
    const std::string log = dir + "/satd.log";
    std::vector<std::string> args{exe, "--threads", "2", "--port-file",
                                  port_file_};
    if (traced) {
      args.push_back("--trace-out");
      args.push_back(dir + "/satd-trace-" + std::to_string(seed) + ".json");
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc =
        posix_spawn(&pid_, exe.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start satd at " + exe);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Waits for the port file; false if the daemon died or took over 20 s.
  bool wait_ports() {
    for (int i = 0; i < 20000; ++i) {
      std::ifstream in(port_file_);
      std::string line;
      int found = 0;
      while (std::getline(in, line)) {
        if (line.rfind("port=", 0) == 0) {
          port_ = static_cast<std::uint16_t>(std::stoi(line.substr(5)));
          ++found;
        } else if (line.rfind("http=", 0) == 0) {
          http_ = static_cast<std::uint16_t>(std::stoi(line.substr(5)));
          ++found;
        }
      }
      if (found == 2) return true;
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      ::usleep(1000);
    }
    return false;
  }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 1000; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      ::usleep(10000);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::uint16_t http_port() const { return http_; }

 private:
  pid_t pid_ = -1;
  std::string port_file_;
  std::uint16_t port_ = 0;
  std::uint16_t http_ = 0;
};

std::string http_get(std::uint16_t port, const char* path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  std::string out;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    const std::string req = std::string("GET ") + path + " HTTP/1.0\r\n\r\n";
    if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(req.size())) {
      char buf[65536];
      ssize_t n = 0;
      while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
        out.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  const std::size_t body = out.find("\r\n\r\n");
  if (body == std::string::npos) return {};
  out.erase(0, body + 4);
  while (!out.empty() && std::isspace(static_cast<unsigned char>(out.back())))
    out.pop_back();
  return out;
}

/// One request's timeline and verdict.
struct ReqRec {
  Clock::time_point due{}, send0{}, done{};
  double enc_us = 0, send_us = 0, decode_us = 0;
  std::uint64_t span = 0;
  std::uint32_t frame = 0;
  int status = kNone;
};

/// One client connection with a sender thread and a reader thread.
class LoadConn {
 public:
  LoadConn(const std::vector<SatdFrame>& frames, Spans& spans, int index,
           bool corrupt_first)
      : frames_(frames), spans_(spans), index_(index),
        corrupt_first_(corrupt_first) {}
  ~LoadConn() { join(); }
  LoadConn(const LoadConn&) = delete;
  LoadConn& operator=(const LoadConn&) = delete;

  bool connect(std::uint16_t port) { return client_.connect(port); }

  /// Starts one phase. window == 0: open loop, each request sent when due
  /// (start + due_s). window > 0: closed loop, `window` requests in flight
  /// until `stop`; a request is due when it is sent.
  void start(int phase, const std::vector<Arrival>& sched,
             Clock::time_point start, int window, Clock::time_point stop) {
    join();
    phase_ = phase;
    window_ = window;
    stop_ = stop;
    recs_.assign(sched.size(), ReqRec{});
    for (std::size_t k = 0; k < sched.size(); ++k) {
      recs_[k].frame = sched[k].frame;
      recs_[k].due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(sched[k].due_s));
    }
    published_.store(0);
    sent_ = 0;
    sender_done_.store(false);
    finished_.store(false);
    slots_ = std::make_unique<std::counting_semaphore<>>(window);
    sender_ = std::thread([this] { send_loop(); });
    reader_ = std::thread([this] { read_loop(); });
  }

  /// True once every sent request of the phase is answered (or the
  /// connection broke).
  [[nodiscard]] bool finished() const { return finished_.load(); }

  void join() {
    if (sender_.joinable()) sender_.join();
    if (reader_.joinable()) reader_.join();
  }

  /// Valid after join(): every scheduled request of an open-loop phase
  /// (unsent ones have status kNone), or the requests a closed loop sent.
  [[nodiscard]] std::vector<ReqRec> records() const {
    if (window_ == 0) return recs_;
    return {recs_.begin(), recs_.begin() + static_cast<std::ptrdiff_t>(sent_)};
  }

 private:
  [[nodiscard]] std::uint64_t trace_id(std::size_t k) const {
    return (static_cast<std::uint64_t>(phase_ * kConns + index_ + 1) << 32) |
           (k + 1);
  }

  void send_loop() {
    std::size_t k = 0;
    for (; k < recs_.size(); ++k) {
      ReqRec& r = recs_[k];
      if (window_ == 0) {
        std::this_thread::sleep_until(r.due);
      } else if (Clock::now() >= stop_ || !slots_->try_acquire_until(stop_)) {
        break;
      }
      r.send0 = Clock::now();
      if (window_ != 0) r.due = r.send0;
      r.span = spans_.next_id();
      published_.store(k + 1, std::memory_order_release);
      const SatdFrame& f = frames_[r.frame];
      const auto t0 = Clock::now();
      const std::vector<std::uint8_t> payload = satd::encode_matrix_payload(
          f.n, f.n, satd::Dtype::kI32, f.input.data());
      const auto t1 = Clock::now();
      const bool ok = client_.send(satd::Type::kCompute, trace_id(k), payload);
      const auto t2 = Clock::now();
      r.enc_us = 1e6 * seconds_between(t0, t1);
      r.send_us = 1e6 * seconds_between(t1, t2);
      spans_.record("satd.client.encode", t0, t1, spans_.next_id(), r.span,
                    "satd.request", 100 + 2 * index_, trace_id(k));
      spans_.record("satd.client.send", t1, t2, spans_.next_id(), r.span,
                    "satd.request", 100 + 2 * index_, trace_id(k));
      if (!ok) break;
    }
    sent_ = k;
    sender_done_.store(true);
    // PONG marks the end of the phase for the reader: it is answered at
    // once, so the reader stops when it has seen it and every reply.
    (void)client_.send(satd::Type::kPing, 0);
  }

  void read_loop() {
    std::size_t received = 0;
    bool pong = false;
    satd::Frame frame;
    std::vector<std::int32_t> got;
    bool corrupt = corrupt_first_ && phase_ == 1;
    for (;;) {
      if (pong && sender_done_.load() && received == sent_) break;
      const auto t0 = Clock::now();
      if (!client_.recv(frame)) break;
      const auto t1 = Clock::now();
      if (frame.type == satd::Type::kPong) {
        pong = true;
        continue;
      }
      const std::size_t k = (frame.trace_id & 0xFFFFFFFFu) - 1;
      if ((frame.trace_id >> 32) !=
              static_cast<std::uint64_t>(phase_ * kConns + index_ + 1) ||
          k >= recs_.size()) {
        continue;  // not a reply to this phase
      }
      while (published_.load(std::memory_order_acquire) <= k) {
      }
      ReqRec& r = recs_[k];
      ++received;
      if (frame.type == satd::Type::kError) {
        satd::ErrorPayload e;
        r.status = satd::parse_error_payload(frame.payload, e) &&
                           e.code == satd::ErrorCode::kOverloaded
                       ? kOverloaded
                       : kError;
        r.done = t1;
      } else {
        satd::MatrixPayload m;
        const SatdFrame& f = frames_[r.frame];
        const bool shaped = frame.type == satd::Type::kResult &&
                            satd::parse_matrix_payload(frame.payload, m) &&
                            m.dtype == satd::Dtype::kI32 && m.rows == f.n &&
                            m.cols == f.n;
        if (shaped) {
          got.resize(f.expect.size());
          std::memcpy(got.data(), m.data, got.size() * sizeof(std::int32_t));
        }
        r.done = Clock::now();
        r.decode_us = 1e6 * seconds_between(t1, r.done);
        if (shaped && corrupt) {
          got[got.size() / 2] += 1;
          corrupt = false;
        }
        r.status = shaped && std::memcmp(got.data(), f.expect.data(),
                                         got.size() * sizeof(std::int32_t)) == 0
                       ? kOk
                       : kWrong;
        spans_.record("satd.client.recv", t0, t1, spans_.next_id(), r.span,
                      "satd.request", 101 + 2 * index_, frame.trace_id);
        spans_.record("satd.client.decode", t1, r.done, spans_.next_id(),
                      r.span, "satd.request", 101 + 2 * index_,
                      frame.trace_id);
      }
      spans_.record_async("satd.request", r.due, r.done, r.span,
                          frame.trace_id);
      if (window_ != 0) slots_->release();
    }
    finished_.store(true);
  }

  const std::vector<SatdFrame>& frames_;
  Spans& spans_;
  int index_;
  bool corrupt_first_;
  satd::Client client_;
  int phase_ = 0;
  int window_ = 0;
  Clock::time_point stop_{};
  std::vector<ReqRec> recs_;
  std::atomic<std::size_t> published_{0};
  std::size_t sent_ = 0;  // written by the sender before sender_done_
  std::atomic<bool> sender_done_{false};
  std::atomic<bool> finished_{false};
  std::unique_ptr<std::counting_semaphore<>> slots_;
  std::thread sender_;
  std::thread reader_;
};

/// Waits until every connection finished its phase or `timeout_s` passed,
/// calling `tick` every 250 ms; on timeout calls `abort` (which must break
/// the connections). Joins the connections.
template <class Abort, class Tick>
void await_phase(std::vector<std::unique_ptr<LoadConn>>& conns,
                 double timeout_s, Abort&& abort, Tick&& tick) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  const auto all_done = [&conns] {
    return std::all_of(conns.begin(), conns.end(),
                       [](const auto& c) { return c->finished(); });
  };
  auto next_tick = Clock::now() + std::chrono::milliseconds(250);
  while (!all_done() && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (Clock::now() >= next_tick) {
      tick();
      next_tick += std::chrono::milliseconds(250);
    }
  }
  if (!all_done()) abort();
  for (auto& c : conns) c->join();
}

}  // namespace

std::vector<SatdFrame> satd_frames(std::uint64_t seed) {
  std::vector<SatdFrame> frames;
  for (std::size_t i = 0; i < kSmallFrames + kLargeFrames; ++i) {
    SatdFrame f;
    f.n = i < kSmallFrames ? kSmall : kLarge;
    const sat::Matrix<std::int32_t> m = byte_frame(seed, "satd-mixed", i, f.n);
    f.input = m.storage();
    f.expect.resize(f.input.size());
    reference_sat<std::int64_t>(f.input.data(), f.expect.data(), f.n, f.n);
    frames.push_back(std::move(f));
  }
  return frames;
}

std::vector<Arrival> poisson_schedule(std::uint64_t seed, int stream,
                                      double rate_per_s, double duration_s,
                                      const std::vector<SatdFrame>& frames,
                                      std::uint32_t n) {
  std::vector<std::uint32_t> pick;
  for (std::size_t i = 0; i < frames.size(); ++i)
    if (frames[i].n == n) pick.push_back(static_cast<std::uint32_t>(i));
  if (pick.empty()) throw std::runtime_error("no frames of the requested shape");
  Rng rng(stream_seed(seed, "satd-arrivals", static_cast<std::uint64_t>(stream)));
  std::vector<Arrival> out;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.unit_f64()) / rate_per_s;
    if (t >= duration_s) break;
    out.push_back({t, pick[rng.below(pick.size())]});
  }
  return out;
}

std::vector<OpenLoopRecord> open_loop_client(
    std::uint16_t port, const std::vector<Arrival>& schedule,
    const std::vector<SatdFrame>& frames, double reply_timeout_s) {
  Spans spans(nullptr);
  std::vector<std::unique_ptr<LoadConn>> conns;
  conns.push_back(std::make_unique<LoadConn>(frames, spans, 0, false));
  if (!conns[0]->connect(port)) return {};
  const auto start = Clock::now();
  conns[0]->start(1, schedule, start, 0, start);
  await_phase(conns, reply_timeout_s, [] {}, [] {});
  std::vector<OpenLoopRecord> out;
  for (const ReqRec& r : conns[0]->records()) {
    OpenLoopRecord o;
    o.status = r.status;
    if (r.send0 != Clock::time_point{})
      o.late_ms = 1e3 * seconds_between(r.due, r.send0);
    if (r.status != kNone) {
      o.latency_ms = 1e3 * seconds_between(r.due, r.done);
      o.from_send_ms = 1e3 * seconds_between(r.send0, r.done);
    }
    out.push_back(o);
  }
  return out;
}

PassResult run_satd(const RunConfig& cfg) {
  PassResult res;
  res.workload = "satd-mixed";
  res.traced = cfg.trace != nullptr;
  if (cfg.satd_path.empty()) throw std::runtime_error("satd-mixed needs --satd");
  const std::vector<SatdFrame> frames = satd_frames(cfg.seed);

  // Same-run floors of one request of each shape: a store-and-forward
  // loopback echo of its bytes plus a direct in-process engine call.
  {
    sathost::ThreadPool pool(2);
    sat::Options opt;
    opt.backend = sat::Backend::kCpu;
    opt.cpu_engine = sat::CpuEngine::kSkssLb;
    opt.pool = &pool;
    for (const std::uint32_t n : {kSmall, kLarge}) {
      const SatdFrame& f =
          *std::find_if(frames.begin(), frames.end(),
                        [n](const SatdFrame& x) { return x.n == n; });
      std::vector<std::int32_t> out(f.input.size());
      const std::vector<satutil::Span2d<const std::int32_t>> src{
          {f.input.data(), n, n}};
      const std::vector<satutil::Span2d<std::int32_t>> dst{{out.data(), n, n}};
      std::vector<double> t;
      for (int i = 0; i < 25; ++i) {
        const auto t0 = Clock::now();
        (void)sat::compute_sat_batch_into<std::int32_t>(src, dst, opt);
        t.push_back(seconds_between(t0, Clock::now()));
      }
      std::sort(t.begin(), t.end());
      const std::size_t frame_bytes =
          4 + satd::kHeaderBytes + satd::kComputeMeta + f.input.size() * 4;
      const std::string tag = std::to_string(n);
      res.values["satd.floor.direct_s." + tag] = t[t.size() / 2];
      res.values["satd.floor.echo_s." + tag] = loopback_echo_s(frame_bytes, 25);
    }
  }

  // Set-up: daemon spawn until its port file exists and both connections
  // are up. Repeated; the last daemon serves the measured phases.
  Spans spans(cfg.trace);
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<LoadConn>> conns;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    conns.clear();
    daemon.reset();
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(cfg.satd_path, cfg.work_dir,
                                      cfg.trace != nullptr, cfg.seed);
    if (!daemon->wait_ports()) throw std::runtime_error("satd did not start");
    for (int c = 0; c < kConns; ++c) {
      conns.push_back(
          std::make_unique<LoadConn>(frames, spans, c, cfg.corrupt_one && c == 0));
      if (!conns.back()->connect(daemon->port()))
        throw std::runtime_error("cannot connect to satd");
    }
    res.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const auto abort = [&daemon] { daemon->stop(); };
  // The daemon's peak RSS per 250 ms window of the closed loop, whose
  // fixed window bounds the data in flight.
  auto& rss = res.samples["peak_rss_kib"];
  const auto sample_rss = [&daemon, &rss] {
    if (daemon->pid() <= 0) return;
    rss.push_back(vm_hwm_kib(daemon->pid()));
    reset_peak_rss(daemon->pid());
  };
  const auto no_tick = [] {};

  // Connection 0 carries the 256² requests, connection 1 the 1024² ones:
  // two clients with their own image sizes, 3:1 in request count.
  const std::uint32_t conn_n[kConns] = {kSmall, kLarge};
  const double conn_share[kConns] = {0.75, 0.25};
  std::vector<std::vector<Arrival>> closed(kConns);
  for (int c = 0; c < kConns; ++c)
    closed[c] = poisson_schedule(cfg.seed, kConns + c, 1000.0, 60.0, frames,
                                 conn_n[c]);
  // Warm-up: a short closed loop, not measured.
  {
    const auto t0 = Clock::now();
    const auto stop = t0 + std::chrono::milliseconds(500);
    for (int c = 0; c < kConns; ++c) conns[c]->start(0, closed[c], t0, 2, stop);
    await_phase(conns, kReplyTimeoutS, abort, no_tick);
  }

  const double t_open = kPhase1Share * cfg.seconds;
  const double t_closed = cfg.seconds - t_open;
  std::vector<std::vector<Arrival>> open(kConns);
  for (int c = 0; c < kConns; ++c)
    open[c] = poisson_schedule(cfg.seed, c, kPhase1Rate * conn_share[c], t_open,
                               frames, conn_n[c]);

  std::string m0 = http_get(daemon->http_port(), "/metrics");
  const CpuTimes cpu0 = CpuTimes::now();
  // Phase 1: open loop.
  const auto p1 = Clock::now() + std::chrono::milliseconds(20);
  for (int c = 0; c < kConns; ++c) conns[c]->start(1, open[c], p1, 0, p1);
  await_phase(conns, t_open + kReplyTimeoutS, abort, no_tick);
  std::vector<ReqRec> phase1;
  for (auto& c : conns) {
    const std::vector<ReqRec> r = c->records();
    phase1.insert(phase1.end(), r.begin(), r.end());
  }
  std::string m1 = http_get(daemon->http_port(), "/metrics");

  // Phase 2: closed loop.
  reset_peak_rss(daemon->pid());
  const auto p2 = Clock::now();
  const auto p2_stop = p2 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(t_closed));
  for (int c = 0; c < kConns; ++c)
    conns[c]->start(2, closed[c], p2, kWindow, p2_stop);
  await_phase(conns, t_closed + kReplyTimeoutS, abort, sample_rss);
  std::vector<ReqRec> phase2;
  for (auto& c : conns) {
    const std::vector<ReqRec> r = c->records();
    phase2.insert(phase2.end(), r.begin(), r.end());
  }
  res.steal_pct = steal_pct(cpu0, CpuTimes::now());
  std::string m2 = http_get(daemon->http_port(), "/metrics");
  conns.clear();
  daemon.reset();  // SIGTERM; a traced daemon writes its trace now

  const auto tally = [&res](const ReqRec& r) {
    ++res.attempted;
    switch (r.status) {
      case kOk: break;
      case kWrong: ++res.wrong; break;
      case kOverloaded: ++res.overloaded; break;
      case kError: ++res.errors; break;
      default: ++res.missing; break;
    }
  };
  auto& enc = res.samples["encode_us"];
  auto& send = res.samples["send_us"];
  auto& decode = res.samples["decode_us"];
  auto& late = res.samples["gen_late_ms"];
  auto& shape = res.samples["request_n"];
  for (const ReqRec& r : phase1) {
    tally(r);
    if (r.send0 != Clock::time_point{})
      late.push_back(1e3 * seconds_between(r.due, r.send0));
    if (r.status != kOk) continue;
    res.latency_ms.push_back(1e3 * seconds_between(r.due, r.done));
    shape.push_back(frames[r.frame].n);
    enc.push_back(r.enc_us);
    send.push_back(r.send_us);
    decode.push_back(r.decode_us);
  }
  for (const ReqRec& r : phase2) {
    tally(r);
    if (r.status == kOk && r.done <= p2_stop)
      res.elements += static_cast<double>(frames[r.frame].expect.size());
  }
  res.rate_window_s = t_closed;
  res.values["array_bytes"] = static_cast<double>(
      kSmallFrames * kSmall * kSmall * 8 + kLargeFrames * kLarge * kLarge * 8);
  res.satd_metrics_json = "{\"before\":" + (m0.empty() ? "null" : m0) +
                          ",\"after_open\":" + (m1.empty() ? "null" : m1) +
                          ",\"after_closed\":" + (m2.empty() ? "null" : m2) +
                          "}";
  return res;
}

}  // namespace perfbench
