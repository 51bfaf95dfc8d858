#include "common.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/trace.hpp"

namespace perfbench {

std::uint64_t stream_seed(std::uint64_t seed, std::string_view tag,
                          std::uint64_t index) {
  std::uint64_t h = fnv1a(tag.data(), tag.size());
  h = fnv1a(&seed, sizeof seed, h);
  h = fnv1a(&index, sizeof index, h);
  return Rng(h).next();
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

double vm_hwm_kib(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  return 0;
}

void reset_peak_rss(int pid) {
  std::ofstream out(pid == 0 ? std::string("/proc/self/clear_refs")
                             : "/proc/" + std::to_string(pid) + "/clear_refs");
  out << "5";
}

CpuTimes CpuTimes::now() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  std::uint64_t v = 0;
  for (int field = 0; field < 10 && (in >> v); ++field) {
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already inside user/nice.
    if (field < 8) t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_pct(const CpuTimes& a, const CpuTimes& b) {
  const double total = static_cast<double>(b.total - a.total);
  return total > 0 ? 100.0 * static_cast<double>(b.steal - a.steal) / total
                   : 0.0;
}

namespace {

void put_num(std::ostringstream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

void put_str(std::ostringstream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

std::string PassResult::to_json() const {
  std::ostringstream os;
  os << "{\"workload\":";
  put_str(os, workload);
  os << ",\"traced\":" << (traced ? "true" : "false");
  const auto arr = [&os](std::string_view key, const std::vector<double>& v) {
    os << ',';
    put_str(os, key);
    os << ":[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) os << ',';
      put_num(os, v[i]);
    }
    os << ']';
  };
  arr("setup_s", setup_s);
  arr("latency_ms", latency_ms);
  os << ",\"elements\":";
  put_num(os, elements);
  os << ",\"rate_window_s\":";
  put_num(os, rate_window_s);
  os << ",\"attempted\":" << attempted << ",\"wrong\":" << wrong
     << ",\"errors\":" << errors << ",\"overloaded\":" << overloaded
     << ",\"missing\":" << missing << ",\"steal_pct\":";
  put_num(os, steal_pct);
  os << ",\"samples\":{";
  bool first = true;
  for (const auto& [k, v] : samples) {
    if (!first) os << ',';
    first = false;
    put_str(os, k);
    os << ":[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) os << ',';
      put_num(os, v[i]);
    }
    os << ']';
  }
  os << "},\"values\":{";
  first = true;
  for (const auto& [k, v] : values) {
    if (!first) os << ',';
    first = false;
    put_str(os, k);
    os << ':';
    put_num(os, v);
  }
  os << "},\"satd_metrics\":"
     << (satd_metrics_json.empty() ? "null" : satd_metrics_json) << '}';
  return os.str();
}

Spans::Spans(obs::TraceSink* sink) : sink_(sink) {
  if (sink_ == nullptr) return;
  pid_ = sink_->register_process("perfbench (benchmark-side spans)");
  base_ = Clock::now();
  base_us_ = sink_->now_host_us();
}

std::uint64_t Spans::next_id() {
  return sink_ == nullptr ? 0 : next_.fetch_add(1, std::memory_order_relaxed);
}

std::string Spans::args(std::uint64_t id, std::uint64_t parent,
                        std::string_view parent_name,
                        std::uint64_t trace_id) const {
  std::ostringstream os;
  os << "{\"span\":" << id << ",\"parent\":" << parent
     << ",\"parent_name\":\"" << parent_name << "\"";
  if (trace_id != 0) {
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%llx",
                  static_cast<unsigned long long>(trace_id));
    os << ",\"trace_id\":\"" << hex << "\"";
  }
  os << '}';
  return os.str();
}

double Spans::ts_us(Clock::time_point t) const {
  return base_us_ + 1e6 * seconds_between(base_, t);
}

void Spans::record(std::string_view name, Clock::time_point t0,
                   Clock::time_point t1, std::uint64_t id,
                   std::uint64_t parent, std::string_view parent_name,
                   std::uint64_t lane, std::uint64_t trace_id) {
  if (sink_ == nullptr) return;
  sink_->complete(pid_, lane, name, "bench", ts_us(t0),
                  1e6 * seconds_between(t0, t1),
                  args(id, parent, parent_name, trace_id));
}

void Spans::record_async(std::string_view name, Clock::time_point t0,
                         Clock::time_point t1, std::uint64_t id,
                         std::uint64_t trace_id) {
  if (sink_ == nullptr) return;
  sink_->async_begin(pid_, trace_id, name, "bench", ts_us(t0),
                     args(id, 0, "", trace_id));
  sink_->async_end(pid_, trace_id, name, "bench", ts_us(t1));
}

double memcpy_floor_s(std::size_t bytes) {
  // Four source/destination pairs rotate so each copy starts cache-cold
  // (512 MiB of traffic per cycle at 64 MiB copies).
  constexpr int kPairs = 4;
  constexpr int kCopies = 12;
  std::vector<std::unique_ptr<char[]>> src, dst;
  for (int i = 0; i < kPairs; ++i) {
    src.emplace_back(new char[bytes]);
    dst.emplace_back(new char[bytes]);
    std::memset(src.back().get(), i + 1, bytes);
    std::memset(dst.back().get(), 0, bytes);
  }
  std::vector<double> t;
  for (int k = 0; k < kCopies; ++k) {
    const auto t0 = Clock::now();
    std::memcpy(dst[k % kPairs].get(), src[k % kPairs].get(), bytes);
    t.push_back(seconds_between(t0, Clock::now()));
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

namespace {

bool write_all(int fd, const char* p, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, char* p, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::recv(fd, p, len, 0);
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

double loopback_echo_s(std::size_t bytes, int reps) {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t alen = sizeof addr;
  if (lfd < 0 ||
      ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(lfd, 1) != 0 ||
      ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen) != 0) {
    if (lfd >= 0) ::close(lfd);
    throw std::runtime_error("loopback floor: cannot listen");
  }
  // Store-and-forward like satd: read the whole message, then answer with
  // the same number of bytes.
  std::thread server([lfd, bytes] {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) return;
    std::vector<char> buf(bytes);
    while (read_all(fd, buf.data(), bytes) && write_all(fd, buf.data(), bytes)) {
    }
    ::close(fd);
  });
  const int cfd = ::socket(AF_INET, SOCK_STREAM, 0);
  std::vector<double> t;
  if (cfd >= 0 &&
      ::connect(cfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    std::vector<char> out(bytes, 'x'), in(bytes);
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      if (!write_all(cfd, out.data(), bytes) ||
          !read_all(cfd, in.data(), bytes))
        break;
      t.push_back(seconds_between(t0, Clock::now()));
    }
  }
  if (cfd >= 0) ::close(cfd);
  ::shutdown(lfd, SHUT_RDWR);
  server.join();
  ::close(lfd);
  if (t.empty()) throw std::runtime_error("loopback floor: echo failed");
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

}  // namespace perfbench
