// perfbench_driver: runs one pass of one workload and prints its raw record
// as a single JSON line prefixed "RAW ". run.py is the user-facing command;
// it builds this binary, calls it, and turns the record into metrics.
//
//   perfbench_driver --workload dense-4k --seed 1 --seconds 10
//                    [--trace-out t.json] [--satd path/to/satd]
//                    [--work-dir dir] [--corrupt-one]
//   perfbench_driver --workload tiled-frames --seed 1 --cold-start
//   perfbench_driver --selftest --satd path/to/satd --work-dir dir
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <string>

#include "obs/trace.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload dense-4k|satd-mixed|"
               "tiled-frames --seed N --seconds S [--trace-out FILE] "
               "[--satd EXE] [--work-dir DIR] [--corrupt-one] [--cold-start] | "
               "--selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  cfg.work_dir = ".";
  std::string workload, trace_out;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      cfg.seed = std::stoull(argv[++i]);
    } else if (a == "--seconds" && has_value) {
      cfg.seconds = std::stod(argv[++i]);
    } else if (a == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (a == "--satd" && has_value) {
      cfg.satd_path = argv[++i];
    } else if (a == "--work-dir" && has_value) {
      cfg.work_dir = argv[++i];
    } else if (a == "--corrupt-one") {
      cfg.corrupt_one = true;
    } else if (a == "--cold-start") {
      cfg.cold_start = true;
    } else if (a == "--selftest") {
      selftest = true;
    } else {
      return usage();
    }
  }
  try {
    if (selftest) return perfbench::run_selftest(cfg);
    if (cfg.cold_start) {
      // One set-up sample of a fresh process: nothing runs before it.
      if (workload != "tiled-frames") return usage();
      std::printf("RAW %s\n", perfbench::run_tiled(cfg).to_json().c_str());
      return 0;
    }
    std::unique_ptr<obs::TraceSink> sink;
    if (!trace_out.empty()) sink = std::make_unique<obs::TraceSink>();
    cfg.trace = sink.get();

    // Same-run physical floors, before the workload allocates: a 64 MiB
    // copy (one dense-4k image) and a 4 MiB loopback echo (one 1024² i32
    // satd request).
    const double memcpy_s = perfbench::memcpy_floor_s(std::size_t{64} << 20);
    const double echo_s = perfbench::loopback_echo_s(std::size_t{4} << 20, 15);

    perfbench::PassResult res;
    if (workload == "dense-4k") {
      res = perfbench::run_dense(cfg);
    } else if (workload == "tiled-frames") {
      res = perfbench::run_tiled(cfg);
    } else if (workload == "satd-mixed") {
      res = perfbench::run_satd(cfg);
    } else {
      return usage();
    }
    res.values["floor.memcpy_s"] = memcpy_s;
    res.values["floor.memcpy_bytes"] = static_cast<double>(std::size_t{64} << 20);
    res.values["floor.loopback_s"] = echo_s;
    res.values["floor.loopback_bytes"] = static_cast<double>(std::size_t{4} << 20);
    if (sink && !sink->write_file(trace_out)) return 2;
    std::printf("RAW %s\n", res.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
