// Thread placement of the host pool's helpers.
//
// A helper woken through the pool's condition variable can be placed on the
// waking thread's CPU, and on some kernels (observed on a KVM guest) the load
// balancer takes about a second to separate the two. After an idle spell a
// 2-lane run_persistent then runs both lanes time-sliced on one core — half
// the machine the caller asked for. The pool pins each helper once, at
// construction, to a CPU other than the constructing thread's; this test
// holds it to that: after the pool idles, the helper lane and the submitting
// lane must run on different CPUs whenever the affinity mask allows it.
// The test holds its own thread on one CPU while it runs, so that the
// kernel moving the (unpinned) submitter under outside load cannot decide
// the outcome: only where the pool puts its helper does.
#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>

#include "host/thread_pool.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// The CPU each lane of one 2-lane run_persistent ran on. Both lanes meet
/// at a rendezvous first, so they are two live threads, then spin side by
/// side for `spin` and report where they ended up.
struct Placement {
  int submitter = -1;
  int helper = -1;
};

Placement run_two_lanes(sathost::ThreadPool& pool,
                        std::chrono::milliseconds spin) {
  const std::thread::id submitter = std::this_thread::get_id();
  std::atomic<int> arrived{0};
  std::atomic<int> submitter_cpu{-1};
  std::atomic<int> helper_cpu{-1};
  pool.run_persistent(2, [&](std::size_t) {
    arrived.fetch_add(1);
    const auto give_up = Clock::now() + std::chrono::seconds(5);
    while (arrived.load() < 2 && Clock::now() < give_up) {
    }
    const auto until = Clock::now() + spin;
    while (Clock::now() < until) {
    }
    const int cpu = sched_getcpu();
    if (std::this_thread::get_id() == submitter) {
      submitter_cpu.store(cpu);
    } else {
      helper_cpu.store(cpu);
    }
  });
  return {submitter_cpu.load(), helper_cpu.load()};
}

/// Restricts the calling thread to the CPU it is running on; restores its
/// affinity mask on destruction.
class HoldOnCurrentCpu {
 public:
  explicit HoldOnCurrentCpu(const cpu_set_t& saved) : saved_(saved) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(sched_getcpu(), &one);
    held_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~HoldOnCurrentCpu() { (void)sched_setaffinity(0, sizeof saved_, &saved_); }
  HoldOnCurrentCpu(const HoldOnCurrentCpu&) = delete;
  HoldOnCurrentCpu& operator=(const HoldOnCurrentCpu&) = delete;

  [[nodiscard]] bool held() const { return held_; }

 private:
  cpu_set_t saved_;
  bool held_ = false;
};

TEST(ThreadPoolPlacement, HelperRunsOffTheSubmitterCpuAfterIdle) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(sched_getaffinity(0, sizeof mask, &mask), 0);
  if (CPU_COUNT(&mask) < 2)
    GTEST_SKIP() << "affinity mask has one CPU: nowhere else to run";

  // The pool reads the full mask at construction; only then is the
  // submitting thread held where it is.
  sathost::ThreadPool pool(2);
  const HoldOnCurrentCpu hold(mask);
  ASSERT_TRUE(hold.held());
  for (int round = 0; round < 2; ++round) {
    // Idle long enough that the helper parks and the scheduler forgets it.
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    const Placement p = run_two_lanes(pool, std::chrono::milliseconds(30));
    ASSERT_GE(p.submitter, 0) << "the submitting thread ran no lane";
    ASSERT_GE(p.helper, 0) << "the helper ran no lane";
    EXPECT_NE(p.submitter, p.helper)
        << "round " << round << ": helper and submitter shared CPU "
        << p.helper;
  }
}

}  // namespace
