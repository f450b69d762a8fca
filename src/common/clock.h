// Clocks for the emulated cluster.
//
// The fabric and device cost models charge *virtual* nanoseconds to a
// VirtualClock so experiments report deterministic modelled time. Modelled
// time is only accounted, never realized as actual delay.
#ifndef SRC_COMMON_CLOCK_H_
#define SRC_COMMON_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace skadi {

// Monotonic wall-clock time in nanoseconds.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Accumulates modelled time. Thread-safe. One instance per emulated cluster.
class VirtualClock {
 public:
  // Charges `nanos` of modelled time. Never blocks.
  void Charge(int64_t nanos) {
    if (nanos <= 0) {
      return;
    }
    total_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  }

  // Total modelled nanoseconds charged so far.
  int64_t total_nanos() const { return total_nanos_.load(std::memory_order_relaxed); }

  void Reset() { total_nanos_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> total_nanos_{0};
};

// RAII stopwatch measuring wall time.
class Stopwatch {
 public:
  Stopwatch() : start_(NowNanos()) {}
  int64_t ElapsedNanos() const { return NowNanos() - start_; }
  double ElapsedMillis() const { return static_cast<double>(ElapsedNanos()) / 1e6; }
  void Restart() { start_ = NowNanos(); }

 private:
  int64_t start_;
};

}  // namespace skadi

#endif  // SRC_COMMON_CLOCK_H_
