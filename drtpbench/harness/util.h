// Small shared pieces of the benchmark program: the clock, order
// statistics, the result line and the per-run options.
#pragma once

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace drtpbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NowS() { return static_cast<double>(NowNs()) * 1e-9; }

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; the
/// sample is sorted in place. 0 for an empty sample.
inline double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(std::vector<double> v) { return Quantile(v, 0.5); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Cuts a run of `span_s` seconds into consecutive windows of `window_s`
/// and returns, per whole window, the values of the requests that started
/// in it. Reporting the median over windows keeps a burst of host
/// contention that spoils one window from moving the run's figure.
inline std::vector<std::vector<double>> Windows(
    const std::vector<double>& start_s, const std::vector<double>& values,
    double window_s, double span_s) {
  const auto n = static_cast<std::size_t>(span_s / window_s + 1e-9);
  std::vector<std::vector<double>> w(n);
  for (std::size_t i = 0; i < start_s.size(); ++i) {
    const auto k = static_cast<std::size_t>(start_s[i] / window_s);
    if (k < n) w[k].push_back(values[i]);
  }
  return w;
}

/// Keeps every CPU polling instead of halting while it lives: one
/// SCHED_IDLE spin thread per CPU, which runs only when nothing else is
/// runnable there. On a virtual machine a halted vCPU must be rescheduled
/// by the hypervisor before a thread woken on it can run, and on a shared
/// host that wait, not the daemon, sets a wake-up-bound load's tail. A
/// thread that cannot get SCHED_IDLE does not spin.
class IdlePoll {
 public:
  IdlePoll() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        const sched_param none{};
        if (sched_setscheduler(0, SCHED_IDLE, &none) != 0) return;
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~IdlePoll() {
    stop_ = true;
    for (std::thread& t : threads_) t.join();
  }
  IdlePoll(const IdlePoll&) = delete;
  IdlePoll& operator=(const IdlePoll&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // after stop_, which they read
};

/// Moves the calling thread round-robin over the CPUs it may run on, one
/// step per Next(), and restores its CPU set on Restore() or destruction.
/// On a shared host each vCPU's speed switches between regimes every few
/// seconds, independently of the others; a single-threaded load that
/// visits every vCPU in turn averages over them instead of taking one
/// vCPU's luck.
class CpuRotor {
 public:
  CpuRotor() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
    }
  }
  ~CpuRotor() { Restore(); }
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;

  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  /// Lets the thread run on its original CPUs again.
  void Restore() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof saved_, &saved_);
  }

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Peak resident set of this process, MiB.
inline double SelfPeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string drtpd;    ///< path of the daemon binary under test
  std::string workdir;  ///< scratch directory for sockets, topologies, WALs
};

/// One named metric of the result line.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one run reports: the benchmark contract's last stdout line.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< correctness failures, to stderr

  void Add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  /// Records a failed correctness check.
  void Fail(std::string what) {
    correct = false;
    problems.push_back(std::move(what));
  }
  void Expect(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
};

}  // namespace drtpbench
