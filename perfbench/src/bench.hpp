// Shared pieces of isop_perfbench: options, the seeded job
// stream, percentile helpers, and the result record every workload returns.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double secondsSince(Clock::time_point from) {
  return secondsBetween(from, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Clock::time_point processStart = Clock::now();  ///< start of the first set-up
};

/// Harmonica samples per iteration of every pipeline job: isop_cli's
/// default --budget and the serve `submit` default.
inline constexpr std::size_t kBudget = 400;

/// Set-up repetitions per run; setup_s is their median.
inline constexpr std::size_t kSetupRepeats = 3;

/// One pipeline job: what `isop_cli --task T --space S --seed N` runs.
struct JobKey {
  std::string task;
  std::string space;
  std::uint64_t seed = 1;

  std::string str() const { return task + "/" + space + "/" + std::to_string(seed); }
  bool operator<(const JobKey& o) const {
    if (task != o.task) return task < o.task;
    if (space != o.space) return space < o.space;
    return seed < o.seed;
  }
};

/// The seeded pipeline job stream shared by every workload: job i runs task
/// T(i mod 4 + 1) on space S((i / 4) mod 2 + 1) — so every 8 consecutive
/// jobs cover each (task, space) pair once — with a fresh per-job seed.
class JobStream {
 public:
  explicit JobStream(std::uint64_t seed) : rng_(seed, 0x5eedULL) {}
  JobKey next();

 private:
  isop::Rng rng_;
  std::size_t index_ = 0;
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}
double mean(const std::vector<double>& samples);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports back to main().
struct Outcome {
  std::vector<Metric> endToEnd;  ///< printed with --trace 0
  std::vector<Metric> perLayer;  ///< printed with --trace 1
  std::size_t attempted = 0;     ///< jobs submitted or run
  /// Jobs that failed, were rejected or timed out, or whose output did not
  /// pass its check.
  std::size_t failed = 0;
  /// One line per failed check; any entry makes the run incorrect.
  std::vector<std::string> problems;
};

/// Peak resident set size of this process in MiB.
double peakRssMb();

Outcome runClosedLoop(const Options& options);
Outcome runServeMixed(const Options& options);

}  // namespace perfbench
