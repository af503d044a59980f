// Per-layer instruments of the traced run: a counting surrogate decorator
// (ml layer), span self times by containment (hpo / core.eval stage tree),
// global thread-pool deltas, and the fixed per-layer metric table that every
// workload fills in.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "ml/surrogate.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Call/row/time tallies per surrogate entry point, shared by every
/// CountingSurrogate of a run.
struct SurrogateTallies {
  enum Path { kPredictB1, kPredictSmall, kPredictLarge, kGradient, kPathCount };
  /// predictBatch calls of at most this many rows count as "small".
  static constexpr std::size_t kSmallBatchRows = 8;

  struct Tally {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> rows{0};
    std::atomic<std::uint64_t> nanos{0};
  };
  std::array<Tally, kPathCount> paths;

  void note(Path path, std::size_t rows, Clock::time_point start);
};

/// Transparent ml::Surrogate decorator: forwards every call to `inner`,
/// bills queries on itself exactly like a model does (the optimizer reads
/// its "samples seen" from the surrogate it is given), and tallies calls,
/// rows and wall time per entry point.
class CountingSurrogate final : public isop::ml::Surrogate {
 public:
  CountingSurrogate(std::shared_ptr<const isop::ml::Surrogate> inner,
                    std::shared_ptr<SurrogateTallies> tallies);

  std::size_t inputDim() const override { return inner_->inputDim(); }
  std::size_t outputDim() const override { return inner_->outputDim(); }
  void predict(std::span<const double> x, std::span<double> out) const override;
  void predictBatch(const isop::Matrix& x, isop::Matrix& out) const override;
  bool hasInputGradient() const override { return inner_->hasInputGradient(); }
  void inputGradient(std::span<const double> x, std::size_t outputIndex,
                     std::span<double> grad) const override;
  void inputGradientBatch(const isop::Matrix& x, std::size_t outputIndex,
                          isop::Matrix& grads) const override;

 private:
  std::shared_ptr<const isop::ml::Surrogate> inner_;
  std::shared_ptr<SurrogateTallies> tallies_;
};

/// Self time by span name, computed by containment: on each thread, a
/// span's self time is its duration minus the durations of the spans nested
/// directly inside it on that thread.
struct SpanProfile {
  std::map<std::string, double> selfSeconds;
  /// One entry per instance of the root span: the share of its duration
  /// covered by the spans nested inside it.
  std::vector<double> rootCoverage;
};

SpanProfile buildSpanProfile(const std::vector<isop::obs::TraceEvent>& events,
                             const std::string& rootName);

/// Global thread-pool counters over an interval.
struct PoolDelta {
  double waitSeconds = 0.0;
  std::uint64_t tasks = 0;
  /// Deepest queue seen by sampling every kSamplePeriod within the interval
  /// (the pool's own maxQueueDepth is a process-lifetime high-water mark).
  std::size_t maxQueueDepth = 0;
};
/// Watches the global pool from construction to stop(): counter deltas,
/// plus a sampler thread that polls the queue depth.
class PoolWatch {
 public:
  static constexpr std::chrono::microseconds kSamplePeriod{1000};

  PoolWatch();
  ~PoolWatch();
  PoolWatch(const PoolWatch&) = delete;
  PoolWatch& operator=(const PoolWatch&) = delete;

  /// Stops the sampler and returns the interval's figures.
  PoolDelta stop();

 private:
  isop::ThreadPool::PoolStats before_;
  std::atomic<bool> stopping_{false};
  std::size_t maxDepth_ = 0;  ///< written by the sampler until it is joined
  std::thread sampler_;
};

/// Harmonica's polynomial sparse recovery timed through its public entry
/// points (hpo::parityDesignMatrix, hpo::lassoFit) on a first-iteration
/// shape: q codec samples of `space`, y = the task's smoothed objective
/// under `model`, degree-2 monomials over every bit, lambda 0.02.
struct PsrProbe {
  double designSeconds = 0.0;  ///< median over repeats
  double fitSeconds = 0.0;     ///< median over repeats
  std::size_t sweeps = 0;      ///< coordinate-descent sweeps of the fit
  double designBytes = 0.0;    ///< q x monomials doubles
};
PsrProbe probePsr(const JobKey& shape, const isop::ml::Surrogate& model,
                  std::size_t samples, std::uint64_t seed);
void recordPsr(std::vector<Metric>& layer, const PsrProbe& psr);

/// The named spans whose self times are reported per job.
const std::vector<std::string>& stageSpanNames();

/// Every per-layer metric, in output order, with value 0. Workloads set the
/// ones their layers exercise; the rest read 0 (the layer is not used).
std::vector<Metric> perLayerTemplate();
/// Sets an existing metric of `metrics`; throws on an unknown name.
void setMetric(std::vector<Metric>& metrics, const std::string& name, double value);

/// Fills span self times (per job), surrogate tallies (per job) and pool
/// deltas into the per-layer table.
void recordStageProfile(std::vector<Metric>& layer, const SpanProfile& profile,
                        std::size_t jobs);
void recordSurrogateTallies(std::vector<Metric>& layer, const SurrogateTallies& tallies,
                            std::size_t jobs);
void recordPool(std::vector<Metric>& layer, const PoolDelta& pool, std::size_t jobs);

}  // namespace perfbench
