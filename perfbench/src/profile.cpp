#include "profile.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/objective.hpp"
#include "core/tasks.hpp"
#include "em/simulator.hpp"
#include "hpo/binary_codec.hpp"
#include "hpo/lasso.hpp"
#include "hpo/parity_features.hpp"
#include "obs/obs.hpp"

namespace perfbench {

using isop::Matrix;

void SurrogateTallies::note(Path path, std::size_t rows, Clock::time_point start) {
  const auto nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
  Tally& tally = paths[path];
  tally.calls.fetch_add(1, std::memory_order_relaxed);
  tally.rows.fetch_add(rows, std::memory_order_relaxed);
  tally.nanos.fetch_add(static_cast<std::uint64_t>(nanos), std::memory_order_relaxed);
}

CountingSurrogate::CountingSurrogate(std::shared_ptr<const isop::ml::Surrogate> inner,
                                     std::shared_ptr<SurrogateTallies> tallies)
    : inner_(std::move(inner)), tallies_(std::move(tallies)) {}

void CountingSurrogate::predict(std::span<const double> x, std::span<double> out) const {
  const auto start = Clock::now();
  inner_->predict(x, out);
  tallies_->note(SurrogateTallies::kPredictB1, 1, start);
  countQuery(1);
}

void CountingSurrogate::predictBatch(const Matrix& x, Matrix& out) const {
  const auto start = Clock::now();
  inner_->predictBatch(x, out);
  tallies_->note(x.rows() <= SurrogateTallies::kSmallBatchRows
                     ? SurrogateTallies::kPredictSmall
                     : SurrogateTallies::kPredictLarge,
                 x.rows(), start);
  countQuery(x.rows());
}

void CountingSurrogate::inputGradient(std::span<const double> x, std::size_t outputIndex,
                                      std::span<double> grad) const {
  const auto start = Clock::now();
  inner_->inputGradient(x, outputIndex, grad);
  tallies_->note(SurrogateTallies::kGradient, 1, start);
}

void CountingSurrogate::inputGradientBatch(const Matrix& x, std::size_t outputIndex,
                                           Matrix& grads) const {
  const auto start = Clock::now();
  inner_->inputGradientBatch(x, outputIndex, grads);
  tallies_->note(SurrogateTallies::kGradient, x.rows(), start);
}

SpanProfile buildSpanProfile(const std::vector<isop::obs::TraceEvent>& events,
                             const std::string& rootName) {
  // Group by thread, then walk each thread's spans in start order (longer
  // first on ties, so a parent precedes a child that starts with it) with a
  // stack of open spans. Event times are whole microseconds, so a child may
  // appear to end up to a tick after its parent; it is clipped to the parent.
  std::map<std::uint32_t, std::vector<const isop::obs::TraceEvent*>> byThread;
  for (const auto& e : events) byThread[e.tid].push_back(&e);

  SpanProfile profile;
  for (auto& [tid, spans] : byThread) {
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      if (a->startMicros != b->startMicros) return a->startMicros < b->startMicros;
      return a->durMicros > b->durMicros;
    });
    std::vector<std::uint64_t> childMicros(spans.size(), 0);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto* e = spans[i];
      while (!open.empty()) {
        const auto* top = spans[open.back()];
        if (e->startMicros < top->startMicros + top->durMicros) break;
        open.pop_back();
      }
      if (!open.empty()) {
        const auto* top = spans[open.back()];
        const std::uint64_t end =
            std::min(e->startMicros + e->durMicros, top->startMicros + top->durMicros);
        childMicros[open.back()] += end - e->startMicros;
      }
      open.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto* e = spans[i];
      const std::uint64_t child = std::min(childMicros[i], e->durMicros);
      profile.selfSeconds[e->name] += static_cast<double>(e->durMicros - child) * 1e-6;
      if (e->name == rootName && e->durMicros > 0) {
        profile.rootCoverage.push_back(static_cast<double>(child) /
                                       static_cast<double>(e->durMicros));
      }
    }
  }
  return profile;
}

PoolWatch::PoolWatch() : before_(isop::ThreadPool::global().stats()) {
  sampler_ = std::thread([this] {
    while (!stopping_.load(std::memory_order_relaxed)) {
      maxDepth_ = std::max(maxDepth_, isop::ThreadPool::global().stats().queueDepth);
      std::this_thread::sleep_for(kSamplePeriod);
    }
  });
}

PoolWatch::~PoolWatch() {
  if (sampler_.joinable()) stop();
}

PoolDelta PoolWatch::stop() {
  stopping_ = true;
  sampler_.join();
  const isop::ThreadPool::PoolStats after = isop::ThreadPool::global().stats();
  PoolDelta d;
  d.waitSeconds = after.waitSeconds - before_.waitSeconds;
  d.tasks = after.completed - before_.completed;
  d.maxQueueDepth = maxDepth_;
  return d;
}

PsrProbe probePsr(const JobKey& shape, const isop::ml::Surrogate& model,
                  std::size_t samples, std::uint64_t seed) {
  namespace hpo = isop::hpo;
  const isop::em::ParameterSpace space = isop::em::spaceByName(shape.space);
  const isop::core::Task task = isop::core::taskByName(shape.task);
  const isop::core::Objective objective(task.spec);
  const hpo::BinaryCodec codec(space);

  isop::Rng rng(seed, 0x7057ULL);
  std::vector<hpo::BitVector> bits(samples);
  std::vector<double> y(samples);
  std::vector<double> out(model.outputDim());
  for (std::size_t i = 0; i < samples; ++i) {
    bits[i] = codec.sampleValid(rng);
    const isop::em::StackupParams p = codec.decodeClamped(bits[i]);
    model.predict(p.values, out);
    const isop::em::PerformanceMetrics m{out[0], out[1], out[2]};
    y[i] = objective.gSmoothValue(m, p);
  }
  std::vector<std::size_t> positions(codec.totalBits());
  for (std::size_t b = 0; b < positions.size(); ++b) positions[b] = b;
  const std::vector<hpo::Monomial> monomials = hpo::enumerateMonomials(positions, 2);

  constexpr int kRepeats = 3;
  std::vector<double> designTimes, fitTimes;
  PsrProbe probe;
  for (int r = 0; r < kRepeats; ++r) {
    auto start = Clock::now();
    Matrix design;
    {
      isop::obs::Span span("perfbench.psr.design");
      design = hpo::parityDesignMatrix(bits, monomials);
    }
    designTimes.push_back(secondsSince(start));
    start = Clock::now();
    hpo::LassoResult fit;
    {
      isop::obs::Span span("perfbench.psr.fit");
      fit = hpo::lassoFit(design, y, {.lambda = 0.02});
    }
    fitTimes.push_back(secondsSince(start));
    probe.sweeps = fit.iterations;
    probe.designBytes =
        static_cast<double>(design.rows() * design.cols() * sizeof(double));
  }
  probe.designSeconds = median(designTimes);
  probe.fitSeconds = median(fitTimes);
  return probe;
}

const std::vector<std::string>& stageSpanNames() {
  static const std::vector<std::string> names = {
      "perfbench.job",       "serve.job.run",      "isop.run",
      "stage1.harmonica",    "harmonica.iteration", "stage1b.seeds",
      "hyperband.bracket",   "stage2.refine",      "adam.refine",
      "stage3.rollout",      "eval.predict_batch", "eval.gradient_batch",
      "eval.simulate_batch"};
  return names;
}

std::vector<Metric> perLayerTemplate() {
  std::vector<Metric> m;
  const auto add = [&m](std::string name, const char* unit) {
    m.push_back({std::move(name), 0.0, unit});
  };
  // hpo + core.eval stage tree: self seconds per job.
  for (const std::string& span : stageSpanNames()) add(span + ".self_s", "s");
  add("trace.coverage_min", "ratio");
  add("trace.overhead", "ratio");
  // hpo.psr
  add("psr.design_s", "s");
  add("psr.fit_s", "s");
  add("psr.fit_sweeps", "count");
  add("psr.design_bytes", "B");
  // core.eval, per job
  add("eval.rows", "count");
  add("eval.model_rows", "count");
  add("eval.memo_hit_rate", "ratio");
  add("eval.dedup_ratio", "ratio");
  add("eval.batches", "count");
  add("eval.grad_batches", "count");
  add("eval.grad_rows", "count");
  add("em.sim_calls", "count");
  // ml, per job
  for (const char* path :
       {"ml.predict_b1", "ml.predict_le8", "ml.predict_gt8", "ml.gradient"}) {
    add(std::string(path) + ".calls", "count");
    add(std::string(path) + ".rows", "count");
    add(std::string(path) + ".s", "s");
  }
  // common.thread_pool
  add("pool.task_wait_s", "s");
  add("pool.tasks", "count");
  add("pool.queue_max_depth", "count");
  // serve
  add("serve.queue_wait_s.p50", "s");
  add("serve.queue_wait_s.p90", "s");
  add("serve.run_s.p50", "s");
  add("serve.rejected", "count");
  add("serve.session.memo_hit_rate", "ratio");
  add("serve.samples_billed_ratio", "ratio");
  add("gen.lag_s.p90", "s");
  add("serve.max_rate_jobs_per_s", "1/s");
  add("serve.inverse_latency_s.p50", "s");
  add("serve.inverse_latency_s.p90", "s");
  // inverse
  add("inverse.solve_s.p50", "s");
  add("inverse.train_s", "s");
  return m;
}

void setMetric(std::vector<Metric>& metrics, const std::string& name, double value) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("perfbench: unknown per-layer metric '" + name + "'");
}

void recordStageProfile(std::vector<Metric>& layer, const SpanProfile& profile,
                        std::size_t jobs) {
  const double n = static_cast<double>(std::max<std::size_t>(jobs, 1));
  for (const std::string& span : stageSpanNames()) {
    const auto it = profile.selfSeconds.find(span);
    const double self = it == profile.selfSeconds.end() ? 0.0 : it->second;
    setMetric(layer, span + ".self_s", self / n);
  }
  if (!profile.rootCoverage.empty()) {
    const auto& coverage = profile.rootCoverage;
    setMetric(layer, "trace.coverage_min",
              *std::min_element(coverage.begin(), coverage.end()));
  }
}

void recordSurrogateTallies(std::vector<Metric>& layer, const SurrogateTallies& tallies,
                            std::size_t jobs) {
  const double n = static_cast<double>(std::max<std::size_t>(jobs, 1));
  const char* names[SurrogateTallies::kPathCount] = {"ml.predict_b1", "ml.predict_le8",
                                                    "ml.predict_gt8", "ml.gradient"};
  for (std::size_t p = 0; p < SurrogateTallies::kPathCount; ++p) {
    const SurrogateTallies::Tally& t = tallies.paths[p];
    const std::string base = names[p];
    setMetric(layer, base + ".calls", static_cast<double>(t.calls.load()) / n);
    setMetric(layer, base + ".rows", static_cast<double>(t.rows.load()) / n);
    setMetric(layer, base + ".s", static_cast<double>(t.nanos.load()) * 1e-9 / n);
  }
}

void recordPool(std::vector<Metric>& layer, const PoolDelta& pool, std::size_t jobs) {
  const double n = static_cast<double>(std::max<std::size_t>(jobs, 1));
  setMetric(layer, "pool.task_wait_s",
            pool.tasks == 0 ? 0.0 : pool.waitSeconds / static_cast<double>(pool.tasks));
  setMetric(layer, "pool.tasks", static_cast<double>(pool.tasks) / n);
  setMetric(layer, "pool.queue_max_depth", static_cast<double>(pool.maxQueueDepth));
}

void recordPsr(std::vector<Metric>& layer, const PsrProbe& psr) {
  setMetric(layer, "psr.design_s", psr.designSeconds);
  setMetric(layer, "psr.fit_s", psr.fitSeconds);
  setMetric(layer, "psr.fit_sweeps", static_cast<double>(psr.sweeps));
  setMetric(layer, "psr.design_bytes", psr.designBytes);
}

}  // namespace perfbench
