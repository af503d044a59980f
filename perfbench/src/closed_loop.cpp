// Closed-loop pipeline workloads (oracle-pipeline, cnn-pipeline): one client
// runs back-to-back isop_cli-style jobs — a fresh simulator, optimizer and
// eval engine per job — through the public IsopOptimizer API.
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "checks.hpp"
#include "core/isop.hpp"
#include "core/simulator_surrogate.hpp"
#include "data/dataset_gen.hpp"
#include "ml/neural_regressor.hpp"
#include "ml/output_transform.hpp"
#include "obs/obs.hpp"
#include "profile.hpp"

namespace perfbench {

namespace {

namespace core = isop::core;
namespace em = isop::em;
namespace ml = isop::ml;

/// success_rate and fom_mean are taken over this many leading jobs of the
/// stream, so that they repeat exactly for a seed with a deterministic
/// surrogate however many jobs the window fits.
constexpr std::size_t kQualityJobs = 80;
/// Minimum share of each isop.run span covered by its nested spans.
constexpr double kMinCoverage = 0.90;

/// Seed of the CNN's training data, initial weights and batch order. It is
/// fixed rather than taken from the workload seed: a CNN trained for about
/// a second has a success rate that swings with its training seed,
/// which would swamp the job stream's own variation in success_rate and
/// fom_mean.
constexpr std::uint64_t kCnnSeed = 1;

/// A small 1D-CNN trained in process on a few thousand envelope designs for
/// a few epochs: a cost profile for the surrogate-in-the-loop path (per-row
/// Hyperband scoring, small Adam gradient batches), not an accurate model.
/// It is narrower than the library default (Cnn1dConfig{}), which costs
/// about 3x more per job in model calls but, trained within a set-up
/// budget, finds a feasible design in only about 60% of jobs; that made
/// success_rate spread 24% across seeds. Never touches the on-disk model
/// cache.
std::shared_ptr<const ml::Surrogate> trainCnn(std::uint64_t seed) {
  em::EmSimulator simulator;
  isop::data::GenerationConfig gen;
  gen.samples = 6000;
  gen.seed = seed;
  const ml::Dataset data =
      isop::data::generateDataset(simulator, em::designerEnvelope(), gen);
  ml::Cnn1dConfig arch;
  arch.expandChannels = 8;
  arch.expandLength = 16;
  arch.convChannels = 16;
  arch.headHidden = 48;
  arch.dropout = 0.0;
  arch.initSeed = seed;
  auto model = std::make_shared<ml::Cnn1dRegressor>(arch);
  model->setOutputTransforms(ml::metricLogTransforms());
  ml::nn::TrainConfig train;
  train.epochs = 5;
  train.learningRate = 1e-2;
  train.lrDecay = 0.9;
  train.seed = seed;
  model->fit(data, train);
  return model;
}

struct Phase {
  std::vector<JobKey> keys;
  std::vector<core::IsopResult> results;
  std::vector<double> latencies;
  double wallSeconds = 0.0;
};

class ClosedLoop {
 public:
  ClosedLoop(const Options& options, bool cnn) : options_(options), cnn_(cnn) {}

  Outcome run();

 private:
  core::IsopResult runJob(const JobKey& key, bool counting) const;
  /// Runs jobs for `seconds`: the keys of `replay` in order when given,
  /// else fresh keys from `stream`.
  Phase runPhase(JobStream& stream, double seconds, bool counting, Outcome& out,
                 const std::vector<JobKey>* replay = nullptr) const;
  void checkPhase(const Phase& phase, Outcome& out) const;

  const Options& options_;
  bool cnn_;
  std::shared_ptr<const ml::Surrogate> model_;  ///< the CNN; null = oracle
  std::shared_ptr<SurrogateTallies> tallies_ = std::make_shared<SurrogateTallies>();
};

core::IsopResult ClosedLoop::runJob(const JobKey& key, bool counting) const {
  isop::obs::Span span("perfbench.job");
  em::EmSimulator simulator;
  std::shared_ptr<const ml::Surrogate> surrogate =
      model_ ? model_ : std::make_shared<core::SimulatorSurrogate>(simulator);
  if (counting) {
    surrogate = std::make_shared<CountingSurrogate>(std::move(surrogate), tallies_);
  }
  core::IsopConfig config;
  config.harmonica.samplesPerIter = kBudget;
  config.seed = key.seed;
  const core::IsopOptimizer optimizer(simulator, std::move(surrogate),
                                      em::spaceByName(key.space),
                                      core::taskByName(key.task), config);
  return optimizer.run();
}

Phase ClosedLoop::runPhase(JobStream& stream, double seconds, bool counting, Outcome& out,
                           const std::vector<JobKey>* replay) const {
  Phase phase;
  const auto start = Clock::now();
  for (std::size_t i = 0; secondsSince(start) < seconds; ++i) {
    if (replay && i == replay->size()) break;
    const JobKey key = replay ? (*replay)[i] : stream.next();
    ++out.attempted;
    const auto jobStart = Clock::now();
    try {
      core::IsopResult result = runJob(key, counting);
      phase.latencies.push_back(secondsSince(jobStart));
      phase.keys.push_back(key);
      phase.results.push_back(std::move(result));
    } catch (const std::exception& e) {
      ++out.failed;
      out.problems.push_back(key.str() + ": job threw: " + e.what());
    }
  }
  phase.wallSeconds = secondsSince(start);
  return phase;
}

void ClosedLoop::checkPhase(const Phase& phase, Outcome& out) const {
  for (std::size_t i = 0; i < phase.results.size(); ++i) {
    const core::IsopResult& result = phase.results[i];
    const core::Task task = core::taskByName(phase.keys[i].task);
    const std::string why =
        result.candidates.empty()
            ? "no candidates returned"
            : checkDesign(task, reportedFrom(result.best()), &result.finalWeights);
    if (!why.empty()) {
      ++out.failed;
      out.problems.push_back(phase.keys[i].str() + ": " + why);
    }
  }
}

Outcome ClosedLoop::run() {
  Outcome out;
  std::vector<double> setupTimes;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    const auto start = rep == 0 ? options_.processStart : Clock::now();
    if (cnn_) model_ = trainCnn(kCnnSeed);
    (void)runJob({"T1", "S1", 1}, false);  // warm-up: pool threads, allocator
    setupTimes.push_back(secondsSince(start));
  }
  std::printf("setup: %zu repeats, median %.4f s\n", setupTimes.size(),
              median(setupTimes));

  JobStream stream(options_.seed);
  const double window = options_.trace ? options_.seconds / 2 : options_.seconds;
  const Phase plain = runPhase(stream, window, false, out);
  checkPhase(plain, out);
  std::printf("untraced: %zu jobs in %.3f s\n", plain.results.size(), plain.wallSeconds);

  const std::size_t quality = std::min(kQualityJobs, plain.results.size());
  std::size_t successes = 0;
  std::vector<double> foms;
  for (std::size_t i = 0; i < quality; ++i) {
    successes += plain.results[i].best().feasible ? 1 : 0;
    foms.push_back(plain.results[i].best().fom);
  }
  const double n = static_cast<double>(plain.results.size());
  out.endToEnd.push_back({"setup_s", median(setupTimes), "s"});
  out.endToEnd.push_back({"latency_s.p50", quantile(plain.latencies, 0.5), "s"});
  out.endToEnd.push_back({"latency_s.p90", quantile(plain.latencies, 0.9), "s"});
  out.endToEnd.push_back({"throughput_jobs_per_s", n / plain.wallSeconds, "1/s"});
  out.endToEnd.push_back(
      {"success_rate",
       quality == 0 ? 0.0 : static_cast<double>(successes) / static_cast<double>(quality),
       "ratio"});
  out.endToEnd.push_back({"fom_mean", mean(foms), "1"});
  out.endToEnd.push_back({"peak_rss_mb", peakRssMb(), "MB"});
  if (!options_.trace) return out;

  // Traced run: the stage tree from the obs span sink, the surrogate through
  // the counting decorator, the global pool's counters, and the PSR probe.
  std::vector<Metric>& layer = out.perLayer;
  layer = perLayerTemplate();
  isop::obs::Tracer& tracer = isop::obs::tracer();
  tracer.clear();
  tracer.setEnabled(true);
  PoolWatch pool;
  // The same jobs as the untraced phase, so trace.overhead compares like
  // with like.
  const Phase traced = runPhase(stream, options_.seconds / 2, true, out, &plain.keys);
  const PoolDelta poolDelta = pool.stop();
  em::EmSimulator psrSimulator;
  const core::SimulatorSurrogate oracle(psrSimulator);
  const PsrProbe psr =
      probePsr({"T1", "S1", 1}, model_ ? *model_ : oracle, kBudget, options_.seed);
  tracer.setEnabled(false);
  const SpanProfile profile = buildSpanProfile(tracer.events(), "isop.run");
  if (tracer.droppedEvents() > 0) {
    out.problems.push_back("trace sink dropped " +
                           std::to_string(tracer.droppedEvents()) + " events");
  }
  tracer.clear();
  checkPhase(traced, out);
  std::printf("traced: %zu jobs in %.3f s\n", traced.results.size(), traced.wallSeconds);

  const std::size_t jobs = traced.results.size();
  recordStageProfile(layer, profile, jobs);
  recordSurrogateTallies(layer, *tallies_, jobs);
  recordPool(layer, poolDelta, jobs);
  recordPsr(layer, psr);
  core::EvalEngineStats eval;
  double simCalls = 0.0;
  for (const core::IsopResult& r : traced.results) {
    const core::EvalEngineStats& s = r.evalStats;
    eval.rows += s.rows;
    eval.modelRows += s.modelRows;
    eval.memoHits += s.memoHits;
    eval.dedupedRows += s.dedupedRows;
    eval.batches += s.batches;
    eval.gradBatches += s.gradBatches;
    eval.gradRows += s.gradRows;
    simCalls += static_cast<double>(r.simulatorCalls);
  }
  const double perJob = 1.0 / static_cast<double>(std::max<std::size_t>(jobs, 1));
  setMetric(layer, "eval.rows", static_cast<double>(eval.rows) * perJob);
  setMetric(layer, "eval.model_rows", static_cast<double>(eval.modelRows) * perJob);
  setMetric(layer, "eval.memo_hit_rate", eval.hitRate());
  setMetric(layer, "eval.dedup_ratio", eval.dedupRatio());
  setMetric(layer, "eval.batches", static_cast<double>(eval.batches) * perJob);
  setMetric(layer, "eval.grad_batches", static_cast<double>(eval.gradBatches) * perJob);
  setMetric(layer, "eval.grad_rows", static_cast<double>(eval.gradRows) * perJob);
  setMetric(layer, "em.sim_calls", simCalls * perJob);
  const std::vector<double> matched(plain.latencies.begin(),
                                    plain.latencies.begin() + traced.latencies.size());
  setMetric(layer, "trace.overhead",
            quantile(traced.latencies, 0.5) / quantile(matched, 0.5));

  if (profile.rootCoverage.empty()) {
    out.problems.push_back("traced run recorded no isop.run spans");
  } else {
    for (std::size_t i = 0; i < profile.rootCoverage.size(); ++i) {
      if (profile.rootCoverage[i] < kMinCoverage) {
        out.problems.push_back("span coverage of isop.run #" + std::to_string(i) +
                               " is " + std::to_string(profile.rootCoverage[i]) +
                               " < 0.90");
      }
    }
  }
  return out;
}

}  // namespace

Outcome runClosedLoop(const Options& options) {
  return ClosedLoop(options, options.workload == "cnn-pipeline").run();
}

}  // namespace perfbench
