// serve-mixed: open-loop Poisson traffic into an in-process serve::Server
// over the pipe transport (the same JSONL protocol as `isop_cli --serve`).
//
// Two oracle sessions (S1, S2) take pipeline jobs — half of which
// resubmit an earlier (task, space, seed), so the session memo is read while
// new seeds fill it — interleaved with higher-priority inverse jobs on
// inverse models trained during set-up. Latency runs from each job's due
// time (its scheduled arrival, not the moment the server admitted it) to its
// terminal event, so generator lag and admission delay are inside it. The
// server admits jobs with the deployed default queue capacity.
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "checks.hpp"
#include "common/json.hpp"
#include "core/isop.hpp"
#include "core/simulator_surrogate.hpp"
#include "obs/obs.hpp"
#include "profile.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

namespace core = isop::core;
namespace em = isop::em;
using isop::json::Value;

constexpr std::size_t kWorkers = 2;
/// Nominal open-loop pipeline arrival rate (jobs/s): the least rate that
/// puts 100 jobs, ten beyond the P90, into a 36-second window. That is a
/// quarter to a half of the measured saturated throughput, as the host's
/// speed varies, so queueing stays light; the ladder probes heavier load.
constexpr double kPipelineRate = 2.8;
/// Inverse jobs arrive at the pipeline rate, so their P90 rests on as many
/// samples. They cost the workers little next to a pipeline job.
constexpr double kInverseRate = kPipelineRate;
/// Inverse jobs are the latency-critical class. The queue orders by
/// priority only, so any value above the pipeline default 0 acts the same.
constexpr long long kInversePriority = 1;
constexpr std::size_t kInverseCandidates = 3;
/// Saturating phase: pipeline jobs kept outstanding (both workers busy and
/// two queued, far below the queue capacity), and the completions counted.
constexpr std::size_t kSaturationDepth = kWorkers + 2;
constexpr std::size_t kSaturationJobs = 40;
/// Distinct served pipeline results re-run on the closed-loop path.
constexpr std::size_t kReferenceChecks = 6;
/// Arrival-rate ladder: multiples of the nominal pipeline + inverse mix,
/// and its pass limits.
constexpr double kLadderScales[] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
/// Share of --seconds each ladder rung lasts.
constexpr double kRungShare = 0.06;
constexpr double kPipelineP90Limit = 1.5;
constexpr double kInverseP90Limit = 0.5;

enum class Kind { Pipeline, Inverse };

struct Request {
  std::string id;
  Kind kind = Kind::Pipeline;
  JobKey key;  ///< inverse jobs use task/space, and seed for spec jitter
  double dueOffset = 0.0;  ///< seconds after the phase start
  bool resubmit = false;   ///< pipeline key already submitted earlier
  bool ladder = false;     ///< overload probe: a rejection fails its rung only
};

/// Client-side record of one job.
struct Record {
  Request request;
  Clock::time_point due{};
  Clock::time_point sent{};
  Clock::time_point terminal{};
  std::string outcome;  ///< done|failed|cancelled|rejected; "" while pending
  std::string detail;   ///< error or rejection reason
  double queueWait = 0.0;
  double runSeconds = 0.0;  ///< server-side, start to done
  Value result;             ///< done.result
};

Value requestJson(const Request& r) {
  Value req = Value::object();
  req.set("type", Value::string(r.kind == Kind::Pipeline ? "submit" : "inverse"));
  req.set("id", Value::string(r.id));
  req.set("task", Value::string(r.key.task));
  req.set("space", Value::string(r.key.space));
  req.set("surrogate", Value::string("oracle"));
  req.set("seed", Value::integer(static_cast<long long>(r.key.seed)));
  if (r.kind == Kind::Inverse) {
    req.set("candidates", Value::integer(static_cast<long long>(kInverseCandidates)));
    req.set("priority", Value::integer(kInversePriority));
  }
  return req;
}

double numberAt(const Value& v, std::string_view key) {
  const Value* f = v.find(key);
  return f && f->isNumeric() ? f->asNumber() : 0.0;
}

/// An in-process server on a pair of pipes, plus the client's reader thread.
class ServeClient {
 public:
  ServeClient() {
    if (::pipe(toServer_) != 0 || ::pipe(fromServer_) != 0) {
      throw std::runtime_error("pipe() failed");
    }
    serverIn_ = ::fdopen(toServer_[0], "r");
    serverOut_ = ::fdopen(fromServer_[1], "w");
    if (!serverIn_ || !serverOut_) throw std::runtime_error("fdopen() failed");
    isop::serve::ServerConfig config;  // default queue capacity, as isop_cli --serve
    config.scheduler.workers = kWorkers;
    server_ = std::make_unique<isop::serve::Server>(config, serverIn_, serverOut_);
    serverThread_ = std::thread([this] { server_->run(); });
    reader_ = std::thread([this] { readLoop(); });
  }

  ~ServeClient() {
    try {
      shutdown();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "isop_perfbench: server shutdown failed: %s\n", e.what());
    }
  }

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  void submit(const Request& request, Clock::time_point due) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      Record& record = records_[request.id];
      record.request = request;
      record.due = due;
      record.sent = Clock::now();
    }
    write(requestJson(request));
  }

  /// Returns once every job in `ids` is terminal, or the event stream ended
  /// (its pending jobs then read as failed by the checks).
  void waitFor(const std::vector<std::string>& ids) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] {
      if (streamEnded_) return true;
      for (const std::string& id : ids) {
        if (records_.at(id).outcome.empty()) return false;
      }
      return true;
    });
  }

  /// Returns once at least `count` of the jobs in `ids` are terminal, or the
  /// event stream ended.
  void waitForTerminal(const std::vector<std::string>& ids, std::size_t count) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] {
      std::size_t done = 0;
      for (const std::string& id : ids) done += records_.at(id).outcome.empty() ? 0 : 1;
      return streamEnded_ || done >= count;
    });
  }

  Value stats() {
    std::unique_lock<std::mutex> lock(mutex_);
    stats_.reset();
    lock.unlock();
    Value req = Value::object();
    req.set("type", Value::string("stats"));
    write(req);
    lock.lock();
    cv_.wait(lock, [&] { return stats_.has_value() || streamEnded_; });
    if (!stats_) throw std::runtime_error("server event stream ended before stats");
    return *stats_;
  }

  /// Graceful drain; joins the server and reader threads. Idempotent.
  void shutdown() {
    if (!serverThread_.joinable()) return;
    Value req = Value::object();
    req.set("type", Value::string("shutdown"));
    write(req);
    serverThread_.join();
    ::close(toServer_[1]);
    std::fclose(serverIn_);
    std::fclose(serverOut_);  // EOF for the reader
    reader_.join();
    ::close(fromServer_[0]);
  }

  std::map<std::string, Record> records() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return records_;
  }

  /// Jobs submitted but not yet terminal.
  std::size_t outstanding() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto& [id, record] : records_) n += record.outcome.empty() ? 1 : 0;
    return n;
  }

 private:
  void write(const Value& request) {
    const std::string line = request.dump() + "\n";
    std::lock_guard<std::mutex> lock(writeMutex_);
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::write(toServer_[1], line.data() + off, line.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("write to server failed");
      off += static_cast<std::size_t>(n);
    }
  }

  void readLoop() {
    std::string buffer;
    char chunk[1 << 14];
    for (;;) {
      const ssize_t n = ::read(fromServer_[0], chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t pos;
      while ((pos = buffer.find('\n')) != std::string::npos) {
        if (const auto event = Value::parse(std::string_view(buffer).substr(0, pos))) {
          handle(*event);
        }
        buffer.erase(0, pos + 1);
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    streamEnded_ = true;
    cv_.notify_all();
  }

  void handle(const Value& event) {
    const Value* kind = event.find("event");
    if (!kind || kind->kind() != Value::Kind::String) return;
    const std::string& name = kind->asString();
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    if (name == "stats") {
      stats_ = event;
      cv_.notify_all();
      return;
    }
    const Value* id = event.find("id");
    if (!id || id->kind() != Value::Kind::String) return;
    const auto it = records_.find(id->asString());
    if (it == records_.end()) return;
    Record& record = it->second;
    if (name == "started") {
      record.queueWait = numberAt(event, "queue_wait_seconds");
    } else if ((name == "done" || name == "failed" || name == "cancelled" ||
                name == "rejected") &&
               record.outcome.empty()) {
      record.outcome = name;
      record.terminal = now;
      record.runSeconds = numberAt(event, "run_seconds");
      if (const Value* result = event.find("result")) record.result = *result;
      for (const char* key : {"error", "reason"}) {
        if (const Value* d = event.find(key); d && d->kind() == Value::Kind::String) {
          record.detail = d->asString();
        }
      }
      cv_.notify_all();
    }
  }

  int toServer_[2] = {-1, -1};
  int fromServer_[2] = {-1, -1};
  std::FILE* serverIn_ = nullptr;
  std::FILE* serverOut_ = nullptr;
  std::unique_ptr<isop::serve::Server> server_;
  std::mutex writeMutex_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::string, Record> records_;
  std::optional<Value> stats_;
  bool streamEnded_ = false;
  std::thread serverThread_;
  std::thread reader_;
};

/// Arrival schedules drawn from the workload seed. An open-loop phase
/// merges two Poisson streams (pipeline, inverse), each conditioned on its
/// expected count: round(rate x seconds) arrival times drawn uniformly over
/// the phase. The offered load is then the same for every seed and only the
/// arrival pattern varies.
class TrafficGenerator {
 public:
  explicit TrafficGenerator(std::uint64_t seed) : stream_(seed), rng_(seed, 0x5e7eULL) {}

  std::vector<Request> poisson(const std::string& phase, double seconds,
                               double pipelineRate, double inverseRate) {
    std::vector<Request> schedule;
    for (const double t : arrivals(seconds, pipelineRate)) {
      schedule.push_back(pipeline(phase, t));
    }
    for (const double t : arrivals(seconds, inverseRate)) {
      schedule.push_back(inverse(phase, t));
    }
    std::stable_sort(
        schedule.begin(), schedule.end(),
        [](const Request& a, const Request& b) { return a.dueOffset < b.dueOffset; });
    return schedule;
  }

  /// One pipeline job of the nominal key mix, due `due` seconds into its
  /// phase. Its (task, space) pair follows the job stream's rotation, so
  /// every 8 consecutive pipeline jobs cover each pair once. Each pair
  /// alternates between a new seed, which fills the session memo, and a
  /// resubmit of the pair's latest new key, which reads it: memo reads and
  /// fills are equally likely, and the measured memo-hit share is printed
  /// beside them. Job cost and FoM depend mostly on the pair, and every key
  /// runs at most twice, so the mix varies little from seed to seed.
  Request pipeline(const std::string& phase, double due) {
    Request r;
    r.kind = Kind::Pipeline;
    r.id = phase + "-p" + std::to_string(counter_++);
    r.dueOffset = due;
    const JobKey fresh = stream_.next();
    PairKeys& pair = submitted_[{fresh.task, fresh.space}];
    r.resubmit = pair.jobs++ % 2 == 1;
    r.key = r.resubmit ? pair.latest : fresh;
    pair.latest = r.key;
    return r;
  }

 private:
  std::vector<double> arrivals(double seconds, double rate) {
    std::vector<double> times(static_cast<std::size_t>(std::lround(rate * seconds)));
    for (double& t : times) t = rng_.uniform() * seconds;
    std::sort(times.begin(), times.end());
    return times;
  }

  Request inverse(const std::string& phase, double due) {
    static const char* const kTasks[] = {"T1", "T2", "T3", "T4"};
    Request r;
    r.kind = Kind::Inverse;
    r.id = phase + "-i" + std::to_string(counter_++);
    r.dueOffset = due;
    r.key.task = kTasks[inverseCount_ % 4];
    r.key.space = inverseCount_ % 2 == 0 ? "S1" : "S2";
    r.key.seed = 1 + rng_.below(1000000);
    ++inverseCount_;
    return r;
  }

  JobStream stream_;
  isop::Rng rng_;
  struct PairKeys {
    JobKey latest;         ///< the pair's latest new key
    std::size_t jobs = 0;  ///< pipeline jobs of the pair so far
  };
  std::map<std::pair<std::string, std::string>, PairKeys> submitted_;
  std::size_t counter_ = 0;
  std::size_t inverseCount_ = 0;
};

struct Played {
  std::vector<std::string> ids;
  std::size_t backlog = 0;  ///< jobs not yet terminal when arrivals ended
};

/// Submits `schedule` on time from this (the single generator) thread over
/// a phase of `seconds`, then waits for every job's terminal event.
Played play(ServeClient& client, const std::vector<Request>& schedule, double seconds) {
  const auto start = Clock::now();
  const auto at = [start](double offset) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset));
  };
  Played played;
  for (const Request& r : schedule) {
    const auto due = at(r.dueOffset);
    std::this_thread::sleep_until(due);
    client.submit(r, due);
    played.ids.push_back(r.id);
  }
  std::this_thread::sleep_until(at(seconds));
  played.backlog = client.outstanding();
  client.waitFor(played.ids);
  return played;
}

struct Saturated {
  std::vector<std::string> ids;
  std::size_t counted = 0;  ///< completions the throughput covers
  double throughput = 0.0;  ///< completions per wall second, workers busy
};

/// Saturating phase: keeps kSaturationDepth pipeline jobs outstanding,
/// submitting one whenever one ends, until kSaturationJobs + depth were sent.
/// Throughput is kSaturationJobs completions divided by the wall time from
/// the first submission to the last of them. Until that completion the workers never
/// wait for work; the last `depth` jobs then drain uncounted.
Saturated saturate(ServeClient& client, TrafficGenerator& traffic) {
  Saturated sat;
  const auto start = Clock::now();
  const auto send = [&] {
    const Request r = traffic.pipeline("saturate", 0.0);
    client.submit(r, Clock::now());
    sat.ids.push_back(r.id);
  };
  for (std::size_t i = 0; i < kSaturationDepth; ++i) send();
  while (sat.ids.size() < kSaturationJobs + kSaturationDepth) {
    client.waitForTerminal(sat.ids, sat.ids.size() - kSaturationDepth + 1);
    send();
  }
  client.waitFor(sat.ids);
  const std::map<std::string, Record> records = client.records();
  std::vector<Clock::time_point> ends;  // completions only: a refusal did no work
  for (const std::string& id : sat.ids) {
    if (records.at(id).outcome == "done") ends.push_back(records.at(id).terminal);
  }
  std::sort(ends.begin(), ends.end());
  sat.counted = std::min(kSaturationJobs, ends.size());
  const double wall =
      sat.counted == 0 ? 0.0 : secondsBetween(start, ends[sat.counted - 1]);
  sat.throughput = wall > 0.0 ? static_cast<double>(sat.counted) / wall : 0.0;
  return sat;
}

/// The `ranked` designs of a done.result; empty if any entry is malformed.
std::vector<ReportedDesign> rankedDesigns(const Value& result) {
  std::vector<ReportedDesign> designs;
  const Value* ranked = result.find("ranked");
  if (!ranked || !ranked->isArray()) return designs;
  for (std::size_t i = 0; i < ranked->size(); ++i) {
    ReportedDesign d;
    if (!reportedFrom(ranked->at(i), d)) return {};
    designs.push_back(d);
  }
  return designs;
}

/// Client-side figures of one phase.
struct PhaseStats {
  std::size_t sent = 0, completed = 0, failed = 0, rejected = 0;
  std::size_t pipeline = 0, resubmits = 0;
  std::vector<double> pipelineLatency, inverseLatency, queueWait, runSeconds, lag;
  std::vector<double> inverseSolve, foms;
  std::size_t feasible = 0;
  double samples = 0.0;  ///< sum of pipeline avg_samples
  double rows = 0.0, memoHits = 0.0, emCalls = 0.0;
};

PhaseStats summarize(const std::map<std::string, Record>& records,
                     const std::vector<std::string>& ids) {
  PhaseStats s;
  for (const std::string& id : ids) {
    const Record& r = records.at(id);
    ++s.sent;
    s.lag.push_back(secondsBetween(r.due, r.sent));
    if (r.request.kind == Kind::Pipeline) {
      ++s.pipeline;
      s.resubmits += r.request.resubmit ? 1 : 0;
    }
    if (r.outcome == "rejected") ++s.rejected;
    if (r.outcome != "done") {
      if (r.outcome != "rejected") ++s.failed;
      continue;
    }
    ++s.completed;
    s.queueWait.push_back(r.queueWait);
    const double latency = secondsBetween(r.due, r.terminal);
    if (r.request.kind == Kind::Inverse) {
      s.inverseLatency.push_back(latency);
      s.inverseSolve.push_back(numberAt(r.result, "solve_seconds"));
      continue;
    }
    s.pipelineLatency.push_back(latency);
    s.runSeconds.push_back(r.runSeconds);
    s.samples += numberAt(r.result, "avg_samples");
    if (const Value* eval = r.result.find("eval")) {
      s.rows += numberAt(*eval, "rows");
      s.memoHits += numberAt(*eval, "memo_hits");
      s.emCalls += numberAt(*eval, "em_calls");
    }
    const std::vector<ReportedDesign> ranked = rankedDesigns(r.result);
    if (!ranked.empty()) {
      s.feasible += ranked.front().feasible ? 1 : 0;
      s.foms.push_back(ranked.front().fom);
    }
  }
  return s;
}

bool sameRanking(const std::vector<ReportedDesign>& a,
                 const std::vector<ReportedDesign>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!sameDesign(a[i], b[i])) return false;
  }
  return true;
}

/// Output checks over every job of the run: terminal state, EM re-simulation
/// of each pipeline job's best design, resubmits equal to the first result
/// of their key, inverse designs encodable and re-simulated, and the first
/// kReferenceChecks distinct pipeline keys equal to a closed-loop run.
void checkAll(const std::map<std::string, Record>& records, Outcome& out) {
  std::map<JobKey, std::vector<ReportedDesign>> firstByKey;
  std::vector<JobKey> referenceKeys;
  // In submission order, so a key's first result is its earliest one.
  std::vector<const Record*> ordered;
  for (const auto& [id, r] : records) ordered.push_back(&r);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Record* a, const Record* b) { return a->sent < b->sent; });
  for (const Record* r : ordered) {
    ++out.attempted;
    const std::string& id = r->request.id;
    // Refusing an overload probe is an admission answer, which fails its
    // ladder rung (see measureLayers), not a wrong output.
    if (r->request.ladder && r->outcome == "rejected") continue;
    if (r->outcome != "done") {
      ++out.failed;
      const std::string outcome = r->outcome.empty() ? "no terminal event" : r->outcome;
      out.problems.push_back(id + ": " + outcome + " (" + r->detail + ")");
      continue;
    }
    const core::Task task = core::taskByName(r->request.key.task);
    const std::vector<ReportedDesign> ranked = rankedDesigns(r->result);
    std::string why = ranked.empty() ? "result has no ranked designs" : "";
    if (why.empty() && r->request.kind == Kind::Inverse) {
      const em::ParameterSpace space = em::spaceByName(r->request.key.space);
      const core::ObjectiveWeights weights = core::Objective(task.spec).weights();
      for (const ReportedDesign& d : ranked) {
        why = checkEncodable(space, d.params);
        if (why.empty()) why = checkDesign(task, d, &weights);
        if (!why.empty()) break;
      }
    } else if (why.empty()) {
      why = checkDesign(task, ranked.front(), nullptr);
      const auto [it, fresh] = firstByKey.emplace(r->request.key, ranked);
      if (fresh && referenceKeys.size() < kReferenceChecks) {
        referenceKeys.push_back(r->request.key);
      }
      if (why.empty() && !fresh && !sameRanking(it->second, ranked)) {
        why = "resubmitted " + r->request.key.str() + " returned different designs";
      }
    }
    if (!why.empty()) {
      ++out.failed;
      out.problems.push_back(id + ": " + why);
    }
  }
  for (const JobKey& key : referenceKeys) {
    em::EmSimulator simulator;
    core::IsopConfig config;
    config.harmonica.samplesPerIter = kBudget;  // the submit default
    config.seed = key.seed;
    const core::IsopOptimizer optimizer(
        simulator, std::make_shared<core::SimulatorSurrogate>(simulator),
        em::spaceByName(key.space), core::taskByName(key.task), config);
    std::vector<ReportedDesign> expected;
    for (const core::IsopCandidate& c : optimizer.run().candidates) {
      expected.push_back(reportedFrom(c));
    }
    if (!sameRanking(expected, firstByKey.at(key))) {
      ++out.failed;
      out.problems.push_back(key.str() + ": served designs differ from closed loop");
    }
  }
}

/// Histogram mean / counter value out of a stats event's metrics snapshot.
double statsMetric(const Value& stats, const char* group, const char* name,
                   const char* field = nullptr) {
  const Value* metrics = stats.find("metrics");
  const Value* g = metrics ? metrics->find(group) : nullptr;
  const Value* m = g ? g->find(name) : nullptr;
  if (!m) return 0.0;
  if (field) return numberAt(*m, field);
  return m->isNumeric() ? m->asNumber() : 0.0;
}

void printPhase(const char* name, const PhaseStats& s) {
  std::printf(
      "%s: sent %zu completed %zu failed %zu rejected %zu | pipeline p50 %.4f p90 %.4f s "
      "(n=%zu) | inverse p50 %.4f p90 %.4f s (n=%zu) | gen lag p90 %.5f s | "
      "resubmits %zu/%zu, memo hits %.3f of rows\n",
      name, s.sent, s.completed, s.failed, s.rejected, quantile(s.pipelineLatency, 0.5),
      quantile(s.pipelineLatency, 0.9), s.pipelineLatency.size(),
      quantile(s.inverseLatency, 0.5), quantile(s.inverseLatency, 0.9),
      s.inverseLatency.size(), quantile(s.lag, 0.9), s.resubmits, s.pipeline,
      s.rows == 0 ? 0.0 : s.memoHits / s.rows);
}

/// Set-up, repeated kSetupRepeats times: a fresh server, then one inverse
/// job per session, which creates the session and trains its inverse model.
/// The sessions go one after the other: two trainings at once would contend
/// for the pool and make set-up time noisy. Returns the last server.
std::unique_ptr<ServeClient> setUp(const Options& options, std::vector<double>& times,
                                   Outcome& out) {
  std::unique_ptr<ServeClient> client;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    if (client) client->shutdown();
    const auto start = rep == 0 ? options.processStart : Clock::now();
    client = std::make_unique<ServeClient>();
    for (const char* space : {"S1", "S2"}) {
      Request r;
      r.kind = Kind::Inverse;
      r.id = "setup" + std::to_string(rep) + "-" + space;
      r.key = {"T1", space, 1};
      client->submit(r, Clock::now());
      client->waitFor({r.id});
    }
    times.push_back(secondsSince(start));
    for (const auto& [id, r] : client->records()) {
      if (r.outcome != "done") out.problems.push_back(id + ": set-up job " + r.outcome);
    }
  }
  std::printf("setup: %zu repeats, median %.4f s\n", times.size(), median(times));
  return client;
}

/// End-to-end metrics: one nominal window of `seconds`, then the saturating
/// phase for throughput, tracing off.
void measureEndToEnd(ServeClient& client, TrafficGenerator& traffic, double seconds,
                     Outcome& out) {
  const auto schedule = traffic.poisson("nominal", seconds, kPipelineRate, kInverseRate);
  const Played played = play(client, schedule, seconds);
  const PhaseStats n = summarize(client.records(), played.ids);
  printPhase("nominal", n);
  std::printf("inverse_latency_s.p50 %.5f s, inverse_latency_s.p90 %.5f s\n",
              quantile(n.inverseLatency, 0.5), quantile(n.inverseLatency, 0.9));
  out.endToEnd.push_back({"latency_s.p50", quantile(n.pipelineLatency, 0.5), "s"});
  out.endToEnd.push_back({"latency_s.p90", quantile(n.pipelineLatency, 0.9), "s"});
  // Below saturation, completions per wall second only echo the offered
  // rate, so throughput comes from the saturating phase.
  const auto start = Clock::now();
  const Saturated sat = saturate(client, traffic);
  printPhase("saturate", summarize(client.records(), sat.ids));
  std::printf("saturate: %zu completions at %.4f jobs/s (%.2f s)\n", sat.counted,
              sat.throughput, secondsSince(start));
  out.endToEnd.push_back({"throughput_jobs_per_s", sat.throughput, "1/s"});
  const double ranked = static_cast<double>(n.foms.size());
  const double success = ranked == 0 ? 0.0 : static_cast<double>(n.feasible) / ranked;
  out.endToEnd.push_back({"success_rate", success, "ratio"});
  out.endToEnd.push_back({"fom_mean", mean(n.foms), "1"});
}

/// Per-layer metrics: the arrival-rate ladder and a nominal window with
/// tracing off, then a nominal window with tracing on.
void measureLayers(ServeClient& client, TrafficGenerator& traffic, const Options& options,
                   const Value& setupStats, Outcome& out) {
  std::vector<Metric>& layer = out.perLayer;
  layer = perLayerTemplate();
  const double w = options.seconds;
  // 1. The ladder: the highest rung whose pipeline and inverse P90 stay
  // within their limits, with no failed or rejected job and no backlog
  // beyond what the pipeline limit allows when its arrivals stop.
  double maxRate = 0.0;
  std::size_t rejected = 0;
  for (const double scale : kLadderScales) {
    const double rate = scale * (kPipelineRate + kInverseRate);
    const std::string name = "rung" + std::to_string(static_cast<int>(scale * 10));
    const auto start = Clock::now();
    std::vector<Request> schedule = traffic.poisson(
        name, kRungShare * w, scale * kPipelineRate, scale * kInverseRate);
    for (Request& r : schedule) r.ladder = true;
    const Played played = play(client, schedule, kRungShare * w);
    const PhaseStats s = summarize(client.records(), played.ids);
    rejected += s.rejected;
    // A job that arrives just after the rung would wait behind the backlog:
    // the workers clear kWorkers jobs per median run time, so a backlog
    // above what they clear within the pipeline limit means the queue grew.
    const double runP50 = quantile(s.runSeconds, 0.5);
    const auto backlogLimit = static_cast<std::size_t>(
        runP50 > 0.0 ? kWorkers * kPipelineP90Limit / runP50 : 0.0);
    const bool pass = s.failed == 0 && s.rejected == 0 &&
                      quantile(s.pipelineLatency, 0.9) <= kPipelineP90Limit &&
                      quantile(s.inverseLatency, 0.9) <= kInverseP90Limit &&
                      played.backlog <= backlogLimit;
    std::printf("ladder rate %.1f/s: backlog %zu (limit %zu), %s (%.2f s)\n", rate,
                played.backlog, backlogLimit, pass ? "pass" : "FAIL",
                secondsSince(start));
    printPhase(("  " + name).c_str(), s);
    if (!pass) break;
    maxRate = rate;
  }

  // 2. Nominal mix, untraced: the serve-layer figures and the overhead base.
  const double window = 0.3 * w;
  const Value before = client.stats();
  const Played plainRun = play(
      client, traffic.poisson("plain", window, kPipelineRate, kInverseRate), window);
  const Value after = client.stats();
  const PhaseStats plain = summarize(client.records(), plainRun.ids);
  printPhase("nominal untraced", plain);

  // 3. Nominal mix, traced: the stage tree under serve.job.run.
  isop::obs::Tracer& tracer = isop::obs::tracer();
  tracer.clear();
  tracer.setEnabled(true);
  PoolWatch pool;
  const Played tracedRun = play(
      client, traffic.poisson("traced", window, kPipelineRate, kInverseRate), window);
  const PoolDelta poolDelta = pool.stop();
  tracer.setEnabled(false);
  const SpanProfile profile = buildSpanProfile(tracer.events(), "isop.run");
  tracer.clear();
  const PhaseStats traced = summarize(client.records(), tracedRun.ids);
  printPhase("nominal traced", traced);

  em::EmSimulator psrSimulator;
  const core::SimulatorSurrogate oracle(psrSimulator);
  recordPsr(layer, probePsr({"T1", "S1", 1}, oracle, kBudget, options.seed));
  recordStageProfile(layer, profile, traced.pipelineLatency.size());
  recordPool(layer, poolDelta, traced.pipelineLatency.size());
  // The done.result `eval` block carries rows, memo hits and EM calls only.
  const double jobs =
      static_cast<double>(std::max<std::size_t>(plain.pipelineLatency.size(), 1));
  setMetric(layer, "eval.rows", plain.rows / jobs);
  setMetric(layer, "em.sim_calls", plain.emCalls / jobs);
  setMetric(layer, "trace.overhead",
            quantile(traced.pipelineLatency, 0.5) / quantile(plain.pipelineLatency, 0.5));
  setMetric(layer, "serve.queue_wait_s.p50", quantile(plain.queueWait, 0.5));
  setMetric(layer, "serve.queue_wait_s.p90", quantile(plain.queueWait, 0.9));
  setMetric(layer, "serve.run_s.p50", quantile(plain.runSeconds, 0.5));
  setMetric(layer, "serve.rejected",
            static_cast<double>(rejected + plain.rejected + traced.rejected));
  setMetric(layer, "serve.session.memo_hit_rate",
            plain.rows == 0 ? 0.0 : plain.memoHits / plain.rows);
  const double billed = statsMetric(after, "counters", "surrogate.queries") -
                        statsMetric(before, "counters", "surrogate.queries");
  setMetric(layer, "serve.samples_billed_ratio",
            billed > 0 ? plain.samples / billed : 0.0);
  setMetric(layer, "gen.lag_s.p90", quantile(plain.lag, 0.9));
  setMetric(layer, "serve.max_rate_jobs_per_s", maxRate);
  setMetric(layer, "serve.inverse_latency_s.p50", quantile(plain.inverseLatency, 0.5));
  setMetric(layer, "serve.inverse_latency_s.p90", quantile(plain.inverseLatency, 0.9));
  setMetric(layer, "inverse.solve_s.p50", quantile(plain.inverseSolve, 0.5));
  setMetric(layer, "inverse.train_s",
            statsMetric(setupStats, "histograms", "serve.inverse.train.seconds", "mean"));
}

}  // namespace

Outcome runServeMixed(const Options& options) {
  Outcome out;
  std::vector<double> setupTimes;
  const std::unique_ptr<ServeClient> client = setUp(options, setupTimes, out);
  const Value setupStats = client->stats();
  out.endToEnd.push_back({"setup_s", median(setupTimes), "s"});

  TrafficGenerator traffic(options.seed);
  if (options.trace) {
    measureLayers(*client, traffic, options, setupStats, out);
  } else {
    measureEndToEnd(*client, traffic, options.seconds, out);
    out.endToEnd.push_back({"peak_rss_mb", peakRssMb(), "MB"});
  }
  client->shutdown();
  std::map<std::string, Record> measured;
  for (auto& [id, r] : client->records()) {
    if (id.rfind("setup", 0) != 0) measured.emplace(id, std::move(r));
  }
  checkAll(measured, out);
  return out;
}

}  // namespace perfbench
