// isop_perfbench — the repository's end-to-end benchmark program.
//
//   isop_perfbench --workload oracle-pipeline|cnn-pipeline|serve-mixed
//                  --seed N --seconds S --trace 0|1
//
// Runs one workload for about S seconds after its set-up and prints a
// human-readable summary followed, as the last line, by one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
// --trace 0 reports the end-to-end metrics (timed with tracing off);
// --trace 1 reports the per-layer metrics of a traced run. Workload choice
// and the layer-to-metric map are documented in perfbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <numeric>
#include <string>

#include "bench.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"

namespace perfbench {

JobKey JobStream::next() {
  static const char* const kTasks[] = {"T1", "T2", "T3", "T4"};
  static const char* const kSpaces[] = {"S1", "S2"};
  JobKey key;
  key.task = kTasks[index_ % 4];
  key.space = kSpaces[(index_ / 4) % 2];
  key.seed = 1 + rng_.below(1000000);
  ++index_;
  return key;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "isop_perfbench: %s\n"
               "usage: isop_perfbench\n"
               "    --workload oracle-pipeline|cnn-pipeline|serve-mixed\n"
               "    --seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

void printTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  options.processStart = Clock::now();
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
        options.trace = value == "1";
        haveTrace = true;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!haveTrace || options.seconds <= 0.0) {
    return usage("--seconds and --trace are required");
  }
  isop::log::setLevel(isop::log::Level::Warn);

  Outcome outcome;
  try {
    if (options.workload == "oracle-pipeline" || options.workload == "cnn-pipeline") {
      outcome = runClosedLoop(options);
    } else if (options.workload == "serve-mixed") {
      outcome = runServeMixed(options);
    } else {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "isop_perfbench: %s\n", e.what());
    return 1;
  }

  const std::vector<Metric>& reported =
      options.trace ? outcome.perLayer : outcome.endToEnd;
  if (!options.trace) {
    std::vector<Metric> table = outcome.endToEnd;
    table.push_back({"fail_rate",
                     outcome.attempted == 0 ? 0.0
                                            : static_cast<double>(outcome.failed) /
                                                  static_cast<double>(outcome.attempted),
                     "ratio"});
    printTable("end-to-end metrics:", table);
  } else {
    printTable("per-layer metrics (traced run):", reported);
  }
  for (const std::string& problem : outcome.problems) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  }

  using isop::json::Value;
  Value metrics = Value::object();
  for (const Metric& m : reported) {
    Value entry = Value::object();
    entry.set("value", Value::number(m.value));
    entry.set("unit", Value::string(m.unit));
    metrics.set(m.name, std::move(entry));
  }
  Value result = Value::object();
  result.set("correct", Value::boolean(outcome.problems.empty()));
  result.set("attempted", Value::integer(static_cast<long long>(outcome.attempted)));
  result.set("failed", Value::integer(static_cast<long long>(outcome.failed)));
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
