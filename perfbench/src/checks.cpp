#include "checks.hpp"

#include <cmath>
#include <sstream>

#include "em/simulator.hpp"
#include "hpo/binary_codec.hpp"

namespace perfbench {

namespace em = isop::em;
using isop::json::Value;

ReportedDesign reportedFrom(const isop::core::IsopCandidate& candidate) {
  return {candidate.params, candidate.metrics, candidate.g, candidate.fom,
          candidate.feasible};
}

bool reportedFrom(const Value& entry, ReportedDesign& out) {
  const Value* params = entry.find("params");
  const Value* metrics = entry.find("metrics");
  const Value* g = entry.find("g");
  const Value* fom = entry.find("fom");
  const Value* feasible = entry.find("feasible");
  if (!params || !metrics || !g || !fom || !feasible) return false;
  const auto names = em::paramNames();
  for (std::size_t i = 0; i < em::kNumParams; ++i) {
    const Value* v = params->find(names[i]);
    if (!v || !v->isNumeric()) return false;
    out.params.values[i] = v->asNumber();
  }
  const Value* z = metrics->find("Z_ohm");
  const Value* l = metrics->find("L_dB_per_inch");
  const Value* next = metrics->find("NEXT_mV");
  if (!z || !l || !next || !g->isNumeric() || !fom->isNumeric()) return false;
  out.metrics = {z->asNumber(), l->asNumber(), next->asNumber()};
  out.g = g->asNumber();
  out.fom = fom->asNumber();
  out.feasible = feasible->asBool();
  return true;
}

std::string checkDesign(const isop::core::Task& task, const ReportedDesign& design,
                        const isop::core::ObjectiveWeights* weights) {
  const em::EmSimulator simulator;
  const em::PerformanceMetrics m = simulator.simulate(design.params);
  isop::core::Objective objective(task.spec);
  if (weights) objective.weights() = *weights;
  std::ostringstream why;
  why.precision(17);
  const em::PerformanceMetrics& r = design.metrics;
  if (m.z != r.z || m.l != r.l || m.next != r.next) {
    why << "re-simulated metrics (" << m.z << ", " << m.l << ", " << m.next
        << ") differ from reported (" << r.z << ", " << r.l << ", " << r.next << ")";
  } else if (objective.fomValue(m) != design.fom) {
    why << "recomputed FoM " << objective.fomValue(m) << " != reported " << design.fom;
  } else if (objective.feasible(m, design.params) != design.feasible) {
    why << "recomputed feasibility differs from reported";
  } else if (weights && objective.gValue(m, design.params) != design.g) {
    why << "recomputed g " << objective.gValue(m, design.params) << " != reported "
        << design.g;
  }
  return why.str();
}

std::string checkEncodable(const em::ParameterSpace& space,
                           const em::StackupParams& params) {
  const isop::hpo::BinaryCodec codec(space);
  const auto decoded = codec.decode(codec.encode(params));
  if (!decoded) return "design does not encode into the space's bit coding";
  for (std::size_t i = 0; i < em::kNumParams; ++i) {
    const double a = decoded->values[i];
    const double b = params.values[i];
    if (std::abs(a - b) > 1e-9 * std::max(1.0, std::abs(b))) {
      return "design is off the space grid at parameter " + std::to_string(i);
    }
  }
  return "";
}

bool sameDesign(const ReportedDesign& a, const ReportedDesign& b) {
  return a.params.values == b.params.values && a.metrics.z == b.metrics.z &&
         a.metrics.l == b.metrics.l && a.metrics.next == b.metrics.next && a.g == b.g &&
         a.fom == b.fom && a.feasible == b.feasible;
}

}  // namespace perfbench
