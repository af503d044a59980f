// Output checks: every design a job returns is re-simulated with the EM
// simulator and its objective figures recomputed with core::Objective;
// inverse designs must also encode through hpo::BinaryCodec. Each check
// returns "" on success or a one-line description of the mismatch.
#pragma once

#include <string>

#include "common/json.hpp"
#include "core/isop.hpp"
#include "core/objective.hpp"
#include "core/tasks.hpp"

namespace perfbench {

/// Reported figures of one design, from an IsopResult or a served result.
struct ReportedDesign {
  isop::em::StackupParams params{};
  isop::em::PerformanceMetrics metrics{};
  double g = 0.0;
  double fom = 0.0;
  bool feasible = false;
};

ReportedDesign reportedFrom(const isop::core::IsopCandidate& candidate);
/// Parses one entry of a served `ranked` list; false if a field is missing.
bool reportedFrom(const isop::json::Value& entry, ReportedDesign& out);

/// Re-simulates `design` and recomputes fom and feasibility under `task`;
/// with `weights`, also g. Metrics and recomputed figures must match exactly.
std::string checkDesign(const isop::core::Task& task, const ReportedDesign& design,
                        const isop::core::ObjectiveWeights* weights);

/// The design must encode into `space`'s bit coding and decode back to
/// itself.
std::string checkEncodable(const isop::em::ParameterSpace& space,
                           const isop::em::StackupParams& params);

/// Field-by-field equality of two designs (params, metrics, g, fom,
/// feasible), exact.
bool sameDesign(const ReportedDesign& a, const ReportedDesign& b);

}  // namespace perfbench
