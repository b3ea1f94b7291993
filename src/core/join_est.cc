#include "core/join_est.h"

#include <algorithm>

namespace ldpjs {

namespace {

/// Expected number of non-target reports aggregated into the sketch.
double NonTargetMass(const JoinEstSide& side, FapMode mode,
                     const JoinEstOptions& options) {
  LDPJS_CHECK(side.table_rows > 0.0);
  // Non-targets of a low-frequency sketch are the FI items and vice versa.
  const double full_table_mass =
      (mode == FapMode::kLow)
          ? side.high_freq_mass
          : std::max(0.0, side.table_rows - side.high_freq_mass);
  if (options.paper_literal_subtraction) return full_table_mass;
  return full_table_mass * side.group_rows / side.table_rows;
}

}  // namespace

double JoinEst(const JoinEstSide& side_a, const JoinEstSide& side_b,
               FapMode mode, const JoinEstOptions& options) {
  LDPJS_CHECK(side_a.sketch != nullptr && side_b.sketch != nullptr);
  const double m = static_cast<double>(side_a.sketch->params().m);
  return side_a.sketch->JoinEstimate(*side_b.sketch,
                                     NonTargetMass(side_a, mode, options) / m,
                                     NonTargetMass(side_b, mode, options) / m);
}

}  // namespace ldpjs
