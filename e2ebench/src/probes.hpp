// Machine probes and the paper's models evaluated with them.
//
//   triad_gb_s      — STREAM triad a[i] = b[i] + s*c[i] over arrays whose
//                     combined size is >= 4x the last-level cache, on every
//                     logical cpu; bytes counted as STREAM does (24 B per
//                     element, no write-allocate).
//   row_mcells_s    — single-thread kernels::update_row on in-cache rows of
//                     a given width, in million complex cells per second.
//
// predict_mlups() feeds both into models::predict (Eq. 10) with the code
// balance of the engine a workload actually ran (Eqs. 8/9/12).
#pragma once

#include <string>

namespace e2e {

double triad_gb_s();

double row_mcells_s(int row_cells);

struct ModelNumbers {
  double code_balance_b_per_lup = 0.0;
  double pred_mlups = 0.0;       // machine calibrated by the two probes
  double host_pred_mlups = 0.0;  // models::host_machine()'s fixed constants
};

/// `resolved_spec` is a concrete engine spec (naive, spatial, mwd(...), or
/// sharded(...) with an mwd/naive/spatial inner); `threads` the engine's
/// thread budget.  One LUP is 12 component-row cells, so the probe's
/// Mcells/s over 12 is the single-core in-cache MLUP/s.
ModelNumbers predict_mlups(const std::string& resolved_spec, int threads,
                           double triad_gb_per_s, double row_mcells_per_s);

}  // namespace e2e
