// Correctness checks the workloads apply to the program's outputs.  Each
// returns an empty string when the output passes and a description of the
// first mismatch otherwise; tests/checks_test.cpp shows each one rejecting
// a perturbed output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "grid/fieldset.hpp"

namespace e2e {

/// Final fields bit-identical to the reference: FieldSet::max_field_diff
/// == 0, and every value finite (max_field_diff cannot see a NaN).
std::string check_fields_identical(const emwd::grid::FieldSet& got,
                                   const emwd::grid::FieldSet& ref);

/// Every component bit-identical along x for each (y, z) row — what a
/// laterally uniform stack under periodic x must produce.
std::string check_x_invariant(const emwd::grid::FieldSet& fs);

/// Halo payload bytes one Simulation::run(steps) of a z-sharded engine
/// moves, derived from the grid layout alone: ceil(steps / interval) - 1
/// exchange rounds, each refilling `interval` ghost planes on both sides
/// of each of the shards-1 internal cuts, for all 12 field components.
std::int64_t expected_halo_bytes(const emwd::grid::Extents& grid, int shards,
                                 int interval, int steps);

std::string check_halo_bytes(std::int64_t moved, std::int64_t expected);

/// The observables a job result carries.
struct Observables {
  double total_energy = 0.0;
  double electric_energy = 0.0;
  std::vector<double> absorption;
};

/// Exact equality of every observable (results are bit-exact across
/// engines), and finite values.
std::string check_observables(const Observables& got, const Observables& ref);

}  // namespace e2e
