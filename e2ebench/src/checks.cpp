#include "checks.hpp"

#include <cmath>
#include <cstdio>

#include "kernels/components.hpp"

namespace e2e {

namespace {

std::string fmt(const char* f, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), f, a, b);
  return buf;
}

}  // namespace

std::string check_fields_identical(const emwd::grid::FieldSet& got,
                                   const emwd::grid::FieldSet& ref) {
  if (!(got.layout().interior() == ref.layout().interior())) {
    return "fields: extents differ from the reference";
  }
  const double diff = emwd::grid::FieldSet::max_field_diff(got, ref);
  if (diff != 0.0) return fmt("fields: max_field_diff %.17g (ref %.17g) != 0", diff, 0.0);
  for (int c = 0; c < emwd::kernels::kNumComps; ++c) {
    const emwd::grid::Field& f = got.field(static_cast<emwd::kernels::Comp>(c));
    const double* d = f.data();
    for (std::size_t i = 0; i < 2 * f.size_complex(); ++i) {
      if (!std::isfinite(d[i])) return "fields: non-finite value in the result";
    }
  }
  return {};
}

std::string check_x_invariant(const emwd::grid::FieldSet& fs) {
  const emwd::grid::Extents e = fs.layout().interior();
  for (int c = 0; c < emwd::kernels::kNumComps; ++c) {
    const emwd::grid::Field& f = fs.field(static_cast<emwd::kernels::Comp>(c));
    for (int k = 0; k < e.nz; ++k) {
      for (int j = 0; j < e.ny; ++j) {
        const std::complex<double> v0 = f.at(0, j, k);
        for (int i = 1; i < e.nx; ++i) {
          if (f.at(i, j, k) != v0) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "x-invariance: component %d differs at x=%d (y=%d, z=%d)",
                          c, i, j, k);
            return buf;
          }
        }
      }
    }
  }
  return {};
}

std::int64_t expected_halo_bytes(const emwd::grid::Extents& grid, int shards,
                                 int interval, int steps) {
  const std::int64_t exchanges = (steps + interval - 1) / interval - 1;
  const std::int64_t ghost_planes =
      static_cast<std::int64_t>(2) * (shards - 1) * interval;
  // One z-plane of one component: the padded x-y slab of the layout,
  // 16 bytes per complex cell.
  const std::int64_t plane_bytes =
      static_cast<std::int64_t>(emwd::grid::Layout({grid.nx, grid.ny, 1}).stride_z()) * 16;
  return exchanges * ghost_planes * emwd::kernels::kNumComps * plane_bytes;
}

std::string check_halo_bytes(std::int64_t moved, std::int64_t expected) {
  if (moved == expected) return {};
  return "halo: moved " + std::to_string(moved) + " bytes, layout-derived total is " +
         std::to_string(expected);
}

std::string check_observables(const Observables& got, const Observables& ref) {
  if (!std::isfinite(got.total_energy) || !std::isfinite(got.electric_energy)) {
    return "observables: non-finite energy";
  }
  if (got.total_energy != ref.total_energy) {
    return fmt("observables: total_energy %.17g != reference %.17g", got.total_energy,
               ref.total_energy);
  }
  if (got.electric_energy != ref.electric_energy) {
    return fmt("observables: electric_energy %.17g != reference %.17g",
               got.electric_energy, ref.electric_energy);
  }
  if (got.absorption.size() != ref.absorption.size()) {
    return "observables: absorption has " + std::to_string(got.absorption.size()) +
           " materials, reference " + std::to_string(ref.absorption.size());
  }
  for (std::size_t m = 0; m < got.absorption.size(); ++m) {
    if (got.absorption[m] != ref.absorption[m]) {
      return fmt("observables: absorption %.17g != reference %.17g", got.absorption[m],
                 ref.absorption[m]);
    }
  }
  return {};
}

}  // namespace e2e
