// Design rules for power-grid wires: width bounds, spacing, and the ring
// budget Σ (sᵢ + wᵢ) = Wcore of paper eq. (3).
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "grid/power_grid.hpp"

namespace ppdl::grid {

struct DesignRules {
  /// Width bounds as multiples of the layer default width.
  Real min_width_factor = 0.5;
  Real max_width_factor = 20.0;
  /// Minimum edge-to-edge spacing between adjacent stripes, µm.
  Real min_spacing = 0.5;
  /// Manufacturing width grid, µm: legal widths are multiples of this step
  /// (0 = continuous widths). clamp_width() snaps UP to the next legal
  /// width so snapping never weakens an electrical requirement.
  Real width_step = 0.0;
};

/// Minimum / maximum legal width on a layer under `rules`.
Real min_width(const Layer& layer, const DesignRules& rules);
Real max_width(const Layer& layer, const DesignRules& rules);

/// Clamp a width into the legal range of a layer.
Real clamp_width(Real width, const Layer& layer, const DesignRules& rules);

enum class ViolationType { kWidthTooSmall, kWidthTooLarge, kSpacing, kWcore };

struct RuleViolation {
  ViolationType type;
  Index branch = -1;   ///< offending branch (or -1 for layer-level checks)
  Index layer = -1;
  std::string detail;
};

/// One stripe: the wires of a layer that share its constant coordinate.
struct Stripe {
  Real coord = 0.0;
  std::vector<Index> branches;  ///< ascending branch index
};

/// Groups a layer's wire branches into stripes by their constant coordinate
/// (y for horizontal layers, x for vertical), in ascending coordinate order.
/// Coordinates that compare equal (+0.0 and −0.0) form one stripe, keyed by
/// its lowest-indexed branch's coordinate.
std::vector<Stripe> stripes_of_layer(const PowerGrid& pg, Index layer);

/// Checks width bounds for every wire plus, per layer, stripe spacing and
/// the Wcore budget: Σ over stripes of (max stripe width + spacing) must not
/// exceed the die extent perpendicular to the stripes (eq. (3) with
/// Wcore = die extent).
std::vector<RuleViolation> check_design_rules(const PowerGrid& pg,
                                              const DesignRules& rules);

}  // namespace ppdl::grid
