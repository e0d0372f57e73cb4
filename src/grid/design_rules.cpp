#include "grid/design_rules.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"

namespace ppdl::grid {

Real min_width(const Layer& layer, const DesignRules& rules) {
  return layer.default_width * rules.min_width_factor;
}

Real max_width(const Layer& layer, const DesignRules& rules) {
  return layer.default_width * rules.max_width_factor;
}

Real clamp_width(Real width, const Layer& layer, const DesignRules& rules) {
  Real w = std::max(width, min_width(layer, rules));
  if (rules.width_step > 0.0) {
    // Snap up to the manufacturing grid; never down, so the electrical
    // requirement that produced `width` still holds.
    w = std::ceil(w / rules.width_step - 1e-12) * rules.width_step;
  }
  return std::min(w, max_width(layer, rules));
}

std::vector<Stripe> stripes_of_layer(const PowerGrid& pg, Index layer) {
  PPDL_REQUIRE(layer >= 0 && layer < pg.layer_count(),
               "layer out of range");
  const bool horizontal = pg.layer(layer).horizontal;
  // Find-or-insert by coordinate in a vector kept sorted, as a std::map
  // would: coordinates that compare equal share a stripe, which keeps the
  // first one's key. Wires usually arrive stripe by stripe, so the
  // previous wire's stripe is tried before the binary search.
  std::vector<Stripe> stripes;
  std::size_t last = 0;
  for (Index i = 0; i < pg.branch_count(); ++i) {
    const Branch& b = pg.branch(i);
    if (b.kind != BranchKind::kWire || b.layer != layer) {
      continue;
    }
    const Point c = pg.branch_center(i);
    const Real coord = horizontal ? c.y : c.x;
    if (stripes.empty() || stripes[last].coord < coord ||
        coord < stripes[last].coord) {
      auto it = std::lower_bound(
          stripes.begin(), stripes.end(), coord,
          [](const Stripe& s, Real v) { return s.coord < v; });
      if (it == stripes.end() || coord < it->coord) {
        it = stripes.insert(it, Stripe{coord, {}});
      }
      last = static_cast<std::size_t>(it - stripes.begin());
    }
    stripes[last].branches.push_back(i);
  }
  return stripes;
}

std::vector<RuleViolation> check_design_rules(const PowerGrid& pg,
                                              const DesignRules& rules) {
  std::vector<RuleViolation> violations;

  // Per-wire width bounds.
  for (Index i = 0; i < pg.branch_count(); ++i) {
    const Branch& b = pg.branch(i);
    if (b.kind != BranchKind::kWire) {
      continue;
    }
    const Layer& layer = pg.layer(b.layer);
    // A hair of tolerance so clamped-to-bound widths don't flag.
    constexpr Real kTol = 1e-9;
    if (b.width < min_width(layer, rules) - kTol) {
      std::ostringstream os;
      os << "wire " << i << " width " << b.width << " < min "
         << min_width(layer, rules);
      violations.push_back(
          {ViolationType::kWidthTooSmall, i, b.layer, os.str()});
    }
    if (b.width > max_width(layer, rules) + kTol) {
      std::ostringstream os;
      os << "wire " << i << " width " << b.width << " > max "
         << max_width(layer, rules);
      violations.push_back(
          {ViolationType::kWidthTooLarge, i, b.layer, os.str()});
    }
  }

  // Per-layer stripe spacing and Wcore budget (eq. (3)).
  for (Index l = 0; l < pg.layer_count(); ++l) {
    const auto stripes = stripes_of_layer(pg, l);
    if (stripes.empty()) {
      continue;
    }
    const bool horizontal = pg.layer(l).horizontal;
    const Real wcore =
        horizontal ? pg.die().height() : pg.die().width();

    Real width_budget = 0.0;
    Real prev_coord = 0.0;
    Real prev_halfwidth = 0.0;
    bool first = true;
    for (const auto& [coord, branches] : stripes) {
      Real stripe_width = 0.0;
      for (const Index bi : branches) {
        stripe_width = std::max(stripe_width, pg.branch(bi).width);
      }
      width_budget += stripe_width + rules.min_spacing;

      if (!first) {
        const Real gap =
            (coord - stripe_width / 2) - (prev_coord + prev_halfwidth);
        if (gap < rules.min_spacing - 1e-9) {
          std::ostringstream os;
          os << "layer " << pg.layer(l).name << " stripes at " << prev_coord
             << " and " << coord << " spaced " << gap << " < "
             << rules.min_spacing;
          violations.push_back({ViolationType::kSpacing, -1, l, os.str()});
        }
      }
      prev_coord = coord;
      prev_halfwidth = stripe_width / 2;
      first = false;
    }

    if (width_budget > wcore + 1e-9) {
      std::ostringstream os;
      os << "layer " << pg.layer(l).name << " Σ(w+s) = " << width_budget
         << " exceeds Wcore = " << wcore;
      violations.push_back({ViolationType::kWcore, -1, l, os.str()});
    }
  }
  return violations;
}

}  // namespace ppdl::grid
