#include "grid/validate.hpp"

#include <cmath>
#include <map>
#include <sstream>
#include <utility>

#include "common/check.hpp"

namespace ppdl::grid {

namespace {

void add_defect(GridValidationReport& report, GridDefect defect) {
  switch (defect.severity) {
    case DefectSeverity::kFatal:
      ++report.fatal_count;
      break;
    case DefectSeverity::kRepairable:
      ++report.repairable_count;
      break;
    case DefectSeverity::kWarning:
      ++report.warning_count;
      break;
  }
  report.defects.push_back(std::move(defect));
}

/// Node→branch incidence in CSR form, built by one counting sort over the
/// branch list: node v's incident branches are branch[ptr[v]..ptr[v+1]),
/// ascending, with the far endpoint of each in `other` at the same slot.
/// Every branch appears once per endpoint, so a node's slot count is its
/// degree.
struct Incidence {
  std::vector<Index> ptr;
  std::vector<Index> branch;
  std::vector<Index> other;

  Index degree(Index v) const {
    return ptr[static_cast<std::size_t>(v) + 1] -
           ptr[static_cast<std::size_t>(v)];
  }
};

Incidence incidence_of(const PowerGrid& pg) {
  const auto n = static_cast<std::size_t>(pg.node_count());
  const std::vector<Branch>& branches = pg.branches();
  Incidence inc;
  inc.ptr.assign(n + 1, 0);
  for (const Branch& b : branches) {
    ++inc.ptr[static_cast<std::size_t>(b.n1) + 1];
    ++inc.ptr[static_cast<std::size_t>(b.n2) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    inc.ptr[v + 1] += inc.ptr[v];
  }
  inc.branch.resize(static_cast<std::size_t>(inc.ptr[n]));
  inc.other.resize(static_cast<std::size_t>(inc.ptr[n]));
  std::vector<Index> cursor(inc.ptr.begin(), inc.ptr.end() - 1);
  for (std::size_t bi = 0; bi < branches.size(); ++bi) {
    const Branch& b = branches[bi];
    const auto k1 =
        static_cast<std::size_t>(cursor[static_cast<std::size_t>(b.n1)]++);
    inc.branch[k1] = static_cast<Index>(bi);
    inc.other[k1] = b.n2;
    const auto k2 =
        static_cast<std::size_t>(cursor[static_cast<std::size_t>(b.n2)]++);
    inc.branch[k2] = static_cast<Index>(bi);
    inc.other[k2] = b.n1;
  }
  return inc;
}

/// Pad-reachability BFS over the incidence (1 = reachable).
std::vector<unsigned char> reachable_from_pads(const PowerGrid& pg,
                                               const Incidence& inc) {
  const auto n = static_cast<std::size_t>(pg.node_count());
  std::vector<unsigned char> reach(n, 0);
  std::vector<Index> queue;
  queue.reserve(n);
  for (const Pad& pad : pg.pads()) {
    if (reach[static_cast<std::size_t>(pad.node)] == 0) {
      reach[static_cast<std::size_t>(pad.node)] = 1;
      queue.push_back(pad.node);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto v = static_cast<std::size_t>(queue[head]);
    for (Index k = inc.ptr[v]; k < inc.ptr[v + 1]; ++k) {
      const Index u = inc.other[static_cast<std::size_t>(k)];
      if (reach[static_cast<std::size_t>(u)] == 0) {
        reach[static_cast<std::size_t>(u)] = 1;
        queue.push_back(u);
      }
    }
  }
  return reach;
}

/// For each branch, the lowest-indexed branch joining the same unordered
/// node pair, or -1 when it is that branch itself. Each branch is visited
/// once, from its lower endpoint u (PowerGrid has no self-loops), in
/// ascending branch order; `seen_from` stamps the far endpoints already
/// met from u.
std::vector<Index> first_parallel_branch(const PowerGrid& pg,
                                         const Incidence& inc) {
  const auto n = static_cast<std::size_t>(pg.node_count());
  std::vector<Index> first_of(static_cast<std::size_t>(pg.branch_count()), -1);
  std::vector<Index> seen_from(n, -1);
  std::vector<Index> first_to(n, -1);
  for (std::size_t u = 0; u < n; ++u) {
    for (Index k = inc.ptr[u]; k < inc.ptr[u + 1]; ++k) {
      const auto v =
          static_cast<std::size_t>(inc.other[static_cast<std::size_t>(k)]);
      if (v < u) {
        continue;  // visited from v
      }
      const Index bi = inc.branch[static_cast<std::size_t>(k)];
      if (seen_from[v] != static_cast<Index>(u)) {
        seen_from[v] = static_cast<Index>(u);
        first_to[v] = bi;
      } else {
        first_of[static_cast<std::size_t>(bi)] = first_to[v];
      }
    }
  }
  return first_of;
}

}  // namespace

std::string to_string(GridDefectKind kind) {
  switch (kind) {
    case GridDefectKind::kNoLayers:
      return "no-layers";
    case GridDefectKind::kNoNodes:
      return "no-nodes";
    case GridDefectKind::kNoPads:
      return "no-pads";
    case GridDefectKind::kConflictingPadVoltages:
      return "conflicting-pad-voltages";
    case GridDefectKind::kNonPositiveConductance:
      return "non-positive-conductance";
    case GridDefectKind::kIsolatedNode:
      return "isolated-node";
    case GridDefectKind::kUnreachableNode:
      return "unreachable-node";
    case GridDefectKind::kUnreachableLoad:
      return "unreachable-load";
    case GridDefectKind::kDuplicateBranch:
      return "duplicate-branch";
    case GridDefectKind::kNonFiniteLoad:
      return "non-finite-load";
    case GridDefectKind::kDanglingPad:
      return "dangling-pad";
  }
  return "?";
}

std::string to_string(DefectSeverity severity) {
  switch (severity) {
    case DefectSeverity::kWarning:
      return "warning";
    case DefectSeverity::kRepairable:
      return "repairable";
    case DefectSeverity::kFatal:
      return "fatal";
  }
  return "?";
}

std::string GridValidationReport::summary() const {
  std::ostringstream os;
  os << defects.size() << " defect" << (defects.size() == 1 ? "" : "s")
     << " (" << fatal_count << " fatal, " << repairable_count
     << " repairable, " << warning_count << " warning)";
  for (const GridDefect& d : defects) {
    os << "; " << to_string(d.kind);
    if (d.node >= 0) {
      os << " node " << d.node;
    }
    if (d.branch >= 0) {
      os << " branch " << d.branch;
    }
    if (!d.detail.empty()) {
      os << " (" << d.detail << ')';
    }
  }
  return os.str();
}

GridValidationReport validate_grid(const PowerGrid& pg) {
  GridValidationReport report;

  if (pg.layer_count() == 0) {
    add_defect(report, {GridDefectKind::kNoLayers, DefectSeverity::kFatal, -1,
                        -1, "grid has no metal layers"});
  }
  if (pg.node_count() == 0) {
    add_defect(report, {GridDefectKind::kNoNodes, DefectSeverity::kFatal, -1,
                        -1, "grid has no nodes"});
    return report;  // nothing else is checkable
  }
  if (pg.pad_count() == 0) {
    add_defect(report, {GridDefectKind::kNoPads, DefectSeverity::kFatal, -1,
                        -1, "no supply pad pins any voltage"});
  }

  // Conflicting pad voltages on a shared node: each pad is compared with
  // the first pad on its node.
  {
    std::vector<Index> first_pad(static_cast<std::size_t>(pg.node_count()),
                                 -1);
    for (std::size_t p = 0; p < pg.pads().size(); ++p) {
      const Pad& pad = pg.pads()[p];
      Index& first = first_pad[static_cast<std::size_t>(pad.node)];
      if (first < 0) {
        first = static_cast<Index>(p);
        continue;
      }
      const Real pinned = pg.pads()[static_cast<std::size_t>(first)].voltage;
      if (std::abs(pinned - pad.voltage) > 1e-12) {
        std::ostringstream os;
        os << pinned << " V vs " << pad.voltage << " V";
        add_defect(report,
                   {GridDefectKind::kConflictingPadVoltages,
                    DefectSeverity::kFatal, pad.node, -1, os.str()});
      }
    }
  }

  // Branch conductances and duplicate detection.
  const Incidence inc = incidence_of(pg);
  const std::vector<Index> first_parallel = first_parallel_branch(pg, inc);
  for (Index bi = 0; bi < pg.branch_count(); ++bi) {
    const Real resistance = pg.branch_resistance(bi);
    if (!std::isfinite(resistance) || resistance <= 0.0) {
      std::ostringstream os;
      os << "resistance " << resistance << " ohm";
      add_defect(report,
                 {GridDefectKind::kNonPositiveConductance,
                  DefectSeverity::kFatal, -1, bi, os.str()});
    }
    const Index first = first_parallel[static_cast<std::size_t>(bi)];
    if (first >= 0) {
      std::ostringstream os;
      os << "parallel with branch " << first;
      add_defect(report,
                 {GridDefectKind::kDuplicateBranch, DefectSeverity::kWarning,
                  -1, bi, os.str()});
    }
  }

  // Per-node load totals and finiteness.
  std::vector<unsigned char> has_load(
      static_cast<std::size_t>(pg.node_count()), 0);
  for (std::size_t li = 0; li < pg.loads().size(); ++li) {
    const CurrentLoad& load = pg.loads()[li];
    has_load[static_cast<std::size_t>(load.node)] = 1;
    if (!std::isfinite(load.amps)) {
      add_defect(report,
                 {GridDefectKind::kNonFiniteLoad, DefectSeverity::kFatal,
                  load.node, -1, "load current is NaN/Inf"});
    }
  }

  // Connectivity: every free node must reach a pad or its MNA row/column is
  // singular (a zero-conductance row for isolated nodes, a padless block
  // otherwise).
  const std::vector<unsigned char> reach = reachable_from_pads(pg, inc);
  for (Index v = 0; v < pg.node_count(); ++v) {
    const auto vu = static_cast<std::size_t>(v);
    if (reach[vu] != 0) {
      continue;
    }
    if (has_load[vu] != 0) {
      add_defect(report,
                 {GridDefectKind::kUnreachableLoad, DefectSeverity::kFatal, v,
                  -1, "load has no path to any pad — MNA system is singular"});
    } else if (inc.degree(v) == 0) {
      add_defect(report,
                 {GridDefectKind::kIsolatedNode, DefectSeverity::kRepairable,
                  v, -1, "node has no branches (zero conductance row)"});
    } else {
      add_defect(report,
                 {GridDefectKind::kUnreachableNode,
                  DefectSeverity::kRepairable, v, -1,
                  "connected component contains no pad"});
    }
  }

  // Dangling pads: a pad node with no branches is reachable by definition
  // (the BFS starts there) and harmless to MNA (pad nodes are eliminated),
  // but the bump delivers no current — a packaging defect worth surfacing.
  for (const Pad& pad : pg.pads()) {
    if (inc.degree(pad.node) == 0) {
      add_defect(report,
                 {GridDefectKind::kDanglingPad, DefectSeverity::kWarning,
                  pad.node, -1, "supply pad bonded to a branchless node"});
    }
  }
  return report;
}

PowerGrid repaired_copy(const PowerGrid& pg,
                        std::vector<std::string>* actions) {
  const auto note = [&](const std::string& line) {
    if (actions != nullptr) {
      actions->push_back(line);
    }
  };

  const std::vector<unsigned char> reach =
      reachable_from_pads(pg, incidence_of(pg));
  std::vector<bool> has_load(static_cast<std::size_t>(pg.node_count()),
                             false);
  for (const CurrentLoad& load : pg.loads()) {
    has_load[static_cast<std::size_t>(load.node)] = true;
  }

  // Keep reachable nodes plus any unreachable node that carries a load (an
  // unrepairable fatal defect the caller must still see).
  std::vector<Index> new_id(static_cast<std::size_t>(pg.node_count()), -1);
  PowerGrid out;
  out.set_name(pg.name());
  out.set_vdd(pg.vdd());
  out.set_die(pg.die());
  for (const Layer& layer : pg.layers()) {
    out.add_layer(layer);
  }
  for (Index v = 0; v < pg.node_count(); ++v) {
    const auto vu = static_cast<std::size_t>(v);
    if (reach[vu] != 0 || has_load[vu]) {
      new_id[vu] = out.add_node(pg.node(v).pos, pg.node(v).layer);
    } else {
      std::ostringstream os;
      os << "dropped unreachable load-free node " << v;
      note(os.str());
    }
  }

  // Merge duplicate branches in parallel: keep the first branch of each
  // unordered endpoint pair, folding the others' conductance into it.
  std::map<std::pair<Index, Index>, Real> pair_conductance;
  std::map<std::pair<Index, Index>, Index> pair_first;
  for (Index bi = 0; bi < pg.branch_count(); ++bi) {
    const Branch& b = pg.branch(bi);
    const std::pair<Index, Index> key{std::min(b.n1, b.n2),
                                      std::max(b.n1, b.n2)};
    pair_conductance[key] += 1.0 / pg.branch_resistance(bi);
    const auto [it, inserted] = pair_first.emplace(key, bi);
    if (!inserted) {
      std::ostringstream os;
      os << "merged duplicate branch " << bi << " into branch " << it->second
         << " (parallel conductance)";
      note(os.str());
    }
  }
  for (const auto& [key, first_bi] : pair_first) {
    const Branch& b = pg.branch(first_bi);
    const Index n1 = new_id[static_cast<std::size_t>(b.n1)];
    const Index n2 = new_id[static_cast<std::size_t>(b.n2)];
    if (n1 < 0 || n2 < 0) {
      continue;  // endpoint dropped with its unreachable component
    }
    const Real merged_resistance = 1.0 / pair_conductance[key];
    if (b.kind == BranchKind::kWire) {
      // g ∝ width at fixed geometry, so the parallel merge is a width sum:
      // w = ρ·l / R_parallel.
      const Real rho = pg.layer(b.layer).sheet_rho;
      out.add_wire(n1, n2, b.layer, b.length,
                   rho * b.length / merged_resistance);
    } else {
      out.add_via(n1, n2, b.layer, merged_resistance);
    }
  }

  for (const CurrentLoad& load : pg.loads()) {
    out.add_load(new_id[static_cast<std::size_t>(load.node)], load.amps);
  }
  for (const Pad& pad : pg.pads()) {
    out.add_pad(new_id[static_cast<std::size_t>(pad.node)], pad.voltage);
  }
  return out;
}

GridDefectError::GridDefectError(GridValidationReport report)
    : std::runtime_error("grid validation failed: " + report.summary()),
      report_(std::move(report)) {}

}  // namespace ppdl::grid
