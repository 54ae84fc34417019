#include "audit/local_query.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>

#include "audit/metrics.hpp"
#include "logm/set_algebra.hpp"

namespace dla::audit {
namespace {

// Tri-state row verdict replicating the naive evaluator's exception
// semantics: `evaluate` throws std::out_of_range at the first missing
// attribute it touches and eval_local maps that to "row does not match".
// Missing therefore propagates upward exactly like the exception would —
// And stops at the first non-True child, Or stops at the first True or
// Missing child *in child order* — so compiled results match the scan
// bit-for-bit even on fragments carrying a subset of the attributes.
enum class Tri : std::uint8_t { False, True, Missing };

struct Probe {
  CmpOp op = CmpOp::Eq;
  const logm::Value* value = nullptr;  // points into the source Expr
};

// One index access path over one attribute of a column source. Either a
// disjunction of probes (equality / OR-fan), or — when `probes` is empty — a
// bounded range scan: same-attribute range conjuncts (`Time >= a AND
// Time <= b`, the BETWEEN shape) fuse into a single [lo, hi] slice instead
// of materializing and intersecting two broad half-open runs.
template <class Attr>
struct AccessPath {
  Attr attr{};
  std::vector<Probe> probes;  // disjunction over one attribute
  const logm::Value* lo = nullptr;
  bool lo_incl = false;
  const logm::Value* hi = nullptr;
  bool hi_incl = false;
  double estimate = 0.0;
  std::vector<const Expr*> sources;  // conjuncts folded into this path
};

// ---- column sources ---------------------------------------------------------
//
// The planner below is written once over a column source, a template
// parameter so the per-row loop compiles to direct cell reads. A source
// hides only the storage format: attribute lookup (`attr`, a nullable
// handle), one row's cell (`cell`, falsy when absent), the column stats
// (`present`, `min_value`, `max_value`, `equal_count`), and turning an
// equality probe or a [lo, hi] slice into sorted ids (`equal_ids`,
// `slice_ids`; `row_of` maps an id to its row). `excludes` is the source's
// own pruning ahead of any probe.

// The memtable: a FragmentStore's columnar mirror. Probe ids are glsns
// straight from the postings runs; the residual maps them back to rows.
class StoreSource {
 public:
  struct Attr {
    const logm::FragmentStore::Column* column = nullptr;
    const logm::AttributeIndex* index = nullptr;
    explicit operator bool() const { return index != nullptr; }
    bool operator==(const Attr&) const = default;
  };
  using Row = std::size_t;
  using Id = logm::Glsn;

  explicit StoreSource(const logm::FragmentStore& store) : store_(store) {}

  Attr attr(const std::string& name) const {
    return Attr{store_.column(name), store_.attr_index(name)};
  }
  const logm::Value* cell(Attr a, Row row) const {
    return a.column ? a.column->cells[row] : nullptr;
  }
  std::size_t present(Attr a) const { return a.index->rows(); }
  const logm::Value* min_value(Attr a) const { return a.index->min_value(); }
  const logm::Value* max_value(Attr a) const { return a.index->max_value(); }
  std::size_t equal_count(Attr a, const logm::Value& v) const {
    const std::vector<logm::Glsn>* run = a.index->equal(v);
    return run == nullptr ? 0 : run->size();
  }
  std::vector<Id> equal_ids(Attr a, const logm::Value& v) const {
    const std::vector<logm::Glsn>* run = a.index->equal(v);
    return run == nullptr ? std::vector<Id>{} : *run;
  }
  std::vector<Id> slice_ids(Attr a, const logm::Value* lo, bool lo_incl,
                            const logm::Value* hi, bool hi_incl) const {
    return a.index->range(lo, lo_incl, hi, hi_incl);
  }
  std::size_t rows() const { return store_.row_count(); }
  logm::Glsn glsn_at(Row row) const { return store_.row_glsns()[row]; }
  std::optional<Row> row_of(Id id) const { return store_.row_of(id); }
  std::vector<logm::Glsn> glsns_of(std::vector<Id> ids) const { return ids; }
  // The memtable prunes nothing ahead of its probes.
  bool excludes(const Expr&) const { return false; }
  bool excludes(const AccessPath<Attr>&) const { return false; }

 private:
  const logm::FragmentStore& store_;
};

// An immutable mmap'd segment (logm/segment.hpp). Probe ids are row
// positions pulled from the per-attribute ValueLess order array by binary
// search; cells decode lazily, only when a predicate reaches them, so no
// fragment is materialized. Zone maps and absent columns prune the whole
// segment before any probe.
class SegmentSource {
 public:
  using Attr = const logm::Segment::AttrView*;
  using Row = std::uint32_t;
  using Id = std::uint32_t;

  explicit SegmentSource(const logm::Segment& seg) : seg_(seg) {}

  Attr attr(const std::string& name) const { return seg_.attr(name); }
  std::optional<logm::Value> cell(Attr a, Row row) const {
    if (a == nullptr) return std::nullopt;
    const std::optional<std::uint32_t> j = seg_.present_pos(*a, row);
    if (!j) return std::nullopt;
    return seg_.cell_value(*a, *j);
  }
  std::size_t present(Attr a) const { return a->present; }
  const logm::Value* min_value(Attr a) const { return &a->min; }
  const logm::Value* max_value(Attr a) const { return &a->max; }
  std::size_t equal_count(Attr a, const logm::Value& v) const {
    const auto [first, last] = span(*a, &v, true, &v, true);
    return last - first;
  }
  std::vector<Id> equal_ids(Attr a, const logm::Value& v) const {
    return slice_ids(a, &v, true, &v, true);
  }
  std::vector<Id> slice_ids(Attr a, const logm::Value* lo, bool lo_incl,
                            const logm::Value* hi, bool hi_incl) const {
    const auto [first, last] = span(*a, lo, lo_incl, hi, hi_incl);
    std::vector<Id> out;
    for (std::uint32_t k = first; k < last; ++k) {
      out.push_back(seg_.row_at(*a, seg_.order_at(*a, k)));
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  std::size_t rows() const { return seg_.rows(); }
  logm::Glsn glsn_at(Row row) const { return seg_.glsn_at(row); }
  std::optional<Row> row_of(Id id) const { return id; }
  std::vector<logm::Glsn> glsns_of(const std::vector<Id>& ids) const {
    std::vector<logm::Glsn> out;
    out.reserve(ids.size());
    for (Id id : ids) out.push_back(seg_.glsn_at(id));
    return out;  // ids ascending => glsns ascending
  }

  // Absent-attribute pruning: an And-level predicate over an attribute the
  // segment does not carry is Missing on every row, so the whole segment
  // contributes nothing. Same for an OR-fan whose *first* child references
  // an absent attribute (the naive Or aborts at the first Missing child).
  bool excludes(const Expr& conjunct) const {
    const Expr& lead =
        conjunct.kind == Expr::Kind::Or && !conjunct.children.empty()
            ? conjunct.children.front()
            : conjunct;
    if (lead.kind != Expr::Kind::Pred) return false;
    return seg_.attr(lead.pred.lhs) == nullptr ||
           (lead.pred.rhs_is_attr && seg_.attr(lead.pred.rhs_attr) == nullptr);
  }

  // Zone-map test: true when the path cannot match anything in the segment.
  bool excludes(const AccessPath<Attr>& path) const {
    const logm::ValueLess less;
    const logm::Segment::AttrView& view = *path.attr;
    if (path.probes.empty()) {
      if (path.lo != nullptr) {
        if (less(view.max, *path.lo)) return true;
        // lo == max and the bound is strict: nothing above it.
        if (!path.lo_incl && !less(*path.lo, view.max)) return true;
      }
      if (path.hi != nullptr) {
        if (less(*path.hi, view.min)) return true;
        if (!path.hi_incl && !less(view.min, *path.hi)) return true;
      }
      return false;
    }
    for (const Probe& probe : path.probes) {
      // An ordered probe inside an OR-fan is conservatively non-empty.
      if (probe.op != CmpOp::Eq) return false;
      if (!less(*probe.value, view.min) && !less(view.max, *probe.value)) {
        return false;
      }
    }
    return true;
  }

 private:
  // Order-array positions [first, last) whose cells lie in the interval,
  // by binary search; first >= last when it is empty.
  std::pair<std::uint32_t, std::uint32_t> span(
      const logm::Segment::AttrView& a, const logm::Value* lo, bool lo_incl,
      const logm::Value* hi, bool hi_incl) const {
    return {lo == nullptr ? 0 : bound(a, *lo, !lo_incl),
            hi == nullptr ? a.present : bound(a, *hi, hi_incl)};
  }

  // First order-array position whose cell is ValueLess-above v (upper) or
  // not ValueLess-below it (!upper).
  std::uint32_t bound(const logm::Segment::AttrView& a, const logm::Value& v,
                      bool upper) const {
    const logm::ValueLess less;
    std::uint32_t lo = 0, hi = a.present;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      const logm::Value cell = seg_.cell_value(a, seg_.order_at(a, mid));
      if (upper ? !less(v, cell) : less(cell, v)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  const logm::Segment& seg_;
};

// ---- compiled predicate program ---------------------------------------------

// Flat compiled predicate program. Pred leaves carry pre-resolved column
// handles, so per-row evaluation does no string hashing, no map lookups and
// no std::function indirection. The Exprs must outlive the program: Pred
// leaves alias their rhs constants.
template <class Source>
class Program {
 public:
  using Row = typename Source::Row;

  // Compiles the conjunction of `conjuncts` (in order).
  Program(const Source& src, const std::vector<const Expr*>& conjuncts)
      : src_(src) {
    root_ = conjuncts.size() == 1 ? compile(*conjuncts.front())
                                  : compile_parent(Expr::Kind::And, conjuncts);
  }

  bool matches(Row row) const { return eval(root_, row) == Tri::True; }

 private:
  struct Node {
    Expr::Kind kind = Expr::Kind::Pred;
    CmpOp op = CmpOp::Eq;
    typename Source::Attr lhs{};
    typename Source::Attr rhs{};
    const logm::Value* rhs_const = nullptr;  // null: rhs is an attribute
    std::uint32_t children_begin = 0;  // into child_idx_
    std::uint32_t children_count = 0;
  };

  std::uint32_t compile(const Expr& expr) {
    if (expr.kind != Expr::Kind::Pred) {
      std::vector<const Expr*> kids;
      kids.reserve(expr.children.size());
      for (const Expr& child : expr.children) kids.push_back(&child);
      return compile_parent(expr.kind, kids);
    }
    Node nd{};
    nd.op = expr.pred.op;
    nd.lhs = src_.attr(expr.pred.lhs);
    if (expr.pred.rhs_is_attr) {
      nd.rhs = src_.attr(expr.pred.rhs_attr);
    } else {
      nd.rhs_const = &expr.pred.rhs_const;
    }
    nodes_.push_back(nd);
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  std::uint32_t compile_parent(Expr::Kind kind,
                               const std::vector<const Expr*>& children) {
    std::vector<std::uint32_t> kids;
    kids.reserve(children.size());
    for (const Expr* child : children) kids.push_back(compile(*child));
    Node nd{};
    nd.kind = kind;
    nd.children_begin = static_cast<std::uint32_t>(child_idx_.size());
    nd.children_count = static_cast<std::uint32_t>(kids.size());
    child_idx_.insert(child_idx_.end(), kids.begin(), kids.end());
    nodes_.push_back(nd);
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  Tri eval(std::uint32_t node, Row row) const {
    const Node& nd = nodes_[node];
    switch (nd.kind) {
      case Expr::Kind::Pred: {
        const auto lhs = src_.cell(nd.lhs, row);
        if (!lhs) return Tri::Missing;
        if (nd.rhs_const != nullptr) {
          return compare_values(*lhs, nd.op, *nd.rhs_const) ? Tri::True
                                                            : Tri::False;
        }
        const auto rhs = src_.cell(nd.rhs, row);
        if (!rhs) return Tri::Missing;
        return compare_values(*lhs, nd.op, *rhs) ? Tri::True : Tri::False;
      }
      case Expr::Kind::And:
        for (std::uint32_t i = 0; i < nd.children_count; ++i) {
          Tri v = eval(child_idx_[nd.children_begin + i], row);
          if (v != Tri::True) return v;
        }
        return Tri::True;
      case Expr::Kind::Or:
        for (std::uint32_t i = 0; i < nd.children_count; ++i) {
          Tri v = eval(child_idx_[nd.children_begin + i], row);
          if (v != Tri::False) return v;
        }
        return Tri::False;
      case Expr::Kind::Not: {
        Tri v = eval(child_idx_[nd.children_begin], row);
        if (v == Tri::Missing) return v;
        return v == Tri::True ? Tri::False : Tri::True;
      }
    }
    throw std::logic_error("local_query: corrupt program");
  }

  const Source& src_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> child_idx_;
  std::uint32_t root_ = 0;
};

// ---- index access paths ------------------------------------------------------

// A probe may use the index only when the index answer provably matches
// the naive evaluator: constant Eq always; ordered ops only on all-numeric
// columns with numeric probes, because the naive path *throws*
// std::invalid_argument on ordered text-vs-numeric comparisons and that
// throw must propagate identically (so such shapes stay residual). Text
// sorts above every numeric, so the column max decides "all-numeric". Ne
// and attribute-vs-attribute predicates are never index probes.
template <class Source>
bool indexable_probe(const Source& src, typename Source::Attr a,
                     const Predicate& pred) {
  if (pred.rhs_is_attr || pred.op == CmpOp::Ne) return false;
  if (pred.op == CmpOp::Eq) return true;
  const logm::Value* mx = src.max_value(a);
  return pred.rhs_const.is_numeric() && (mx == nullptr || mx->is_numeric());
}

// Estimated matching rows for a bounded range: interpolate both bounds
// between the column's min/max (equi-width assumption).
template <class Source>
double estimate_range(const Source& src, typename Source::Attr a,
                      const logm::Value* lo, const logm::Value* hi,
                      bool lo_incl, bool hi_incl) {
  const double rows = static_cast<double>(src.present(a));
  if (rows == 0.0) return 0.0;
  const logm::Value* mn = src.min_value(a);
  const logm::Value* mx = src.max_value(a);
  if (!mn->is_numeric() || !mx->is_numeric()) return rows / 2.0;
  const double col_lo = mn->as_real();
  const double col_hi = mx->as_real();
  if (col_hi <= col_lo) {  // single distinct value: all in or all out
    bool in = true;
    if (lo) in = in && compare_values(*mn, lo_incl ? CmpOp::Ge : CmpOp::Gt,
                                      *lo);
    if (hi) in = in && compare_values(*mn, hi_incl ? CmpOp::Le : CmpOp::Lt,
                                      *hi);
    return in ? rows : 0.0;
  }
  const double width = col_hi - col_lo;
  const double f_lo =
      lo ? std::clamp((lo->as_real() - col_lo) / width, 0.0, 1.0) : 0.0;
  const double f_hi =
      hi ? std::clamp((hi->as_real() - col_lo) / width, 0.0, 1.0) : 1.0;
  return std::max(0.0, f_hi - f_lo) * rows;
}

// Tightens a path's bounds with another one-sided range predicate; on an
// equivalent bound value, the strict comparison wins.
template <class Attr>
void tighten_bounds(AccessPath<Attr>& path, CmpOp op, const logm::Value* value) {
  const logm::ValueLess less;
  const bool lower = op == CmpOp::Gt || op == CmpOp::Ge;
  const bool incl = op == CmpOp::Ge || op == CmpOp::Le;
  const logm::Value*& bound = lower ? path.lo : path.hi;
  bool& bound_incl = lower ? path.lo_incl : path.hi_incl;
  if (bound == nullptr || (lower ? less(*bound, *value) : less(*value, *bound))) {
    bound = value;
    bound_incl = incl;
  } else if (!incl && !less(*value, *bound) && !less(*bound, *value)) {
    bound_incl = false;
  }
}

// An indexable conjunct is a constant predicate on one indexed attribute,
// or an OR-fan of such predicates over the *same* attribute (the shape
// IN-lists desugar to). Same-attribute matters for equivalence: the naive
// OR aborts the whole row when an earlier child hits a missing attribute,
// so a union across different attributes could admit rows the scan rejects.
// Estimates are exact for equality (the run size) and interpolated for
// ranges.
template <class Source>
std::optional<AccessPath<typename Source::Attr>> make_access_path(
    const Source& src, const Expr& conjunct) {
  AccessPath<typename Source::Attr> path;
  path.sources.push_back(&conjunct);
  if (conjunct.kind == Expr::Kind::Pred) {
    path.attr = src.attr(conjunct.pred.lhs);
    if (!path.attr || !indexable_probe(src, path.attr, conjunct.pred)) {
      return std::nullopt;
    }
    if (conjunct.pred.op == CmpOp::Eq) {
      path.probes.push_back(Probe{CmpOp::Eq, &conjunct.pred.rhs_const});
      path.estimate = static_cast<double>(
          src.equal_count(path.attr, conjunct.pred.rhs_const));
    } else {
      // Ordered predicates become range paths so same-attribute conjuncts
      // can fuse into one bounded slice before execution.
      tighten_bounds(path, conjunct.pred.op, &conjunct.pred.rhs_const);
      path.estimate = estimate_range(src, path.attr, path.lo, path.hi,
                                     path.lo_incl, path.hi_incl);
    }
    return path;
  }
  if (conjunct.kind != Expr::Kind::Or || conjunct.children.empty()) {
    return std::nullopt;
  }
  const Expr& first = conjunct.children.front();
  if (first.kind != Expr::Kind::Pred) return std::nullopt;
  path.attr = src.attr(first.pred.lhs);
  if (!path.attr) return std::nullopt;
  for (const Expr& child : conjunct.children) {
    if (child.kind != Expr::Kind::Pred || child.pred.lhs != first.pred.lhs ||
        !indexable_probe(src, path.attr, child.pred)) {
      return std::nullopt;
    }
    path.probes.push_back(Probe{child.pred.op, &child.pred.rhs_const});
    path.estimate += static_cast<double>(
        child.pred.op == CmpOp::Eq
            ? src.equal_count(path.attr, child.pred.rhs_const)
            : src.present(path.attr));
  }
  path.estimate =
      std::min(path.estimate, static_cast<double>(src.present(path.attr)));
  return path;
}

template <class Source>
std::vector<typename Source::Id> execute_path(
    const Source& src, const AccessPath<typename Source::Attr>& path) {
  if (path.probes.empty()) {
    return src.slice_ids(path.attr, path.lo, path.lo_incl, path.hi,
                         path.hi_incl);
  }
  auto run_for = [&](const Probe& probe) {
    if (probe.op == CmpOp::Eq) return src.equal_ids(path.attr, *probe.value);
    const bool lower = probe.op == CmpOp::Gt || probe.op == CmpOp::Ge;
    return src.slice_ids(path.attr, lower ? probe.value : nullptr,
                         probe.op == CmpOp::Ge, lower ? nullptr : probe.value,
                         probe.op == CmpOp::Le);
  };
  std::vector<typename Source::Id> out = run_for(path.probes[0]);
  for (std::size_t i = 1; i < path.probes.size(); ++i) {
    out = logm::union_sorted(out, run_for(path.probes[i]));
  }
  return out;
}

// ---- the planner -------------------------------------------------------------

// What one plan did; each caller books it into its own counters.
struct PlanStats {
  std::size_t probes = 0;           // access paths executed
  std::size_t rows_evaluated = 0;   // rows the compiled program ran on
  std::size_t short_circuited = 0;  // conjuncts skipped on an empty run
  bool full_scan = false;           // no conjunct was index-shaped
  bool pruned = false;              // the source excluded every row
};

// Evaluates the normalized expression (and its top-level conjuncts) against
// one source, returning matching glsns ascending:
//   1. index-shaped conjuncts become access paths, the rest are residual;
//      same-attribute ranges fuse into one slice; with no path, the
//      compiled program scans every row;
//   2. the source may exclude itself whole on a conjunct or path;
//   3. paths run most selective first, their id runs intersected; a path
//      whose estimate exceeds 4x the running result is demoted to residual,
//      and an empty running result stops the plan;
//   4. the residual conjuncts, compiled once, probe the surviving rows.
template <class Source>
std::vector<logm::Glsn> run_plan(const Source& src, const Expr& normalized,
                                 const std::vector<Expr>& conjuncts,
                                 PlanStats& stats) {
  const auto pruned = [&stats] {
    stats.pruned = true;
    return std::vector<logm::Glsn>{};
  };
  std::vector<AccessPath<typename Source::Attr>> paths;
  std::vector<const Expr*> residual;
  for (const Expr& conjunct : conjuncts) {
    auto path = make_access_path(src, conjunct);
    if (src.excludes(conjunct) || (path && src.excludes(*path))) {
      return pruned();
    }
    if (!path) {
      residual.push_back(&conjunct);
      continue;
    }
    const auto host =
        path->probes.empty()
            ? std::find_if(paths.begin(), paths.end(),
                           [&](const auto& p) {
                             return p.probes.empty() && p.attr == path->attr;
                           })
            : paths.end();
    if (host == paths.end()) {
      paths.push_back(std::move(*path));
      continue;
    }
    // A further range on the same attribute tightens that path instead:
    // `Time >= a AND Time <= b` (the BETWEEN shape) runs as one [lo, hi]
    // slice, not two broad half-open runs intersected afterwards.
    tighten_bounds(*host, conjunct.pred.op, &conjunct.pred.rhs_const);
    host->sources.push_back(&conjunct);
    host->estimate = estimate_range(src, host->attr, host->lo, host->hi,
                                    host->lo_incl, host->hi_incl);
    if (src.excludes(*host)) return pruned();
  }

  if (paths.empty()) {
    // No index applies: tight full scan over the columns.
    stats.full_scan = true;
    const Program<Source> prog(src, {&normalized});
    const std::size_t rows = src.rows();
    stats.rows_evaluated += rows;
    std::vector<logm::Glsn> out;
    for (typename Source::Row r = 0; r < rows; ++r) {
      if (prog.matches(r)) out.push_back(src.glsn_at(r));
    }
    return out;
  }

  // Most selective first; ties keep conjunct order.
  std::stable_sort(paths.begin(), paths.end(),
                   [](const auto& a, const auto& b) {
                     return a.estimate < b.estimate;
                   });

  std::vector<typename Source::Id> current;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (i > 0 && static_cast<double>(current.size()) * 4.0 <
                     paths[i].estimate) {
      // The running intersection is already far smaller than this path's
      // run would be: probing the survivors row-by-row beats materializing
      // and intersecting the big run. Demote the path to a residual.
      residual.insert(residual.end(), paths[i].sources.begin(),
                      paths[i].sources.end());
      continue;
    }
    auto run = execute_path(src, paths[i]);
    ++stats.probes;
    current = i == 0 ? std::move(run) : logm::intersect_sorted(current, run);
    if (current.empty()) {
      stats.short_circuited += residual.size();
      for (std::size_t j = i + 1; j < paths.size(); ++j) {
        stats.short_circuited += paths[j].sources.size();
      }
      return {};
    }
  }
  if (residual.empty()) return src.glsns_of(std::move(current));

  // Compile the residual conjuncts once and probe only the rows that
  // survived the index intersection.
  const Program<Source> prog(src, residual);
  stats.rows_evaluated += current.size();
  std::vector<logm::Glsn> out;
  out.reserve(current.size());
  for (typename Source::Id id : current) {
    const std::optional<typename Source::Row> row = src.row_of(id);
    if (row && prog.matches(*row)) out.push_back(src.glsn_at(*row));
  }
  return out;
}

}  // namespace

std::vector<logm::Glsn> eval_local_scan(const Expr& expr,
                                        const logm::FragmentStore& store) {
  QueryEngineCounters& ctr = detail::query_engine_counters_mut();
  ctr.rows_scanned += store.size();
  return store.select([&](const logm::Fragment& frag) {
    try {
      return evaluate(expr, frag.attrs);
    } catch (const std::out_of_range&) {
      // A fragment missing a referenced attribute simply does not match.
      return false;
    }
  });
}

std::vector<logm::Glsn> eval_local_indexed(const Expr& expr,
                                           const logm::FragmentStore& store) {
  QueryEngineCounters& ctr = detail::query_engine_counters_mut();
  if (!store.indexing()) {
    ++ctr.planner_fallbacks;
    return eval_local_scan(expr, store);
  }
  const Expr normalized = push_negations(expr);
  PlanStats stats;
  std::vector<logm::Glsn> out = run_plan(
      StoreSource(store), normalized, to_conjunctive(normalized), stats);
  ctr.index_hits += stats.probes;
  ctr.rows_scanned += stats.rows_evaluated;
  ctr.conjuncts_short_circuited += stats.short_circuited;
  if (stats.full_scan) ++ctr.planner_fallbacks;
  return out;
}

std::vector<logm::Glsn> eval_engine_scan(const Expr& expr,
                                         const logm::StorageEngine& engine) {
  QueryEngineCounters& ctr = detail::query_engine_counters_mut();
  ctr.rows_scanned += engine.size();
  std::vector<logm::Glsn> out;
  engine.for_each([&](const logm::Fragment& frag) {
    try {
      if (evaluate(expr, frag.attrs)) out.push_back(frag.glsn);
    } catch (const std::out_of_range&) {
      // Missing referenced attribute => non-match, same as eval_local_scan.
    }
  });
  return out;
}

std::vector<logm::Glsn> eval_engine_indexed(const Expr& expr,
                                            const logm::StorageEngine& engine) {
  const logm::SegmentEngine* seg_eng = engine.segment_backend();
  if (seg_eng == nullptr) {
    return eval_local_indexed(expr, engine.memtable());
  }

  // Snapshot: pins the segment list against compaction reclaim for the
  // duration of the evaluation.
  const logm::SegmentEngine::ReadTxn txn = seg_eng->begin_read();
  const logm::FragmentStore& mem = seg_eng->memtable();
  const std::vector<logm::Glsn>& pending = seg_eng->pending_tombstones();

  std::vector<logm::Glsn> out = eval_local_indexed(expr, mem);

  const Expr normalized = push_negations(expr);
  const std::vector<Expr> conjuncts = to_conjunctive(normalized);
  const auto& segs = txn.segments();  // oldest -> newest
  logm::StorageStats& st = logm::storage_stats_mut();

  for (std::size_t i = segs.size(); i-- > 0;) {
    PlanStats stats;
    const std::vector<logm::Glsn> hits =
        run_plan(SegmentSource(*segs[i]), normalized, conjuncts, stats);
    st.segment_probe_hits += stats.probes;
    st.segment_rows_decoded += stats.rows_evaluated;
    if (stats.pruned) ++st.zone_map_skips;
    for (logm::Glsn g : hits) {
      // Shadow subtraction: a newer source owning this glsn — memtable row,
      // pending tombstone, or any newer segment's row/tombstone — makes the
      // older segment's version invisible.
      if (mem.get(g) != nullptr) continue;
      if (std::binary_search(pending.begin(), pending.end(), g)) continue;
      bool shadowed = false;
      for (std::size_t j = i + 1; j < segs.size(); ++j) {
        if (segs[j]->row_of(g) || segs[j]->has_tombstone(g)) {
          shadowed = true;
          break;
        }
      }
      if (!shadowed) out.push_back(g);
    }
  }

  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace dla::audit
