// Compiled, selectivity-ordered execution of local subqueries.
//
// Every DLA node answers its local subqueries (the common case after
// Figure 3's classification) over its own fragments. One planner, written
// once over a *column source*, decides how: the memtable (a FragmentStore's
// columnar mirror and AttributeIndex) and each sealed segment (its AttrView
// order arrays, decoded lazily from the mapping) are its two sources.
//
//   1. Normalize (push_negations) and flatten the top-level conjunction.
//   2. Conjuncts whose predicates are constant equality/range comparisons on
//      one attribute (including OR-fans over a single attribute, the shape
//      IN-lists desugar to) become access paths; same-attribute ranges fuse
//      into one [lo, hi] slice.
//   3. Paths run most selective first (exact run sizes for equality,
//      min/max interpolation for ranges), their sorted id runs intersected
//      with the shared sorted-set algebra; a path estimated at more than 4x
//      the running result is demoted to a residual, and an empty running
//      result stops the plan.
//   4. Everything else is a residual conjunct, compiled once into a flat
//      node program with pre-resolved column handles and evaluated per
//      surviving row — no std::function, no per-row map lookups.
//
// A source hides only the storage format: attribute lookup, one row's cell,
// the column's min/max, and turning an equality probe or a [lo, hi] slice
// into sorted ids. Segments additionally prune themselves whole by zone map
// or absent attribute before any probe.
//
// Equivalence contract: the result is bit-identical to the naive scan
// (`select` + `evaluate` with missing-attribute => non-match) on every
// workload, including fragments that carry only a subset of the referenced
// attributes. See docs/QUERY_ENGINE.md for the tri-state semantics that
// makes OR-over-missing-attributes safe. Memtable plans count into
// audit::metrics::query_engine_counters(), segment plans into the storage
// counters.
#pragma once

#include <vector>

#include "audit/query.hpp"
#include "logm/storage_engine.hpp"
#include "logm/store.hpp"

namespace dla::audit {

// Indexed evaluation. Falls back to the scan path (and counts a planner
// fallback) when the store has indexing disabled or no conjunct is
// indexable. Returns glsns sorted ascending.
std::vector<logm::Glsn> eval_local_indexed(const Expr& expr,
                                           const logm::FragmentStore& store);

// The naive scan baseline: full fragment scan through `evaluate`, missing
// attributes treated as non-matching. Exported for differential tests and
// the scan-vs-indexed benchmark; adds the scanned rows to the counters.
std::vector<logm::Glsn> eval_local_scan(const Expr& expr,
                                        const logm::FragmentStore& store);

// Engine-aware evaluation across {memtable + segments} (see docs/STORAGE.md).
// On a MemoryEngine this is exactly eval_local_indexed on the backing store.
// On a SegmentEngine it opens a snapshot read transaction, plans the
// memtable, then runs the same planner on each segment newest to oldest,
// subtracting every glsn shadowed by a newer source (memtable row, pending
// tombstone, or newer segment row/tombstone). No row is materialized to
// answer a predicate. Bit-identical to eval_engine_scan.
std::vector<logm::Glsn> eval_engine_indexed(const Expr& expr,
                                            const logm::StorageEngine& engine);

// The engine-level oracle: visible-fragment scan through `evaluate` with
// missing-attribute => non-match, mirroring eval_local_scan.
std::vector<logm::Glsn> eval_engine_scan(const Expr& expr,
                                         const logm::StorageEngine& engine);

}  // namespace dla::audit
