// Differential and unit tests for the compiled local query engine
// (audit/local_query.hpp) and the FragmentStore columnar mirror.
//
// The engine carries a strict equivalence obligation: eval_local_indexed
// must return bit-identical glsn sets to the naive scan (select + evaluate,
// missing attribute => non-match) on every workload. The differential
// sweeps randomized generate_workload seeds over full, partitioned and
// attribute-sparse stores; a source-agreement table pins the memtable and a
// sealed segment to the same plan decisions.
#include "audit/local_query.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/metrics.hpp"
#include "audit/query.hpp"
#include "crypto/rng.hpp"
#include "logm/store.hpp"
#include "logm/workload.hpp"
#include "workload_gen.hpp"

namespace dla::audit {
namespace {

using logm::FragmentStore;
using logm::Glsn;
using logm::LogRecord;

// Criteria covering every planner shape: indexable equality/range
// conjunctions, IN-fans, non-indexable residuals (!=, attr-vs-attr, NOT,
// mixed-attribute OR) and empty-result short circuits.
const std::vector<std::string>& criteria() {
  static const std::vector<std::string> kCriteria{
      "id = 'U3'",
      "protocl = 'UDP'",
      "C2 > 500.0",
      "C2 >= 100.0 AND C2 <= 900.0",
      "Time > 1021234000 AND id = 'U1'",
      "id = 'U3' AND C2 > 500.0 AND protocl = 'TCP'",
      "id IN ('U1', 'U3', 'U5')",
      "C1 BETWEEN 2 AND 7",
      "id != 'U2'",
      "C1 < C2",
      "C1 < C2 AND Tid = 'T3'",
      "NOT (id = 'U1' OR C2 > 800.0)",
      "id = 'U1' OR protocl = 'TCP'",
      "id = 'NO_SUCH_USER' AND C2 > 0.0",
      "id = 'U1' AND id = 'U2'",
      "(id = 'U1' AND C2 > 200.0) OR Tid = 'T5'",
  };
  return kCriteria;
}

// Record/store builders are shared with the bench and traffic drivers
// (tests/workload_gen.hpp) so every consumer sees identical seeded streams.
std::vector<LogRecord> make_records(std::uint64_t seed, std::size_t count) {
  return testkit::make_records(seed, count);
}

FragmentStore full_store(const std::vector<LogRecord>& records) {
  return testkit::make_store(records);
}

// Drops attributes pseudo-randomly so the missing-attribute (tri-state)
// semantics is exercised: roughly one attribute in six goes absent.
FragmentStore sparse_store(const std::vector<LogRecord>& records,
                           std::uint64_t seed) {
  crypto::ChaCha20Rng rng(seed);
  FragmentStore store;
  for (const LogRecord& rec : records) {
    logm::Fragment frag{rec.glsn, {}};
    for (const auto& [name, value] : rec.attrs) {
      if (rng.next_u64() % 6 != 0) frag.attrs.emplace(name, value);
    }
    store.put(std::move(frag));
  }
  return store;
}

void expect_equivalent(const FragmentStore& store, const std::string& where) {
  const logm::Schema schema = logm::paper_schema();
  for (const std::string& text : criteria()) {
    const Expr expr = parse(text, schema);
    EXPECT_EQ(eval_local_indexed(expr, store), eval_local_scan(expr, store))
        << where << " diverged on: " << text;
  }
}

TEST(LocalQueryDifferential, FullRecordsAcrossSeeds) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    FragmentStore store = full_store(make_records(seed, 300));
    expect_equivalent(store, "full/seed " + std::to_string(seed));
  }
}

TEST(LocalQueryDifferential, PartitionedFragmentsAcrossSeeds) {
  const logm::AttributePartition partition = logm::paper_partition();
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    std::vector<FragmentStore> stores(partition.node_count());
    for (const LogRecord& rec : make_records(seed, 200)) {
      std::vector<logm::Fragment> frags = partition.fragment(rec);
      for (std::size_t node = 0; node < frags.size(); ++node) {
        stores[node].put(std::move(frags[node]));
      }
    }
    for (std::size_t n = 0; n < stores.size(); ++n) {
      expect_equivalent(stores[n], "partition/seed " + std::to_string(seed) +
                                       "/node " + std::to_string(n));
    }
  }
}

TEST(LocalQueryDifferential, SparseRecordsExerciseMissingSemantics) {
  for (std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    FragmentStore store = sparse_store(make_records(seed, 250), seed * 7);
    expect_equivalent(store, "sparse/seed " + std::to_string(seed));
  }
}

TEST(LocalQueryDifferential, SurvivesErasesAndOverwrites) {
  std::vector<LogRecord> records = make_records(31, 200);
  FragmentStore store = full_store(records);
  crypto::ChaCha20Rng rng(31 * 13);
  // Erase a third, overwrite a third with mutated attributes.
  for (const LogRecord& rec : records) {
    switch (rng.next_u64() % 3) {
      case 0:
        store.erase(rec.glsn);
        break;
      case 1: {
        logm::Fragment frag{rec.glsn, rec.attrs};
        frag.attrs["C2"] = logm::Value(static_cast<double>(rng.next_u64() % 1000));
        frag.attrs.erase("Tid");
        store.put(std::move(frag));
        break;
      }
      default:
        break;
    }
  }
  expect_equivalent(store, "mutated");
}

TEST(LocalQueryDifferential, IndexingDisabledDelegatesToScan) {
  FragmentStore store = full_store(make_records(41, 100));
  store.set_indexing(false);
  expect_equivalent(store, "indexing-off");
  store.set_indexing(true);  // rebuild, then differential again
  expect_equivalent(store, "indexing-rebuilt");
}

// Ordered text-vs-numeric comparison must throw from both paths (the parser
// forbids the shape, but hand-built expressions reach the engine directly).
TEST(LocalQuery, OrderedTypeMismatchThrowsLikeScan) {
  FragmentStore store = full_store(make_records(51, 20));
  Expr expr = Expr::make_pred(
      Predicate{"id", CmpOp::Lt, false, "", logm::Value(std::int64_t{5})});
  EXPECT_THROW(eval_local_indexed(expr, store), std::invalid_argument);
  EXPECT_THROW(eval_local_scan(expr, store), std::invalid_argument);
}

// ---- source agreement: memtable vs sealed segment -------------------------

// One planner serves both column sources, so a memtable and a sealed
// segment holding the same rows must both return the scan oracle's glsns
// and take the same index-or-residual decision on every conjunct shape. The
// segment may instead exclude itself whole (absent attribute, zone map)
// before it plans, which the table states per shape.
TEST(LocalQuerySources, MemtableAndSegmentAgreeOnEveryShape) {
  struct Shape {
    const char* criterion;
    std::uint64_t probes;  // access paths the memtable executes
    bool segment_pruned;
  };
  const std::vector<Shape> shapes{
      {"id = 'U2'", 1, false},                    // equality
      {"id IN ('U1', 'U3')", 1, false},           // OR-fan on one attribute
      {"id = 'U1' OR Tid = 'T2'", 0, false},      // OR-fan across attributes
      {"C2 > 600.0", 1, false},                   // ordered, numeric column
      {"id = 'U1' AND C1 > 5", 1, false},         // ordered, column with text
      {"id != 'U2'", 0, false},                   // Ne
      {"Time > C2", 0, false},                    // attribute vs attribute
      {"C3 = 'bank'", 0, true},                   // absent attribute
      {"Time BETWEEN 1005 AND 1012", 1, false},   // fuses into one slice
      {"Time < 1040", 1, false},                  // strict bound = column max
      {"Time > 1040", 1, true},                   // strict bound = column max
  };

  // 40 rows; C1 holds text on the U0 rows, C3 is carried by no row.
  FragmentStore store;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("dla_source_agreement_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  logm::SegmentEngine::Options opts;
  opts.memtable_max_records = 0;  // one manual seal
  opts.auto_compact = false;
  logm::SegmentEngine segment(dir.string(), opts);
  for (Glsn g = 1; g <= 40; ++g) {
    logm::Fragment frag{g, {}};
    frag.attrs["Time"] = logm::Value(static_cast<std::int64_t>(1000 + g));
    frag.attrs["id"] = logm::Value("U" + std::to_string(g % 4));
    frag.attrs["Tid"] = logm::Value("T" + std::to_string(g % 5));
    frag.attrs["C1"] = g % 4 == 0
                           ? logm::Value("n/a")
                           : logm::Value(static_cast<std::int64_t>(g % 10));
    frag.attrs["C2"] = logm::Value(30.0 * static_cast<double>(g));
    store.put(frag);
    segment.put(std::move(frag));
  }
  ASSERT_EQ(segment.seal(), 40u);
  ASSERT_EQ(segment.memtable().size(), 0u);

  const logm::Schema schema = logm::paper_schema();
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.criterion);
    const Expr expr = parse(shape.criterion, schema);
    const std::vector<Glsn> oracle = eval_local_scan(expr, store);

    reset_query_engine_counters();
    EXPECT_EQ(eval_local_indexed(expr, store), oracle);
    const std::uint64_t memtable_probes = query_engine_counters().index_hits;
    EXPECT_EQ(memtable_probes, shape.probes);

    logm::reset_storage_stats();
    EXPECT_EQ(eval_engine_indexed(expr, segment), oracle);
    const logm::StorageStats& st = logm::storage_stats();
    if (shape.segment_pruned) {
      EXPECT_EQ(st.zone_map_skips, 1u);
      EXPECT_EQ(st.segment_probe_hits, 0u);
      EXPECT_TRUE(oracle.empty());
    } else {
      EXPECT_EQ(st.zone_map_skips, 0u);
      EXPECT_EQ(st.segment_probe_hits, memtable_probes);
    }
  }
  std::filesystem::remove_all(dir);
}

// ---- columnar mirror unit coverage ----------------------------------------

TEST(FragmentStoreColumnar, MirrorTracksPutEraseOverwrite) {
  FragmentStore store;
  store.put({10, {{"id", logm::Value("U1")}, {"C1", logm::Value(std::int64_t{5})}}});
  store.put({20, {{"id", logm::Value("U2")}}});
  store.put({15, {{"id", logm::Value("U1")}, {"C1", logm::Value(std::int64_t{9})}}});

  ASSERT_EQ(store.row_count(), 3u);
  EXPECT_EQ(store.row_glsns(), (std::vector<Glsn>{10, 15, 20}));
  ASSERT_NE(store.column("id"), nullptr);
  EXPECT_EQ(store.column("id")->present, 3u);
  ASSERT_NE(store.column("C1"), nullptr);
  EXPECT_EQ(store.column("C1")->present, 2u);
  EXPECT_EQ(store.column("C1")->cells[2], nullptr);  // glsn 20 lacks C1

  const logm::AttributeIndex* idx = store.attr_index("id");
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->rows(), 3u);
  EXPECT_EQ(idx->distinct(), 2u);
  const std::vector<Glsn>* u1 = idx->equal(logm::Value("U1"));
  ASSERT_NE(u1, nullptr);
  EXPECT_EQ(*u1, (std::vector<Glsn>{10, 15}));

  // Overwrite drops the old postings and picks up the new value.
  store.put({15, {{"id", logm::Value("U3")}}});
  EXPECT_EQ(*store.attr_index("id")->equal(logm::Value("U1")),
            (std::vector<Glsn>{10}));
  EXPECT_EQ(store.column("C1")->present, 1u);

  store.erase(10);
  EXPECT_EQ(store.row_count(), 2u);
  EXPECT_EQ(store.attr_index("id")->equal(logm::Value("U1")), nullptr);
  EXPECT_EQ(store.row_of(15), std::optional<std::size_t>{0});
  EXPECT_EQ(store.row_of(10), std::nullopt);
}

TEST(FragmentStoreColumnar, CopyRebuildsMirror) {
  FragmentStore store = full_store(make_records(61, 50));
  FragmentStore copy = store;
  store.erase(store.row_glsns().front());  // must not disturb the copy
  ASSERT_EQ(copy.row_count(), 50u);
  expect_equivalent(copy, "copied store");
}

TEST(FragmentStoreColumnar, RangeIndexRespectsBounds) {
  FragmentStore store;
  for (std::int64_t i = 0; i < 10; ++i) {
    store.put({static_cast<Glsn>(100 + i), {{"C1", logm::Value(i)}}});
  }
  const logm::AttributeIndex* idx = store.attr_index("C1");
  ASSERT_NE(idx, nullptr);
  const logm::Value lo(std::int64_t{3});
  const logm::Value hi(std::int64_t{6});
  EXPECT_EQ(idx->range(&lo, true, &hi, true),
            (std::vector<Glsn>{103, 104, 105, 106}));
  EXPECT_EQ(idx->range(&lo, false, &hi, false), (std::vector<Glsn>{104, 105}));
  EXPECT_EQ(idx->range(nullptr, false, &lo, false),
            (std::vector<Glsn>{100, 101, 102}));
  EXPECT_EQ(idx->range(&hi, false, nullptr, false),
            (std::vector<Glsn>{107, 108, 109}));
  ASSERT_NE(idx->min_value(), nullptr);
  EXPECT_EQ(idx->min_value()->as_int(), 0);
  EXPECT_EQ(idx->max_value()->as_int(), 9);
}

}  // namespace
}  // namespace dla::audit
