// Shared declarations of the wall-clock benchmark: seeded inputs, the
// criterion templates with their own plaintext predicates, the closed-loop
// driver that times every user operation and checks it against an
// independent mirror, and the per-layer trace. See ../README.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "audit/dla_node.hpp"
#include "audit/user_node.hpp"
#include "audit/wire.hpp"
#include "logm/value.hpp"
#include "net/transport.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;
using dla::logm::Glsn;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

// DLA nodes in every workload's cluster (the paper's four-way partition).
constexpr std::size_t kDlaNodes = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = ".bench_build/perfbench-data";  // durable stores
  std::string noded;  // node daemon binary (loopback workload)
};

// ------------------------------------------------------------- inputs ----
// One log record in plaintext, over the paper's schema (Time | id | protocl
// | Tid | C1 C2 C3). The oracle evaluates criteria on these fields directly.
struct Row {
  std::int64_t time = 0;
  std::string id, proto, tid;
  std::int64_t c1 = 0;
  double c2 = 0;
  std::string c3;
};
std::map<std::string, dla::logm::Value> to_attrs(const Row& row);

// splitmix64 stream: the only source of benchmark inputs, seeded by --seed.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : s_(seed * 0x9e3779b97f4a7c15ULL + 1) {}
  std::uint64_t next();
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  // Next record; Time increases by 1..30 per record as in logm's generator.
  Row row();

 private:
  std::uint64_t s_;
  std::int64_t time_ = 1021234000;
};

// Operation classes, as the user sees them.
enum class Cls : std::uint8_t { Write, Delete, Integrity, QueryCross, QueryLocal, Aggregate };
constexpr std::size_t kClasses = 6;
const char* cls_name(Cls c);

// One criterion instance: the text sent to the cluster plus the plaintext
// predicate the oracle applies to the mirror. Predicates never go through
// audit::parse or the program's local evaluators.
struct Criterion {
  std::string text;
  Cls cls = Cls::QueryCross;
  std::function<bool(const Row&)> match;
  dla::audit::AggOp op = dla::audit::AggOp::Count;  // Aggregate only
  std::string attr;                                 // "C1" / "C2"
};

// Sorted attribute values of the preloaded store. Criteria take their
// constants at ranks of these, so a criterion selects the same number of
// records on every seed and the work per query does not depend on it.
struct StoreView {
  std::vector<std::int64_t> times;  // ascending, distinct
  std::vector<double> c2;           // ascending
};

// Templates: 0 cross AND (set intersection), 1 cross OR (set union),
// 2 blind-TTP join, 3 single-owner local, 4 count, 5 sum C1, 6 avg C2.
constexpr std::size_t kTemplates = 7;
// Fresh constants from `g` at ranks of `view`.
Criterion make_criterion(std::size_t tmpl, Gen& g, const StoreView& view);

// -------------------------------------------------------------- driver ----
// Timings and counts of timed operations.
struct Tally {
  std::vector<double> lat[kClasses];  // ms, by class
  std::vector<double> all;            // ms, every class
  std::uint64_t attempted = 0, failed = 0;
  void merge(const Tally& other);
};

struct WriteInfo {
  Row row;
  std::size_t session = 0;
  Clock::time_point issued, acked;
  std::optional<Clock::time_point> del_issued, del_acked;
};

struct QueryCheck {
  std::shared_ptr<const Criterion> crit;
  std::size_t session = 0;
  Clock::time_point issued, done;
  bool aggregate = false;
  std::vector<Glsn> result;
  bool certified = false;
  double value = 0;
  std::uint64_t count = 0;
};

// Closed-loop driver over any transport. A workload installs `next_op`,
// which issues the session's next operation; every completion calls it
// again until stop() has been called, so each session keeps a fixed number
// of operations outstanding.
class Driver {
 public:
  Driver(dla::net::Transport& net, std::vector<dla::audit::UserNode*> users,
         bool certified);

  std::function<void(std::size_t session)> next_op;

  void write(std::size_t s, Row row);
  void del(std::size_t s, Glsn glsn);
  void integrity(std::size_t s, dla::audit::DlaNode& node, Glsn glsn);
  using CritPtr = std::shared_ptr<const Criterion>;
  void query(std::size_t s, CritPtr c);
  void aggregate(std::size_t s, CritPtr c);
  // Reads back `glsns` with fetch_record (untimed, after the timed phase).
  void fetch(std::size_t s, const std::vector<Glsn>& glsns);

  // Routes integrity outcomes of every node to this driver.
  void attach_integrity(dla::audit::DlaNode& node);

  // Whether completed operations count toward the metrics.
  void set_recording(bool record) { recording_ = record; }
  // Stop issuing once this many timed operations have been attempted.
  void set_budget(std::uint64_t ops) { budget_ = ops; }
  void stop() { stopping_ = true; }
  void resume() { stopping_ = false; }
  bool stopping() const { return stopping_; }
  std::size_t outstanding() const { return outstanding_; }
  // Marks every write acked so far as visible to every session (called
  // once the transport has drained).
  void settle() { settles_.push_back(Clock::now()); }

  // Oracle: checks deferred queries and aggregates; returns violations.
  std::vector<std::string> check_all() const;
  // Corrupts a copy of one recorded result and confirms the oracle rejects
  // it; returns the number of corruption kinds tried (0 = none possible).
  std::size_t self_check(std::vector<std::string>& problems) const;

  const std::map<Glsn, WriteInfo>& writes() const { return writes_; }
  // Glsns acknowledged to a session, in acknowledgement order.
  const std::vector<Glsn>& acked(std::size_t s) const { return acked_[s]; }
  std::vector<Glsn> live_glsns() const;
  std::vector<Glsn> deleted_glsns() const;

  Tally tally;                          // timed operations
  std::vector<std::string> violations;  // immediate checks

 private:
  struct Op {
    Cls cls;
    std::size_t session;
    Clock::time_point t0;
    bool record;
  };
  Op start(Cls cls, std::size_t s);
  void finish(const Op& op, bool ok);
  std::optional<std::string> check_query(const QueryCheck& q) const;
  std::optional<std::string> check_write(std::size_t s, Glsn glsn,
                                         Glsn floor) const;

  dla::net::Transport& net_;
  std::vector<dla::audit::UserNode*> users_;
  bool certified_;
  bool recording_ = false;
  bool stopping_ = false;
  std::uint64_t budget_ = UINT64_MAX;
  std::size_t outstanding_ = 0;
  std::vector<Clock::time_point> settles_;
  std::map<Glsn, WriteInfo> writes_;
  std::vector<Glsn> session_max_acked_;
  std::vector<std::vector<Glsn>> acked_;
  std::vector<QueryCheck> queries_;
  std::map<dla::audit::SessionId, std::function<void(Glsn, bool)>>
      integrity_waiters_;
  dla::audit::SessionId next_integrity_ = 0x5eed0000;
};

// ------------------------------------------------------------- results ----
struct Result {
  bool correct = true;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0, failed = 0;
  // Metric name -> (value, unit), in output order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  void add(const std::string& name, double v, const std::string& unit) {
    metrics.push_back({name, {v, unit}});
  }
};

double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);
double peak_rss_mb_self();
double peak_rss_mb_of(int pid);
// Prints the per-class latency table (name, samples, p50, p90, p99).
void print_latency_table(const Tally& t, double seconds);
// Adds the end-to-end metrics shared by every workload.
void add_end_to_end(Result& r, const Tally& t, double timed_s,
                    double setup_s, double rss_mb);

// ---------------------------------------------------------------- trace ----
// Per-layer figures measured by the traced run, in per_layer order.
struct LayerFigures {
  std::map<std::string, double> values;
};
// Microbenchmarks of single public functions, at the workloads' widths.
void run_microbenches(LayerFigures& out, const std::string& scratch);
void add_per_layer(Result& r, const LayerFigures& f);

// ----------------------------------------------------------- workloads ----
// Shares of each session's next operation (need not sum to 1).
struct Mix {
  double write = 1, del = 0, integrity = 0, query = 0, aggregate = 0;
};

struct WorkloadConfig {
  std::string name;
  std::size_t sessions = 4;
  std::size_t inflight = 1;        // operations outstanding per session
  bool durable = false;            // logm::SegmentEngine instead of memory
  std::size_t memtable_rows = 256; // seal threshold of the durable engine
  bool pin_gateway = false;        // session s always uses gateway s
  std::size_t preload = 0;         // records written before the timed phase
  std::size_t warm_ops = 0;        // untimed operations after the preload
  // 0: one cluster serves the whole timed phase. Otherwise the phase is
  // whole rounds of this many operations, each on a fresh cluster with its
  // own derived seed, until the time is up; the store then does not grow
  // with the machine's speed, and each run averages over many seeds.
  std::size_t round_ops = 0;
  Mix mix;
  // Queries are drawn Zipf(1)-skewed from a pool of this many criteria.
  std::size_t hot_pool = 0;
  // Every operation is a query or aggregate from the next template in turn,
  // so the class mix is the same on every seed.
  bool rotate_templates = false;
  // The paper's Tables 2-5 placement; false = round-robin, as the node
  // daemon bootstraps it.
  bool paper_partition = true;
};

WorkloadConfig workload_config(const std::string& name);

// Chooses and issues one session's operations; shared by the simulator and
// loopback runners. `integrity_node` is null where integrity circulations
// cannot be started (another process hosts the nodes).
class OpChooser {
 public:
  OpChooser(const WorkloadConfig& cfg, std::uint64_t seed, Driver& d,
            StoreView view);
  void issue(std::size_t session,
             const std::function<dla::audit::DlaNode*(std::size_t)>& node);
  Gen& rows() { return rows_; }
  const std::vector<Driver::CritPtr>& pool() const { return pool_; }

 private:
  Driver::CritPtr draw(std::size_t tmpl);
  bool has_match(const Criterion& c) const;

  const WorkloadConfig& cfg_;
  Driver& d_;
  std::vector<Gen> session_rng_;
  Gen rows_, crit_rng_;
  StoreView view_;
  std::set<std::string> issued_;  // criterion texts drawn so far
  std::size_t next_template_ = 0;
  std::vector<Driver::CritPtr> pool_;
  std::vector<double> pool_cdf_;
};

// Queries every hot-pool criterion once, spreading them over the sessions;
// run after a drain, these answers are exact.
void probe_pool(Driver& d, const OpChooser& chooser, std::size_t sessions);

// Preloads cfg.preload records through the write path, one at a time,
// builds the session chooser from them, runs the untimed warm-up and leaves
// d.next_op issuing the chooser's operations. `drain` runs the transport
// until nothing is outstanding.
std::unique_ptr<OpChooser> prepare(
    Driver& d, const WorkloadConfig& cfg, std::uint64_t seed,
    std::function<dla::audit::DlaNode*(std::size_t)> node,
    const std::function<void()>& drain);

Result run_sim_workload(const Args& args, const WorkloadConfig& cfg);
Result run_loopback(const Args& args);

}  // namespace pb
