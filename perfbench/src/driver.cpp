// Closed-loop driver and the plaintext oracle it checks results against.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "bench.hpp"

namespace pb {

using dla::audit::AggOp;

Driver::Driver(dla::net::Transport& net,
               std::vector<dla::audit::UserNode*> users, bool certified)
    : net_(net),
      users_(std::move(users)),
      certified_(certified),
      session_max_acked_(users_.size(), 0),
      acked_(users_.size()) {}

void Tally::merge(const Tally& o) {
  for (std::size_t c = 0; c < kClasses; ++c) {
    lat[c].insert(lat[c].end(), o.lat[c].begin(), o.lat[c].end());
  }
  all.insert(all.end(), o.all.begin(), o.all.end());
  attempted += o.attempted;
  failed += o.failed;
}

Driver::Op Driver::start(Cls cls, std::size_t s) {
  if (recording_ && ++tally.attempted >= budget_) stopping_ = true;
  ++outstanding_;
  return Op{cls, s, Clock::now(), recording_};
}

void Driver::finish(const Op& op, bool ok) {
  const double ms = ms_between(op.t0, Clock::now());
  --outstanding_;
  if (!ok) {
    if (op.record) {
      ++tally.failed;
    } else {
      violations.push_back(std::string("untimed ") + cls_name(op.cls) +
                           " operation failed");
    }
  } else if (op.record) {
    tally.lat[static_cast<std::size_t>(op.cls)].push_back(ms);
    tally.all.push_back(ms);
  }
  if (!stopping_ && next_op) next_op(op.session);
}

std::optional<std::string> Driver::check_write(std::size_t s, Glsn glsn,
                                               Glsn floor) const {
  if (writes_.contains(glsn)) {
    return "glsn " + std::to_string(glsn) + " acknowledged twice";
  }
  if (glsn <= floor) {
    return "session " + std::to_string(s) + " got glsn " +
           std::to_string(glsn) + " after already holding " +
           std::to_string(floor);
  }
  return std::nullopt;
}

void Driver::write(std::size_t s, Row row) {
  Op op = start(Cls::Write, s);
  // Writes acknowledged to this session before this one was issued must
  // carry smaller glsns (real-time order within the session).
  const Glsn floor = session_max_acked_[s];
  auto attrs = to_attrs(row);
  users_[s]->log_record(
      net_, std::move(attrs),
      [this, op, floor, row = std::move(row)](std::optional<Glsn> g) {
        if (g) {
          if (auto bad = check_write(op.session, *g, floor)) {
            violations.push_back(*bad);
          }
          WriteInfo& w = writes_[*g];
          w.row = row;
          w.session = op.session;
          w.issued = op.t0;
          w.acked = Clock::now();
          session_max_acked_[op.session] =
              std::max(session_max_acked_[op.session], *g);
          acked_[op.session].push_back(*g);
        }
        finish(op, g.has_value());
      });
}

void Driver::del(std::size_t s, Glsn glsn) {
  Op op = start(Cls::Delete, s);
  writes_.at(glsn).del_issued = op.t0;
  users_[s]->delete_record(net_, glsn, [this, op, glsn](bool ok) {
    if (ok) writes_.at(glsn).del_acked = Clock::now();
    finish(op, ok);
  });
}

void Driver::attach_integrity(dla::audit::DlaNode& node) {
  node.on_integrity_result = [this](dla::audit::SessionId sid, Glsn g,
                                    bool ok) {
    auto it = integrity_waiters_.find(sid);
    if (it == integrity_waiters_.end()) return;
    auto done = std::move(it->second);
    integrity_waiters_.erase(it);
    done(g, ok);
  };
}

void Driver::integrity(std::size_t s, dla::audit::DlaNode& node, Glsn glsn) {
  Op op = start(Cls::Integrity, s);
  const dla::audit::SessionId sid = next_integrity_++;
  integrity_waiters_[sid] = [this, op, glsn](Glsn g, bool ok) {
    // The circulated record was never touched, so the check must pass.
    if (g != glsn || !ok) {
      violations.push_back("integrity circulation of untouched glsn " +
                           std::to_string(glsn) + " reported failure");
    }
    finish(op, true);
  };
  node.start_integrity_check(net_, sid, glsn);
}

void Driver::query(std::size_t s, CritPtr c) {
  Op op = start(c->cls, s);
  users_[s]->query(net_, c->text,
                   [this, op, c](dla::audit::QueryOutcome o) {
                     if (o.ok) {
                       QueryCheck q;
                       q.crit = c;
                       q.session = op.session;
                       q.issued = op.t0;
                       q.done = Clock::now();
                       q.result = std::move(o.glsns);
                       q.certified = o.certified;
                       queries_.push_back(std::move(q));
                     }
                     finish(op, o.ok);
                   });
}

void Driver::aggregate(std::size_t s, CritPtr c) {
  Op op = start(Cls::Aggregate, s);
  users_[s]->aggregate_query(
      net_, c->text, c->op, c->attr,
      [this, op, c](dla::audit::AggregateOutcome o) {
        if (o.ok) {
          QueryCheck q;
          q.crit = c;
          q.session = op.session;
          q.issued = op.t0;
          q.done = Clock::now();
          q.aggregate = true;
          q.value = o.value;
          q.count = o.count;
          queries_.push_back(std::move(q));
        }
        finish(op, o.ok);
      });
}

void Driver::fetch(std::size_t s, const std::vector<Glsn>& glsns) {
  for (Glsn g : glsns) {
    ++outstanding_;
    users_[s]->fetch_record(
        net_, g, [this, g](std::optional<dla::logm::LogRecord> rec) {
          --outstanding_;
          const WriteInfo& w = writes_.at(g);
          if (w.del_acked) {
            if (rec) {
              violations.push_back("deleted glsn " + std::to_string(g) +
                                   " still readable");
            }
          } else if (!rec || rec->glsn != g || rec->attrs != to_attrs(w.row)) {
            violations.push_back("read-back of glsn " + std::to_string(g) +
                                 " does not match the written record");
          }
        });
  }
}

std::vector<Glsn> Driver::live_glsns() const {
  std::vector<Glsn> out;
  for (const auto& [g, w] : writes_) {
    if (!w.del_issued) out.push_back(g);
  }
  return out;
}

std::vector<Glsn> Driver::deleted_glsns() const {
  std::vector<Glsn> out;
  for (const auto& [g, w] : writes_) {
    if (w.del_acked) out.push_back(g);
  }
  return out;
}

// A query may overlap writes, so its answer is bounded, not fixed:
//   must  = matching records acknowledged to the querying session before the
//           query was issued, or acknowledged before the last drain that
//           preceded it, and not deleted while it ran;
//   may   = matching records whose write was issued before the query
//           completed and whose delete was not acknowledged before it began.
// Without overlapping writes must == may and the check is exact equality.
std::optional<std::string> Driver::check_query(const QueryCheck& q) const {
  Clock::time_point settled{};
  for (const auto& t : settles_) {
    if (t <= q.issued) settled = std::max(settled, t);
  }
  std::vector<Glsn> must, may;
  double must_sum = 0, may_sum = 0;
  double may_min = INFINITY, may_max = -INFINITY;
  auto attr_value = [&q](const Row& r) {
    return q.crit->attr == "C1" ? static_cast<double>(r.c1) : r.c2;
  };
  for (const auto& [g, w] : writes_) {
    if (!q.crit->match(w.row)) continue;
    const bool visible =
        (w.session == q.session && w.acked < q.issued) || w.acked <= settled;
    const bool gone_before = w.del_acked && *w.del_acked < q.issued;
    const bool going = w.del_issued && *w.del_issued < q.done;
    if (visible && !going) {
      must.push_back(g);
      must_sum += attr_value(w.row);
    }
    if (w.issued < q.done && !gone_before) {
      may.push_back(g);
      const double v = attr_value(w.row);
      may_sum += v;
      may_min = std::min(may_min, v);
      may_max = std::max(may_max, v);
    }
  }
  const std::string where = "'" + q.crit->text + "' (session " +
                            std::to_string(q.session) + ")";
  if (!q.aggregate) {
    if (certified_ && !q.certified) return "uncertified result for " + where;
    std::vector<Glsn> got = q.result;
    std::sort(got.begin(), got.end());
    if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
      return "duplicate glsn in result of " + where;
    }
    if (!std::includes(may.begin(), may.end(), got.begin(), got.end())) {
      return "result of " + where + " holds a glsn that cannot match";
    }
    if (!std::includes(got.begin(), got.end(), must.begin(), must.end())) {
      return "result of " + where + " misses a matching glsn (" +
             std::to_string(got.size()) + " < " +
             std::to_string(must.size()) + " expected)";
    }
    return std::nullopt;
  }
  const auto tol = [](double ref) { return 1e-9 * std::max(1.0, std::fabs(ref)); };
  if (q.count < must.size() || q.count > may.size()) {
    return "aggregate count of " + where + " is " + std::to_string(q.count) +
           ", expected " + std::to_string(must.size()) +
           (must.size() == may.size() ? "" : ".." + std::to_string(may.size()));
  }
  const bool exact = must.size() == may.size();
  bool ok = true;
  switch (q.crit->op) {
    case AggOp::Count:
      ok = q.value == static_cast<double>(q.count);
      break;
    case AggOp::Sum:  // C1 and C2 are non-negative: the sum is monotone
      ok = q.value >= must_sum - tol(must_sum) &&
           q.value <= may_sum + tol(may_sum);
      break;
    case AggOp::Avg:
      ok = exact ? std::fabs(q.value - may_sum / may.size()) <=
                       tol(may_sum / may.size())
                 : q.value >= may_min - tol(may_min) &&
                       q.value <= may_max + tol(may_max);
      break;
    default:
      ok = false;
  }
  if (!ok) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", q.value);
    return "aggregate value of " + where + " is " + buf;
  }
  return std::nullopt;
}

std::vector<std::string> Driver::check_all() const {
  std::vector<std::string> out = violations;
  for (const QueryCheck& q : queries_) {
    if (auto bad = check_query(q)) out.push_back(*bad);
  }
  if (outstanding_ != 0) {
    out.push_back(std::to_string(outstanding_) +
                  " operations never completed");
  }
  return out;
}

std::size_t Driver::self_check(std::vector<std::string>& problems) const {
  std::size_t tried = 0;
  auto expect_rejected = [&](const char* what, bool rejected) {
    ++tried;
    if (!rejected) {
      problems.push_back(std::string("oracle accepted a corrupted ") + what);
    }
  };
  auto q = std::find_if(queries_.begin(), queries_.end(), [](const auto& c) {
    return !c.aggregate && !c.result.empty();
  });
  if (q != queries_.end()) {
    QueryCheck bad = *q;
    bad.result.pop_back();
    expect_rejected("query result (one glsn removed)",
                    check_query(bad).has_value());
  }
  auto a = std::find_if(queries_.begin(), queries_.end(),
                        [](const auto& c) { return c.aggregate; });
  if (a != queries_.end()) {
    QueryCheck bad = *a;
    bad.count += 1;
    bad.value += 1;
    expect_rejected("aggregate (count + 1)", check_query(bad).has_value());
  }
  if (!writes_.empty()) {
    const auto& [g, w] = *writes_.begin();
    expect_rejected("write ack (reused glsn)",
                    check_write(w.session, g, 0).has_value());
  }
  return tried;
}

void print_latency_table(const Tally& t, double seconds) {
  std::printf("%-12s %8s %10s %10s %10s\n", "class", "samples", "p50_ms",
              "p90_ms", "p99_ms");
  for (std::size_t c = 0; c < kClasses; ++c) {
    const auto& v = t.lat[c];
    if (v.empty()) continue;
    std::printf("%-12s %8zu %10.3f %10.3f %10.3f\n",
                cls_name(static_cast<Cls>(c)), v.size(), quantile(v, 0.5),
                v.size() >= 100 ? quantile(v, 0.9) : NAN,
                v.size() >= 1000 ? quantile(v, 0.99) : NAN);
  }
  std::printf("%-12s %8zu in %.2f s; deciles", "all", t.all.size(), seconds);
  for (int q = 1; q < 10; ++q) std::printf(" %.2f", quantile(t.all, q / 10.0));
  std::printf(" ms\n");
}

void add_end_to_end(Result& r, const Tally& t, double timed_s,
                    double setup_s, double rss_mb) {
  r.add("setup_s", setup_s, "s");
  r.add("op_rate", static_cast<double>(t.all.size()) / timed_s, "ops/s");
  r.add("op_p50_ms", quantile(t.all, 0.5), "ms");
  r.add("op_p90_ms", quantile(t.all, 0.9), "ms");
  r.add("peak_rss_mb", rss_mb, "MiB");
  r.attempted = t.attempted;
  r.failed = t.failed;
  if (t.all.size() < 100) {
    std::printf("note: %zu timed operations, fewer than ten beyond p90\n",
                t.all.size());
  }
}

}  // namespace pb
