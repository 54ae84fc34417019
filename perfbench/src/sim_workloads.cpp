// Workloads on an in-process audit::Cluster over the deterministic
// simulator. Handlers run on this thread, so an operation's wall time is
// the CPU its handlers burn plus the queueing that CPU causes; simulated
// link delays add nothing.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <unistd.h>

#include "audit/cluster.hpp"
#include "audit/metrics.hpp"
#include "audit/traffic_harness.hpp"
#include "bench.hpp"
#include "logm/workload.hpp"

namespace pb {

using dla::audit::Cluster;

WorkloadConfig workload_config(const std::string& name) {
  WorkloadConfig c;
  c.name = name;
  if (name == "ingest") {
    c.sessions = 4;
    c.inflight = 4;
    c.durable = true;
    c.preload = 64;
    c.warm_ops = 64;
    c.round_ops = 2000;
    c.mix = Mix{.write = 0.85, .del = 0.10, .integrity = 0.05};
  } else if (name == "audit") {
    c.sessions = 1;
    c.inflight = 1;
    c.preload = 5000;
    c.warm_ops = kTemplates;
    c.rotate_templates = true;
  } else if (name == "mixed") {
    c.sessions = 4;
    c.inflight = 1;
    c.durable = true;
    c.pin_gateway = true;
    c.preload = 1000;
    c.warm_ops = 8;
    c.mix = Mix{.write = 0.2, .query = 0.8};
    c.hot_pool = 12;
  } else if (name == "loopback") {
    c.sessions = 4;
    c.inflight = 1;
    c.pin_gateway = true;
    c.preload = 400;
    c.warm_ops = 8;
    c.mix = Mix{.write = 0.25, .query = 0.6, .aggregate = 0.15};
    c.hot_pool = 12;
    c.paper_partition = false;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return c;
}

// ------------------------------------------------------------ chooser ----
OpChooser::OpChooser(const WorkloadConfig& cfg, std::uint64_t seed, Driver& d,
                     StoreView view)
    : cfg_(cfg),
      d_(d),
      rows_(seed * 31 + 1),
      crit_rng_(seed * 31 + 2),
      view_(std::move(view)) {
  for (std::size_t s = 0; s < cfg.sessions; ++s) {
    session_rng_.emplace_back(seed * 31 + 3 + s);
  }
  // Hot pool, Zipf(1)-weighted in pool order: the cross templates (AND, OR,
  // join) in turn, and one local query in the coldest slot. Mostly cross
  // queries keep the latency median inside one mode of the mix.
  double acc = 0;
  for (std::size_t i = 0; i < cfg.hot_pool; ++i) {
    pool_.push_back(draw(i + 1 == cfg.hot_pool ? 3 : i % 3));
    acc += 1.0 / static_cast<double>(i + 1);
    pool_cdf_.push_back(acc);
  }
}

bool OpChooser::has_match(const Criterion& c) const {
  for (const auto& [g, w] : d_.writes()) {
    if (!w.del_issued && c.match(w.row)) return true;
  }
  return false;
}

Driver::CritPtr OpChooser::draw(std::size_t tmpl) {
  // Redrawn until the text is new, so no query is a repeat the gateway
  // cache could serve, and for aggregates until the store holds a match, so
  // an average is always defined.
  auto c = std::make_shared<Criterion>(make_criterion(tmpl, crit_rng_, view_));
  for (int tries = 0; tries < 64; ++tries) {
    if (!issued_.contains(c->text) &&
        (c->cls != Cls::Aggregate || has_match(*c))) {
      break;
    }
    *c = make_criterion(tmpl, crit_rng_, view_);
  }
  issued_.insert(c->text);
  return c;
}

void OpChooser::issue(
    std::size_t s,
    const std::function<dla::audit::DlaNode*(std::size_t)>& node) {
  if (cfg_.rotate_templates) {
    auto c = draw(next_template_++ % kTemplates);
    if (c->cls == Cls::Aggregate) return d_.aggregate(s, c);
    return d_.query(s, c);
  }
  Gen& g = session_rng_[s];
  const Mix& m = cfg_.mix;
  const double total = m.write + m.del + m.integrity + m.query + m.aggregate;
  double r = g.unit() * total;
  const auto& mine = d_.acked(s);
  // Deletes take even glsns and integrity circulations odd ones, so a
  // circulated record is never one being deleted.
  auto pick = [&](unsigned parity) -> std::optional<Glsn> {
    for (int tries = 0; tries < 8 && !mine.empty(); ++tries) {
      Glsn cand = mine[g.below(mine.size())];
      if (cand % 2 == parity && !d_.writes().at(cand).del_issued) return cand;
    }
    return std::nullopt;
  };
  if ((r -= m.del) < 0) {
    if (auto t = pick(0)) return d_.del(s, *t);
  } else if ((r -= m.integrity) < 0) {
    dla::audit::DlaNode* n = node(s);
    if (auto t = pick(1); t && n != nullptr) return d_.integrity(s, *n, *t);
  } else if ((r -= m.query) < 0) {
    const double u = g.unit() * pool_cdf_.back();
    const std::size_t i =
        std::lower_bound(pool_cdf_.begin(), pool_cdf_.end(), u) -
        pool_cdf_.begin();
    return d_.query(s, pool_[std::min(i, pool_.size() - 1)]);
  } else if ((r -= m.aggregate) < 0) {
    // Aggregate templates 4..6 in turn, always with fresh constants.
    return d_.aggregate(s, draw(4 + next_template_++ % 3));
  }
  d_.write(s, rows_.row());
}

void probe_pool(Driver& d, const OpChooser& chooser, std::size_t sessions) {
  d.set_recording(false);
  d.next_op = nullptr;
  for (std::size_t i = 0; i < chooser.pool().size(); ++i) {
    d.query(i % sessions, chooser.pool()[i]);
  }
}

std::unique_ptr<OpChooser> prepare(
    Driver& d, const WorkloadConfig& cfg, std::uint64_t seed,
    std::function<dla::audit::DlaNode*(std::size_t)> node,
    const std::function<void()>& drain) {
  d.set_recording(false);
  // Preload, one write at a time; the criteria's store view is its records.
  Gen rows(seed * 31 + 1);
  StoreView view;
  std::size_t left = cfg.preload;
  d.next_op = [&](std::size_t s) {
    if (left == 0) return;
    --left;
    Row r = rows.row();
    view.times.push_back(r.time);
    view.c2.push_back(r.c2);
    d.write(s, std::move(r));
  };
  d.next_op(0);
  drain();
  d.settle();
  std::sort(view.c2.begin(), view.c2.end());

  auto chooser = std::make_unique<OpChooser>(cfg, seed, d, std::move(view));
  chooser->rows() = rows;  // later writes continue the Time sequence
  auto op = [ch = chooser.get(), node = std::move(node)](std::size_t s) {
    ch->issue(s, node);
  };
  // Warm-up: a fixed number of untimed operations.
  left = cfg.warm_ops;
  d.next_op = [&](std::size_t s) {
    if (left == 0) return;
    --left;
    op(s);
  };
  for (std::size_t s = 0; s < cfg.sessions; ++s) d.next_op(s);
  drain();
  d.settle();
  d.next_op = std::move(op);
  return chooser;
}

// -------------------------------------------------------------- trace ----
namespace {

// Charges the wall time of every simulator step to the (role, protocol
// class) of the message it delivered, or to "timer" when the step fired a
// timer. A step spans the handler and everything it blocked on, including
// the modexp pool.
struct Tracer {
  static constexpr int kRoles = 4;  // dla, ttp, user, timer
  static constexpr const char* kRoleNames[kRoles] = {"dla", "ttp", "user", "-"};
  std::vector<std::string> classes;             // class names, by id
  std::map<std::uint32_t, int> class_of_type;   // message type -> class id
  std::vector<double> slot_ms;                  // role * classes + class
  std::map<std::uint32_t, std::uint64_t> by_type;
  double covered_ms = 0;
  double span_ms = 0;  // timed phases the tracer was installed for
  std::uint64_t msgs = 0, bytes = 0;
  int slot = -1;       // slot of the message the current step delivered

  int class_id(std::uint32_t type) {
    auto [it, fresh] = class_of_type.try_emplace(type, 0);
    if (fresh) {
      const std::string name(dla::audit::classify_message(
          static_cast<dla::audit::MsgType>(type)));
      auto pos = std::find(classes.begin(), classes.end(), name);
      it->second = static_cast<int>(pos - classes.begin());
      if (pos == classes.end()) classes.push_back(name);
    }
    return it->second;
  }

  void install(dla::net::Simulator& sim, const dla::audit::ClusterConfig& cfg) {
    sim.set_deliver_hook([this, &cfg](const dla::net::Message& m) {
      const int role =
          m.dst == cfg.ttp ? 1
          : std::find(cfg.dla_nodes.begin(), cfg.dla_nodes.end(), m.dst) !=
                  cfg.dla_nodes.end()
              ? 0
              : 2;
      slot = role * 64 + class_id(m.type);
      ++by_type[m.type];
    });
  }

  bool step(dla::net::Simulator& sim) {
    slot = -1;
    const auto t0 = Clock::now();
    const bool more = sim.step();
    const double ms = ms_between(t0, Clock::now());
    if (more) {
      const std::size_t at = slot < 0 ? 3 * 64 : static_cast<std::size_t>(slot);
      if (slot_ms.size() <= at) slot_ms.resize(4 * 64, 0.0);
      slot_ms[at] += ms;
      covered_ms += ms;
    }
    return more;
  }

  // Adds a finished phase's network totals (the simulator's own counters).
  void collect(dla::net::Simulator& sim) {
    msgs += sim.stats().messages_delivered;
    bytes += sim.stats().bytes_sent;
    sim.set_deliver_hook(nullptr);
  }

  // Self milliseconds by "role/class" and by class.
  std::map<std::string, double> by_role_class() const {
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < slot_ms.size(); ++i) {
      if (slot_ms[i] == 0) continue;
      const std::size_t role = i / 64, cls = i % 64;
      out[std::string(kRoleNames[role]) + "/" +
          (role == 3 ? "timer" : classes[cls])] += slot_ms[i];
    }
    return out;
  }
  double class_ms(const std::string& name) const {
    double total = 0;
    for (const auto& [key, ms] : by_role_class()) {
      if (key.substr(key.find('/') + 1) == name) total += ms;
    }
    return total;
  }
};

struct SimRun {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Driver> driver;
  std::unique_ptr<OpChooser> chooser;
  std::string dir;
};

void remove_dir(const std::string& dir) {
  if (dir.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

// Closed loop on the simulator: sessions keep their operations outstanding
// until `deadline` (or the driver's budget), then the loop stops issuing and
// drains. Returns the elapsed milliseconds.
double run_until(SimRun& run, const WorkloadConfig& cfg,
                 Clock::time_point deadline, Tracer* tracer) {
  Driver& d = *run.driver;
  dla::net::Simulator& sim = run.cluster->sim();
  if (tracer != nullptr) {
    sim.reset_stats();
    tracer->install(sim, *run.cluster->config());
  }
  const auto t0 = Clock::now();
  d.set_recording(true);
  d.resume();
  for (std::size_t s = 0; s < cfg.sessions; ++s) {
    for (std::size_t k = 0; k < cfg.inflight; ++k) d.next_op(s);
  }
  for (;;) {
    if (!d.stopping() && Clock::now() >= deadline) d.stop();
    if (!(tracer != nullptr ? tracer->step(sim) : sim.step())) break;
  }
  const double ms = ms_between(t0, Clock::now());
  d.set_recording(false);
  d.settle();
  if (tracer != nullptr) {
    tracer->collect(sim);
    tracer->span_ms += ms;
  }
  return ms;
}

// Builds the cluster, preloads it and runs the untimed warm-up operations.
SimRun set_up(const Args& args, const WorkloadConfig& cfg, int attempt) {
  SimRun run;
  Cluster::Options opt;
  opt.schema = dla::logm::paper_schema();
  if (cfg.paper_partition) opt.partition = dla::logm::paper_partition();
  opt.dla_count = kDlaNodes;
  opt.user_count = cfg.sessions;
  opt.seed = args.seed;
  opt.auditor_users = true;
  opt.certify_reports = true;
  if (cfg.durable) {
    run.dir = args.scratch + "/" + cfg.name + "-" +
              std::to_string(::getpid()) + "-" + std::to_string(attempt);
    remove_dir(run.dir);
    opt.storage_dir = run.dir;
    opt.storage.memtable_max_records = cfg.memtable_rows;
    opt.storage.compaction_fanout = 4;
    opt.storage.sync_mode = dla::logm::SegmentEngine::SyncMode::OnSeal;
  }
  run.cluster = std::make_unique<Cluster>(opt);
  Cluster& c = *run.cluster;
  std::vector<dla::audit::UserNode*> users;
  for (std::size_t s = 0; s < cfg.sessions; ++s) {
    // Sessions delete their own records, which needs a Delete-capable
    // ticket; the cluster's default one is read/write only.
    c.user(s).configure(c.config(),
                        c.issue_ticket("PB" + std::to_string(s),
                                       c.user(s).name(),
                                       {dla::logm::Op::Read, dla::logm::Op::Write,
                                        dla::logm::Op::Delete},
                                       /*auditor=*/true));
    if (cfg.pin_gateway) c.user(s).set_gateway(s % c.dla_count());
    users.push_back(&c.user(s));
  }
  run.driver = std::make_unique<Driver>(c.sim(), users, /*certified=*/true);
  Driver& d = *run.driver;
  for (std::size_t i = 0; i < c.dla_count(); ++i) d.attach_integrity(c.dla(i));

  run.chooser = prepare(d, cfg, args.seed,
                        [&c](std::size_t i) { return &c.dla(i % c.dla_count()); },
                        [&c] { c.run(); });
  return run;
}

// Reads back a seeded sample of live and deleted records (untimed).
void read_back(SimRun& run, std::uint64_t seed) {
  Driver& d = *run.driver;
  Gen g(seed * 31 + 99);
  std::vector<Glsn> sample;
  const auto live = d.live_glsns();
  const auto gone = d.deleted_glsns();
  for (int i = 0; i < 16 && !live.empty(); ++i) {
    sample.push_back(live[g.below(live.size())]);
  }
  for (int i = 0; i < 4 && !gone.empty(); ++i) {
    sample.push_back(gone[g.below(gone.size())]);
  }
  d.fetch(0, sample);
  run.cluster->run();
}

}  // namespace

void add_per_layer(Result& r, const LayerFigures& f) {
  for (const auto& [name, v] : f.values) {
    std::string unit = "count";
    auto ends = [&name](const char* suffix) {
      const std::string s(suffix);
      return name.size() >= s.size() &&
             name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    if (ends("_ns") || ends("_ns_per_kb")) unit = "ns";
    else if (ends("_us") || ends("_us_per_elem")) unit = "us";
    else if (ends("_ms") || name.rfind("audit.self_ms_per_op", 0) == 0) unit = "ms";
    else if (ends("bytes_per_op")) unit = "bytes";
    else if (ends("coverage") || ends("overhead") || ends("per_lookup") ||
             ends("per_write")) unit = "ratio";
    r.add(name, v, unit);
  }
}

// Per-layer figures of one traced phase, normalised per completed operation.
void workload_figures(LayerFigures& f, const Tracer& t, std::size_t nodes,
                      std::uint64_t ops, std::uint64_t writes) {
  const double n = std::max<double>(1, static_cast<double>(ops));
  const auto crypto = dla::audit::crypto_op_counters();
  const auto engine = dla::audit::query_engine_counters();
  const auto cache = dla::audit::gateway_cache_counters();
  const auto storage = dla::audit::storage_counters();
  auto delivered = [&t](std::uint32_t type) {
    auto it = t.by_type.find(type);
    return it == t.by_type.end() ? 0.0 : static_cast<double>(it->second);
  };
  f.values["crypto.modexp_per_op"] = crypto.modexp_count / n;
  f.values["net.msgs_per_op"] = t.msgs / n;
  f.values["net.bytes_per_op"] = t.bytes / n;
  f.values["net.watermark_msgs_per_op"] =
      delivered(dla::audit::kWatermarkAdvance) / n;
  f.values["audit.glsn_rounds_per_write"] =
      writes == 0 ? 0.0
                  : delivered(dla::audit::kGlsnPropose) /
                        (static_cast<double>(nodes) * writes);
  f.values["logm.seals_per_kop"] = 1000.0 * storage.segments_sealed / n;
  f.values["logm.compactions_per_kop"] =
      1000.0 * storage.segment_compactions / n;
  f.values["logm.rows_decoded_per_op"] = storage.segment_rows_decoded / n;
  f.values["audit.index_hits_per_op"] = engine.index_hits / n;
  f.values["audit.rows_scanned_per_op"] = engine.rows_scanned / n;
  const double lookups = cache.cache_hits + cache.cache_misses;
  f.values["audit.cache_hits_per_lookup"] =
      lookups == 0 ? 0.0 : cache.cache_hits / lookups;
  double named = 0;
  for (const char* cls : {"sequencing", "logging", "set-ring", "comparison",
                          "secure-sum", "query", "certification", "integrity"}) {
    const double ms = t.class_ms(cls);
    f.values[std::string("audit.self_ms_per_op.") + cls] = ms / n;
    named += ms;
  }
  f.values["audit.self_ms_per_op.other"] = (t.covered_ms - named) / n;
  f.values["trace.coverage"] = t.span_ms > 0 ? t.covered_ms / t.span_ms : 0.0;

  std::printf("traced phase: %llu ops, coverage %.1f%% of %.0f ms\n",
              static_cast<unsigned long long>(ops),
              100.0 * f.values["trace.coverage"], t.span_ms);
  std::printf("%-28s %12s %10s\n", "role/class", "self_ms/op", "share");
  for (const auto& [key, ms] : t.by_role_class()) {
    std::printf("%-28s %12.4f %9.1f%%\n", key.c_str(), ms / n,
                t.covered_ms > 0 ? 100.0 * ms / t.covered_ms : 0.0);
  }
}

namespace {

// Runs one workload on the simulator: set-ups, timed phases and the oracle.
class SimBench {
 public:
  SimBench(const Args& args, const WorkloadConfig& cfg, Result& res)
      : args_(args), cfg_(cfg), res_(res), t_start_(Clock::now()) {
    std::filesystem::create_directories(args.scratch);
    // One long-lived cluster: set-up is repeated and its median reported;
    // the last one is kept. In round mode every round is a set-up.
    if (cfg.round_ops == 0) {
      for (int k = 0; k < 3; ++k) set_up_next();
    }
  }
  ~SimBench() { tear_down(); }
  SimBench(const SimBench&) = delete;
  SimBench& operator=(const SimBench&) = delete;

  // One timed phase of `seconds`; returns its timed milliseconds.
  double phase(double seconds, Tracer* tracer, Tally& tally) {
    const auto end = after(Clock::now(), seconds);
    if (cfg_.round_ops == 0) {
      const double ms = run_until(run_, cfg_, end, tracer);
      tally.merge(std::exchange(run_.driver->tally, Tally{}));
      return ms;
    }
    double ms = 0;
    do {
      set_up_next();
      run_.driver->set_budget(cfg_.round_ops);
      ms += run_until(run_, cfg_, Clock::time_point::max(), tracer);
      tally.merge(run_.driver->tally);
      check_and_close();
    } while (Clock::now() < end);
    return ms;
  }

  // Post-run checks of the long-lived cluster (round mode checks each
  // round as it ends).
  void finish() {
    if (run_.cluster) check_and_close();
  }

  double setup_s() const { return median(setup_s_); }

 private:
  void set_up_next() {
    tear_down();
    const auto t0 = setups_ == 0 ? t_start_ : Clock::now();
    Args a = args_;
    // Rounds take derived seeds, so a run averages over many store and
    // schedule draws; the long-lived cluster keeps the run's seed.
    if (cfg_.round_ops != 0) a.seed = args_.seed * 1000003 + setups_;
    run_ = set_up(a, cfg_, setups_);
    seed_ = a.seed;
    setup_s_.push_back(ms_between(t0, Clock::now()) / 1000.0);
    ++setups_;
  }

  // Exact probes of the hot pool, a seeded read-back, then the oracle.
  void check_and_close() {
    Driver& d = *run_.driver;
    probe_pool(d, *run_.chooser, cfg_.sessions);
    run_.cluster->run();
    read_back(run_, seed_);
    if (cfg_.durable && !printed_disk_) {
      const double live = std::max<double>(1, d.live_glsns().size());
      std::printf("disk_bytes_per_record %.1f (%zu live records)\n",
                  dir_bytes(run_.dir) / live, d.live_glsns().size());
      printed_disk_ = true;
    }
    for (auto& p : d.check_all()) res_.problems.push_back(std::move(p));
    if (d.self_check(res_.problems) == 0) {
      res_.problems.push_back("oracle self-check found nothing to corrupt");
    }
    tear_down();
  }

  void tear_down() {
    const std::string dir = run_.dir;
    run_ = SimRun{};
    remove_dir(dir);
  }

  const Args& args_;
  const WorkloadConfig& cfg_;
  Result& res_;
  Clock::time_point t_start_;
  SimRun run_;
  std::uint64_t seed_ = 0;
  int setups_ = 0;
  std::vector<double> setup_s_;
  bool printed_disk_ = false;
};

}  // namespace

Result run_sim_workload(const Args& args, const WorkloadConfig& cfg) {
  Result res;
  SimBench bench(args, cfg, res);
  Tally tally;
  if (!args.trace) {
    const double ms = bench.phase(args.seconds, nullptr, tally);
    print_latency_table(tally, ms / 1000.0);
    bench.finish();
    add_end_to_end(res, tally, ms / 1000.0, bench.setup_s(),
                   peak_rss_mb_self());
    return res;
  }
  // Untraced then traced halves; their p50 ratio is the tracing overhead.
  Tally plain, traced;
  bench.phase(args.seconds / 2, nullptr, plain);
  dla::audit::reset_crypto_op_counters();
  dla::audit::reset_query_engine_counters();
  dla::audit::reset_gateway_cache_counters();
  dla::audit::reset_storage_counters();
  Tracer tracer;
  const double ms = bench.phase(args.seconds / 2, &tracer, traced);
  bench.finish();
  LayerFigures fig;
  workload_figures(fig, tracer, kDlaNodes, traced.all.size(),
                   traced.lat[static_cast<std::size_t>(Cls::Write)].size());
  const double p50_plain = quantile(plain.all, 0.5);
  fig.values["trace.overhead"] =
      p50_plain > 0 ? quantile(traced.all, 0.5) / p50_plain - 1.0 : 0.0;
  std::printf("tracing overhead: p50 %.3f ms untraced, %.3f ms traced\n",
              p50_plain, quantile(traced.all, 0.5));
  print_latency_table(traced, ms / 1000.0);
  run_microbenches(fig, args.scratch);
  tally.merge(plain);
  tally.merge(traced);
  res.attempted = tally.attempted;
  res.failed = tally.failed;
  add_per_layer(res, fig);
  return res;
}

}  // namespace pb
