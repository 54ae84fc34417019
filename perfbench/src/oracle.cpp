// Seeded inputs and criterion templates. Each template carries its own
// plaintext predicate over Row, so the oracle's expected answers never come
// from the program's parser or evaluators.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace pb {

namespace {

const char* const kC3[] = {"signature", "evidence", "bank",
                           "salary",    "account",  "invoice"};

// Formats a real constant with 3 decimals and returns the value the text
// denotes, so the predicate compares against exactly what the cluster parses.
double fixed3(double v, std::string& text) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  text = buf;
  return std::stod(text);
}

// The blind-TTP join compares order-preserving keys at 1e-6 resolution
// (numeric values are scaled by 1e6 and rounded before transformation).
std::int64_t join_key(double v) { return std::llround(v * 1e6); }

}  // namespace

std::map<std::string, dla::logm::Value> to_attrs(const Row& r) {
  using dla::logm::Value;
  return {{"Time", Value(r.time)}, {"id", Value(r.id)},
          {"protocl", Value(r.proto)}, {"Tid", Value(r.tid)},
          {"C1", Value(r.c1)},     {"C2", Value(r.c2)},
          {"C3", Value(r.c3)}};
}

std::uint64_t Gen::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Row Gen::row() {
  time_ += static_cast<std::int64_t>(below(30)) + 1;
  Row r;
  r.time = time_;
  r.id = "U" + std::to_string(below(10));
  r.proto = below(2) == 0 ? "TCP" : "UDP";
  r.tid = "T" + std::to_string(below(100));
  r.c1 = static_cast<std::int64_t>(below(100));
  r.c2 = unit() * 1000.0;
  r.c3 = kC3[below(6)];
  return r;
}

const char* cls_name(Cls c) {
  switch (c) {
    case Cls::Write: return "write";
    case Cls::Delete: return "delete";
    case Cls::Integrity: return "integrity";
    case Cls::QueryCross: return "query_cross";
    case Cls::QueryLocal: return "query_local";
    case Cls::Aggregate: return "aggregate";
  }
  return "?";
}

Criterion make_criterion(std::size_t tmpl, Gen& g, const StoreView& view) {
  const std::size_t n = view.times.size();
  // A Time window over exactly n/8 records at a fresh position: the text is
  // new (so the gateway cache misses) and the set it selects has a fixed size.
  auto window = [&](std::int64_t& a, std::int64_t& b) {
    const std::size_t w = std::max<std::size_t>(1, n / 8);
    const std::size_t i = g.below(n - w + 1);
    a = view.times[i];
    b = view.times[i + w - 1];
    return "Time >= " + std::to_string(a) + " AND Time <= " + std::to_string(b);
  };
  // A rank within +-1% of n around `share` of the store.
  auto rank_near = [&](double share) {
    const std::size_t lo = static_cast<std::size_t>((share - 0.01) * n);
    return std::min(n - 1, lo + g.below(n / 50 + 1));
  };
  Criterion c;
  std::int64_t a = 0, b = 0;
  switch (tmpl % kTemplates) {
    case 0: {  // cross AND: P0 (Time) ∩ P1 (id)
      const std::string u = "U" + std::to_string(g.below(10));
      c.text = window(a, b) + " AND id = '" + u + "'";
      c.match = [a, b, u](const Row& r) {
        return r.time >= a && r.time <= b && r.id == u;
      };
      break;
    }
    case 1: {  // cross OR: P0 (Time) ∪ P2 (Tid)
      const std::int64_t t = view.times[rank_near(0.10)];
      const std::string tid = "T" + std::to_string(g.below(100));
      c.text = "Time <= " + std::to_string(t) + " OR Tid = '" + tid + "'";
      c.match = [t, tid](const Row& r) { return r.time <= t || r.tid == tid; };
      break;
    }
    case 2: {  // blind-TTP join C2 (P1) < C1 (P3), narrowed by P2 and P0
      const std::string tid = "T" + std::to_string(g.below(100));
      c.text = "C2 < C1 AND Tid = '" + tid + "' AND " + window(a, b);
      c.match = [tid, a, b](const Row& r) {
        return join_key(r.c2) < join_key(static_cast<double>(r.c1)) &&
               r.tid == tid && r.time >= a && r.time <= b;
      };
      break;
    }
    case 3: {  // single-owner local: P1 holds id and C2
      const std::string u = "U" + std::to_string(g.below(10));
      std::string xs;
      const double x = fixed3(g.unit() * 1000.0, xs);
      c.text = "id = '" + u + "' AND C2 < " + xs;
      c.cls = Cls::QueryLocal;
      c.match = [u, x](const Row& r) { return r.id == u && r.c2 < x; };
      break;
    }
    case 4: {  // count over a cross criterion
      const std::string p = g.below(2) == 0 ? "TCP" : "UDP";
      c.text = window(a, b) + " AND protocl = '" + p + "'";
      c.cls = Cls::Aggregate;
      c.op = dla::audit::AggOp::Count;
      c.match = [a, b, p](const Row& r) {
        return r.time >= a && r.time <= b && r.proto == p;
      };
      break;
    }
    case 5: {  // sum of C1 (P3) over id (P1) and Time (P0)
      const std::string u = "U" + std::to_string(g.below(10));
      c.text = "id = '" + u + "' AND " + window(a, b);
      c.cls = Cls::Aggregate;
      c.op = dla::audit::AggOp::Sum;
      c.attr = "C1";
      c.match = [u, a, b](const Row& r) {
        return r.id == u && r.time >= a && r.time <= b;
      };
      break;
    }
    default: {  // average of C2 (P1) over C2 and C3 (P2)
      // C2 above the value at the top-10% rank, as a 3-decimal constant.
      std::string xs;
      const double x = fixed3(view.c2[rank_near(0.90)], xs);
      const std::string c3 = kC3[g.below(6)];
      c.text = "C2 > " + xs + " AND C3 = '" + c3 + "'";
      c.cls = Cls::Aggregate;
      c.op = dla::audit::AggOp::Avg;
      c.attr = "C2";
      c.match = [x, c3](const Row& r) { return r.c2 > x && r.c3 == c3; };
      break;
    }
  }
  return c;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest-rank on the sorted sample.
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {
double vm_hwm_mb(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}
}  // namespace

double peak_rss_mb_self() { return vm_hwm_mb("/proc/self/status"); }
double peak_rss_mb_of(int pid) {
  return vm_hwm_mb("/proc/" + std::to_string(pid) + "/status");
}

}  // namespace pb
