// The loopback workload: four node daemons on 127.0.0.1 and one load
// process (this one) hosting the blind TTP and the user sessions over
// net::TcpTransport, one connection per daemon. It is the only workload
// that crosses real sockets, the epoll loop and the frame parser.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <thread>

#include "audit/bootstrap.hpp"
#include "bench.hpp"
#include "logm/workload.hpp"
#include "net/tcp_transport.hpp"

namespace pb {

namespace {

bool port_free(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

bool port_listening(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool ok =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

// Four daemons plus the load side's listeners need kDlaNodes + 1 + sessions
// consecutive ports; pick a free block derived from the pid.
std::uint16_t pick_base_port(std::size_t span) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto base = static_cast<std::uint16_t>(
        20000 + ((::getpid() + attempt * 97) % 1500) * 16);
    bool ok = true;
    for (std::size_t i = 0; i < span && ok; ++i) {
      ok = port_free(static_cast<std::uint16_t>(base + i));
    }
    if (ok) return base;
  }
  throw std::runtime_error("no free block of loopback ports");
}

// Owns the daemons: SIGTERM and reap on destruction, on every path.
class Daemons {
 public:
  Daemons(const Args& args, std::size_t users, std::uint16_t base) {
    try {
      start(args, users, base);
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Daemons() { stop(); }
  Daemons(const Daemons&) = delete;
  Daemons& operator=(const Daemons&) = delete;

  double peak_rss_mb() const {
    double total = 0;
    for (pid_t pid : pids_) total += peak_rss_mb_of(pid);
    return total;
  }

 private:
  void start(const Args& args, std::size_t users, std::uint16_t base) {
    const int devnull = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
    if (devnull < 0) throw std::runtime_error("cannot open /dev/null");
    for (std::size_t i = 0; i < kDlaNodes; ++i) {
      std::vector<std::string> argv = {
          args.noded,
          "--index=" + std::to_string(i),
          "--dla-count=" + std::to_string(kDlaNodes),
          "--users=" + std::to_string(users),
          "--seed=" + std::to_string(args.seed),
          "--base-port=" + std::to_string(base),
          "--run-ms=170000",  // the daemon's own bound if never signalled
          "--certify"};
      // Everything the child needs is built before fork: between fork and
      // exec only async-signal-safe calls are allowed.
      std::vector<char*> cargv;
      for (auto& a : argv) cargv.push_back(a.data());
      cargv.push_back(nullptr);
      const pid_t pid = ::fork();
      if (pid < 0) {
        ::close(devnull);
        throw std::runtime_error("fork failed");
      }
      if (pid == 0) {
        ::dup2(devnull, STDERR_FILENO);
        ::execv(cargv[0], cargv.data());
        ::_exit(127);
      }
      pids_.push_back(pid);
    }
    ::close(devnull);
    const auto until = Clock::now() + std::chrono::seconds(20);
    for (std::size_t i = 0; i < kDlaNodes; ++i) {
      while (!port_listening(static_cast<std::uint16_t>(base + i))) {
        int status = 0;
        if (::waitpid(pids_[i], &status, WNOHANG) == pids_[i]) {
          pids_[i] = -1;
          throw std::runtime_error("node daemon exited during start-up");
        }
        if (Clock::now() > until) {
          throw std::runtime_error("node daemon did not start listening");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }

  void stop() {
    for (pid_t pid : pids_) {
      if (pid > 0) ::kill(pid, SIGTERM);
    }
    for (pid_t pid : pids_) {
      int status = 0;
      if (pid > 0) ::waitpid(pid, &status, 0);
    }
    pids_.clear();
  }

  std::vector<pid_t> pids_;
};

struct LoopRun {
  std::unique_ptr<Daemons> daemons;
  std::unique_ptr<dla::net::TcpTransport> transport;
  std::unique_ptr<dla::audit::TtpNode> ttp;
  std::vector<std::unique_ptr<dla::audit::UserNode>> users;
  std::unique_ptr<Driver> driver;
  std::unique_ptr<OpChooser> chooser;

  // Members that reference the transport go first.
  ~LoopRun() {
    chooser.reset();
    driver.reset();
    transport.reset();
    daemons.reset();
  }
};

constexpr std::uint64_t kStepTimeoutUs = 60ull * 1000 * 1000;

void pump_until_idle(LoopRun& run) {
  if (!run.transport->run_until(
          [&run] { return run.driver->outstanding() == 0; }, kStepTimeoutUs)) {
    throw std::runtime_error("loopback operations did not complete");
  }
}

std::unique_ptr<LoopRun> set_up(const Args& args, const WorkloadConfig& cfg) {
  auto run = std::make_unique<LoopRun>();
  dla::audit::BootstrapOptions opt;
  opt.schema = dla::logm::paper_schema();
  opt.dla_count = kDlaNodes;
  opt.user_count = cfg.sessions;
  opt.seed = args.seed;
  opt.auditor_users = true;
  opt.certify_reports = true;
  const std::uint16_t base = pick_base_port(kDlaNodes + 1 + cfg.sessions);
  run->daemons = std::make_unique<Daemons>(args, cfg.sessions, base);
  const dla::audit::Bootstrap boot = dla::audit::make_bootstrap(opt);
  run->transport = std::make_unique<dla::net::TcpTransport>(base);
  run->ttp = dla::audit::make_ttp_node(boot);
  run->transport->host(*run->ttp, dla::audit::Bootstrap::ttp_id(opt));
  std::vector<dla::audit::UserNode*> users;
  for (std::size_t j = 0; j < cfg.sessions; ++j) {
    run->users.push_back(dla::audit::make_user_node(boot, opt, j));
    run->users.back()->set_gateway(j % kDlaNodes);
    run->transport->host(*run->users.back(),
                         dla::audit::Bootstrap::user_id(opt, j));
    users.push_back(run->users.back().get());
  }
  run->driver = std::make_unique<Driver>(*run->transport, users, true);
  Driver& d = *run->driver;
  run->chooser = prepare(d, cfg, args.seed,
                         [](std::size_t) { return nullptr; },
                         [&run] { pump_until_idle(*run); });
  return run;
}

// Lets in-flight watermark broadcasts land so post-run probes see every
// session's writes.
void quiesce(LoopRun& run) {
  const auto until = Clock::now() + std::chrono::milliseconds(100);
  run.transport->run_until([&] { return Clock::now() >= until; },
                           200 * 1000);
  run.driver->settle();
}

}  // namespace

Result run_loopback(const Args& args) {
  const auto t_start = Clock::now();
  const WorkloadConfig cfg = workload_config("loopback");
  Result res;
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  std::unique_ptr<LoopRun> run;
  for (int k = 0; k < kSetups; ++k) {
    run.reset();
    const auto t0 = k == 0 ? t_start : Clock::now();
    run = set_up(args, cfg);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  Driver& d = *run->driver;
  // The trace run spends a third of its time here and the rest on the
  // simulator replay below.
  const double seconds = args.trace ? args.seconds / 3 : args.seconds;
  const dla::net::TcpTransport::Stats before = run->transport->stats();
  d.set_recording(true);
  const auto t0 = Clock::now();
  const auto deadline = after(t0, seconds);
  d.resume();
  for (std::size_t s = 0; s < cfg.sessions; ++s) d.next_op(s);
  if (!run->transport->run_until(
          [&] {
            if (!d.stopping() && Clock::now() >= deadline) d.stop();
            return d.stopping() && d.outstanding() == 0;
          },
          static_cast<std::uint64_t>(seconds * 1e6) + kStepTimeoutUs)) {
    throw std::runtime_error("loopback timed phase did not drain");
  }
  const double elapsed_s = ms_between(t0, Clock::now()) / 1000.0;
  print_latency_table(d.tally, elapsed_s);
  const auto& st = run->transport->stats();
  const double ops = std::max<double>(1, d.tally.all.size());
  std::printf("load-side tcp: %.2f frames sent/op, %.2f frames delivered/op, "
              "%llu rejected\n",
              (st.frames_sent - before.frames_sent) / ops,
              (st.frames_delivered - before.frames_delivered) / ops,
              static_cast<unsigned long long>(st.frames_rejected));

  // Post-run: probe every hot criterion once (exact answers once quiet),
  // then a seeded read-back.
  quiesce(*run);
  probe_pool(d, *run->chooser, cfg.sessions);
  pump_until_idle(*run);
  Gen g(args.seed * 31 + 99);
  const auto live = d.live_glsns();
  std::vector<Glsn> sample;
  for (int i = 0; i < 16 && !live.empty(); ++i) {
    sample.push_back(live[g.below(live.size())]);
  }
  d.fetch(0, sample);
  pump_until_idle(*run);

  res.problems = d.check_all();
  if (d.self_check(res.problems) == 0) {
    res.problems.push_back("oracle self-check found nothing to corrupt");
  }
  if (!args.trace) {
    const double rss = peak_rss_mb_self() + run->daemons->peak_rss_mb();
    add_end_to_end(res, d.tally, elapsed_s, median(setup_s), rss);
    return res;
  }
  run.reset();
  // Per-layer figures come from the same operation mix replayed on the
  // simulator: the daemons' handlers run in other processes, out of reach
  // of an outside tracer.
  Args sim_args = args;
  sim_args.seconds = args.seconds - seconds;
  Result traced = run_sim_workload(sim_args, cfg);
  traced.problems.insert(traced.problems.begin(), res.problems.begin(),
                         res.problems.end());
  return traced;
}

}  // namespace pb
