// whatif_loadgen: one benchmark run against a spawned provabs_server.
//
//   whatif_loadgen --workload NAME --seed N --seconds S --trace 0|1
//                  --server PATH --workdir DIR
//
// Generates the workload's provenance, starts the server, loads and
// compresses the artifact (set-up, timed several times), drives the
// workload's traffic over loopback for S seconds, measures the request
// classes the workload does not drive itself in short probes on the same
// server, checks sampled answers against a local reference, and prints one
// JSON object as the last line of stdout. With --trace 1 the same traffic
// runs, and the printed metrics are the per-layer ones instead.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "abstraction/loss.h"
#include "algo/optimal_single_tree.h"
#include "bench.h"
#include "common/random.h"
#include "core/valuation.h"
#include "io/serializer.h"
#include "scenario/program.h"
#include "server/client.h"
#include "stats.h"
#include "workload/telephony.h"
#include "workload/tpch.h"
#include "workload/tree_gen.h"

namespace whatifbench {

using provabs::AbstractionForest;
using provabs::Client;
using provabs::EvaluateRequest;
using provabs::EvaluateScenarioProgramRequest;
using provabs::Polynomial;
using provabs::PolynomialSet;
using provabs::Response;
using provabs::ScenarioShape;
using provabs::StatusOr;
using provabs::VariableId;

namespace {

/// Client threads and connections; the reference host has 4 vCPUs. The
/// server gets a request worker per connection but only 2 evaluation
/// threads, so that its pool and the load generator do not oversubscribe
/// the vCPUs: with 4 evaluation threads (and 4 workers), scheduler wake-up
/// delays set the point-lookup tail, which then moved 0.3-6.6 ms from run
/// to run.
constexpr size_t kConnections = 4;
/// A run is this many segments, each on a server process of its own with
/// its own set-up.
constexpr size_t kSegments = 3;
/// Offered load of point-lookups. On the reference host (4 vCPUs) these
/// lookups saturate at about 17,000/s on 4 closed-loop connections when the
/// host is quiet, but at times under 3,000/s when its neighbours are busy:
/// at 4,000/s such runs fell into a backlog and their median lookup took
/// 0.03-1 s. 2,000/s leaves each connection 2 ms per round trip.
constexpr double kPointLookupRate = 2000.0;
/// Each segment sets up at least kSetups times and for at least
/// kSetupSeconds; setup_s is the median over a run's calm set-ups (of
/// about 25 on TPC-H and 6 on telephony).
constexpr size_t kSetups = 2;
constexpr double kSetupSeconds = 0.3;
/// Each segment drives its traffic this long, untimed, before measuring.
constexpr double kLoadWarmupSeconds = 1.0;
/// Open-loop senders spin through the last stretch before a due time.
constexpr double kSpinSeconds = 100e-6;
/// Over a run's segments, read probes run for at least kProbeSeconds and
/// at least enough requests for a p99, write probes for at least
/// kWriteProbeSeconds and at least enough cycles for a p90.
constexpr double kProbeSeconds = 9.0;
constexpr uint64_t kProbeReads = 1000;
constexpr double kWriteProbeSeconds = 3.0;
constexpr uint64_t kProbeWrites = 128;
/// A write cycle re-Loads the base artifact every kWriteCycle cycles, so
/// the delta log (capacity 128) never fills and the state is stationary.
constexpr size_t kWriteCycle = 32;
constexpr size_t kProgramPool = 32;
/// End-to-end medians come from a class's seconds in which the host stole
/// at most kCalmSteal of the vCPU time, or its quietest quarter of seconds
/// if that is more, widened to at least kMinQuietAnswers answers. Seconds
/// with steal of 3-7% already put the point-lookup median 50% up on the
/// reference host.
constexpr double kCalmSteal = 0.025;
constexpr uint64_t kMinQuietAnswers = 100;
/// Tail percentiles are medians over groups of this many answers.
constexpr size_t kTailGroup = 1000;
/// Sampled answers kept per thread for the bitwise reference check.
constexpr size_t kSamplesPerThread = 128;

enum class Workload { kWhatifSweep, kPointLookups, kUpdateUnderRead };

double Ms(double seconds) { return seconds * 1e3; }

// --------------------------------------------------------------- fixtures

uint64_t HalfFeasibleBound(const PolynomialSet& polys,
                           const AbstractionForest& forest) {
  provabs::LossReport max_loss = provabs::ComputeLossNaive(
      polys, forest, provabs::ValidVariableSet::AllRoots(forest));
  const uint64_t bound =
      polys.SizeM() - static_cast<uint64_t>(0.5 * max_loss.monomial_loss);
  return bound == 0 ? 1 : bound;
}

/// Telephony with 10,000 customers, 100 zips, 128 plans and 12 months;
/// TPC-H Q10 at scale factor 0.3. Both get an {8,16} tree over their 128
/// leaf variables and the bound that removes half the removable monomials.
Fixture MakeFixture(Workload workload) {
  Fixture fx;
  fx.vars = std::make_shared<provabs::VariableTable>();
  std::vector<VariableId> leaves;
  std::vector<VariableId> free;
  if (workload == Workload::kPointLookups) {
    provabs::TpchConfig config;
    config.scale_factor = 0.3;
    provabs::Rng rng(config.seed);
    provabs::Database db = provabs::GenerateTpch(config, rng);
    provabs::TpchVars tv = provabs::MakeTpchVars(*fx.vars, 128);
    const double t0 = NowSeconds();
    fx.polys = provabs::RunTpchQ10(db, tv);
    fx.query_s = NowSeconds() - t0;
    leaves = tv.supplier_vars;
    free = tv.part_vars;
  } else {
    provabs::TelephonyConfig config;
    config.num_customers = 10'000;
    config.num_zip_codes = 100;
    config.num_plans = 128;
    config.num_months = 12;
    provabs::Rng rng(config.seed);
    provabs::Database db = provabs::GenerateTelephony(config, rng);
    provabs::TelephonyVars tv = provabs::MakeTelephonyVars(*fx.vars, config);
    const double t0 = NowSeconds();
    fx.polys = provabs::RunTelephonyQuery(db, tv);
    fx.query_s = NowSeconds() - t0;
    leaves = tv.plan_vars;
    free = tv.month_vars;
  }
  fx.forest.AddTree(
      provabs::BuildUniformTree(*fx.vars, leaves, {8, 16}, "WI_"));
  fx.bound = HalfFeasibleBound(fx.polys, fx.forest);
  // Each append adds 4 monomials. TPC-H Q10's cut removes only a few dozen,
  // so there the writers' bound leaves room for a whole cycle of appends.
  fx.write_bound = workload == Workload::kPointLookups
                       ? fx.bound + 4 * (kWriteCycle - 1)
                       : fx.bound;
  const std::unordered_set<VariableId> present = fx.polys.Variables();
  for (VariableId v : free) {
    if (present.count(v) != 0) fx.free_vars.push_back(fx.vars->NameOf(v));
  }
  fx.polys_bytes = provabs::SerializePolynomialSet(fx.polys, *fx.vars);
  fx.forest_bytes = provabs::SerializeForest(fx.forest, *fx.vars);
  return fx;
}

}  // namespace

Reference::Reference(const Fixture& fixture,
                     const std::vector<std::string>& append_bytes)
    : vars_(std::make_unique<provabs::VariableTable>()),
      bound_(fixture.bound) {
  auto base = provabs::DeserializePolynomialSet(fixture.polys_bytes, *vars_);
  auto forest = provabs::DeserializeForest(fixture.forest_bytes, *vars_);
  if (!base.ok() || !forest.ok()) {
    std::fprintf(stderr, "reference: cannot read the artifact back\n");
    std::exit(1);
  }
  base_ = std::move(*base);
  forest_ = std::move(*forest);
  for (const std::string& bytes : append_bytes) {
    auto added = provabs::DeserializePolynomialSet(bytes, *vars_);
    if (!added.ok()) {
      std::fprintf(stderr, "reference: cannot read an append back\n");
      std::exit(1);
    }
    appends_.push_back(std::move(*added));
  }
}

const RefState& Reference::State(size_t appended, uint64_t bound) {
  if (bound == 0) bound = bound_;
  const auto key = std::make_pair(appended, bound);
  auto it = states_.find(key);
  if (it != states_.end()) return *it->second;
  auto state = std::make_unique<RefState>();
  state->polys = base_;
  for (size_t i = 0; i < appended && i < appends_.size(); ++i) {
    for (const Polynomial& p : appends_[i].polynomials()) {
      state->polys.Add(p);
    }
  }
  auto result = provabs::OptimalSingleTree(state->polys, forest_, 0, bound);
  if (!result.ok()) {
    std::fprintf(stderr, "reference: opt failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  state->result = std::move(*result);
  state->compressed = state->result.Apply(forest_, state->polys);
  state->vvs = state->result.Describe(forest_, *vars_);
  return *states_.emplace(key, std::move(state)).first->second;
}

namespace {

// ------------------------------------------------------------ programs

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

std::string Group(size_t g) { return "PREFIX(WI_L1_" + std::to_string(g) + ")"; }

std::string FreeSet(const Fixture& fx, size_t first, size_t count) {
  std::string s = "IN(";
  for (size_t j = 0; j < count; ++j) {
    if (j > 0) s += ", ";
    s += fx.free_vars[(first + j) % fx.free_vars.size()];
  }
  return s + ")";
}

std::string Grid(std::initializer_list<double> values) {
  std::string s = "GRID(";
  bool first = true;
  for (double v : values) {
    if (!first) s += ", ";
    s += Fmt(v);
    first = false;
  }
  return s + ")";
}

struct Program {
  std::string source;
  ScenarioShape shape = ScenarioShape::kArgmax;
  uint64_t top_k = 0;
};

/// The fixed pool of 32 analyst programs, 256 scenarios each: sweeps and
/// grids over plan groups (the tree's level-1 nodes, which survive a cut
/// as meta-variables), free variables (months or parts) and a global
/// factor, answered as argmax or top-k.
std::vector<Program> ProgramPool(const Fixture& fx) {
  std::vector<Program> pool;
  for (size_t i = 0; i < kProgramPool; ++i) {
    const size_t g = i % 8;
    const size_t h = (g + 1 + i / 8) % 8;
    std::string src;
    switch (i % 4) {
      case 0:  // 16 x 16
        src = "LET a = " + Grid({0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80,
                                 0.85, 0.90, 0.95, 1.00, 1.05, 1.10, 1.15,
                                 1.20, 1.25}) +
              "; LET b = SWEEP(0.84 .. 0.99 STEP 0.01); SET " + Group(g) +
              " = a; SET " + FreeSet(fx, i, 2) + " = b; SET * = 1;";
        break;
      case 1:  // 8 x 4 x 8
        src = "LET a = " + Grid({0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3}) +
              "; LET b = " + Grid({0.9, 1.0, 1.1, 1.2}) + "; LET k = " +
              Grid({0.96, 0.97, 0.98, 0.99, 1.0, 1.01, 1.02, 1.03}) +
              "; SET " + Group(g) + " = a * k; SET " + Group(h) +
              " = b * k; SET " + FreeSet(fx, i, 1) + " = b; SET * = k;";
        break;
      case 2:  // 16 x 16
        src = "LET a = SWEEP(0.6 .. 1.35 STEP 0.05); LET k = " +
              Grid({0.90, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.98,
                    0.99, 1.00, 1.01, 1.02, 1.03, 1.04, 1.05}) +
              "; SET " + Group(g) + " = IF a < 1 THEN a * k ELSE a; SET " +
              FreeSet(fx, i, 3) + " = k; SET * = k;";
        break;
      default:  // 32 x 8
        src = "LET a = SWEEP(0.4 .. 1.95 STEP 0.05); LET m = " +
              Grid({0.8, 0.85, 0.9, 0.95, 1.0, 1.05, 1.1, 1.15}) + "; SET " +
              Group(g) + " = a; SET " + Group(h) + " = 2.5 - a; SET " +
              FreeSet(fx, i, 4) + " = m; SET * = 1;";
        break;
    }
    Program p;
    p.source = std::move(src);
    if (i % 2 == 0) {
      p.shape = ScenarioShape::kArgmax;
    } else {
      p.shape = ScenarioShape::kTopK;
      p.top_k = 2 + (i / 2) % 4;
    }
    pool.push_back(std::move(p));
  }
  return pool;
}

/// The accuracy probe: ten scenarios that give two leaves of every plan
/// group different values. A cut that abstracts a group cannot express
/// that, which is exactly the loss the paper trades for size.
std::string ProbeProgram(const Fixture& fx) {
  const provabs::AbstractionTree& tree = fx.forest.tree(0);
  std::vector<std::string> names;
  for (VariableId v : fx.polys.Variables()) {
    names.push_back(fx.vars->NameOf(v));
  }
  // PREFIX(x) must select x alone, since the compressed view may not
  // contain x (an exact selector would then fail to compile).
  auto alone = [&](const std::string& x) {
    for (const std::string& n : names) {
      if (n != x && n.compare(0, x.size(), x) == 0) return false;
    }
    return std::find(names.begin(), names.end(), x) != names.end();
  };
  std::string src = "LET d = SWEEP(0.5 .. 0.95 STEP 0.05);";
  for (provabs::NodeIndex child : tree.node(tree.root()).children) {
    const auto& node = tree.node(child);
    int picked = 0;
    for (uint32_t l = node.leaf_begin; l < node.leaf_end && picked < 2; ++l) {
      const std::string leaf =
          fx.vars->NameOf(tree.node(tree.leaves()[l]).label);
      if (!alone(leaf)) continue;
      src += " SET PREFIX(" + leaf + ") = " + (picked == 0 ? "d" : "2 - d") +
             ";";
      ++picked;
    }
  }
  return src + " SET * = 1;";
}

/// A point-lookup valuation: 1-3 free variables at what-if values.
using Assignments = std::vector<std::pair<std::string, double>>;

std::vector<Assignments> AssignmentPool(const Fixture& fx, uint64_t seed) {
  provabs::Rng rng(seed * 7919 + 17);
  std::vector<Assignments> pool;
  for (int i = 0; i < 64; ++i) {
    Assignments a;
    const size_t count = 1 + rng.Uniform(3);
    std::vector<size_t> used;
    while (a.size() < count) {
      const size_t v = rng.Uniform(fx.free_vars.size());
      if (std::find(used.begin(), used.end(), v) != used.end()) continue;
      used.push_back(v);
      a.emplace_back(fx.free_vars[v], 0.5 + 0.05 * rng.Uniform(21));
    }
    pool.push_back(std::move(a));
  }
  return pool;
}

/// The writer's appends: one 4-monomial polynomial per cycle position,
/// each on a leaf the base cut keeps, so the patch path applies. When the
/// cut keeps no leaf (it abstracts every group), the appends touch only
/// free variables, which no cut can cross either.
std::vector<std::string> MakeAppends(const Fixture& fx, uint64_t seed) {
  auto base = provabs::OptimalSingleTree(fx.polys, fx.forest, 0, fx.bound);
  if (!base.ok()) {
    std::fprintf(stderr, "opt failed on the base artifact\n");
    std::exit(1);
  }
  std::vector<VariableId> kept;
  for (const provabs::NodeRef& ref : base->vvs.nodes()) {
    const auto& node = fx.forest.tree(ref.tree).node(ref.node);
    if (node.is_leaf()) kept.push_back(node.label);
  }
  provabs::Rng rng(seed * 104729 + 3);
  auto free_var = [&](size_t i) {
    return fx.vars->Find(fx.free_vars[i % fx.free_vars.size()]);
  };
  // The anchors are evenly spaced over the kept leaves and only their order
  // depends on the seed: a patched compress costs what the dirty path above
  // its anchor costs, so every seed gets the same mix of write costs.
  std::vector<size_t> order(kWriteCycle - 1);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  std::vector<std::string> appends;
  for (size_t pos = 1; pos < kWriteCycle; ++pos) {
    const size_t first = rng.Uniform(fx.free_vars.size());
    const size_t slot = order[pos - 1];
    const VariableId anchor =
        kept.empty() ? free_var(first + 4)
                     : kept[slot * kept.size() / (kWriteCycle - 1)];
    std::vector<provabs::Monomial> terms;
    for (size_t q = 0; q < 4; ++q) {
      terms.emplace_back(
          1.0 + 0.01 * rng.Uniform(1000),
          std::vector<provabs::Factor>{{anchor, 1}, {free_var(first + q), 1}});
    }
    PolynomialSet one(
        std::vector<Polynomial>{Polynomial::FromMonomials(std::move(terms))});
    appends.push_back(provabs::SerializePolynomialSet(one, *fx.vars));
  }
  return appends;
}

// ------------------------------------------------------ host steal

/// The host's steal time, read from /proc/stat every 50 ms on a thread of
/// its own for as long as the sampler lives, as a share of the vCPU time.
class StealSampler {
 public:
  StealSampler() : thread_([this] { Run(); }) {}
  ~StealSampler() {
    stop_ = true;
    thread_.join();
  }
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  /// Share of the vCPU time stolen in [a, b).
  double Rate(double a, double b) const {
    const double ticks_per_s =
        static_cast<double>(sysconf(_SC_CLK_TCK)) *
        std::max(1u, std::thread::hardware_concurrency());
    return b > a ? (At(b) - At(a)) / (b - a) / ticks_per_s : 0.0;
  }
  /// Rate of each whole second of a window (at least one); the last second
  /// runs to the window's end.
  std::vector<double> PerSecond(double start_s, double window_s) const {
    const size_t seconds = std::max<size_t>(1, static_cast<size_t>(window_s));
    std::vector<double> rates;
    for (size_t i = 0; i < seconds; ++i) {
      const double begin = start_s + static_cast<double>(i);
      const double end = i + 1 == seconds ? start_s + window_s : begin + 1;
      rates.push_back(Rate(begin, end));
    }
    return rates;
  }

 private:
  /// A reading: (time, cumulative steal ticks).
  using Sample = std::pair<double, double>;

  /// Cumulative steal ticks over all vCPUs: the 8th field of the "cpu"
  /// line. 0 where the kernel does not account steal.
  static double ReadSteal() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    double field = 0, steal = 0;
    in >> cpu;
    for (int i = 1; i <= 8 && in >> field; ++i) {
      if (i == 8) steal = field;
    }
    return steal;
  }
  /// Ticks at the last sample at or before `t`.
  double At(double t) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::upper_bound(
        samples_.begin(), samples_.end(), t,
        [](double x, const Sample& s) { return x < s.first; });
    if (it == samples_.begin()) return samples_.empty() ? 0 : it->second;
    return std::prev(it)->second;
  }
  void Run() {
    while (!stop_) {
      const double steal = ReadSteal();
      {
        std::lock_guard<std::mutex> lock(mu_);
        samples_.emplace_back(NowSeconds(), steal);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  mutable std::mutex mu_;
  std::vector<Sample> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ------------------------------------------------------ server process

/// The spawned provabs_server. Stopped (and waited for) on destruction.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Start(const std::string& binary, const std::string& workdir) {
    static int counter = 0;
    const std::string port_file =
        workdir + "/port." + std::to_string(getpid()) + "." +
        std::to_string(counter++);
    const std::string log = workdir + "/server.log";
    unlink(port_file.c_str());
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      // The server must not outlive a load generator that is killed.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        dup2(fd, 1);
        dup2(fd, 2);
      }
      execl(binary.c_str(), binary.c_str(), "--port", "0", "--port-file",
            port_file.c_str(), "--threads", "2", "--workers", "4",
            static_cast<char*>(nullptr));
      _exit(127);
    }
    for (int i = 0; i < 15000; ++i) {
      std::ifstream in(port_file);
      int port = 0;
      if (in >> port && port > 0) {
        port_ = static_cast<uint16_t>(port);
        unlink(port_file.c_str());
        return true;
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Kill();
    return false;
  }

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// Peak resident set (VmHWM) in MB.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0;
  }

  /// User plus system CPU seconds the server has used.
  double CpuSeconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const size_t close = stat.rfind(')');
    if (close == std::string::npos) return 0;
    std::istringstream fields(stat.substr(close + 2));
    std::string field;
    double utime = 0, stime = 0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14) utime = std::strtod(field.c_str(), nullptr);
      if (i == 15) stime = std::strtod(field.c_str(), nullptr);
    }
    return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
  }

  /// Asks the server to shut down and waits for it; kills it if it has
  /// not exited within 10 s.
  void Stop() {
    if (pid_ <= 0) return;
    auto client = Client::Connect("127.0.0.1", port_, {5000, 10000});
    if (client.ok()) (void)client->Shutdown({});
    for (int i = 0; i < 1000; ++i) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    Kill();
  }

  void Kill() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

StatusOr<Client> Connect(uint16_t port) {
  provabs::ClientOptions options;
  options.connect_timeout_ms = 5000;
  options.rpc_timeout_ms = 60000;
  return Client::Connect("127.0.0.1", port, options);
}

// ------------------------------------------------------------ requests

EvaluateRequest MakeEval(const Fixture& fx, const Assignments& a) {
  EvaluateRequest req;
  req.artifact = kArtifact;
  req.assignments = a;
  req.compressed = true;
  req.bound = fx.bound;
  return req;
}

EvaluateScenarioProgramRequest MakeWhatif(const Fixture& fx,
                                          const Program& p) {
  EvaluateScenarioProgramRequest req;
  req.artifact = kArtifact;
  req.program = p.source;
  req.compressed = true;
  req.bound = fx.bound;
  req.shape = p.shape;
  req.top_k = p.top_k;
  return req;
}

/// True for an OK response; otherwise reports why (the first few times).
bool Ok(const StatusOr<Response>& r) {
  if (r.ok() && r->ok()) return true;
  static std::atomic<int> reported{0};
  if (reported.fetch_add(1) < 5) {
    std::fprintf(stderr, "request failed: %s\n",
                 (r.ok() ? r->ToStatus() : r.status()).ToString().c_str());
  }
  return false;
}

// ------------------------------------------------------ traffic records

struct EvalSample {
  size_t assignment = 0;
  std::vector<double> values;
};

struct WhatifSample {
  size_t program = 0;
  std::vector<uint64_t> indices;
  std::vector<double> objectives;
  std::vector<double> values;
};

struct WriteSample {
  size_t pos = 0;
  uint64_t monomial_loss = 0;
  uint64_t variable_loss = 0;
  bool adequate = false;
  std::string vvs;
  uint64_t compressed_monomials = 0;
};

/// One request class's log plus the answers kept for checking.
/// One second of a class's windows: the host's steal rate in it and the
/// requests that completed in it. The last second of a window runs to its
/// end, so it may be longer or shorter.
struct Second {
  double steal = 0;
  RequestLog log;
  double duration_s = 1;
};

struct ClassRun {
  RequestLog log;
  /// The seconds of every window absorbed so far.
  std::vector<Second> seconds;
  double start_s = 0;
  double window_s = 0;
  std::vector<EvalSample> evals;
  std::vector<WhatifSample> whatifs;
  std::vector<WriteSample> writes;
  std::vector<double> lag_ms;
  uint64_t appends = 0;
};

/// Everything a workload run needs, shared by its threads (read-only
/// while they run).
struct Context {
  const Fixture* fx = nullptr;
  uint16_t port = 0;
  uint64_t seed = 0;
  std::vector<Program> programs;
  std::vector<EvaluateScenarioProgramRequest> whatif_requests;
  std::vector<Assignments> assignments;
  std::vector<EvaluateRequest> eval_requests;
  std::vector<std::string> appends;
};

/// Runs `body(thread, log)` on `threads` threads and merges their logs.
template <typename Body>
ClassRun RunThreads(size_t threads, Body body) {
  std::vector<ClassRun> parts(threads);
  std::vector<std::thread> pool;
  const double start = NowSeconds();
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] { body(t, parts[t]); });
  }
  for (std::thread& th : pool) th.join();
  ClassRun all;
  all.start_s = start;
  all.window_s = NowSeconds() - start;
  for (ClassRun& p : parts) {
    all.log.Merge(p.log);
    all.evals.insert(all.evals.end(), p.evals.begin(), p.evals.end());
    all.whatifs.insert(all.whatifs.end(), p.whatifs.begin(), p.whatifs.end());
    all.writes.insert(all.writes.end(), p.writes.begin(), p.writes.end());
    all.lag_ms.insert(all.lag_ms.end(), p.lag_ms.begin(), p.lag_ms.end());
    all.appends += p.appends;
  }
  return all;
}

/// Closed loops: each thread sends its next request when the previous one
/// returns, until `stop` says the window is over.
using Stop = std::function<bool()>;

void WhatifLoop(const Context& ctx, size_t thread, const Stop& stop,
                ClassRun& out) {
  auto client = Connect(ctx.port);
  provabs::Rng rng(ctx.seed * 1000003 + thread);
  size_t n = 0;
  while (!stop()) {
    if (!client.ok()) {
      out.log.Fail(NowSeconds());
      client = Connect(ctx.port);
      continue;
    }
    const size_t p = rng.Uniform(ctx.programs.size());
    const double t0 = NowSeconds();
    StatusOr<Response> r = client->EvaluateScenarioProgram(ctx.whatif_requests[p]);
    const double t1 = NowSeconds();
    if (!Ok(r) || r->scenario_count != kScenariosPerProgram) {
      out.log.Fail(NowSeconds());
      if (!r.ok()) client = Connect(ctx.port);
      continue;
    }
    out.log.Ok(Ms(t1 - t0), t1);
    if (n++ % 4 == 0 && out.whatifs.size() < kSamplesPerThread) {
      out.whatifs.push_back(
          {p, std::move(r->scenario_indices), std::move(r->objectives),
           std::move(r->values)});
    }
  }
}

void EvalOnce(const Context& ctx, StatusOr<Client>& client, size_t a,
              double due, double sent, size_t n, ClassRun& out,
              bool open_loop) {
  StatusOr<Response> r = client->Evaluate(ctx.eval_requests[a]);
  const double done = NowSeconds();
  if (!Ok(r) || r->values.size() < ctx.fx->polys.count()) {
    out.log.Fail(NowSeconds());
    if (!r.ok()) client = Connect(ctx.port);
    return;
  }
  out.log.Ok(open_loop ? OpenLoopSchedule::LatencyMs(due, done)
                       : Ms(done - sent),
             done);
  if (open_loop) out.lag_ms.push_back(OpenLoopSchedule::LagMs(due, sent));
  if (n % 37 == 0 && out.evals.size() < kSamplesPerThread) {
    out.evals.push_back({a, std::move(r->values)});
  }
}

void EvalLoop(const Context& ctx, size_t thread, const Stop& stop,
              ClassRun& out) {
  auto client = Connect(ctx.port);
  provabs::Rng rng(ctx.seed * 1000033 + thread);
  size_t n = 0;
  while (!stop()) {
    if (!client.ok()) {
      out.log.Fail(NowSeconds());
      client = Connect(ctx.port);
      continue;
    }
    const size_t a = rng.Uniform(ctx.assignments.size());
    const double sent = NowSeconds();
    EvalOnce(ctx, client, a, sent, sent, n++, out, false);
  }
}

/// Open loop: request i is due at start + i / rate, and thread t sends the
/// requests with i = t (mod threads) on its own connection.
void OpenEvalLoop(const Context& ctx, size_t thread, size_t threads,
                  const OpenLoopSchedule& schedule, double end_s,
                  ClassRun& out) {
  auto client = Connect(ctx.port);
  provabs::Rng rng(ctx.seed * 1000037 + thread);
  for (uint64_t i = thread;; i += threads) {
    const double due = schedule.Due(i);
    if (due >= end_s) break;
    const size_t a = rng.Uniform(ctx.assignments.size());
    // Sleep until shortly before the due time and spin the rest, so the
    // send is not late by a thread wake-up.
    const double now = NowSeconds();
    if (due - now > kSpinSeconds) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(due - now - kSpinSeconds));
    }
    while (NowSeconds() < due) {
    }
    if (!client.ok()) {
      out.log.Fail(NowSeconds());
      client = Connect(ctx.port);
      continue;
    }
    EvalOnce(ctx, client, a, due, NowSeconds(), i / threads, out, true);
  }
}

/// One writer cycle: Load+Compress at cycle position 0, else the position's
/// Append+Compress. Returns false on any failure.
bool WriteCycle(const Context& ctx, Client& client, size_t pos,
                ClassRun& out) {
  const double t0 = NowSeconds();
  StatusOr<Response> w = pos == 0
                             ? client.Load(MakeLoad(*ctx.fx))
                             : client.Append({kArtifact, ctx.appends[pos - 1]});
  if (!Ok(w)) return false;
  StatusOr<Response> c = client.Compress(MakeCompress(ctx.fx->write_bound));
  const double t1 = NowSeconds();
  if (!Ok(c)) return false;
  out.log.Ok(Ms(t1 - t0), t1);
  if (pos != 0) ++out.appends;
  out.writes.push_back({pos, c->monomial_loss, c->variable_loss, c->adequate,
                        c->vvs, c->compressed_monomials});
  return true;
}

void WriteLoop(const Context& ctx, const Stop& stop, ClassRun& out) {
  auto client = Connect(ctx.port);
  for (size_t cycle = 0; !stop(); ++cycle) {
    if (!client.ok() || !WriteCycle(ctx, *client, cycle % kWriteCycle, out)) {
      out.log.Fail(NowSeconds());
      client = Connect(ctx.port);
      // Resynchronize on the base artifact: the next cycle re-Loads it.
      cycle += kWriteCycle - 1 - cycle % kWriteCycle;
    }
  }
}

Stop Until(double end_s) {
  return [end_s] { return NowSeconds() >= end_s; };
}

/// A probe runs for at least `seconds` and at least `budget` requests.
Stop Probe(std::atomic<uint64_t>& sent, uint64_t budget, double seconds) {
  const double end_s = NowSeconds() + seconds;
  return [&sent, budget, end_s] {
    return sent.fetch_add(1) >= budget && NowSeconds() >= end_s;
  };
}

// --------------------------------------------------------------- checks

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

provabs::Valuation ToValuation(Reference& ref, const Assignments& a) {
  provabs::Valuation val;
  for (const auto& [name, value] : a) val.Set(ref.vars().Find(name), value);
  return val;
}

/// A scenario's dense slot values as a Valuation over the reference's
/// variable ids, for Valuation::EvaluateAll.
provabs::Valuation DenseToValuation(const provabs::CompiledPolynomialSet& c,
                                    const provabs::DenseValuation& dense) {
  provabs::Valuation val;
  const auto& slots = c.slot_variables();
  for (uint32_t s = 0; s < slots.size(); ++s) val.Set(slots[s], dense[s]);
  return val;
}

/// Expected answer of a shaped program on a reference state: every
/// scenario ranked by its objective, the picks evaluated with
/// Valuation::EvaluateAll.
WhatifSample ExpectedWhatif(Reference& ref, const RefState& state,
                            const Program& p, bool compressed) {
  const PolynomialSet& target = compressed ? state.compressed : state.polys;
  auto compiled = target.Compiled();
  auto program =
      provabs::scenario::ScenarioProgram::Compile(p.source, compiled,
                                                  ref.vars());
  WhatifSample out;
  if (!program.ok()) {
    std::fprintf(stderr, "reference: program does not compile: %s\n",
                 program.status().ToString().c_str());
    return out;
  }
  std::vector<provabs::DenseValuation> dense;
  (void)program->ExpandChunk(0, program->scenario_count(), &dense);
  std::vector<std::pair<double, uint64_t>> ranked;
  for (uint64_t i = 0; i < dense.size(); ++i) {
    double objective = 0;
    for (double v : compiled->EvaluateAll(dense[i])) objective += v;
    ranked.emplace_back(objective, i);
  }
  const bool max = p.shape != ScenarioShape::kArgmin;
  std::stable_sort(ranked.begin(), ranked.end(),
                   [max](const auto& a, const auto& b) {
                     if (a.first != b.first) {
                       return max ? a.first > b.first : a.first < b.first;
                     }
                     return a.second < b.second;
                   });
  const size_t keep = p.shape == ScenarioShape::kValues ? ranked.size()
                      : p.shape == ScenarioShape::kTopK
                          ? std::min<size_t>(p.top_k, ranked.size())
                          : 1;
  if (p.shape == ScenarioShape::kValues) {
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
  }
  for (size_t k = 0; k < keep; ++k) {
    const uint64_t i = ranked[k].second;
    std::vector<double> values =
        DenseToValuation(*compiled, dense[i]).EvaluateAll(target);
    double objective = 0;
    for (double v : values) objective += v;
    if (p.shape != ScenarioShape::kValues) {
      out.indices.push_back(i);
      out.objectives.push_back(objective);
    }
    out.values.insert(out.values.end(), values.begin(), values.end());
  }
  return out;
}

struct Checker {
  Reference* ref;
  const Context* ctx;
  size_t base_polys;
  std::map<std::pair<size_t, size_t>, std::vector<double>> eval_cache;
  std::map<size_t, WhatifSample> whatif_cache;

  /// Returns the number of mismatching samples.
  uint64_t Evals(const std::vector<EvalSample>& samples) {
    uint64_t bad = 0;
    for (const EvalSample& s : samples) {
      const size_t appended = s.values.size() - base_polys;
      if (s.values.size() < base_polys || appended > ref->max_appended()) {
        ++bad;
        continue;
      }
      auto key = std::make_pair(appended, s.assignment);
      auto it = eval_cache.find(key);
      if (it == eval_cache.end()) {
        const RefState& state = ref->State(appended);
        it = eval_cache
                 .emplace(key, ToValuation(*ref, ctx->assignments[s.assignment])
                                   .EvaluateAll(state.compressed))
                 .first;
      }
      if (!SameBits(s.values, it->second)) ++bad;
    }
    return bad;
  }

  uint64_t Whatifs(const std::vector<WhatifSample>& samples) {
    uint64_t bad = 0;
    for (const WhatifSample& s : samples) {
      auto it = whatif_cache.find(s.program);
      if (it == whatif_cache.end()) {
        it = whatif_cache
                 .emplace(s.program,
                          ExpectedWhatif(*ref, ref->State(0),
                                         ctx->programs[s.program], true))
                 .first;
      }
      if (s.indices != it->second.indices ||
          !SameBits(s.objectives, it->second.objectives) ||
          !SameBits(s.values, it->second.values)) {
        ++bad;
      }
    }
    return bad;
  }

  /// Every compress a writer saw, patched or cold, against a cold local
  /// run on the same state.
  uint64_t Writes(const std::vector<WriteSample>& samples) {
    uint64_t bad = 0;
    for (const WriteSample& w : samples) {
      const RefState& state = ref->State(w.pos, ctx->fx->write_bound);
      if (w.monomial_loss != state.result.loss.monomial_loss ||
          w.variable_loss != state.result.loss.variable_loss ||
          w.adequate != state.result.adequate || w.vvs != state.vvs ||
          w.compressed_monomials != state.compressed.SizeM()) {
        ++bad;
      }
    }
    return bad;
  }
};

// ------------------------------------------------------------ the run

struct Options {
  Workload workload = Workload::kWhatifSweep;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;
  std::string workdir;
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", m.name.c_str());
    if (std::isfinite(m.value)) {
      std::printf("%.10g", m.value);
    } else {
      std::printf("null");
    }
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
}

/// Server-side counters, read from the stats block of an Info response.
provabs::ServerStats Stats(uint16_t port) {
  auto client = Connect(port);
  if (!client.ok()) return {};
  auto r = client->Info({kArtifact});
  return r.ok() ? r->stats : provabs::ServerStats{};
}

double Frac(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / whole;
}

/// Server counters over one phase: the difference of two stats blocks.
struct Counters {
  uint64_t result_hits = 0, result_misses = 0;
  uint64_t program_hits = 0, program_misses = 0;
  uint64_t evictions = 0, dedup_hits = 0;
  uint64_t eval_requests = 0, eval_groups = 0;
  uint64_t delta_patched = 0;

  void Add(const provabs::ServerStats& before,
           const provabs::ServerStats& after) {
    result_hits += after.result_hits - before.result_hits;
    result_misses += after.result_misses - before.result_misses;
    program_hits += after.program_hits - before.program_hits;
    program_misses += after.program_misses - before.program_misses;
    evictions += after.evictions - before.evictions;
    dedup_hits += after.dedup_hits - before.dedup_hits;
    eval_requests += after.eval_requests - before.eval_requests;
    eval_groups += after.eval_groups - before.eval_groups;
    delta_patched += after.delta_patched - before.delta_patched;
  }
};

/// Everything the segments of a run measure, merged.
struct Measured {
  std::vector<double> setup_s, query_s, rss_mb;
  /// Host steal rate during each set-up.
  std::vector<double> setup_steal;
  ClassRun whatif, eval, write;
  /// The accuracy probe's requests, and failures during warm-ups.
  RequestLog probe_log;
  Counters workload, writes;
  double server_cpu_s = 0;
  uint64_t workload_requests = 0;
  double rel_err = std::nan("");
  double client_eval_rpc_us = 0;
};

void Absorb(ClassRun& into, ClassRun&& from, const StealSampler& host) {
  if (from.log.attempted() > 0) {
    const std::vector<double> steal =
        host.PerSecond(from.start_s, from.window_s);
    std::vector<RequestLog> logs =
        from.log.BySecond(from.start_s, steal.size());
    for (size_t i = 0; i < steal.size(); ++i) {
      const double duration_s =
          i + 1 == steal.size() ? from.window_s - static_cast<double>(i) : 1.0;
      into.seconds.push_back({steal[i], std::move(logs[i]), duration_s});
    }
  }
  into.log.Merge(from.log);
  for (auto& s : from.evals) into.evals.push_back(std::move(s));
  for (auto& s : from.whatifs) into.whatifs.push_back(std::move(s));
  for (auto& s : from.writes) into.writes.push_back(std::move(s));
  into.lag_ms.insert(into.lag_ms.end(), from.lag_ms.begin(),
                     from.lag_ms.end());
  into.appends += from.appends;
}

/// The requests of a class's calm seconds (QuietMask), with at least
/// kMinQuietAnswers answers where the class has them, and how long those
/// seconds lasted. The end-to-end medians and rates come from these.
struct Quiet {
  RequestLog log;
  double seconds = 0;
  double PerSecond() const {
    return seconds > 0 ? static_cast<double>(log.succeeded()) / seconds : 0;
  }
};

Quiet QuietSeconds(const ClassRun& run) {
  std::vector<double> steal;
  std::vector<uint64_t> answers;
  for (const Second& second : run.seconds) {
    steal.push_back(second.steal);
    answers.push_back(second.log.succeeded());
  }
  const std::vector<bool> keep =
      QuietMask(steal, answers, kMinQuietAnswers, kCalmSteal);
  Quiet out;
  for (size_t i = 0; i < keep.size(); ++i) {
    if (!keep[i]) continue;
    out.log.Merge(run.seconds[i].log);
    out.seconds += run.seconds[i].duration_s;
  }
  return out;
}

/// The accuracy probe: compressed against full objectives on the probe
/// family, as the server answers it, each answer checked against the
/// reference. Returns NaN when an answer is missing.
double RelErrProbe(Client& client, const Fixture& fx, Reference& ref,
                   RequestLog& log) {
  Program probe;
  probe.source = ProbeProgram(fx);
  probe.shape = ScenarioShape::kValues;
  EvaluateScenarioProgramRequest full = MakeWhatif(fx, probe);
  full.compressed = false;
  const EvaluateScenarioProgramRequest cut = MakeWhatif(fx, probe);
  StatusOr<Response> rf = client.EvaluateScenarioProgram(full);
  StatusOr<Response> rc = client.EvaluateScenarioProgram(cut);
  const WhatifSample ef = ExpectedWhatif(ref, ref.State(0), probe, false);
  const WhatifSample ec = ExpectedWhatif(ref, ref.State(0), probe, true);
  for (const auto& [r, expected] :
       {std::make_pair(&rf, &ef), std::make_pair(&rc, &ec)}) {
    if (!Ok(*r)) {
      log.Fail(NowSeconds());
      continue;
    }
    log.Ok(0, NowSeconds());
    if (!SameBits((*r)->values, expected->values)) log.Mismatch();
  }
  if (!Ok(rf) || !Ok(rc) || rf->values.size() != rc->values.size()) {
    return std::nan("");
  }
  const size_t polys = fx.polys.count();
  const size_t scenarios = rf->values.size() / polys;
  double rel_err = 0;
  for (size_t i = 0; i < scenarios; ++i) {
    double of = 0, oc = 0;
    for (size_t p = 0; p < polys; ++p) {
      of += rf->values[i * polys + p];
      oc += rc->values[i * polys + p];
    }
    rel_err += std::fabs(oc - of) / std::fabs(of);
  }
  return rel_err / std::max<size_t>(1, scenarios);
}

/// One segment of a run, on a server process of its own: set-up (timed),
/// the workload's traffic for `seconds`, then its share of the probes.
/// Spreading a run over several server processes keeps one process's
/// memory layout from deciding a figure: on the reference host the same
/// requests ran up to 1.5x slower in some processes than in others.
bool RunSegment(const Options& opt, size_t segment, double seconds,
                Context& ctx, Fixture& fx, Reference& ref,
                const StealSampler& host, Measured& m) {
  const Workload wl = opt.workload;
  const bool last = segment + 1 == kSegments;
  ServerProcess server;
  // Set-up repeats, each time on a fresh server; the last one takes the
  // load.
  const double setup_begin = NowSeconds();
  for (size_t setups = 0; setups < kSetups ||
                          NowSeconds() - setup_begin < kSetupSeconds;
       ++setups) {
    server.Stop();
    const double t0 = NowSeconds();
    fx = MakeFixture(wl);
    if (!server.Start(opt.server, opt.workdir)) {
      std::fprintf(stderr, "cannot start %s\n", opt.server.c_str());
      return false;
    }
    ctx.port = server.port();
    auto client = Connect(ctx.port);
    if (!client.ok() || !Ok(client->Load(MakeLoad(fx))) ||
        !Ok(client->Compress(MakeCompress(fx.bound)))) {
      std::fprintf(stderr, "set-up: load or compress failed\n");
      return false;
    }
    // Warm-up: every pooled program of a sweep, or a round of lookups.
    bool warm = true;
    if (wl == Workload::kWhatifSweep) {
      for (const auto& req : ctx.whatif_requests) {
        warm = warm && Ok(client->EvaluateScenarioProgram(req));
      }
    } else {
      for (const auto& req : ctx.eval_requests) {
        warm = warm && Ok(client->Evaluate(req));
      }
    }
    if (!warm) {
      std::fprintf(stderr, "set-up: warm-up failed\n");
      return false;
    }
    const double t1 = NowSeconds();
    m.setup_s.push_back(t1 - t0);
    m.setup_steal.push_back(host.Rate(t0, t1));
    m.query_s.push_back(fx.query_s);
  }

  // The workload's own traffic, first for an untimed warm-up: the first
  // moments of a fresh server under load are slower than its steady state.
  ClassRun whatif, eval, write;
  auto drive = [&](double duration) {
    whatif = eval = write = ClassRun();
    const double end = NowSeconds() + duration;
    if (wl == Workload::kWhatifSweep) {
      whatif = RunThreads(kConnections, [&](size_t t, ClassRun& out) {
        WhatifLoop(ctx, t, Until(end), out);
      });
    } else if (wl == Workload::kPointLookups) {
      const OpenLoopSchedule schedule(NowSeconds(), kPointLookupRate);
      eval = RunThreads(kConnections, [&](size_t t, ClassRun& out) {
        OpenEvalLoop(ctx, t, kConnections, schedule, end, out);
      });
    } else {
      write.start_s = NowSeconds();
      std::thread writer([&] { WriteLoop(ctx, Until(end), write); });
      eval = RunThreads(kConnections - 1, [&](size_t t, ClassRun& out) {
        EvalLoop(ctx, t + 1, Until(end), out);
      });
      writer.join();
      write.window_s = NowSeconds() - write.start_s;
    }
  };
  drive(kLoadWarmupSeconds);
  for (const ClassRun* run : {&whatif, &eval, &write}) {
    for (uint64_t i = 0; i < run->log.failed(); ++i) {
      m.probe_log.Fail(NowSeconds());
    }
  }
  const provabs::ServerStats before = Stats(ctx.port);
  const double cpu_before = server.CpuSeconds();
  drive(seconds);
  m.server_cpu_s += server.CpuSeconds() - cpu_before;
  const provabs::ServerStats after = Stats(ctx.port);
  m.workload.Add(before, after);
  if (wl == Workload::kUpdateUnderRead) m.writes.Add(before, after);
  m.workload_requests +=
      whatif.log.attempted() + eval.log.attempted() + write.log.attempted();
  // Peak memory of set-up and the workload's window; the probes below
  // would add their own generations.
  m.rss_mb.push_back(server.PeakRssMb());
  Absorb(m.whatif, std::move(whatif), host);
  Absorb(m.eval, std::move(eval), host);
  Absorb(m.write, std::move(write), host);

  // Untimed steps use a control connection, closed whenever load runs, so
  // load never shares the server with more than 4 connections.
  std::optional<StatusOr<Client>> control;
  auto open_control = [&]() -> Client* {
    control.emplace(Connect(ctx.port));
    return control->ok() ? &**control : nullptr;
  };
  Client* client = open_control();
  if (client == nullptr) {
    std::fprintf(stderr, "cannot reconnect to the server\n");
    return false;
  }
  // Back to the base artifact before anything that assumes it.
  if (wl == Workload::kUpdateUnderRead &&
      (!Ok(client->Load(MakeLoad(fx))) ||
       !Ok(client->Compress(MakeCompress(fx.bound))))) {
    std::fprintf(stderr, "cannot reload the base artifact\n");
    return false;
  }
  if (segment == 0) m.rel_err = RelErrProbe(*client, fx, ref, m.probe_log);

  // This segment's share of the probes for the request classes the
  // workload does not drive itself, each warmed first. A read probe is one
  // closed-loop connection: it measures the class unloaded, since queueing
  // behind other connections would amplify the host's noise.
  std::atomic<uint64_t> sent{0};
  const double probe_s = kProbeSeconds / kSegments;
  const uint64_t probe_reads = (kProbeReads + kSegments - 1) / kSegments;
  if (wl != Workload::kWhatifSweep) {
    for (const auto& req : ctx.whatif_requests) {
      (void)client->EvaluateScenarioProgram(req);
    }
    control.reset();
    ClassRun probe = RunThreads(1, [&](size_t t, ClassRun& out) {
      WhatifLoop(ctx, t, Probe(sent, probe_reads, probe_s), out);
    });
    Absorb(m.whatif, std::move(probe), host);
    client = open_control();
  }
  if (wl == Workload::kWhatifSweep) {
    for (const auto& req : ctx.eval_requests) (void)client->Evaluate(req);
    control.reset();
    sent = 0;
    ClassRun probe = RunThreads(1, [&](size_t t, ClassRun& out) {
      EvalLoop(ctx, t, Probe(sent, probe_reads, probe_s), out);
    });
    Absorb(m.eval, std::move(probe), host);
    client = open_control();
  }
  if (wl != Workload::kUpdateUnderRead) {
    control.reset();
    const provabs::ServerStats write_before = Stats(ctx.port);
    sent = 0;
    ClassRun probe = RunThreads(1, [&](size_t, ClassRun& out) {
      WriteLoop(ctx,
                Probe(sent, (kProbeWrites + kSegments - 1) / kSegments,
                      kWriteProbeSeconds / kSegments),
                out);
    });
    m.writes.Add(write_before, Stats(ctx.port));
    Absorb(m.write, std::move(probe), host);
    client = open_control();
  }

  // Idle round trip of one lookup, for the transport layer.
  if (opt.trace && last && client != nullptr) {
    (void)client->Load(MakeLoad(fx));
    (void)client->Compress(MakeCompress(fx.bound));
    std::vector<double> rpc;
    for (int i = 0; i < 300; ++i) {
      const double t1 = NowSeconds();
      (void)client->Evaluate(ctx.eval_requests[0]);
      rpc.push_back((NowSeconds() - t1) * 1e6);
    }
    m.client_eval_rpc_us = Median(rpc);
  }
  control.reset();
  server.Stop();
  return true;
}

int Run(const Options& opt) {
  std::printf("host: cpu=\"%s\" nproc=%u compiler=\"%s\" build=%s\n",
              CpuModel().c_str(), std::thread::hardware_concurrency(),
              WHATIF_COMPILER, WHATIF_BUILD_TYPE);
  if (std::string(WHATIF_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "refusing to measure a %s build; build Release\n",
                 WHATIF_BUILD_TYPE);
    return 2;
  }
  const Workload wl = opt.workload;

  // The generated inputs, drawn from the same (deterministic) artifact
  // each segment's set-up produces again.
  Context ctx;
  const Fixture inputs = MakeFixture(wl);
  ctx.seed = opt.seed;
  ctx.programs = ProgramPool(inputs);
  ctx.assignments = AssignmentPool(inputs, opt.seed);
  ctx.appends = MakeAppends(inputs, opt.seed);
  for (const Program& p : ctx.programs) {
    ctx.whatif_requests.push_back(MakeWhatif(inputs, p));
  }
  for (const Assignments& a : ctx.assignments) {
    ctx.eval_requests.push_back(MakeEval(inputs, a));
  }
  Reference ref(inputs, ctx.appends);
  Checker check{&ref, &ctx, inputs.polys.count(), {}, {}};

  Fixture fx;
  ctx.fx = &fx;
  Measured m;
  const StealSampler host;
  for (size_t segment = 0; segment < kSegments; ++segment) {
    if (!RunSegment(opt, segment, opt.seconds / kSegments, ctx, fx, ref, host,
                    m)) {
      return 1;
    }
  }

  // Reference checks, outside every timed window.
  for (uint64_t i = 0, bad = check.Whatifs(m.whatif.whatifs); i < bad; ++i) {
    m.whatif.log.Mismatch();
  }
  for (uint64_t i = 0, bad = check.Evals(m.eval.evals); i < bad; ++i) {
    m.eval.log.Mismatch();
  }
  for (uint64_t i = 0, bad = check.Writes(m.write.writes); i < bad; ++i) {
    m.write.log.Mismatch();
  }
  const uint64_t attempted = m.whatif.log.attempted() +
                             m.eval.log.attempted() +
                             m.write.log.attempted() +
                             m.probe_log.attempted();
  const uint64_t failed = m.whatif.log.failed() + m.eval.log.failed() +
                          m.write.log.failed() + m.probe_log.failed();
  std::printf("workload %s seed %llu: %llu what-if, %llu lookups, %llu "
              "writes checked against the local reference; %llu failed\n",
              opt.workload_name.c_str(),
              static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(m.whatif.whatifs.size()),
              static_cast<unsigned long long>(m.eval.evals.size()),
              static_cast<unsigned long long>(m.write.writes.size()),
              static_cast<unsigned long long>(failed));

  std::vector<Metric> metrics;
  bool complete = true;
  auto percentile = [&](const char* name, const RequestLog& log, double q) {
    std::optional<double> v = log.GroupedPercentile(q, kTailGroup);
    if (!v) {
      std::fprintf(stderr, "%s: %llu samples are too few for it\n", name,
                   static_cast<unsigned long long>(log.attempted()));
      complete = false;
    }
    metrics.push_back({name, v.value_or(0), "ms"});
  };
  if (!opt.trace) {
    const std::vector<bool> quiet_setups =
        QuietMask(m.setup_steal, std::vector<uint64_t>(m.setup_s.size(), 1),
                  0, kCalmSteal);
    std::vector<double> setup_s;
    for (size_t i = 0; i < m.setup_s.size(); ++i) {
      if (quiet_setups[i]) setup_s.push_back(m.setup_s[i]);
    }
    const Quiet whatif = QuietSeconds(m.whatif);
    const Quiet eval = QuietSeconds(m.eval);
    metrics.push_back({"setup_s", Median(setup_s), "s"});
    percentile("whatif_p50_ms", whatif.log, 50);
    metrics.push_back({"scenarios_per_s",
                       whatif.PerSecond() * kScenariosPerProgram, "1/s"});
    percentile("eval_p50_ms", eval.log, 50);
    metrics.push_back({"eval_rps", eval.PerSecond(), "1/s"});
    percentile("write_p50_ms", QuietSeconds(m.write).log, 50);
    metrics.push_back({"server_rss_mb", Median(m.rss_mb), "MB"});
    metrics.push_back({"whatif_rel_err", m.rel_err, "ratio"});
  } else {
    // Tails are reported here, without a bound, over every second of the
    // windows: on a shared host they follow the neighbours' load more than
    // the program (in two sets of ten runs of the same code, the
    // interquartile range of a p99 reached up to 10 times its median).
    percentile("client.whatif_p99_ms", m.whatif.log, 99);
    percentile("client.eval_p99_ms", m.eval.log, 99);
    percentile("client.write_p90_ms", m.write.log, 90);
    const Counters& c = m.workload;
    const uint64_t lookups = c.result_hits + c.result_misses;
    metrics.push_back(
        {"store.result_hit_frac", Frac(c.result_hits, lookups), "ratio"});
    metrics.push_back({"store.program_hit_frac",
                       Frac(c.program_hits, c.program_hits + c.program_misses),
                       "ratio"});
    metrics.push_back({"store.evictions", double(c.evictions), "count"});
    metrics.push_back(
        {"inflight.dedup_frac", Frac(c.dedup_hits, lookups), "ratio"});
    const double lane_width = Frac(c.eval_requests, c.eval_groups);
    metrics.push_back({"batcher.lane_width", lane_width, "count"});
    metrics.push_back({"algo.patched_frac",
                       Frac(m.writes.delta_patched, m.write.appends), "ratio"});
    metrics.push_back(
        {"loadgen.lag_p99_ms",
         m.eval.lag_ms.empty() ? 0.0
                               : Percentile(m.eval.lag_ms, 99).value_or(0),
         "ms"});
    metrics.push_back({"server.cpu_ms_per_req",
                       m.server_cpu_s * 1e3 /
                           std::max<uint64_t>(1, m.workload_requests),
                       "ms"});
    metrics.push_back({"engine.query_s", Median(m.query_s), "s"});
    TraceInputs in;
    in.fixture = &fx;
    in.reference = &ref;
    in.eval_request = ctx.eval_requests[0];
    in.whatif_request = ctx.whatif_requests[0];
    in.append_bytes = ctx.appends[0];
    in.width_is_family = wl == Workload::kWhatifSweep;
    in.backend_width =
        in.width_is_family
            ? kScenariosPerProgram
            : std::max<size_t>(1, static_cast<size_t>(std::lround(lane_width)));
    in.client_eval_rpc_us = m.client_eval_rpc_us;
    for (Metric& metric : TraceLayers(in)) {
      // Partition checks are printed, not reported: each is the share of a
      // request class's service time that its timed layers account for.
      if (metric.name.rfind("partition.", 0) == 0) {
        std::printf("%s %.3f (layers over service time; want 0.9-1.1)\n",
                    metric.name.c_str(), metric.value);
        continue;
      }
      metrics.push_back(std::move(metric));
    }
  }
  for (const Metric& metric : metrics) {
    std::printf("%-28s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  const bool correct = failed == 0;
  PrintJson(correct, attempted, failed, metrics);
  if (!correct) return 1;
  return complete ? 0 : 1;
}

}  // namespace
}  // namespace whatifbench

double whatifbench::NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int main(int argc, char** argv) {
  using whatifbench::Workload;
  whatifbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload_name = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--server") {
      opt.server = value;
    } else if (flag == "--workdir") {
      opt.workdir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (opt.workload_name == "whatif-sweep") {
    opt.workload = Workload::kWhatifSweep;
  } else if (opt.workload_name == "point-lookups") {
    opt.workload = Workload::kPointLookups;
  } else if (opt.workload_name == "update-under-read") {
    opt.workload = Workload::kUpdateUnderRead;
  } else {
    std::fprintf(stderr,
                 "usage: whatif_loadgen --workload whatif-sweep|point-lookups|"
                 "update-under-read --seed N --seconds S --trace 0|1 "
                 "--server PATH --workdir DIR\n");
    return 2;
  }
  if (opt.server.empty() || opt.workdir.empty() || opt.seconds <= 0) {
    std::fprintf(stderr, "--server, --workdir and --seconds are required\n");
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);
  // Sleeping senders wake on time, not up to 50 us after it.
  prctl(PR_SET_TIMERSLACK, 1);
  return whatifbench::Run(opt);
}
