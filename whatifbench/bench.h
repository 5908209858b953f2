#ifndef WHATIFBENCH_BENCH_H_
#define WHATIFBENCH_BENCH_H_

// Types shared by the load generator (loadgen.cc) and the traced per-layer
// timings (layers.cc).

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "abstraction/abstraction_forest.h"
#include "algo/compressor.h"
#include "core/polynomial_set.h"
#include "core/variable.h"
#include "server/wire_protocol.h"

namespace whatifbench {

inline constexpr char kArtifact[] = "bench";
/// Every pooled scenario program expands to exactly this many scenarios.
inline constexpr uint64_t kScenariosPerProgram = 256;

double NowSeconds();

/// One workload's provenance artifact as its producer ships it.
struct Fixture {
  std::shared_ptr<provabs::VariableTable> vars;
  provabs::PolynomialSet polys;
  provabs::AbstractionForest forest;
  uint64_t bound = 0;
  /// The bound writers compress at. It equals `bound` unless the artifact
  /// has too little removable size for a whole write cycle of appends to
  /// stay feasible at `bound`.
  uint64_t write_bound = 0;
  std::string polys_bytes;
  std::string forest_bytes;
  /// Variables outside the abstraction tree (months, parts): they survive
  /// every cut, so point lookups and scenario grids may always set them.
  std::vector<std::string> free_vars;
  /// Seconds the provenance query took to produce `polys`.
  double query_s = 0;
};

/// Loads the fixture's base artifact, as the producer ships it.
inline provabs::LoadRequest MakeLoad(const Fixture& fx) {
  provabs::LoadRequest req;
  req.artifact = kArtifact;
  req.polys_bytes = fx.polys_bytes;
  req.forests = {{"default", fx.forest_bytes}};
  return req;
}

inline provabs::CompressRequest MakeCompress(uint64_t bound) {
  provabs::CompressRequest req;
  req.artifact = kArtifact;
  req.bound = bound;
  return req;
}

/// The served artifact after `appended` writes since the last Load, as the
/// local reference computes it: the producer's bytes deserialized the way
/// the server does, a cold opt run and Apply.
struct RefState {
  provabs::PolynomialSet polys;
  provabs::CompressionResult result;
  provabs::PolynomialSet compressed;
  std::string vvs;
};

class Reference {
 public:
  Reference(const Fixture& fixture,
            const std::vector<std::string>& append_bytes);
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  /// Computed on first use and kept; `bound` 0 means the view's bound.
  const RefState& State(size_t appended, uint64_t bound = 0);
  provabs::VariableTable& vars() { return *vars_; }
  const provabs::AbstractionForest& forest() const { return forest_; }
  uint64_t bound() const { return bound_; }
  size_t max_appended() const { return appends_.size(); }

 private:
  std::unique_ptr<provabs::VariableTable> vars_;
  provabs::AbstractionForest forest_;
  provabs::PolynomialSet base_;
  std::vector<provabs::PolynomialSet> appends_;
  uint64_t bound_ = 0;
  std::map<std::pair<size_t, uint64_t>, std::unique_ptr<RefState>> states_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What the traced run hands the in-process layer timings.
struct TraceInputs {
  const Fixture* fixture = nullptr;
  Reference* reference = nullptr;
  /// A request of each class, as the workload sends them.
  provabs::EvaluateRequest eval_request;
  provabs::EvaluateScenarioProgramRequest whatif_request;
  std::string append_bytes;
  /// Batch width at which every backend is timed.
  size_t backend_width = 1;
  /// True when the width is a scenario family rather than coalesced
  /// single evaluations.
  bool width_is_family = false;
  /// Median client round trip of `eval_request` against the idle server.
  double client_eval_rpc_us = 0;
};

/// Times each layer's public entry points on the workload's inputs.
std::vector<Metric> TraceLayers(const TraceInputs& in);

}  // namespace whatifbench

#endif  // WHATIFBENCH_BENCH_H_
