// Per-layer timings for the traced run. Each layer is timed from outside,
// by calling its public entry points in process on the workload's own
// inputs, after the server run is over: nothing here runs while the
// end-to-end numbers are measured.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "abstraction/loss.h"
#include "algo/optimal_single_tree.h"
#include "bench.h"
#include "core/evaluation_backend.h"
#include "core/valuation.h"
#include "io/serializer.h"
#include "jit/code_cache.h"
#include "scenario/program.h"
#include "server/artifact_store.h"
#include "server/provenance_service.h"
#include "stats.h"

namespace whatifbench {

using namespace provabs;

namespace {

/// Median wall time of `fn` in microseconds, over at least `reps` calls
/// and as many more as fit in about 100 ms (at most 1,001).
template <typename Fn>
double MedianUs(int reps, Fn&& fn) {
  std::vector<double> us;
  const double start = NowSeconds();
  for (int i = 0; i < 1001; ++i) {
    if (i >= reps && NowSeconds() - start > 0.1) break;
    const double t0 = NowSeconds();
    fn();
    us.push_back((NowSeconds() - t0) * 1e6);
  }
  return Median(us);
}

/// Per-phase medians (microseconds) of a sequence run `reps` times in
/// order, at least 100 ms in all.
struct Phases {
  std::vector<double> median_us;
  double operator[](size_t i) const { return median_us[i]; }
  double SumFrom(size_t first) const {
    double sum = 0;
    for (size_t i = first; i < median_us.size(); ++i) sum += median_us[i];
    return sum;
  }
};

Phases TimePhases(int reps, const std::vector<std::function<void()>>& phases) {
  std::vector<std::vector<double>> us(phases.size());
  const double start = NowSeconds();
  for (int i = 0; i < 1001; ++i) {
    if (i >= reps && NowSeconds() - start > 0.1) break;
    for (size_t p = 0; p < phases.size(); ++p) {
      const double t0 = NowSeconds();
      phases[p]();
      us[p].push_back((NowSeconds() - t0) * 1e6);
    }
  }
  Phases out;
  for (auto& samples : us) out.median_us.push_back(Median(samples));
  return out;
}

}  // namespace

std::vector<Metric> TraceLayers(const TraceInputs& in) {
  const Fixture& fx = *in.fixture;
  Reference& ref = *in.reference;
  std::vector<Metric> out;
  auto add = [&out](const char* name, double value, const char* unit) {
    out.push_back({name, value, unit});
  };

  ServiceOptions options;
  options.eval_threads = 4;
  ProvenanceService svc(options);
  if (!svc.Load(MakeLoad(fx)).ok() ||
      !svc.Compress(MakeCompress(fx.bound)).ok()) {
    std::fprintf(stderr, "trace: in-process load or compress failed\n");
    return out;
  }
  const ArtifactStore::ResultKey key{kArtifact,
                                     svc.store().Get(kArtifact)->generation,
                                     "default", fx.bound, "opt"};
  auto cached = svc.store().PeekResult(key);
  std::shared_ptr<const PolynomialSet> target(cached, &cached->compressed);
  std::shared_ptr<const CompiledPolynomialSet> compiled = target->Compiled();
  const VariableTable& vars = *svc.store().Get(kArtifact)->vars;

  // Wire and transport, on one lookup.
  const std::string request = EncodeEvaluateRequest(in.eval_request);
  bool shutdown = false;
  const std::string response = svc.HandleFrame(request, &shutdown);
  const Response decoded = *DecodeResponse(response);
  add("wire.decode_us", MedianUs(300, [&] {
        (void)DecodeEvaluateRequest(request);
        (void)DecodeResponse(response);
      }),
      "us");
  add("wire.encode_us", MedianUs(300, [&] {
        (void)EncodeEvaluateRequest(in.eval_request);
        (void)EncodeResponse(decoded);
      }),
      "us");
  add("wire.response_bytes", static_cast<double>(response.size()), "bytes");
  const double handle_us =
      MedianUs(300, [&] { (void)svc.HandleFrame(request, &shutdown); });
  add("transport.rtt_overhead_us", in.client_eval_rpc_us - handle_us, "us");

  // Service: one lookup, and the layers it crosses. Each repetition calls
  // the service and then its parts in order, so the parts run with the
  // caches the service call leaves behind rather than hot from a tight
  // loop of their own.
  Valuation val;
  for (const auto& [name, value] : in.eval_request.assignments) {
    val.Set(vars.Find(name), value);
  }
  const ArtifactStore::ResultComputeFn no_compute =
      []() -> StatusOr<ArtifactStore::CompressedResult> {
    return Status::Internal("the result is cached");
  };
  // The compress dispatch a cached view still pays: artifact lookup,
  // algorithm resolution and the result-cache hit.
  auto view_lookup = [&] {
    (void)svc.store().Get(kArtifact);
    (void)CompressorRegistry::Default().Resolve("opt");
    (void)svc.store().GetOrCompute(key, no_compute);
  };
  auto service_stats = [&] {
    (void)svc.store().stats();
    (void)svc.batcher().stats();
  };
  Phases eval_parts = TimePhases(
      300, {[&] { (void)svc.Evaluate(in.eval_request); }, view_lookup,
            [&] { (void)target->Variables(); },
            [&] { (void)svc.batcher().Evaluate(target, val); },
            service_stats});
  const double evaluate_us = eval_parts[0];
  add("service.evaluate_us", evaluate_us, "us");
  const double materialize_us =
      MedianUs(300, [&] { (void)compiled->MaterializeValuation(val); });
  add("core.materialize_us", materialize_us, "us");
  add("partition.evaluate_frac", eval_parts.SumFrom(1) / evaluate_us,
      "ratio");

  // Scenario family: compile, expand, evaluate and shape.
  const EvaluateScenarioProgramRequest& wreq = in.whatif_request;
  (void)svc.EvaluateScenarioProgram(wreq);
  add("scenario.compile_ms", MedianUs(15, [&] {
        (void)scenario::ScenarioProgram::Compile(wreq.program, compiled, vars);
      }) / 1e3,
      "ms");
  auto program = scenario::ScenarioProgram::Compile(wreq.program, compiled,
                                                    vars);
  if (!program.ok()) {
    std::fprintf(stderr, "trace: program does not compile\n");
    return out;
  }
  const uint64_t family = program->scenario_count();
  const ArtifactStore::ProgramKey pkey{kArtifact, key.generation, true,
                                       "default", fx.bound, "opt",
                                       ArtifactStore::HashProgramSource(
                                           wreq.program)};
  std::vector<DenseValuation> chunk;
  StatusOr<std::vector<std::vector<double>>> values =
      Status::Internal("not run");
  Phases scenario_parts = TimePhases(
      15,
      {[&] { (void)svc.EvaluateScenarioProgram(wreq); },
       [&] {
         view_lookup();
         (void)svc.store().LookupProgram(pkey);
       },
       [&] {
         chunk.clear();
         (void)program->ExpandChunk(0, family, &chunk);
       },
       [&] { values = svc.batcher().EvaluateDense(target, compiled, chunk); },
       [&] {
         // Objectives and the top picks, as the service shapes them.
         std::vector<std::pair<double, uint64_t>> ranked;
         for (uint64_t i = 0; i < values->size(); ++i) {
           double objective = 0;
           for (double v : (*values)[i]) objective += v;
           ranked.emplace_back(-objective, i);
         }
         std::sort(ranked.begin(), ranked.end());
       },
       service_stats});
  const double scenario_us = scenario_parts[0];
  const double dense_eval_us = scenario_parts[3];
  add("service.scenario_ms", scenario_us / 1e3, "ms");
  add("scenario.expand_us", scenario_parts[2] / family, "us");
  add("partition.scenario_frac", scenario_parts.SumFrom(1) / scenario_us,
      "ratio");

  // Backends at the workload's width, on the compressed view.
  const size_t width = in.backend_width;
  std::vector<DenseValuation> lanes;
  if (in.width_is_family) {
    lanes = chunk;
  } else {
    lanes.assign(width, compiled->MaterializeValuation(val));
  }
  lanes.resize(std::min(lanes.size(), width));
  std::vector<const DenseValuation*> lane_ptrs;
  for (const DenseValuation& d : lanes) lane_ptrs.push_back(&d);
  std::vector<std::vector<double>> outs(
      lanes.size(), std::vector<double>(compiled->poly_count()));
  std::vector<double*> out_ptrs;
  for (auto& o : outs) out_ptrs.push_back(o.data());
  const EvaluationBackendRegistry& registry =
      EvaluationBackendRegistry::Default();
  double best_ms = 0;
  double auto_ms = 0;
  const std::string auto_name =
      (*registry.ResolveForBatch("", lanes.size()))->info().name;
  for (const std::string& name : registry.Names()) {
    const EvaluationBackend* backend = registry.Find(name);
    auto run = [&] {
      (void)backend->EvaluateBatch(*compiled, 0, compiled->poly_count(),
                                   lane_ptrs.data(), out_ptrs.data(),
                                   lanes.size());
    };
    run();  // Emits jit code on first use; timed separately below.
    const double ms = MedianUs(in.width_is_family ? 15 : 101, run) / 1e3;
    const std::string metric = "backend." + name + ".batch_ms";
    out.push_back({metric, ms, "ms"});
    if (best_ms == 0 || ms < best_ms) best_ms = ms;
    if (name == auto_name) auto_ms = ms;
  }
  add("backend.auto_over_best", auto_ms / best_ms, "ratio");
  const double batcher_us =
      in.width_is_family
          ? dense_eval_us
          : MedianUs(300, [&] { (void)svc.batcher().Evaluate(target, val); }) -
                materialize_us;
  const double auto_batch_us =
      in.width_is_family
          ? auto_ms * 1e3
          : MedianUs(300, [&] {
              (void)(*registry.ResolveForBatch("", 1))
                  ->EvaluateBatch(*compiled, 0, compiled->poly_count(),
                                  lane_ptrs.data(), out_ptrs.data(), 1);
            });
  add("batcher.overhead_us", batcher_us - auto_batch_us, "us");

  // Core compile and jit emission, per snapshot.
  add("core.compile_ms", MedianUs(7, [&] {
        (void)CompiledPolynomialSet::Compile(*target);
      }) / 1e3,
      "ms");
  add("jit.emit_ms", MedianUs(7, [&] {
        jit::JitCodeCache cache(size_t{64} << 20);
        (void)cache.GetOrEmit(*compiled);
      }) / 1e3,
      "ms");

  // One write from the base artifact: Append, then the patched Compress.
  // Each repetition resets the service to the base artifact (untimed),
  // times the two requests, resets again and times their parts: the
  // store's Append, the recompress, Apply, the result's size accounting on
  // insertion (which compiles the fresh compressed set) and Describe.
  const RefState& base = ref.State(0);
  const RefState& grown = ref.State(1);
  const AbstractionForest& forest = ref.forest();
  PolynomialSet polys = base.polys;
  const uint64_t revision = polys.revision();
  for (size_t i = base.polys.count(); i < grown.polys.count(); ++i) {
    polys.Add(grown.polys[i]);
  }
  const PolynomialSetDelta delta = polys.DeltaSince(revision);
  StatusOr<CompressionResult> patched = Status::Internal("not run");
  PolynomialSet compressed;
  std::vector<std::vector<double>> w(7);
  const double write_start = NowSeconds();
  for (int rep = 0; rep < 31; ++rep) {
    if (rep >= 9 && NowSeconds() - write_start > 2.0) break;
    auto timed = [&](size_t slot, const std::function<void()>& fn) {
      const double t0 = NowSeconds();
      fn();
      w[slot].push_back((NowSeconds() - t0) * 1e6);
    };
    auto reset = [&] {
      (void)svc.Load(MakeLoad(fx));
      (void)svc.Compress(MakeCompress(fx.bound));
    };
    reset();
    timed(0, [&] { (void)svc.Append({kArtifact, in.append_bytes}); });
    timed(1, [&] { (void)svc.Compress(MakeCompress(fx.bound)); });
    reset();
    timed(2, [&] { (void)svc.store().Append(kArtifact, in.append_bytes); });
    timed(3, [&] {
      patched =
          OptimalRecompress(polys, forest, base.result, delta, ref.bound());
    });
    const CompressionResult& result = patched.ok() ? *patched : grown.result;
    timed(4, [&] { compressed = result.Apply(forest, polys); });
    timed(5, [&] { (void)ApproxPolynomialSetBytes(compressed); });
    timed(6, [&] { (void)result.Describe(forest, ref.vars()); });
  }
  double write_parts = 0;
  for (size_t slot = 2; slot < w.size(); ++slot) write_parts += Median(w[slot]);
  add("service.append_ms", Median(w[0]) / 1e3, "ms");
  add("service.compress_ms", Median(w[1]) / 1e3, "ms");
  add("store.append_ms", Median(w[2]) / 1e3, "ms");
  add("algo.recompress_ms", Median(w[3]) / 1e3, "ms");
  add("algo.apply_ms", Median(w[4]) / 1e3, "ms");
  add("store.insert_ms", Median(w[5]) / 1e3, "ms");
  add("algo.describe_ms", Median(w[6]) / 1e3, "ms");
  add("partition.write_frac", write_parts / (Median(w[0]) + Median(w[1])),
      "ratio");

  add("io.serialize_ms", MedianUs(7, [&] {
        (void)SerializePolynomialSet(grown.polys, ref.vars());
      }) / 1e3,
      "ms");
  add("io.deserialize_ms", MedianUs(7, [&] {
        VariableTable fresh;
        (void)DeserializePolynomialSet(fx.polys_bytes, fresh);
      }) / 1e3,
      "ms");
  add("algo.dp_ms", MedianUs(7, [&] {
        (void)OptimalSingleTree(base.polys, forest, 0, ref.bound());
      }) / 1e3,
      "ms");
  add("abstraction.residual_index_ms", MedianUs(7, [&] {
        LeafResidualIndex index(polys, forest.tree(0));
        (void)index;
      }) / 1e3,
      "ms");
  return out;
}

}  // namespace whatifbench
