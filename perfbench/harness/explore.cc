// explore — read-only exploration of an in-memory cortical column.
//
// Each round runs SCOUT walkthroughs along neuron branches (a fresh kWarm
// session with a result cache per branch), data-centred (dense) and uniform
// (sparse) 10 um range requests to the backend the advisor recommends for
// ranges, and k = 16 kNN requests to the backend it recommends for kNN. The
// backends' traversal, the buffer pool (a quarter of the FLAT backend's
// pages), the result cache and the SCOUT prefetcher do all the work; delta,
// WAL and TOUCH do none.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "engine/query_engine.h"
#include "neuro/workload.h"

namespace perfbench {
namespace {

using namespace neurodb;

constexpr uint32_t kNeurons = 2300;  // ~10^6 segments
constexpr float kSide = 10.0f;
constexpr size_t kK = 16;
// Every round runs the same requests: kPaths walkthroughs of kStepsPerPath
// steps, kDense + kSparse range requests and kKnn kNN requests, split into
// kParts parts of equal make-up (README.md, "The statistic"). The mix is
// assumed, not taken from a measured session: the counts give range and kNN
// requests about equal shares of op_us, and walkthrough steps, range and kNN
// requests about a third of round_ms each, on the code this benchmark was
// written against (README.md, "The request mix"). They are large enough to
// keep the seed-to-seed spread of the mean cost small; the parts, about
// 20 ms each, are what the minimum is taken over.
constexpr size_t kParts = 32;
constexpr size_t kPaths = 64;
constexpr size_t kStepsPerPath = 16;
constexpr size_t kDense = 4096;
constexpr size_t kSparse = 4096;
constexpr size_t kKnn = 1280;
constexpr float kPathStep = 5.0f;
constexpr size_t kMinRounds = 5;
// kNN answers verified by a full scan (every 16th point).
constexpr size_t kKnnCheckStride = 16;

const engine::BackendChoice kBackends[] = {
    engine::BackendChoice::kFlat, engine::BackendChoice::kRTree,
    engine::BackendChoice::kGrid, engine::BackendChoice::kSharded};
const char* const kBackendNames[] = {"flat", "rtree", "grid", "sharded"};

/// Self time per layer from a request's span tree: root = engine dispatch,
/// "backend:*" = backend traversal, "pool" = buffer pool (whose span shares
/// the backend's window, see docs/OBSERVABILITY.md).
struct SpanSelf {
  double engine_us = 0, backend_us = 0, pool_us = 0;
  void Add(const obs::Trace& trace) {
    const auto& spans = trace.spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const auto& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] +=
            static_cast<double>(s.duration_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double self =
          std::max(0.0, static_cast<double>(spans[i].duration_ns) -
                            child_ns[i]) /
          1e3;
      if (i == 0) {
        engine_us += self;
      } else if (spans[i].name.rfind("backend:", 0) == 0) {
        backend_us += self;
      } else if (spans[i].name == "pool") {
        pool_us += self;
      }
    }
  }
};

}  // namespace

int RunExplore(const Args& args, Report* report) {
  Rng rng(args.seed);
  neuro::Circuit circuit = MakeColumn(kNeurons, rng.Fork());
  const geom::ElementVec elements = circuit.FlattenSegments().Elements();
  geom::Aabb domain;
  for (const auto& e : elements) domain.Extend(e.bounds);

  const std::vector<geom::Aabb> dense =
      neuro::DataCenteredQueries(elements, kSide, kDense, rng.Fork());
  const std::vector<geom::Aabb> sparse =
      neuro::UniformQueries(domain, kSide, kSparse, rng.Fork());
  std::vector<geom::Vec3> knn_points;
  for (size_t i = 0; i < kKnn; ++i) {
    knn_points.push_back(elements[rng.Below(elements.size())].bounds.Center());
  }
  std::vector<std::vector<geom::Aabb>> paths;
  const uint32_t first = static_cast<uint32_t>(rng.Below(kNeurons));
  for (uint32_t i = 0; i < kNeurons && paths.size() < kPaths; ++i) {
    auto path = neuro::FollowBranchPath(circuit, (first + i) % kNeurons,
                                        kPathStep, 0);
    if (!path.ok()) continue;
    auto boxes = neuro::PathQueries(*path, kSide);
    if (boxes.size() < kStepsPerPath) continue;
    boxes.resize(kStepsPerPath);
    paths.push_back(std::move(boxes));
  }
  if (paths.size() < kPaths) {
    Log("explore: only %zu branch paths of %zu steps", paths.size(),
        kStepsPerPath);
    return 3;
  }

  TrimHeap();
  const double rss_before = RssMb();
  engine::EngineOptions options;
  options.num_threads = 1;
  // A quarter of the FLAT, grid and sharded backends' data pages (the
  // R-tree has about four times as many pages, so it gets a sixteenth).
  const size_t data_pages = (elements.size() + options.flat.elems_per_page - 1) /
                            options.flat.elems_per_page;
  options.pool_pages = std::max<size_t>(64, data_pages / 4);
  options.session.pool_pages = options.pool_pages;
  engine::QueryEngine db(options);
  if (Status s = db.LoadCircuit(circuit); !s.ok()) {
    Log("explore: LoadCircuit: %s", s.ToString().c_str());
    return 3;
  }
  engine::WorkloadProfile range_profile;
  range_profile.range_weight = 1.0;
  range_profile.knn_weight = 0.0;
  range_profile.range_side = kSide;
  engine::WorkloadProfile knn_profile;
  knn_profile.range_weight = 0.0;
  knn_profile.knn_weight = 1.0;
  knn_profile.knn_k = kK;
  auto range_advice = db.Advise(range_profile);
  auto knn_advice = db.Advise(knn_profile);
  if (!range_advice.ok() || !knn_advice.ok()) {
    Log("explore: Advise failed");
    return 3;
  }
  const engine::BackendChoice range_backend = range_advice->backend;
  const engine::BackendChoice knn_backend = knn_advice->backend;
  report->EndToEnd("setup_s", SecondsSince(args.start));

  Log("explore: %zu segments, %zu neurons, pool_pages %zu, session pool %zu",
      elements.size(), circuit.NumNeurons(), options.pool_pages,
      options.session.pool_pages);
  for (size_t i = 0; i < db.NumBackends(); ++i) {
    Log("explore: backend %s index_pages %zu", db.backend(i).name(),
        db.backend(i).Stats().index_pages);
  }
  for (const auto* advice : {&*range_advice, &*knn_advice}) {
    std::string line;
    for (const auto& e : advice->estimates) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), " %s=%.2f", e.backend.c_str(), e.cost);
      line += buf;
    }
    Log("explore: advisor %s picks %s; cost%s",
        advice == &*range_advice ? "range-only" : "knn-only",
        advice->backend_name.c_str(), line.c_str());
  }

  // Answers seen by the timed requests, checked after the loop.
  std::vector<int64_t> range_seen(kDense + kSparse, -1);
  std::vector<std::vector<geom::KnnHit>> knn_seen(kKnn);
  std::vector<std::vector<int64_t>> step_seen(
      kPaths, std::vector<int64_t>(kStepsPerPath, -1));
  auto note = [&](int64_t* slot, int64_t value, const char* what) {
    if (*slot >= 0 && *slot != value) {
      report->Mismatch(std::string("explore: ") + what +
                       " answer changed between rounds");
    }
    *slot = value;
  };

  PartTimes op_parts(kParts), round_parts(kParts), range_parts(kParts),
      knn_parts(kParts), step_parts(kParts);
  std::vector<double> range_single, knn_single, step_single, pass_ms;
  uint64_t pool_hits = 0, pool_misses = 0;
  uint64_t steps = 0, stall_us = 0, missed = 0, pf_issued = 0, pf_used = 0;
  double step_cache_hit = 0.0;
  SpanSelf spans;
  uint64_t traced_requests = 0;

  // One SCOUT walkthrough in a fresh session; returns its steps' time.
  auto walk = [&](size_t p) -> double {
    auto session = db.OpenSession(scout::PrefetchMethod::kScout,
                                  engine::CachePolicy::kWarm);
    if (!session.ok()) {
      report->Mismatch("explore: OpenSession: " + session.status().ToString());
      return 0.0;
    }
    double sum = 0;
    for (size_t s = 0; s < kStepsPerPath; ++s) {
      const Clock::time_point t = Clock::now();
      auto step = session->Step(paths[p][s]);
      const double us = Micros(t, Clock::now());
      report->Attempt(step.ok());
      if (!step.ok()) {
        report->Mismatch("explore: Step: " + step.status().ToString());
        continue;
      }
      sum += us;
      step_single.push_back(us);
      note(&step_seen[p][s], static_cast<int64_t>(step->results), "step");
      step_cache_hit += step->cache_hit_fraction;
    }
    const scout::SessionResult summary = session->Summary();
    steps += summary.steps.size();
    stall_us += summary.total_stall_us;
    missed += summary.pages_missed;
    pf_issued += summary.prefetch_issued;
    pf_used += summary.prefetch_used;
    return sum;
  };
  // Range request i: dense boxes first, then sparse ones.
  auto range = [&](size_t i) -> double {
    engine::RangeRequest request;
    request.box = i < kDense ? dense[i] : sparse[i - kDense];
    request.backend = range_backend;
    request.cache = engine::CachePolicy::kWarm;
    request.trace = args.trace;
    const Clock::time_point t = Clock::now();
    auto rep = db.Execute(request);
    const double us = Micros(t, Clock::now());
    report->Attempt(rep.ok());
    if (!rep.ok()) {
      report->Mismatch("explore: range: " + rep.status().ToString());
      return 0.0;
    }
    range_single.push_back(us);
    note(&range_seen[i], static_cast<int64_t>(rep->results), "range");
    pool_hits += rep->pool.hits;
    pool_misses += rep->pool.misses;
    if (rep->trace) {
      spans.Add(*rep->trace);
      ++traced_requests;
    }
    return us;
  };
  auto knn = [&](size_t i) -> double {
    engine::KnnRequest request;
    request.point = knn_points[i];
    request.k = kK;
    request.backend = knn_backend;
    request.cache = engine::CachePolicy::kWarm;
    request.trace = args.trace;
    const Clock::time_point t = Clock::now();
    auto rep = db.Execute(request);
    const double us = Micros(t, Clock::now());
    report->Attempt(rep.ok());
    if (!rep.ok()) {
      report->Mismatch("explore: knn: " + rep.status().ToString());
      return 0.0;
    }
    knn_single.push_back(us);
    if (!knn_seen[i].empty() && !SameHits(rep->hits, knn_seen[i])) {
      report->Mismatch("explore: kNN answer changed between rounds");
    }
    knn_seen[i] = rep->hits;
    pool_hits += rep->pool.hits;
    pool_misses += rep->pool.misses;
    if (rep->trace) {
      spans.Add(*rep->trace);
      ++traced_requests;
    }
    return us;
  };

  // Part k of a round: its share of the walkthroughs, of the dense and of
  // the sparse boxes, and of the kNN points.
  constexpr size_t kPathsPer = kPaths / kParts, kDensePer = kDense / kParts,
                   kSparsePer = kSparse / kParts, kKnnPer = kKnn / kParts;
  static_assert(kPathsPer * kParts == kPaths && kDensePer * kParts == kDense &&
                kSparsePer * kParts == kSparse && kKnnPer * kParts == kKnn);
  const Clock::time_point loop_start = Clock::now();
  size_t round = 0;
  for (; round < kMinRounds || SecondsSince(loop_start) < args.seconds;
       ++round) {
    const Clock::time_point round_start = Clock::now();
    for (size_t k = 0; k < kParts; ++k) {
      const Clock::time_point part_start = Clock::now();
      double step_us = 0, range_us = 0, knn_us = 0;
      for (size_t p = k * kPathsPer; p < (k + 1) * kPathsPer; ++p) {
        step_us += walk(p);
      }
      for (size_t i = k * kDensePer; i < (k + 1) * kDensePer; ++i) {
        range_us += range(i);
      }
      for (size_t i = k * kSparsePer; i < (k + 1) * kSparsePer; ++i) {
        range_us += range(kDense + i);
      }
      for (size_t i = k * kKnnPer; i < (k + 1) * kKnnPer; ++i) {
        knn_us += knn(i);
      }
      round_parts.Add(k, Micros(part_start, Clock::now()) / 1e3);
      op_parts.Add(k, range_us + knn_us);
      range_parts.Add(k, range_us);
      knn_parts.Add(k, knn_us);
      step_parts.Add(k, step_us);
    }
    pass_ms.push_back(Micros(round_start, Clock::now()) / 1e3);
  }
  const double peak_mb = PeakRssMb();

  report->EndToEnd("rss_mb", peak_mb - rss_before);
  report->EndToEnd("op_us", op_parts.Total() / (kDense + kSparse + kKnn));
  report->EndToEnd("round_ms", round_parts.Total());
  report->Layer("engine.range_us", range_parts.Total() / (kDense + kSparse));
  report->Layer("engine.knn_us", knn_parts.Total() / kKnn);
  report->Layer("session.step_us",
                step_parts.Total() / (kPaths * kStepsPerPath));
  report->Layer("pool.hit_ratio",
                pool_hits + pool_misses == 0
                    ? 0.0
                    : static_cast<double>(pool_hits) / (pool_hits + pool_misses));
  if (steps > 0) {
    report->Layer("scout.sim_stall_us", static_cast<double>(stall_us) / steps);
    report->Layer("scout.pages_missed_per_step",
                  static_cast<double>(missed) / steps);
    report->Layer("cache.step_hit_fraction", step_cache_hit / steps);
  }
  report->Layer("scout.prefetch_used_ratio",
                pf_issued == 0 ? 0.0 : static_cast<double>(pf_used) / pf_issued);
  if (traced_requests > 0) {
    report->Layer("span.engine_self_us", spans.engine_us / traced_requests);
    report->Layer("span.backend_self_us", spans.backend_us / traced_requests);
    report->Layer("span.pool_self_us", spans.pool_us / traced_requests);
  }
  Log("explore: %zu rounds", round);
  Log("explore: single range p50 %.2f p99 %.2f us (n=%zu); knn p50 %.2f p99 "
      "%.2f us (n=%zu); step p50 %.2f p99 %.2f us (n=%zu)",
      Quantile(range_single, 0.5), Quantile(range_single, 0.99),
      range_single.size(), Quantile(knn_single, 0.5),
      Quantile(knn_single, 0.99), knn_single.size(),
      Quantile(step_single, 0.5), Quantile(step_single, 0.99),
      step_single.size());
  Log("explore: medians over rounds: op %.2f us, round %.3f ms (whole rounds "
      "%.3f ms), range %.2f us, knn %.2f us, step %.2f us",
      op_parts.MedianTotal() / (kDense + kSparse + kKnn),
      round_parts.MedianTotal(), Quantile(pass_ms, 0.5),
      range_parts.MedianTotal() / (kDense + kSparse),
      knn_parts.MedianTotal() / kKnn,
      step_parts.MedianTotal() / (kPaths * kStepsPerPath));

  // Per-backend sweep (traced run): the same boxes and points to each
  // backend, warm, after the timed rounds.
  constexpr size_t kSweep = 64;
  if (args.trace) {
    for (size_t b = 0; b < 4; ++b) {
      std::vector<double> pass_range, pass_knn;
      double pages = 0;
      size_t range_n = 0;
      for (int pass = 0; pass < 3; ++pass) {
        double r_us = 0, k_us = 0;
        for (size_t i = 0; i < 2 * kSweep; ++i) {
          engine::RangeRequest request;
          request.box = i < kSweep ? dense[i] : sparse[i - kSweep];
          request.backend = kBackends[b];
          request.cache = engine::CachePolicy::kWarm;
          const Clock::time_point t = Clock::now();
          auto rep = db.Execute(request);
          r_us += Micros(t, Clock::now());
          if (!rep.ok()) {
            report->Mismatch("explore: sweep range failed");
            continue;
          }
          if (!rep->rows.empty()) {
            pages += static_cast<double>(rep->rows[0].stats.pages_read);
            ++range_n;
          }
        }
        for (size_t i = 0; i < kSweep; ++i) {
          engine::KnnRequest request;
          request.point = knn_points[i];
          request.k = kK;
          request.backend = kBackends[b];
          request.cache = engine::CachePolicy::kWarm;
          const Clock::time_point t = Clock::now();
          auto rep = db.Execute(request);
          k_us += Micros(t, Clock::now());
          if (!rep.ok()) report->Mismatch("explore: sweep knn failed");
        }
        pass_range.push_back(r_us / (2 * kSweep));
        pass_knn.push_back(k_us / kSweep);
      }
      const std::string prefix = std::string("backend.") + kBackendNames[b];
      report->Layer(prefix + ".range_us", MinOverRounds(pass_range));
      report->Layer(prefix + ".knn_us", MinOverRounds(pass_knn));
      report->Layer(prefix + ".range_pages",
                    range_n == 0 ? 0.0 : pages / static_cast<double>(range_n));
    }
  }

  // Output checks against brute force over the benchmark's own element
  // list (outside the timed region).
  const Clock::time_point check_start = Clock::now();
  const SlabOracle oracle(elements);
  auto check_range = [&](const geom::Aabb& box, int64_t seen,
                         const char* what) {
    const std::vector<geom::ElementId> want = oracle.Range(box);
    if (seen >= 0 && static_cast<size_t>(seen) != want.size()) {
      report->Mismatch(std::string("explore: ") + what + " count " +
                       std::to_string(seen) + " != brute force " +
                       std::to_string(want.size()));
    }
    return want;
  };
  for (size_t i = 0; i < kDense + kSparse; ++i) {
    const geom::Aabb& box = i < kDense ? dense[i] : sparse[i - kDense];
    const std::vector<geom::ElementId> want =
        check_range(box, range_seen[i], "range");
    engine::RangeRequest request;
    request.box = box;
    request.backend = range_backend;
    request.cache = engine::CachePolicy::kWarm;
    geom::CollectingVisitor visitor;
    auto rep = db.Execute(request, visitor);
    std::vector<geom::ElementId> got;
    for (const auto& e : visitor.elements()) got.push_back(e.id);
    std::sort(got.begin(), got.end());
    if (!rep.ok() || got != want) {
      report->Mismatch("explore: range ids differ from brute force");
    }
  }
  for (size_t p = 0; p < kPaths; ++p) {
    for (size_t s = 0; s < kStepsPerPath; ++s) {
      if (step_seen[p][s] >= 0) check_range(paths[p][s], step_seen[p][s], "step");
    }
  }
  for (size_t i = 0; i < kKnn; i += kKnnCheckStride) {
    if (knn_seen[i].empty()) continue;
    if (!SameHits(knn_seen[i], ScanKnn(elements, knn_points[i], kK))) {
      report->Mismatch("explore: kNN answer differs from brute force");
    }
  }
  Log("explore: output checks took %.2f s", SecondsSince(check_start));
  return 0;
}

}  // namespace perfbench
