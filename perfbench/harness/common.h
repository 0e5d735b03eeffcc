// perfbench — shared pieces of the NeuroDB benchmark harness: the command
// line, the result line, round statistics, memory probes, a seeded RNG and
// the brute-force oracles every workload checks the engine against.
//
// The harness drives libneurodb only through its public API and times the
// calls from outside. Every workload is a seeded sequence of rounds of equal
// work, run by one client thread in a closed loop; time metrics are the
// minimum over rounds of the per-operation mean within a round (README.md,
// "The statistic").

#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "geom/aabb.h"
#include "geom/element.h"
#include "geom/knn.h"
#include "geom/vec3.h"
#include "neuro/circuit.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double SecondsSince(Clock::time_point start);
/// Microseconds between two instants.
double Micros(Clock::time_point from, Clock::time_point to);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  /// 0: untraced run, end-to-end metrics. 1: traced run, per-layer metrics.
  bool trace = false;
  /// Scratch directory for data directories (created and emptied by the
  /// caller of the harness).
  std::string workdir;
  /// When the process started (set first thing in main): set-up time is
  /// measured from here.
  Clock::time_point start;
};

/// Collects the run's verdict and metrics and renders the harness's result
/// line. Metric names and units are declared only in BENCHMARK.json: run.py
/// checks every name the harness reports against it, attaches the units and
/// fills in 0 for a per-layer metric a workload never sets (that layer did
/// no such work in this workload).
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  /// Record an end-to-end metric (kept only in untraced runs).
  void EndToEnd(const std::string& name, double value);
  /// Record a per-layer metric (kept only in traced runs).
  void Layer(const std::string& name, double value);

  /// An output check failed: the run is not correct.
  void Mismatch(const std::string& what);
  /// One operation attempted; `ok == false` counts it as failed.
  void Attempt(bool ok);

  bool correct() const { return correct_; }

  /// The single-line JSON object {"correct", "attempted", "failed",
  /// "metrics": {name: value}} with the metrics set for this mode.
  std::string Json() const;

 private:
  bool trace_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int mismatches_ = 0;
  std::map<std::string, double> values_;
};

/// Linear-interpolated quantile of `values` (q in [0, 1]).
double Quantile(std::vector<double> values, double q);
/// The time statistic over per-round means: the minimum. On the same runs
/// it spread 0.6-0.7x as much between runs as the 10th percentile did
/// (README.md, "The statistic").
double MinOverRounds(const std::vector<double>& per_round);

/// Times of the parts of identical rounds: part k does the same work in
/// every round. Total() sums, over parts, each part's minimum over rounds.
/// Parts of a few milliseconds let the minimum find quiet moments of the
/// machine for every piece of work, while the sum still covers all of it;
/// with one part this is MinOverRounds itself.
class PartTimes {
 public:
  explicit PartTimes(size_t parts) : times_(parts) {}
  void Add(size_t part, double value) { times_[part].push_back(value); }
  double Total() const;
  /// Sum over parts of each part's median over rounds (for reference).
  double MedianTotal() const;

 private:
  std::vector<std::vector<double>> times_;
};

/// Resident and peak-resident memory of this process, MB.
double RssMb();
double PeakRssMb();
/// Return freed heap to the OS so the pre-engine RSS baseline is tight.
void TrimHeap();

/// Total size of the regular files under `dir`, bytes.
uint64_t DirBytes(const std::string& dir);

/// SplitMix64: the harness's own seeded generator, independent of the
/// library's RNG so inputs stay fixed while the library changes.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  double Uniform(double lo, double hi);
  /// A derived seed for an independent stream.
  uint64_t Fork() { return Next() ^ 0x9e3779b97f4a7c15ULL; }

 private:
  uint64_t state_;
};

/// A generated cortical column (neuro::CircuitGenerator) with a dense layer
/// 2 and a sparse layer 5; exits the process if generation fails.
neurodb::neuro::Circuit MakeColumn(uint32_t neurons, uint64_t seed);

/// Brute-force answers over an element list: every element is tested.
std::vector<neurodb::geom::ElementId> ScanRange(
    std::span<const neurodb::geom::SpatialElement> elements,
    const neurodb::geom::Aabb& box);
std::vector<neurodb::geom::KnnHit> ScanKnn(
    std::span<const neurodb::geom::SpatialElement> elements,
    const neurodb::geom::Vec3& p, size_t k);

/// Range oracle over a fixed element list: elements sorted by min.x, so a
/// query scans only the x-slab its box can touch and tests each candidate
/// in full. Same answers as ScanRange, fast enough to check thousands of
/// boxes over 10^6 elements.
class SlabOracle {
 public:
  explicit SlabOracle(neurodb::geom::ElementVec elements);
  /// Matching ids, ascending.
  std::vector<neurodb::geom::ElementId> Range(
      const neurodb::geom::Aabb& box) const;

 private:
  neurodb::geom::ElementVec elements_;  // ascending by bounds.min.x
  float max_width_ = 0.0f;
};

/// Same ids in the same order, distances equal to 1e-9 relative.
bool SameHits(const std::vector<neurodb::geom::KnnHit>& got,
              const std::vector<neurodb::geom::KnnHit>& want);

int RunExplore(const Args& args, Report* report);
int RunMutate(const Args& args, Report* report);
int RunSynapse(const Args& args, Report* report);

/// Log a line to stderr (reference figures and diagnostics; stdout carries
/// only the result line).
void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
