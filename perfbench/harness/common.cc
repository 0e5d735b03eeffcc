#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "neuro/circuit_generator.h"

namespace perfbench {

using neurodb::geom::Aabb;
using neurodb::geom::ElementId;
using neurodb::geom::ElementVec;
using neurodb::geom::KnnHit;
using neurodb::geom::SpatialElement;
using neurodb::geom::Vec3;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

void Log(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
}

void Report::EndToEnd(const std::string& name, double value) {
  Log("e2e %s = %.6g", name.c_str(), value);
  if (!trace_) values_[name] = value;
}

void Report::Layer(const std::string& name, double value) {
  if (trace_) values_[name] = value;
}

void Report::Mismatch(const std::string& what) {
  correct_ = false;
  // The first few mismatches say enough; a systematic fault would flood.
  if (++mismatches_ <= 10) Log("CHECK FAILED: %s", what.c_str());
}

void Report::Attempt(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : values_) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "\"%s\": %.17g", name.c_str(),
                  std::isfinite(value) ? value : 0.0);
    if (!first) out += ", ";
    out += buf;
    first = false;
  }
  out += "}}";
  return out;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double MinOverRounds(const std::vector<double>& per_round) {
  return per_round.empty()
             ? 0.0
             : *std::min_element(per_round.begin(), per_round.end());
}

double PartTimes::Total() const {
  double total = 0.0;
  for (const auto& t : times_) total += MinOverRounds(t);
  return total;
}

double PartTimes::MedianTotal() const {
  double total = 0.0;
  for (const auto& t : times_) total += Quantile(t, 0.5);
  return total;
}

namespace {

double StatusFieldMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace

double RssMb() { return StatusFieldMb("VmRSS"); }
double PeakRssMb() { return StatusFieldMb("VmHWM"); }
void TrimHeap() { malloc_trim(0); }

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * (static_cast<double>(Next() >> 11) * 0x1.0p-53);
}

neurodb::neuro::Circuit MakeColumn(uint32_t neurons, uint64_t seed) {
  neurodb::neuro::CircuitParams params;
  params.num_neurons = neurons;
  params.seed = seed;
  params.layer_weights = {0.05f, 0.40f, 0.25f, 0.20f, 0.10f};
  auto circuit = neurodb::neuro::CircuitGenerator(params).Generate();
  if (!circuit.ok()) {
    Log("circuit generation failed: %s", circuit.status().ToString().c_str());
    std::exit(3);
  }
  return std::move(circuit).value();
}

namespace {

/// Closed-interval box overlap (boxes sharing a face overlap), as the
/// engine defines range matches.
bool Overlaps(const Aabb& a, const Aabb& b) {
  return a.min.x <= b.max.x && b.min.x <= a.max.x && a.min.y <= b.max.y &&
         b.min.y <= a.max.y && a.min.z <= b.max.z && b.min.z <= a.max.z;
}

/// Euclidean point-to-box distance (0 inside), the engine's kNN metric.
double PointBoxDistance(const Vec3& p, const Aabb& box) {
  auto gap = [](float v, float lo, float hi) -> double {
    if (v < lo) return static_cast<double>(lo) - v;
    if (v > hi) return static_cast<double>(v) - hi;
    return 0.0;
  };
  const double dx = gap(p.x, box.min.x, box.max.x);
  const double dy = gap(p.y, box.min.y, box.max.y);
  const double dz = gap(p.z, box.min.z, box.max.z);
  return std::sqrt(dx * dx + dy * dy + dz * dz);
}

}  // namespace

std::vector<ElementId> ScanRange(std::span<const SpatialElement> elements,
                                 const Aabb& box) {
  std::vector<ElementId> ids;
  for (const auto& e : elements) {
    if (Overlaps(e.bounds, box)) ids.push_back(e.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<KnnHit> ScanKnn(std::span<const SpatialElement> elements,
                            const Vec3& p, size_t k) {
  // Max-heap of the k best under (distance, id).
  auto worse = [](const KnnHit& a, const KnnHit& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
  };
  std::vector<KnnHit> heap;
  heap.reserve(k + 1);
  for (const auto& e : elements) {
    const KnnHit hit{e.id, PointBoxDistance(p, e.bounds)};
    if (heap.size() < k) {
      heap.push_back(hit);
      std::push_heap(heap.begin(), heap.end(), worse);
    } else if (k > 0 && worse(hit, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), worse);
      heap.back() = hit;
      std::push_heap(heap.begin(), heap.end(), worse);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), worse);
  return heap;
}

SlabOracle::SlabOracle(ElementVec elements) : elements_(std::move(elements)) {
  std::sort(elements_.begin(), elements_.end(),
            [](const SpatialElement& a, const SpatialElement& b) {
              return a.bounds.min.x < b.bounds.min.x;
            });
  for (const auto& e : elements_) {
    max_width_ = std::max(max_width_, e.bounds.max.x - e.bounds.min.x);
  }
}

std::vector<ElementId> SlabOracle::Range(const Aabb& box) const {
  // An element can overlap only if min.x lies in
  // [box.min.x - max_width, box.max.x].
  const float lo = box.min.x - max_width_;
  auto first = std::lower_bound(
      elements_.begin(), elements_.end(), lo,
      [](const SpatialElement& e, float v) { return e.bounds.min.x < v; });
  std::vector<ElementId> ids;
  for (auto it = first; it != elements_.end() && it->bounds.min.x <= box.max.x;
       ++it) {
    if (Overlaps(it->bounds, box)) ids.push_back(it->id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool SameHits(const std::vector<KnnHit>& got, const std::vector<KnnHit>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != want[i].id) return false;
    if (std::fabs(got[i].distance - want[i].distance) >
        1e-9 * (1.0 + want[i].distance)) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
