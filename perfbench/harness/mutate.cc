// mutate — a durable engine under identical write cycles.
//
// base.ndb + WAL with SyncPolicy::kNone (every batch is written to the WAL,
// none is fsync'd), no size-triggered checkpoints, ~10^5 segments so the
// data fits in the pool. The unit of work is a cycle:
//   1. half the batches, 2. Checkpoint, 3. the other half,
//   4. close and QueryEngine::Open (replays the half-cycle WAL tail),
//   5. Compact (folds the replayed delta back into the base).
// A batch is 8 ops (2 inserts, 2 erases, 4 moves: the live count stays
// level); every few batches a range and a kNN request read the same
// backends the writes go to. Every cycle starts from an empty delta, so the
// cycles repeat exactly in kind and size.
//
// The data directory still grows with every checkpoint (base.ndb does not
// reuse the blocks a checkpoint frees), so a round is a fixed number of
// cycles from a restore point: the directory as loaded is copied once, and
// every round closes the engine, puts that copy back, reopens it and replays
// the same seeded cycles. What the engine holds at any point of a round is
// then set by the operation count, never by how many rounds fit in the run.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "engine/durability.h"
#include "engine/query_engine.h"
#include "storage/disk/file.h"
#include "storage/disk/wal.h"

namespace perfbench {
namespace {

using namespace neurodb;

constexpr uint32_t kNeurons = 230;  // ~10^5 segments
constexpr float kSide = 10.0f;
constexpr size_t kK = 16;
constexpr size_t kBatchesPerCycle = 256;
constexpr size_t kInserts = 2, kErases = 2, kMoves = 4;  // 8 ops per batch
constexpr size_t kReadEvery = 16;
// The cycle's batches are timed in parts of kBatchesPerPart (README.md,
// "The statistic").
constexpr size_t kBatchesPerPart = 8;
constexpr size_t kCommitParts = kBatchesPerCycle / kBatchesPerPart;
constexpr size_t kChecksPerReopen = 8;
constexpr size_t kOverlayProbes = 32;
constexpr size_t kCyclesPerRound = 4;
constexpr size_t kMinRounds = 2;
constexpr geom::ElementId kFirstNewId = geom::ElementId{1} << 62;

/// The benchmark's own model of the live set.
class LiveSet {
 public:
  explicit LiveSet(geom::ElementVec elements) : elements_(std::move(elements)) {
    for (size_t i = 0; i < elements_.size(); ++i) index_[elements_[i].id] = i;
  }
  size_t size() const { return elements_.size(); }
  const geom::ElementVec& elements() const { return elements_; }
  const geom::SpatialElement& Random(Rng& rng) const {
    return elements_[rng.Below(elements_.size())];
  }
  void Apply(const engine::UpdateRequest& u) {
    switch (u.kind) {
      case engine::UpdateKind::kInsert:
        index_[u.id] = elements_.size();
        elements_.emplace_back(u.id, u.bounds);
        break;
      case engine::UpdateKind::kErase: {
        const size_t i = index_.at(u.id);
        index_[elements_.back().id] = i;
        elements_[i] = elements_.back();
        elements_.pop_back();
        index_.erase(u.id);
        break;
      }
      case engine::UpdateKind::kMove:
        elements_[index_.at(u.id)].bounds = u.bounds;
        break;
    }
  }

 private:
  geom::ElementVec elements_;
  std::unordered_map<geom::ElementId, size_t> index_;
};

geom::Aabb Shifted(const geom::Aabb& box, Rng& rng, double by) {
  const geom::Vec3 d(static_cast<float>(rng.Uniform(-by, by)),
                     static_cast<float>(rng.Uniform(-by, by)),
                     static_cast<float>(rng.Uniform(-by, by)));
  return geom::Aabb(box.min + d, box.max + d);
}

/// One balanced batch over distinct live targets.
std::vector<engine::UpdateRequest> MakeBatch(const LiveSet& live, Rng& rng,
                                             geom::ElementId* next_id) {
  std::vector<engine::UpdateRequest> batch;
  std::vector<geom::ElementId> taken;
  auto pick = [&]() -> const geom::SpatialElement& {
    for (;;) {
      const geom::SpatialElement& e = live.Random(rng);
      if (std::find(taken.begin(), taken.end(), e.id) == taken.end()) {
        taken.push_back(e.id);
        return e;
      }
    }
  };
  for (size_t i = 0; i < kInserts; ++i) {
    batch.push_back({engine::UpdateKind::kInsert, (*next_id)++,
                     Shifted(live.Random(rng).bounds, rng, 5.0)});
  }
  for (size_t i = 0; i < kErases; ++i) {
    batch.push_back({engine::UpdateKind::kErase, pick().id, geom::Aabb()});
  }
  for (size_t i = 0; i < kMoves; ++i) {
    const geom::SpatialElement& e = pick();
    batch.push_back({engine::UpdateKind::kMove, e.id, Shifted(e.bounds, rng, 3.0)});
  }
  return batch;
}

/// Read requests against the model, timed; answers checked outside the
/// timed call.
struct Reader {
  engine::QueryEngine* db = nullptr;
  engine::BackendChoice range_backend{};
  engine::BackendChoice knn_backend{};
  Report* report = nullptr;

  double Range(const geom::Aabb& box, const LiveSet& live, bool collect) {
    engine::RangeRequest request;
    request.box = box;
    request.backend = range_backend;
    request.cache = engine::CachePolicy::kWarm;
    geom::CollectingVisitor visitor;
    const Clock::time_point t = Clock::now();
    auto rep = db->Execute(request, visitor);
    const double us = Micros(t, Clock::now());
    report->Attempt(rep.ok());
    if (!rep.ok()) {
      report->Mismatch("mutate: range: " + rep.status().ToString());
      return us;
    }
    if (collect) {
      std::vector<geom::ElementId> got;
      for (const auto& e : visitor.elements()) got.push_back(e.id);
      std::sort(got.begin(), got.end());
      if (got != ScanRange(live.elements(), box)) {
        report->Mismatch("mutate: range ids differ from the live-set model");
      }
    }
    return us;
  }

  double Knn(const geom::Vec3& p, const LiveSet& live) {
    engine::KnnRequest request;
    request.point = p;
    request.k = kK;
    request.backend = knn_backend;
    request.cache = engine::CachePolicy::kWarm;
    const Clock::time_point t = Clock::now();
    auto rep = db->Execute(request);
    const double us = Micros(t, Clock::now());
    report->Attempt(rep.ok());
    if (!rep.ok()) {
      report->Mismatch("mutate: knn: " + rep.status().ToString());
    } else if (!SameHits(rep->hits, ScanKnn(live.elements(), p, kK))) {
      report->Mismatch("mutate: kNN answer differs from the live-set model");
    }
    return us;
  }
};

}  // namespace

int RunMutate(const Args& args, Report* report) {
  Rng rng(args.seed);
  const neuro::Circuit circuit = MakeColumn(kNeurons, rng.Fork());
  LiveSet live(circuit.FlattenSegments().Elements());
  const std::string dir = args.workdir + "/data";
  const std::string side_dir = args.workdir + "/side";
  std::filesystem::create_directories(side_dir);

  TrimHeap();
  const double rss_before = RssMb();
  engine::EngineOptions options;
  options.num_threads = 1;
  options.durability.dir = dir;
  // Commits write the WAL but do not fsync it: with one fsync per batch the
  // shared disk's fsync latency, which drifts between runs, made up about
  // half of a commit and spread op_us 22-31 % between runs (README.md).
  // The fsync'd append is timed alone as wal.append_us (traced run).
  options.durability.sync = engine::SyncPolicy::kNone;
  options.durability.checkpoint_wal_bytes = 0;
  // Backends on in-memory stores, rebuilt from base.ndb at Open: with
  // disk-backed stores each Compact rewrites ~16 MB of page files whose
  // background writeback lands on the next cycle's WAL fsyncs, which spread
  // commit times 14 % between runs against 5 % without (README.md).
  options.durability.disk_backends = false;
  // Every backend's pages fit in its pool (the R-tree has ~4x FLAT's).
  options.pool_pages =
      5 * (live.size() / options.flat.elems_per_page + 1) + 64;
  auto db = std::make_unique<engine::QueryEngine>(options);
  if (Status s = db->LoadCircuit(circuit); !s.ok()) {
    Log("mutate: LoadCircuit: %s", s.ToString().c_str());
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
  auto range_advice = db->Advise(range_profile);
  auto knn_advice = db->Advise(knn_profile);
  if (!range_advice.ok() || !knn_advice.ok()) {
    Log("mutate: Advise failed");
    return 3;
  }
  Reader reader{db.get(), range_advice->backend, knn_advice->backend, report};
  report->EndToEnd("setup_s", SecondsSince(args.start));
  Log("mutate: %zu segments, pool_pages %zu, advised range %s, knn %s",
      live.size(), options.pool_pages, range_advice->backend_name.c_str(),
      knn_advice->backend_name.c_str());

  std::unique_ptr<storage::WriteAheadLog> side_wal;
  if (args.trace) {
    auto wal = storage::WriteAheadLog::OpenOrCreate(
        storage::DefaultFileSystem(), side_dir + "/wal.ndb");
    if (!wal.ok()) {
      Log("mutate: side WAL: %s", wal.status().ToString().c_str());
      return 3;
    }
    side_wal = std::move(*wal);
  }

  // The restore point (taken while the engine is quiescent) and the state
  // every round starts from.
  const std::string restore_dir = args.workdir + "/restore";
  std::error_code ec;
  std::filesystem::copy(dir, restore_dir,
                        std::filesystem::copy_options::recursive, ec);
  if (ec) {
    Log("mutate: copying the data directory: %s", ec.message().c_str());
    return 3;
  }
  const LiveSet initial = live;
  const storage::Epoch initial_epoch = db->epoch();
  const Rng round_rng = rng;
  geom::ElementId next_id = kFirstNewId;
  storage::Epoch epoch = initial_epoch;
  // Parts of a cycle: the commit parts (with their reads), then the
  // checkpoint, the reopen and the Compact.
  PartTimes commit_parts(kCommitParts), read_parts(kCommitParts),
      range_parts(kCommitParts), knn_parts(kCommitParts);
  std::vector<double> checkpoint_ms, compact_ms, recover_ms;
  std::vector<double> encode_us, wal_us, overlay_us, cycle_ms;
  std::vector<double> commit_single;
  double fsyncs = 0, batch_bytes = 0, cycle_bytes = 0, ckpt_bytes = 0,
         compact_bytes = 0, replayed = 0, base_read_mb = 0, delta_records = 0;
  size_t batches_total = 0, ops_total = 0, cycles = 0, rounds = 0;
  uint64_t dir_bytes = 0;

  const Clock::time_point loop_start = Clock::now();
  for (; rounds < kMinRounds || SecondsSince(loop_start) < args.seconds;
       ++rounds) {
    // Back to the restore point (untimed).
    db.reset();
    std::filesystem::remove_all(dir, ec);
    std::filesystem::copy(restore_dir, dir,
                          std::filesystem::copy_options::recursive, ec);
    if (ec) {
      Log("mutate: restoring the data directory: %s", ec.message().c_str());
      return 3;
    }
    auto restored = engine::QueryEngine::Open(dir, options);
    report->Attempt(restored.ok());
    if (!restored.ok()) {
      Log("mutate: restore: %s", restored.status().ToString().c_str());
      return 3;
    }
    db = std::move(*restored);
    reader.db = db.get();
    live = initial;
    rng = round_rng;
    next_id = kFirstNewId;
    epoch = initial_epoch;
    if (db->epoch() != epoch || db->NumSegments() != live.size()) {
      report->Mismatch("mutate: restore point reopened at epoch " +
                       std::to_string(db->epoch()) + " with " +
                       std::to_string(db->NumSegments()) + " live elements");
    }

    for (size_t c = 0; c < kCyclesPerRound; ++c, ++cycles) {
      const Clock::time_point cycle_start = Clock::now();
      double commit_sum = 0, range_sum = 0, knn_sum = 0, encode_sum = 0,
             wal_sum = 0;
      uint64_t written = 0;
      std::vector<std::vector<uint8_t>> payloads;

      for (size_t b = 0; b < kBatchesPerCycle; ++b) {
        if (b == kBatchesPerCycle / 2) {
          const storage::IoStats io0 = db->IoTotals();
          const Clock::time_point t = Clock::now();
          const Status s = db->Checkpoint();
          checkpoint_ms.push_back(Micros(t, Clock::now()) / 1e3);
          report->Attempt(s.ok());
          if (!s.ok()) report->Mismatch("mutate: Checkpoint: " + s.ToString());
          const uint64_t bytes = (db->IoTotals() - io0).bytes_written;
          ckpt_bytes += static_cast<double>(bytes);
          written += bytes;
        }
        const std::vector<engine::UpdateRequest> batch =
            MakeBatch(live, rng, &next_id);
        if (args.trace) {
          const Clock::time_point t = Clock::now();
          payloads.push_back(engine::EncodeUpdateBatch(batch));
          encode_sum += Micros(t, Clock::now());
        }
        const storage::IoStats io0 = db->IoTotals();
        const Clock::time_point t = Clock::now();
        auto rep = db->ApplyUpdates(batch);
        const double us = Micros(t, Clock::now());
        report->Attempt(rep.ok());
        if (!rep.ok()) {
          report->Mismatch("mutate: ApplyUpdates: " + rep.status().ToString());
          return 3;
        }
        const storage::IoStats io = db->IoTotals() - io0;
        fsyncs += static_cast<double>(io.fsyncs);
        batch_bytes += static_cast<double>(io.bytes_written);
        written += io.bytes_written;
        commit_sum += us;
        commit_single.push_back(us);
        ++epoch;
        if (rep->applied != batch.size() || rep->epoch != epoch) {
          report->Mismatch("mutate: batch applied " +
                           std::to_string(rep->applied) + " ops at epoch " +
                           std::to_string(rep->epoch) + ", model expects " +
                           std::to_string(batch.size()) + " at " +
                           std::to_string(epoch));
        }
        for (const auto& u : batch) live.Apply(u);
        ++batches_total;
        ops_total += batch.size();

        if (b % kReadEvery == kReadEvery - 1) {
          const geom::Vec3 c = live.Random(rng).bounds.Center();
          range_sum += reader.Range(geom::Aabb::Cube(c, kSide), live, true);
          knn_sum += reader.Knn(live.Random(rng).bounds.Center(), live);
        }
        if (b % kBatchesPerPart == kBatchesPerPart - 1) {
          const size_t part = b / kBatchesPerPart;
          commit_parts.Add(part, commit_sum);
          read_parts.Add(part, range_sum + knn_sum);
          range_parts.Add(part, range_sum);
          knn_parts.Add(part, knn_sum);
          commit_sum = range_sum = knn_sum = 0;
        }
      }

      if (args.trace) {
        delta_records += static_cast<double>(db->DeltaSize());
        for (const auto& payload : payloads) {
          const Clock::time_point t = Clock::now();
          const Status s = side_wal->Append(1, payload, /*sync=*/true);
          wal_sum += Micros(t, Clock::now());
          if (!s.ok()) report->Mismatch("mutate: side WAL append failed");
        }
        if (!side_wal->Reset().ok()) report->Mismatch("mutate: side WAL reset");
      }

      // Close and recover: Open replays the WAL tail written after the
      // mid-cycle checkpoint.
      db.reset();
      engine::RecoveryReport recovery;
      const Clock::time_point t_open = Clock::now();
      auto reopened = engine::QueryEngine::Open(dir, options, &recovery);
      recover_ms.push_back(Micros(t_open, Clock::now()) / 1e3);
      report->Attempt(reopened.ok());
      if (!reopened.ok()) {
        Log("mutate: Open: %s", reopened.status().ToString().c_str());
        return 3;
      }
      db = std::move(*reopened);
      reader.db = db.get();
      replayed += static_cast<double>(recovery.replayed_batches);
      base_read_mb += static_cast<double>(db->IoTotals().bytes_read) / 1e6;
      if (db->epoch() != epoch || db->NumSegments() != live.size()) {
        report->Mismatch("mutate: reopened at epoch " +
                         std::to_string(db->epoch()) + " with " +
                         std::to_string(db->NumSegments()) +
                         " live elements; model has epoch " +
                         std::to_string(epoch) + " with " +
                         std::to_string(live.size()));
      }
      for (size_t i = 0; i < kChecksPerReopen; ++i) {
        const geom::Vec3 c = live.Random(rng).bounds.Center();
        reader.Range(geom::Aabb::Cube(c, kSide), live, true);
        reader.Knn(live.Random(rng).bounds.Center(), live);
      }

      // Compact, with the same probe boxes timed just before and after it
      // (traced run): the difference is the delta overlay's cost.
      std::vector<geom::Aabb> probes;
      if (args.trace) {
        for (size_t i = 0; i < kOverlayProbes; ++i) {
          probes.push_back(
              geom::Aabb::Cube(live.Random(rng).bounds.Center(), kSide));
        }
      }
      // Compact evicts the warm pools, so each side gets one untimed warm-up
      // pass before the timed one.
      auto probe_us = [&]() {
        for (const auto& box : probes) reader.Range(box, live, false);
        double sum = 0;
        for (const auto& box : probes) sum += reader.Range(box, live, false);
        return probes.empty() ? 0.0 : sum / static_cast<double>(probes.size());
      };
      const double before = probe_us();
      const storage::IoStats io0 = db->IoTotals();
      const Clock::time_point t_compact = Clock::now();
      const Status compacted = db->Compact();
      compact_ms.push_back(Micros(t_compact, Clock::now()) / 1e3);
      report->Attempt(compacted.ok());
      if (!compacted.ok()) {
        report->Mismatch("mutate: Compact: " + compacted.ToString());
        return 3;
      }
      ++epoch;
      const uint64_t bytes = (db->IoTotals() - io0).bytes_written;
      compact_bytes += static_cast<double>(bytes);
      written += bytes;
      overlay_us.push_back(before - probe_us());

      cycle_bytes += static_cast<double>(written);
      cycle_ms.push_back(Micros(cycle_start, Clock::now()) / 1e3);
      encode_us.push_back(encode_sum / kBatchesPerCycle);
      wal_us.push_back(wal_sum / kBatchesPerCycle);
    }
    // The directory's size at a fixed point of the work: a round's end.
    dir_bytes = DirBytes(dir);
  }
  const double peak_mb = PeakRssMb();
  const double n = static_cast<double>(cycles);
  constexpr double kReadsPerCycle = kBatchesPerCycle / kReadEvery;
  const double commit_us = commit_parts.Total() / kBatchesPerCycle;
  // The engine's share of a cycle: commits and reads, checkpoint, reopen
  // and Compact (the model's checks and the batch making are left out).
  const double round_ms = (commit_parts.Total() + read_parts.Total()) / 1e3 +
                          MinOverRounds(checkpoint_ms) +
                          MinOverRounds(recover_ms) + MinOverRounds(compact_ms);

  report->EndToEnd("rss_mb", peak_mb - rss_before);
  report->EndToEnd("op_us", commit_us);
  report->EndToEnd("round_ms", round_ms);
  report->Layer("engine.commit_us", commit_us);
  report->Layer("engine.range_us", range_parts.Total() / kReadsPerCycle);
  report->Layer("engine.knn_us", knn_parts.Total() / kReadsPerCycle);
  report->Layer("engine.checkpoint_ms", MinOverRounds(checkpoint_ms));
  report->Layer("engine.compact_ms", MinOverRounds(compact_ms));
  report->Layer("engine.recover_ms", MinOverRounds(recover_ms));
  report->Layer("commit.encode_us", MinOverRounds(encode_us));
  report->Layer("wal.append_us", MinOverRounds(wal_us));
  report->Layer("delta.overlay_us", Quantile(overlay_us, 0.5));
  report->Layer("engine.delta_records", delta_records / n);
  report->Layer("io.fsyncs_per_batch", fsyncs / batches_total);
  report->Layer("io.bytes_per_batch", batch_bytes / batches_total);
  report->Layer("io.write_bytes_per_update", cycle_bytes / ops_total);
  report->Layer("checkpoint.bytes_written", ckpt_bytes / n);
  report->Layer("compact.bytes_written", compact_bytes / n);
  report->Layer("recover.replayed_batches", replayed / n);
  report->Layer("recover.base_read_mb", base_read_mb / n);
  report->Layer("disk.dir_mb", static_cast<double>(dir_bytes) / 1e6);
  Log("mutate: %zu rounds of %zu cycles of %zu batches", rounds,
      kCyclesPerRound, kBatchesPerCycle);
  Log("mutate: single commit p50 %.2f p99 %.2f us (n=%zu)",
      Quantile(commit_single, 0.5), Quantile(commit_single, 0.99),
      commit_single.size());
  Log("mutate: medians over cycles: commit %.2f us, cycle wall %.2f ms, "
      "checkpoint %.2f ms, compact %.2f ms, recover %.2f ms, range %.2f us, "
      "knn %.2f us",
      commit_parts.MedianTotal() / kBatchesPerCycle, Quantile(cycle_ms, 0.5),
      Quantile(checkpoint_ms, 0.5), Quantile(compact_ms, 0.5),
      Quantile(recover_ms, 0.5), range_parts.MedianTotal() / kReadsPerCycle,
      knn_parts.MedianTotal() / kReadsPerCycle);
  Log("mutate: disk %.2f MB at a round's end, %.1f bytes written per op",
      static_cast<double>(dir_bytes) / 1e6, cycle_bytes / ops_total);
  return 0;
}

}  // namespace perfbench
