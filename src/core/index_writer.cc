#include "core/index_writer.h"

#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "io/delta_segment.h"
#include "obs/metrics.h"

namespace crowdex::core {

namespace {

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

IndexWriter::IndexWriter(ExpertFinder* finder,
                         std::shared_ptr<index::DeltaState> delta,
                         obs::MetricsRegistry* metrics)
    : finder_(finder),
      delta_(std::move(delta)),
      writer_mu_(std::make_unique<std::mutex>()),
      metrics_(metrics) {
  if (metrics_ != nullptr) {
    delta_batches_ = metrics_->counter("index.delta.batches");
    delta_upserts_ = metrics_->counter("index.delta.upserts");
    delta_deletions_ = metrics_->counter("index.delta.deletions");
    delta_apply_ms_ = metrics_->histogram("index.delta.apply_ms");
    delta_docs_ = metrics_->gauge("index.delta.docs");
    delta_tombstones_ = metrics_->gauge("index.delta.tombstones");
    compact_runs_ = metrics_->counter("index.compact.runs");
    compact_docs_ = metrics_->gauge("index.compact.docs");
    compact_build_ms_ = metrics_->histogram("index.compact.build_ms");
    compact_swap_ms_ = metrics_->histogram("index.compact.swap_ms");
  }
}

Result<IndexWriter> IndexWriter::Attach(ExpertFinder* finder,
                                        const RuntimeContext& ctx) {
  if (finder == nullptr) {
    return Status::InvalidArgument("IndexWriter::Attach: finder is null");
  }
  if (finder->owned_index_ == nullptr) {
    return Status::FailedPrecondition(
        "IndexWriter::Attach: the finder shares its corpus index; mutation "
        "requires an owned index (compaction rebuilds it in place)");
  }
  if (!finder->index_->search_index().frozen()) {
    return Status::FailedPrecondition(
        "IndexWriter::Attach: the corpus index has no frozen serving form "
        "to layer deltas over");
  }
  if (finder->delta_ != nullptr) {
    return Status::FailedPrecondition(
        "IndexWriter::Attach: a writer is already attached to this finder");
  }
  finder->delta_ =
      std::make_shared<index::DeltaState>(&finder->index_->search_index());
  // Re-resolve the serving state so the pass pipeline carries the
  // DeltaFanIn stage. The delta is empty (inactive), so serving behavior
  // is unchanged until the first committed batch.
  finder->InitServingState();
  return IndexWriter(finder, finder->delta_, ctx.metrics);
}

Status IndexWriter::Apply(const UpdateBatch& batch) {
  std::lock_guard<std::mutex> writer_lock(*writer_mu_);
  const auto start = std::chrono::steady_clock::now();

  // Validate the whole batch first, so a failure leaves the serving state
  // byte-identical to before the call. The writer mutex keeps the liveness
  // checks valid through the commit below (no other writer can interleave).
  {
    std::shared_lock<std::shared_mutex> read(delta_->mu);
    std::unordered_set<uint64_t> seen;
    for (uint64_t ext : batch.deletions) {
      if (!seen.insert(ext).second) {
        return Status::InvalidArgument(
            "IndexWriter::Apply: duplicate deletion of external id " +
            std::to_string(ext));
      }
      if (!delta_->IsLive(ext)) {
        return Status::NotFound(
            "IndexWriter::Apply: deletion of non-live external id " +
            std::to_string(ext));
      }
    }
    for (const UpsertDoc& up : batch.upserts) {
      for (const ExpertFinder::Association& a : up.associations) {
        if (a.candidate < 0 ||
            static_cast<uint32_t>(a.candidate) >= finder_->num_candidates_) {
          return Status::InvalidArgument(
              "IndexWriter::Apply: association of document " +
              std::to_string(up.doc.external_id) +
              " names out-of-range candidate " + std::to_string(a.candidate));
        }
      }
    }
  }

  size_t delta_docs = 0;
  size_t tombstones = 0;
  {
    // Commit. A concurrent Rank holds the shared lock for its whole call,
    // so it sees either none or all of this batch.
    std::unique_lock<std::shared_mutex> write(delta_->mu);
    for (uint64_t ext : batch.deletions) {
      const int64_t doc = delta_->LiveDocId(ext);
      RetireDocStateLocked(static_cast<index::DocId>(doc), ext);
      CheckOk(delta_->Remove(ext),
              "IndexWriter::Apply: validated deletion failed");
    }
    for (const UpsertDoc& up : batch.upserts) {
      const int64_t existing = delta_->LiveDocId(up.doc.external_id);
      if (existing >= 0) {
        RetireDocStateLocked(static_cast<index::DocId>(existing),
                             up.doc.external_id);
      }
      CheckOk(delta_->Upsert(up.doc),
              "IndexWriter::Apply: validated upsert failed");
      // The new document got the highest delta id; grow the per-doc sidecar
      // tables to cover it and project its association list the way
      // BuildAssociations projects a built corpus.
      const size_t total = delta_->total_docs();
      if (finder_->doc_associations_.size() < total) {
        finder_->doc_associations_.resize(total, nullptr);
        finder_->reachable_bits_.resize(total, 0);
      }
      const auto d = static_cast<index::DocId>(total - 1);
      if (!up.associations.empty()) {
        std::vector<ExpertFinder::Association>& assoc =
            finder_->associations_[up.doc.external_id];
        assoc = up.associations;
        finder_->doc_associations_[d] = &assoc;
        finder_->reachable_bits_[d] = 1;
        for (const ExpertFinder::Association& a : assoc) {
          finder_->reachable_counts_[static_cast<size_t>(a.candidate)] += 1;
        }
      }
    }
    delta_docs = delta_->delta_docs();
    tombstones = delta_->tombstone_count();
  }

  ++batches_;
  if (delta_batches_ != nullptr) delta_batches_->Increment(1);
  if (delta_upserts_ != nullptr) {
    delta_upserts_->Increment(batch.upserts.size());
  }
  if (delta_deletions_ != nullptr) {
    delta_deletions_->Increment(batch.deletions.size());
  }
  if (delta_apply_ms_ != nullptr) delta_apply_ms_->Record(ElapsedMs(start));
  if (delta_docs_ != nullptr) {
    delta_docs_->Set(static_cast<int64_t>(delta_docs));
  }
  if (delta_tombstones_ != nullptr) {
    delta_tombstones_->Set(static_cast<int64_t>(tombstones));
  }
  return Status::Ok();
}

void IndexWriter::RetireDocStateLocked(index::DocId doc, uint64_t ext) {
  const std::vector<ExpertFinder::Association>* assoc =
      finder_->doc_associations_[doc];
  if (assoc != nullptr) {
    for (const ExpertFinder::Association& a : *assoc) {
      finder_->reachable_counts_[static_cast<size_t>(a.candidate)] -= 1;
    }
    finder_->doc_associations_[doc] = nullptr;
    finder_->associations_.erase(ext);
  }
  finder_->reachable_bits_[doc] = 0;
}

Status IndexWriter::LogBatch(const UpdateBatch& batch,
                             const std::string& path) const {
  std::lock_guard<std::mutex> writer_lock(*writer_mu_);
  io::DeltaSegmentData segment;
  segment.base_epoch = finder_->snapshot_epoch();
  segment.sequence = batches_;
  segment.upserts.reserve(batch.upserts.size());
  for (const UpsertDoc& up : batch.upserts) {
    io::DeltaSegmentUpsert u;
    u.doc = up.doc;
    u.associations.reserve(up.associations.size());
    for (const ExpertFinder::Association& a : up.associations) {
      u.associations.emplace_back(static_cast<uint32_t>(a.candidate),
                                  a.distance);
    }
    segment.upserts.push_back(std::move(u));
  }
  segment.deletions = batch.deletions;
  return io::SaveDeltaSegment(segment, path);
}

Status IndexWriter::ApplySegmentFile(const std::string& path) {
  Result<io::DeltaSegmentData> loaded = io::LoadDeltaSegment(path);
  CROWDEX_RETURN_IF_ERROR(loaded.status());
  io::DeltaSegmentData segment = std::move(loaded).value();
  UpdateBatch batch;
  batch.deletions = std::move(segment.deletions);
  batch.upserts.reserve(segment.upserts.size());
  for (io::DeltaSegmentUpsert& u : segment.upserts) {
    UpsertDoc up;
    up.doc = std::move(u.doc);
    up.associations.reserve(u.associations.size());
    for (const auto& [candidate, distance] : u.associations) {
      up.associations.push_back({static_cast<int>(candidate), distance});
    }
    batch.upserts.push_back(std::move(up));
  }
  return Apply(batch);
}

Result<index::SearchIndex> IndexWriter::BuildCompactedIndex(
    const RuntimeContext& ctx, size_t* live_docs) const {
  // Reconstruction needs only the shared lock: readers keep ranking against
  // [base + delta] while the expensive rebuild below runs unlocked.
  std::vector<index::IndexableDocument> docs;
  {
    std::shared_lock<std::shared_mutex> read(delta_->mu);
    docs = delta_->ReconstructLiveDocs();
  }
  *live_docs = docs.size();
  std::vector<index::DocView> views;
  views.reserve(docs.size());
  for (const index::IndexableDocument& d : docs) {
    views.push_back({d.external_id, &d.terms, &d.entities});
  }
  index::SearchIndex fresh;
  CROWDEX_RETURN_IF_ERROR(fresh.BulkAdd(views, ctx.pool, ctx.metrics));
  fresh.Freeze(ctx.metrics);
  return fresh;
}

void IndexWriter::ReprojectAssociations(ExpertFinder* finder) {
  const index::SearchIndex& si = finder->index_->search_index();
  const size_t docs = si.size();
  finder->doc_associations_.assign(docs, nullptr);
  finder->reachable_bits_.assign(docs, 0);
  finder->reachable_counts_.assign(finder->num_candidates_, 0);
  for (size_t d = 0; d < docs; ++d) {
    const auto it = finder->associations_.find(
        si.external_id(static_cast<index::DocId>(d)));
    if (it == finder->associations_.end() || it->second.empty()) continue;
    finder->doc_associations_[d] = &it->second;
    finder->reachable_bits_[d] = 1;
    for (const ExpertFinder::Association& a : it->second) {
      finder->reachable_counts_[static_cast<size_t>(a.candidate)] += 1;
    }
  }
}

Status IndexWriter::Compact(const RuntimeContext& ctx) {
  std::lock_guard<std::mutex> writer_lock(*writer_mu_);
  if (!delta_->active()) return Status::Ok();

  const auto build_start = std::chrono::steady_clock::now();
  size_t live_docs = 0;
  Result<index::SearchIndex> fresh = BuildCompactedIndex(ctx, &live_docs);
  CROWDEX_RETURN_IF_ERROR(fresh.status());
  if (compact_build_ms_ != nullptr) {
    compact_build_ms_->Record(ElapsedMs(build_start));
  }

  const auto swap_start = std::chrono::steady_clock::now();
  {
    // The only reader-blocking phase: move-assign the compacted index in
    // place (the CorpusIndex — and with it every borrowed `ctx.index`
    // pointer — keeps its address), re-project the association tables onto
    // the new doc order, rebuild the serving state (fresh plan cache — the
    // dictionary slots compiled forms bind to changed), and reset the
    // delta layer onto the new base.
    std::unique_lock<std::shared_mutex> write(delta_->mu);
    finder_->owned_index_->mutable_search_index() = std::move(fresh).value();
    ReprojectAssociations(finder_);
    finder_->InitServingState();
    delta_->ResetForNewBase(&finder_->index_->search_index());
  }
  if (compact_swap_ms_ != nullptr) {
    compact_swap_ms_->Record(ElapsedMs(swap_start));
  }
  if (compact_runs_ != nullptr) compact_runs_->Increment(1);
  if (compact_docs_ != nullptr) {
    compact_docs_->Set(static_cast<int64_t>(live_docs));
  }
  if (delta_docs_ != nullptr) delta_docs_->Set(0);
  if (delta_tombstones_ != nullptr) delta_tombstones_->Set(0);
  return Status::Ok();
}

Result<std::shared_ptr<ServingSnapshot>> IndexWriter::CompactAndPublish(
    SnapshotManager* manager, const RuntimeContext& ctx) {
  if (manager == nullptr) {
    return Status::InvalidArgument(
        "IndexWriter::CompactAndPublish: manager is null");
  }
  std::lock_guard<std::mutex> writer_lock(*writer_mu_);

  const auto build_start = std::chrono::steady_clock::now();
  size_t live_docs = 0;
  Result<index::SearchIndex> fresh = BuildCompactedIndex(ctx, &live_docs);
  CROWDEX_RETURN_IF_ERROR(fresh.status());
  if (compact_build_ms_ != nullptr) {
    compact_build_ms_->Record(ElapsedMs(build_start));
  }

  const auto swap_start = std::chrono::steady_clock::now();
  auto corpus = std::make_unique<CorpusIndex>(std::move(fresh).value(),
                                              finder_->config_.platforms);
  const uint64_t epoch = manager->active_epoch() + 1;
  ExpertFinder next(finder_->config_, std::move(corpus), finder_->extractor_,
                    finder_->num_candidates_, epoch, finder_->metrics_);

  // Copy the association state of the live documents onto the new finder,
  // in the new index's doc order (the FromSnapshotFile rehydration
  // pattern). The shared lock pins the source tables against a concurrent
  // Apply through another handle; the writer mutex already excludes other
  // writer operations on this one.
  {
    std::shared_lock<std::shared_mutex> read(delta_->mu);
    const index::SearchIndex& si = next.index_->search_index();
    const size_t docs = si.size();
    next.doc_associations_.assign(docs, nullptr);
    next.reachable_bits_.assign(docs, 0);
    next.reachable_counts_.assign(next.num_candidates_, 0);
    for (size_t d = 0; d < docs; ++d) {
      const uint64_t ext = si.external_id(static_cast<index::DocId>(d));
      const auto it = finder_->associations_.find(ext);
      if (it == finder_->associations_.end() || it->second.empty()) continue;
      std::vector<ExpertFinder::Association>& assoc = next.associations_[ext];
      assoc = it->second;
      next.doc_associations_[d] = &assoc;
      next.reachable_bits_[d] = 1;
      for (const ExpertFinder::Association& a : assoc) {
        next.reachable_counts_[static_cast<size_t>(a.candidate)] += 1;
      }
    }
  }

  auto snapshot = std::make_shared<ServingSnapshot>(std::move(next), epoch);
  manager->Swap(snapshot);
  if (compact_swap_ms_ != nullptr) {
    compact_swap_ms_->Record(ElapsedMs(swap_start));
  }
  if (compact_runs_ != nullptr) compact_runs_->Increment(1);
  if (compact_docs_ != nullptr) {
    compact_docs_->Set(static_cast<int64_t>(live_docs));
  }
  return snapshot;
}

void IndexWriter::InstallGlobalStats(
    std::shared_ptr<const index::GlobalLiveStats> stats) {
  std::lock_guard<std::mutex> writer_lock(*writer_mu_);
  std::unique_lock<std::shared_mutex> delta_lock(delta_->mu);
  delta_->InstallStats(std::move(stats));
}

uint64_t IndexWriter::batches_applied() const {
  std::lock_guard<std::mutex> writer_lock(*writer_mu_);
  return batches_;
}

}  // namespace crowdex::core
