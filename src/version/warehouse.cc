#include "version/warehouse.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <unordered_set>

#include "delta/delta_xml.h"
#include "delta/node_index.h"
#include "util/parallel_for.h"
#include "util/retry.h"
#include "util/string_util.h"
#include "version/storage.h"
#include "xml/parser.h"

namespace xydiff {

namespace {

/// The document list that older releases kept in a store. It is never
/// read or written; the name stays reserved (see SanitizeUrl).
constexpr char kManifestName[] = "manifest.tsv";

/// File systems cap one path component at 255 bytes (NAME_MAX). A URL's
/// store directory name must fit with room for a ".tmp" suffix.
constexpr size_t kMaxStoreNameBytes = 255 - (sizeof(".tmp") - 1);

/// Lock-free running maximum: raises `target` to at least `value`, for
/// high-water marks sampled from many workers at once.
void UpdateAtomicMax(std::atomic<size_t>& target, size_t value) {
  size_t current = target.load(std::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

/// One result slot per batch item, preset to `never_ran`, except that a
/// URL repeated within the batch is rejected up front: distinct URLs
/// keep the slots independent, so workers never race two ingests of one
/// document.
template <typename Batch, typename UrlOf>
std::vector<Result<Warehouse::IngestReport>> PresetBatchResults(
    const Batch& batch, UrlOf url_of, const char* never_ran) {
  std::vector<Result<Warehouse::IngestReport>> results;
  results.reserve(batch.size());
  std::unordered_set<std::string_view> seen;
  seen.reserve(batch.size());
  for (const auto& item : batch) {
    const std::string& url = url_of(item);
    if (seen.insert(url).second) {
      results.emplace_back(Status::Corruption(never_ran));
    } else {
      results.emplace_back(
          Status::InvalidArgument("duplicate URL in batch: " + url));
    }
  }
  return results;
}

/// True for a slot PresetBatchResults rejected as a repeated URL.
bool IsDuplicateSlot(const Result<Warehouse::IngestReport>& slot) {
  return !slot.ok() && slot.status().code() == StatusCode::kInvalidArgument;
}

}  // namespace

std::string PipelineStats::ToString() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-10s %10s %8s %8s\n", "stage", "items",
                "failed", "retries");
  out += line;
  for (const StageStats& s : stages) {
    std::snprintf(line, sizeof(line), "%-10s %10zu %8zu %8zu\n",
                  s.name.c_str(), s.items, s.failed, s.retries);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "peak in flight %zu, degraded slots %zu, wall %.3f s\n",
                peak_in_flight, degraded_slots, wall_seconds);
  out += line;
  if (shed_slots + deadline_slots + cancelled_slots > 0) {
    std::snprintf(line, sizeof(line), "shed %zu, deadline %zu, cancelled %zu\n",
                  shed_slots, deadline_slots, cancelled_slots);
    out += line;
  }
  return out;
}

Status Warehouse::Subscribe(std::string id, std::string_view path_expression,
                            std::optional<ChangeKind> kind,
                            std::string detail_contains) {
  WriterMutexLock lock(alerter_mutex_);
  return alerter_.Subscribe(std::move(id), path_expression, kind,
                            std::move(detail_contains));
}

Warehouse::Document* Warehouse::FindDocument(const std::string& url) const {
  MutexLock lock(documents_mutex_);
  auto it = documents_.find(url);
  return it == documents_.end() ? nullptr : it->second.get();
}

Warehouse::Document* Warehouse::FindOrCreateDocument(const std::string& url,
                                                     bool* created) {
  MutexLock lock(documents_mutex_);
  auto it = documents_.find(url);
  *created = it == documents_.end();
  if (*created) {
    it = documents_.emplace(url, std::make_unique<Document>()).first;
  }
  return it->second.get();
}

std::vector<std::pair<std::string, Warehouse::Document*>>
Warehouse::SnapshotSlots() const {
  std::vector<std::pair<std::string, Document*>> slots;
  MutexLock lock(documents_mutex_);
  for (const auto& [url, doc] : documents_) {
    slots.emplace_back(url, doc.get());
  }
  return slots;
}

Result<Warehouse::IngestReport> Warehouse::Ingest(const std::string& url,
                                                  XmlDocument document) {
  return IngestInternal(url, std::move(document));
}

Result<Warehouse::IngestReport> Warehouse::IngestInternal(
    const std::string& url, XmlDocument document, const Context* context) {
  if (document.root() == nullptr) {
    return Status::InvalidArgument("cannot ingest an empty document: " + url);
  }
  if (url.find_first_of("\r\n") != std::string::npos) {
    return Status::InvalidArgument("URL contains a line break: " + url);
  }
  if (SanitizeUrl(url).size() > kMaxStoreNameBytes) {
    return Status::InvalidArgument(
        "URL too long for a store directory name: " + url);
  }
  IngestReport report;
  report.url = url;

  // Find or create the per-document slot (map shape under the map lock;
  // per-document work under the document lock).
  bool created = false;
  Document* doc = FindOrCreateDocument(url, &created);

  MutexLock doc_lock(doc->mutex);
  if (created || doc->repo == nullptr) {
    doc->repo = std::make_unique<VersionRepository>(std::move(document));
    doc->labels.reset();
    report.version = 1;
    report.first_version = true;
    return report;
  }

  // Commit hands back the superseded version instead of us deep-cloning
  // it up front — the diff reads the old tree but never mutates it —
  // and the nodes the delta names, resolved while the delta was built,
  // which the index, the alerter and the statistics all consume.
  // The batch context rides into the diff through its options, so the
  // BULD matching loop observes the deadline cooperatively; on a
  // context error Commit leaves the repository untouched (the delta is
  // never appended).
  DiffOptions diff_options = options_;
  diff_options.context = context;
  XmlDocument old_version;
  DeltaNodeIndex nodes;
  Result<int> version = doc->repo->Commit(std::move(document), diff_options,
                                          &old_version, &nodes);
  if (!version.ok()) return version.status();
  report.version = *version;

  Result<const Delta*> delta = doc->repo->DeltaFor(*version - 1);
  if (!delta.ok()) return delta.status();
  report.operations = (*delta)->operation_count();
  report.delta_bytes = SerializedDeltaSize(**delta);
  if (doc->labels.has_value()) {
    doc->labels->Apply(**delta);
  } else {
    doc->labels = LabelCounts::Of(doc->repo->current());
  }

  if (doc->index.has_value()) {
    XYDIFF_RETURN_IF_ERROR(doc->index->Apply(**delta, nodes));
  }

  // Subscription evaluation: read-only on the alerter, so concurrent
  // ingests share the lock.
  {
    ReaderMutexLock lock(alerter_mutex_);
    report.alerts = alerter_.Evaluate(**delta, nodes);
  }
  // Statistics: heavy work in a local collector, cheap merge under lock.
  ChangeStatistics local;
  local.Accumulate(**delta, *doc->labels, nodes);
  {
    MutexLock lock(stats_mutex_);
    stats_.Merge(local);
  }
  return report;
}

std::vector<Result<Warehouse::IngestReport>> Warehouse::IngestBatch(
    std::vector<std::pair<std::string, XmlDocument>> batch, int threads) {
  std::vector<Result<IngestReport>> results = PresetBatchResults(
      batch, [](const auto& item) -> const std::string& { return item.first; },
      "ingest never ran");
  ParallelFor(threads, batch.size(), [&](size_t i) {
    if (IsDuplicateSlot(results[i])) return;
    results[i] = Ingest(batch[i].first, std::move(batch[i].second));
  });
  return results;
}

std::vector<Result<Warehouse::IngestReport>> Warehouse::DiffBatch(
    std::vector<DiffJob> jobs, const PipelineOptions& pipeline,
    PipelineStats* stats) {
  using Clock = std::chrono::steady_clock;
  const auto batch_start = Clock::now();

  std::vector<Result<IngestReport>> results = PresetBatchResults(
      jobs, [](const DiffJob& job) -> const std::string& { return job.url; },
      "pipeline never ran");

  std::atomic<size_t> in_flight{0};
  std::atomic<size_t> peak_in_flight{0};
  std::atomic<size_t> parse_items{0}, parse_failed{0};
  std::atomic<size_t> diff_items{0}, diff_failed{0};
  std::atomic<size_t> store_items{0}, store_failed{0}, store_retries{0};
  std::atomic<size_t> degraded_slots{0};
  std::atomic<bool> batch_failed{false};
  // Overload accounting: slots abandoned to the context, by cause.
  std::atomic<size_t> deadline_count{0}, cancelled_count{0};
  // Flush-group ordinal, salting the retry jitter stream per group.
  std::atomic<uint64_t> flush_ordinal{0};

  const auto count_context_error = [&](const Status& status) {
    if (status.code() == StatusCode::kCancelled) {
      cancelled_count.fetch_add(1, std::memory_order_relaxed);
    } else {
      deadline_count.fetch_add(1, std::memory_order_relaxed);
    }
  };

  // Group commit: finished slots park here until a full group (or the
  // batch tail) flushes them through ONE SaveRepositoryBatch — one
  // journal fsync + parent sync for the whole group instead of a
  // manifest rename + directory sync per slot.
  Mutex group_mutex;
  std::vector<size_t> parked_slots;

  // Persists one flushed group, then finishes its slots.
  const auto flush_group = [&](const std::vector<size_t>& group) {
    if (group.empty()) return;
    std::vector<std::string> urls;
    for (size_t index : group) urls.push_back(results[index]->url);
    // Deadline-aware, jittered retry around the group commit; the jitter
    // seed is salted per group so concurrent groups retrying the same
    // transient fault desynchronize deterministically.
    RetryPolicy policy;
    policy.max_retries = pipeline.max_io_retries;
    policy.backoff_ms = pipeline.retry_backoff_ms;
    policy.jitter_seed = 0x5EEDF00DULL ^ flush_ordinal.fetch_add(1);
    size_t group_retries = 0;
    const Status saved =
        SaveGroup(std::move(urls), pipeline.save_directory, pipeline.env,
                  pipeline.context, policy, &group_retries);
    // The commit is shared, so its cost and its outcome are attributed
    // to every slot in the group: all-or-nothing on disk.
    store_retries.fetch_add(group_retries, std::memory_order_relaxed);
    for (size_t index : group) {
      IngestReport& report = *results[index];
      report.store_retries += group_retries;
      if (!saved.ok()) {
        report.store_degraded = true;
        store_failed.fetch_add(1, std::memory_order_relaxed);
      }
      if (group_retries > 0 || report.store_degraded) {
        degraded_slots.fetch_add(1, std::memory_order_relaxed);
      }
    }
    in_flight.fetch_sub(group.size(), std::memory_order_relaxed);
  };

  // Byte budgets (DESIGN.md §3.17), decided in index order before any
  // worker starts, so the shed set depends on the jobs alone: the
  // per-document cap first, then the greedy batch budget, where a shed
  // slot leaves its bytes to a smaller later one.
  size_t shed_count = 0;
  size_t admitted_bytes = 0;
  std::vector<size_t> claim_order;
  claim_order.reserve(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (IsDuplicateSlot(results[i])) continue;
    const size_t slot_bytes = jobs[i].xml.size();
    if (pipeline.max_document_bytes != 0 &&
        slot_bytes > pipeline.max_document_bytes) {
      results[i] = Status::ResourceExhausted(
          "document exceeds max_document_bytes, shed: " + jobs[i].url);
      ++shed_count;
    } else if (pipeline.max_batch_bytes != 0 &&
               slot_bytes > pipeline.max_batch_bytes - admitted_bytes) {
      results[i] = Status::ResourceExhausted(
          "batch byte budget exhausted, slot shed: " + jobs[i].url);
      ++shed_count;
    } else {
      admitted_bytes += slot_bytes;
      claim_order.push_back(i);
    }
  }
  // Largest documents first, ties in index order: a large document
  // claimed last would leave the other workers idle behind it.
  std::stable_sort(claim_order.begin(), claim_order.end(),
                   [&](size_t a, size_t b) {
                     return jobs[a].xml.size() > jobs[b].xml.size();
                   });

  // The claim-time gates, checked before the slot consumes anything. A
  // non-OK status is the slot's rejection.
  const auto admission = [&]() -> Status {
    if (pipeline.fail_fast && batch_failed.load(std::memory_order_acquire)) {
      // Not a failure of this slot's own making: Aborted, so callers can
      // tell "skipped by fail-fast" from real errors.
      return Status::Aborted("slot skipped: fail-fast after an earlier "
                             "slot failed");
    }
    if (pipeline.context != nullptr) {
      Status live = pipeline.context->Check();
      if (!live.ok()) {
        count_context_error(live);
        return live;
      }
    }
    return Status::OK();
  };

  // One admitted slot, start to finish: parse → diff → park for group
  // commit. True when the slot was parked — it stays in flight until its
  // group flushes. A parse or diff error fails only this slot, and arms
  // fail-fast.
  const auto run_admitted = [&](size_t i) {
    parse_items.fetch_add(1, std::memory_order_relaxed);
    // A recycled arena keeps its largest block, so steady-state slots
    // parse without touching malloc for node storage at all.
    ParseOptions parse_options;
    parse_options.arena = arena_pool_.Acquire(
        std::min(std::max(jobs[i].xml.size(), Arena::kDefaultFirstBlock),
                 Arena::kMaxBlock));
    Result<XmlDocument> doc = ParseXml(jobs[i].xml, parse_options);
    if (!doc.ok()) {
      parse_failed.fetch_add(1, std::memory_order_relaxed);
      batch_failed.store(true, std::memory_order_release);
      results[i] = Status::ParseError("cannot parse " + jobs[i].url + ": " +
                                      doc.status().message());
      return false;
    }

    diff_items.fetch_add(1, std::memory_order_relaxed);
    // A slot whose parse outlived the deadline fails here instead of
    // running a doomed diff.
    if (pipeline.context != nullptr) {
      const Status live = pipeline.context->Check();
      if (!live.ok()) {
        diff_failed.fetch_add(1, std::memory_order_relaxed);
        count_context_error(live);
        results[i] = live;
        return false;
      }
    }
    results[i] = IngestInternal(jobs[i].url, std::move(*doc),
                                pipeline.context);
    if (!results[i].ok()) {
      diff_failed.fetch_add(1, std::memory_order_relaxed);
      const Status& status = results[i].status();
      if (IsContextError(status.code())) {
        count_context_error(status);
      } else {
        // Context deaths are not the batch's fault; everything else is
        // and arms fail-fast.
        batch_failed.store(true, std::memory_order_release);
      }
      return false;
    }
    store_items.fetch_add(1, std::memory_order_relaxed);
    if (pipeline.save_directory.empty()) return false;
    std::vector<size_t> full;
    {
      MutexLock lock(group_mutex);
      parked_slots.push_back(i);
      if (parked_slots.size() >= kGroupCommitSlots) full.swap(parked_slots);
    }
    flush_group(full);
    return true;
  };

  ParallelFor(pipeline.threads, claim_order.size(), [&](size_t k) {
    const size_t i = claim_order[k];
    if (Status admitted = admission(); !admitted.ok()) {
      results[i] = std::move(admitted);
      return;
    }
    UpdateAtomicMax(peak_in_flight,
                    in_flight.fetch_add(1, std::memory_order_relaxed) + 1);
    if (!run_admitted(i)) in_flight.fetch_sub(1, std::memory_order_relaxed);
  });
  // Every worker has returned: flush the partial tail group, once.
  flush_group(parked_slots);

  if (stats != nullptr) {
    *stats = PipelineStats{};
    stats->stages = {
        StageStats{"parse", parse_items.load(), parse_failed.load()},
        StageStats{"diff", diff_items.load(), diff_failed.load()},
        StageStats{"store", store_items.load(), store_failed.load(),
                   store_retries.load()}};
    stats->peak_in_flight = peak_in_flight.load();
    stats->degraded_slots = degraded_slots.load();
    stats->shed_slots = shed_count;
    stats->deadline_slots = deadline_count.load();
    stats->cancelled_slots = cancelled_count.load();
    stats->wall_seconds =
        std::chrono::duration<double>(Clock::now() - batch_start).count();
  }
  return results;
}

size_t Warehouse::document_count() const {
  MutexLock lock(documents_mutex_);
  return documents_.size();
}

std::vector<std::string> Warehouse::urls() const {
  std::vector<std::string> out;
  for (const auto& [url, doc] : SnapshotSlots()) out.push_back(url);
  return out;
}

int Warehouse::version_count(const std::string& url) const {
  Document* doc = FindDocument(url);
  if (doc == nullptr) return 0;
  MutexLock lock(doc->mutex);
  return doc->repo == nullptr ? 0 : doc->repo->version_count();
}

Result<XmlDocument> Warehouse::Checkout(const std::string& url,
                                        int version) const {
  Document* doc = FindDocument(url);
  if (doc == nullptr) {
    return Status::NotFound("unknown document: " + url);
  }
  MutexLock lock(doc->mutex);
  if (doc->repo == nullptr) {
    return Status::NotFound("document has no versions yet: " + url);
  }
  return doc->repo->Checkout(version);
}

std::vector<std::pair<std::string, Xid>> Warehouse::Search(
    std::string_view word) const {
  // Snapshot the slot list first: document locks are always taken
  // WITHOUT the map lock held (Ingest acquires doc->mutex before it
  // re-enters shared state for the alerter, so nesting the other way
  // around would deadlock).
  std::vector<std::pair<std::string, Xid>> hits;
  for (const auto& [url, doc] : SnapshotSlots()) {
    MutexLock doc_lock(doc->mutex);
    if (doc->repo == nullptr) continue;
    // The first Search builds the index; ingests keep it current after.
    if (!doc->index.has_value()) {
      doc->index = FullTextIndex::Build(doc->repo->current());
    }
    for (Xid xid : doc->index->Lookup(word)) {
      hits.emplace_back(url, xid);
    }
  }
  return hits;
}

ChangeStatistics::LabelStats Warehouse::StatsForLabel(
    const std::string& label) const {
  MutexLock lock(stats_mutex_);
  return stats_.ForLabel(label);
}

std::string Warehouse::StatsReport(size_t limit) const {
  MutexLock lock(stats_mutex_);
  return stats_.Report(limit);
}

std::string Warehouse::SanitizeUrl(const std::string& url) {
  // Injective: a kept byte is never '_', so every '_' starts an escape,
  // and escaping one more byte of a reserved name keeps that true.
  std::string_view base = url;
  if (EndsWith(base, ".tmp")) base.remove_suffix(4);
  const bool reserved = base == kManifestName || base == kBatchJournalName;
  std::string out;
  for (size_t i = 0; i < url.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(url[i]);
    if ((std::isalnum(c) || c == '-' || (c == '.' && i > 0)) &&
        !(reserved && i == 0)) {
      out += static_cast<char>(c);
    } else {
      char escape[4];
      std::snprintf(escape, sizeof(escape), "_%02x", c);
      out += escape;
    }
  }
  return out.empty() ? "_" : out;
}

Status Warehouse::SaveGroup(std::vector<std::string> urls,
                            const std::string& directory, Env* env,
                            const Context* context, const RetryPolicy& policy,
                            size_t* retries) const {
  std::sort(urls.begin(), urls.end());
  // Resolve every document BEFORE taking the first lock: FindDocument
  // acquires the map mutex, and calling it from inside the locking loop
  // would take it under already-held document locks, which no other path
  // does.
  std::vector<Document*> docs;
  for (const std::string& url : urls) docs.push_back(FindDocument(url));
  for (Document* doc : docs) {
    if (doc != nullptr) doc->mutex.lock();
  }
  std::vector<RepositorySaveSlot> slots;
  for (size_t i = 0; i < urls.size(); ++i) {
    if (docs[i] != nullptr && docs[i]->repo != nullptr) {
      slots.push_back({docs[i]->repo.get(), SanitizeUrl(urls[i])});
    }
  }
  // SaveRepositoryBatch checks the context between slots and before —
  // never after — the journal write, so a deadline mid-save leaves disk
  // bit-exactly pre-commit.
  const Status saved = RetryTransient(
      policy, context,
      [&] { return SaveRepositoryBatch(slots, directory, env, context); },
      retries);
  for (size_t i = docs.size(); i > 0; --i) {
    if (docs[i - 1] != nullptr) docs[i - 1]->mutex.unlock();
  }
  return saved;
}

std::optional<std::string> Warehouse::UrlOfStoreName(
    const std::string& name) {
  if (name == "_") return std::string();  // The empty URL's name.
  std::string url;
  for (size_t i = 0; i < name.size(); ++i) {
    unsigned int byte = static_cast<unsigned char>(name[i]);
    if (byte == '_') {
      // Justified discard: a malformed escape fails the round trip below.
      (void)std::from_chars(name.data() + i + 1,
                            name.data() + std::min(i + 3, name.size()), byte,
                            16);
      i += 2;
    }
    url += static_cast<char>(byte);
  }
  // SanitizeUrl is injective, so only its own output names a document:
  // this leaves out the journal, its ".tmp" and the other reserved names.
  if (SanitizeUrl(url) != name) return std::nullopt;
  return url;
}

Status Warehouse::Save(const std::string& directory, Env* env) const {
  if (env == nullptr) env = Env::Default();
  XYDIFF_RETURN_IF_ERROR(env->CreateDirs(directory));
  return SaveGroup(urls(), directory, env, /*context=*/nullptr,
                   RetryPolicy{/*max_retries=*/0}, /*retries=*/nullptr);
}

Result<VersionRepository> Warehouse::LoadDocument(const std::string& directory,
                                                  const std::string& url,
                                                  Env* env,
                                                  RecoveryReport* report) {
  if (env == nullptr) env = Env::Default();
  XYDIFF_RETURN_IF_ERROR(RecoverRepositoryBatch(directory, env));
  return LoadRepository(directory + "/" + SanitizeUrl(url), env, report);
}

Result<std::unique_ptr<Warehouse>> Warehouse::Load(
    const std::string& directory, DiffOptions options,
    std::vector<std::string>* skipped, Env* env) {
  if (env == nullptr) env = Env::Default();
  XYDIFF_RETURN_IF_ERROR(RecoverRepositoryBatch(directory, env));
  Result<std::vector<std::string>> names = env->ListDir(directory);
  if (!names.ok()) return names.status();
  auto warehouse = std::make_unique<Warehouse>(options);
  for (const std::string& name : *names) {
    const std::optional<std::string> url = UrlOfStoreName(name);
    if (!url.has_value()) continue;
    Result<VersionRepository> repo =
        LoadRepository(directory + "/" + name, env);
    // NotFound: a commit created the directory, then crashed before it
    // landed, so the document was never stored and is simply absent.
    if (!repo.ok() && repo.status().code() == StatusCode::kNotFound) continue;
    if (!repo.ok()) {
      // A malformed stored document loses only itself, never the batch:
      // record the error and keep loading the healthy documents.
      if (skipped != nullptr) {
        skipped->push_back(*url + ": " + repo.status().ToString());
      }
      continue;
    }
    bool created = false;
    Document* slot = warehouse->FindOrCreateDocument(*url, &created);
    // Uncontended (the warehouse is not yet published), but the slot's
    // contents are guarded members, so hold the lock anyway.
    MutexLock lock(slot->mutex);
    slot->repo = std::make_unique<VersionRepository>(std::move(*repo));
  }
  return warehouse;
}

}  // namespace xydiff
