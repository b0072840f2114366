#ifndef XYDIFF_VERSION_WAREHOUSE_H_
#define XYDIFF_VERSION_WAREHOUSE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "delta/options.h"
#include "monitor/change_stats.h"
#include "util/arena.h"
#include "monitor/index.h"
#include "monitor/subscription.h"
#include "util/annotations.h"
#include "util/context.h"
#include "util/env.h"
#include "util/mutex.h"
#include "version/repository.h"

namespace xydiff {

struct RecoveryReport;
struct RetryPolicy;

/// Per-stage counters of one DiffBatch run. A slot runs parse → diff →
/// store start to finish on the worker that claimed it, so no stage ever
/// waits on a queue: `peak_queue_depth` and `stall_seconds` are always 0.
/// They stay in the struct for readers outside the library that report
/// them; ToString omits them.
struct StageStats {
  std::string name;
  size_t items = 0;             ///< Items processed by the stage.
  size_t failed = 0;            ///< Items that left the pipeline here.
  size_t retries = 0;           ///< Transient-I/O retries absorbed here.
  size_t peak_queue_depth = 0;  ///< Always 0: slots are never queued.
  double stall_seconds = 0;     ///< Always 0: slots never wait on a stage.
};

/// Counters for a whole DiffBatch run; see DESIGN.md "Parallel warehouse
/// pipeline" for how to read them.
struct PipelineStats {
  std::vector<StageStats> stages;
  size_t peak_in_flight = 0;  ///< Max admitted slots not yet finished,
                              ///< including slots parked for group commit.
  size_t degraded_slots = 0;  ///< Slots that succeeded only after retries,
                              ///< or completed without their side effects
                              ///< (e.g. persistence gave up) — per-slot
                              ///< degradation, distinct from failures.
  // Overload accounting (DESIGN.md §3.17). These three partition the
  // slots that the pipeline declined or abandoned, by cause:
  size_t shed_slots = 0;        ///< Admission control: a byte/slot budget
                                ///< would be exceeded (kResourceExhausted).
  size_t deadline_slots = 0;    ///< Context deadline fired (kDeadlineExceeded).
  size_t cancelled_slots = 0;   ///< Context cancelled (kCancelled).
  double wall_seconds = 0;

  /// Human-readable multi-line table.
  std::string ToString() const;
};

/// The dynamic XML warehouse of Figure 1, assembled from the library's
/// parts: "When a new version of a document V(n) is received (or crawled
/// from the web), it is installed in the repository. It is then sent to
/// the diff module that also acquires the previous version V(n-1) ...
/// The delta is appended to the existing sequence of deltas ... The
/// alerter is in charge of detecting, in the document V(n) or in the
/// delta, patterns that may interest some subscriptions."
///
/// One Warehouse tracks many documents, keyed by URL. Each ingest runs
/// the full pipeline: diff against the stored version, append the delta
/// to the document's chain, evaluate subscriptions, feed the change
/// statistics, and maintain the full-text index incrementally.
///
/// Ingests of *different* documents are independent: they share only
/// the document map's lock, held for a lookup, never for an ingest.
/// Both batch entry points spread their items over
/// ParallelFor workers, one item start to finish per claim: `IngestBatch`
/// takes pre-parsed documents; `DiffBatch` is the full crawler hand-off
/// — raw XML text parsed, diffed and group-committed per slot (see
/// DESIGN.md "Parallel warehouse pipeline"). All public methods are
/// thread-safe.
class Warehouse {
 public:
  /// Outcome of one ingest.
  struct IngestReport {
    std::string url;
    int version = 0;          ///< Version number after the ingest.
    bool first_version = false;
    size_t operations = 0;    ///< Delta operations (0 for first versions).
    size_t delta_bytes = 0;   ///< Size of the delta's XML form
                              ///< (SerializedDeltaSize: counted, never
                              ///< serialized); 0 for first versions.
    size_t store_retries = 0; ///< Transient-I/O retries spent persisting.
    bool store_degraded = false;  ///< Persistence gave up after retries:
                                  ///< the in-memory ingest succeeded but
                                  ///< this slot is not on disk.
    std::vector<Alert> alerts;
  };

  /// One unit of crawler hand-off: a URL and the raw XML bytes fetched
  /// for it. Parsing happens inside the pipeline, on a worker.
  struct DiffJob {
    std::string url;
    std::string xml;
  };

  /// Tuning for DiffBatch.
  struct PipelineOptions {
    int threads = 4;
    /// When non-empty, every ingested slot's repository (a first sight
    /// as version 1) is group-committed under `save_directory/<sanitized
    /// url>/` (crash-safe, see version/storage.h): up to
    /// kGroupCommitSlots finished slots share ONE SaveRepositoryBatch (one
    /// journal fsync + directory sync), the partial tail group is flushed
    /// after every slot has finished, and Load reopens it, no Save needed.
    std::string save_directory;
    /// Env for the group commit; nullptr means Env::Default().
    Env* env = nullptr;
    /// Transient I/O errors (Status kIOError: EIO, ENOSPC...) during
    /// persistence are retried up to this many times with doubling
    /// backoff before the slot is marked degraded. Corruption and other
    /// non-transient errors are never retried.
    int max_io_retries = 3;
    /// First retry backoff; doubles per attempt. Kept tiny so tests can
    /// exercise the path without slowing a healthy batch.
    int retry_backoff_ms = 1;
    /// Stop admitting new slots after the first failed slot; the
    /// not-yet-started remainder comes back as Status kAborted. Slots
    /// already in flight still finish (their documents stay consistent).
    bool fail_fast = false;
    /// Deadline/cancellation for the whole batch (not owned; may be
    /// null). Checked at admission, after the parse, inside the diff's
    /// long loops, and in the group commit up to (never past) its
    /// journal write. Slots that the context kills come
    /// back as kDeadlineExceeded/kCancelled; slots whose in-memory
    /// ingest finished but whose group save was cut short are ok() and
    /// reported degraded, not counted as deadline/cancelled (in memory
    /// yes, on disk no — the journal is the single commit point, so
    /// disk is bit-exactly pre-batch for them).
    const Context* context = nullptr;
    /// Admission budget: cumulative raw-XML bytes admitted per DiffBatch
    /// call, granted greedily in input order before any slot runs. A
    /// slot that does not fit is SHED with kResourceExhausted instead of
    /// queued (overload sheds at the front door, it does not build
    /// unbounded backlog); a smaller later slot may still fit. 0 =
    /// unlimited.
    size_t max_batch_bytes = 0;
    /// Per-document byte cap: a single oversized (possibly hostile)
    /// document is shed with kResourceExhausted before it can balloon a
    /// parse arena. 0 = unlimited.
    size_t max_document_bytes = 0;
  };

  explicit Warehouse(DiffOptions options = {}) : options_(options) {}

  Warehouse(const Warehouse&) = delete;
  Warehouse& operator=(const Warehouse&) = delete;

  /// Registers a subscription evaluated on every subsequent ingest.
  Status Subscribe(std::string id, std::string_view path_expression,
                   std::optional<ChangeKind> kind = std::nullopt,
                   std::string detail_contains = {});

  /// Ingests a crawled version of `url`: first sight stores it as
  /// version 1; later sights run the diff pipeline. Every ingest path
  /// refuses with InvalidArgument, before creating any state, a URL with
  /// a line break (no valid URL holds one) or one whose store directory
  /// name, with a ".tmp" suffix, would pass 255 bytes.
  Result<IngestReport> Ingest(const std::string& url, XmlDocument document);

  /// Ingests many pre-parsed documents concurrently on up to `threads`
  /// ParallelFor workers, each through Ingest() — monitors maintained
  /// inline, no byte budgets, nothing persisted. URLs must be
  /// distinct within one batch. Reports come back in input order; a
  /// failed document carries its error in the result slot.
  std::vector<Result<IngestReport>> IngestBatch(
      std::vector<std::pair<std::string, XmlDocument>> batch, int threads = 4);

  /// Diffs a batch of raw crawled documents. The byte budgets are
  /// decided in input order before any worker starts. Up to
  /// `pipeline.threads` ParallelFor workers then claim the admitted slots
  /// largest document first (ties in input order), so no worker idles
  /// behind a large document claimed last. Each slot runs to completion
  /// on its worker: fail-fast and context gates → parse into a pooled
  /// arena → diff and chain append, feeding the alerter, the statistics
  /// and (once a Search has built it) the full-text index exactly as
  /// Ingest() does → park for group commit. At most `threads` parsed
  /// documents are in memory at once.
  ///
  /// One malformed document fails only its own slot — the batch always
  /// completes. Reports come back in input order. When `stats` is
  /// non-null it receives the per-stage counters of this run.
  std::vector<Result<IngestReport>> DiffBatch(std::vector<DiffJob> jobs,
                                              const PipelineOptions& pipeline,
                                              PipelineStats* stats = nullptr);
  /// Default-tuned overload (C++ forbids a nested-class default argument
  /// whose initializers are still pending inside the enclosing class).
  std::vector<Result<IngestReport>> DiffBatch(std::vector<DiffJob> jobs) {
    return DiffBatch(std::move(jobs), PipelineOptions());
  }

  /// Number of tracked documents.
  size_t document_count() const;
  /// URLs in lexicographic order.
  std::vector<std::string> urls() const;
  /// Version count for one URL (0 if unknown).
  int version_count(const std::string& url) const;

  /// Checks out a version of one document.
  Result<XmlDocument> Checkout(const std::string& url, int version) const;

  /// Full-text lookup across all current versions: (url, text-node XID)
  /// pairs whose node contains `word`.
  std::vector<std::pair<std::string, Xid>> Search(
      std::string_view word) const;

  /// Aggregated per-label change statistics across every ingest.
  ChangeStatistics::LabelStats StatsForLabel(const std::string& label) const;
  std::string StatsReport(size_t limit = 10) const;

  /// Persists every document's repository under `directory/<escaped
  /// url>/` in ONE group commit, holding every document lock for its
  /// length: after a crash, Load sees every document as of the previous
  /// save or every one as of this one. The directory names are the
  /// document list. Subscriptions, statistics and the index are derived
  /// state and are not saved. All I/O goes through `env` (nullptr means
  /// Env::Default()).
  Status Save(const std::string& directory, Env* env = nullptr) const;

  /// Loads a warehouse persisted by Save or DiffBatch group commits: each
  /// directory named by SanitizeUrl is a document. Subscriptions must be
  /// re-registered by the caller; statistics start empty and count only
  /// later ingests; a document's full-text index is built by the first
  /// Search.
  /// A corrupt per-document repository does not kill the load: each
  /// repository self-heals where it can (quarantining corrupt tails —
  /// see LoadRepository), and one that is beyond recovery is skipped
  /// with its error recorded in `skipped` (when non-null), so one
  /// truncated file cannot take down the warehouse. A document
  /// directory that holds no repository (a crashed commit created it
  /// before landing) loads as absent, not skipped.
  /// (Returned by pointer: the warehouse owns mutexes and cannot move.)
  static Result<std::unique_ptr<Warehouse>> Load(
      const std::string& directory, DiffOptions options = {},
      std::vector<std::string>* skipped = nullptr, Env* env = nullptr);

  /// Loads one document's repository, looked up by URL, from a store
  /// that Load reads, as Load would; `report` as in LoadRepository. An
  /// unknown URL is NotFound.
  static Result<VersionRepository> LoadDocument(
      const std::string& directory, const std::string& url,
      Env* env = nullptr, RecoveryReport* report = nullptr);

 private:
  struct Document {
    /// Serializes ingests of this one document.
    Mutex mutex;
    std::unique_ptr<VersionRepository> repo XY_GUARDED_BY(mutex);
    /// Built from the current version by the first Search, then kept
    /// current by applying every later delta. Empty until then, so a
    /// warehouse that never searches never pays for an index.
    std::optional<FullTextIndex> index XY_GUARDED_BY(mutex);
    /// Element-label counts of the current version, for the statistics:
    /// built by the first commit after the document is first seen or
    /// loaded, then moved across every later delta.
    std::optional<LabelCounts> labels XY_GUARDED_BY(mutex);
  };

  /// DiffBatch group-commit width (see PipelineOptions::save_directory).
  static constexpr size_t kGroupCommitSlots = 8;

  /// A URL's directory name in a store: bytes in [A-Za-z0-9.-] are kept,
  /// any other byte (and a leading '.') becomes '_' plus two hex digits.
  /// A name that would collide with a store-level file (`manifest.tsv`,
  /// `BATCH-COMMIT`, or either with `.tmp`) has its first byte escaped.
  /// `manifest.tsv`, the document list older releases wrote, stays
  /// reserved so every name they wrote keeps its URL.
  static std::string SanitizeUrl(const std::string& url);

  /// The URL whose SanitizeUrl is `name`, or nullopt when there is none
  /// (a store-level file, or a name SanitizeUrl never produces).
  static std::optional<std::string> UrlOfStoreName(const std::string& name);

  /// Group-commits the repositories of `urls` (distinct) under
  /// `directory` in ONE SaveRepositoryBatch, retried under `policy`,
  /// with every document locked in URL order for its length. Annotation
  /// opt-out: the analysis cannot follow locks taken in a loop. Every
  /// other path holds at most one document lock, so this cannot deadlock.
  Status SaveGroup(std::vector<std::string> urls,
                   const std::string& directory, Env* env,
                   const Context* context, const RetryPolicy& policy,
                   size_t* retries) const XY_NO_THREAD_SAFETY_ANALYSIS;

  /// The one ingest body behind Ingest and DiffBatch: commits the
  /// version, then feeds its delta to the alerter, the statistics and
  /// the full-text index (when one has been built). A URL holding a line
  /// break is rejected as invalid input: no valid URL holds one.
  Result<IngestReport> IngestInternal(const std::string& url,
                                      XmlDocument document,
                                      const Context* context = nullptr);

  Document* FindDocument(const std::string& url) const;
  /// Finds or creates the slot for `url`; sets `created`.
  Document* FindOrCreateDocument(const std::string& url, bool* created);
  /// Snapshot of (url, slot) pairs, sorted by URL.
  std::vector<std::pair<std::string, Document*>> SnapshotSlots() const;

  DiffOptions options_;
  // Guards the document map's *shape* only, for a lookup or an insert:
  // Document contents have their own lock, always taken WITHOUT this one
  // held (see Search()). Slots are never erased, so a slot pointer stays
  // valid after unlock.
  mutable Mutex documents_mutex_;
  std::map<std::string, std::unique_ptr<Document>> documents_
      XY_GUARDED_BY(documents_mutex_);
  // Parse-arena recycling across slots AND across batches: freed
  // documents return their (rewound) arenas here, so steady-state
  // pipelines stop allocating arena blocks entirely. Lives on the
  // warehouse — a per-batch pool would never carry blocks from one
  // crawl round to the next.
  mutable ArenaPool arena_pool_;
  // Subscriptions change rarely but are read on every ingest: readers
  // share, Subscribe() excludes.
  mutable SharedMutex alerter_mutex_;
  Alerter alerter_ XY_GUARDED_BY(alerter_mutex_);
  // Statistics are folded in per ingest; the heavy per-document work
  // happens in a thread-local collector, the merge is O(labels).
  mutable Mutex stats_mutex_;
  ChangeStatistics stats_ XY_GUARDED_BY(stats_mutex_);
};

}  // namespace xydiff

#endif  // XYDIFF_VERSION_WAREHOUSE_H_
