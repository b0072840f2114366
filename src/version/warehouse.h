#ifndef XYDIFF_VERSION_WAREHOUSE_H_
#define XYDIFF_VERSION_WAREHOUSE_H_

#include <array>
#include <atomic>
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
  // Overload accounting (DESIGN.md §3.17). These four partition the
  // slots that the pipeline declined or abandoned, by cause:
  size_t shed_slots = 0;        ///< Admission control: a byte/slot budget
                                ///< would be exceeded (kResourceExhausted).
  size_t quarantined_slots = 0; ///< Circuit breaker open for the URL, or
                                ///< warehouse degraded (kUnavailable).
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
/// Ingests of *different* documents are independent; the document map is
/// sharded by URL hash so concurrent ingests only contend when their
/// URLs share a shard. Both batch entry points spread their items over
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
    size_t delta_bytes = 0;   ///< Serialized delta size (DiffBatch only).
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
    /// When non-empty, each updated document's repository is persisted
    /// under `save_directory/<sanitized url>/` (crash-safe, see
    /// version/storage.h) by group commit: up to kGroupCommitSlots
    /// finished slots share ONE SaveRepositoryBatch (one journal fsync +
    /// directory sync for the whole group), and the partial tail group
    /// is flushed once after every slot has finished.
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
    /// ingest finished but whose group save was cut short are reported
    /// degraded (in memory yes, on disk no — the journal is the single
    /// commit point, so disk is bit-exactly pre-batch for them).
    const Context* context = nullptr;
    /// Admission budget: cumulative raw-XML bytes admitted per DiffBatch
    /// call. Once spent, remaining slots are SHED with
    /// kResourceExhausted instead of queued (overload sheds at the front
    /// door, it does not build unbounded backlog). 0 = unlimited.
    size_t max_batch_bytes = 0;
    /// Per-document byte cap: a single oversized (possibly hostile)
    /// document is shed with kResourceExhausted before it can balloon a
    /// parse arena. 0 = unlimited.
    size_t max_document_bytes = 0;
    /// Circuit breaker: a URL whose slots fail this many consecutive
    /// times (parse/diff errors, or a deadline firing while its slot was
    /// being processed) has its breaker opened — subsequent slots for it
    /// are rejected with kUnavailable ("quarantined") without spending
    /// any work. 0 disables the breaker.
    int breaker_failure_threshold = 0;
    /// While a breaker is open, every Nth rejected admission is let
    /// through as a probe; one success closes the breaker. Deterministic
    /// (count-based, no wall clock) so tests replay exactly.
    int breaker_probe_interval = 4;
    /// Degraded mode: after this many consecutive group commits
    /// failing with persistent IOError, the warehouse flips to degraded
    /// (health().degraded) and rejects further ingest admissions with
    /// kUnavailable while still serving reads (Search/Checkout). A
    /// successful commit, or ResetHealth(), clears it. 0 disables.
    int degrade_after_io_failures = 0;
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
  /// a line break (one manifest line per document) or one whose store
  /// directory name, with a ".tmp" suffix, would pass 255 bytes.
  Result<IngestReport> Ingest(const std::string& url, XmlDocument document);

  /// Ingests many pre-parsed documents concurrently on up to `threads`
  /// ParallelFor workers, each through Ingest() — monitors maintained
  /// inline, no byte budgets or breakers, nothing persisted. URLs must be
  /// distinct within one batch. Reports come back in input order; a
  /// failed document carries its error in the result slot.
  std::vector<Result<IngestReport>> IngestBatch(
      std::vector<std::pair<std::string, XmlDocument>> batch, int threads = 4);

  /// Diffs a batch of raw crawled documents. Up to `pipeline.threads`
  /// ParallelFor workers claim slots in input order, and each slot runs
  /// to completion on its worker: admission → parse into a pooled arena
  /// → diff and chain append, feeding the alerter, the statistics and
  /// (once a Search has built it) the full-text index exactly as
  /// Ingest() does → account delta_bytes → park for group commit. At most
  /// `threads` parsed documents are in memory at once.
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

  /// Point-in-time health snapshot (see DESIGN.md §3.17). `degraded`
  /// means the store Env reported persistent IOError and the warehouse
  /// is rejecting ingest while serving reads; `open_breakers` counts
  /// URLs currently quarantined by their circuit breaker.
  struct Health {
    bool degraded = false;
    size_t io_failure_streak = 0;
    size_t open_breakers = 0;
    size_t documents = 0;

    std::string ToString() const;
  };
  Health health() const;

  /// Operator action: leaves degraded mode and closes every circuit
  /// breaker. State also self-heals (a successful store commit resets
  /// the IOError streak; a successful probe closes a breaker).
  void ResetHealth();

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
  /// save or every one as of this one.
  /// Subscriptions, statistics and the index are derived state and are
  /// not saved. All I/O goes through `env` (nullptr means
  /// Env::Default()).
  Status Save(const std::string& directory, Env* env = nullptr) const;

  /// Loads a warehouse persisted by Save. Subscriptions must be
  /// re-registered by the caller; statistics start empty and count only
  /// later ingests; a document's full-text index is built by the first
  /// Search.
  /// A corrupt per-document repository does not kill the load: each
  /// repository self-heals where it can (quarantining corrupt tails —
  /// see LoadRepository), and one that is beyond recovery is skipped
  /// with its error recorded in `skipped` (when non-null), so one
  /// truncated file cannot take down the warehouse.
  /// (Returned by pointer: the warehouse owns mutexes and cannot move.)
  static Result<std::unique_ptr<Warehouse>> Load(
      const std::string& directory, DiffOptions options = {},
      std::vector<std::string>* skipped = nullptr, Env* env = nullptr);

  /// Loads one document's repository, looked up by URL, from a store
  /// written by Save, as Load would; `report` as in LoadRepository.
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
  };

  /// Per-URL circuit breaker state (deterministic, count-based — no
  /// wall clock, so quarantine behaviour replays exactly in tests and
  /// fuzz trials). Lives beside the document map because failed parses
  /// never create a Document slot, yet must still trip the breaker.
  struct Breaker {
    int consecutive_failures = 0;
    bool open = false;
    size_t rejected_while_open = 0;  ///< Drives the probe cadence.
  };

  /// The document map is split into shards locked independently, so the
  /// map-shape lock is never a global serialization point for a batch.
  /// Only the map *shape* is guarded — Document contents have their own
  /// lock, always taken WITHOUT the shard lock held (see Search()).
  struct Shard {
    mutable Mutex mutex;
    std::map<std::string, std::unique_ptr<Document>> documents
        XY_GUARDED_BY(mutex);
    std::map<std::string, Breaker> breakers XY_GUARDED_BY(mutex);
  };
  static constexpr size_t kShards = 16;
  /// DiffBatch group-commit width (see PipelineOptions::save_directory).
  static constexpr size_t kGroupCommitSlots = 8;

  /// A URL's directory name in a store: bytes in [A-Za-z0-9.-] are kept,
  /// any other byte (and a leading '.') becomes '_' plus two hex digits.
  /// A name that would collide with a store-level file (`manifest.tsv`,
  /// `BATCH-COMMIT`, or either with `.tmp`) has its first byte escaped.
  static std::string SanitizeUrl(const std::string& url);

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
  /// break is rejected: the store's manifest is one line per document.
  Result<IngestReport> IngestInternal(const std::string& url,
                                      XmlDocument document,
                                      const Context* context = nullptr);

  /// Circuit-breaker admission check for `url`: true admits (closed
  /// breaker, or an open breaker's probe turn). False rejects and
  /// advances the probe counter. No-op (always true) when the breaker
  /// is disabled.
  bool BreakerAdmits(const std::string& url, const PipelineOptions& pipeline);
  /// Feeds one slot outcome into `url`'s breaker: success closes it and
  /// clears the streak; failure (slot-intrinsic: parse/diff error or a
  /// deadline during processing) may open it.
  void RecordBreakerOutcome(const std::string& url, bool success,
                            const PipelineOptions& pipeline);
  /// Feeds one store-commit outcome into degraded-mode tracking.
  /// Context errors (deadline/cancel) are neutral — only real IOError
  /// advances the streak, only success clears it.
  void RecordStoreHealth(const Status& saved,
                         const PipelineOptions& pipeline);

  Shard& ShardFor(const std::string& url) const;
  Document* FindDocument(const std::string& url) const;
  /// Finds or creates the slot for `url`; sets `created`.
  Document* FindOrCreateDocument(const std::string& url, bool* created);
  /// Snapshot of (url, slot) pairs across all shards, sorted by URL.
  std::vector<std::pair<std::string, Document*>> SnapshotSlots() const;

  DiffOptions options_;
  mutable std::array<Shard, kShards> shards_;
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
  // Degraded-mode tracking (plain atomics, not a mutex: updated from
  // the group commit with document locks held, and a new lock there
  // would grow the lock-order graph for two monotonic counters).
  mutable std::atomic<size_t> io_failure_streak_{0};
  mutable std::atomic<bool> degraded_{false};
};

}  // namespace xydiff

#endif  // XYDIFF_VERSION_WAREHOUSE_H_
