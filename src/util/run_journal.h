#ifndef TABBENCH_UTIL_RUN_JOURNAL_H_
#define TABBENCH_UTIL_RUN_JOURNAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/trace_event.h"

namespace tabbench {

/// Durable run journal: the crash-recovery substrate for multi-hour
/// benchmark campaigns. The runners (core/runner) append one record per
/// *completed* query — its outcome and the charge trace of its one
/// execution — and fsync before moving on, so a process death at any point
/// loses at most the query in flight. Resume replays the
/// journaled traces through the buffer pool (the same trace-replay
/// machinery RunWorkloadParallel is built on), restoring the simulated
/// clock and pool state bit for bit, then continues live from the first
/// unjournaled query.
///
/// On-disk format: a sequence of length-prefixed frames,
///
///   [u32 payload_len][u32 masked_crc32c(payload)][payload bytes]
///
/// little-endian, CRC masked (util/crc32c.h) so payloads that embed their
/// own checksums stay fully protected. Frame 0 is the header (workload SQL,
/// run options fingerprint, free-form metadata); every later frame is one
/// query record, marked by the payload's leading type byte. Tags 2 and 3
/// are retired: they once framed service routing events and online
/// index-build transitions, and the loader still checksums and skips such
/// frames so old journals load. A torn tail — a frame cut short by a crash,
/// or a final frame whose checksum fails — is silently dropped on load and
/// truncated on append-open, exactly like a WAL recovery. A checksum
/// mismatch *before* the final frame is real corruption and surfaces as
/// kDataLoss with the offending byte offset.

/// One execution of one query: its final status and the full charge trace
/// up to the point execution stopped (completion, timeout trip, or injected
/// fault). The trace is what makes resume exact — replaying it applies the
/// same pool touches and the same FP charge sequence the live execution
/// did. The format holds a list of them per record; the runners write
/// exactly one.
struct JournalAttempt {
  Status::Code code = Status::Code::kOk;
  std::string message;
  bool timed_out = false;  // QueryResult::timed_out when code is kOk
  AccessTrace trace;
};

/// One completed query. The outcome fields double as a cross-check: resume
/// recomputes them from the replayed traces and refuses the journal
/// (kDataLoss) if they disagree — a CRC protects against bit rot, this
/// protects against replaying into the wrong database or configuration.
struct JournalQueryRecord {
  uint32_t query_index = 0;
  double seconds = 0.0;  // final censored timing, paper's A(q_k, C)
  bool timed_out = false;
  bool failed = false;
  uint32_t attempts = 1;  // size of attempt_log; the runners write 1
  bool has_estimate = false;
  double estimate = 0.0;
  /// Shared-pool counter movement while this query ran (hits/misses after
  /// minus before): the buffer-pool delta the resume replay must reproduce.
  uint64_t pool_hit_delta = 0;
  uint64_t pool_miss_delta = 0;
  std::vector<JournalAttempt> attempt_log;
};

/// The header fields of the retired per-query retry policy. The runner runs
/// every query once, but the fields stay in the header so the on-disk format
/// does not change: a fresh journal writes these defaults, and resume
/// refuses a journal whose fields differ from them.
struct JournalRetryFields {
  int max_attempts = 1;
  double initial_backoff_seconds = 0.05;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 2.0;
  double jitter_fraction = 0.1;
  uint64_t seed = 0;
};

/// Everything needed to (a) refuse resuming under different run options and
/// (b) reconstruct the run from nothing but the journal file (`tabbench
/// resume <journal>`): the full workload SQL, the RunOptions fingerprint,
/// and free-form metadata (database kind, scale, configuration) stamped by
/// the caller. `repetitions`, `fault_scope_salt` and `retry` are retired
/// run options, kept in the format at their defaults (1, 0, default
/// fields); the loader still parses them so resume can refuse a journal
/// written with other values.
struct JournalHeader {
  uint32_t query_count = 0;
  int repetitions = 1;
  bool collect_estimates = false;
  bool cold_start = true;
  uint64_t fault_scope_salt = 0;
  double timeout_seconds = 0.0;
  JournalRetryFields retry;
  std::vector<std::string> sql;
  std::map<std::string, std::string> metadata;
};

struct RunJournal {
  JournalHeader header;
  std::vector<JournalQueryRecord> records;
  /// Bytes of valid frames from the start of the file; a torn tail begins
  /// here. OpenAppend truncates to this offset before continuing.
  uint64_t valid_bytes = 0;
};

/// Parses `path`. A torn tail is tolerated (records simply end earlier);
/// an unreadable or headerless file is kInvalidArgument; a checksum
/// mismatch anywhere before the final frame is kDataLoss with the offset.
Result<RunJournal> LoadRunJournal(const std::string& path);

/// Append-side handle. Internally synchronized: per-record framing under
/// one mutex means appends from several threads interleave whole records,
/// never bytes.
class RunJournalWriter {
 public:
  /// Starts a fresh journal at `path` (truncating any existing file),
  /// writes the header frame, and fsyncs it.
  static Result<std::unique_ptr<RunJournalWriter>> Create(
      const std::string& path, const JournalHeader& header);

  /// Reopens an existing journal to continue it, truncating the torn tail
  /// (`journal.valid_bytes`, from LoadRunJournal) first.
  static Result<std::unique_ptr<RunJournalWriter>> OpenAppend(
      const std::string& path, const RunJournal& journal);

  /// Use Create/OpenAppend; public only so the factories can make_unique.
  RunJournalWriter(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}
  ~RunJournalWriter();
  RunJournalWriter(const RunJournalWriter&) = delete;
  RunJournalWriter& operator=(const RunJournalWriter&) = delete;

  /// Serializes, frames, writes, and fsyncs one record — the durability
  /// point: once Append returns OK the record survives any crash.
  Status Append(const JournalQueryRecord& rec);

  /// Test hook for the kill-resume chaos suite: after the n-th successful
  /// Append (1-based) the process SIGKILLs itself — *after* the fsync, so
  /// the journal holds exactly n durable records. Negative disables. Also
  /// armed by the TABBENCH_JOURNAL_CRASH_AFTER environment variable (read
  /// at Create/OpenAppend), mirroring TABBENCH_FAULTS, so child benchmark
  /// processes can be crashed without API plumbing. A set value must be a
  /// positive integer; anything else fails Create/OpenAppend with
  /// kInvalidArgument before the file is touched.
  void set_crash_after_appends(int n) {
    MutexLock lock(&mu_);
    crash_after_appends_ = n;
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  Mutex mu_;
  int fd_ TB_GUARDED_BY(mu_) = -1;
  int appends_ TB_GUARDED_BY(mu_) = 0;
  int crash_after_appends_ TB_GUARDED_BY(mu_) = -1;
};

}  // namespace tabbench

#endif  // TABBENCH_UTIL_RUN_JOURNAL_H_
