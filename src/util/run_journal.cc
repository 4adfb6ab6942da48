#include "util/run_journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/crc32c.h"

namespace tabbench {
namespace {

// Frame payloads start with a record type byte so a reader never confuses a
// header with a query record even if a file is truncated and re-appended.
constexpr uint8_t kHeaderRecord = 0;
constexpr uint8_t kQueryRecord = 1;
// Tags 2 and 3 framed service routing events and online index-build
// transitions, neither of which is written any more. The loader skips such
// frames so old journals load; never reuse either tag.
constexpr uint8_t kRetiredEventRecord = 2;
constexpr uint8_t kRetiredIndexBuildRecord = 3;
constexpr uint32_t kJournalVersion = 1;
constexpr char kMagic[8] = {'t', 'b', 'j', 'o', 'u', 'r', 'n', 'l'};
// Frames larger than this are assumed to be garbage length prefixes from a
// torn write, not real records (the largest traces in a full campaign are
// a few MB).
constexpr uint32_t kMaxFrameBytes = 256u << 20;

// ---------------------------------------------------------------- encoding
// Little-endian, fixed-width. Doubles travel as their IEEE-754 bit pattern:
// resume must restore the simulated clock *bit for bit*, so no text
// round-trip is acceptable.

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}
void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}
void PutDouble(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}
void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// Bounds-checked cursor over one frame payload. Any short read marks the
// decoder failed; callers check ok() once at the end.
class Decoder {
 public:
  Decoder(const char* data, size_t size) : p_(data), end_(data + size) {}

  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(*p_++);
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(*p_++)) << (8 * i);
    }
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(*p_++)) << (8 * i);
    }
    return v;
  }
  double Double() {
    uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string String() {
    uint32_t n = U32();
    if (!Need(n)) return {};
    std::string s(p_, n);
    p_ += n;
    return s;
  }

  bool ok() const { return ok_ && p_ == end_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

 private:
  bool Need(size_t n) {
    if (!ok_ || static_cast<size_t>(end_ - p_) < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  const char* p_;
  const char* end_;
  bool ok_ = true;
};

std::string EncodeHeader(const JournalHeader& h) {
  std::string out;
  PutU8(&out, kHeaderRecord);
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, kJournalVersion);
  PutU32(&out, h.query_count);
  PutU32(&out, static_cast<uint32_t>(h.repetitions));
  PutU8(&out, h.collect_estimates ? 1 : 0);
  PutU8(&out, h.cold_start ? 1 : 0);
  PutU64(&out, h.fault_scope_salt);
  PutDouble(&out, h.timeout_seconds);
  PutU32(&out, static_cast<uint32_t>(h.retry.max_attempts));
  PutDouble(&out, h.retry.initial_backoff_seconds);
  PutDouble(&out, h.retry.backoff_multiplier);
  PutDouble(&out, h.retry.max_backoff_seconds);
  PutDouble(&out, h.retry.jitter_fraction);
  PutU64(&out, h.retry.seed);
  PutU32(&out, static_cast<uint32_t>(h.sql.size()));
  for (const auto& q : h.sql) PutString(&out, q);
  PutU32(&out, static_cast<uint32_t>(h.metadata.size()));
  for (const auto& [k, v] : h.metadata) {
    PutString(&out, k);
    PutString(&out, v);
  }
  return out;
}

bool DecodeHeader(const std::string& payload, JournalHeader* h) {
  Decoder d(payload.data(), payload.size());
  if (d.U8() != kHeaderRecord) return false;
  char magic[sizeof(kMagic)];
  for (char& c : magic) c = static_cast<char>(d.U8());
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) return false;
  if (d.U32() != kJournalVersion) return false;
  h->query_count = d.U32();
  h->repetitions = static_cast<int>(d.U32());
  h->collect_estimates = d.U8() != 0;
  h->cold_start = d.U8() != 0;
  h->fault_scope_salt = d.U64();
  h->timeout_seconds = d.Double();
  h->retry.max_attempts = static_cast<int>(d.U32());
  h->retry.initial_backoff_seconds = d.Double();
  h->retry.backoff_multiplier = d.Double();
  h->retry.max_backoff_seconds = d.Double();
  h->retry.jitter_fraction = d.Double();
  h->retry.seed = d.U64();
  uint32_t n_sql = d.U32();
  h->sql.clear();
  // Each string takes at least its 4-byte length, so a count beyond the
  // payload size is corrupt; the bound keeps a bogus count from looping.
  for (uint32_t i = 0; i < n_sql && i < payload.size(); ++i) {
    h->sql.push_back(d.String());
  }
  uint32_t n_meta = d.U32();
  h->metadata.clear();
  for (uint32_t i = 0; i < n_meta && i < payload.size(); ++i) {
    std::string k = d.String();
    h->metadata[k] = d.String();
  }
  return d.ok();
}

std::string EncodeQueryRecord(const JournalQueryRecord& r) {
  std::string out;
  PutU8(&out, kQueryRecord);
  PutU32(&out, r.query_index);
  PutDouble(&out, r.seconds);
  PutU8(&out, r.timed_out ? 1 : 0);
  PutU8(&out, r.failed ? 1 : 0);
  PutU32(&out, r.attempts);
  PutU8(&out, r.has_estimate ? 1 : 0);
  PutDouble(&out, r.estimate);
  PutU64(&out, r.pool_hit_delta);
  PutU64(&out, r.pool_miss_delta);
  PutU32(&out, static_cast<uint32_t>(r.attempt_log.size()));
  for (const auto& a : r.attempt_log) {
    PutU8(&out, static_cast<uint8_t>(a.code));
    PutString(&out, a.message);
    PutU8(&out, a.timed_out ? 1 : 0);
    PutU64(&out, a.trace.size());
    for (const TraceEvent& e : a.trace) {
      PutU8(&out, static_cast<uint8_t>(e.kind));
      PutU64(&out, e.arg);
    }
  }
  return out;
}

bool DecodeQueryRecord(const std::string& payload, JournalQueryRecord* r) {
  Decoder d(payload.data(), payload.size());
  if (d.U8() != kQueryRecord) return false;
  r->query_index = d.U32();
  r->seconds = d.Double();
  r->timed_out = d.U8() != 0;
  r->failed = d.U8() != 0;
  r->attempts = d.U32();
  r->has_estimate = d.U8() != 0;
  r->estimate = d.Double();
  r->pool_hit_delta = d.U64();
  r->pool_miss_delta = d.U64();
  uint32_t n_attempts = d.U32();
  r->attempt_log.clear();
  for (uint32_t i = 0; i < n_attempts && i < payload.size(); ++i) {
    JournalAttempt a;
    a.code = static_cast<Status::Code>(d.U8());
    a.message = d.String();
    a.timed_out = d.U8() != 0;
    uint64_t n_events = d.U64();
    if (n_events > payload.size()) return false;  // bogus count
    a.trace.reserve(n_events);
    for (uint64_t e = 0; e < n_events; ++e) {
      TraceEvent ev;
      const uint8_t kind = d.U8();
      // An unknown kind has no charge a replay could apply: corruption.
      if (kind > static_cast<uint8_t>(TraceEvent::Kind::kUnitHashChecked)) {
        return false;
      }
      ev.kind = static_cast<TraceEvent::Kind>(kind);
      ev.arg = d.U64();
      a.trace.push_back(ev);
    }
    r->attempt_log.push_back(std::move(a));
  }
  // Journals written while records carried a 4-byte shard-id trailer still
  // load: the trailer is read and ignored. Any other leftover fails ok().
  if (d.remaining() == 4) d.U32();
  return d.ok();
}

std::string Frame(const std::string& payload) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU32(&out, MaskCrc32c(Crc32c(payload)));
  out.append(payload);
  return out;
}

Status WriteAndSync(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("journal write failed: ") +
                              std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    return Status::Internal(std::string("journal fsync failed: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

/// Chaos-test arming (see set_crash_after_appends): mirrors TABBENCH_FAULTS'
/// env-driven fault schedules so a child benchmark process can be told to
/// die mid-run without any API plumbing. Unset is -1 (disarmed); a set value
/// must be a whole-string positive integer, else kInvalidArgument, so a typo
/// never arms the hook at an unintended record.
Result<int> CrashAfterFromEnv() {
  const char* v = std::getenv("TABBENCH_JOURNAL_CRASH_AFTER");
  if (v == nullptr) return -1;
  const char* end = v + std::strlen(v);
  int n = 0;
  const auto [ptr, ec] = std::from_chars(v, end, n);
  if (ec != std::errc() || ptr != end || n < 1) {
    return Status::InvalidArgument(
        std::string("TABBENCH_JOURNAL_CRASH_AFTER must be a positive "
                    "integer, got '") +
        v + "'");
  }
  return n;
}

uint32_t ReadU32At(const std::string& buf, size_t off) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(buf[off + i])) << (8 * i);
  }
  return v;
}

}  // namespace

Result<RunJournal> LoadRunJournal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::InvalidArgument("cannot open run journal: " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string buf = ss.str();

  RunJournal journal;
  size_t off = 0;
  bool have_header = false;
  while (off < buf.size()) {
    // A frame cut short by a crash — header bytes, payload bytes, or a
    // garbage length written before the payload made it — is the torn
    // tail: stop here, and OpenAppend truncates to this offset.
    if (buf.size() - off < 8) break;
    uint32_t len = ReadU32At(buf, off);
    uint32_t stored_crc = ReadU32At(buf, off + 4);
    if (len > kMaxFrameBytes || off + 8 + len > buf.size()) break;
    std::string payload = buf.substr(off + 8, len);
    if (MaskCrc32c(Crc32c(payload)) != stored_crc) {
      if (off + 8 + len == buf.size()) break;  // final frame: torn write
      // Bytes *behind* valid frames went bad: that is bit rot or an
      // overwrite, not a crash, and resuming past it would silently skip
      // work. Surface the offset for inspection.
      return Status::DataLoss("run journal checksum mismatch at offset " +
                              std::to_string(off) + ": " + path);
    }
    if (!have_header) {
      if (!DecodeHeader(payload, &journal.header)) {
        return Status::InvalidArgument("not a tabbench run journal: " + path);
      }
      have_header = true;
    } else if (!payload.empty() &&
               (static_cast<uint8_t>(payload[0]) == kRetiredEventRecord ||
                static_cast<uint8_t>(payload[0]) ==
                    kRetiredIndexBuildRecord)) {
      // A retired frame: checksummed above, carries nothing a run replays.
    } else {
      JournalQueryRecord rec;
      if (!DecodeQueryRecord(payload, &rec)) {
        return Status::DataLoss(
            "run journal record undecodable at offset " + std::to_string(off) +
            ": " + path);
      }
      journal.records.push_back(std::move(rec));
    }
    off += 8 + len;
  }
  if (!have_header) {
    return Status::InvalidArgument("not a tabbench run journal: " + path);
  }
  journal.valid_bytes = off;
  return journal;
}

Result<std::unique_ptr<RunJournalWriter>> RunJournalWriter::Create(
    const std::string& path, const JournalHeader& header) {
  int crash_after = -1;
  TB_ASSIGN_OR_RETURN(crash_after, CrashAfterFromEnv());
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot create run journal " + path + ": " +
                            std::strerror(errno));
  }
  auto w = std::make_unique<RunJournalWriter>(path, fd);
  w->set_crash_after_appends(crash_after);
  Status st = WriteAndSync(fd, Frame(EncodeHeader(header)));
  if (!st.ok()) return st;
  return w;
}

Result<std::unique_ptr<RunJournalWriter>> RunJournalWriter::OpenAppend(
    const std::string& path, const RunJournal& journal) {
  int crash_after = -1;
  TB_ASSIGN_OR_RETURN(crash_after, CrashAfterFromEnv());
  int fd = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd < 0) {
    return Status::Internal("cannot open run journal " + path + ": " +
                            std::strerror(errno));
  }
  auto w = std::make_unique<RunJournalWriter>(path, fd);
  w->set_crash_after_appends(crash_after);
  // Drop the torn tail so the next frame starts on a clean boundary; the
  // lost partial record is exactly the query that was in flight at the
  // crash, which resume re-executes.
  if (::ftruncate(fd, static_cast<off_t>(journal.valid_bytes)) != 0) {
    return Status::Internal("cannot truncate torn journal tail of " + path +
                            ": " + std::strerror(errno));
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    return Status::Internal("cannot seek run journal " + path + ": " +
                            std::strerror(errno));
  }
  return w;
}

RunJournalWriter::~RunJournalWriter() {
  MutexLock lock(&mu_);
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Status RunJournalWriter::Append(const JournalQueryRecord& rec) {
  std::string frame = Frame(EncodeQueryRecord(rec));
  MutexLock lock(&mu_);
  if (fd_ < 0) return Status::Internal("run journal writer is closed");
  // The fsync deliberately happens under mu_: Append's contract is a
  // totally ordered, durable-on-return journal, and serializing the
  // write+sync pair is what provides it. Waiters queue behind the sync by
  // design. NOLINTNEXTLINE(tabbench-blocking-under-lock)
  TB_RETURN_IF_ERROR(WriteAndSync(fd_, frame));
  ++appends_;
  if (crash_after_appends_ >= 0 && appends_ >= crash_after_appends_) {
    // Chaos hook: die *after* the fsync, so exactly `appends_` records are
    // durable — the kill-resume test's definition of "mid-run crash".
    (void)::raise(SIGKILL);
  }
  return Status::OK();
}

}  // namespace tabbench
