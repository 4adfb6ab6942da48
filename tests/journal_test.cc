#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/runner.h"
#include "util/thread_pool.h"
#include "test_util.h"
#include "util/crc32c.h"
#include "util/file_util.h"
#include "util/rng.h"
#include "util/run_journal.h"
#include "util/strings.h"

namespace tabbench {
namespace {

// ----------------------------------------------------------------- crc32c

TEST(Crc32cTest, KnownAnswerVectors) {
  // The CRC-32C check value: crc of the ASCII digits "123456789".
  EXPECT_EQ(Crc32c(std::string("123456789")), 0xe3069283u);
  EXPECT_EQ(Crc32c(std::string("")), 0u);
  // Incremental == one-shot.
  uint32_t inc = Crc32cExtend(0, "1234", 4);
  inc = Crc32cExtend(inc, "56789", 5);
  EXPECT_EQ(inc, 0xe3069283u);
}

TEST(Crc32cTest, MaskRoundTripsAndDiffersFromRaw) {
  for (uint32_t crc : {0u, 1u, 0xe3069283u, 0xffffffffu, 0xdeadbeefu}) {
    EXPECT_EQ(UnmaskCrc32c(MaskCrc32c(crc)), crc);
    EXPECT_NE(MaskCrc32c(crc), crc);
  }
}

// ------------------------------------------------------------ crc trailer

TEST(CrcTrailerTest, RoundTrip) {
  std::string body = "line one\nline two\n";
  std::string with = WithCrc32cTrailer(body);
  EXPECT_NE(with, body);
  auto back = VerifyCrc32cTrailer(with, "mem");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, body);
}

TEST(CrcTrailerTest, AppendsNewlineBeforeTrailerWhenMissing) {
  auto back = VerifyCrc32cTrailer(WithCrc32cTrailer("no newline"), "mem");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, "no newline\n");
}

TEST(CrcTrailerTest, LegacyFileWithoutTrailerPassesThrough) {
  std::string legacy = "# tabbench workload v1\nSELECT 1;\n";
  auto back = VerifyCrc32cTrailer(legacy, "mem");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, legacy);
}

TEST(CrcTrailerTest, TamperedBodyIsDataLossWithOffset) {
  std::string with = WithCrc32cTrailer("important numbers: 1 2 3\n");
  with[4] = 'X';
  auto back = VerifyCrc32cTrailer(with, "tampered.txt");
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsDataLoss()) << back.status().ToString();
  EXPECT_NE(back.status().ToString().find("offset"), std::string::npos);
  EXPECT_NE(back.status().ToString().find("tampered.txt"), std::string::npos);
}

TEST(CrcTrailerTest, MalformedTrailerHexIsDataLoss) {
  std::string bad = "body\n# crc32c: zzzzzzzz\n";
  auto back = VerifyCrc32cTrailer(bad, "mem");
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsDataLoss()) << back.status().ToString();
}

TEST(CrcTrailerTest, TrailerLineInTheMiddleIsNotATrailer) {
  // Only a *final* "# crc32c:" line is a trailer; one mid-file is content.
  std::string mid = "# crc32c: 00000000\nmore content\n";
  auto back = VerifyCrc32cTrailer(mid, "mem");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, mid);
}

// -------------------------------------------------------- journal framing

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

JournalHeader SampleHeader() {
  JournalHeader h;
  h.query_count = 2;
  h.repetitions = 3;
  h.collect_estimates = true;
  h.cold_start = false;
  h.fault_scope_salt = 77;
  h.timeout_seconds = 1800.0;
  h.retry.max_attempts = 4;
  h.retry.seed = 99;
  h.sql = {"SELECT 1", "SELECT 2"};
  h.metadata = {{"db", "nref"}, {"config", "p"}};
  return h;
}

JournalQueryRecord SampleRecord(uint32_t index) {
  JournalQueryRecord rec;
  rec.query_index = index;
  rec.seconds = 12.5 + index;
  rec.timed_out = (index % 2) == 1;
  rec.failed = false;
  rec.attempts = 2;
  rec.has_estimate = true;
  rec.estimate = 3.25;
  rec.pool_hit_delta = 10 + index;
  rec.pool_miss_delta = 4;
  JournalAttempt first;
  first.code = Status::Code::kUnavailable;
  first.message = "injected fault: storage.heap_scan";
  first.trace = {{TraceEvent::Kind::kTouchSeq, 17},
                 {TraceEvent::Kind::kTuples, 120},
                 {TraceEvent::Kind::kTimeoutCheck, 0}};
  JournalAttempt second;
  second.code = Status::Code::kOk;
  second.timed_out = rec.timed_out;
  second.trace = {{TraceEvent::Kind::kTouchRandom, 5},
                  {TraceEvent::Kind::kUnitTuplesChecked, 64}};
  rec.attempt_log = {first, second};
  return rec;
}

void ExpectSameRecord(const JournalQueryRecord& got,
                      const JournalQueryRecord& want) {
  EXPECT_EQ(got.query_index, want.query_index);
  EXPECT_EQ(got.seconds, want.seconds);
  EXPECT_EQ(got.timed_out, want.timed_out);
  EXPECT_EQ(got.failed, want.failed);
  EXPECT_EQ(got.attempts, want.attempts);
  EXPECT_EQ(got.has_estimate, want.has_estimate);
  EXPECT_EQ(got.estimate, want.estimate);
  EXPECT_EQ(got.pool_hit_delta, want.pool_hit_delta);
  EXPECT_EQ(got.pool_miss_delta, want.pool_miss_delta);
  ASSERT_EQ(got.attempt_log.size(), want.attempt_log.size());
  for (size_t a = 0; a < want.attempt_log.size(); ++a) {
    EXPECT_EQ(got.attempt_log[a].code, want.attempt_log[a].code);
    EXPECT_EQ(got.attempt_log[a].message, want.attempt_log[a].message);
    EXPECT_EQ(got.attempt_log[a].timed_out, want.attempt_log[a].timed_out);
    ASSERT_EQ(got.attempt_log[a].trace.size(),
              want.attempt_log[a].trace.size());
    for (size_t e = 0; e < want.attempt_log[a].trace.size(); ++e) {
      EXPECT_EQ(got.attempt_log[a].trace[e].kind,
                want.attempt_log[a].trace[e].kind);
      EXPECT_EQ(got.attempt_log[a].trace[e].arg,
                want.attempt_log[a].trace[e].arg);
    }
  }
}

TEST(RunJournalTest, HeaderAndRecordsRoundTrip) {
  std::string path = TempPath("journal_roundtrip.tbj");
  JournalHeader h = SampleHeader();
  auto writer = RunJournalWriter::Create(path, h);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  TB_ASSERT_OK((*writer)->Append(SampleRecord(0)));
  TB_ASSERT_OK((*writer)->Append(SampleRecord(1)));
  writer->reset();

  auto loaded = LoadRunJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const JournalHeader& back = loaded->header;
  EXPECT_EQ(back.query_count, h.query_count);
  EXPECT_EQ(back.repetitions, h.repetitions);
  EXPECT_EQ(back.collect_estimates, h.collect_estimates);
  EXPECT_EQ(back.cold_start, h.cold_start);
  EXPECT_EQ(back.fault_scope_salt, h.fault_scope_salt);
  EXPECT_EQ(back.timeout_seconds, h.timeout_seconds);
  EXPECT_EQ(back.retry.max_attempts, 4);
  EXPECT_EQ(back.retry.seed, 99u);
  EXPECT_EQ(back.sql, h.sql);
  EXPECT_EQ(back.metadata, h.metadata);

  ASSERT_EQ(loaded->records.size(), 2u);
  for (uint32_t i = 0; i < 2; ++i) {
    ExpectSameRecord(loaded->records[i], SampleRecord(i));
  }
  EXPECT_EQ(loaded->valid_bytes, Slurp(path).size());
  std::remove(path.c_str());
}

void PutLe(std::string* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// [u32 len][u32 masked crc32c][payload], as RunJournalWriter frames it.
std::string FrameBytes(const std::string& payload) {
  std::string out;
  PutLe(&out, payload.size(), 4);
  PutLe(&out, MaskCrc32c(Crc32c(payload)), 4);
  return out + payload;
}

/// Splits a journal file into its frame payloads.
std::vector<std::string> FramePayloads(const std::string& bytes) {
  std::vector<std::string> payloads;
  size_t off = 0;
  while (off + 8 <= bytes.size()) {
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + off, sizeof(len));
    payloads.push_back(bytes.substr(off + 8, len));
    off += 8 + len;
  }
  return payloads;
}

/// Writes `bytes` over the journal at `path`.
void Overwrite(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Header frame plus SampleRecord(0) and SampleRecord(1), one payload each.
std::vector<std::string> SamplePayloads(const std::string& path) {
  {
    auto writer = RunJournalWriter::Create(path, SampleHeader());
    EXPECT_TRUE(writer.ok()) << writer.status().ToString();
    if (!writer.ok()) return {};
    EXPECT_TRUE((*writer)->Append(SampleRecord(0)).ok());
    EXPECT_TRUE((*writer)->Append(SampleRecord(1)).ok());
  }
  return FramePayloads(Slurp(path));
}

TEST(RunJournalTest, PreShardJournalsLoadWithShardZero) {
  // Sharded journals carried a 4-byte shard-id trailer on each query
  // record; journals from before and after that format carry none. Mix a
  // record with the trailer and one without in a hand-built journal: both
  // load intact, the shard id dropped.
  std::string path = TempPath("journal_preshard.tbj");
  const std::vector<std::string> payloads = SamplePayloads(path);
  ASSERT_EQ(payloads.size(), 3u);
  std::string with_trailer = payloads[1];
  PutLe(&with_trailer, /*shard_id=*/7, 4);
  const std::string older = FrameBytes(payloads[0]) +
                            FrameBytes(with_trailer) +
                            FrameBytes(payloads[2]);
  Overwrite(path, older);
  auto loaded = LoadRunJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->records.size(), 2u);
  ExpectSameRecord(loaded->records[0], SampleRecord(0));
  ExpectSameRecord(loaded->records[1], SampleRecord(1));
  EXPECT_EQ(loaded->valid_bytes, older.size());

  // Only a whole 4-byte trailer is tolerated: any other leftover is still
  // an undecodable record.
  std::string short_trailer = payloads[1];
  PutLe(&short_trailer, 7, 2);
  Overwrite(path, FrameBytes(payloads[0]) + FrameBytes(short_trailer));
  auto rejected = LoadRunJournal(path);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsDataLoss()) << rejected.status().ToString();
  std::remove(path.c_str());
}

/// A service routing event as journals once framed it (retired tag 2).
std::string RetiredEventPayload() {
  std::string event;
  PutLe(&event, 2, 1);                      // the retired event tag
  PutLe(&event, 4, 8);                      // sequence
  PutLe(&event, 0x3ff4000000000000ull, 8);  // clock_seconds = 1.25
  PutLe(&event, 2, 4);                      // shard_id
  PutLe(&event, 42, 8);                     // domain
  for (std::string_view text : {"reroute", "shard 2 not serving"}) {
    PutLe(&event, text.size(), 4);          // kind, then detail
    event.append(text);
  }
  return event;
}

/// An online index-build transition as journals once framed it (retired
/// tag 3).
std::string RetiredIndexBuildPayload() {
  std::string build;
  PutLe(&build, 3, 1);                      // the retired index-build tag
  PutLe(&build, 0, 4);                      // build_id
  PutLe(&build, 4, 1);                      // state entered: live
  PutLe(&build, 1, 4);                      // op_index
  PutLe(&build, 12, 8);                     // side_log_entries
  PutLe(&build, 0x3ff4000000000000ull, 8);  // clock_seconds = 1.25
  for (std::string_view text : {"ix_dept", "people"}) {
    PutLe(&build, text.size(), 4);          // index name, then target
    build.append(text);
  }
  PutLe(&build, 1, 4);                      // one key column
  PutLe(&build, 4, 4);
  build.append("dept");
  return build;
}

TEST(RunJournalTest, ServiceEventsRoundTripAlongsideRecords) {
  // Journals once interleaved service routing events (frame tag 2) and
  // online index-build transitions (tag 3) with query records. Rebuild
  // that byte format by hand: retired frames on either side of each
  // record. They are CRC-checked and skipped; the records around them load
  // intact.
  std::string path = TempPath("journal_events.tbj");
  const std::vector<std::string> payloads = SamplePayloads(path);
  ASSERT_EQ(payloads.size(), 3u);
  const std::string event = RetiredEventPayload();
  const std::string build = RetiredIndexBuildPayload();
  const std::string older = FrameBytes(payloads[0]) + FrameBytes(event) +
                            FrameBytes(payloads[1]) + FrameBytes(build) +
                            FrameBytes(event) + FrameBytes(payloads[2]) +
                            FrameBytes(build);
  Overwrite(path, older);
  auto loaded = LoadRunJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->records.size(), 2u);
  ExpectSameRecord(loaded->records[0], SampleRecord(0));
  ExpectSameRecord(loaded->records[1], SampleRecord(1));
  EXPECT_EQ(loaded->valid_bytes, older.size());

  // A corrupted retired frame mid-file is data loss, like any other frame.
  for (const std::string& retired : {event, build}) {
    std::string bad = FrameBytes(payloads[0]) + FrameBytes(retired) +
                      FrameBytes(payloads[1]);
    bad[FrameBytes(payloads[0]).size() + 8 + 3] ^= 0x5a;
    Overwrite(path, bad);
    auto rejected = LoadRunJournal(path);
    ASSERT_FALSE(rejected.ok());
    EXPECT_TRUE(rejected.status().IsDataLoss())
        << rejected.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(RunJournalTest, TornTailIsDroppedAndTruncatedOnAppend) {
  std::string path = TempPath("journal_torn.tbj");
  auto writer = RunJournalWriter::Create(path, SampleHeader());
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  TB_ASSERT_OK((*writer)->Append(SampleRecord(0)));
  writer->reset();
  const uint64_t clean_size = Slurp(path).size();

  // Simulate a crash mid-write: a frame whose length prefix promises more
  // bytes than the file holds.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const uint32_t len = 1000;
    out.write(reinterpret_cast<const char*>(&len), sizeof(len));
    out.write("torn", 4);
  }
  ASSERT_GT(Slurp(path).size(), clean_size);

  auto loaded = LoadRunJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->records.size(), 1u);
  EXPECT_EQ(loaded->valid_bytes, clean_size);

  // OpenAppend truncates the torn tail before continuing.
  auto reopened = RunJournalWriter::OpenAppend(path, *loaded);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  TB_ASSERT_OK((*reopened)->Append(SampleRecord(1)));
  reopened->reset();
  auto reloaded = LoadRunJournal(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->records.size(), 2u);
  std::remove(path.c_str());
}

TEST(RunJournalTest, GarbageFinalFrameIsATornTailToo) {
  // A complete-looking final frame whose checksum fails is treated as torn
  // (the crash may have happened mid-frame after the length was written).
  std::string path = TempPath("journal_badtail.tbj");
  auto writer = RunJournalWriter::Create(path, SampleHeader());
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  TB_ASSERT_OK((*writer)->Append(SampleRecord(0)));
  writer->reset();
  const uint64_t clean_size = Slurp(path).size();
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const uint32_t len = 4;
    const uint32_t bogus_crc = 0x12345678;
    out.write(reinterpret_cast<const char*>(&len), sizeof(len));
    out.write(reinterpret_cast<const char*>(&bogus_crc), sizeof(bogus_crc));
    out.write("junk", 4);
  }
  auto loaded = LoadRunJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->records.size(), 1u);
  EXPECT_EQ(loaded->valid_bytes, clean_size);
  std::remove(path.c_str());
}

TEST(RunJournalTest, MidFileCorruptionIsDataLossWithOffset) {
  std::string path = TempPath("journal_corrupt.tbj");
  auto writer = RunJournalWriter::Create(path, SampleHeader());
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  TB_ASSERT_OK((*writer)->Append(SampleRecord(0)));
  TB_ASSERT_OK((*writer)->Append(SampleRecord(1)));
  writer->reset();

  // Flip one payload byte of the header frame — far from the tail, so this
  // is corruption, not a torn tail.
  std::string bytes = Slurp(path);
  ASSERT_GT(bytes.size(), 32u);
  bytes[16] ^= 0x40;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto loaded = LoadRunJournal(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsDataLoss()) << loaded.status().ToString();
  EXPECT_NE(loaded.status().ToString().find("offset"), std::string::npos);
  std::remove(path.c_str());
}

TEST(RunJournalTest, UnknownTraceEventKindIsDataLoss) {
  // A well-framed record (valid CRC) whose trace holds a kind no replay
  // can apply must not load: resuming would silently drop the event.
  std::string path = TempPath("journal_unknown_kind.tbj");
  {
    auto writer = RunJournalWriter::Create(path, SampleHeader());
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    JournalQueryRecord rec = SampleRecord(0);
    rec.attempt_log[1].trace.push_back(
        {static_cast<TraceEvent::Kind>(200), 3});
    TB_ASSERT_OK((*writer)->Append(rec));
  }
  auto loaded = LoadRunJournal(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsDataLoss()) << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(RunJournalTest, HeaderlessOrMissingFileIsRejected) {
  EXPECT_FALSE(LoadRunJournal("/nonexistent/nowhere.tbj").ok());
  std::string path = TempPath("journal_empty.tbj");
  { std::ofstream out(path, std::ios::binary | std::ios::trunc); }
  auto loaded = LoadRunJournal(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument())
      << loaded.status().ToString();
  std::remove(path.c_str());
}

// ------------------------------------------------------ journal-load fuzz
//
// Seeded mutations of a valid journal (header, two query records with
// 37-event traces, a retired tag-2 and a retired tag-3 frame): byte flips,
// payload and file truncations, frame-length corruption and type-byte
// swaps. Half the mutants have each frame's CRC recomputed over its mutated
// payload, so the mutation reaches the decoders instead of stopping at the
// checksum.
// LoadRunJournal must return OK, InvalidArgument or DataLoss and never
// crash, hang or throw; a journal that loads must hold only replayable
// trace events, and take an append past its torn tail and reload with one
// more record.

constexpr int kJournalMutants = 2400;

struct JournalOutcomes {
  size_t ok = 0;
  size_t invalid = 0;
  size_t data_loss = 0;
  size_t undecodable = 0;  // DataLoss from a decoder, not a checksum
  size_t appended = 0;
};

/// One mutant of the journal framed from `payloads`.
std::string MutateJournal(std::vector<std::string> payloads, bool recompute_crc,
                          Rng* rng) {
  std::vector<uint32_t> crcs;
  for (const std::string& p : payloads) crcs.push_back(MaskCrc32c(Crc32c(p)));
  const int payload_ops = static_cast<int>(rng->Uniform(3));
  for (int op = 0; op < payload_ops; ++op) {
    std::string& p = payloads[rng->Uniform(payloads.size())];
    if (p.empty()) continue;
    switch (rng->Uniform(3)) {
      case 0:  // byte flip
        p[rng->Uniform(p.size())] ^= static_cast<char>(1u << rng->Uniform(8));
        break;
      case 1:  // payload truncation
        p.resize(rng->Uniform(p.size()));
        break;
      default:  // type-byte swap, over the live, retired and unknown tags
        p[0] = static_cast<char>(rng->Uniform(6));
        break;
    }
  }
  std::string bytes;
  std::vector<size_t> offsets;
  for (size_t i = 0; i < payloads.size(); ++i) {
    offsets.push_back(bytes.size());
    PutLe(&bytes, payloads[i].size(), 4);
    PutLe(&bytes,
          recompute_crc ? MaskCrc32c(Crc32c(payloads[i])) : crcs[i], 4);
    bytes += payloads[i];
  }
  const int file_ops = static_cast<int>(rng->Uniform(3));
  for (int op = 0; op < file_ops && !bytes.empty(); ++op) {
    switch (rng->Uniform(3)) {
      case 0: {  // frame-length corruption: nudged, zeroed or random
        const size_t at = offsets[rng->Uniform(offsets.size())];
        if (at + 4 > bytes.size()) break;
        uint32_t len = 0;
        std::memcpy(&len, bytes.data() + at, sizeof(len));
        const uint64_t how = rng->Uniform(3);
        len = how == 0 ? len + static_cast<uint32_t>(rng->UniformInt(-8, 8))
              : how == 1 ? 0u
                         : static_cast<uint32_t>(rng->Next());
        std::string le;
        PutLe(&le, len, 4);
        bytes.replace(at, 4, le);
        break;
      }
      case 1:  // byte flip anywhere, length and CRC fields included
        bytes[rng->Uniform(bytes.size())] ^=
            static_cast<char>(1u << rng->Uniform(8));
        break;
      default:  // file truncation
        bytes.resize(rng->Uniform(bytes.size()));
        break;
    }
  }
  return bytes;
}

/// Loads the mutant at `path` and checks the contract; records what
/// happened in `*seen`.
void CheckJournalMutant(const std::string& path, size_t frames,
                        JournalOutcomes* seen) {
  Result<RunJournal> loaded = Status::Internal("not run");
  try {
    loaded = LoadRunJournal(path);
  } catch (...) {
    ADD_FAILURE() << "LoadRunJournal threw";
    return;
  }
  if (!loaded.ok()) {
    const Status& st = loaded.status();
    EXPECT_TRUE(st.IsInvalidArgument() || st.IsDataLoss()) << st.ToString();
    if (st.IsInvalidArgument()) ++seen->invalid;
    if (st.IsDataLoss()) ++seen->data_loss;
    if (st.message().find("undecodable") != std::string::npos) {
      ++seen->undecodable;
    }
    return;
  }
  ++seen->ok;
  EXPECT_LE(loaded->valid_bytes, Slurp(path).size());
  EXPECT_LT(loaded->records.size(), frames);
  // Every loaded event is one a replay can apply.
  for (const JournalQueryRecord& rec : loaded->records) {
    for (const JournalAttempt& a : rec.attempt_log) {
      for (const TraceEvent& e : a.trace) {
        EXPECT_LE(e.kind, TraceEvent::Kind::kUnitHashChecked);
      }
    }
  }
  if (seen->ok % 16 != 1) return;  // each append-and-reload costs an fsync
  auto writer = RunJournalWriter::OpenAppend(path, *loaded);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  TB_ASSERT_OK((*writer)->Append(SampleRecord(7)));
  writer->reset();
  auto reloaded = LoadRunJournal(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_EQ(reloaded->records.size(), loaded->records.size() + 1);
  ExpectSameRecord(reloaded->records.back(), SampleRecord(7));
  ++seen->appended;
}

/// SampleRecord(index) with 32 more trace events over every kind, so more
/// of the mutated bytes are event kinds and arguments.
JournalQueryRecord LongTraceRecord(uint32_t index) {
  JournalQueryRecord rec = SampleRecord(index);
  const uint64_t kinds =
      static_cast<uint64_t>(TraceEvent::Kind::kUnitHashChecked) + 1;
  for (uint64_t e = 0; e < 32; ++e) {
    rec.attempt_log.back().trace.push_back(
        {static_cast<TraceEvent::Kind>(e % kinds), e * 37});
  }
  return rec;
}

TEST(RunJournalFuzzTest, MutatedJournalsLoadOrFailCleanly) {
  const std::string path = TempPath("journal_fuzz.tbj");
  {
    auto writer = RunJournalWriter::Create(path, SampleHeader());
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    TB_ASSERT_OK((*writer)->Append(LongTraceRecord(0)));
    TB_ASSERT_OK((*writer)->Append(LongTraceRecord(1)));
  }
  std::vector<std::string> payloads = FramePayloads(Slurp(path));
  ASSERT_EQ(payloads.size(), 3u);
  payloads.insert(payloads.begin() + 2, RetiredEventPayload());
  payloads.push_back(RetiredIndexBuildPayload());

  Rng rng(20261019);
  JournalOutcomes seen;
  for (int m = 0; m < kJournalMutants; ++m) {
    Overwrite(path, MutateJournal(payloads, m % 2 == 0, &rng));
    SCOPED_TRACE("mutant " + std::to_string(m));
    CheckJournalMutant(path, payloads.size(), &seen);
  }
  // Every outcome class is reached, the decoders included.
  EXPECT_GT(seen.ok, 0u);
  EXPECT_GT(seen.invalid, 0u);
  EXPECT_GT(seen.data_loss, 0u);
  EXPECT_GT(seen.undecodable, 0u);
  EXPECT_GT(seen.appended, 0u);
  std::remove(path.c_str());
}

// ----------------------------------------------------- checkpoint/resume

class JournalResumeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tiny_ = std::make_unique<tabbench::testing::TinyDb>(
        tabbench::testing::TinyDb::Make(3000, 20));
    for (int d = 0; d < 6; ++d) {
      sql_.push_back(StrFormat(
          "SELECT p.city, COUNT(*) FROM people p WHERE p.dept = %d "
          "GROUP BY p.city", d));
    }
    for (int i = 0; i < 4; ++i) {
      sql_.push_back("SELECT p.dept, COUNT(*) FROM people p GROUP BY p.dept");
    }
  }
  static void TearDownTestSuite() {
    tiny_.reset();
    sql_.clear();
  }

  Database* db() { return tiny_->db.get(); }

  static void ExpectIdentical(const WorkloadResult& a,
                              const WorkloadResult& b) {
    ASSERT_EQ(a.timings.size(), b.timings.size());
    for (size_t i = 0; i < a.timings.size(); ++i) {
      EXPECT_EQ(a.timings[i].seconds, b.timings[i].seconds) << "query " << i;
      EXPECT_EQ(a.timings[i].timed_out, b.timings[i].timed_out);
      EXPECT_EQ(a.timings[i].failed, b.timings[i].failed);
    }
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.total_clamped_seconds, b.total_clamped_seconds);
  }

  /// Rewrites `src`'s first `keep` records into a fresh journal at `dst` —
  /// the on-disk state an interrupted run would have left behind.
  static void WritePrefixJournal(const std::string& src,
                                 const std::string& dst, size_t keep) {
    auto full = LoadRunJournal(src);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_GE(full->records.size(), keep);
    auto writer = RunJournalWriter::Create(dst, full->header);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (size_t i = 0; i < keep; ++i) {
      TB_ASSERT_OK((*writer)->Append(full->records[i]));
    }
  }

  static std::unique_ptr<tabbench::testing::TinyDb> tiny_;
  static std::vector<std::string> sql_;
};

std::unique_ptr<tabbench::testing::TinyDb> JournalResumeTest::tiny_;
std::vector<std::string> JournalResumeTest::sql_;

TEST_F(JournalResumeTest, JournaledRunMatchesPlainRunAndRecordsEverything) {
  auto baseline = RunWorkload(db(), sql_);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::string path = TempPath("resume_full.tbj");
  RunOptions jopts;
  jopts.journal_path = path;
  jopts.journal_metadata = {{"db", "tiny"}};
  auto journaled = RunWorkload(db(), sql_, jopts);
  ASSERT_TRUE(journaled.ok()) << journaled.status().ToString();
  ExpectIdentical(*baseline, *journaled);

  auto loaded = LoadRunJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->records.size(), sql_.size());
  EXPECT_EQ(loaded->header.sql, sql_);
  EXPECT_EQ(loaded->header.metadata.at("db"), "tiny");
  for (size_t i = 0; i < loaded->records.size(); ++i) {
    EXPECT_EQ(loaded->records[i].query_index, i);
    EXPECT_EQ(loaded->records[i].seconds, baseline->timings[i].seconds);
    ASSERT_FALSE(loaded->records[i].attempt_log.empty());
  }
  std::remove(path.c_str());
}

TEST_F(JournalResumeTest, SerialResumeIsBitIdenticalAndRefillsTheJournal) {
  std::string full_path = TempPath("resume_base.tbj");
  RunOptions jopts;
  jopts.journal_path = full_path;
  auto baseline = RunWorkload(db(), sql_, jopts);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const BufferPoolStats base_pool = db()->buffer_stats();

  // Resume from every interruption point, including "crashed before any
  // record" (keep == 0) and "crashed after the last query" (keep == size).
  for (size_t keep : {size_t{0}, size_t{1}, sql_.size() / 2,
                      sql_.size() - 1, sql_.size()}) {
    std::string path = TempPath("resume_k" + std::to_string(keep) + ".tbj");
    WritePrefixJournal(full_path, path, keep);
    auto resumed = RunWorkload(db(), sql_, ResumeFrom(path));
    ASSERT_TRUE(resumed.ok())
        << "keep=" << keep << ": " << resumed.status().ToString();
    ExpectIdentical(*baseline, *resumed);
    const BufferPoolStats pool = db()->buffer_stats();
    EXPECT_EQ(pool.hits, base_pool.hits) << "keep=" << keep;
    EXPECT_EQ(pool.misses, base_pool.misses) << "keep=" << keep;

    // After the resumed run the journal is complete again — and since the
    // header and every record serialize deterministically, byte-identical
    // to the uninterrupted journal.
    EXPECT_EQ(Slurp(path), Slurp(full_path)) << "keep=" << keep;
    std::remove(path.c_str());
  }
  std::remove(full_path.c_str());
}

TEST_F(JournalResumeTest, ParallelResumeMatchesSerialBaseline) {
  std::string full_path = TempPath("resume_par_base.tbj");
  RunOptions jopts;
  jopts.journal_path = full_path;
  auto baseline = RunWorkload(db(), sql_, jopts);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::string path = TempPath("resume_par.tbj");
  WritePrefixJournal(full_path, path, 3);

  ThreadPool pool(4);
  ParallelOptions par;
  par.pool = &pool;
  auto resumed = RunWorkloadParallel(db(), sql_, par, ResumeFrom(path));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectIdentical(*baseline, *resumed);
  auto reloaded = LoadRunJournal(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->records.size(), sql_.size());
  std::remove(path.c_str());
  std::remove(full_path.c_str());

  // A serial journal resumes under the parallel runner and vice versa: the
  // journal speaks traces, not runner internals. (The parallel-resumed file
  // was already checked above; now the reverse direction.)
  std::string par_path = TempPath("resume_par_written.tbj");
  RunOptions par_jopts;
  par_jopts.journal_path = par_path;
  auto par_run = RunWorkloadParallel(db(), sql_, par, par_jopts);
  ASSERT_TRUE(par_run.ok()) << par_run.status().ToString();
  std::string ser_path = TempPath("resume_ser_from_par.tbj");
  WritePrefixJournal(par_path, ser_path, 5);
  auto ser_resumed = RunWorkload(db(), sql_, ResumeFrom(ser_path));
  ASSERT_TRUE(ser_resumed.ok()) << ser_resumed.status().ToString();
  ExpectIdentical(*baseline, *ser_resumed);
  std::remove(par_path.c_str());
  std::remove(ser_path.c_str());
}

TEST_F(JournalResumeTest, ResumeUnderDifferentOptionsIsRefused) {
  std::string path = TempPath("resume_incompat.tbj");
  RunOptions jopts;
  jopts.journal_path = path;
  ASSERT_TRUE(RunWorkload(db(), sql_, jopts).ok());

  RunOptions warm = ResumeFrom(path);
  warm.cold_start = false;
  auto r = RunWorkload(db(), sql_, warm);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();

  std::vector<std::string> other_sql = sql_;
  other_sql.pop_back();
  EXPECT_FALSE(RunWorkload(db(), other_sql, ResumeFrom(path)).ok());

  // Journals written with a retired run option — repetitions, a retry
  // policy or a fault-scope salt — still load, but resume refuses them by
  // name and leaves the file as it found it.
  auto full = LoadRunJournal(path);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  struct Retired {
    const char* field;
    void (*set)(JournalHeader*);
  };
  const Retired retired[] = {
      {"repetitions", [](JournalHeader* h) { h->repetitions = 3; }},
      {"retry", [](JournalHeader* h) { h->retry.max_attempts = 3; }},
      {"fault_scope_salt", [](JournalHeader* h) { h->fault_scope_salt = 123; }},
  };
  for (const Retired& option : retired) {
    SCOPED_TRACE(option.field);
    JournalHeader header = full->header;
    option.set(&header);
    std::string old_path = TempPath("resume_retired_option.tbj");
    {
      auto writer = RunJournalWriter::Create(old_path, header);
      ASSERT_TRUE(writer.ok()) << writer.status().ToString();
      for (size_t i = 0; i < 3; ++i) {
        TB_ASSERT_OK((*writer)->Append(full->records[i]));
      }
    }
    const std::string bytes = Slurp(old_path);
    auto loaded = LoadRunJournal(old_path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->records.size(), 3u);

    auto resumed = RunWorkload(db(), sql_, ResumeFrom(old_path));
    ASSERT_FALSE(resumed.ok());
    EXPECT_TRUE(resumed.status().IsInvalidArgument())
        << resumed.status().ToString();
    EXPECT_NE(resumed.status().message().find(option.field),
              std::string::npos)
        << resumed.status().ToString();
    EXPECT_EQ(Slurp(old_path), bytes);
    std::remove(old_path.c_str());
  }
  std::remove(path.c_str());
}

TEST_F(JournalResumeTest, RecordWithTwoExecutionsIsDataLoss) {
  // Under a default header every record holds exactly one execution; a
  // second one (what a retry once wrote) is corruption, not a retry to
  // replay.
  std::string path = TempPath("resume_two_exec_src.tbj");
  RunOptions jopts;
  jopts.journal_path = path;
  ASSERT_TRUE(RunWorkload(db(), sql_, jopts).ok());
  auto full = LoadRunJournal(path);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  std::string doubled = TempPath("resume_two_exec.tbj");
  {
    auto writer = RunJournalWriter::Create(doubled, full->header);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (size_t i = 0; i < 3; ++i) {
      JournalQueryRecord rec = full->records[i];
      if (i == 1) {
        rec.attempt_log.push_back(rec.attempt_log[0]);
        rec.attempts = 2;
      }
      TB_ASSERT_OK((*writer)->Append(rec));
    }
  }
  auto resumed = RunWorkload(db(), sql_, ResumeFrom(doubled));
  ASSERT_FALSE(resumed.ok());
  EXPECT_TRUE(resumed.status().IsDataLoss()) << resumed.status().ToString();
  std::remove(path.c_str());
  std::remove(doubled.c_str());
}

TEST_F(JournalResumeTest, TamperedOutcomeFailsTheReplayCrossCheck) {
  std::string path = TempPath("resume_tampered_src.tbj");
  RunOptions jopts;
  jopts.journal_path = path;
  ASSERT_TRUE(RunWorkload(db(), sql_, jopts).ok());

  // Rewrite the journal with one record's outcome falsified. Every frame
  // still checksums cleanly — only the replay cross-check can catch this.
  auto full = LoadRunJournal(path);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  std::string lied = TempPath("resume_tampered.tbj");
  auto writer = RunJournalWriter::Create(lied, full->header);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (size_t i = 0; i < 4; ++i) {
    JournalQueryRecord rec = full->records[i];
    if (i == 2) rec.seconds += 1.0;
    TB_ASSERT_OK((*writer)->Append(rec));
  }
  writer->reset();

  auto resumed = RunWorkload(db(), sql_, ResumeFrom(lied));
  ASSERT_FALSE(resumed.ok());
  EXPECT_TRUE(resumed.status().IsDataLoss()) << resumed.status().ToString();
  std::remove(path.c_str());
  std::remove(lied.c_str());
}

TEST_F(JournalResumeTest, PrefixWithRetiredFramesResumesExact) {
  // A journal holding retired service-event (tag 2) and index-build
  // (tag 3) frames between its query records resumes like any prefix: the
  // retired frames are skipped, and the records appended after them are
  // the uninterrupted run's own.
  std::string full_path = TempPath("resume_retired_base.tbj");
  RunOptions jopts;
  jopts.journal_path = full_path;
  auto baseline = RunWorkload(db(), sql_, jopts);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const BufferPoolStats base_pool = db()->buffer_stats();
  const std::vector<std::string> payloads = FramePayloads(Slurp(full_path));
  ASSERT_EQ(payloads.size(), sql_.size() + 1);

  std::string older = FrameBytes(payloads[0]);
  for (size_t i = 1; i <= 4; ++i) {
    older += FrameBytes(i % 2 == 1 ? RetiredEventPayload()
                                   : RetiredIndexBuildPayload());
    older += FrameBytes(payloads[i]);
  }
  std::string path = TempPath("resume_retired.tbj");
  Overwrite(path, older);
  auto resumed = RunWorkload(db(), sql_, ResumeFrom(path));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectIdentical(*baseline, *resumed);
  EXPECT_EQ(db()->buffer_stats().hits, base_pool.hits);
  EXPECT_EQ(db()->buffer_stats().misses, base_pool.misses);

  std::vector<std::string> live;
  for (const std::string& p : FramePayloads(Slurp(path))) {
    if (p.empty() || (p[0] != 2 && p[0] != 3)) live.push_back(p);
  }
  EXPECT_EQ(live, payloads);
  std::remove(path.c_str());
  std::remove(full_path.c_str());
}

TEST_F(JournalResumeTest, CrashAfterAppendsHookCountsFsyncedRecords) {
  // The in-process side of the kill-resume chaos test: negative disables,
  // and the env-var spelling is parsed at Create time. (The actual SIGKILL
  // is exercised by the fork-based chaos test.)
  std::string path = TempPath("resume_hook.tbj");
  auto writer = RunJournalWriter::Create(path, SampleHeader());
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  (*writer)->set_crash_after_appends(-1);
  TB_ASSERT_OK((*writer)->Append(SampleRecord(0)));
  TB_ASSERT_OK((*writer)->Append(SampleRecord(1)));
  writer->reset();
  auto loaded = LoadRunJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->records.size(), 2u);
  std::remove(path.c_str());
}

TEST(RunJournalCrashEnvTest, MalformedCrashAfterIsRejectedBeforeWriting) {
  // TABBENCH_JOURNAL_CRASH_AFTER takes a whole-string positive integer. A
  // value atoi would have read as 0 (or a prefix) must not arm the hook:
  // Create and OpenAppend refuse it, naming the variable, and leave an
  // existing journal byte for byte as it was.
  std::string path = TempPath("journal_crash_env.tbj");
  {
    auto writer = RunJournalWriter::Create(path, SampleHeader());
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    TB_ASSERT_OK((*writer)->Append(SampleRecord(0)));
  }
  const std::string before = Slurp(path);
  auto journal = LoadRunJournal(path);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  for (const char* bad : {"abc", "0", "-3", "5x", ""}) {
    SCOPED_TRACE(std::string("value '") + bad + "'");
    ASSERT_EQ(::setenv("TABBENCH_JOURNAL_CRASH_AFTER", bad, 1), 0);
    auto created = RunJournalWriter::Create(path, SampleHeader());
    ASSERT_FALSE(created.ok());
    EXPECT_TRUE(created.status().IsInvalidArgument());
    EXPECT_NE(created.status().message().find("TABBENCH_JOURNAL_CRASH_AFTER"),
              std::string::npos);
    auto reopened = RunJournalWriter::OpenAppend(path, *journal);
    ASSERT_FALSE(reopened.ok());
    EXPECT_TRUE(reopened.status().IsInvalidArgument());
    EXPECT_EQ(Slurp(path), before);
  }
  ::unsetenv("TABBENCH_JOURNAL_CRASH_AFTER");
  std::remove(path.c_str());
}

TEST(RunJournalCrashEnvTest, WellFormedCrashAfterArmsTheHook) {
  // "3" arms the hook: the third Append fsyncs its record and the process
  // dies by SIGKILL, leaving exactly three durable records.
  std::string path = TempPath("journal_crash_env_armed.tbj");
  EXPECT_EXIT(
      {
        ::setenv("TABBENCH_JOURNAL_CRASH_AFTER", "3", 1);
        auto writer = RunJournalWriter::Create(path, SampleHeader());
        if (!writer.ok()) std::exit(1);
        for (uint32_t i = 0; i < 5; ++i) {
          if (!(*writer)->Append(SampleRecord(i)).ok()) std::exit(1);
        }
        std::exit(0);
      },
      ::testing::KilledBySignal(SIGKILL), "");
  auto loaded = LoadRunJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->records.size(), 3u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tabbench
