// Seeded mutation fuzzers for two text inputs: the TABBENCH_FAULTS schedule
// grammar (FaultRegistry::ParseSpec / ArmFromString) and workload files
// (FamilyFromString / LoadFamily).
//
// Valid inputs are mutated with fixed seeds: byte flips, token deletion and
// duplication, and digit-run extension (which pushes counts and seeds past
// uint64 and probabilities past 1). Every mutant must come back OK or with
// a clean InvalidArgument (DataLoss too, for a workload file whose crc32c
// trailer no longer matches). An OK fault spec must survive a print/parse
// round trip field for field and arm; an OK family must survive a
// FamilyToString round trip.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/workload_io.h"
#include "util/fault_injection.h"
#include "util/file_util.h"
#include "util/rng.h"
#include "util/strings.h"

namespace tabbench {
namespace {

constexpr int kMutantsPerSeed = 300;

// ------------------------------------------------------------- mutator

bool IsWordByte(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Byte spans of `text`'s tokens: maximal runs of word bytes, and every
/// other byte on its own.
std::vector<std::pair<size_t, size_t>> TokenSpans(const std::string& text) {
  std::vector<std::pair<size_t, size_t>> spans;
  for (size_t i = 0; i < text.size();) {
    size_t j = i + 1;
    if (IsWordByte(text[i])) {
      while (j < text.size() && IsWordByte(text[j])) ++j;
    }
    spans.emplace_back(i, j);
    i = j;
  }
  return spans;
}

std::string Mutate(const std::string& text, Rng* rng) {
  std::string out = text;
  const int ops = 1 + static_cast<int>(rng->Uniform(3));
  for (int op = 0; op < ops && !out.empty(); ++op) {
    const uint64_t kind = rng->Uniform(4);
    switch (kind) {
      case 0: {  // byte flip
        const size_t at = rng->Uniform(out.size());
        out[at] = static_cast<char>(out[at] ^ (1u << rng->Uniform(8)));
        break;
      }
      case 1:    // token deletion
      case 2: {  // token duplication
        const auto spans = TokenSpans(out);
        const auto [begin, end] = spans[rng->Uniform(spans.size())];
        const std::string token = out.substr(begin, end - begin);
        if (kind == 1) {
          out.erase(begin, end - begin);
        } else {
          out.insert(begin, token);
        }
        break;
      }
      default: {  // digit-run extension
        std::vector<size_t> digits;
        for (size_t i = 0; i < out.size(); ++i) {
          if (out[i] >= '0' && out[i] <= '9') digits.push_back(i);
        }
        if (digits.empty()) break;
        const size_t at = digits[rng->Uniform(digits.size())];
        std::string run;
        const size_t len = 1 + rng->Uniform(24);
        for (size_t i = 0; i < len; ++i) {
          run += static_cast<char>('0' + rng->Uniform(10));
        }
        out.insert(at, run);
        break;
      }
    }
  }
  return out;
}

// ------------------------------------------------------ fault schedules

/// Disarms every fault point on scope exit so a failing ASSERT cannot leak
/// an armed schedule into later tests.
struct FaultGuard {
  FaultGuard() { FaultRegistry::Global().DisarmAll(); }
  ~FaultGuard() { FaultRegistry::Global().DisarmAll(); }
};

const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kInvalidArgument: return "invalid_argument";
    case Status::Code::kNotFound: return "not_found";
    case Status::Code::kAlreadyExists: return "already_exists";
    case Status::Code::kUnsupported: return "unsupported";
    case Status::Code::kTimeout: return "timeout";
    case Status::Code::kResourceExhausted: return "resource_exhausted";
    case Status::Code::kInternal: return "internal";
    case Status::Code::kCancelled: return "cancelled";
    case Status::Code::kUnavailable: return "unavailable";
    default: return "?";
  }
}

/// Prints `spec` back in the grammar ParseSpec reads; %.17g keeps every
/// probability bit.
std::string PrintSpec(const FaultSpec& spec) {
  std::string out = spec.point + "=" + CodeName(spec.code) + "@";
  switch (spec.trigger) {
    case FaultSpec::Trigger::kOnce:
      return out + "once";
    case FaultSpec::Trigger::kNth:
      return out + StrFormat("nth:%" PRIu64, spec.nth);
    case FaultSpec::Trigger::kProbability:
      return out + StrFormat("prob:%.17g:%" PRIu64, spec.probability,
                             spec.seed);
  }
  return out;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// `field` without its leading zeros ("0" stays "0"): the digits an
/// accepted integer field must print back as. A sign that wrapped, a space
/// that was skipped or an overflow that saturated all fail this.
std::string CanonicalDigits(const std::string& field) {
  const size_t first = field.find_first_not_of('0');
  return first == std::string::npos ? "0" : field.substr(first);
}

/// The trigger text of a spec ParseSpec accepted: what follows the first
/// '@' after the first '='.
std::string TriggerText(const std::string& text) {
  const std::string rest = text.substr(text.find('=') + 1);
  return rest.substr(rest.find('@') + 1);
}

struct SpecOutcomes {
  size_t ok = 0;
  size_t rejected = 0;
};

void CheckSpecMutant(const std::string& text, SpecOutcomes* seen) {
  Result<FaultSpec> spec = FaultRegistry::ParseSpec(text);
  if (!spec.ok()) {
    EXPECT_TRUE(spec.status().IsInvalidArgument())
        << spec.status().ToString() << " on: " << text;
    ++seen->rejected;
  } else {
    ++seen->ok;
    const std::string trigger = TriggerText(text);
    if (spec->trigger == FaultSpec::Trigger::kNth) {
      EXPECT_GE(spec->nth, 1u) << text;
      EXPECT_EQ(StrFormat("%" PRIu64, spec->nth),
                CanonicalDigits(trigger.substr(4)))
          << text;
    }
    if (spec->trigger == FaultSpec::Trigger::kProbability) {
      EXPECT_TRUE(spec->probability >= 0.0 && spec->probability <= 1.0)
          << text;
      const size_t colon = trigger.find(':', 5);
      if (colon != std::string::npos) {
        EXPECT_EQ(StrFormat("%" PRIu64, spec->seed),
                  CanonicalDigits(trigger.substr(colon + 1)))
            << text;
      }
    }
    const std::string printed = PrintSpec(*spec);
    Result<FaultSpec> again = FaultRegistry::ParseSpec(printed);
    ASSERT_TRUE(again.ok()) << again.status().ToString() << " on: " << printed;
    EXPECT_EQ(again->point, spec->point) << printed;
    EXPECT_EQ(again->code, spec->code) << printed;
    EXPECT_EQ(again->trigger, spec->trigger) << printed;
    if (spec->trigger == FaultSpec::Trigger::kNth) {
      EXPECT_EQ(again->nth, spec->nth) << printed;
    }
    if (spec->trigger == FaultSpec::Trigger::kProbability) {
      EXPECT_TRUE(SameBits(again->probability, spec->probability)) << printed;
      EXPECT_EQ(again->seed, spec->seed) << printed;
    }
    // Whatever the parser accepts, Arm must accept too: a spec that parses
    // but cannot arm would be a schedule the environment silently drops.
    FaultGuard guard;
    EXPECT_TRUE(FaultRegistry::Global().Arm(*spec).ok()) << text;
  }

  FaultGuard guard;
  Status armed = FaultRegistry::Global().ArmFromString(text);
  EXPECT_TRUE(armed.ok() || armed.IsInvalidArgument())
      << armed.ToString() << " on: " << text;
}

TEST(FaultSpecFuzzTest, MutatedSchedulesParseOrFailCleanly) {
  const std::vector<std::string> seeds = {
      "storage.heap_fetch=unavailable@nth:3",
      "storage.page_read=internal@prob:0.01:7",
      "engine.apply_config=resource_exhausted@once",
      "exec.vec.morsel=cancelled@nth:18446744073709551615",
      "a.b=timeout@prob:1:99",
      "storage.heap_scan=unavailable@prob:0.25",
      "a.x=unavailable@once; b.y=internal@nth:3",
  };
  SpecOutcomes seen;
  for (size_t s = 0; s < seeds.size(); ++s) {
    SCOPED_TRACE(seeds[s]);
    CheckSpecMutant(seeds[s], &seen);
    Rng rng(20261019 + s);
    for (int m = 0; m < kMutantsPerSeed; ++m) {
      CheckSpecMutant(Mutate(seeds[s], &rng), &seen);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // The mutators must reach both outcomes.
  EXPECT_GT(seen.ok, seeds.size());
  EXPECT_GT(seen.rejected, 0u);
}

// ------------------------------------------------------- workload files

QueryFamily FuzzFamilyFixture() {
  QueryFamily f;
  f.name = "NREF2J";
  f.queries.push_back(
      {"SELECT t.lineage, COUNT(*) FROM taxonomy t, source s WHERE "
       "t.nref_id = s.nref_id AND s.p_name = 'x;y' GROUP BY t.lineage",
       "R=taxonomy c1=lineage S=source c2=p_name |g|=2"});
  f.queries.push_back({"SELECT p.nref_id FROM protein p WHERE p.len = 120",
                       ""});
  f.queries.push_back(
      {"SELECT n.nref_id_1 FROM neighboring_seq n WHERE n.nref_id_2 IN "
       "(SELECT s.nref_id FROM source s GROUP BY s.nref_id HAVING COUNT(*) "
       ">= 3)",
       "R=neighboring_seq c1=nref_id_1 |g|=1"});
  return f;
}

bool SameFamily(const QueryFamily& a, const QueryFamily& b) {
  if (a.name != b.name || a.queries.size() != b.queries.size()) return false;
  for (size_t i = 0; i < a.queries.size(); ++i) {
    if (a.queries[i].sql != b.queries[i].sql ||
        a.queries[i].binding != b.queries[i].binding) {
      return false;
    }
  }
  return true;
}

struct FamilyOutcomes {
  size_t ok = 0;
  size_t invalid = 0;
  size_t data_loss = 0;
};

/// Checks one parsed or loaded family result against the contract.
void CheckFamily(const Result<QueryFamily>& family, bool may_lose_data,
                 const std::string& input, FamilyOutcomes* seen) {
  if (!family.ok()) {
    const Status& st = family.status();
    if (may_lose_data && st.IsDataLoss()) {
      ++seen->data_loss;
      return;
    }
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString() << " on: " << input;
    ++seen->invalid;
    return;
  }
  ++seen->ok;
  const std::string printed = FamilyToString(*family);
  Result<QueryFamily> again = FamilyFromString(printed);
  ASSERT_TRUE(again.ok()) << again.status().ToString() << " on: " << printed;
  EXPECT_TRUE(SameFamily(*family, *again)) << input << "\n  printed: "
                                           << printed;
}

void Overwrite(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(WorkloadIoFuzzTest, MutatedFamiliesLoadOrFailCleanly) {
  const std::string text = FamilyToString(FuzzFamilyFixture());
  const std::string path = ::testing::TempDir() + "/workload_fuzz.sql";
  FamilyOutcomes parsed;
  FamilyOutcomes loaded;
  Rng rng(20261020);
  CheckFamily(FamilyFromString(text), false, text, &parsed);
  for (int m = 0; m < kMutantsPerSeed; ++m) {
    SCOPED_TRACE("mutant " + std::to_string(m));
    const std::string body = Mutate(text, &rng);
    CheckFamily(FamilyFromString(body), false, body, &parsed);
    // Half the files carry a trailer recomputed over the mutated body, so
    // the parser sees them; the other half mutate a saved file in place,
    // trailer included, so the checksum sees them.
    const std::string file = m % 2 == 0
                                 ? WithCrc32cTrailer(body)
                                 : Mutate(WithCrc32cTrailer(text), &rng);
    Overwrite(path, file);
    CheckFamily(LoadFamily(path), true, file, &loaded);
    if (::testing::Test::HasFatalFailure()) break;
  }
  std::remove(path.c_str());
  // Every outcome class is reached.
  EXPECT_GT(parsed.ok, 1u);
  EXPECT_GT(parsed.invalid, 0u);
  EXPECT_GT(loaded.ok, 0u);
  EXPECT_GT(loaded.invalid, 0u);
  EXPECT_GT(loaded.data_loss, 0u);
}

}  // namespace
}  // namespace tabbench
