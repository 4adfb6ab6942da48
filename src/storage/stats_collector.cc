#include "storage/stats_collector.h"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace tabbench {

namespace {

ColumnStats BuildColumnStats(std::vector<Value> values, uint64_t row_count,
                             const StatsOptions& opts) {
  ColumnStats cs;
  cs.row_count = row_count;
  // Partition out NULLs.
  std::vector<Value> non_null;
  non_null.reserve(values.size());
  for (auto& v : values) {
    if (v.is_null()) {
      ++cs.null_count;
    } else {
      non_null.push_back(std::move(v));
    }
  }
  if (non_null.empty()) return cs;
  std::sort(non_null.begin(), non_null.end());
  cs.min = non_null.front();
  cs.max = non_null.back();

  // Value frequencies (runs in the sorted vector).
  std::vector<std::pair<Value, uint64_t>> freqs;
  for (size_t i = 0; i < non_null.size();) {
    size_t j = i;
    while (j < non_null.size() && non_null[j] == non_null[i]) ++j;
    freqs.emplace_back(non_null[i], static_cast<uint64_t>(j - i));
    i = j;
  }
  cs.num_distinct = freqs.size();

  // Frequency-of-frequency summary, with one example value per frequency
  // (used by the workload generators' constant-selection rules).
  std::map<uint64_t, uint64_t> fof;
  std::map<uint64_t, Value> fex;
  for (const auto& [v, f] : freqs) {
    fof[f] += 1;
    fex.try_emplace(f, v);
  }
  cs.freq_of_freq.assign(fof.begin(), fof.end());
  cs.freq_examples.assign(fex.begin(), fex.end());
  constexpr size_t kMaxFreqExamples = 96;
  if (cs.freq_examples.size() > kMaxFreqExamples) {
    // Keep a log-spaced subset across the frequency range.
    std::vector<std::pair<uint64_t, Value>> kept;
    size_t n = cs.freq_examples.size();
    for (size_t i = 0; i < kMaxFreqExamples; ++i) {
      size_t pos = i * (n - 1) / (kMaxFreqExamples - 1);
      if (kept.empty() || kept.back().first != cs.freq_examples[pos].first) {
        kept.push_back(cs.freq_examples[pos]);
      }
    }
    cs.freq_examples = std::move(kept);
  }

  // MCVs: top-k by frequency (ties broken by value order for determinism).
  std::vector<size_t> order(freqs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (freqs[a].second != freqs[b].second) {
      return freqs[a].second > freqs[b].second;
    }
    return freqs[a].first < freqs[b].first;
  });
  size_t num_mcv = std::min(opts.num_mcvs, freqs.size());
  std::vector<bool> is_mcv(freqs.size(), false);
  for (size_t i = 0; i < num_mcv; ++i) {
    cs.mcvs.push_back(freqs[order[i]]);
    is_mcv[order[i]] = true;
  }

  // Histogram over the non-MCV remainder (sorted expansion).
  std::vector<Value> rest;
  rest.reserve(non_null.size());
  for (size_t i = 0; i < freqs.size(); ++i) {
    if (is_mcv[i]) continue;
    for (uint64_t r = 0; r < freqs[i].second; ++r) rest.push_back(freqs[i].first);
  }
  cs.histogram = EquiDepthHistogram::Build(rest, opts.histogram_buckets);
  return cs;
}

}  // namespace

TableStats CollectTableStats(const HeapTable& table,
                             const std::vector<std::string>& column_names,
                             const StatsOptions& opts) {
  TableStats ts;
  ts.row_count = table.num_rows();
  ts.pages = table.num_pages();
  ts.avg_row_bytes =
      table.num_rows() == 0
          ? 0.0
          : static_cast<double>(table.total_bytes()) /
                static_cast<double>(table.num_rows());

  const size_t ncols = column_names.size();
  // One pass per column keeps peak memory to a single column's values, and
  // each pass decodes only its column.
  std::vector<uint8_t> decode(table.codec().types().size(), 0);
  for (size_t c = 0; c < ncols; ++c) {
    std::vector<Value> values;
    values.reserve(table.num_rows());
    std::fill(decode.begin(), decode.end(), 0);
    decode[c] = 1;
    auto cursor = table.Scan(/*touch=*/nullptr);
    Tuple t;
    while (cursor.NextColumns(&t, decode)) {
      values.push_back(t.at(c));
    }
    ts.columns[column_names[c]] =
        BuildColumnStats(std::move(values), table.num_rows(), opts);
  }
  return ts;
}

}  // namespace tabbench
