#include "storage/stats_collector.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "storage/abbrev_sort.h"

namespace tabbench {

namespace {

constexpr size_t kHistogramBuckets = 64;
constexpr size_t kNumMcvs = 16;

ColumnStats BuildColumnStats(std::vector<Value> values, uint64_t row_count) {
  ColumnStats cs;
  cs.row_count = row_count;
  // Sort the non-NULL values on abbreviated keys (the index build's sort):
  // Value::Compare settles only the ties whose prefixes do not hold the
  // whole value. NULLs are only counted.
  std::vector<AbbrevEntry> order;
  order.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].is_null()) {
      ++cs.null_count;
    } else {
      order.push_back(Abbreviate(values[i], i));
    }
  }
  if (order.empty()) return cs;
  SortAbbreviated(&order, [&values](uint32_t a, uint32_t b) {
    return values[a].Compare(values[b]);
  });
  auto at = [&](size_t k) -> const Value& { return values[order[k].pos]; };
  cs.min = at(0);
  cs.max = at(order.size() - 1);

  // Value frequencies (runs in sorted order). Equal values have equal
  // prefixes, and equal whole prefixes are equal values.
  auto same = [&](size_t a, size_t b) {
    if (order[a].prefix != order[b].prefix) return false;
    return (order[a].whole && order[b].whole) || at(a).Compare(at(b)) == 0;
  };
  std::vector<std::pair<Value, uint64_t>> freqs;
  for (size_t i = 0; i < order.size();) {
    size_t j = i;
    while (j < order.size() && same(j, i)) ++j;
    freqs.emplace_back(at(i), static_cast<uint64_t>(j - i));
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
  std::vector<size_t> by_freq(freqs.size());
  for (size_t i = 0; i < by_freq.size(); ++i) by_freq[i] = i;
  std::sort(by_freq.begin(), by_freq.end(), [&](size_t a, size_t b) {
    if (freqs[a].second != freqs[b].second) {
      return freqs[a].second > freqs[b].second;
    }
    return freqs[a].first < freqs[b].first;
  });
  size_t num_mcv = std::min(kNumMcvs, freqs.size());
  std::vector<bool> is_mcv(freqs.size(), false);
  for (size_t i = 0; i < num_mcv; ++i) {
    cs.mcvs.push_back(freqs[by_freq[i]]);
    is_mcv[by_freq[i]] = true;
  }

  // Histogram over the non-MCV runs, in value order; freqs is not read
  // again.
  std::vector<std::pair<Value, uint64_t>> rest;
  rest.reserve(freqs.size() - num_mcv);
  for (size_t i = 0; i < freqs.size(); ++i) {
    if (!is_mcv[i]) rest.push_back(std::move(freqs[i]));
  }
  cs.histogram = EquiDepthHistogram::Build(rest, kHistogramBuckets);
  return cs;
}

}  // namespace

TableStats CollectTableStats(const HeapTable& table,
                             const std::vector<std::string>& column_names) {
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
  // each pass reads only its column, off the page.
  for (size_t c = 0; c < ncols; ++c) {
    std::vector<Value> values;
    values.reserve(table.num_rows());
    auto cursor = table.Scan(/*touch=*/nullptr);
    while (const uint8_t* row = cursor.NextRecord()) {
      values.push_back(table.codec().Column(row, c).ToValue());
    }
    ts.columns[column_names[c]] =
        BuildColumnStats(std::move(values), table.num_rows());
  }
  return ts;
}

}  // namespace tabbench
