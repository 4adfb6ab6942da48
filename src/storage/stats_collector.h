#ifndef TABBENCH_STORAGE_STATS_COLLECTOR_H_
#define TABBENCH_STORAGE_STATS_COLLECTOR_H_

#include <string>
#include <vector>

#include "stats/table_stats.h"
#include "storage/heap_table.h"

namespace tabbench {

/// Builds full statistics for a table by scanning it once per column: 16
/// MCVs and a 64-bucket equi-depth histogram of the rest per column.
/// `column_names` must parallel the table's codec column order.
/// This is the paper's "collect statistics before obtaining the
/// recommendations and before running the queries" step (Section 3.2.3).
TableStats CollectTableStats(const HeapTable& table,
                             const std::vector<std::string>& column_names);

}  // namespace tabbench

#endif  // TABBENCH_STORAGE_STATS_COLLECTOR_H_
