#include "sql/metrics_result.h"

#include "obs/metrics.h"

namespace hazy::sql {

ResultSet MetricsResultSet(const std::string& like) {
  ResultSet rs;
  rs.SetColumns({{"metric", storage::ColumnType::kText},
                 {"labels", storage::ColumnType::kText},
                 {"kind", storage::ColumnType::kText},
                 {"value", storage::ColumnType::kDouble}});
  for (const obs::Sample& s : obs::Registry::Global().Snapshot()) {
    if (!like.empty() && s.name.find(like) == std::string::npos) continue;
    rs.rows.AppendText(0, s.name);
    rs.rows.AppendText(1, s.labels);
    rs.rows.AppendText(2, obs::SampleKindName(s.kind));
    rs.rows.AppendDouble(3, s.value);
  }
  return rs;
}

ResultSet TraceResultSet(const std::vector<obs::TraceRow>& rows) {
  ResultSet rs;
  rs.SetColumns({{"depth", storage::ColumnType::kInt64},
                 {"span", storage::ColumnType::kText},
                 {"count", storage::ColumnType::kInt64},
                 {"total_ms", storage::ColumnType::kDouble}});
  rs.rows.Reserve(rows.size());
  for (const obs::TraceRow& row : rows) {
    rs.rows.AppendInt64(0, static_cast<int64_t>(row.depth));
    rs.rows.AppendText(1, row.span);
    rs.rows.AppendInt64(2, static_cast<int64_t>(row.count));
    rs.rows.AppendDouble(3, row.total_ms);
  }
  return rs;
}

}  // namespace hazy::sql
