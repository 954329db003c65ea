// Figure 1: data transformation costs — time to move a TPC-H LINEITEM table
// from the OLTP system into an analytics tool's columnar memory, comparing:
//
//   In-Memory : data already in the analytics runtime's memory, landed via
//               the Arrow-native zero-copy path (the theoretical best case)
//   CSV       : export to a CSV file on disk, then parse it back
//   Row wire  : PostgreSQL-style row protocol over a connection ("ODBC")
//
// Expected shape (paper, SF10): In-Memory ~8s, CSV ~284s, ODBC ~1380s — i.e.
// the textual/row paths are orders of magnitude slower, with query processing
// itself a negligible fraction.
//
// Correctness gate: exits 1 if the batch loaded back from CSV or the batch
// the row-wire client parsed holds a row count or an L_ORDERKEY sum other
// than a transactional scan's.

#include <cstdint>
#include <fstream>
#include <utility>
#include <vector>

#include "arrowlite/csv.h"
#include "bench_util.h"
#include "export/protocols.h"
#include "transform/block_transformer.h"
#include "workload/tpch/lineitem.h"

namespace mainline::bench {
namespace {

/// Rows and the sum of L_ORDERKEY over a transactional scan of `table`.
std::pair<uint64_t, int64_t> ScanRowsAndOrderKeySum(Engine *engine, catalog::SqlTable *table) {
  const auto initializer = table->InitializerForColumns({workload::tpch::L_ORDERKEY});
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  auto *txn = engine->txn_manager.BeginTransaction();
  uint64_t rows = 0;
  int64_t sum = 0;
  for (auto it = table->begin(); !it.Done(); ++it) {
    storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
    if (!table->Select(txn, *it, row)) continue;
    rows++;
    sum += workload::Get<int64_t>(*row, 0);
  }
  engine->txn_manager.Commit(txn);
  return {rows, sum};
}

/// Check a client's batch against the scan; \return 1 on a mismatch, after
/// saying so on stderr, else 0.
int CheckClient(const char *client, const arrowlite::RecordBatch &batch,
                std::pair<uint64_t, int64_t> scan) {
  const arrowlite::Array &keys = *batch.column(workload::tpch::L_ORDERKEY);
  int64_t sum = 0;
  for (int64_t i = 0; i < batch.num_rows(); i++) sum += keys.Value<int64_t>(i);
  const auto rows = static_cast<uint64_t>(batch.num_rows());
  if (rows == scan.first && sum == scan.second) return 0;
  std::fprintf(stderr, "FAIL: %s holds %llu rows, L_ORDERKEY sum %lld; a scan %llu rows, %lld\n",
               client, static_cast<unsigned long long>(rows), static_cast<long long>(sum),
               static_cast<unsigned long long>(scan.first), static_cast<long long>(scan.second));
  return 1;
}

}  // namespace
}  // namespace mainline::bench

int main() {
  using namespace mainline;
  using namespace mainline::bench;
  // The paper uses SF10 (60M rows); override with MAINLINE_F1_ROWS.
  const auto rows = static_cast<uint64_t>(EnvInt("MAINLINE_F1_ROWS", 1000000));

  Engine engine;
  std::printf("== Figure 1: loading LINEITEM (%lu rows) into an analytics tool ==\n",
              static_cast<unsigned long>(rows));
  catalog::SqlTable *table =
      workload::tpch::GenerateLineItem(&engine.catalog, &engine.txn_manager, rows);
  engine.gc.FullGC();

  // Freeze everything: the table is cold, as in the paper's warmed setup.
  transform::BlockTransformer transformer(&engine.txn_manager, &engine.gc);
  transformer.ProcessGroup(&table->UnderlyingTable(), table->UnderlyingTable().Blocks(),
                           nullptr);

  const uint64_t capacity = (table->UnderlyingTable().NumBlocks() + 4) * (8ull << 20);
  const std::pair<uint64_t, int64_t> scan = ScanRowsAndOrderKeySum(&engine, table);
  int bad_clients = 0;

  // (1) In-Memory: Arrow-native zero-copy landing.
  double in_memory_secs;
  {
    exporter::ClientBuffer client(capacity);
    exporter::ArrowFlightExporter flight(&client);
    const auto result = flight.Export(table, &engine.txn_manager);
    in_memory_secs = static_cast<double>(result.micros) / 1e6;
  }

  // (2) CSV: write a CSV file, then parse it back into columnar arrays.
  double csv_export_secs, csv_load_secs;
  {
    exporter::ClientBuffer client(capacity);
    exporter::ArrowFlightExporter flight(&client);
    flight.Export(table, &engine.txn_manager);
    const auto &batches = flight.ClientBatches();
    std::shared_ptr<arrowlite::RecordBatch> loaded;

    csv_export_secs = TimeSeconds([&] {
      std::ofstream out("/tmp/mainline_lineitem.csv");
      for (size_t i = 0; i < batches.size(); i++) {
        arrowlite::Csv::WriteBatch(*batches[i], &out, /*header=*/i == 0);
      }
    });
    csv_load_secs = TimeSeconds([&] {
      std::ifstream in("/tmp/mainline_lineitem.csv");
      loaded = arrowlite::Csv::ReadBatch(batches[0]->schema(), &in);
    });
    bad_clients += CheckClient("the CSV-loaded batch", *loaded, scan);
    std::remove("/tmp/mainline_lineitem.csv");
  }

  // (3) Row wire protocol ("ODBC" path): per-row text serialization + parse.
  double odbc_secs;
  {
    exporter::ClientBuffer client(capacity * 2);
    exporter::PostgresWireExporter pg(&client);
    const auto result = pg.Export(table, &engine.txn_manager);
    odbc_secs = static_cast<double>(result.micros) / 1e6;
    bad_clients += CheckClient("the row-wire client", *pg.ClientBatch(), scan);
  }

  std::printf("%-24s %10.2f s\n", "In-Memory (Arrow)", in_memory_secs);
  std::printf("%-24s %10.2f s  (export %.2f s + load %.2f s)\n", "CSV",
              csv_export_secs + csv_load_secs, csv_export_secs, csv_load_secs);
  std::printf("%-24s %10.2f s\n", "Row wire protocol", odbc_secs);
  return bad_clients == 0 ? 0 : 1;
}
