// Figure 15: bulk data-export speed (MB/s) to an external tool, for four
// mechanisms, varying the percentage of frozen blocks. Non-frozen blocks must
// be transactionally materialized before they can be shipped.
//
// Expected shape (paper): RDMA and Arrow-Flight are orders of magnitude
// faster than the wire protocols when everything is frozen; Flight degrades
// toward the vectorized protocol as the hot fraction grows; the PostgreSQL
// row protocol is slowest and insensitive to the frozen fraction (the
// serialization step dominates either way).
//
// Flight and RDMA plan the stream on one thread, writing hot blocks as they
// go, then copy the frozen blocks' buffers into the client on every worker
// (std::thread::hardware_concurrency() of them). Each cell is the median of
// an exporter's exports in a row: at least three, over at least 200 ms.
//
// Correctness gate: exits 1 if the client of any exporter receives a row
// count other than the table's — counted over the batches the client parsed
// or landed, or for RDMA (no client-side parse) the rows written — if a
// parsing client's sum of OL_O_ID differs from a scan's, or if RDMA's client
// holds other than the bytes it reported putting on the wire.

#include <algorithm>
#include <chrono>

#include "bench_util.h"
#include "common/rand_util.h"
#include "common/timer.h"
#include "export/protocols.h"
#include "transform/block_transformer.h"
#include "workload/tpcc/tpcc_schemas.h"

namespace mainline::bench {
namespace {

/// Each exporter exports at least kMinReps times and for at least
/// kMinMillis per frozen fraction; its median export is reported.
constexpr int kMinReps = 3;
constexpr uint64_t kMinMillis = 200;

/// Build an ORDER_LINE-shaped table spanning `num_blocks` blocks and freeze
/// the first `percent_frozen`% of them.
std::unique_ptr<Engine> BuildOrderLineTable(uint32_t num_blocks, uint32_t percent_frozen,
                                            catalog::SqlTable **out) {
  auto engine = std::make_unique<Engine>();
  auto *table = engine->catalog.GetTable(
      engine->catalog.CreateTable("order_line", workload::tpcc::OrderLineSchema()));
  const auto initializer = table->FullInitializer();
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  const uint32_t slots = table->UnderlyingTable().GetLayout().NumSlots();
  common::Xorshift rng(11);

  auto *txn = engine->txn_manager.BeginTransaction();
  for (uint64_t i = 0; i < static_cast<uint64_t>(num_blocks) * slots; i++) {
    using namespace workload;
    storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
    Set<int32_t>(row, tpcc::OL_O_ID, static_cast<int32_t>(i / 10));
    Set<int32_t>(row, tpcc::OL_D_ID, static_cast<int32_t>(i % 10 + 1));
    Set<int32_t>(row, tpcc::OL_W_ID, 1);
    Set<int32_t>(row, tpcc::OL_NUMBER, static_cast<int32_t>(i % 15 + 1));
    Set<int32_t>(row, tpcc::OL_I_ID, static_cast<int32_t>(rng.Uniform(1, 100000)));
    Set<int32_t>(row, tpcc::OL_SUPPLY_W_ID, 1);
    Set<uint64_t>(row, tpcc::OL_DELIVERY_D, i);
    Set<int8_t>(row, tpcc::OL_QUANTITY, 5);
    Set<double>(row, tpcc::OL_AMOUNT, static_cast<double>(rng.Uniform(1, 99999)) / 100.0);
    SetVarchar(row, tpcc::OL_DIST_INFO, rng.AlphaString(24, 24));
    table->Insert(txn, *row);
    if ((i + 1) % 100000 == 0) {
      engine->txn_manager.Commit(txn);
      txn = engine->txn_manager.BeginTransaction();
    }
  }
  engine->txn_manager.Commit(txn);
  engine->gc.FullGC();

  // Freeze the requested fraction.
  transform::BlockTransformer transformer(&engine->txn_manager, &engine->gc);
  auto blocks = table->UnderlyingTable().Blocks();
  const auto to_freeze = static_cast<size_t>(blocks.size() * percent_frozen / 100);
  for (size_t i = 0; i < to_freeze; i++) {
    transformer.ProcessGroup(&table->UnderlyingTable(), {blocks[i]}, nullptr);
  }
  *out = table;
  return engine;
}

/// Sum of OL_O_ID over a transactional scan of the table.
int64_t ScanOrderIdSum(Engine *engine, catalog::SqlTable *table) {
  const auto initializer = table->InitializerForColumns({workload::tpcc::OL_O_ID});
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  auto *txn = engine->txn_manager.BeginTransaction();
  int64_t sum = 0;
  for (auto it = table->begin(); !it.Done(); ++it) {
    storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
    if (table->Select(txn, *it, row)) sum += workload::Get<int32_t>(*row, 0);
  }
  engine->txn_manager.Commit(txn);
  return sum;
}

/// Sum of OL_O_ID over batches a client received: int32 as stored, or int64
/// where the client parsed text back into integers.
int64_t ClientOrderIdSum(const std::vector<std::shared_ptr<arrowlite::RecordBatch>> &batches) {
  int64_t sum = 0;
  for (const auto &batch : batches) {
    if (batch == nullptr) continue;
    const arrowlite::Array &ids = *batch->column(workload::tpcc::OL_O_ID);
    for (int64_t i = 0; i < batch->num_rows(); i++) {
      sum += ids.type() == arrowlite::Type::kInt64 ? ids.Value<int64_t>(i)
                                                   : ids.Value<int32_t>(i);
    }
  }
  return sum;
}

}  // namespace
}  // namespace mainline::bench

int main() {
  using namespace mainline::bench;
  using namespace mainline::exporter;
  const auto num_blocks = static_cast<uint32_t>(EnvInt("MAINLINE_F15_BLOCKS", 64));

  std::printf("== Figure 15: export speed (MB/s), ORDER_LINE-shaped table, %u blocks ==\n",
              num_blocks);
  std::printf("%-9s %10s %14s %18s %18s\n", "%frozen", "rdma", "arrow-flight",
              "vectorized-wire", "postgres-wire");

  int bad_exports = 0;
  for (const uint32_t frozen : {0u, 1u, 5u, 10u, 20u, 40u, 50u, 60u, 80u, 100u}) {
    mainline::catalog::SqlTable *table = nullptr;
    auto engine = BuildOrderLineTable(num_blocks, frozen, &table);
    const uint64_t table_rows =
        uint64_t{num_blocks} * table->UnderlyingTable().GetLayout().NumSlots();
    const int64_t table_id_sum = ScanOrderIdSum(engine.get(), table);
    // Generous client buffer: raw data is ~1 MB/block; text encodings bloat.
    ClientBuffer client(static_cast<uint64_t>(num_blocks + 4) * (4u << 20));

    double mbps[4];
    Exporter *exporters[4] = {nullptr, nullptr, nullptr, nullptr};
    RdmaExporter rdma(&client);
    ArrowFlightExporter flight(&client);
    VectorizedWireExporter vectorized(&client);
    PostgresWireExporter pg(&client);
    exporters[0] = &rdma;
    exporters[1] = &flight;
    exporters[2] = &vectorized;
    exporters[3] = &pg;
    const auto rows_of = [](const std::shared_ptr<mainline::arrowlite::RecordBatch> &batch) {
      return batch == nullptr ? uint64_t{0} : static_cast<uint64_t>(batch->num_rows());
    };
    // An export that follows another exporter's starts on cold caches and on
    // idle workers that take a few exports to get up to speed, a cost that
    // would otherwise fall on whichever exporter runs first.
    for (int i = 0; i < 4; i++) {
      std::vector<double> samples;
      const mainline::common::Timer timer;
      for (int rep = 0; rep < kMinReps || timer.Elapsed<std::chrono::milliseconds>() < kMinMillis;
           rep++) {
        const ExportResult result = exporters[i]->Export(table, &engine->txn_manager);
        uint64_t client_rows = result.rows;
        // What a parsing client holds; RDMA's client parses nothing.
        std::vector<std::shared_ptr<mainline::arrowlite::RecordBatch>> received;
        if (exporters[i] == &flight) {
          received = flight.ClientBatches();
        } else if (exporters[i] == &vectorized) {
          received = {vectorized.ClientBatch()};
        } else if (exporters[i] == &pg) {
          received = {pg.ClientBatch()};
        }
        if (exporters[i] != &rdma) {
          client_rows = 0;
          for (const auto &batch : received) client_rows += rows_of(batch);
        }
        if (client_rows != table_rows) {
          std::fprintf(stderr, "FAIL: %s client received %llu of %llu rows at %u%% frozen\n",
                       exporters[i]->Name(), static_cast<unsigned long long>(client_rows),
                       static_cast<unsigned long long>(table_rows), frozen);
          bad_exports++;
        }
        if (exporters[i] != &rdma && ClientOrderIdSum(received) != table_id_sum) {
          std::fprintf(stderr,
                       "FAIL: %s client's OL_O_ID sum %lld, scan's %lld at %u%% frozen\n",
                       exporters[i]->Name(), static_cast<long long>(ClientOrderIdSum(received)),
                       static_cast<long long>(table_id_sum), frozen);
          bad_exports++;
        }
        if (exporters[i] == &rdma && client.size() != result.wire_bytes) {
          std::fprintf(stderr, "FAIL: rdma client holds %llu bytes of %llu sent at %u%% frozen\n",
                       static_cast<unsigned long long>(client.size()),
                       static_cast<unsigned long long>(result.wire_bytes), frozen);
          bad_exports++;
        }
        // Throughput in terms of payload delivered to the client.
        samples.push_back(static_cast<double>(result.wire_bytes) / (1 << 20) /
                          (static_cast<double>(result.micros) / 1e6));
        engine->gc.FullGC();
      }
      std::nth_element(samples.begin(), samples.begin() + samples.size() / 2, samples.end());
      mbps[i] = samples[samples.size() / 2];
    }
    std::printf("%-9u %10.1f %14.1f %18.1f %18.1f\n", frozen, mbps[0], mbps[1], mbps[2],
                mbps[3]);
  }
  return bad_exports == 0 ? 0 : 1;
}
