#pragma once

#include <memory>
#include <thread>
#include <vector>

#include "arrowlite/array.h"
#include "catalog/sql_table.h"
#include "common/worker_pool.h"
#include "export/exporter.h"
#include "transaction/transaction_manager.h"

namespace mainline::exporter {

/// Row-oriented, text-encoded wire protocol modeled on the PostgreSQL v3
/// protocol: a RowDescription message followed by one DataRow message per
/// tuple, every value rendered as text (arrowlite::ValueText). The client
/// parses each value back, integers as int64.
/// This is the (4) baseline of Figure 15 and the "ODBC" path of Figure 1.
class PostgresWireExporter final : public Exporter {
 public:
  /// \param client sink standing in for the client connection
  explicit PostgresWireExporter(ClientBuffer *client) : client_(client) {}

  ExportResult Export(catalog::SqlTable *table,
                      transaction::TransactionManager *txn_manager) override;
  const char *Name() const override { return "postgres-wire"; }

  /// \return the batch the client materialized from the wire bytes (set by
  /// the last Export call).
  const std::shared_ptr<arrowlite::RecordBatch> &ClientBatch() const { return client_batch_; }

 private:
  ClientBuffer *client_;
  std::shared_ptr<arrowlite::RecordBatch> client_batch_;
};

/// Column-batch wire protocol in the style of Raasveldt & Mühleisen's
/// vectorized client protocol [46]: one 'V' message per block, holding each
/// column's null flags and then its values, encoded value by value —
/// fixed-width values raw (zeros under a null), strings length-prefixed. The
/// client still re-assembles arrays from the wire format value by value, at
/// the table's own Arrow types.
class VectorizedWireExporter final : public Exporter {
 public:
  explicit VectorizedWireExporter(ClientBuffer *client) : client_(client) {}

  ExportResult Export(catalog::SqlTable *table,
                      transaction::TransactionManager *txn_manager) override;
  const char *Name() const override { return "vectorized-wire"; }

  const std::shared_ptr<arrowlite::RecordBatch> &ClientBatch() const { return client_batch_; }

 private:
  ClientBuffer *client_;
  std::shared_ptr<arrowlite::RecordBatch> client_batch_;
};

/// The workers that run the copy step of an Arrow-native export (see
/// Exporter): the caller's pool, which must be otherwise idle during Export,
/// or, given none, a pool of std::thread::hardware_concurrency() workers
/// created on the first Export and owned here.
class CopyWorkers {
 public:
  explicit CopyWorkers(common::WorkerPool *pool) : pool_(pool) {}

  common::WorkerPool *Get() {
    if (pool_ == nullptr) {
      const uint32_t hw = std::thread::hardware_concurrency();
      owned_ = std::make_unique<common::WorkerPool>(hw == 0 ? 1 : hw);
      pool_ = owned_.get();
    }
    return pool_;
  }

 private:
  common::WorkerPool *pool_;
  std::unique_ptr<common::WorkerPool> owned_;
};

/// Arrow-native RPC in the style of Arrow Flight: frozen blocks' buffers go
/// onto the wire verbatim through the IPC stream writer (no per-value
/// encoding), and the client lands them in place: every client buffer is a
/// view into the ClientBuffer's wire bytes, with no allocation, copy or
/// parse. Hot blocks are transactionally materialized first.
///
/// Export plans the stream on the calling thread (the schema message goes
/// out, each batch message is sized by a dry run of the IpcStreamWriter at
/// its offset, a hot block's is written at once), then writes the frozen
/// blocks' batch messages into the ClientBuffer on every worker, each worker
/// continuing the stream at its blocks' offsets and releasing each block's
/// read lock once its message is in; then the client lands the stream. The
/// wire bytes equal a one-thread IpcStreamWriter's.
class ArrowFlightExporter final : public Exporter {
 public:
  /// \param client sink standing in for the client connection
  /// \param pool workers for the copy step; nullptr for an owned pool
  explicit ArrowFlightExporter(ClientBuffer *client, common::WorkerPool *pool = nullptr)
      : client_(client), workers_(pool) {}

  ExportResult Export(catalog::SqlTable *table,
                      transaction::TransactionManager *txn_manager) override;
  const char *Name() const override { return "arrow-flight"; }

  /// Batches the client received, as views into the ClientBuffer: valid
  /// until that buffer is next Reset — by the next Export of this or any
  /// other exporter sharing it.
  const std::vector<std::shared_ptr<arrowlite::RecordBatch>> &ClientBatches() const {
    return client_batches_;
  }

 private:
  ClientBuffer *client_;
  CopyWorkers workers_;
  std::vector<std::shared_ptr<arrowlite::RecordBatch>> client_batches_;
};

/// Simulated client-side RDMA: the server writes block buffers straight into
/// the client's registered memory with no framing and no serialization; hot
/// blocks are materialized first. A memcpy into the ClientBuffer substitutes
/// for the RDMA NIC and its one-sided writes, preserving the protocol cost
/// structure Figure 15 isolates (zero serialization, no CPU-side encode).
/// The client receives every buffer in block and column order. Export runs
/// the same two steps as ArrowFlightExporter: plan on the calling thread,
/// copy the frozen blocks on every worker, like a NIC with one queue per
/// worker.
class RdmaExporter final : public Exporter {
 public:
  /// \param pool workers for the copy step; nullptr for an owned pool
  explicit RdmaExporter(ClientBuffer *client, common::WorkerPool *pool = nullptr)
      : client_(client), workers_(pool) {}

  ExportResult Export(catalog::SqlTable *table,
                      transaction::TransactionManager *txn_manager) override;
  const char *Name() const override { return "rdma"; }

 private:
  ClientBuffer *client_;
  CopyWorkers workers_;
};

}  // namespace mainline::exporter
