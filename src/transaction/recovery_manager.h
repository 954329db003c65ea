#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/macros.h"
#include "common/typedefs.h"
#include "storage/storage_defs.h"

namespace mainline::storage {
class DataTable;
}

namespace mainline::transaction {

class TransactionManager;

/// Rebuilds table contents from a serialized write-ahead log (Section 3.4).
///
/// The log has no log sequence numbers: it holds whole transactions in
/// increasing commit-timestamp order. Recovery is one pass over its frames
/// (logging::FrameHeader), with no grouping or sort: each record is parsed
/// into a reused ProjectedRow and applied to the open replay transaction,
/// which its commit record commits. Of its own it holds one frame plus the
/// slot map; replayed transactions go to the GC queue like any other.
///
/// Replay stops, rolling back the open transaction, at the first of:
/// - a frame that is missing or damaged: a zero length (a running log's
///   zeroed tail), a frame cut short, or a CRC mismatch (a torn write);
/// - an unknown type byte, or a record cut short by its frame;
/// - a table oid missing from `tables`, a column id past its layout, or a
///   redo whose column ids are missing or not ascending;
/// - a commit timestamp not above the previous one;
/// - a record whose begin timestamp is not the open transaction's;
/// - an update or delete of a slot no live replayed row holds, or a
///   replayed write that fails.
/// So a table left out of `tables` loses its first logged transaction and
/// every later one, for all tables. Register every table the log names.
///
/// TupleSlots in the log are physical addresses from the previous process
/// lifetime; the recovery manager remaps them to freshly inserted slots as it
/// replays.
class RecoveryManager {
 public:
  /// \param tables map from table oid to the (empty) table to replay into;
  ///        must hold every table the log names, since a record naming a
  ///        missing oid ends the replay
  /// \param txn_manager transaction manager of the recovering instance. It
  ///        must have no log manager: replay writes through the DataTable,
  ///        which logs every write of a logging-enabled transaction, so a
  ///        logging manager would log the replayed writes again
  RecoveryManager(std::unordered_map<catalog::table_oid_t, storage::DataTable *> tables,
                  TransactionManager *txn_manager)
      : tables_(std::move(tables)), txn_manager_(txn_manager) {}

  DISALLOW_COPY_AND_MOVE(RecoveryManager)

  /// Replay the log at `log_file_path`.
  /// \return number of transactions replayed before the replay stopped.
  uint64_t Recover(const std::string &log_file_path);

 private:
  std::unordered_map<catalog::table_oid_t, storage::DataTable *> tables_;
  TransactionManager *txn_manager_;
  std::unordered_map<storage::TupleSlot, storage::TupleSlot> slot_map_;
};

}  // namespace mainline::transaction
