// Durability: run transactions with write-ahead logging and group commit,
// "crash", then recover the database from the log in a fresh engine. It
// recovers twice: from a copy of the log taken while the engine ran (as a
// crash would leave it, zeroed tail included) and from the log a clean
// shutdown left.
//
//   $ ./build/examples/durability

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "catalog/catalog.h"
#include "gc/garbage_collector.h"
#include "logging/log_manager.h"
#include "transaction/recovery_manager.h"
#include "transaction/transaction_manager.h"
#include "workload/row_util.h"

using namespace mainline;

namespace {
// Relative to the working directory, so concurrent runs (e.g. two build
// trees' smoke tests) don't clobber each other's log.
const char *kLogPath = "mainline_durability_demo.log";
const char *kRunningCopyPath = "mainline_durability_demo.running.log";

catalog::Schema AccountsSchema() {
  return catalog::Schema({{"id", catalog::TypeId::kBigInt},
                          {"owner", catalog::TypeId::kVarchar},
                          {"balance", catalog::TypeId::kDecimal}});
}

/// Recover the log at `path` into a fresh engine and report what it holds.
/// \return the number of accounts recovered
uint64_t RecoverAccounts(const char *path) {
  storage::BlockStore block_store(100, 10);
  storage::RecordBufferSegmentPool buffer_pool(100000, 100);
  catalog::Catalog catalog(&block_store);
  transaction::TransactionManager txn_manager(&buffer_pool, true, nullptr);
  gc::GarbageCollector gc(&txn_manager);
  auto *accounts = catalog.GetTable(catalog.CreateTable("accounts", AccountsSchema()));

  transaction::RecoveryManager recovery(catalog.TableMap(), &txn_manager);
  const uint64_t replayed = recovery.Recover(path);

  const auto initializer = accounts->FullInitializer();
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  auto *txn = txn_manager.BeginTransaction();
  uint64_t rows = 0;
  double total = 0;
  for (auto it = accounts->begin(); !it.Done(); ++it) {
    storage::ProjectedRow *r = initializer.InitializeRow(buffer.data());
    if (!accounts->Select(txn, *it, r)) continue;
    rows++;
    total += workload::Get<double>(*r, 2);
  }
  txn_manager.Commit(txn);
  gc.FullGC();

  std::printf("lifetime 2 (%s): replayed %lu transactions -> %lu rows, total balance %.2f\n",
              path, static_cast<unsigned long>(replayed), static_cast<unsigned long>(rows),
              total);
  return rows;
}
}  // namespace

int main() {
  // ---- lifetime 1: transactions with WAL ----------------------------------
  {
    storage::BlockStore block_store(100, 10);
    storage::RecordBufferSegmentPool buffer_pool(100000, 100);
    catalog::Catalog catalog(&block_store);
    logging::LogManager log_manager(kLogPath);
    transaction::TransactionManager txn_manager(&buffer_pool, true, &log_manager);
    log_manager.SetTableResolver([&](catalog::table_oid_t oid) {
      return &catalog.GetTable(oid)->UnderlyingTable();
    });
    log_manager.Start();

    auto *accounts = catalog.GetTable(catalog.CreateTable("accounts", AccountsSchema()));
    const auto initializer = accounts->FullInitializer();
    std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);

    std::atomic<int> durable{0};
    auto on_durable = [](void *arg) { static_cast<std::atomic<int> *>(arg)->fetch_add(1); };

    for (int64_t i = 0; i < 100; i++) {
      auto *txn = txn_manager.BeginTransaction();
      storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
      workload::Set<int64_t>(row, 0, i);
      workload::SetVarchar(row, 1, "account-holder-number-" + std::to_string(i));
      workload::Set<double>(row, 2, 1000.0 + static_cast<double>(i));
      accounts->Insert(txn, *row);
      // The result is withheld from the "client" until the commit record is
      // on disk; the callback signals durability (Section 3.4).
      txn_manager.Commit(txn, on_durable, &durable);
    }
    // An uncommitted transaction that will be lost in the crash:
    auto *doomed = txn_manager.BeginTransaction();
    storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
    workload::Set<int64_t>(row, 0, 424242);
    workload::SetVarchar(row, 1, "lost to the crash");
    workload::Set<double>(row, 2, 0.0);
    accounts->Insert(doomed, *row);
    // (no commit — simulated crash below)

    // What a crash would leave: the log as it stands once every commit is
    // durable, with the zeroed region past its last frame.
    while (durable.load() < 100) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::filesystem::copy_file(kLogPath, kRunningCopyPath,
                               std::filesystem::copy_options::overwrite_existing);

    log_manager.Shutdown();
    std::printf("lifetime 1: 100 commits, %d durable callbacks fired, %lu log bytes\n",
                durable.load(), static_cast<unsigned long>(log_manager.BytesWritten()));
    txn_manager.Abort(doomed);  // tidy shutdown of the demo process
  }

  // ---- lifetime 2: recover ------------------------------------------------
  const uint64_t from_copy = RecoverAccounts(kRunningCopyPath);
  const uint64_t from_log = RecoverAccounts(kLogPath);
  std::remove(kRunningCopyPath);
  std::remove(kLogPath);
  return from_copy == 100 && from_log == 100 ? 0 : 1;
}
