#include "workload/tpcc/tpcc_db.h"

#include <memory>
#include <vector>

#include "catalog/sql_table.h"
#include "common/rand_util.h"
#include "common/worker_pool.h"
#include "index/bplus_tree.h"
#include "index/hash_index.h"
#include "index/index_key.h"
#include "storage/projected_row.h"
#include "storage/storage_defs.h"
#include "workload/row_util.h"
#include "workload/tpcc/tpcc_schemas.h"

namespace mainline::workload::tpcc {

namespace {

/// Loader-local projection buffer for one table's full row.
struct RowBuffer {
  explicit RowBuffer(catalog::SqlTable *table)
      : initializer(table->FullInitializer()), bytes(initializer.ProjectedRowSize() + 8) {}

  storage::ProjectedRow *Reset() { return initializer.InitializeRow(bytes.data()); }

  storage::ProjectedRowInitializer initializer;
  std::vector<byte> bytes;
};

/// TPC-C last-name generator (clause 4.3.2.3).
std::string LastName(int32_t num) {
  static const char *kSyllables[] = {"BAR", "OUGHT", "ABLE",  "PRI",   "PRES",
                                     "ESE", "ANTI",  "CALLY", "ATION", "EING"};
  return std::string(kSyllables[num / 100]) + kSyllables[(num / 10) % 10] +
         kSyllables[num % 10];
}

std::string ZipCode(common::Xorshift *rng) { return rng->NumericString(4, 4) + "11111"; }

/// Original data for 10% of I_DATA / S_DATA rows.
std::string DataString(common::Xorshift *rng) {
  std::string data = rng->AlphaString(26, 50);
  if (rng->Uniform(1, 10) == 1) {
    const auto pos = static_cast<size_t>(rng->Uniform(0, data.size() - 8));
    data.replace(pos, 8, "ORIGINAL");
  }
  return data;
}

}  // namespace

Database::Database(catalog::Catalog *catalog, const Config &config_in) : config(config_in) {
  warehouse = catalog->GetTable(catalog->CreateTable("warehouse", WarehouseSchema()));
  district = catalog->GetTable(catalog->CreateTable("district", DistrictSchema()));
  customer = catalog->GetTable(catalog->CreateTable("customer", CustomerSchema()));
  history = catalog->GetTable(catalog->CreateTable("history", HistorySchema()));
  new_order = catalog->GetTable(catalog->CreateTable("new_order", NewOrderSchema()));
  order = catalog->GetTable(catalog->CreateTable("order", OrderSchema()));
  order_line = catalog->GetTable(catalog->CreateTable("order_line", OrderLineSchema()));
  item = catalog->GetTable(catalog->CreateTable("item", ItemSchema()));
  stock = catalog->GetTable(catalog->CreateTable("stock", StockSchema()));

  // Each index stores its keys at the width its key builder produces.
  auto mk_hash = [&](const char *name, catalog::SqlTable *table, const index::IndexKey &key) {
    catalog->RegisterIndex(name, table->Oid(), index::MakeIndex<index::HashIndex>(key.Size()));
    return catalog->GetIndex(name);
  };
  auto mk_btree = [&](const char *name, catalog::SqlTable *table, const index::IndexKey &key) {
    catalog->RegisterIndex(name, table->Oid(), index::MakeIndex<index::BPlusTree>(key.Size()));
    return catalog->GetIndex(name);
  };
  warehouse_pk = mk_hash("warehouse_pk", warehouse, WarehouseKey(0));
  district_pk = mk_hash("district_pk", district, DistrictKey(0, 0));
  customer_pk = mk_hash("customer_pk", customer, CustomerKey(0, 0, 0));
  customer_name_idx =
      mk_btree("customer_name_idx", customer, CustomerNameKey(0, 0, "", "", 0));
  new_order_pk = mk_btree("new_order_pk", new_order, NewOrderKey(0, 0, 0));
  order_pk = mk_hash("order_pk", order, OrderKey(0, 0, 0));
  order_customer_idx = mk_btree("order_customer_idx", order, OrderCustomerKey(0, 0, 0, 0));
  order_line_pk = mk_btree("order_line_pk", order_line, OrderLineKey(0, 0, 0, 0));
  item_pk = mk_hash("item_pk", item, ItemKey(0));
  stock_pk = mk_hash("stock_pk", stock, StockKey(0, 0));
}

void Database::Load(transaction::TransactionManager *txn_manager, uint32_t num_threads) {
  LoadItems(txn_manager);
  // One thread (or none asked for) loads every warehouse on this one.
  common::WorkerPool pool(num_threads <= 1 ? 0 : num_threads);
  common::RunTasks(&pool, static_cast<uint64_t>(config.num_warehouses), [&](uint64_t w) {
    LoadWarehouse(txn_manager, static_cast<int32_t>(w) + 1);
  });
}

void Database::LoadItems(transaction::TransactionManager *txn_manager) {
  common::Xorshift rng(42);
  auto *txn = txn_manager->BeginTransaction();
  RowBuffer buffer(item);
  for (int32_t i = 1; i <= config.num_items; i++) {
    storage::ProjectedRow *row = buffer.Reset();
    Set<int32_t>(row, I_ID, i);
    Set<int32_t>(row, I_IM_ID, static_cast<int32_t>(rng.Uniform(1, 10000)));
    SetVarchar(row, I_NAME, rng.AlphaString(14, 24));
    Set<double>(row, I_PRICE, static_cast<double>(rng.Uniform(100, 10000)) / 100.0);
    SetVarchar(row, I_DATA, DataString(&rng));
    item_pk->Insert(ItemKey(i), item->Insert(txn, *row));
  }
  txn_manager->Commit(txn);
}

void Database::LoadWarehouse(transaction::TransactionManager *txn_manager, int32_t w_id) {
  common::Xorshift rng(static_cast<uint64_t>(w_id) * 7919);
  auto *txn = txn_manager->BeginTransaction();

  {  // WAREHOUSE row
    RowBuffer buffer(warehouse);
    storage::ProjectedRow *row = buffer.Reset();
    Set<int32_t>(row, W_ID, w_id);
    SetVarchar(row, W_NAME, rng.AlphaString(6, 10));
    SetVarchar(row, W_STREET_1, rng.AlphaString(10, 20));
    SetVarchar(row, W_STREET_2, rng.AlphaString(10, 20));
    SetVarchar(row, W_CITY, rng.AlphaString(10, 20));
    SetVarchar(row, W_STATE, rng.AlphaString(2, 2));
    SetVarchar(row, W_ZIP, ZipCode(&rng));
    Set<double>(row, W_TAX, static_cast<double>(rng.Uniform(0, 2000)) / 10000.0);
    Set<double>(row, W_YTD, 300000.0);
    warehouse_pk->Insert(WarehouseKey(w_id), warehouse->Insert(txn, *row));
  }

  {  // STOCK rows
    RowBuffer buffer(stock);
    for (int32_t i = 1; i <= config.num_items; i++) {
      storage::ProjectedRow *row = buffer.Reset();
      Set<int32_t>(row, S_I_ID, i);
      Set<int32_t>(row, S_W_ID, w_id);
      Set<int16_t>(row, S_QUANTITY, static_cast<int16_t>(rng.Uniform(10, 100)));
      for (uint16_t d = S_DIST_01; d <= S_DIST_10; d++) {
        SetVarchar(row, d, rng.AlphaString(24, 24));
      }
      Set<double>(row, S_YTD, 0.0);
      Set<int16_t>(row, S_ORDER_CNT, 0);
      Set<int16_t>(row, S_REMOTE_CNT, 0);
      SetVarchar(row, S_DATA, DataString(&rng));
      stock_pk->Insert(StockKey(w_id, i), stock->Insert(txn, *row));
    }
  }

  RowBuffer district_buffer(district);
  RowBuffer customer_buffer(customer);
  RowBuffer history_buffer(history);
  RowBuffer order_buffer(order);
  RowBuffer order_line_buffer(order_line);
  RowBuffer new_order_buffer(new_order);

  for (int32_t d_id = 1; d_id <= config.districts_per_warehouse; d_id++) {
    {  // DISTRICT row
      storage::ProjectedRow *row = district_buffer.Reset();
      Set<int32_t>(row, D_ID, d_id);
      Set<int32_t>(row, D_W_ID, w_id);
      SetVarchar(row, D_NAME, rng.AlphaString(6, 10));
      SetVarchar(row, D_STREET_1, rng.AlphaString(10, 20));
      SetVarchar(row, D_STREET_2, rng.AlphaString(10, 20));
      SetVarchar(row, D_CITY, rng.AlphaString(10, 20));
      SetVarchar(row, D_STATE, rng.AlphaString(2, 2));
      SetVarchar(row, D_ZIP, ZipCode(&rng));
      Set<double>(row, D_TAX, static_cast<double>(rng.Uniform(0, 2000)) / 10000.0);
      Set<double>(row, D_YTD, 30000.0);
      Set<int32_t>(row, D_NEXT_O_ID, config.orders_per_district + 1);
      district_pk->Insert(DistrictKey(w_id, d_id), district->Insert(txn, *row));
    }

    // CUSTOMER + HISTORY rows
    for (int32_t c_id = 1; c_id <= config.customers_per_district; c_id++) {
      const std::string last = LastName(
          c_id <= 1000 ? c_id - 1 : static_cast<int32_t>(rng.NuRand(255, 0, 999, 123)));
      const std::string first = rng.AlphaString(8, 16);
      storage::ProjectedRow *row = customer_buffer.Reset();
      Set<int32_t>(row, C_ID, c_id);
      Set<int32_t>(row, C_D_ID, d_id);
      Set<int32_t>(row, C_W_ID, w_id);
      SetVarchar(row, C_FIRST, first);
      SetVarchar(row, C_MIDDLE, "OE");
      SetVarchar(row, C_LAST, last);
      SetVarchar(row, C_STREET_1, rng.AlphaString(10, 20));
      SetVarchar(row, C_STREET_2, rng.AlphaString(10, 20));
      SetVarchar(row, C_CITY, rng.AlphaString(10, 20));
      SetVarchar(row, C_STATE, rng.AlphaString(2, 2));
      SetVarchar(row, C_ZIP, ZipCode(&rng));
      SetVarchar(row, C_PHONE, rng.NumericString(16, 16));
      Set<uint64_t>(row, C_SINCE, 0);
      SetVarchar(row, C_CREDIT, rng.Uniform(1, 10) == 1 ? "BC" : "GC");
      Set<double>(row, C_CREDIT_LIM, 50000.0);
      Set<double>(row, C_DISCOUNT, static_cast<double>(rng.Uniform(0, 5000)) / 10000.0);
      Set<double>(row, C_BALANCE, -10.0);
      Set<double>(row, C_YTD_PAYMENT, 10.0);
      Set<int16_t>(row, C_PAYMENT_CNT, 1);
      Set<int16_t>(row, C_DELIVERY_CNT, 0);
      SetVarchar(row, C_DATA, rng.AlphaString(300, 500));
      const storage::TupleSlot slot = customer->Insert(txn, *row);
      customer_pk->Insert(CustomerKey(w_id, d_id, c_id), slot);
      customer_name_idx->Insert(CustomerNameKey(w_id, d_id, last, first, c_id), slot);

      storage::ProjectedRow *h_row = history_buffer.Reset();
      Set<int32_t>(h_row, H_C_ID, c_id);
      Set<int32_t>(h_row, H_C_D_ID, d_id);
      Set<int32_t>(h_row, H_C_W_ID, w_id);
      Set<int32_t>(h_row, H_D_ID, d_id);
      Set<int32_t>(h_row, H_W_ID, w_id);
      Set<uint64_t>(h_row, H_DATE, 0);
      Set<double>(h_row, H_AMOUNT, 10.0);
      SetVarchar(h_row, H_DATA, rng.AlphaString(12, 24));
      history->Insert(txn, *h_row);
    }

    // Initial ORDERs over a permutation of customers; the last third are
    // undelivered and enter NEW_ORDER.
    std::vector<int32_t> customer_perm(static_cast<size_t>(config.customers_per_district));
    for (size_t i = 0; i < customer_perm.size(); i++) {
      customer_perm[i] = static_cast<int32_t>(i + 1);
    }
    for (size_t i = customer_perm.size(); i > 1; i--) {
      std::swap(customer_perm[i - 1], customer_perm[rng.Uniform(0, i - 1)]);
    }

    const int32_t undelivered_from = config.orders_per_district * 2 / 3 + 1;
    for (int32_t o_id = 1; o_id <= config.orders_per_district; o_id++) {
      const int32_t c_id = customer_perm[static_cast<size_t>(o_id - 1)];
      const auto ol_cnt = static_cast<int8_t>(rng.Uniform(5, 15));
      const bool delivered = o_id < undelivered_from;

      storage::ProjectedRow *row = order_buffer.Reset();
      Set<int32_t>(row, O_ID, o_id);
      Set<int32_t>(row, O_D_ID, d_id);
      Set<int32_t>(row, O_W_ID, w_id);
      Set<int32_t>(row, O_C_ID, c_id);
      Set<uint64_t>(row, O_ENTRY_D, 0);
      if (delivered) {
        Set<int32_t>(row, O_CARRIER_ID, static_cast<int32_t>(rng.Uniform(1, 10)));
      } else {
        row->SetNull(O_CARRIER_ID);
      }
      Set<int8_t>(row, O_OL_CNT, ol_cnt);
      Set<int8_t>(row, O_ALL_LOCAL, 1);
      const storage::TupleSlot o_slot = order->Insert(txn, *row);
      order_pk->Insert(OrderKey(w_id, d_id, o_id), o_slot);
      order_customer_idx->Insert(OrderCustomerKey(w_id, d_id, c_id, o_id), o_slot);

      for (int32_t ol = 1; ol <= ol_cnt; ol++) {
        storage::ProjectedRow *ol_row = order_line_buffer.Reset();
        Set<int32_t>(ol_row, OL_O_ID, o_id);
        Set<int32_t>(ol_row, OL_D_ID, d_id);
        Set<int32_t>(ol_row, OL_W_ID, w_id);
        Set<int32_t>(ol_row, OL_NUMBER, ol);
        Set<int32_t>(ol_row, OL_I_ID, static_cast<int32_t>(rng.Uniform(1, config.num_items)));
        Set<int32_t>(ol_row, OL_SUPPLY_W_ID, w_id);
        if (delivered) {
          Set<uint64_t>(ol_row, OL_DELIVERY_D, 0);
        } else {
          ol_row->SetNull(OL_DELIVERY_D);
        }
        Set<int8_t>(ol_row, OL_QUANTITY, 5);
        Set<double>(ol_row, OL_AMOUNT,
                    delivered ? 0.0 : static_cast<double>(rng.Uniform(1, 999999)) / 100.0);
        SetVarchar(ol_row, OL_DIST_INFO, rng.AlphaString(24, 24));
        order_line_pk->Insert(OrderLineKey(w_id, d_id, o_id, ol),
                              order_line->Insert(txn, *ol_row));
      }

      if (!delivered) {
        storage::ProjectedRow *no_row = new_order_buffer.Reset();
        Set<int32_t>(no_row, NO_O_ID, o_id);
        Set<int32_t>(no_row, NO_D_ID, d_id);
        Set<int32_t>(no_row, NO_W_ID, w_id);
        new_order_pk->Insert(NewOrderKey(w_id, d_id, o_id), new_order->Insert(txn, *no_row));
      }
    }
  }

  txn_manager->Commit(txn);
}

}  // namespace mainline::workload::tpcc
