// TPC-C++ tests (§5.3): schema encoding, loader cardinalities, the six
// transaction programs' semantics, the §5.3.3 Credit Check anomaly, and the
// spec consistency conditions under concurrent execution.

#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "src/sgt/mvsg.h"
#include "src/workloads/tpcc_workload.h"
#include "tests/test_util.h"

namespace ssidb::workloads::tpcc {
namespace {

TEST(TpccSchemaTest, RowEncodingsRoundTrip) {
  WarehouseRow w{.name = "wh", .tax_bp = 1234, .ytd_cents = 987654321};
  WarehouseRow w2;
  ASSERT_TRUE(WarehouseRow::Decode(w.Encode(), &w2));
  EXPECT_EQ(w2.name, "wh");
  EXPECT_EQ(w2.tax_bp, 1234);
  EXPECT_EQ(w2.ytd_cents, 987654321);

  DistrictRow d{.name = "d", .tax_bp = 1, .ytd_cents = 2, .next_o_id = 3001};
  DistrictRow d2;
  ASSERT_TRUE(DistrictRow::Decode(d.Encode(), &d2));
  EXPECT_EQ(d2.next_o_id, 3001u);

  CustomerRow c;
  c.first = "first";
  c.last = "BARBARBAR";
  c.credit_lim_cents = 5000000;
  c.discount_bp = 432;
  c.balance_cents = -1000;
  c.ytd_payment_cents = 777;
  c.payment_cnt = 3;
  c.delivery_cnt = 2;
  CustomerRow c2;
  ASSERT_TRUE(CustomerRow::Decode(c.Encode(), &c2));
  EXPECT_EQ(c2.last, "BARBARBAR");
  EXPECT_EQ(c2.balance_cents, -1000);
  EXPECT_EQ(c2.delivery_cnt, 2u);

  // The partitioned credit byte (§5.3.3).
  Credit credit = Credit::kGood;
  ASSERT_TRUE(DecodeCredit(EncodeCredit(Credit::kBad), &credit));
  EXPECT_EQ(credit, Credit::kBad);
  EXPECT_FALSE(DecodeCredit("", &credit));
  EXPECT_FALSE(DecodeCredit("xy", &credit));

  ItemRow i{.name = "item", .price_cents = 500, .data = "data"};
  ItemRow i2;
  ASSERT_TRUE(ItemRow::Decode(i.Encode(), &i2));
  EXPECT_EQ(i2.price_cents, 500);

  StockRow s{.quantity = -3, .ytd = 10, .order_cnt = 4, .remote_cnt = 1,
             .data = "sd"};
  StockRow s2;
  ASSERT_TRUE(StockRow::Decode(s.Encode(), &s2));
  EXPECT_EQ(s2.quantity, -3);  // Quantities may go negative pre-restock.
  EXPECT_EQ(s2.remote_cnt, 1u);

  OrderRow o{.c_id = 9, .carrier_id = 0, .ol_cnt = 7, .entry_d = 1234};
  OrderRow o2;
  ASSERT_TRUE(OrderRow::Decode(o.Encode(), &o2));
  EXPECT_EQ(o2.ol_cnt, 7u);

  OrderLineRow l{.i_id = 55, .supply_w_id = 2, .quantity = 6,
                 .amount_cents = 4242, .delivery_d = 0};
  OrderLineRow l2;
  ASSERT_TRUE(OrderLineRow::Decode(l.Encode(), &l2));
  EXPECT_EQ(l2.amount_cents, 4242);
}

TEST(TpccSchemaTest, KeysOrderByTupleComponents) {
  EXPECT_LT(OrderKey(1, 1, 5), OrderKey(1, 1, 6));
  EXPECT_LT(OrderKey(1, 1, 999), OrderKey(1, 2, 0));
  EXPECT_LT(OrderKey(1, 10, 999), OrderKey(2, 1, 0));
  EXPECT_LT(OrderLineKey(1, 1, 5, 1), OrderLineKey(1, 1, 5, 2));
  EXPECT_LT(OrderLineKey(1, 1, 5, 15), OrderLineKey(1, 1, 6, 1));
}

TEST(TpccSchemaTest, OrderIdFromKeyRecoversTrailingComponent) {
  EXPECT_EQ(OrderIdFromKey(OrderKey(3, 7, 12345)), 12345u);
  EXPECT_EQ(OrderIdFromKey(NewOrderKey(1, 1, 1)), 1u);
  EXPECT_EQ(OrderIdFromKey(OrderCustomerKey(1, 2, 3, 77)), 77u);
}

TEST(TpccSchemaTest, CustomerNamePrefixCoversAllIds) {
  const std::string prefix = CustomerNamePrefix(1, 2, "BARBARBAR");
  const std::string k1 = CustomerNameKey(1, 2, "BARBARBAR", 1);
  const std::string k2 = CustomerNameKey(1, 2, "BARBARBAR", 4000000);
  EXPECT_EQ(k1.compare(0, prefix.size(), prefix), 0);
  EXPECT_EQ(k2.compare(0, prefix.size(), prefix), 0);
  // A different name does not share the prefix.
  const std::string other = CustomerNameKey(1, 2, "BARBAROUGHT", 1);
  EXPECT_NE(other.compare(0, prefix.size(), prefix), 0);
}

TEST(TpccSchemaTest, LastNameSyllables) {
  EXPECT_EQ(LastName(0), "BARBARBAR");
  EXPECT_EQ(LastName(1), "BARBAROUGHT");
  EXPECT_EQ(LastName(371), "PRICALLYOUGHT");
  EXPECT_EQ(LastName(999), "EINGEINGEING");
}

/// Shared tiny-scale environment: loading is the slow part, so the
/// semantic tests share one instance.
class TpccEnv : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new std::unique_ptr<DB>;
    ASSERT_TRUE(DB::Open({}, db_).ok());
    TpccConfig cfg;
    cfg.warehouses = 1;
    cfg.tiny = true;
    workload_ = new std::unique_ptr<TpccWorkload>;
    Status st = TpccWorkload::Setup(db_->get(), cfg, 42, workload_);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  static void TearDownTestSuite() {
    delete workload_;
    delete db_;
  }

  DB* db() { return db_->get(); }
  const TpccContext& ctx() { return (*workload_)->context(); }
  TpccWorkload* workload() { return workload_->get(); }

  static std::unique_ptr<DB>* db_;
  static std::unique_ptr<TpccWorkload>* workload_;
};

std::unique_ptr<DB>* TpccEnv::db_ = nullptr;
std::unique_ptr<TpccWorkload>* TpccEnv::workload_ = nullptr;

TEST_F(TpccEnv, LoaderCardinalities) {
  // Tiny scale: 1000 items, 1 warehouse, 10 districts, 100 customers each.
  auto txn = db()->Begin({IsolationLevel::kSnapshot});
  auto count_range = [&](TableId t, std::string lo, std::string hi) {
    int n = 0;
    EXPECT_TRUE(
        txn->Scan(t, lo, hi, [&n](Slice, Slice) { ++n; return true; }).ok());
    return n;
  };
  EXPECT_EQ(count_range(ctx().tables->item, ItemKey(0), ItemKey(UINT32_MAX)),
            1000);
  EXPECT_EQ(count_range(ctx().tables->district, DistrictKey(1, 0),
                        DistrictKey(1, UINT32_MAX)),
            10);
  EXPECT_EQ(count_range(ctx().tables->customer, CustomerKey(1, 1, 0),
                        CustomerKey(1, 1, UINT32_MAX)),
            100);
  EXPECT_EQ(count_range(ctx().tables->stock, StockKey(1, 0),
                        StockKey(1, UINT32_MAX)),
            1000);
  // 100 initial orders per district, ~30% undelivered.
  EXPECT_EQ(count_range(ctx().tables->order, OrderKey(1, 1, 0),
                        OrderKey(1, 1, UINT32_MAX)),
            100);
  const int new_orders = count_range(ctx().tables->new_order,
                                     NewOrderKey(1, 1, 0),
                                     NewOrderKey(1, 1, UINT32_MAX));
  EXPECT_EQ(new_orders, 30);
  txn->Commit();
}

TEST_F(TpccEnv, NewOrderCreatesRowsAndBumpsDistrict) {
  NewOrderInput in;
  in.w = 1;
  in.d = 2;
  in.c = 5;
  in.lines = {{1, 1, 3}, {2, 1, 1}};
  NewOrderOutput out;
  Status st =
      NewOrder(ctx(), IsolationLevel::kSerializableSSI, in, &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GT(out.o_id, 100u);  // Past the initial population.
  EXPECT_GT(out.total_cents, 0);

  auto txn = db()->Begin({IsolationLevel::kSnapshot});
  std::string v;
  EXPECT_TRUE(txn->Get(ctx().tables->order, OrderKey(1, 2, out.o_id), &v).ok());
  OrderRow order;
  ASSERT_TRUE(OrderRow::Decode(v, &order));
  EXPECT_EQ(order.c_id, 5u);
  EXPECT_EQ(order.ol_cnt, 2u);
  EXPECT_TRUE(
      txn->Get(ctx().tables->new_order, NewOrderKey(1, 2, out.o_id), &v).ok());
  EXPECT_TRUE(txn->Get(ctx().tables->order_line,
                       OrderLineKey(1, 2, out.o_id, 2), &v)
                  .ok());
  // District next_o_id advanced past the new order.
  EXPECT_TRUE(txn->Get(ctx().tables->district, DistrictKey(1, 2), &v).ok());
  DistrictRow d;
  ASSERT_TRUE(DistrictRow::Decode(v, &d));
  EXPECT_EQ(d.next_o_id, out.o_id + 1);
  txn->Commit();
}

TEST_F(TpccEnv, NewOrderUnusedItemRollsBackWholeTransaction) {
  // Read the district's next_o_id before and after: must be unchanged.
  auto before = db()->Begin({IsolationLevel::kSnapshot});
  std::string v;
  ASSERT_TRUE(before->Get(ctx().tables->district, DistrictKey(1, 3), &v).ok());
  DistrictRow d_before;
  ASSERT_TRUE(DistrictRow::Decode(v, &d_before));
  before->Commit();

  NewOrderInput in;
  in.w = 1;
  in.d = 3;
  in.c = 1;
  in.lines = {{1, 1, 1}, {ctx().config.items() + 1, 1, 1}};  // Unused id.
  Status st = NewOrder(ctx(), IsolationLevel::kSerializableSSI, in, nullptr);
  EXPECT_TRUE(st.IsNotFound()) << st.ToString();

  auto after = db()->Begin({IsolationLevel::kSnapshot});
  ASSERT_TRUE(after->Get(ctx().tables->district, DistrictKey(1, 3), &v).ok());
  DistrictRow d_after;
  ASSERT_TRUE(DistrictRow::Decode(v, &d_after));
  EXPECT_EQ(d_after.next_o_id, d_before.next_o_id);
  after->Commit();
}

TEST_F(TpccEnv, PaymentByIdUpdatesBalancesAndYtd) {
  PaymentInput in;
  in.w = 1;
  in.d = 4;
  in.customer = {1, 4, false, 7, ""};
  in.amount_cents = 12345;

  auto read_customer = [&](CustomerRow* c) {
    auto txn = db()->Begin({IsolationLevel::kSnapshot});
    std::string v;
    ASSERT_TRUE(txn->Get(ctx().tables->customer, CustomerKey(1, 4, 7), &v).ok());
    ASSERT_TRUE(CustomerRow::Decode(v, c));
    txn->Commit();
  };
  CustomerRow before;
  read_customer(&before);
  ASSERT_TRUE(Payment(ctx(), IsolationLevel::kSerializableSSI, in).ok());
  CustomerRow after;
  read_customer(&after);
  EXPECT_EQ(after.balance_cents, before.balance_cents - 12345);
  EXPECT_EQ(after.ytd_payment_cents, before.ytd_payment_cents + 12345);
  EXPECT_EQ(after.payment_cnt, before.payment_cnt + 1);
}

TEST_F(TpccEnv, PaymentByLastNamePicksMedian) {
  // Tiny scale: customers 1..100 have last names LastName(0..99), each
  // unique, so by-name lookup must resolve to exactly that customer.
  PaymentInput in;
  in.w = 1;
  in.d = 5;
  in.customer.w = 1;
  in.customer.d = 5;
  in.customer.by_name = true;
  in.customer.last_name = LastName(41);  // Customer id 42.
  in.amount_cents = 100;
  auto read_balance = [&](uint32_t c) {
    auto txn = db()->Begin({IsolationLevel::kSnapshot});
    std::string v;
    EXPECT_TRUE(txn->Get(ctx().tables->customer, CustomerKey(1, 5, c), &v).ok());
    CustomerRow row;
    EXPECT_TRUE(CustomerRow::Decode(v, &row));
    txn->Commit();
    return row.balance_cents;
  };
  const int64_t before = read_balance(42);
  ASSERT_TRUE(Payment(ctx(), IsolationLevel::kSerializableSSI, in).ok());
  EXPECT_EQ(read_balance(42), before - 100);
}

TEST_F(TpccEnv, OrderStatusReturnsMostRecentOrder) {
  // Give customer 9 a fresh order so "most recent" is known.
  NewOrderInput in;
  in.w = 1;
  in.d = 6;
  in.c = 9;
  in.lines = {{3, 1, 2}};
  NewOrderOutput out;
  ASSERT_TRUE(NewOrder(ctx(), IsolationLevel::kSerializableSSI, in, &out).ok());

  OrderStatusOutput status;
  CustomerSelector sel{1, 6, false, 9, ""};
  ASSERT_TRUE(
      OrderStatus(ctx(), IsolationLevel::kSerializableSSI, sel, &status).ok());
  EXPECT_EQ(status.o_id, out.o_id);
  EXPECT_EQ(status.carrier_id, 0u);  // Not yet delivered.
  ASSERT_EQ(status.lines.size(), 1u);
  EXPECT_EQ(status.lines[0].i_id, 3u);
}

TEST_F(TpccEnv, DeliveryDeliversOldestAndPaysCustomer) {
  // District 7: find the oldest undelivered order and its customer.
  uint32_t oldest = 0;
  {
    auto txn = db()->Begin({IsolationLevel::kSnapshot});
    txn->Scan(ctx().tables->new_order, NewOrderKey(1, 7, 0),
              NewOrderKey(1, 7, UINT32_MAX), [&oldest](Slice k, Slice) {
                oldest = OrderIdFromKey(k);
                return false;
              });
    txn->Commit();
  }
  ASSERT_GT(oldest, 0u);

  uint32_t delivered = 0;
  DeliveryInput in{1, 5};
  ASSERT_TRUE(
      Delivery(ctx(), IsolationLevel::kSerializableSSI, in, &delivered).ok());
  EXPECT_GE(delivered, 1u);

  auto txn = db()->Begin({IsolationLevel::kSnapshot});
  std::string v;
  // The new_order row is gone; the order has the carrier set.
  EXPECT_TRUE(txn->Get(ctx().tables->new_order, NewOrderKey(1, 7, oldest), &v)
                  .IsNotFound());
  ASSERT_TRUE(txn->Get(ctx().tables->order, OrderKey(1, 7, oldest), &v).ok());
  OrderRow order;
  ASSERT_TRUE(OrderRow::Decode(v, &order));
  EXPECT_EQ(order.carrier_id, 5u);
  // Its order lines carry a delivery date now.
  ASSERT_TRUE(
      txn->Get(ctx().tables->order_line, OrderLineKey(1, 7, oldest, 1), &v)
          .ok());
  OrderLineRow line;
  ASSERT_TRUE(OrderLineRow::Decode(v, &line));
  EXPECT_NE(line.delivery_d, 0u);
  txn->Commit();
}

TEST_F(TpccEnv, StockLevelCountsLowStockDistinctItems) {
  StockLevelInput in{1, 8, /*threshold=*/200};  // Above max: counts all.
  uint32_t low = 0;
  ASSERT_TRUE(
      StockLevel(ctx(), IsolationLevel::kSerializableSSI, in, &low).ok());
  EXPECT_GT(low, 0u);
  // Threshold below min quantity (loader floor is 10 with restock at 91):
  // nothing qualifies. Quantities can dip below 10 transiently between
  // NEWO updates, so allow a small count.
  StockLevelInput none{1, 8, -1000};
  uint32_t zero = 99;
  ASSERT_TRUE(
      StockLevel(ctx(), IsolationLevel::kSerializableSSI, none, &zero).ok());
  EXPECT_EQ(zero, 0u);
}

TEST_F(TpccEnv, CreditCheckFlagsOverLimitCustomer) {
  // Construct an over-limit customer: put a huge undelivered order on
  // district 9's customer 3.
  NewOrderInput in;
  in.w = 1;
  in.d = 9;
  in.c = 3;
  for (int i = 0; i < 15; ++i) in.lines.push_back({static_cast<uint32_t>(
      800 + i), 1, 10});
  ASSERT_TRUE(NewOrder(ctx(), IsolationLevel::kSerializableSSI, in, nullptr)
                  .ok());
  // Shrink the credit limit so the order total exceeds it.
  {
    auto txn = db()->Begin({IsolationLevel::kSnapshot});
    std::string v;
    ASSERT_TRUE(txn->Get(ctx().tables->customer, CustomerKey(1, 9, 3), &v).ok());
    CustomerRow c;
    ASSERT_TRUE(CustomerRow::Decode(v, &c));
    c.credit_lim_cents = 1;
    ASSERT_TRUE(
        txn->Put(ctx().tables->customer, CustomerKey(1, 9, 3), c.Encode()).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  Credit credit = Credit::kGood;
  ASSERT_TRUE(CreditCheck(ctx(), IsolationLevel::kSerializableSSI,
                          CreditCheckInput{1, 9, 3}, &credit)
                  .ok());
  EXPECT_EQ(credit, Credit::kBad);

  // Deliver everything in the district and re-check: undelivered balance
  // drops; the customer's own balance grows by the delivered amount, so
  // raise the limit to cover it and expect good credit again.
  uint32_t delivered = 1;
  while (delivered > 0) {
    ASSERT_TRUE(Delivery(ctx(), IsolationLevel::kSerializableSSI,
                         DeliveryInput{1, 2}, &delivered)
                    .ok());
  }
  {
    auto txn = db()->Begin({IsolationLevel::kSnapshot});
    std::string v;
    ASSERT_TRUE(txn->Get(ctx().tables->customer, CustomerKey(1, 9, 3), &v).ok());
    CustomerRow c;
    ASSERT_TRUE(CustomerRow::Decode(v, &c));
    c.credit_lim_cents = c.balance_cents + 1000000000;
    ASSERT_TRUE(
        txn->Put(ctx().tables->customer, CustomerKey(1, 9, 3), c.Encode()).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  ASSERT_TRUE(CreditCheck(ctx(), IsolationLevel::kSerializableSSI,
                          CreditCheckInput{1, 9, 3}, &credit)
                  .ok());
  EXPECT_EQ(credit, Credit::kGood);
}

TEST_F(TpccEnv, ConsistencyHoldsAfterSequentialMix) {
  Random rng(99);
  bench::SeriesConfig series{"SSI", IsolationLevel::kSerializableSSI,
                             std::nullopt};
  for (int i = 0; i < 200; ++i) {
    workload()->RunOne(db(), series, 0, &rng);
  }
  Status st = workload()->CheckConsistency(db());
  EXPECT_TRUE(st.ok()) << st.ToString();
}

/// §5.3.3 Example 5: the Credit Check anomaly, deterministically
/// interleaved. The Credit Check overlaps a Payment and a New Order such
/// that at SI it computes a stale unpaid total and publishes "bad credit"
/// *after* the customer successfully placed an order under "good credit".
class CreditCheckAnomalyTest : public ::testing::Test {
 protected:
  void Setup(IsolationLevel iso) {
    iso_ = iso;
    ASSERT_TRUE(DB::Open({}, &db_).ok());
    TpccConfig cfg;
    cfg.warehouses = 1;
    cfg.tiny = true;
    ASSERT_TRUE(TpccWorkload::Setup(db_.get(), cfg, 7, &workload_).ok());
  }

  /// Returns true if the §5.3.3 outcome occurred: the final New Order saw
  /// good credit while an overlapping Credit Check committed bad credit
  /// from stale data.
  bool RunScenario() {
    const TpccContext& ctx = workload_->context();
    const uint32_t w = 1, d = 1, c = 1;
    // Stage: give the customer a credit limit of $1000, an unpaid
    // (delivered) balance of $900, good credit, and pin the prices of the
    // items the scenario orders ($100 each) so totals are deterministic.
    {
      auto txn = db_->Begin({IsolationLevel::kSnapshot});
      std::string v;
      EXPECT_TRUE(
          txn->Get(ctx.tables->customer, CustomerKey(w, d, c), &v).ok());
      CustomerRow row;
      EXPECT_TRUE(CustomerRow::Decode(v, &row));
      row.credit_lim_cents = 1000 * 100;
      row.balance_cents = 900 * 100;
      row.discount_bp = 0;
      EXPECT_TRUE(
          txn->Put(ctx.tables->customer, CustomerKey(w, d, c), row.Encode())
              .ok());
      EXPECT_TRUE(txn->Put(ctx.tables->customer_credit, CustomerKey(w, d, c),
                           EncodeCredit(Credit::kGood))
                      .ok());
      for (uint32_t item : {1u, 2u, 3u}) {
        EXPECT_TRUE(txn->Get(ctx.tables->item, ItemKey(item), &v).ok());
        ItemRow irow;
        EXPECT_TRUE(ItemRow::Decode(v, &irow));
        irow.price_cents = 100 * 100;  // $100.
        EXPECT_TRUE(
            txn->Put(ctx.tables->item, ItemKey(item), irow.Encode()).ok());
      }
      EXPECT_TRUE(txn->Commit().ok());
    }
    // Drain existing new orders for the district so CCHECK sums only ours.
    uint32_t delivered = 1;
    while (delivered > 0) {
      Status st = Delivery(ctx, iso_, DeliveryInput{w, 1}, &delivered);
      if (!st.ok()) return false;
    }
    // The delivery raised c_balance; restore the staged $900.
    {
      auto txn = db_->Begin({IsolationLevel::kSnapshot});
      std::string v;
      EXPECT_TRUE(
          txn->Get(ctx.tables->customer, CustomerKey(w, d, c), &v).ok());
      CustomerRow row;
      EXPECT_TRUE(CustomerRow::Decode(v, &row));
      row.balance_cents = 900 * 100;
      EXPECT_TRUE(
          txn->Put(ctx.tables->customer, CustomerKey(w, d, c), row.Encode())
              .ok());
      EXPECT_TRUE(txn->Commit().ok());
    }

    // Step 1: NEWO #1 — 2 x $100 = $200 of undelivered orders, bringing
    // the unpaid total to $1100, over the $1000 limit.
    NewOrderInput no1{w, d, c, {{1, w, 2}}};
    if (!NewOrder(ctx, iso_, no1, nullptr).ok()) return false;

    // Step 2: Credit Check begins: under SI it snapshots *now*.
    // We hold the transaction open across the payment by inlining the
    // program body: read customer, scan new orders — then wait — then
    // write c_credit.
    auto cc = db_->Begin({iso_});
    std::string v;
    Status st = cc->Get(ctx.tables->customer, CustomerKey(w, d, c), &v);
    if (!st.ok()) return false;
    CustomerRow cc_row;
    if (!CustomerRow::Decode(v, &cc_row)) return false;
    int64_t neworder_balance = 0;
    std::vector<uint32_t> undelivered;
    st = cc->Scan(ctx.tables->new_order, NewOrderKey(w, d, 0),
                  NewOrderKey(w, d, UINT32_MAX),
                  [&undelivered](Slice k, Slice) {
                    undelivered.push_back(OrderIdFromKey(k));
                    return true;
                  });
    if (!st.ok()) {
      cc->Abort();
      return false;
    }
    for (uint32_t o : undelivered) {
      st = cc->Get(ctx.tables->order, OrderKey(w, d, o), &v);
      if (!st.ok()) {
        cc->Abort();
        return false;
      }
      OrderRow order;
      if (!OrderRow::Decode(v, &order) || order.c_id != c) continue;
      st = cc->Scan(ctx.tables->order_line, OrderLineKey(w, d, o, 0),
                    OrderLineKey(w, d, o, UINT32_MAX),
                    [&neworder_balance](Slice, Slice val) {
                      OrderLineRow ol;
                      if (OrderLineRow::Decode(val, &ol)) {
                        neworder_balance += ol.amount_cents;
                      }
                      return true;
                    });
      if (!st.ok()) {
        cc->Abort();
        return false;
      }
    }

    // Step 3: Payment ($500) commits while the credit check is open.
    PaymentInput pay{w, d, {w, d, false, c, ""}, 500 * 100};
    if (!Payment(ctx, iso_, pay).ok()) {
      cc->Abort();
      return false;
    }

    // Step 4: NEWO #2 ($100-ish) — the customer is back under the limit,
    // so a serial execution after the payment shows good credit.
    NewOrderOutput no2_out;
    NewOrderInput no2{w, d, c, {{2, w, 1}}};
    if (!NewOrder(ctx, iso_, no2, &no2_out).ok()) {
      cc->Abort();
      return false;
    }

    // Step 5: the credit check publishes its verdict from the stale
    // snapshot ($900 balance + $200 undelivered > $1000 -> BC) into the
    // c_credit partition (Fig 5.1 line 19).
    const Credit verdict =
        cc_row.balance_cents + neworder_balance > cc_row.credit_lim_cents
            ? Credit::kBad
            : Credit::kGood;
    Status commit;
    if (cc->active()) {
      st = cc->Put(ctx.tables->customer_credit, CustomerKey(w, d, c),
                   EncodeCredit(verdict));
      commit = st.ok() ? cc->Commit() : st;
    } else {
      commit = Status::Unsafe("marked for abort");
    }
    if (cc->active()) cc->Abort();

    // Step 6: NEWO #3 — what credit does the customer see now?
    NewOrderOutput no3_out;
    NewOrderInput no3{w, d, c, {{3, w, 1}}};
    if (!NewOrder(ctx, iso_, no3, &no3_out).ok()) return false;

    // The anomaly fired if the credit check committed "bad credit" from
    // its stale read, even though NEWO #2 already ran under good credit
    // after the payment: no serial order explains (good at #2, then BC
    // from a state predating the payment).
    return commit.ok() && verdict == Credit::kBad &&
           no2_out.customer_credit == Credit::kGood &&
           no3_out.customer_credit == Credit::kBad;
  }

  IsolationLevel iso_ = IsolationLevel::kSnapshot;
  std::unique_ptr<DB> db_;
  std::unique_ptr<TpccWorkload> workload_;
};

TEST_F(CreditCheckAnomalyTest, SnapshotIsolationAdmitsExample5) {
  Setup(IsolationLevel::kSnapshot);
  EXPECT_TRUE(RunScenario())
      << "SI should let the stale credit check commit";
}

TEST_F(CreditCheckAnomalyTest, SerializableSSIPreventsExample5) {
  Setup(IsolationLevel::kSerializableSSI);
  EXPECT_FALSE(RunScenario())
      << "SSI must abort one of the transactions in the Example 5 cycle";
}

TEST(TpccMultiWarehouseTest, RemotePaymentCrossesWarehouses) {
  // Spec 2.5.1.2: 15% of payments are collected at one warehouse for a
  // customer of another. The YTD goes to the collecting warehouse, the
  // balance change to the remote customer.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open({}, &db).ok());
  TpccConfig cfg;
  cfg.warehouses = 2;
  cfg.tiny = true;
  std::unique_ptr<TpccWorkload> workload;
  ASSERT_TRUE(TpccWorkload::Setup(db.get(), cfg, 17, &workload).ok());
  const TpccContext& ctx = workload->context();

  PaymentInput in;
  in.w = 1;
  in.d = 1;
  in.customer = {2, 3, false, 7, ""};  // Customer of warehouse 2.
  in.amount_cents = 5000;
  ASSERT_TRUE(Payment(ctx, IsolationLevel::kSerializableSSI, in).ok());

  auto txn = db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  // Collecting warehouse 1 got the YTD.
  ASSERT_TRUE(txn->Get(ctx.tables->warehouse, WarehouseKey(1), &v).ok());
  WarehouseRow w1;
  ASSERT_TRUE(WarehouseRow::Decode(v, &w1));
  EXPECT_EQ(w1.ytd_cents, 30000000 + 5000);
  ASSERT_TRUE(txn->Get(ctx.tables->warehouse, WarehouseKey(2), &v).ok());
  WarehouseRow w2;
  ASSERT_TRUE(WarehouseRow::Decode(v, &w2));
  EXPECT_EQ(w2.ytd_cents, 30000000);
  // Remote customer's balance dropped.
  ASSERT_TRUE(txn->Get(ctx.tables->customer, CustomerKey(2, 3, 7), &v).ok());
  CustomerRow c;
  ASSERT_TRUE(CustomerRow::Decode(v, &c));
  EXPECT_EQ(c.balance_cents, kInitialBalanceCents - 5000);
  txn->Commit();

  // The consistency condition holds across both warehouses... but note
  // remote payments credit W1's YTD and D1's YTD together, so it stays
  // balanced by construction.
  EXPECT_TRUE(workload->CheckConsistency(db.get()).ok());
}

TEST(TpccDeliveryTest, EmptyDistrictsAreSkipped) {
  // The DLVY1 case (§2.8.1): districts with no undelivered orders are
  // skipped without failing the transaction.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open({}, &db).ok());
  TpccConfig cfg;
  cfg.warehouses = 1;
  cfg.tiny = true;
  std::unique_ptr<TpccWorkload> workload;
  ASSERT_TRUE(TpccWorkload::Setup(db.get(), cfg, 19, &workload).ok());
  const TpccContext& ctx = workload->context();

  // Drain everything: 30 undelivered per district, 10 per call.
  uint32_t delivered = 1;
  int calls = 0;
  while (delivered > 0 && calls < 100) {
    ++calls;
    ASSERT_TRUE(Delivery(ctx, IsolationLevel::kSerializableSSI,
                         DeliveryInput{1, 3}, &delivered)
                    .ok());
  }
  // Now every district is empty: the transaction still commits, zero
  // orders delivered.
  uint32_t none = 99;
  ASSERT_TRUE(Delivery(ctx, IsolationLevel::kSerializableSSI,
                       DeliveryInput{1, 4}, &none)
                  .ok());
  EXPECT_EQ(none, 0u);
  EXPECT_TRUE(workload->CheckConsistency(db.get()).ok());
}

TEST(TpccStockLevelScanTest, OrderLineScanRaisesTheRwEdgeSsiNeeds) {
  // Regression pin for the Stock Level predicate read. A planning note
  // once claimed the stock-level benchmark "never calls Scan" and merely
  // approximates the §2.8.2.2 window read; that premise is false —
  // StockLevel reads the last-20-orders order-line window through
  // txn->Scan (tpcc_txns.cc, StockLevel) and has since the workload
  // landed. This test pins the property that claim was really about: the
  // window Scan acquires SIREAD locks on every line it reads, so a
  // concurrent writer touching the window raises the rw-antidependency
  // §3.2 needs and SSI breaks the cycle. If StockLevel's read ever
  // regresses to an unlocked approximation, the history below becomes
  // admissible and this test fails.
  DBOptions opts;
  opts.record_history = true;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TpccConfig cfg;
  cfg.warehouses = 1;
  cfg.tiny = true;
  std::unique_ptr<TpccWorkload> workload;
  ASSERT_TRUE(TpccWorkload::Setup(db.get(), cfg, 23, &workload).ok());
  const TpccTables& t = *workload->context().tables;

  // The window StockLevel computes: the last 20 orders of district (1,1).
  uint32_t hi_o = 0;
  {
    auto setup = db->Begin({IsolationLevel::kSnapshot});
    std::string v;
    ASSERT_TRUE(setup->Get(t.district, DistrictKey(1, 1), &v).ok());
    DistrictRow d;
    ASSERT_TRUE(DistrictRow::Decode(v, &d));
    hi_o = d.next_o_id;
    ASSERT_TRUE(setup->Commit().ok());
  }
  ASSERT_GT(hi_o, 20u);
  const uint32_t lo_o = hi_o - 20;

  auto slev = db->Begin({IsolationLevel::kSerializableSSI});
  auto writer = db->Begin({IsolationLevel::kSerializableSSI});
  // slev issues the program's exact predicate read.
  std::string line_key;
  OrderLineRow first_line;
  ASSERT_TRUE(slev->Scan(t.order_line, OrderLineKey(1, 1, lo_o, 0),
                         OrderLineKey(1, 1, hi_o - 1, UINT32_MAX),
                         [&](Slice key, Slice value) {
                           if (line_key.empty()) {
                             line_key = key.ToString();
                             EXPECT_TRUE(
                                 OrderLineRow::Decode(value, &first_line));
                           }
                           return true;
                         })
                  .ok());
  ASSERT_FALSE(line_key.empty());
  // writer reads the stock row slev is about to write, then re-stamps a
  // line inside slev's scanned window (Delivery's shape): writer -rw-> slev
  // on the stock row, slev -rw-> writer on the scanned line — a cycle that
  // exists only because the Scan left SIREAD locks behind.
  std::string sv;
  ASSERT_TRUE(writer->Get(t.stock, StockKey(1, first_line.i_id), &sv).ok());
  OrderLineRow restamped = first_line;
  restamped.delivery_d = 777;
  const Status wline = writer->Put(t.order_line, line_key,
                                   restamped.Encode());
  // The spec's SLEV is read-only; the stock write stands in for any
  // successor that would complete the pivot.
  StockRow stock;
  ASSERT_TRUE(StockRow::Decode(sv, &stock));
  stock.quantity -= 1;
  const Status wstock =
      slev->Put(t.stock, StockKey(1, first_line.i_id), stock.Encode());
  Status c1 = wstock.ok() ? slev->Commit() : wstock;
  if (slev->active()) slev->Abort();
  Status c2 = wline.ok() ? writer->Commit() : wline;
  if (writer->active()) writer->Abort();
  EXPECT_FALSE(c1.ok() && c2.ok())
      << "both sides of the scan-window cycle committed";
  EXPECT_TRUE(sgt::AnalyzeHistory(db->history()->Snapshot()).serializable);
}

TEST(TpccStockLevelScanTest, ConcurrentStockLevelMixStaysSerializable) {
  // The §6.4.3 mix (New Order + Stock Level) under SSI, checked against
  // the multiversion serialization graph: the windows Stock Level scans
  // overlap the lines New Order inserts and the stock rows it updates, so
  // any gap in the Scan's predicate locking shows up as a cycle here.
  DBOptions opts;
  opts.record_history = true;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TpccConfig cfg;
  cfg.warehouses = 1;
  cfg.tiny = true;
  cfg.mix = Mix::kStockLevel;
  std::unique_ptr<TpccWorkload> workload;
  ASSERT_TRUE(TpccWorkload::Setup(db.get(), cfg, 29, &workload).ok());
  bench::SeriesConfig series{"SSI", IsolationLevel::kSerializableSSI,
                             std::nullopt};
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(900 + t);
      for (int i = 0; i < 50; ++i) {
        workload->RunOne(db.get(), series, t, &rng);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(workload->CheckConsistency(db.get()).ok());
  auto analysis = sgt::AnalyzeHistory(db->history()->Snapshot());
  EXPECT_TRUE(analysis.serializable) << sgt::DescribeResult(analysis);
}

TEST(TpccConcurrencyTest, ConcurrentStandardMixStaysConsistent) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open({}, &db).ok());
  TpccConfig cfg;
  cfg.warehouses = 1;
  cfg.tiny = true;
  std::unique_ptr<TpccWorkload> workload;
  ASSERT_TRUE(TpccWorkload::Setup(db.get(), cfg, 11, &workload).ok());
  bench::SeriesConfig series{"SSI", IsolationLevel::kSerializableSSI,
                             std::nullopt};
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(500 + t);
      for (int i = 0; i < 50; ++i) {
        workload->RunOne(db.get(), series, t, &rng);
      }
    });
  }
  for (auto& th : threads) th.join();
  Status st = workload->CheckConsistency(db.get());
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(Metric(db.get(), "engine.active_txns"), 0u);
}

TEST(TpccMixTest, StandardMixProportions) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open({}, &db).ok());
  TpccConfig cfg;
  cfg.warehouses = 1;
  cfg.tiny = true;
  std::unique_ptr<TpccWorkload> workload;
  ASSERT_TRUE(TpccWorkload::Setup(db.get(), cfg, 13, &workload).ok());
  Random rng(21);
  int counts[6] = {0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    counts[static_cast<int>(workload->NextOp(&rng))]++;
  }
  EXPECT_NEAR(counts[0] / double(n), 0.41, 0.02);  // NEWO
  EXPECT_NEAR(counts[1] / double(n), 0.43, 0.02);  // PAY
  EXPECT_NEAR(counts[2] / double(n), 0.04, 0.01);  // CCHECK
  EXPECT_NEAR(counts[3] / double(n), 0.04, 0.01);  // DLVY
  EXPECT_NEAR(counts[4] / double(n), 0.04, 0.01);  // OSTAT
  EXPECT_NEAR(counts[5] / double(n), 0.04, 0.01);  // SLEV
}

TEST(TpccMixTest, StockLevelMixProportions) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open({}, &db).ok());
  TpccConfig cfg;
  cfg.warehouses = 1;
  cfg.tiny = true;
  cfg.mix = Mix::kStockLevel;
  std::unique_ptr<TpccWorkload> workload;
  ASSERT_TRUE(TpccWorkload::Setup(db.get(), cfg, 13, &workload).ok());
  Random rng(22);
  int newo = 0, slev = 0, other = 0;
  const int n = 11000;
  for (int i = 0; i < n; ++i) {
    switch (workload->NextOp(&rng)) {
      case TpccOp::kNewOrder: ++newo; break;
      case TpccOp::kStockLevel: ++slev; break;
      default: ++other; break;
    }
  }
  EXPECT_EQ(other, 0);
  EXPECT_NEAR(slev / double(newo), 10.0, 1.5);  // §5.3.5's 10:1.
}

}  // namespace
}  // namespace ssidb::workloads::tpcc
