#ifndef CLAIMS_TESTS_LEDGER_BALANCE_CHECK_H_
#define CLAIMS_TESTS_LEDGER_BALANCE_CHECK_H_

// Included by every test binary that charges a query ledger: registers a
// global test environment that fails the binary if any test leaves charge
// on the ledgers' process-wide total. A ledger destroyed while charged keeps
// its bytes in that total, so a missed refund anywhere in a binary shows up
// here even when no test looked at that ledger again.

#include <gtest/gtest.h>

#include "mem/query_budget.h"

namespace claims {
namespace testing_support {

class LedgerBalanceCheck : public ::testing::Environment {
 public:
  void TearDown() override {
    EXPECT_EQ(QueryBudget::TotalChargedBytes(), 0)
        << "a test left ledger charge behind";
  }
};

inline ::testing::Environment* const kLedgerBalanceCheck =
    ::testing::AddGlobalTestEnvironment(new LedgerBalanceCheck);

}  // namespace testing_support
}  // namespace claims

#endif  // CLAIMS_TESTS_LEDGER_BALANCE_CHECK_H_
