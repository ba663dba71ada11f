// Tests for the "single writer OR finalized" threading contract
// (grb/matrix.hpp): finalize() drains every deferred mutation so const
// access becomes genuinely read-only, mutators drop the flag again, and the
// debug tripwires catch contract violations.
#include <gtest/gtest.h>

#include "grb/grb.hpp"

using grb::Index;

TEST(Finalize, DrainsPendingWorkAndFreezes) {
  grb::Matrix<double> a(100, 100);
  for (Index i = 0; i < 50; ++i) a.set_element(i, (i * 7) % 100, 1.0 + i);
  EXPECT_FALSE(a.is_finalized());
  a.finalize();
  EXPECT_TRUE(a.is_finalized());
  EXPECT_EQ(a.nvals(), 50u);
  // All reads on a finalized matrix must leave it finalized.
  EXPECT_TRUE(a.has(0, 0));
  double sum = 0;
  a.for_each([&](Index, Index, const double &x) { sum += x; });
  EXPECT_GT(sum, 0.0);
  EXPECT_TRUE(a.is_finalized());
}

TEST(Finalize, MutationDropsTheFlag) {
  grb::Matrix<double> a(10, 10);
  a.set_element(1, 2, 3.0);
  a.finalize();
  ASSERT_TRUE(a.is_finalized());
  a.set_element(4, 5, 6.0);  // back to single-writer mode
  EXPECT_FALSE(a.is_finalized());
  a.finalize();
  ASSERT_TRUE(a.is_finalized());
  a.remove_element(1, 2);
  EXPECT_FALSE(a.is_finalized());
  a.finalize();
  a.clear();
  EXPECT_FALSE(a.is_finalized());
}

TEST(Finalize, VectorContract) {
  grb::Vector<double> v(1000);
  for (Index i = 0; i < 20; ++i) v.set_element(i * 31, 1.0);
  EXPECT_FALSE(v.is_finalized());
  v.finalize();
  EXPECT_TRUE(v.is_finalized());
  EXPECT_EQ(v.nvals(), 20u);
  double sum = 0;
  v.for_each([&](Index, const double &x) { sum += x; });
  EXPECT_EQ(sum, 20.0);
  EXPECT_TRUE(v.is_finalized());
  v.set_element(5, 2.0);
  EXPECT_FALSE(v.is_finalized());
}

TEST(Finalize, CountsInStats) {
  auto &st = grb::stats();
  const auto before = st.finalize_calls.load();
  grb::Matrix<double> a(4, 4);
  a.set_element(0, 1, 1.0);
  a.finalize();
  grb::Vector<double> v(4);
  v.finalize();
  EXPECT_EQ(st.finalize_calls.load(), before + 2);
}

TEST(Finalize, IdempotentAndCheapOnEmpty) {
  grb::Matrix<double> a(8, 8);
  a.finalize();
  a.finalize();
  EXPECT_TRUE(a.is_finalized());
  EXPECT_EQ(a.nvals(), 0u);
}

#ifndef NDEBUG
// The tripwires only exist in debug builds (assert); in release they compile
// away and the contract is documentation-only.
TEST(FinalizeDeathTest, LazyPathOnFinalizedMatrixAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  grb::Matrix<double> a(1u << 20, 1u << 20);
  a.set_element(1, 2, 3.0);
  a.finalize();
  // Forcing a format change on a finalized matrix must trip the assert.
  EXPECT_DEATH(a.to_bitmap(), "finalized");
}
#endif
