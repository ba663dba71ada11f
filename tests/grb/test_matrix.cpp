// Unit tests for grb::Matrix: build, pending tuples, lazy sort, format
// conversions, and iteration.
#include <gtest/gtest.h>

#include <vector>

#include "grb/grb.hpp"

using grb::Index;
using grb::Matrix;

namespace {

Matrix<int> small_matrix() {
  // 3x4:  [ .  1  .  2 ]
  //       [ 3  .  .  . ]
  //       [ .  .  4  . ]
  Matrix<int> a(3, 4);
  std::vector<Index> ri = {0, 0, 1, 2};
  std::vector<Index> ci = {1, 3, 0, 2};
  std::vector<int> vx = {1, 2, 3, 4};
  a.build(ri, ci, vx);
  return a;
}

}  // namespace

TEST(Matrix, EmptyConstruction) {
  Matrix<double> a(5, 7);
  EXPECT_EQ(a.nrows(), 5u);
  EXPECT_EQ(a.ncols(), 7u);
  EXPECT_EQ(a.nvals(), 0u);
}

TEST(Matrix, BuildAndGet) {
  auto a = small_matrix();
  EXPECT_EQ(a.nvals(), 4u);
  EXPECT_EQ(a.get(0, 1), 1);
  EXPECT_EQ(a.get(0, 3), 2);
  EXPECT_EQ(a.get(1, 0), 3);
  EXPECT_EQ(a.get(2, 2), 4);
  EXPECT_FALSE(a.get(0, 0).has_value());
}

TEST(Matrix, BuildCombinesDuplicatesWithPlus) {
  Matrix<int> a(2, 2);
  std::vector<Index> ri = {0, 0, 0};
  std::vector<Index> ci = {1, 1, 1};
  std::vector<int> vx = {1, 2, 3};
  a.build(ri, ci, vx, grb::Plus{});
  EXPECT_EQ(a.nvals(), 1u);
  EXPECT_EQ(a.get(0, 1), 6);
}

TEST(Matrix, BuildUnsortedInput) {
  Matrix<int> a(3, 3);
  std::vector<Index> ri = {2, 0, 1, 0};
  std::vector<Index> ci = {2, 2, 1, 0};
  std::vector<int> vx = {9, 8, 7, 6};
  a.build(ri, ci, vx);
  EXPECT_EQ(a.get(0, 0), 6);
  EXPECT_EQ(a.get(0, 2), 8);
  EXPECT_EQ(a.get(1, 1), 7);
  EXPECT_EQ(a.get(2, 2), 9);
}

TEST(Matrix, BuildOutOfBoundsThrows) {
  Matrix<int> a(2, 2);
  std::vector<Index> ri = {2};
  std::vector<Index> ci = {0};
  std::vector<int> vx = {1};
  EXPECT_THROW(a.build(ri, ci, vx), grb::Exception);
}

TEST(Matrix, SetElementGoesPendingThenMerges) {
  auto a = small_matrix();
  a.set_element(2, 3, 99);
  EXPECT_TRUE(a.has_pending());
  // nvals() forces the merge
  EXPECT_EQ(a.nvals(), 5u);
  EXPECT_FALSE(a.has_pending());
  EXPECT_EQ(a.get(2, 3), 99);
}

TEST(Matrix, PendingLaterWriteWins) {
  Matrix<int> a(2, 2);
  a.set_element(0, 0, 1);
  a.set_element(0, 0, 2);
  a.set_element(0, 0, 3);
  EXPECT_EQ(a.get(0, 0), 3);
  EXPECT_EQ(a.nvals(), 1u);
}

TEST(Matrix, PendingOverwritesExisting) {
  auto a = small_matrix();
  a.set_element(0, 1, -1);
  EXPECT_EQ(a.get(0, 1), -1);
  EXPECT_EQ(a.nvals(), 4u);
}

TEST(Matrix, ExtractTuplesRowMajorSorted) {
  auto a = small_matrix();
  std::vector<Index> ri;
  std::vector<Index> ci;
  std::vector<int> vx;
  a.extract_tuples(ri, ci, vx);
  EXPECT_EQ(ri, (std::vector<Index>{0, 0, 1, 2}));
  EXPECT_EQ(ci, (std::vector<Index>{1, 3, 0, 2}));
  EXPECT_EQ(vx, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Matrix, JumbledAdoptionAndLazySort) {
  grb::config().lazy_sort = true;
  Matrix<int> a(2, 4);
  std::vector<Index> rp = {0, 3, 4};
  std::vector<Index> ci = {3, 0, 2, 1};  // row 0 unsorted
  std::vector<int> vx = {30, 0, 20, 11};
  a.adopt_csr(std::move(rp), std::move(ci), std::move(vx), /*jumbled=*/true);
  EXPECT_TRUE(a.jumbled());
  // get() triggers the deferred sort
  EXPECT_EQ(a.get(0, 2), 20);
  EXPECT_FALSE(a.jumbled());
  std::vector<Index> cols;
  a.for_each_in_row(0, [&](Index j, const int &) { cols.push_back(j); });
  EXPECT_EQ(cols, (std::vector<Index>{0, 2, 3}));
}

TEST(Matrix, EagerSortWhenLazySortDisabled) {
  grb::config().lazy_sort = false;
  auto before = grb::stats().eager_sorts.load();
  Matrix<int> a(1, 4);
  std::vector<Index> rp = {0, 2};
  std::vector<Index> ci = {3, 1};
  std::vector<int> vx = {30, 10};
  a.adopt_csr(std::move(rp), std::move(ci), std::move(vx), /*jumbled=*/true);
  EXPECT_FALSE(a.jumbled());
  EXPECT_EQ(grb::stats().eager_sorts.load(), before + 1);
  grb::config().lazy_sort = true;
}

TEST(Matrix, BitmapConversionRoundTrip) {
  auto a = small_matrix();
  Matrix<int> orig = a;
  a.to_bitmap();
  EXPECT_EQ(a.format(), Matrix<int>::Format::bitmap);
  EXPECT_EQ(a.nvals(), 4u);
  EXPECT_EQ(a, orig);
  a.to_csr();
  EXPECT_EQ(a.format(), Matrix<int>::Format::csr);
  EXPECT_EQ(a, orig);
}

TEST(Matrix, BitmapSetElementDirect) {
  auto a = small_matrix();
  a.to_bitmap();
  a.set_element(1, 1, 5);
  EXPECT_EQ(a.nvals(), 5u);
  EXPECT_EQ(a.get(1, 1), 5);
}

TEST(Matrix, FullMatrix) {
  auto a = Matrix<double>::full_matrix(2, 3, 1.5);
  EXPECT_EQ(a.nvals(), 6u);
  EXPECT_EQ(a.get(1, 2), 1.5);
  Index count = 0;
  a.for_each([&](Index, Index, const double &x) {
    EXPECT_EQ(x, 1.5);
    ++count;
  });
  EXPECT_EQ(count, 6u);
}

TEST(Matrix, RowNvals) {
  auto a = small_matrix();
  EXPECT_EQ(a.row_nvals(0), 2u);
  EXPECT_EQ(a.row_nvals(1), 1u);
  EXPECT_EQ(a.row_nvals(2), 1u);
}

TEST(Matrix, MaskTestValuedVsStructural) {
  Matrix<int> a(2, 2);
  std::vector<Index> ri = {0, 1};
  std::vector<Index> ci = {0, 1};
  std::vector<int> vx = {0, 5};  // explicit zero at (0,0)
  a.build(ri, ci, vx);
  EXPECT_FALSE(a.mask_test(0, 0, false));
  EXPECT_TRUE(a.mask_test(0, 0, true));
  EXPECT_TRUE(a.mask_test(1, 1, false));
  EXPECT_FALSE(a.mask_test(1, 0, true));
}

TEST(Matrix, EqualityIgnoresFormat) {
  auto a = small_matrix();
  auto b = small_matrix();
  b.to_bitmap();
  EXPECT_EQ(a, b);
  b.set_element(0, 0, 1);
  EXPECT_FALSE(a == b);
}

TEST(Matrix, GetOutOfBoundsThrows) {
  Matrix<int> a(2, 2);
  EXPECT_THROW((void)a.get(2, 0), grb::Exception);
  EXPECT_THROW(a.set_element(0, 2, 1), grb::Exception);
}

TEST(Matrix, RemoveElementCreatesZombie) {
  auto a = small_matrix();
  a.remove_element(0, 1);
  EXPECT_TRUE(a.has_pending());  // the zombie waits on the pending list
  EXPECT_EQ(a.nvals(), 3u);      // buried on the implicit finish()
  EXPECT_FALSE(a.has(0, 1));
  EXPECT_EQ(a.get(0, 3), 2);     // neighbours untouched
}

TEST(Matrix, RemoveMissingElementIsNoOp) {
  auto a = small_matrix();
  a.remove_element(0, 0);  // no entry there
  EXPECT_EQ(a.nvals(), 4u);
}

TEST(Matrix, InterleavedSetAndRemoveLastOpWins) {
  Matrix<int> a(2, 2);
  a.set_element(0, 0, 1);
  a.remove_element(0, 0);
  a.set_element(0, 0, 2);
  EXPECT_EQ(a.get(0, 0), 2);
  a.set_element(0, 1, 3);
  a.remove_element(0, 1);
  EXPECT_FALSE(a.has(0, 1));
  EXPECT_EQ(a.nvals(), 1u);
}

TEST(Matrix, RemoveElementBitmapAndFull) {
  auto a = small_matrix();
  a.to_bitmap();
  a.remove_element(2, 2);
  EXPECT_EQ(a.nvals(), 3u);
  auto f = Matrix<int>::full_matrix(2, 2, 7);
  f.remove_element(1, 1);
  EXPECT_EQ(f.nvals(), 3u);
  EXPECT_FALSE(f.has(1, 1));
  EXPECT_EQ(f.get(0, 0), 7);
}

TEST(Matrix, ZombiesSurviveRoundTripThroughOps) {
  auto a = small_matrix();
  a.remove_element(1, 0);
  auto at = grb::transposed(a);  // forces the pending merge
  EXPECT_EQ(at.nvals(), 3u);
  EXPECT_FALSE(at.has(0, 1));
}
