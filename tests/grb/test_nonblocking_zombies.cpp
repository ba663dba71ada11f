// Non-blocking mode visibility: set_element defers to a pending-tuple list
// and remove_element creates "zombies" (CSR format only), both merged on the
// next finish(). The spec'd contract is that deferred state is *never*
// observable — nvals/get/extract_tuples/reduce must reflect the logical
// content as if every mutation had been applied eagerly.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "grb/grb.hpp"

namespace {

using grb::Index;
using T = std::int64_t;
using Mat = grb::Matrix<T>;
using Vec = grb::Vector<T>;

Mat build3x3() {
  // (0,0)=1 (0,2)=10 (1,1)=100 (2,0)=1000
  Mat a(3, 3);
  std::vector<Index> r{0, 0, 1, 2}, c{0, 2, 1, 0};
  std::vector<T> v{1, 10, 100, 1000};
  a.build(r, c, v);
  return a;
}

T reduce_plus(const Mat &a) {
  T s = 0;
  grb::reduce(s, grb::NoAccum{}, grb::PlusMonoid<T>{}, a);
  return s;
}

TEST(NonBlockingZombies, ZombieInvisibleToNvals) {
  Mat a = build3x3();
  ASSERT_EQ(a.nvals(), 4u);
  a.remove_element(0, 2);
  ASSERT_TRUE(a.has_pending()) << "CSR remove_element should defer a zombie";
  EXPECT_EQ(a.nvals(), 3u) << "zombie counted by nvals before flush";
}

TEST(NonBlockingZombies, ZombieInvisibleToGet) {
  Mat a = build3x3();
  a.remove_element(1, 1);
  ASSERT_TRUE(a.has_pending());
  EXPECT_FALSE(a.get(1, 1).has_value()) << "zombie readable via get()";
  // Untouched entries survive the merge intact.
  EXPECT_EQ(a.get(2, 0).value_or(-1), 1000);
}

TEST(NonBlockingZombies, ZombieInvisibleToExtractTuples) {
  Mat a = build3x3();
  a.remove_element(0, 0);
  a.remove_element(2, 0);
  ASSERT_TRUE(a.has_pending());
  std::vector<Index> r, c;
  std::vector<T> v;
  a.extract_tuples(r, c, v);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(r, (std::vector<Index>{0, 1}));
  EXPECT_EQ(c, (std::vector<Index>{2, 1}));
  EXPECT_EQ(v, (std::vector<T>{10, 100}));
}

TEST(NonBlockingZombies, ZombieInvisibleToReduce) {
  Mat a = build3x3();
  ASSERT_EQ(reduce_plus(a), 1111);
  a.remove_element(2, 0);
  ASSERT_TRUE(a.has_pending());
  EXPECT_EQ(reduce_plus(a), 111) << "zombie value leaked into reduce";
}

TEST(NonBlockingZombies, PendingInsertVisibleToReads) {
  Mat a = build3x3();
  a.set_element(2, 2, 7);
  ASSERT_TRUE(a.has_pending());
  EXPECT_EQ(a.nvals(), 5u);
  EXPECT_EQ(a.get(2, 2).value_or(-1), 7);
}

TEST(NonBlockingZombies, RemoveThenSetResurrects) {
  Mat a = build3x3();
  a.remove_element(0, 0);
  a.set_element(0, 0, 42);
  ASSERT_TRUE(a.has_pending());
  EXPECT_EQ(a.get(0, 0).value_or(-1), 42);
  EXPECT_EQ(a.nvals(), 4u);
}

TEST(NonBlockingZombies, SetThenRemoveStaysDead) {
  Mat a = build3x3();
  a.set_element(1, 2, 42);
  a.remove_element(1, 2);
  ASSERT_TRUE(a.has_pending());
  EXPECT_FALSE(a.get(1, 2).has_value());
  EXPECT_EQ(a.nvals(), 4u);
}

TEST(NonBlockingZombies, LaterWriteWins) {
  Mat a = build3x3();
  a.set_element(0, 1, 5);
  a.set_element(0, 1, 6);
  ASSERT_TRUE(a.has_pending());
  EXPECT_EQ(a.get(0, 1).value_or(-1), 6);
  EXPECT_EQ(a.nvals(), 5u);
}

TEST(NonBlockingZombies, ZombieForAbsentEntryIsNoOp) {
  Mat a = build3x3();
  a.remove_element(2, 2);  // never present
  EXPECT_EQ(a.nvals(), 4u);
  EXPECT_EQ(reduce_plus(a), 1111);
}

TEST(NonBlockingZombies, InterleavedAcrossFlushes) {
  // Mutations, a flushing read, then more mutations: each batch of deferred
  // work must merge against the already-merged state, not the original.
  Mat a = build3x3();
  a.remove_element(0, 0);
  ASSERT_EQ(a.nvals(), 3u);  // forces the first flush
  ASSERT_FALSE(a.has_pending());
  a.set_element(0, 0, 2);
  a.remove_element(1, 1);
  ASSERT_TRUE(a.has_pending());
  EXPECT_EQ(a.nvals(), 3u);
  EXPECT_EQ(a.get(0, 0).value_or(-1), 2);
  EXPECT_FALSE(a.get(1, 1).has_value());
  EXPECT_EQ(reduce_plus(a), 1012);
}

TEST(NonBlockingZombies, BitmapMutatesEagerly) {
  Mat a = build3x3();
  a.to_bitmap();
  a.remove_element(0, 0);
  EXPECT_FALSE(a.has_pending()) << "bitmap deletes should apply in place";
  EXPECT_EQ(a.nvals(), 3u);
  a.set_element(0, 0, 9);
  EXPECT_FALSE(a.has_pending());
  EXPECT_EQ(a.get(0, 0).value_or(-1), 9);
}

TEST(NonBlockingZombies, VectorMutationsAreImmediate) {
  Vec u(4);
  std::vector<Index> ix{0, 1, 3};
  std::vector<T> v{1, 10, 100};
  u.build(ix, v);
  u.remove_element(1);
  EXPECT_EQ(u.nvals(), 2u);
  EXPECT_FALSE(u.get(1).has_value());
  T s = 0;
  grb::reduce(s, grb::NoAccum{}, grb::PlusMonoid<T>{}, u);
  EXPECT_EQ(s, 101);
}

TEST(NonBlockingZombies, KernelInputFlushesDeferredWork) {
  // A matrix with pending work fed into a kernel must behave as if flushed.
  Mat a = build3x3();
  a.remove_element(0, 0);
  a.set_element(2, 2, 3);
  ASSERT_TRUE(a.has_pending());
  Vec ones(3);
  std::vector<Index> ix{0, 1, 2};
  std::vector<T> v{1, 1, 1};
  ones.build(ix, v);
  Vec w(3);
  grb::mxv(w, grb::no_mask, grb::NoAccum{}, grb::PlusTimes<T>{}, a,
           ones);
  EXPECT_EQ(w.get(0).value_or(-1), 10);    // (0,0) zombie gone, (0,2)=10
  EXPECT_EQ(w.get(1).value_or(-1), 100);
  EXPECT_EQ(w.get(2).value_or(-1), 1003);  // 1000 + new (2,2)=3
}

}  // namespace
