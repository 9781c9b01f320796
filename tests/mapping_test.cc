#include <gtest/gtest.h>

#include "wdsparql/mapping.h"

namespace wdsparql {
namespace {

class MappingTest : public ::testing::Test {
 protected:
  TermPool pool_;
  TermId x_ = pool_.InternVariable("x");
  TermId y_ = pool_.InternVariable("y");
  TermId z_ = pool_.InternVariable("z");
  TermId a_ = pool_.InternIri("a");
  TermId b_ = pool_.InternIri("b");
  TermId c_ = pool_.InternIri("c");
};

TEST_F(MappingTest, EmptyMapping) {
  Mapping mu;
  EXPECT_TRUE(mu.empty());
  EXPECT_EQ(mu.size(), 0u);
  EXPECT_FALSE(mu.IsDefinedOn(x_));
  EXPECT_TRUE(mu.Domain().empty());
}

TEST_F(MappingTest, BindAndGet) {
  Mapping mu;
  EXPECT_TRUE(mu.Bind(x_, a_));
  EXPECT_TRUE(mu.Bind(y_, b_));
  EXPECT_EQ(mu.Get(x_), a_);
  EXPECT_EQ(mu.Get(y_), b_);
  EXPECT_FALSE(mu.Get(z_).has_value());
  EXPECT_EQ(mu.size(), 2u);
}

TEST_F(MappingTest, RebindSameValueIsOk) {
  Mapping mu;
  EXPECT_TRUE(mu.Bind(x_, a_));
  EXPECT_TRUE(mu.Bind(x_, a_));
  EXPECT_FALSE(mu.Bind(x_, b_));  // Conflict.
  EXPECT_EQ(mu.Get(x_), a_);      // Unchanged.
}

TEST_F(MappingTest, DomainIsSorted) {
  Mapping mu;
  mu.Bind(z_, c_);
  mu.Bind(x_, a_);
  std::vector<TermId> domain = mu.Domain();
  ASSERT_EQ(domain.size(), 2u);
  EXPECT_LT(domain[0], domain[1]);
}

TEST_F(MappingTest, Compatibility) {
  Mapping mu1, mu2, mu3;
  mu1.Bind(x_, a_);
  mu1.Bind(y_, b_);
  mu2.Bind(y_, b_);
  mu2.Bind(z_, c_);
  mu3.Bind(y_, c_);
  EXPECT_TRUE(Mapping::Compatible(mu1, mu2));
  EXPECT_FALSE(Mapping::Compatible(mu1, mu3));
  // Disjoint domains are always compatible.
  Mapping only_x, only_z;
  only_x.Bind(x_, a_);
  only_z.Bind(z_, a_);
  EXPECT_TRUE(Mapping::Compatible(only_x, only_z));
  // Empty mapping is compatible with everything.
  EXPECT_TRUE(Mapping::Compatible(Mapping{}, mu1));
}

TEST_F(MappingTest, UnionMergesBindings) {
  Mapping mu1, mu2;
  mu1.Bind(x_, a_);
  mu2.Bind(y_, b_);
  auto joined = Mapping::Union(mu1, mu2);
  ASSERT_TRUE(joined.has_value());
  EXPECT_EQ(joined->size(), 2u);
  EXPECT_EQ(joined->Get(x_), a_);
  EXPECT_EQ(joined->Get(y_), b_);

  Mapping conflicting;
  conflicting.Bind(x_, b_);
  EXPECT_FALSE(Mapping::Union(mu1, conflicting).has_value());
}

TEST_F(MappingTest, UnionWithOverlapKeepsSharedBinding) {
  Mapping mu1, mu2;
  mu1.Bind(x_, a_);
  mu1.Bind(y_, b_);
  mu2.Bind(y_, b_);
  mu2.Bind(z_, c_);
  auto joined = Mapping::Union(mu1, mu2);
  ASSERT_TRUE(joined.has_value());
  EXPECT_EQ(joined->size(), 3u);
}

TEST_F(MappingTest, Submapping) {
  Mapping small, big;
  small.Bind(x_, a_);
  big.Bind(x_, a_);
  big.Bind(y_, b_);
  EXPECT_TRUE(Mapping::IsSubmapping(small, big));
  EXPECT_FALSE(Mapping::IsSubmapping(big, small));
  EXPECT_TRUE(Mapping::IsSubmapping(Mapping{}, small));
}

TEST_F(MappingTest, RestrictedTo) {
  Mapping mu;
  mu.Bind(x_, a_);
  mu.Bind(y_, b_);
  Mapping restricted = mu.RestrictedTo({x_, z_});
  EXPECT_EQ(restricted.size(), 1u);
  EXPECT_EQ(restricted.Get(x_), a_);
}

TEST_F(MappingTest, ApplyToTriple) {
  Mapping mu;
  mu.Bind(x_, a_);
  mu.Bind(y_, b_);
  TermId p = pool_.InternIri("p");
  Triple t(x_, p, y_);
  Triple image = mu.Apply(t);
  EXPECT_EQ(image, Triple(a_, p, b_));
  // ApplyPartial leaves unbound variables alone.
  Triple partial = mu.ApplyPartial(Triple(x_, p, z_));
  EXPECT_EQ(partial, Triple(a_, p, z_));
}

TEST_F(MappingTest, OrderingAndEquality) {
  Mapping mu1, mu2;
  mu1.Bind(x_, a_);
  mu2.Bind(x_, a_);
  EXPECT_EQ(mu1, mu2);
  mu2.Bind(y_, b_);
  EXPECT_NE(mu1, mu2);
  EXPECT_TRUE(mu1 < mu2 || mu2 < mu1);
}

TEST_F(MappingTest, HashAgreesWithEquality) {
  Mapping mu1, mu2;
  mu1.Bind(x_, a_);
  mu1.Bind(y_, b_);
  mu2.Bind(y_, b_);
  mu2.Bind(x_, a_);
  EXPECT_EQ(MappingHash{}(mu1), MappingHash{}(mu2));
}

TEST_F(MappingTest, ToStringRendersBindings) {
  Mapping mu;
  mu.Bind(x_, a_);
  EXPECT_EQ(mu.ToString(pool_), "{?x -> a}");
}

}  // namespace
}  // namespace wdsparql
