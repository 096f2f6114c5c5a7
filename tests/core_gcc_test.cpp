#include "core/gcc.hpp"

#include <gtest/gtest.h>

namespace anchor::core {
namespace {

const std::string kHash(64, 'a');
const std::string kOtherHash(64, 'b');
const Sha256::Digest kRoot = *digest_from_hex(kHash);
const Sha256::Digest kOtherRoot = *digest_from_hex(kOtherHash);

constexpr const char* kMinimalValid =
    "valid(Chain, \"TLS\") :- leaf(Chain, L), notBefore(L, NB), NB < 100.";

TEST(Gcc, CreateAcceptsWellFormedProgram) {
  auto gcc = Gcc::create("test", kHash, kMinimalValid, "why");
  ASSERT_TRUE(gcc.ok()) << gcc.error();
  EXPECT_EQ(gcc.value().name(), "test");
  EXPECT_EQ(gcc.value().root_hash_hex(), kHash);
  EXPECT_EQ(gcc.value().justification(), "why");
  EXPECT_FALSE(gcc.value().program().clauses.empty());
}

TEST(Gcc, CreateRejectsEmptyName) {
  EXPECT_FALSE(Gcc::create("", kHash, kMinimalValid).ok());
}

TEST(Gcc, CreateRejectsBadHashLength) {
  EXPECT_FALSE(Gcc::create("t", "deadbeef", kMinimalValid).ok());
}

TEST(Gcc, CreateRejectsParseErrors) {
  auto result = Gcc::create("t", kHash, "valid(Chain :- broken");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("gcc 't'"), std::string::npos);
}

TEST(Gcc, CreateRejectsUnsafePrograms) {
  EXPECT_FALSE(Gcc::create("t", kHash, "valid(Chain, U) :- leaf(Chain, L), \\+bad(Q).").ok());
}

TEST(Gcc, CreateRejectsUnstratifiablePrograms) {
  EXPECT_FALSE(Gcc::create("t", kHash,
                           "valid(C, U) :- leaf(C, U), \\+invalid(C, U).\n"
                           "invalid(C, U) :- leaf(C, U), \\+valid(C, U).")
                   .ok());
}

TEST(Gcc, CreateRejectsProgramWithoutValidRule) {
  auto result = Gcc::create("t", kHash, "other(X) :- leaf(X, L).");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("valid/2"), std::string::npos);
}

TEST(Gcc, HeadWildcardExpandsOverUsageDomain) {
  auto gcc = Gcc::create("t", kHash, "valid(Chain, _) :- leaf(Chain, L).");
  ASSERT_TRUE(gcc.ok()) << gcc.error();
  // One clause per usage.
  std::size_t tls = 0;
  std::size_t smime = 0;
  for (const auto& clause : gcc.value().program().clauses) {
    ASSERT_EQ(clause.head.arity(), 2u);
    ASSERT_TRUE(clause.head.args[1].is_const());
    if (clause.head.args[1].constant == datalog::Value("TLS")) ++tls;
    if (clause.head.args[1].constant == datalog::Value("S/MIME")) ++smime;
  }
  EXPECT_EQ(tls, 1u);
  EXPECT_EQ(smime, 1u);
}

TEST(Gcc, BoundHeadVariableIsNotExpanded) {
  auto gcc = Gcc::create(
      "t", kHash, "valid(Chain, U) :- leaf(Chain, L), usageOf(L, U).");
  ASSERT_TRUE(gcc.ok()) << gcc.error();
  EXPECT_EQ(gcc.value().program().clauses.size(), 1u);
  EXPECT_TRUE(gcc.value().program().clauses[0].head.args[1].is_var());
}

TEST(GccStore, AttachAndLookup) {
  GccStore store;
  store.attach(Gcc::create("a", kHash, kMinimalValid).take());
  store.attach(Gcc::create("b", kHash, kMinimalValid).take());
  store.attach(Gcc::create("c", kOtherHash, kMinimalValid).take());
  EXPECT_EQ(store.for_root(kRoot).size(), 2u);
  EXPECT_EQ(store.for_root(kOtherRoot).size(), 1u);
  EXPECT_TRUE(store.for_root(*digest_from_hex(std::string(64, 'c'))).empty());
  EXPECT_EQ(store.total(), 3u);
  EXPECT_EQ(store.constrained_roots(), 2u);
}

TEST(GccStore, ReattachSameNameReplaces) {
  GccStore store;
  store.attach(Gcc::create("a", kHash, kMinimalValid, "v1").take());
  store.attach(Gcc::create("a", kHash, kMinimalValid, "v2").take());
  ASSERT_EQ(store.for_root(kRoot).size(), 1u);
  EXPECT_EQ(store.for_root(kRoot)[0].justification(), "v2");
}

TEST(GccStore, Detach) {
  GccStore store;
  store.attach(Gcc::create("a", kHash, kMinimalValid).take());
  store.attach(Gcc::create("b", kHash, kMinimalValid).take());
  EXPECT_TRUE(store.detach(kRoot, "a"));
  EXPECT_EQ(store.for_root(kRoot).size(), 1u);
  EXPECT_FALSE(store.detach(kRoot, "a"));  // already gone
  EXPECT_FALSE(store.detach(kOtherRoot, "b"));
  EXPECT_TRUE(store.detach(kRoot, "b"));
  EXPECT_EQ(store.constrained_roots(), 0u);
}

TEST(GccStore, RootsSortedIsDeterministic) {
  GccStore store;
  store.attach(Gcc::create("x", kOtherHash, kMinimalValid).take());
  store.attach(Gcc::create("y", kHash, kMinimalValid).take());
  auto roots = store.roots_sorted();
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_EQ(roots[0], kRoot);
  EXPECT_EQ(roots[1], kOtherRoot);
}

}  // namespace
}  // namespace anchor::core
