#include "datalog/stratify.hpp"

#include <gtest/gtest.h>

#include "datalog/parser.hpp"

namespace anchor::datalog {
namespace {

Program parse(const char* source) { return parse_program(source).take(); }

TEST(Stratify, FlatProgramIsSingleStratum) {
  auto strata = stratify(parse("p(X) :- e(X). q(X) :- e(X).")).take();
  EXPECT_EQ(strata.num_strata, 1);
  EXPECT_EQ(strata.stratum(relation_key("p", 1)), 0);
  EXPECT_EQ(strata.stratum(relation_key("q", 1)), 0);
}

TEST(Stratify, NegationForcesHigherStratum) {
  auto strata =
      stratify(parse("bad(X) :- e(X), f(X). good(X) :- e(X), \\+bad(X).")).take();
  EXPECT_EQ(strata.num_strata, 2);
  EXPECT_EQ(strata.stratum(relation_key("bad", 1)), 0);
  EXPECT_EQ(strata.stratum(relation_key("good", 1)), 1);
}

TEST(Stratify, ChainedNegationStacksStrata) {
  auto strata = stratify(parse(R"(
a(X) :- e(X).
b(X) :- e(X), \+a(X).
c(X) :- e(X), \+b(X).
)")).take();
  EXPECT_EQ(strata.num_strata, 3);
  EXPECT_EQ(strata.stratum(relation_key("c", 1)), 2);
}

TEST(Stratify, PositiveRecursionIsFine) {
  auto strata =
      stratify(parse("reach(X,Y) :- edge(X,Y). reach(X,Z) :- reach(X,Y), edge(Y,Z).")).take();
  EXPECT_EQ(strata.num_strata, 1);
}

TEST(Stratify, NegationThroughRecursionRejected) {
  auto result = stratify(parse("p(X) :- e(X), \\+q(X). q(X) :- e(X), \\+p(X)."));
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error().find("not stratifiable"), std::string::npos);
}

TEST(Stratify, SelfNegationRejected) {
  EXPECT_FALSE(stratify(parse("p(X) :- e(X), \\+p(X).")).ok());
}

TEST(Stratify, EdbNegationIsStratumZeroSafe) {
  // Negating a pure-EDB predicate adds no stratum pressure beyond 1 level.
  auto strata = stratify(parse("p(X) :- e(X), \\+f(X).")).take();
  EXPECT_EQ(strata.num_strata, 1);
  EXPECT_EQ(strata.stratum(relation_key("p", 1)), 0);
}

TEST(Safety, GroundFactsAccepted) {
  EXPECT_TRUE(check_safety(parse("p(1, \"x\", atom).")).ok());
}

TEST(Safety, VariableFactRejected) {
  EXPECT_FALSE(check_safety(parse("p(X).")).ok());
}

TEST(Safety, HeadVariableMustAppearInPositiveBody) {
  EXPECT_TRUE(check_safety(parse("p(X) :- q(X).")).ok());
  EXPECT_FALSE(check_safety(parse("p(X, Y) :- q(X).")).ok());
}

TEST(Safety, NegatedVariablesMustBeBound) {
  EXPECT_TRUE(check_safety(parse("p(X) :- q(X), \\+r(X).")).ok());
  EXPECT_FALSE(check_safety(parse("p(X) :- q(X), \\+r(Y).")).ok());
}

TEST(Safety, ComparisonVariablesMustBeBound) {
  EXPECT_TRUE(check_safety(parse("p(X) :- q(X), X < 5.")).ok());
  EXPECT_FALSE(check_safety(parse("p(X) :- q(X), Y < 5.")).ok());
}

TEST(Safety, AssignmentBindsThroughExpressions) {
  // Lifetime = NA - NB is safe once NA and NB are bound.
  EXPECT_TRUE(check_safety(parse(
      "p(L) :- a(L, NA), b(L, NB), Lifetime = NA - NB, Lifetime <= 100.")).ok());
  // Chained assignments resolve through fixpoint iteration.
  EXPECT_TRUE(check_safety(parse(
      "p(A) :- q(A), B = A + 1, C = B + 1, C < 10.")).ok());
  // Assignment from an unbound variable is rejected.
  EXPECT_FALSE(check_safety(parse("p(A) :- q(A), B = C + 1, B < 10.")).ok());
}

TEST(Safety, HeadVariableBoundOnlyByAssignmentIsAccepted) {
  EXPECT_TRUE(check_safety(parse("p(B) :- q(A), B = A + 1.")).ok());
}

TEST(Safety, PaperListingThreeVerbatimIsUnsafe) {
  // The paper's Listing 3 as printed references `Leaf` in the valid rule
  // body while binding `Cert` — our safety analysis catches the typo.
  auto program = parse(R"(
oneMonthInSeconds(2630000).
lifetimeValid(Leaf) :- notBefore(Leaf, NB), notAfter(Leaf, NA),
  Lifetime = NA - NB, oneMonthInSeconds(Limit), Lifetime <= Limit.
validUsage(Leaf) :- extendedKeyUsage(Leaf, "id-kp-serverAuth"),
  keyUsage(Leaf, "digitalSignature").
valid(Chain, "TLS") :- leaf(Chain, Cert), lifetimeValid(Leaf), validUsage(Leaf).
)");
  // `Leaf` in lifetimeValid(Leaf)/validUsage(Leaf) is a positive atom
  // variable, so the clause is formally safe — but with Cert unused it
  // quantifies over *any* certificate, which is not what the paper means.
  // The corrected rendition in incidents/listings.cpp binds Cert.
  EXPECT_TRUE(check_safety(program).ok());
  auto strata = stratify(program);
  EXPECT_TRUE(strata.ok());
}

}  // namespace
}  // namespace anchor::datalog
