// Unit tests for the interpreted evaluator kept as the test oracle
// (tests/oracle): the compiled pipeline is pinned against it, so its own
// semantics are pinned here.
#include "oracle/evaluator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "datalog/parser.hpp"

namespace anchor::datalog {
namespace {

// Runs a program over optional extra EDB facts and returns the relation's
// tuples sorted, for order-independent comparison.
std::vector<Tuple> model_of(const std::string& source,
                            const std::string& predicate, std::size_t arity,
                            Strategy strategy = Strategy::kSemiNaive,
                            Database* db_out = nullptr) {
  auto program = parse_program(source).take();
  auto evaluator = Evaluator::create(program, strategy);
  EXPECT_TRUE(evaluator.ok()) << (evaluator.ok() ? "" : evaluator.error());
  Database db;
  evaluator.value().run(db);
  std::vector<Tuple> tuples;
  if (const Relation* rel = db.find(predicate, arity)) tuples = rel->tuples();
  std::sort(tuples.begin(), tuples.end());
  if (db_out != nullptr) *db_out = std::move(db);
  return tuples;
}

TEST(Eval, FactsMaterialize) {
  auto tuples = model_of("e(1). e(2). e(1).", "e", 1);
  EXPECT_EQ(tuples, (std::vector<Tuple>{{Value(std::int64_t{1})},
                                        {Value(std::int64_t{2})}}));
}

TEST(Eval, SimpleJoin) {
  auto tuples = model_of(R"(
parent(alice, bob). parent(bob, carol). parent(bob, dave).
grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
)", "grandparent", 2);
  EXPECT_EQ(tuples, (std::vector<Tuple>{{Value("alice"), Value("carol")},
                                        {Value("alice"), Value("dave")}}));
}

TEST(Eval, TransitiveClosure) {
  auto tuples = model_of(R"(
edge(1,2). edge(2,3). edge(3,4).
reach(X,Y) :- edge(X,Y).
reach(X,Z) :- reach(X,Y), edge(Y,Z).
)", "reach", 2);
  EXPECT_EQ(tuples.size(), 6u);  // 1-2,1-3,1-4,2-3,2-4,3-4
}

TEST(Eval, CyclicGraphTerminates) {
  auto tuples = model_of(R"(
edge(a,b). edge(b,c). edge(c,a).
reach(X,Y) :- edge(X,Y).
reach(X,Z) :- reach(X,Y), edge(Y,Z).
)", "reach", 2);
  EXPECT_EQ(tuples.size(), 9u);  // complete relation over {a,b,c}
}

TEST(Eval, StratifiedNegation) {
  auto tuples = model_of(R"(
node(1). node(2). node(3).
flagged(2).
clean(X) :- node(X), \+flagged(X).
)", "clean", 1);
  EXPECT_EQ(tuples, (std::vector<Tuple>{{Value(std::int64_t{1})},
                                        {Value(std::int64_t{3})}}));
}

TEST(Eval, NegationOverDerivedPredicate) {
  auto tuples = model_of(R"(
e(1). e(2). e(3). f(2).
bad(X) :- e(X), f(X).
good(X) :- e(X), \+bad(X).
)", "good", 1);
  EXPECT_EQ(tuples.size(), 2u);
}

TEST(Eval, ComparisonFiltering) {
  auto tuples = model_of(R"(
n(1). n(5). n(10).
small(X) :- n(X), X < 6.
)", "small", 1);
  EXPECT_EQ(tuples.size(), 2u);
}

TEST(Eval, AllComparisonOperators) {
  const char* base = "n(1). n(2). n(3).";
  auto count = [&](const std::string& rule) {
    return model_of(std::string(base) + rule, "r", 1).size();
  };
  EXPECT_EQ(count("r(X) :- n(X), X < 2."), 1u);
  EXPECT_EQ(count("r(X) :- n(X), X <= 2."), 2u);
  EXPECT_EQ(count("r(X) :- n(X), X > 2."), 1u);
  EXPECT_EQ(count("r(X) :- n(X), X >= 2."), 2u);
  EXPECT_EQ(count("r(X) :- n(X), X = 2."), 1u);
  EXPECT_EQ(count("r(X) :- n(X), X != 2."), 2u);
}

TEST(Eval, StringComparison) {
  auto tuples = model_of(R"(
s(apple). s(banana).
r(X) :- s(X), X < "b".
)", "r", 1);
  EXPECT_EQ(tuples, (std::vector<Tuple>{{Value("apple")}}));
}

TEST(Eval, MixedTypeComparisonIsOnlyUnequal) {
  auto eq = model_of("a(1). b(\"1\"). r(X) :- a(X), b(Y), X = Y.", "r", 1);
  EXPECT_TRUE(eq.empty());
  auto ne = model_of("a(1). b(\"1\"). r(X) :- a(X), b(Y), X != Y.", "r", 1);
  EXPECT_EQ(ne.size(), 1u);
  auto lt = model_of("a(1). b(\"1\"). r(X) :- a(X), b(Y), X < Y.", "r", 1);
  EXPECT_TRUE(lt.empty());  // ordered comparison on mixed types fails
}

TEST(Eval, ArithmeticAssignment) {
  auto tuples = model_of(R"(
span(cert1, 100, 700).
lifetime(C, L) :- span(C, NB, NA), L = NA - NB.
)", "lifetime", 2);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0][1], Value(std::int64_t{600}));
}

TEST(Eval, ArithmeticAddMul) {
  auto add = model_of("a(3). r(Y) :- a(X), Y = X + 4.", "r", 1);
  EXPECT_EQ(add[0][0], Value(std::int64_t{7}));
  auto mul = model_of("a(3). r(Y) :- a(X), Y = X * 5.", "r", 1);
  EXPECT_EQ(mul[0][0], Value(std::int64_t{15}));
}

TEST(Eval, AssignmentReversedSides) {
  auto tuples = model_of("a(3). r(Y) :- a(X), X + 1 = Y.", "r", 1);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0][0], Value(std::int64_t{4}));
}

TEST(Eval, EqualityBetweenBoundVariables) {
  auto tuples = model_of(R"(
p(1, 1). p(1, 2).
same(X) :- p(X, Y), X = Y.
)", "same", 1);
  EXPECT_EQ(tuples.size(), 1u);
}

TEST(Eval, ComparisonBetweenTwoExpressions) {
  auto tuples = model_of(R"(
m(2, 3). m(5, 4).
r(A) :- m(A, B), A + 1 < B + 1.
)", "r", 1);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0][0], Value(std::int64_t{2}));
}

TEST(Eval, LiteralReorderingHandlesForwardReferences) {
  // The comparison references T before nov(T) binds it textually later.
  auto tuples = model_of(R"(
nb(cert, 100).
nov(200).
ok(C) :- nb(C, NB), NB < T, nov(T).
)", "ok", 1);
  EXPECT_EQ(tuples.size(), 1u);
}

TEST(Eval, ConstantsInRuleHead) {
  auto tuples = model_of("e(1). r(fixed, X) :- e(X).", "r", 2);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0][0], Value("fixed"));
}

TEST(Eval, ConstantFilterInBodyAtom) {
  auto tuples = model_of(R"(
usage(c1, tls). usage(c2, smime).
tlsOnly(C) :- usage(C, tls).
)", "tlsOnly", 1);
  EXPECT_EQ(tuples, (std::vector<Tuple>{{Value("c1")}}));
}

TEST(Eval, SameVariableTwiceInAtom) {
  auto tuples = model_of(R"(
p(1, 1). p(1, 2). p(3, 3).
diag(X) :- p(X, X).
)", "diag", 1);
  EXPECT_EQ(tuples.size(), 2u);
}

TEST(Eval, EmptyEdbYieldsEmptyIdb) {
  auto tuples = model_of("r(X) :- nothing(X).", "r", 1);
  EXPECT_TRUE(tuples.empty());
}

TEST(Eval, StatsArePopulated) {
  auto program = parse_program(R"(
edge(1,2). edge(2,3).
reach(X,Y) :- edge(X,Y).
reach(X,Z) :- reach(X,Y), edge(Y,Z).
)").take();
  auto evaluator = Evaluator::create(program).take();
  Database db;
  EvalStats stats = evaluator.run(db);
  EXPECT_GE(stats.iterations, 2u);
  EXPECT_EQ(stats.derived_tuples, 2u + 3u);  // 2 edges + 3 reach tuples
  EXPECT_GT(stats.rule_applications, 0u);
}

// --- Differential testing: semi-naive and naive must agree -------------------

struct DiffCase {
  const char* name;
  const char* source;
  const char* predicate;
  std::size_t arity;
};

// Names the case, so ctest's test names carry no pointer bytes and stay
// the same from build to build.
void PrintTo(const DiffCase& test_case, std::ostream* os) {
  *os << test_case.name;
}

class StrategyDifferential : public ::testing::TestWithParam<DiffCase> {};

TEST_P(StrategyDifferential, SemiNaiveMatchesNaive) {
  const DiffCase& test_case = GetParam();
  auto semi = model_of(test_case.source, test_case.predicate, test_case.arity,
                       Strategy::kSemiNaive);
  auto naive = model_of(test_case.source, test_case.predicate, test_case.arity,
                        Strategy::kNaive);
  EXPECT_EQ(semi, naive);
  EXPECT_FALSE(semi.empty()) << "vacuous differential case";
}

INSTANTIATE_TEST_SUITE_P(
    Programs, StrategyDifferential,
    ::testing::Values(
        DiffCase{"closure", R"(
edge(1,2). edge(2,3). edge(3,4). edge(4,1). edge(2,5).
reach(X,Y) :- edge(X,Y).
reach(X,Z) :- reach(X,Y), edge(Y,Z).)", "reach", 2},
        DiffCase{"negation", R"(
n(1). n(2). n(3). n(4). m(2). m(4).
odd(X) :- n(X), \+m(X).)", "odd", 1},
        DiffCase{"mutual", R"(
e(1,2). e(2,3). e(3,4). e(4,5). e(5,6).
even(X) :- start(X).
start(1).
odd(Y) :- even(X), e(X,Y).
even(Y) :- odd(X), e(X,Y).)", "even", 1},
        DiffCase{"arith", R"(
base(0).
step(X, Y) :- base(X), Y = X + 1.
)", "step", 2},
        DiffCase{"layered", R"(
a(1). a(2). a(3).
b(X) :- a(X), X < 3.
c(X) :- a(X), \+b(X).
d(X) :- a(X), \+c(X).)", "d", 1}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return info.param.name;
    });

TEST(Eval, DeepRecursionLinearChain) {
  // 200-node chain: semi-naive needs ~200 iterations; naive would be O(n^2)
  // rule applications but must still agree.
  std::string source;
  for (int i = 0; i < 200; ++i) {
    source += "edge(" + std::to_string(i) + "," + std::to_string(i + 1) + ").\n";
  }
  source += "reach(X,Y) :- edge(X,Y).\nreach(X,Z) :- reach(X,Y), edge(Y,Z).\n";
  auto semi = model_of(source, "reach", 2, Strategy::kSemiNaive);
  EXPECT_EQ(semi.size(), 200u * 201u / 2);
}

TEST(Eval, SemiNaiveDoesLessWorkThanNaive) {
  std::string source;
  for (int i = 0; i < 60; ++i) {
    source += "edge(" + std::to_string(i) + "," + std::to_string(i + 1) + ").\n";
  }
  source += "reach(X,Y) :- edge(X,Y).\nreach(X,Z) :- reach(X,Y), edge(Y,Z).\n";
  auto program = parse_program(source).take();

  Database db_semi;
  EvalStats semi =
      Evaluator::create(program, Strategy::kSemiNaive).take().run(db_semi);
  Database db_naive;
  EvalStats naive =
      Evaluator::create(program, Strategy::kNaive).take().run(db_naive);
  EXPECT_EQ(db_semi.total_tuples(), db_naive.total_tuples());
  EXPECT_EQ(semi.derived_tuples, naive.derived_tuples);
}

}  // namespace
}  // namespace anchor::datalog

namespace anchor::datalog {
namespace {

TEST(EvalLimits_, RunawayArithmeticRecursionIsTruncated) {
  // Pure Datalog terminates; arithmetic breaks that. The guard must stop
  // `p(Y) :- p(X), Y = X + 1.` and mark the run truncated.
  auto program = parse_program("p(0).\np(Y) :- p(X), Y = X + 1.").take();
  EvalLimits limits;
  limits.max_derived_tuples = 5000;
  limits.max_iterations = 10000;
  auto evaluator = Evaluator::create(program, Strategy::kSemiNaive, limits).take();
  Database db;
  EvalStats stats = evaluator.run(db);
  EXPECT_TRUE(stats.truncated);
  EXPECT_LE(db.total_tuples(), 6000u);  // stopped near the bound
}

TEST(EvalLimits_, IterationBoundStopsNaiveToo) {
  auto program = parse_program("p(0).\np(Y) :- p(X), Y = X + 1, X < 100000.").take();
  EvalLimits limits;
  limits.max_iterations = 50;
  limits.max_derived_tuples = 1000000;
  auto evaluator = Evaluator::create(program, Strategy::kNaive, limits).take();
  Database db;
  EvalStats stats = evaluator.run(db);
  EXPECT_TRUE(stats.truncated);
}

TEST(EvalLimits_, WellBehavedProgramsAreNotTruncated) {
  auto program = parse_program(R"(
edge(1,2). edge(2,3). edge(3,1).
reach(X,Y) :- edge(X,Y).
reach(X,Z) :- reach(X,Y), edge(Y,Z).
)").take();
  auto evaluator = Evaluator::create(program).take();
  Database db;
  EvalStats stats = evaluator.run(db);
  EXPECT_FALSE(stats.truncated);
}

TEST(EvalLimits_, TupleBoundAbortsInFlightJoinPromptly) {
  // Regression: the guard used to only *flag* truncation while the
  // in-flight rule application kept joining, so one cross-product rule
  // could blow arbitrarily far past max_derived_tuples. Derivation must
  // now stop within one tuple of the bound.
  std::string source;
  for (int i = 0; i < 100; ++i) {
    source += "a(" + std::to_string(i) + "). b(" + std::to_string(i) + ").\n";
  }
  source += "r(X, Y) :- a(X), b(Y).\n";  // 10,000-tuple cross product
  auto program = parse_program(source).take();
  EvalLimits limits;
  limits.max_derived_tuples = 210;  // 200 facts + 10 derived tuples
  auto evaluator =
      Evaluator::create(program, Strategy::kSemiNaive, limits).take();
  Database db;
  EvalStats stats = evaluator.run(db);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.derived_tuples, limits.max_derived_tuples + 1);
}

}  // namespace
}  // namespace anchor::datalog

// --- Fail-closed emission and type-error accounting --------------------------

namespace anchor::datalog {
namespace {

TEST(FailClosed, UnboundHeadTermErrorsInsteadOfEmitting) {
  // The parser can't produce this (it renames `_` to a fresh variable,
  // which safety then rejects in heads), but a hand-built AST can: a
  // wildcard head term slips past check_safety, and the evaluator used to
  // substitute Value() — integer 0 — and emit the corrupt tuple.
  Program program;
  Clause fact;
  fact.head.predicate = "e";
  fact.head.args = {Term::constant_of(Value(std::int64_t{1}))};
  program.clauses.push_back(fact);

  Clause rule;
  rule.head.predicate = "r";
  rule.head.args = {Term::var("X"), Term::wildcard()};
  Literal body;
  body.kind = Literal::Kind::kAtom;
  body.atom.predicate = "e";
  body.atom.args = {Term::var("X")};
  rule.body = {body};
  program.clauses.push_back(rule);

  auto evaluator = Evaluator::create(program).take();
  Database db;
  EvalStats stats = evaluator.run(db);
  EXPECT_TRUE(stats.errored);
  EXPECT_EQ(stats.unbound_head_terms, 1u);
  const Relation* rel = db.find("r", 2);
  EXPECT_TRUE(rel == nullptr || rel->empty());  // nothing corrupt emitted
}

TEST(FailClosed, CleanProgramsDoNotError) {
  auto program = parse_program("e(1). r(X) :- e(X).").take();
  auto evaluator = Evaluator::create(program).take();
  Database db;
  EvalStats stats = evaluator.run(db);
  EXPECT_FALSE(stats.errored);
  EXPECT_EQ(stats.unbound_head_terms, 0u);
}

EvalStats stats_of(const std::string& source,
                   Strategy strategy = Strategy::kSemiNaive) {
  auto program = parse_program(source).take();
  auto evaluator = Evaluator::create(program, strategy).take();
  Database db;
  return evaluator.run(db);
}

TEST(TypeErrors, MixedOrderedComparisonIsCounted) {
  EvalStats stats =
      stats_of("a(1). b(\"1\"). r(X) :- a(X), b(Y), X < Y.");
  EXPECT_EQ(stats.type_errors, 1u);
}

TEST(TypeErrors, MixedEqualityIsNotAnError) {
  // Equality semantics on mixed types are well-defined (always unequal);
  // only ordered comparisons are diagnosable mistakes.
  EXPECT_EQ(stats_of("a(1). b(\"1\"). r(X) :- a(X), b(Y), X = Y.")
                .type_errors,
            0u);
  EXPECT_EQ(stats_of("a(1). b(\"1\"). r(X) :- a(X), b(Y), X != Y.")
                .type_errors,
            0u);
}

TEST(TypeErrors, ArithmeticOnStringIsCounted) {
  EvalStats stats = stats_of("s(apple). r(Y) :- s(X), Y = X + 1.");
  EXPECT_EQ(stats.type_errors, 1u);
}

}  // namespace
}  // namespace anchor::datalog
