// Unit tests for the compiled GCC evaluation pipeline: symbol interning,
// slot-resolved execution, session reuse, fail-closed compile-time checks
// and parity with the interpreted Evaluator on the corner cases the random
// differential sweep is unlikely to hit.
#include "datalog/compiled.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "datalog/parser.hpp"

namespace anchor::datalog {
namespace {

std::vector<Tuple> compiled_tuples(const std::string& source,
                                   const std::string& predicate,
                                   std::size_t arity,
                                   Strategy strategy = Strategy::kSemiNaive,
                                   EvalStats* stats_out = nullptr) {
  auto program = parse_program(source).take();
  auto compiled = CompiledProgram::compile(program);
  EXPECT_TRUE(compiled.ok()) << (compiled.ok() ? "" : compiled.error());
  Session session;
  session.prepare(compiled.value());
  EvalStats stats = compiled.value().run(session, strategy);
  if (stats_out != nullptr) *stats_out = stats;
  Database db;
  compiled.value().decode_model(session, db);
  std::vector<Tuple> tuples;
  if (const Relation* rel = db.find(predicate, arity)) tuples = rel->tuples();
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

TEST(Compiled, FactsAndJoins) {
  auto tuples = compiled_tuples(R"(
parent(alice, bob). parent(bob, carol). parent(bob, dave).
grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
)", "grandparent", 2);
  EXPECT_EQ(tuples, (std::vector<Tuple>{{Value("alice"), Value("carol")},
                                        {Value("alice"), Value("dave")}}));
}

TEST(Compiled, RecursionBothStrategies) {
  const char* source = R"(
edge(1,2). edge(2,3). edge(3,1).
reach(X,Y) :- edge(X,Y).
reach(X,Z) :- reach(X,Y), edge(Y,Z).
)";
  EXPECT_EQ(compiled_tuples(source, "reach", 2, Strategy::kSemiNaive).size(),
            9u);
  EXPECT_EQ(compiled_tuples(source, "reach", 2, Strategy::kNaive).size(), 9u);
}

TEST(Compiled, StratifiedNegationAndComparisons) {
  auto tuples = compiled_tuples(R"(
n(1). n(5). n(10). flagged(5).
small(X) :- n(X), X < 6, \+flagged(X).
)", "small", 1);
  EXPECT_EQ(tuples, (std::vector<Tuple>{{Value(std::int64_t{1})}}));
}

TEST(Compiled, ArithmeticAssignmentBothDirections) {
  auto fwd = compiled_tuples("a(3). r(Y) :- a(X), Y = X + 4.", "r", 1);
  ASSERT_EQ(fwd.size(), 1u);
  EXPECT_EQ(fwd[0][0], Value(std::int64_t{7}));
  auto rev = compiled_tuples("a(3). r(Y) :- a(X), X * 5 = Y.", "r", 1);
  ASSERT_EQ(rev.size(), 1u);
  EXPECT_EQ(rev[0][0], Value(std::int64_t{15}));
}

TEST(Compiled, SameVariableTwiceInAtom) {
  auto tuples = compiled_tuples(R"(
p(1, 1). p(1, 2). p(3, 3).
diag(X) :- p(X, X).
)", "diag", 1);
  EXPECT_EQ(tuples.size(), 2u);
}

TEST(Compiled, WildcardInPositiveAtomMatchesAnything) {
  auto tuples = compiled_tuples(R"(
p(1, 2). p(3, 4).
left(X) :- p(X, _).
)", "left", 1);
  EXPECT_EQ(tuples.size(), 2u);
}

TEST(Compiled, MixedTypeComparisonSemanticsMatchInterpreter) {
  EXPECT_TRUE(compiled_tuples(
      "a(1). b(\"1\"). r(X) :- a(X), b(Y), X = Y.", "r", 1).empty());
  EXPECT_EQ(compiled_tuples(
      "a(1). b(\"1\"). r(X) :- a(X), b(Y), X != Y.", "r", 1).size(), 1u);
  EvalStats stats;
  EXPECT_TRUE(compiled_tuples(
      "a(1). b(\"1\"). r(X) :- a(X), b(Y), X < Y.", "r", 1,
      Strategy::kSemiNaive, &stats).empty());
  EXPECT_EQ(stats.type_errors, 1u);
}

TEST(Compiled, ArithmeticOnStringCountsTypeError) {
  EvalStats stats;
  auto tuples = compiled_tuples("s(apple). r(Y) :- s(X), Y = X + 1.", "r", 1,
                                Strategy::kSemiNaive, &stats);
  EXPECT_TRUE(tuples.empty());
  EXPECT_EQ(stats.type_errors, 1u);
}

TEST(Compiled, OrderedStringComparisonGoesThroughPool) {
  auto tuples = compiled_tuples(R"(
s(apple). s(banana).
r(X) :- s(X), X < "b".
)", "r", 1);
  EXPECT_EQ(tuples, (std::vector<Tuple>{{Value("apple")}}));
}

TEST(Compiled, BigIntegersAreBoxedCanonically) {
  // |v| >= 2^61 exceeds the inline range; boxing must keep equality exact.
  const std::int64_t big = (std::int64_t{1} << 62) + 12345;
  std::string source = "n(" + std::to_string(big) + "). n(" +
                       std::to_string(big) + "). n(1).\n"
                       "r(X) :- n(X), X > 100.\n";
  auto tuples = compiled_tuples(source, "r", 1);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0][0], Value(big));
}

TEST(Compiled, QueryHoldsOnGroundTuples) {
  auto program = parse_program(R"(
edge(a, b). edge(b, c).
reach(X,Y) :- edge(X,Y).
reach(X,Z) :- reach(X,Y), edge(Y,Z).
)").take();
  auto compiled = CompiledProgram::compile(program).take();
  Session session;
  session.prepare(compiled);
  compiled.run(session);
  const Value ac[2] = {Value("a"), Value("c")};
  EXPECT_TRUE(compiled.query_holds(session, "reach", ac));
  const Value ca[2] = {Value("c"), Value("a")};
  EXPECT_FALSE(compiled.query_holds(session, "reach", ca));
  // A value the program and facts never mention can't be in any tuple.
  const Value zz[2] = {Value("zebra"), Value("c")};
  EXPECT_FALSE(compiled.query_holds(session, "reach", zz));
  EXPECT_FALSE(compiled.query_holds(session, "nosuch", ac));
}

TEST(Compiled, SessionFactsFeedEvaluation) {
  auto program = parse_program("big(X) :- n(X), X > 10.").take();
  auto compiled = CompiledProgram::compile(program).take();
  Session session;
  session.prepare(compiled);
  const Value five[1] = {Value(std::int64_t{5})};
  const Value fifty[1] = {Value(std::int64_t{50})};
  const int n_rel = compiled.relation_index("n", 1);
  ASSERT_GE(n_rel, 0);
  EXPECT_TRUE(session.add_fact(n_rel, five));
  EXPECT_TRUE(session.add_fact(n_rel, fifty));
  EXPECT_FALSE(session.add_fact(n_rel, fifty));  // dedup
  compiled.run(session);
  const Value probe[1] = {Value(std::int64_t{50})};
  EXPECT_TRUE(compiled.query_holds(session, "big", probe));
  const Value probe5[1] = {Value(std::int64_t{5})};
  EXPECT_FALSE(compiled.query_holds(session, "big", probe5));
}

TEST(Compiled, RelationIndexKeysOnPredicateAndArity) {
  auto compiled = CompiledProgram::compile(
      parse_program("p(1). p(1, 2). q(X) :- p(X), p(X, _).").take()).take();
  const int p1 = compiled.relation_index("p", 1);
  const int p2 = compiled.relation_index("p", 2);
  ASSERT_GE(p1, 0);
  ASSERT_GE(p2, 0);
  EXPECT_NE(p1, p2);
  EXPECT_EQ(compiled.relation_index("p", 3), -1);
  EXPECT_EQ(compiled.relation_index("pp", 1), -1);
  // The index is rebuilt on deserialization, not serialized.
  Bytes bytes;
  compiled.serialize(bytes);
  auto restored = CompiledProgram::deserialize(bytes).take();
  EXPECT_EQ(restored.relation_index("p", 1), p1);
  EXPECT_EQ(restored.relation_index("p", 2), p2);
  EXPECT_EQ(restored.relation_index("p", 3), -1);
}

TEST(Compiled, SessionIsReusableAcrossPrograms) {
  Session session;
  auto first = CompiledProgram::compile(
      parse_program("p(1). q(X) :- p(X).").take()).take();
  session.prepare(first);
  first.run(session);
  const Value one[1] = {Value(std::int64_t{1})};
  EXPECT_TRUE(first.query_holds(session, "q", one));

  // Re-preparing against a different program must not leak prior state.
  auto second = CompiledProgram::compile(
      parse_program("r(2). s(X) :- r(X).").take()).take();
  session.prepare(second);
  second.run(session);
  const Value two[1] = {Value(std::int64_t{2})};
  EXPECT_TRUE(second.query_holds(session, "s", two));
  EXPECT_FALSE(second.query_holds(session, "s", one));
  EXPECT_EQ(second.relation_index("p", 1), -1);

  // And back to the first program: still clean.
  session.prepare(first);
  first.run(session);
  EXPECT_TRUE(first.query_holds(session, "q", one));
  EXPECT_FALSE(first.query_holds(session, "q", two));
}

TEST(Compiled, RejectsUnsafeAndUnstratifiablePrograms) {
  auto unsafe = CompiledProgram::compile(
      parse_program("p(X, Y) :- q(X).").take());
  ASSERT_FALSE(unsafe.ok());
  EXPECT_NE(unsafe.error().find("unsafe"), std::string::npos);

  auto unstrat = CompiledProgram::compile(
      parse_program("p(X) :- e(X), \\+q(X). q(X) :- e(X), \\+p(X).").take());
  EXPECT_FALSE(unstrat.ok());
}

TEST(Compiled, RejectsWildcardHeadAtCompileTime) {
  // The interpreter only catches this at emit time (stats.errored); the
  // compiled pipeline refuses to build the program at all.
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

  auto compiled = CompiledProgram::compile(program);
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.error().find("head"), std::string::npos);
}

TEST(Compiled, RejectsNonConstantFactArguments) {
  Program program;
  Clause fact;
  fact.head.predicate = "e";
  fact.head.args = {Term::wildcard()};
  program.clauses.push_back(fact);
  auto compiled = CompiledProgram::compile(program);
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.error().find("non-constant"), std::string::npos);
}

TEST(Compiled, WildcardInNegatedAtomPrunesLikeInterpreter) {
  // The interpreter's resolve() fails on wildcards inside negated atoms,
  // silently pruning every binding; the compiled form encodes the same
  // semantics statically.
  Program program = parse_program(R"(
e(1). e(2). p(1, 7).
)").take();
  Clause rule;  // r(X) :- e(X), \+p(X, _).
  rule.head.predicate = "r";
  rule.head.args = {Term::var("X")};
  Literal pos;
  pos.kind = Literal::Kind::kAtom;
  pos.atom.predicate = "e";
  pos.atom.args = {Term::var("X")};
  Literal neg;
  neg.kind = Literal::Kind::kNegatedAtom;
  neg.atom.predicate = "p";
  neg.atom.args = {Term::var("X"), Term::wildcard()};
  rule.body = {pos, neg};
  program.clauses.push_back(rule);

  // Interpreter baseline.
  Database db;
  Evaluator::create(program).take().run(db);
  const Relation* interpreted = db.find("r", 1);
  const std::size_t interpreted_count =
      interpreted == nullptr ? 0 : interpreted->size();

  auto compiled = CompiledProgram::compile(program).take();
  Session session;
  session.prepare(compiled);
  compiled.run(session);
  Database cdb;
  compiled.decode_model(session, cdb);
  const Relation* crel = cdb.find("r", 1);
  const std::size_t compiled_count = crel == nullptr ? 0 : crel->size();
  EXPECT_EQ(compiled_count, interpreted_count);
  EXPECT_EQ(compiled_count, 0u);  // both prune every binding
}

TEST(Compiled, TruncationStopsWithinOneTupleOfTheLimit) {
  std::string source;
  for (int i = 0; i < 50; ++i) {
    source += "a(" + std::to_string(i) + "). b(" + std::to_string(i) + ").\n";
  }
  source += "r(X, Y) :- a(X), b(Y).\n";  // 2,500-tuple cross product
  auto compiled =
      CompiledProgram::compile(parse_program(source).take()).take();
  Session session;
  session.prepare(compiled);
  EvalLimits limits;
  limits.max_derived_tuples = 120;  // 100 facts + 20 derived
  EvalStats stats = compiled.run(session, Strategy::kSemiNaive, limits);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.derived_tuples, limits.max_derived_tuples + 1);
}

TEST(Compiled, StatsMatchInterpreterOnCleanPrograms) {
  const char* source = R"(
edge(1,2). edge(2,3). edge(3,4).
reach(X,Y) :- edge(X,Y).
reach(X,Z) :- reach(X,Y), edge(Y,Z).
)";
  Program program = parse_program(source).take();
  Database db;
  EvalStats interpreted = Evaluator::create(program).take().run(db);

  auto compiled = CompiledProgram::compile(program).take();
  Session session;
  session.prepare(compiled);
  EvalStats cstats = compiled.run(session);

  EXPECT_EQ(cstats.iterations, interpreted.iterations);
  EXPECT_EQ(cstats.rule_applications, interpreted.rule_applications);
  EXPECT_EQ(cstats.derived_tuples, interpreted.derived_tuples);
  EXPECT_EQ(session.total_tuples(), db.total_tuples());
  EXPECT_FALSE(cstats.truncated);
  EXPECT_FALSE(cstats.errored);
}

}  // namespace
}  // namespace anchor::datalog
