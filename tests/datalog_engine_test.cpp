// Queries against the library's Datalog engine (the compiled pipeline),
// the way `anchorctl datalog` and the policy verifier use it: compile a
// program once, assert facts into a Session, run to fixpoint, then ask
// CompiledProgram::query for bindings (or query_holds for a ground
// yes/no). Includes the paper's Listings 1 and 2 executed end to end.
#include <gtest/gtest.h>

#include <memory>

#include "core/gcc.hpp"
#include "datalog/compiled.hpp"
#include "datalog/parser.hpp"
#include "incidents/listings.hpp"

namespace anchor::datalog {
namespace {

using Facts = std::vector<std::pair<std::string, Tuple>>;

// One evaluated model. The program is heap-held because the session points
// at it and the model is moved out of evaluate().
struct Model {
  std::unique_ptr<CompiledProgram> program;
  Session session;
  EvalStats stats;

  QueryResult query(const Atom& goal) const {
    return program->query(session, goal);
  }
  QueryResult query(std::string_view text) const {
    auto goal = parse_query(text);
    EXPECT_TRUE(goal.ok()) << (goal.ok() ? "" : goal.error());
    return query(goal.value());
  }
};

Result<Model> evaluate(const Program& program, const Facts& facts = {}) {
  auto compiled = CompiledProgram::compile(program);
  if (!compiled) return err(compiled.error());
  Model model;
  model.program =
      std::make_unique<CompiledProgram>(std::move(compiled).take());
  model.session.prepare(*model.program);
  for (const auto& [predicate, tuple] : facts) {
    model.session.add_fact(
        model.program->relation_index(predicate, tuple.size()), tuple);
  }
  model.stats = model.program->run(model.session);
  return model;
}

Result<Model> evaluate(std::string_view source, const Facts& facts = {}) {
  auto program = parse_program(source);
  if (!program) return err(program.error());
  return evaluate(program.value(), facts);
}

Value n(std::int64_t v) { return Value(v); }

TEST(Engine, GroundQueryHoldsOrNot) {
  const Model model = evaluate("p(1). p(2).").take();
  EXPECT_TRUE(model.query("p(1)?").holds());
  EXPECT_TRUE(model.query("p(2)?").holds());
  EXPECT_FALSE(model.query("p(3)?").holds());
  EXPECT_FALSE(model.query("q(1)?").holds());
  // A ground query that holds yields one empty binding map.
  ASSERT_EQ(model.query("p(1)?").bindings.size(), 1u);
  EXPECT_TRUE(model.query("p(1)?").bindings[0].empty());
}

TEST(Engine, OpenQueryReturnsBindings) {
  const Model model = evaluate("e(1,2). e(1,3). e(2,3).").take();
  auto result = model.query("e(1, X)?");
  ASSERT_EQ(result.bindings.size(), 2u);
  EXPECT_EQ(result.bindings[0].at("X"), n(2));
  EXPECT_EQ(result.bindings[1].at("X"), n(3));
}

TEST(Engine, RepeatedVariableInQuery) {
  const Model model = evaluate("e(1,1). e(1,2). e(3,3).").take();
  auto result = model.query("e(X, X)?");
  ASSERT_EQ(result.bindings.size(), 2u);
  EXPECT_EQ(result.bindings[0].at("X"), n(1));
  EXPECT_EQ(result.bindings[1].at("X"), n(3));
}

TEST(Engine, WildcardsAndUnknownValues) {
  const Model model = evaluate("e(1,2). e(2,2). e(2,3).").take();
  EXPECT_EQ(model.query("e(_, 2)?").bindings.size(), 2u);
  EXPECT_EQ(model.query("e(_, _)?").bindings.size(), 3u);
  // A constant the model never saw, and a known predicate at another arity.
  EXPECT_FALSE(model.query("e(9, X)?").holds());
  EXPECT_FALSE(model.query("e(X)?").holds());
}

TEST(Engine, FactsAddedProgrammatically) {
  const Model model = evaluate("big(X) :- n(X), X > 10.",
                               {{"n", {n(5)}}, {"n", {n(50)}}})
                          .take();
  auto result = model.query("big(X)?");
  ASSERT_EQ(result.bindings.size(), 1u);
  EXPECT_EQ(result.bindings[0].at("X"), n(50));
}

TEST(Engine, ReusedSessionSeesOnlyItsNewFacts) {
  auto compiled =
      CompiledProgram::compile(parse_program("r(X) :- n(X).").take()).take();
  auto count = [&compiled](Session& session) {
    compiled.run(session);
    return compiled.query(session, parse_query("r(X)?").take())
        .bindings.size();
  };
  const int rel = compiled.relation_index("n", 1);
  Session session;
  session.prepare(compiled);
  session.add_fact(rel, std::vector<Value>{n(1)});
  EXPECT_EQ(count(session), 1u);
  session.prepare(compiled);
  session.add_fact(rel, std::vector<Value>{n(1)});
  session.add_fact(rel, std::vector<Value>{n(2)});
  EXPECT_EQ(count(session), 2u);
}

TEST(Engine, LoadErrorsPropagate) {
  EXPECT_FALSE(evaluate("p(X :-").ok());
}

TEST(Engine, UnsafeProgramFailsToCompile) {
  ASSERT_TRUE(parse_program("p(X, Y) :- q(X).").ok());  // parses fine
  auto model = evaluate("p(X, Y) :- q(X).");
  ASSERT_FALSE(model.ok());
  EXPECT_NE(model.error().find("unsafe"), std::string::npos);
}

TEST(Engine, UnstratifiableProgramFailsToCompile) {
  EXPECT_FALSE(
      evaluate("p(X) :- e(X), \\+q(X). q(X) :- e(X), \\+p(X).").ok());
}

// --- The paper's Listing 1, executed end to end ------------------------------

class Listing1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    auto program = parse_program(incidents::listing1_trustcor());
    ASSERT_TRUE(program.ok()) << program.error();
    program_ = std::move(program).take();
  }

  void add_leaf(const std::string& chain, const std::string& cert,
                std::int64_t not_before, bool ev) {
    facts_.push_back({"leaf", {Value(chain), Value(cert)}});
    facts_.push_back({"notBefore", {Value(cert), Value(not_before)}});
    if (ev) facts_.push_back({"EV", {Value(cert)}});
  }

  bool valid(const std::string& chain, const std::string& usage) {
    Atom goal;
    goal.predicate = "valid";
    goal.args.push_back(Term::constant_of(Value(chain)));
    goal.args.push_back(Term::constant_of(Value(usage)));
    return evaluate(program_, facts_).take().query(goal).holds();
  }

  static constexpr std::int64_t kCutoff = 1669784400;  // Nov 30 2022
  Program program_;
  Facts facts_;
};

TEST_F(Listing1Test, OldSmimeLeafValid) {
  add_leaf("c1", "cert1", kCutoff - 1000, false);
  EXPECT_TRUE(valid("c1", "S/MIME"));
}

TEST_F(Listing1Test, NewSmimeLeafInvalid) {
  add_leaf("c1", "cert1", kCutoff + 1000, false);
  EXPECT_FALSE(valid("c1", "S/MIME"));
}

TEST_F(Listing1Test, OldNonEvTlsLeafValid) {
  add_leaf("c1", "cert1", kCutoff - 1000, false);
  EXPECT_TRUE(valid("c1", "TLS"));
}

TEST_F(Listing1Test, OldEvTlsLeafInvalid) {
  // TLS additionally requires non-EV; S/MIME does not.
  add_leaf("c1", "cert1", kCutoff - 1000, true);
  EXPECT_FALSE(valid("c1", "TLS"));
  EXPECT_TRUE(valid("c1", "S/MIME"));
}

TEST_F(Listing1Test, BoundaryInstantIsInvalid) {
  // NB < T is strict: a leaf issued exactly at the cutoff is distrusted.
  add_leaf("c1", "cert1", kCutoff, false);
  EXPECT_FALSE(valid("c1", "TLS"));
}

// --- The paper's Listing 2 ---------------------------------------------------

// Listing 2 writes `valid(Chain, _)` — a head wildcard the compiler
// rightly rejects. The GCC layer expands it over the usage domain, so the
// fixture evaluates the expanded program a Gcc carries.
class Listing2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    auto gcc = core::Gcc::create("listing2", std::string(64, 'a'),
                                 incidents::listing2_symantec({"exempthash1"}));
    ASSERT_TRUE(gcc.ok()) << gcc.error();
    program_ = gcc.value().program();
  }

  bool valid(const std::string& usage_query) {
    return evaluate(program_, facts_).take().query(usage_query).holds();
  }

  static constexpr std::int64_t kCutoff = 1464753600;  // June 1 2016
  Program program_;
  Facts facts_;
};

TEST_F(Listing2Test, OldLeafValidForAnyUsage) {
  facts_ = {{"leaf", {Value("c"), Value("leafcert")}},
            {"notBefore", {Value("leafcert"), Value(kCutoff - 5)}}};
  EXPECT_TRUE(valid("valid(\"c\", \"TLS\")?"));
  EXPECT_TRUE(valid("valid(\"c\", \"S/MIME\")?"));
}

TEST_F(Listing2Test, NewLeafUnderOrdinaryIntermediateInvalid) {
  facts_ = {{"leaf", {Value("c"), Value("leafcert")}},
            {"notBefore", {Value("leafcert"), Value(kCutoff + 5)}},
            {"root", {Value("c"), Value("rootcert")}},
            {"signs", {Value("rootcert"), Value("intcert")}},
            {"hash", {Value("intcert"), Value("ordinaryhash")}}};
  EXPECT_FALSE(valid("valid(\"c\", \"TLS\")?"));
}

TEST_F(Listing2Test, NewLeafUnderExemptIntermediateValid) {
  facts_ = {{"leaf", {Value("c"), Value("leafcert")}},
            {"notBefore", {Value("leafcert"), Value(kCutoff + 5)}},
            {"root", {Value("c"), Value("rootcert")}},
            {"signs", {Value("rootcert"), Value("intcert")}},
            {"hash", {Value("intcert"), Value("exempthash1")}}};
  EXPECT_TRUE(valid("valid(\"c\", \"TLS\")?"));
}

TEST(EngineStats, ModelSizeGrowsWithFacts) {
  const Model model =
      evaluate("r(X) :- n(X).", {{"n", {n(1)}}, {"n", {n(2)}}}).take();
  EXPECT_TRUE(model.query("r(1)?").holds());
  EXPECT_EQ(model.session.total_tuples(), 4u);  // 2 facts + 2 derived
  EXPECT_EQ(model.stats.derived_tuples, 2u);
}

}  // namespace
}  // namespace anchor::datalog
