// Randomized differential testing of the Datalog engine: for generated
// EDBs over a family of rule templates (recursion, mutual recursion,
// stratified negation, arithmetic), the semi-naive and naive strategies
// must compute identical models, evaluation must be insensitive to fact
// insertion order, and the compiled pipeline must derive exactly what the
// interpreted oracle (tests/oracle) derives.
#include <gtest/gtest.h>

#include "datalog/compiled.hpp"
#include "datalog/parser.hpp"
#include "oracle/evaluator.hpp"
#include "oracle/model.hpp"
#include "util/rng.hpp"

namespace anchor::datalog {
namespace {

std::string random_edb(Rng& rng, int nodes, int edges) {
  std::string source;
  for (int i = 0; i < nodes; ++i) {
    source += "node(" + std::to_string(i) + ").\n";
  }
  for (int i = 0; i < edges; ++i) {
    source += "edge(" + std::to_string(rng.uniform(static_cast<std::uint64_t>(nodes))) +
              "," + std::to_string(rng.uniform(static_cast<std::uint64_t>(nodes))) + ").\n";
  }
  // A random unary "mark" relation for negation templates.
  for (int i = 0; i < nodes; ++i) {
    if (rng.chance(0.3)) source += "mark(" + std::to_string(i) + ").\n";
  }
  return source;
}

const char* kTemplates[] = {
    // Transitive closure.
    R"(reach(X,Y) :- edge(X,Y).
reach(X,Z) :- reach(X,Y), edge(Y,Z).)",
    // Same-generation (doubly recursive).
    R"(sg(X,X) :- node(X).
sg(X,Y) :- edge(A,X), sg(A,B), edge(B,Y).)",
    // Stratified negation over a derived relation.
    R"(covered(Y) :- edge(X,Y), mark(X).
lonely(X) :- node(X), \+covered(X).)",
    // Mutual recursion.
    R"(even(X) :- node(X), X = 0.
odd(Y) :- even(X), edge(X,Y).
even(Y) :- odd(X), edge(X,Y).)",
    // Arithmetic: bounded counting walk.
    R"(dist(X,Y,1) :- edge(X,Y).
dist(X,Z,D) :- dist(X,Y,D1), edge(Y,Z), D1 < 6, D = D1 + 1.)",
    // Negation above recursion.
    R"(reach(X,Y) :- edge(X,Y).
reach(X,Z) :- reach(X,Y), edge(Y,Z).
unreach(X,Y) :- node(X), node(Y), \+reach(X,Y).)",
};

SortedModel full_model(const std::string& source, Strategy strategy) {
  auto program = parse_program(source);
  EXPECT_TRUE(program.ok()) << (program.ok() ? "" : program.error());
  auto evaluator = Evaluator::create(program.value(), strategy);
  EXPECT_TRUE(evaluator.ok()) << (evaluator.ok() ? "" : evaluator.error());
  Database db;
  evaluator.value().run(db);
  return sorted_model(db);
}

// The same model computed through the compiled pipeline (interning + slot
// resolution), decoded back into an oracle Database for comparison.
SortedModel compiled_model(const std::string& source, Strategy strategy,
                           Session& session) {
  auto program = parse_program(source);
  EXPECT_TRUE(program.ok()) << (program.ok() ? "" : program.error());
  auto compiled = CompiledProgram::compile(program.value());
  EXPECT_TRUE(compiled.ok()) << (compiled.ok() ? "" : compiled.error());
  session.prepare(compiled.value());
  compiled.value().run(session, strategy);
  Database db;
  decode_model(compiled.value(), session, db);
  return sorted_model(db);
}

struct RandomCase {
  std::uint64_t seed;
  int template_index;
};

class RandomDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(RandomDifferential, StrategiesAgreeOnRandomEdb) {
  auto [seed, template_index] = GetParam();
  Rng rng(seed);
  std::string source =
      random_edb(rng, 8 + static_cast<int>(rng.uniform(8)),
                 10 + static_cast<int>(rng.uniform(30))) +
      kTemplates[template_index];
  auto semi = full_model(source, Strategy::kSemiNaive);
  auto naive = full_model(source, Strategy::kNaive);
  EXPECT_EQ(semi, naive) << "seed=" << seed << " template=" << template_index;
  EXPECT_FALSE(semi.empty());
}

TEST_P(RandomDifferential, CompiledMatchesInterpreted) {
  // The property the whole compiled pipeline rests on: interned slot-based
  // execution and the legacy interpreter derive identical relations, under
  // both strategies, on random programs. The session is deliberately reused
  // across cases to also exercise arena reset.
  auto [seed, template_index] = GetParam();
  Rng rng(seed ^ 0x5eed);
  std::string source =
      random_edb(rng, 8 + static_cast<int>(rng.uniform(8)),
                 10 + static_cast<int>(rng.uniform(30))) +
      kTemplates[template_index];
  Session session;
  for (Strategy strategy : {Strategy::kSemiNaive, Strategy::kNaive}) {
    auto interpreted = full_model(source, strategy);
    auto compiled = compiled_model(source, strategy, session);
    EXPECT_EQ(interpreted, compiled)
        << "seed=" << seed << " template=" << template_index;
    EXPECT_FALSE(compiled.empty());
  }
}

TEST_P(RandomDifferential, FactOrderDoesNotMatter) {
  auto [seed, template_index] = GetParam();
  Rng rng(seed ^ 0xabcdef);
  std::string edb = random_edb(rng, 10, 25);
  // Shuffle the EDB lines.
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= edb.size(); ++i) {
    if (i == edb.size() || edb[i] == '\n') {
      if (i > start) lines.push_back(edb.substr(start, i - start));
      start = i + 1;
    }
  }
  for (std::size_t i = lines.size(); i > 1; --i) {
    std::swap(lines[i - 1], lines[rng.uniform(i)]);
  }
  std::string shuffled;
  for (const auto& line : lines) {
    shuffled += line;
    shuffled += '\n';
  }
  auto original = full_model(edb + kTemplates[template_index],
                             Strategy::kSemiNaive);
  auto reordered = full_model(shuffled + kTemplates[template_index],
                              Strategy::kSemiNaive);
  EXPECT_EQ(original, reordered);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomDifferential,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u),
                       ::testing::Range(0, 6)),
    [](const ::testing::TestParamInfo<std::tuple<std::uint64_t, int>>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_template" +
             std::to_string(std::get<1>(info.param));
    });

TEST(RandomDifferentialEdge, EmptyEdbAllTemplates) {
  for (const char* rule_template : kTemplates) {
    auto semi = full_model(rule_template, Strategy::kSemiNaive);
    auto naive = full_model(rule_template, Strategy::kNaive);
    EXPECT_EQ(semi, naive);
  }
}

TEST(RandomDifferentialEdge, SelfLoopsAndDuplicateEdges) {
  std::string edb = "node(0).\nnode(1).\nedge(0,0).\nedge(0,0).\nedge(0,1).\n"
                    "edge(1,0).\nmark(0).\n";
  for (const char* rule_template : kTemplates) {
    auto semi = full_model(edb + rule_template, Strategy::kSemiNaive);
    auto naive = full_model(edb + rule_template, Strategy::kNaive);
    EXPECT_EQ(semi, naive);
  }
}

}  // namespace
}  // namespace anchor::datalog
