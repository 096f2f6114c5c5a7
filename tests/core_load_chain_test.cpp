// Equivalence pin for the demand-driven chain loader (core::load_chain),
// which writes only the facts a compiled GCC mentions straight into its
// session. For every program below, over corpus chains of length 0 to 4,
// a session loaded on demand must derive exactly what a session loaded
// from the eager encode_chain FactSet derives: the same decoded model
// (relation by relation, tuple order included), the same valid(Chain,
// Usage) answer and EvalStats, and a fact count equal to the FactSet's
// size. GccExecutor's verdict (the serving path) is checked against the
// same eager reference.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/facts.hpp"
#include "corpus/corpus.hpp"
#include "datalog/compiled.hpp"
#include "incidents/listings.hpp"
#include "preemptive/synthesis.hpp"
#include "rootstore/constraint_compile.hpp"

namespace anchor::core {
namespace {

using datalog::Database;
using datalog::EvalStats;
using datalog::Session;
using datalog::Tuple;
using datalog::Value;
using rootstore::ChainContext;
namespace chromeproto = rootstore::chromeproto;

const corpus::Corpus& small_corpus() {
  static const corpus::Corpus corpus = [] {
    corpus::CorpusConfig config;
    config.num_roots = 12;
    config.num_intermediates = 40;
    config.roots_with_path_len = 3;
    config.intermediates_with_path_len = 30;
    config.intermediates_with_name_constraints = 6;
    config.roots_with_constrained_chain = 2;
    config.leaves_per_intermediate_mean = 3.0;
    return corpus::Corpus::generate(config);
  }();
  return corpus;
}

bool has_wildcard_san(const x509::Certificate& cert) {
  if (!cert.subject_alt_name()) return false;
  for (const auto& name : cert.subject_alt_name()->dns_names) {
    if (name.rfind("*.", 0) == 0) return true;
  }
  return false;
}

bool any_name_constrained(const Chain& chain) {
  for (const auto& cert : chain) {
    if (cert->name_constraints()) return true;
  }
  return false;
}

bool any_path_len(const Chain& chain) {
  for (const auto& cert : chain) {
    if (cert->path_len()) return true;
  }
  return false;
}

// Chains of length 0 to 4: the empty chain, a lone root, an intermediate
// under its root, full leaf chains (every EV, name-constrained, pathLen and
// wildcard-SAN shape the corpus has, plus a spread of ordinary ones), and
// leaf chains with a second intermediate spliced in.
std::vector<Chain> sample_chains() {
  const corpus::Corpus& corpus = small_corpus();
  std::vector<Chain> chains;
  chains.push_back({});
  chains.push_back({corpus.roots()[0].cert});
  const auto& first_int = corpus.intermediates()[0];
  chains.push_back(
      {first_int.cert,
       corpus.roots()[static_cast<std::size_t>(first_int.parent_root)].cert});

  bool ev = false, constrained = false, path_len = false, wildcard = false;
  const std::size_t n = corpus.leaves().size();
  for (std::size_t i = 0; i < n; ++i) {
    Chain chain = corpus.chain_for_leaf(i);
    const x509::Certificate& leaf = *chain.front();
    const bool wanted = (!ev && leaf.is_ev()) ||
                        (!constrained && any_name_constrained(chain)) ||
                        (!path_len && any_path_len(chain)) ||
                        (!wildcard && has_wildcard_san(leaf)) || i % 16 == 0;
    if (!wanted) continue;
    ev |= leaf.is_ev();
    constrained |= any_name_constrained(chain);
    path_len |= any_path_len(chain);
    wildcard |= has_wildcard_san(leaf);
    if (i % 32 == 0) {
      Chain longer = chain;
      longer.insert(longer.begin() + 2,
                    corpus.intermediates()[i % corpus.intermediates().size()]
                        .cert);
      chains.push_back(std::move(longer));
    }
    chains.push_back(std::move(chain));
  }
  EXPECT_TRUE(ev && constrained && path_len && wildcard)
      << "corpus sample lacks a chain shape the pin must cover";
  return chains;
}

ChainContext sample_context(std::size_t i) {
  ChainContext ctx;
  for (std::size_t k = 0; k < i % 3; ++k) {
    ctx.sct_timestamps.push_back(1'600'000'000 +
                                 static_cast<std::int64_t>(k * 86400 * 400));
  }
  if (i % 4 != 0) {
    chromeproto::Version version;
    version.parts = {static_cast<std::uint16_t>(100 + i % 40), 0, 0, 0};
    version.written = 1;
    ctx.client_version = version;
  }
  if (i % 5 != 0) {
    ctx.validation_time = small_corpus().config().validation_time();
  }
  return ctx;
}

struct Outcome {
  std::map<std::string, std::vector<Tuple>> model;
  EvalStats stats;
  bool holds = false;
  std::size_t chain_facts = 0;
};

std::map<std::string, std::vector<Tuple>> decoded(
    const datalog::CompiledProgram& program, const Session& session) {
  Database db;
  program.decode_model(session, db);
  std::map<std::string, std::vector<Tuple>> out;
  for (const auto& [key, relation] : db.relations()) {
    out[key] = relation.tuples();
  }
  return out;
}

Outcome run(const Gcc& gcc, const Chain& chain, const FactSet* context,
            std::string_view usage, bool on_demand) {
  const datalog::CompiledProgram& program = *gcc.compiled();
  Session session;
  session.prepare(program);
  Outcome out;
  const std::string chain_id = chain_id_of(chain);
  if (on_demand) {
    const ChainIds ids(chain);
    EXPECT_EQ(ids.chain(), chain_id);
    out.chain_facts = load_chain(chain, ids, gcc.fact_relations(), session);
  } else {
    FactSet facts;
    encode_chain(chain, chain_id, facts);
    facts.load_into(program, session);
    out.chain_facts = facts.size();
  }
  if (context != nullptr) context->load_into(program, session);
  out.stats = program.run(session);
  const Value goal[2] = {Value(chain_id), Value(std::string(usage))};
  out.holds = program.query_holds(session, "valid", goal);
  out.model = decoded(program, session);
  return out;
}

void expect_same_stats(const EvalStats& a, const EvalStats& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.rule_applications, b.rule_applications);
  EXPECT_EQ(a.derived_tuples, b.derived_tuples);
  EXPECT_EQ(a.type_errors, b.type_errors);
  EXPECT_EQ(a.unbound_head_terms, b.unbound_head_terms);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.errored, b.errored);
}

// Returns how many (chain, usage) pairs the program allowed, so each
// caller can check its sweep was not vacuous.
int expect_equivalent(const Gcc& gcc, bool with_context) {
  const GccExecutor executor;
  const std::vector<Chain> chains = sample_chains();
  int allowed = 0;
  for (std::size_t i = 0; i < chains.size(); ++i) {
    const Chain& chain = chains[i];
    const FactSet context = sample_context(i).to_facts(chain_id_of(chain));
    const FactSet* ctx = with_context ? &context : nullptr;
    for (const char* usage : {kUsageTls, kUsageSmime}) {
      SCOPED_TRACE(gcc.name() + " chain " + std::to_string(i) + " (length " +
                   std::to_string(chain.size()) + ") usage " + usage);
      const Outcome eager = run(gcc, chain, ctx, usage, false);
      const Outcome lazy = run(gcc, chain, ctx, usage, true);
      EXPECT_EQ(lazy.model, eager.model);
      EXPECT_EQ(lazy.holds, eager.holds);
      expect_same_stats(lazy.stats, eager.stats);
      EXPECT_EQ(lazy.chain_facts, eager.chain_facts);

      GccVerdict verdict;
      const bool ok = executor.evaluate_one(chain, usage, gcc, &verdict, ctx);
      EXPECT_EQ(ok, eager.holds && !eager.stats.truncated &&
                        !eager.stats.errored);
      EXPECT_EQ(verdict.allowed, ok);
      expect_same_stats(verdict.stats, eager.stats);
      EXPECT_EQ(verdict.facts_encoded,
                eager.chain_facts + (ctx != nullptr ? ctx->size() : 0));
      allowed += ok ? 1 : 0;
    }
  }
  return allowed;
}

const std::string kAnyRoot(64, 'a');

TEST(LoadChain, Listing1) {
  const Gcc gcc =
      Gcc::create("listing1", kAnyRoot, incidents::listing1_trustcor()).take();
  expect_equivalent(gcc, /*with_context=*/false);
}

TEST(LoadChain, Listing2WithExemptHashes) {
  // Every other intermediate is exempt, so hash(C, H) facts of spliced and
  // ordinary chains alike meet program constants in the frozen base table.
  std::vector<std::string> exempt;
  const auto& intermediates = small_corpus().intermediates();
  for (std::size_t i = 0; i < intermediates.size(); i += 2) {
    exempt.push_back(intermediates[i].cert->fingerprint_hex());
  }
  const Gcc gcc = Gcc::create("listing2", kAnyRoot,
                              incidents::listing2_symantec(exempt))
                      .take();
  EXPECT_GT(expect_equivalent(gcc, /*with_context=*/false), 0);
}

TEST(LoadChain, EveryChromeConstraintKindWithContext) {
  chromeproto::Version v120;
  v120.parts = {120, 0, 0, 0};
  v120.written = 1;
  std::vector<chromeproto::ConstraintBlock> blocks(7);
  blocks[0].sct_not_after_sec = 1'650'000'000;
  blocks[1].sct_all_after_sec = 1'650'000'000;
  blocks[2].permitted_dns_names = {"com", "example.org", "net"};
  blocks[3].min_version = v120;
  blocks[4].max_version_exclusive = v120;
  blocks[5].enforce_anchor_expiry = true;
  blocks[6].enforce_anchor_constraints = true;

  std::vector<Gcc> gccs;
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    chromeproto::TrustAnchor anchor;
    anchor.sha256_hex = std::string(63, 'b') + static_cast<char>('0' + k);
    anchor.constraints.push_back(blocks[k]);
    if (k == 0) anchor.ev_policy_oids = {"2.23.140.1.1"};
    auto compiled = rootstore::compile_anchor(anchor);
    ASSERT_TRUE(compiled.ok()) << compiled.error();
    for (Gcc& gcc : compiled.value()) gccs.push_back(std::move(gcc));
  }
  ASSERT_EQ(gccs.size(), blocks.size() + 1);  // + the EV-policy GCC
  for (const Gcc& gcc : gccs) expect_equivalent(gcc, /*with_context=*/true);
}

TEST(LoadChain, PreemptiveSynthesis) {
  preemptive::ScopeOfIssuance scope;
  scope.certificates_observed = 100;
  scope.tlds = {"com", "net", "org"};
  scope.key_usages = {"digitalSignature", "keyEncipherment"};
  scope.extended_key_usages = {"id-kp-serverAuth", "id-kp-clientAuth"};
  scope.max_lifetime_seconds = 120 * 86400;
  auto gcc = preemptive::synthesize("scope", *small_corpus().roots()[0].cert,
                                    scope);
  ASSERT_TRUE(gcc.ok()) << gcc.error();
  const std::string& source = gcc.value().source();
  for (const char* predicate :
       {"keyUsage(", "extendedKeyUsage(", "lifetime(", "sanTLD("}) {
    EXPECT_NE(source.find(predicate), std::string::npos) << predicate;
  }
  expect_equivalent(gcc.value(), /*with_context=*/false);
}

TEST(LoadChain, EveryVocabularyRelationCopied) {
  // out_<p>(...) :- <p>(...) for every vocabulary predicate and the three
  // context relations, so every relation the emitter can write is loaded
  // and lands in the model.
  std::string source;
  auto copy = [&source](std::string_view name, std::size_t arity) {
    std::string args;
    for (std::size_t a = 0; a < arity; ++a) {
      args += (a > 0 ? ", X" : "X") + std::to_string(a);
    }
    source += "out_" + std::string(name) + "(" + args + ") :- " +
              std::string(name) + "(" + args + ").\n";
  };
  for (const PredicateSpec& spec : kVocabulary) copy(spec.name, spec.arity);
  copy("sctTimestamp", 2);
  copy("clientVersion", 2);
  copy("validationTime", 2);
  source += "valid(Chain, _) :- chainLength(Chain, N), N < 4.\n";
  const Gcc gcc = Gcc::create("copy-all", kAnyRoot, source).take();
  for (std::size_t p = 0; p < kPredicateCount; ++p) {
    EXPECT_GE(gcc.fact_relations().relation(static_cast<Predicate>(p)), 0)
        << kVocabulary[p].name;
  }
  EXPECT_GE(gcc.fact_relations().valid(), 0);
  EXPECT_GT(expect_equivalent(gcc, /*with_context=*/true), 0);
}

TEST(LoadChain, UnmentionedPredicatesAreNeitherBuiltNorLoaded) {
  const Gcc gcc =
      Gcc::create("listing1", kAnyRoot, incidents::listing1_trustcor()).take();
  const FactRelations& relations = gcc.fact_relations();
  std::size_t mentioned = 0;
  for (std::size_t p = 0; p < kPredicateCount; ++p) {
    mentioned += relations.relation(static_cast<Predicate>(p)) >= 0 ? 1 : 0;
  }
  EXPECT_EQ(mentioned, 3u);  // leaf, notBefore, EV
  EXPECT_GE(relations.relation(Predicate::kEV), 0);
  EXPECT_EQ(relations.relation(Predicate::kEv), -1);  // ev/1 is not EV/1

  const Chain chain = small_corpus().chain_for_leaf(0);
  Session session;
  session.prepare(*gcc.compiled());
  const ChainIds ids(chain);
  FactSet facts;
  encode_chain(chain, chain_id_of(chain), facts);
  EXPECT_EQ(load_chain(chain, ids, relations, session), facts.size());
  // Only leaf, notBefore (one per certificate) and EV facts were stored.
  std::size_t expected = 1 + chain.size();
  for (const auto& cert : chain) expected += cert->is_ev() ? 1 : 0;
  EXPECT_EQ(session.total_tuples(), expected);
}

}  // namespace
}  // namespace anchor::core
