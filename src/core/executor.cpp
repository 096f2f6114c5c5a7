#include "core/executor.hpp"

#include <array>

#include "datalog/compiled.hpp"

namespace anchor::core {

namespace {

// One execution arena per thread, reused across chains and GCCs: prepare()
// resets content but keeps heap capacity, so steady-state evaluation does
// not allocate. Safe because CompiledProgram is immutable and each
// evaluation's mutable state lives entirely in the session.
datalog::Session& tls_session() {
  thread_local datalog::Session session;
  return session;
}

}  // namespace

bool GccExecutor::run_compiled(const Chain& chain, const ChainIds& ids,
                               const FactSet* context, std::string_view usage,
                               const Gcc& gcc, GccVerdict& verdict) const {
  const auto& program = gcc.compiled();
  if (program == nullptr) return false;  // unvalidated Gcc: fail closed

  datalog::Session& session = tls_session();
  session.prepare(*program);
  const FactRelations& relations = gcc.fact_relations();
  verdict.facts_encoded += load_chain(chain, ids, relations, session);
  if (context != nullptr) {
    context->load_into(*program, session);
    verdict.facts_encoded += context->size();
  }

  const datalog::EvalStats stats = program->run(session, strategy_);

  // valid(Chain, Usage): an id the session never interned is in no tuple.
  const auto chain_id = session.find(ids.chain());
  const auto usage_id = session.find(usage);
  const bool holds = chain_id && usage_id &&
                     session.contains(relations.valid(),
                                      std::array{*chain_id, *usage_id});

  ++verdict.gccs_evaluated;
  verdict.stats.accumulate(stats);
  m_gccs_evaluated_.add();
  m_derived_tuples_.add(stats.derived_tuples);
  if (stats.type_errors > 0) m_type_errors_.add(stats.type_errors);
  if (stats.truncated) m_truncations_.add();
  if (stats.errored) m_errored_.add();
  // A truncated evaluation (the EvalLimits guard fired on a runaway
  // arithmetic recursion) or an errored one (incomplete model) fails
  // closed: an incomplete model must never admit a chain.
  return !stats.truncated && !stats.errored && holds;
}

bool GccExecutor::evaluate_into(const Chain& chain, std::string_view usage,
                                std::span<const Gcc> gccs,
                                const FactSet* context,
                                GccVerdict& verdict) const {
  if (gccs.empty()) return true;

  metrics::ScopedTimer span(m_eval_seconds_);
  m_evaluations_.add();

  // Ids are rendered once; each GCC interns the facts its program reads
  // into its own session (per-program symbol tables keep GCCs isolated
  // from each other, as the paper requires).
  const ChainIds ids(chain);
  for (const Gcc& gcc : gccs) {
    if (!run_compiled(chain, ids, context, usage, gcc, verdict)) {
      verdict.allowed = false;
      verdict.failed_gcc = gcc.name();
      m_denials_.add();
      return false;
    }
  }
  return true;
}

GccVerdict GccExecutor::evaluate(const Chain& chain, std::string_view usage,
                                 std::span<const Gcc> gccs,
                                 const FactSet* context) const {
  GccVerdict verdict;
  evaluate_into(chain, usage, gccs, context, verdict);
  return verdict;
}

bool GccExecutor::evaluate_one(const Chain& chain, std::string_view usage,
                               const Gcc& gcc, GccVerdict* verdict,
                               const FactSet* context) const {
  GccVerdict local;
  return evaluate_into(chain, usage, std::span(&gcc, 1), context,
                       verdict != nullptr ? *verdict : local);
}

}  // namespace anchor::core
