// GCC execution (§3 of the paper): "a constructed chain is valid if and
// only if all GCCs attached to the candidate root are valid. ... the
// validator performs the following Datalog query: valid(Chain, Usage)?"
//
// Each GCC is evaluated against its own precompiled program and a freshly
// prepared session — constraints from different operators must not observe
// each other's derived facts. The compiled form (symbol interning + slot
// resolution, built once at Gcc::create) runs stratification, safety and
// body ordering once per program, not per (chain, usage, GCC) triple.
#pragma once

#include <span>
#include <string>

#include "core/facts.hpp"
#include "core/gcc.hpp"
#include "datalog/eval.hpp"
#include "util/metrics.hpp"

namespace anchor::core {

// The two usages NSS attaches date-usage constraints for.
inline constexpr const char* kUsageTls = "TLS";
inline constexpr const char* kUsageSmime = "S/MIME";

struct GccVerdict {
  bool allowed = true;
  std::string failed_gcc;  // name of the first failing constraint
  datalog::EvalStats stats;  // aggregated over all evaluated GCCs
  std::size_t gccs_evaluated = 0;
  std::size_t facts_encoded = 0;
};

class GccExecutor {
 public:
  // Series are resolved once at construction (same name+labels always
  // resolve to the same cells, so any number of executors share them);
  // evaluation paths touch only the cached references.
  explicit GccExecutor(
      datalog::Strategy strategy = datalog::Strategy::kSemiNaive,
      metrics::Registry& registry = metrics::Registry::global())
      : strategy_(strategy),
        m_evaluations_(registry.counter("anchor_gcc_evaluations_total")),
        m_gccs_evaluated_(registry.counter("anchor_gcc_gccs_evaluated_total")),
        m_denials_(registry.counter("anchor_gcc_denials_total")),
        m_eval_seconds_(registry.histogram("anchor_gcc_eval_seconds")),
        m_type_errors_(registry.counter("anchor_datalog_type_errors_total")),
        m_truncations_(registry.counter("anchor_datalog_truncations_total")),
        m_errored_(registry.counter("anchor_datalog_errored_total")),
        m_derived_tuples_(
            registry.counter("anchor_datalog_derived_tuples_total")) {}

  // Evaluates every GCC against the chain for the given usage. Evaluation
  // order follows attachment order; the verdict reports the first failure.
  // An empty GCC list trivially allows. `context` optionally supplies
  // chain-external facts (SCT timestamps, client version, validation
  // instant — see rootstore/constraint_compile.hpp); its facts load after
  // the chain encoding into every GCC's session.
  GccVerdict evaluate(const Chain& chain, std::string_view usage,
                      std::span<const Gcc> gccs,
                      const FactSet* context = nullptr) const;

  // Single-constraint form: evaluate() over a one-element span. A non-null
  // `verdict` accumulates the evaluation's stats and, on denial, the
  // failure.
  bool evaluate_one(const Chain& chain, std::string_view usage,
                    const Gcc& gcc, GccVerdict* verdict = nullptr,
                    const FactSet* context = nullptr) const;

 private:
  // evaluate() into `verdict`; returns whether every GCC held.
  bool evaluate_into(const Chain& chain, std::string_view usage,
                     std::span<const Gcc> gccs, const FactSet* context,
                     GccVerdict& verdict) const;
  // Runs one precompiled GCC: loads the chain facts its program reads (ids
  // rendered once per evaluate() call and shared across GCCs), then the
  // context, and probes valid(Chain, Usage).
  bool run_compiled(const Chain& chain, const ChainIds& ids,
                    const FactSet* context, std::string_view usage,
                    const Gcc& gcc, GccVerdict& verdict) const;

  datalog::Strategy strategy_;

  metrics::Counter& m_evaluations_;
  metrics::Counter& m_gccs_evaluated_;
  metrics::Counter& m_denials_;
  metrics::Histogram& m_eval_seconds_;
  metrics::Counter& m_type_errors_;
  metrics::Counter& m_truncations_;
  metrics::Counter& m_errored_;
  metrics::Counter& m_derived_tuples_;
};

}  // namespace anchor::core
