#include "oracle/model.hpp"

#include <algorithm>

namespace anchor::datalog {

void decode_model(const CompiledProgram& program, const Session& session,
                  Database& out) {
  for (std::size_t r = 0; r < program.num_relations(); ++r) {
    for (Tuple& tuple : program.tuples(session, static_cast<int>(r))) {
      out.add(program.relation_predicate(r), std::move(tuple));
    }
  }
}

SortedModel sorted_model(const Database& db) {
  SortedModel model;
  for (const auto& [key, relation] : db.relations()) {
    std::vector<Tuple> tuples = relation.tuples();
    std::sort(tuples.begin(), tuples.end());
    model.emplace_back(key, std::move(tuples));
  }
  std::sort(model.begin(), model.end());
  return model;
}

void load_facts(const core::FactSet& facts, Database& db) {
  for (const core::Fact& fact : facts.facts) db.add(fact.predicate, fact.args);
}

}  // namespace anchor::datalog
