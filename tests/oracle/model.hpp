// Bridges between the compiled pipeline and the oracle's Database, for the
// parity tests and the interpreted baselines: the same facts in, the same
// model out, compared relation by relation.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/facts.hpp"
#include "datalog/compiled.hpp"
#include "oracle/database.hpp"

namespace anchor::datalog {

// Decodes a compiled session's model (after CompiledProgram::run) into
// `out`. Relations with no tuples are skipped, matching the oracle's
// lazily created relations.
void decode_model(const CompiledProgram& program, const Session& session,
                  Database& out);

// A database's relations as (key, sorted tuples) pairs in key order: two
// models are equal iff their sorted forms are.
using SortedModel = std::vector<std::pair<std::string, std::vector<Tuple>>>;
SortedModel sorted_model(const Database& db);

// Asserts every fact of `facts` into `db`, as FactSet::load_into does for
// a session (minus the skipping of predicates a program never mentions).
void load_facts(const core::FactSet& facts, Database& db);

}  // namespace anchor::datalog
