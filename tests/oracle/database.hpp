// Fact storage for the interpreted test oracle (oracle/evaluator.hpp).
// Relations are keyed by "predicate/arity"; each relation deduplicates
// tuples and maintains a first-argument hash index, which is the access
// pattern GCC programs overwhelmingly use (facts are keyed by certificate
// id).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "datalog/value.hpp"

namespace anchor::datalog {

class Relation {
 public:
  // Returns true if the tuple was new.
  bool insert(Tuple tuple);
  bool contains(const Tuple& tuple) const;

  const std::vector<Tuple>& tuples() const { return tuples_; }
  std::size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  // Indices of tuples whose first argument equals `v`.
  const std::vector<std::size_t>* first_arg_matches(const Value& v) const;

 private:
  std::vector<Tuple> tuples_;
  std::unordered_set<Tuple, TupleHash> set_;
  std::unordered_map<Value, std::vector<std::size_t>, ValueHash> first_index_;
};

class Database {
 public:
  // Returns true if new.
  bool add(const std::string& predicate, Tuple tuple);

  const Relation* find(const std::string& predicate, std::size_t arity) const;
  Relation& relation(const std::string& predicate, std::size_t arity);

  std::size_t total_tuples() const;
  void clear();

  const std::unordered_map<std::string, Relation>& relations() const {
    return relations_;
  }

 private:
  std::unordered_map<std::string, Relation> relations_;
};

}  // namespace anchor::datalog
