#include "oracle/database.hpp"

#include "datalog/stratify.hpp"

namespace anchor::datalog {

bool Relation::insert(Tuple tuple) {
  auto [it, inserted] = set_.insert(tuple);
  if (!inserted) return false;
  if (!tuple.empty()) {
    first_index_[tuple[0]].push_back(tuples_.size());
  }
  tuples_.push_back(std::move(tuple));
  return true;
}

bool Relation::contains(const Tuple& tuple) const {
  return set_.contains(tuple);
}

const std::vector<std::size_t>* Relation::first_arg_matches(const Value& v) const {
  auto it = first_index_.find(v);
  if (it == first_index_.end()) return nullptr;
  return &it->second;
}

bool Database::add(const std::string& predicate, Tuple tuple) {
  return relation(predicate, tuple.size()).insert(std::move(tuple));
}

const Relation* Database::find(const std::string& predicate,
                               std::size_t arity) const {
  auto it = relations_.find(relation_key(predicate, arity));
  if (it == relations_.end()) return nullptr;
  return &it->second;
}

Relation& Database::relation(const std::string& predicate, std::size_t arity) {
  return relations_[relation_key(predicate, arity)];
}

std::size_t Database::total_tuples() const {
  std::size_t n = 0;
  for (const auto& [key, rel] : relations_) n += rel.size();
  return n;
}

void Database::clear() { relations_.clear(); }

}  // namespace anchor::datalog
