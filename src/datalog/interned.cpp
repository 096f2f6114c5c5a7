#include "datalog/interned.hpp"

namespace anchor::datalog {

IValue SymbolTable::intern_string(std::string_view s) {
  auto it = string_ids_.find(s);
  if (it != string_ids_.end()) return IValue::symbol(it->second);
  const auto id = static_cast<std::uint32_t>(strings_.size());
  strings_.emplace_back(s);
  string_ids_.emplace(strings_.back(), id);
  return IValue::symbol(id);
}

IValue SymbolTable::intern_int(std::int64_t v) {
  if (IValue::fits_inline(v)) return IValue::inline_int(v);
  auto it = boxed_ids_.find(v);
  if (it != boxed_ids_.end()) return IValue::boxed_int(it->second);
  const auto id = static_cast<std::uint32_t>(boxed_.size());
  boxed_.push_back(v);
  boxed_ids_.emplace(v, id);
  return IValue::boxed_int(id);
}

IValue SymbolTable::intern(const Value& v) {
  return v.is_int() ? intern_int(v.as_int()) : intern_string(v.as_string());
}

std::optional<IValue> SymbolTable::find_string(std::string_view s) const {
  auto it = string_ids_.find(s);
  if (it == string_ids_.end()) return std::nullopt;
  return IValue::symbol(it->second);
}

std::optional<IValue> SymbolTable::find_boxed(std::int64_t v) const {
  auto it = boxed_ids_.find(v);
  if (it == boxed_ids_.end()) return std::nullopt;
  return IValue::boxed_int(it->second);
}

void SymbolOverlay::reset(const SymbolTable* base) {
  base_ = base;
  strings_.clear();
  string_ids_.clear();
  boxed_.clear();
  boxed_ids_.clear();
}

IValue SymbolOverlay::intern_string(std::string_view s) {
  if (auto hit = base_->find_string(s)) return *hit;
  auto it = string_ids_.find(s);
  const auto offset = static_cast<std::uint32_t>(base_->string_count());
  if (it != string_ids_.end()) return IValue::symbol(offset + it->second);
  const auto local = static_cast<std::uint32_t>(strings_.size());
  strings_.emplace_back(s);
  string_ids_.emplace(strings_.back(), local);
  return IValue::symbol(offset + local);
}

IValue SymbolOverlay::intern_int(std::int64_t v) {
  if (IValue::fits_inline(v)) return IValue::inline_int(v);
  if (auto hit = base_->find_boxed(v)) return *hit;
  auto it = boxed_ids_.find(v);
  const auto offset = static_cast<std::uint32_t>(base_->boxed_count());
  if (it != boxed_ids_.end()) return IValue::boxed_int(offset + it->second);
  const auto local = static_cast<std::uint32_t>(boxed_.size());
  boxed_.push_back(v);
  boxed_ids_.emplace(v, local);
  return IValue::boxed_int(offset + local);
}

IValue SymbolOverlay::intern(const Value& v) {
  return v.is_int() ? intern_int(v.as_int()) : intern_string(v.as_string());
}

std::optional<IValue> SymbolOverlay::find(const Value& v) const {
  if (v.is_int()) {
    const std::int64_t n = v.as_int();
    if (IValue::fits_inline(n)) return IValue::inline_int(n);
    if (auto hit = base_->find_boxed(n)) return *hit;
    auto it = boxed_ids_.find(n);
    if (it == boxed_ids_.end()) return std::nullopt;
    return IValue::boxed_int(
        static_cast<std::uint32_t>(base_->boxed_count()) + it->second);
  }
  return find_string(v.as_string());
}

std::optional<IValue> SymbolOverlay::find_string(std::string_view s) const {
  if (auto hit = base_->find_string(s)) return *hit;
  auto it = string_ids_.find(s);
  if (it == string_ids_.end()) return std::nullopt;
  return IValue::symbol(static_cast<std::uint32_t>(base_->string_count()) +
                        it->second);
}

const std::string& SymbolOverlay::string_at(std::uint32_t id) const {
  const auto base_count = static_cast<std::uint32_t>(base_->string_count());
  return id < base_count ? base_->string_at(id) : strings_[id - base_count];
}

std::int64_t SymbolOverlay::int_of(IValue v) const {
  if (v.tag() == IValue::Tag::kInlineInt) return v.inline_value();
  const auto base_count = static_cast<std::uint32_t>(base_->boxed_count());
  const std::uint32_t id = v.id();
  return id < base_count ? base_->boxed_at(id) : boxed_[id - base_count];
}

Value SymbolOverlay::decode(IValue v) const {
  if (v.is_symbol()) return Value(string_at(v.id()));
  return Value(int_of(v));
}

void IRelation::reset(std::uint32_t arity) {
  arity_ = arity;
  count_ = 0;
  flat_.clear();
  buckets_.clear();
  first_index_.clear();
}

std::uint64_t IRelation::hash_of(std::span<const IValue> tuple) const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (IValue v : tuple) {
    h = (h ^ v.bits()) * 0x100000001b3ULL;
  }
  return h;
}

bool IRelation::equals_at(std::uint32_t index,
                          std::span<const IValue> tuple) const {
  const IValue* stored = flat_.data() + static_cast<std::size_t>(index) * arity_;
  for (std::uint32_t i = 0; i < arity_; ++i) {
    if (stored[i] != tuple[i]) return false;
  }
  return true;
}

bool IRelation::insert(std::span<const IValue> tuple) {
  const std::uint64_t h = hash_of(tuple);
  std::vector<std::uint32_t>& chain = buckets_[h];
  for (std::uint32_t index : chain) {
    if (equals_at(index, tuple)) return false;
  }
  const auto index = static_cast<std::uint32_t>(count_);
  chain.push_back(index);
  flat_.insert(flat_.end(), tuple.begin(), tuple.end());
  ++count_;
  if (arity_ > 0) first_index_[tuple[0].bits()].push_back(index);
  return true;
}

bool IRelation::contains(std::span<const IValue> tuple) const {
  auto it = buckets_.find(hash_of(tuple));
  if (it == buckets_.end()) return false;
  for (std::uint32_t index : it->second) {
    if (equals_at(index, tuple)) return true;
  }
  return false;
}

const std::vector<std::uint32_t>* IRelation::first_arg_matches(IValue v) const {
  auto it = first_index_.find(v.bits());
  if (it == first_index_.end()) return nullptr;
  return &it->second;
}

}  // namespace anchor::datalog
