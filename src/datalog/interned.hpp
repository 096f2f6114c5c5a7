// Interned value representation for the compiled GCC evaluation pipeline
// (DESIGN.md "Compiled GCC evaluation"). Ground values become 8-byte tagged
// ids and tuples become flat runs of those ids: equality is bit equality,
// hashing is bit mixing, and the only operations that touch the backing
// strings are ordered comparisons and model decoding.
//
// Two tables cooperate so a compiled program can be shared read-only across
// threads: `SymbolTable` is frozen at compile time and holds every constant
// the program mentions; `SymbolOverlay` is a per-evaluation extension that
// interns the runtime fact values (certificate hashes, DNS names, ...) with
// ids offset past the base table, and is reset between evaluations without
// releasing its heap.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "datalog/value.hpp"

namespace anchor::datalog {

// An 8-byte tagged id. The low two bits select the representation:
//   00  inline integer, value in the upper 62 bits (covers every timestamp,
//       lifetime and counter in the fact vocabulary)
//   01  string symbol: id into a string pool
//   10  boxed integer: id into an int pool (the |v| >= 2^61 escape hatch,
//       reachable only through arithmetic overflow or hand-written programs)
// Interning is canonical — equal Values always produce bit-equal IValues —
// so equality and hashing never consult the pools.
class IValue {
 public:
  enum class Tag : std::uint64_t { kInlineInt = 0, kSymbol = 1, kBoxedInt = 2 };

  constexpr IValue() : bits_(0) {}  // inline integer 0

  static constexpr std::int64_t kMaxInline = (std::int64_t{1} << 61) - 1;
  static constexpr std::int64_t kMinInline = -(std::int64_t{1} << 61);
  static constexpr bool fits_inline(std::int64_t v) {
    return v >= kMinInline && v <= kMaxInline;
  }

  static IValue inline_int(std::int64_t v) {
    return IValue(static_cast<std::uint64_t>(v) << 2);
  }
  static IValue symbol(std::uint32_t id) {
    return IValue((std::uint64_t{id} << 2) | std::uint64_t{1});
  }
  static IValue boxed_int(std::uint32_t id) {
    return IValue((std::uint64_t{id} << 2) | std::uint64_t{2});
  }

  // Reconstructs an IValue from bits() — snapshot deserialization
  // (datalog/compiled_serialize.cpp). The caller must validate the tag and
  // pool bounds against the table the value will be decoded through; the
  // raw constructor itself cannot.
  static constexpr IValue from_bits(std::uint64_t bits) {
    return IValue(bits);
  }

  Tag tag() const { return static_cast<Tag>(bits_ & 3); }
  bool is_symbol() const { return tag() == Tag::kSymbol; }
  bool is_int() const { return !is_symbol(); }

  // Valid only for Tag::kInlineInt (C++20 guarantees the arithmetic shift).
  std::int64_t inline_value() const {
    return static_cast<std::int64_t>(bits_) >> 2;
  }
  // Pool index; valid for kSymbol and kBoxedInt.
  std::uint32_t id() const { return static_cast<std::uint32_t>(bits_ >> 2); }
  std::uint64_t bits() const { return bits_; }

  bool operator==(const IValue&) const = default;

 private:
  explicit constexpr IValue(std::uint64_t bits) : bits_(bits) {}
  std::uint64_t bits_;
};

struct IValueHash {
  std::size_t operator()(IValue v) const {
    std::uint64_t h = v.bits();
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }
};

namespace internal {
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};
struct StringEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const {
    return a == b;
  }
};
using StringIdMap =
    std::unordered_map<std::string, std::uint32_t, StringHash, StringEq>;
}  // namespace internal

// The frozen base table: owned by a CompiledProgram, populated during
// compilation, immutable (and therefore freely shared across threads)
// afterwards.
class SymbolTable {
 public:
  IValue intern_string(std::string_view s);
  IValue intern_int(std::int64_t v);
  IValue intern(const Value& v);

  std::optional<IValue> find_string(std::string_view s) const;
  std::optional<IValue> find_boxed(std::int64_t v) const;

  const std::string& string_at(std::uint32_t id) const { return strings_[id]; }
  std::int64_t boxed_at(std::uint32_t id) const { return boxed_[id]; }
  std::size_t string_count() const { return strings_.size(); }
  std::size_t boxed_count() const { return boxed_.size(); }

 private:
  std::vector<std::string> strings_;
  internal::StringIdMap string_ids_;
  std::vector<std::int64_t> boxed_;
  std::unordered_map<std::int64_t, std::uint32_t> boxed_ids_;
};

// Per-evaluation extension of a frozen SymbolTable. Lookups consult the
// base first; misses intern locally with ids offset past the base counts.
// reset() drops the local entries but keeps their heap capacity, which is
// what makes a Session arena reusable call to call.
class SymbolOverlay {
 public:
  void reset(const SymbolTable* base);

  IValue intern_string(std::string_view s);
  IValue intern_int(std::int64_t v);
  IValue intern(const Value& v);

  // Lookup without interning; nullopt means no fact or program constant
  // ever produced this value, so no tuple can contain it.
  std::optional<IValue> find(const Value& v) const;
  std::optional<IValue> find_string(std::string_view s) const;

  const std::string& string_at(std::uint32_t id) const;
  // Decodes any integer-tagged IValue (inline or boxed).
  std::int64_t int_of(IValue v) const;

  Value decode(IValue v) const;

 private:
  const SymbolTable* base_ = nullptr;
  std::vector<std::string> strings_;
  internal::StringIdMap string_ids_;
  std::vector<std::int64_t> boxed_;
  std::unordered_map<std::int64_t, std::uint32_t> boxed_ids_;
};

// An interned relation: tuples of a fixed arity stored as one flat IValue
// array, with bit-hash dedup and the same first-argument index the legacy
// Relation keeps (GCC facts are overwhelmingly keyed by certificate id).
// reset() clears content but retains capacity.
class IRelation {
 public:
  void reset(std::uint32_t arity);

  std::uint32_t arity() const { return arity_; }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  std::span<const IValue> tuple(std::size_t i) const {
    return {flat_.data() + i * arity_, arity_};
  }

  // Returns true if the tuple was new.
  bool insert(std::span<const IValue> tuple);
  bool contains(std::span<const IValue> tuple) const;

  // Indices of tuples whose first argument equals `v` (nullptr: none).
  const std::vector<std::uint32_t>* first_arg_matches(IValue v) const;

 private:
  std::uint64_t hash_of(std::span<const IValue> tuple) const;
  bool equals_at(std::uint32_t index, std::span<const IValue> tuple) const;

  std::uint32_t arity_ = 0;
  std::size_t count_ = 0;
  std::vector<IValue> flat_;
  // Open chains keyed by tuple hash; collisions compare the flat storage.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> first_index_;
};

}  // namespace anchor::datalog
