#include "ctlog/merkle.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace anchor::ctlog {

namespace {

// Largest power of two strictly less than n (n >= 2).
std::uint64_t split_point(std::uint64_t n) {
  return std::bit_floor(n - 1);
}

}  // namespace

Hash empty_tree_hash() { return Sha256::hash({}); }

Hash leaf_hash(BytesView entry) {
  Sha256 h;
  const std::uint8_t prefix = 0x00;
  h.update(BytesView(&prefix, 1));
  h.update(entry);
  return h.finish();
}

Hash node_hash(const Hash& left, const Hash& right) {
  Sha256 h;
  const std::uint8_t prefix = 0x01;
  h.update(BytesView(&prefix, 1));
  h.update(BytesView(left.data(), left.size()));
  h.update(BytesView(right.data(), right.size()));
  return h.finish();
}

std::uint64_t MerkleTree::append(BytesView entry) {
  const std::uint64_t index = size();
  levels_[0].push_back(leaf_hash(entry));
  // Leaf `index` completes one subtree per trailing one bit of its index.
  for (std::size_t h = 0; ((index >> h) & 1) != 0; ++h) {
    if (levels_.size() == h + 1) levels_.emplace_back();
    const std::vector<Hash>& below = levels_[h];
    levels_[h + 1].push_back(
        node_hash(below[below.size() - 2], below[below.size() - 1]));
  }
  return index;
}

Hash MerkleTree::range_root(std::uint64_t start, std::uint64_t count) const {
  if (count == 0) return empty_tree_hash();
  // The range is one perfect, aligned subtree per set bit of `count`,
  // largest first; MTH folds them from the right.
  int h = std::countr_zero(count);
  std::uint64_t piece_start = start + count - (std::uint64_t{1} << h);
  Hash acc = levels_[h][piece_start >> h];
  for (std::uint64_t bits = count & (count - 1); bits != 0;
       bits &= bits - 1) {
    h = std::countr_zero(bits);
    piece_start -= std::uint64_t{1} << h;
    acc = node_hash(levels_[h][piece_start >> h], acc);
  }
  return acc;
}

Hash MerkleTree::root_at(std::uint64_t tree_size) const {
  assert(tree_size <= size());
  return range_root(0, tree_size);
}

// RFC 6962 §2.1.1 PATH(m, D[n]), unrolled: walk down from the root, take
// each level's sibling, and emit them leaf-first as the recursion does.
std::vector<Hash> MerkleTree::inclusion_proof(std::uint64_t index,
                                              std::uint64_t tree_size) const {
  assert(index < tree_size && tree_size <= size());
  std::vector<Hash> out;
  std::uint64_t start = 0;
  std::uint64_t count = tree_size;
  while (count > 1) {
    const std::uint64_t k = split_point(count);
    if (index - start < k) {
      out.push_back(range_root(start + k, count - k));
      count = k;
    } else {
      out.push_back(range_root(start, k));
      start += k;
      count -= k;
    }
  }
  std::reverse(out.begin(), out.end());
  return out;
}

// RFC 6962 §2.1.2 SUBPROOF(m, D[n], true), unrolled the same way.
std::vector<Hash> MerkleTree::consistency_proof(std::uint64_t from_size,
                                                std::uint64_t to_size) const {
  assert(from_size <= to_size && to_size <= size());
  std::vector<Hash> out;
  if (from_size == 0 || from_size == to_size) return out;
  std::uint64_t m = from_size;
  std::uint64_t start = 0;
  std::uint64_t count = to_size;
  bool complete_subtree = true;
  while (m != count) {
    const std::uint64_t k = split_point(count);
    if (m <= k) {
      out.push_back(range_root(start + k, count - k));
      count = k;
    } else {
      out.push_back(range_root(start, k));
      m -= k;
      start += k;
      count -= k;
      complete_subtree = false;
    }
  }
  if (!complete_subtree) out.push_back(range_root(start, count));
  std::reverse(out.begin(), out.end());
  return out;
}

// RFC 9162 §2.1.3.2.
bool verify_inclusion(const Hash& leaf, std::uint64_t index,
                      std::uint64_t tree_size, const std::vector<Hash>& path,
                      const Hash& root) {
  if (index >= tree_size) return false;
  std::uint64_t fn = index;
  std::uint64_t sn = tree_size - 1;
  Hash r = leaf;
  for (const Hash& p : path) {
    if (sn == 0) return false;
    if ((fn & 1) != 0 || fn == sn) {
      r = node_hash(p, r);
      if ((fn & 1) == 0) {
        // Right-edge node: skip levels where fn has trailing zeros.
        while (fn != 0 && (fn & 1) == 0) {
          fn >>= 1;
          sn >>= 1;
        }
      }
    } else {
      r = node_hash(r, p);
    }
    fn >>= 1;
    sn >>= 1;
  }
  return sn == 0 && r == root;
}

// RFC 9162 §2.1.4.2.
bool verify_consistency(std::uint64_t from_size, std::uint64_t to_size,
                        const Hash& from_root, const Hash& to_root,
                        const std::vector<Hash>& proof) {
  if (from_size > to_size) return false;
  if (from_size == 0) {
    // Any tree is consistent with the empty tree; no proof required. The
    // empty tree has exactly one root, so the claimed from_root (and, when
    // to_size is also 0, the claimed to_root) must BE that root — checking
    // from_root == to_root alone would bless an arbitrary "root" for the
    // empty tree.
    if (!proof.empty() || from_root != empty_tree_hash()) return false;
    return to_size != 0 || to_root == empty_tree_hash();
  }
  if (from_size == to_size) return proof.empty() && from_root == to_root;
  if (proof.empty()) return false;

  std::uint64_t fn = from_size - 1;
  std::uint64_t sn = to_size - 1;
  while ((fn & 1) != 0) {
    fn >>= 1;
    sn >>= 1;
  }
  std::size_t cursor = 0;
  Hash fr;
  Hash sr;
  if (fn != 0) {
    fr = proof[cursor];
    sr = proof[cursor];
    ++cursor;
  } else {
    fr = from_root;
    sr = from_root;
  }
  for (; cursor < proof.size(); ++cursor) {
    const Hash& c = proof[cursor];
    if (sn == 0) return false;
    if ((fn & 1) != 0 || fn == sn) {
      fr = node_hash(c, fr);
      sr = node_hash(c, sr);
      if ((fn & 1) == 0) {
        while (fn != 0 && (fn & 1) == 0) {
          fn >>= 1;
          sn >>= 1;
        }
      }
    } else {
      sr = node_hash(sr, c);
    }
    fn >>= 1;
    sn >>= 1;
  }
  return sn == 0 && fr == from_root && sr == to_root;
}

}  // namespace anchor::ctlog
