// RFC 6962-style Merkle hash trees: the data structure behind Certificate
// Transparency, which §5.2 of the paper leans on ("operators can more
// easily examine scopes of issuance because all certificates must be
// publicly logged") and which §4 gestures at for feeds ("the potential use
// of immutable logs").
//
// Hashing follows RFC 6962 §2.1 exactly:
//   MTH({})        = SHA-256()
//   leaf hash      = SHA-256(0x00 || entry)
//   interior node  = SHA-256(0x01 || left || right)
//   MTH(D[n])      = H(0x01 || MTH(D[0:k]) || MTH(D[k:n])),
//                    k the largest power of two < n
// together with audit (inclusion) and consistency proofs and their
// verifiers.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bytes.hpp"
#include "util/sha256.hpp"

namespace anchor::ctlog {

using Hash = Sha256::Digest;

Hash empty_tree_hash();
Hash leaf_hash(BytesView entry);
Hash node_hash(const Hash& left, const Hash& right);

// Incremental Merkle tree. levels_[h] holds the root of every complete,
// aligned subtree of 2^h leaves (levels_[0] are the leaf hashes), so the
// tree stores under 2n hashes for n leaves. Costs, in SHA-256 node hashes:
//   append            amortized 1 (it hashes the subtrees it completes);
//   root_at(m)        popcount(m) - 1, folding m's perfect subtrees;
//   inclusion_proof   at most log2(n), for the one right-edge sibling;
//   consistency_proof at most log2(n), likewise.
// Every other node a proof names is looked up. Outputs follow the RFC 6962
// PATH/SUBPROOF recursion, byte for byte, for any historical size.
class MerkleTree {
 public:
  MerkleTree() : levels_(1) {}

  // Appends an entry; returns its leaf index.
  std::uint64_t append(BytesView entry);

  std::uint64_t size() const { return levels_[0].size(); }

  // MTH over the first `tree_size` leaves (tree_size <= size()); the
  // zero-argument form covers the whole tree.
  Hash root() const { return root_at(size()); }
  Hash root_at(std::uint64_t tree_size) const;

  // RFC 6962 §2.1.1 audit path for `index` within the first `tree_size`
  // leaves. Empty vector for a single-leaf tree.
  std::vector<Hash> inclusion_proof(std::uint64_t index,
                                    std::uint64_t tree_size) const;

  // RFC 6962 §2.1.2 consistency proof between tree sizes.
  std::vector<Hash> consistency_proof(std::uint64_t from_size,
                                      std::uint64_t to_size) const;

  const Hash& leaf(std::uint64_t index) const { return levels_[0][index]; }

 private:
  // MTH(D[start:start+count]) for a range the RFC recursion visits: `start`
  // is a multiple of the smallest power of two >= count.
  Hash range_root(std::uint64_t start, std::uint64_t count) const;

  std::vector<std::vector<Hash>> levels_;
};

// Verifiers (RFC 6962 §2.1.1 / §2.1.4.2). Pure functions of public data.
bool verify_inclusion(const Hash& leaf, std::uint64_t index,
                      std::uint64_t tree_size, const std::vector<Hash>& path,
                      const Hash& root);

bool verify_consistency(std::uint64_t from_size, std::uint64_t to_size,
                        const Hash& from_root, const Hash& to_root,
                        const std::vector<Hash>& proof);

}  // namespace anchor::ctlog
