#include "ctlog/merkle.hpp"

#include <gtest/gtest.h>

#include <map>
#include <span>
#include <utility>

#include "util/rng.hpp"

namespace anchor::ctlog {
namespace {

Bytes entry(int i) { return to_bytes("entry-" + std::to_string(i)); }

// Reference: the RFC 6962 §2.1 recursions written out over the leaf hashes,
// as MerkleTree computed them before it kept its interior nodes. Subtree
// roots are memoized by (offset, length) so that sweeping every size stays
// cheap; the memo caches the recursion's own results, not the tree's.
class ReferenceTree {
 public:
  explicit ReferenceTree(const MerkleTree& tree) {
    for (std::uint64_t i = 0; i < tree.size(); ++i) {
      leaves_.push_back(tree.leaf(i));
    }
  }

  Hash root(std::uint64_t n) { return subtree_root(span(0, n)); }

  // PATH(m, D[n]).
  std::vector<Hash> path(std::uint64_t m, std::uint64_t n) {
    std::vector<Hash> out;
    audit_path(m, span(0, n), out);
    return out;
  }

  // PROOF(m, D[n]) = SUBPROOF(m, D[n], true), empty for m = 0 or m = n.
  std::vector<Hash> proof(std::uint64_t m, std::uint64_t n) {
    std::vector<Hash> out;
    if (m == 0 || m == n) return out;
    subproof(m, span(0, n), true, out);
    return out;
  }

 private:
  using HashSpan = std::span<const Hash>;

  HashSpan span(std::uint64_t offset, std::uint64_t n) const {
    return HashSpan(leaves_.data() + offset, n);
  }

  static std::uint64_t split_point(std::uint64_t n) {
    std::uint64_t k = 1;
    while (k * 2 < n) k *= 2;
    return k;
  }

  Hash subtree_root(HashSpan leaves) {
    if (leaves.empty()) return empty_tree_hash();
    if (leaves.size() == 1) return leaves[0];
    const std::pair<std::uint64_t, std::uint64_t> key(
        static_cast<std::uint64_t>(leaves.data() - leaves_.data()),
        leaves.size());
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    std::uint64_t k = split_point(leaves.size());
    Hash root = node_hash(subtree_root(leaves.subspan(0, k)),
                          subtree_root(leaves.subspan(k)));
    memo_.emplace(key, root);
    return root;
  }

  void audit_path(std::uint64_t m, HashSpan leaves, std::vector<Hash>& out) {
    if (leaves.size() <= 1) return;
    std::uint64_t k = split_point(leaves.size());
    if (m < k) {
      audit_path(m, leaves.subspan(0, k), out);
      out.push_back(subtree_root(leaves.subspan(k)));
    } else {
      audit_path(m - k, leaves.subspan(k), out);
      out.push_back(subtree_root(leaves.subspan(0, k)));
    }
  }

  void subproof(std::uint64_t m, HashSpan leaves, bool complete_subtree,
                std::vector<Hash>& out) {
    if (m == leaves.size()) {
      if (!complete_subtree) out.push_back(subtree_root(leaves));
      return;
    }
    std::uint64_t k = split_point(leaves.size());
    if (m <= k) {
      subproof(m, leaves.subspan(0, k), complete_subtree, out);
      out.push_back(subtree_root(leaves.subspan(k)));
    } else {
      subproof(m - k, leaves.subspan(k), false, out);
      out.push_back(subtree_root(leaves.subspan(0, k)));
    }
  }

  std::vector<Hash> leaves_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, Hash> memo_;
};

MerkleTree tree_of(int n) {
  MerkleTree tree;
  for (int i = 0; i < n; ++i) tree.append(BytesView(entry(i)));
  return tree;
}

TEST(Merkle, EmptyTreeHashIsSha256OfNothing) {
  EXPECT_EQ(to_hex(BytesView(empty_tree_hash().data(), 32)),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(MerkleTree().root(), empty_tree_hash());
}

TEST(Merkle, Rfc6962DomainSeparation) {
  // Leaf and node prefixes differ, so a leaf can never collide with an
  // interior node over the same bytes.
  Bytes data(64, 0xab);
  Hash as_leaf = leaf_hash(BytesView(data));
  Hash left;
  Hash right;
  std::copy(data.begin(), data.begin() + 32, left.begin());
  std::copy(data.begin() + 32, data.end(), right.begin());
  EXPECT_NE(as_leaf, node_hash(left, right));
}

TEST(Merkle, SingleLeafRootIsLeafHash) {
  MerkleTree tree = tree_of(1);
  EXPECT_EQ(tree.root(), leaf_hash(BytesView(entry(0))));
  EXPECT_TRUE(tree.inclusion_proof(0, 1).empty());
  EXPECT_TRUE(verify_inclusion(tree.leaf(0), 0, 1, {}, tree.root()));
}

TEST(Merkle, RootMatchesManualComputationForThreeLeaves) {
  // MTH(D[3]) = H(0x01 || H(0x01 || L0 || L1) || L2)
  MerkleTree tree = tree_of(3);
  Hash l0 = leaf_hash(BytesView(entry(0)));
  Hash l1 = leaf_hash(BytesView(entry(1)));
  Hash l2 = leaf_hash(BytesView(entry(2)));
  EXPECT_EQ(tree.root(), node_hash(node_hash(l0, l1), l2));
}

TEST(Merkle, InclusionProofsVerifyForAllIndicesAndSizes) {
  // Exhaustive sweep: every (index, tree_size) pair up to 70 leaves.
  MerkleTree tree = tree_of(70);
  for (std::uint64_t size = 1; size <= 70; ++size) {
    Hash root = tree.root_at(size);
    for (std::uint64_t index = 0; index < size; ++index) {
      auto path = tree.inclusion_proof(index, size);
      EXPECT_TRUE(verify_inclusion(tree.leaf(index), index, size, path, root))
          << "index=" << index << " size=" << size;
    }
  }
}

TEST(Merkle, InclusionProofRejectsWrongLeaf) {
  MerkleTree tree = tree_of(20);
  Hash root = tree.root();
  auto path = tree.inclusion_proof(7, 20);
  Hash wrong = leaf_hash(BytesView(entry(8)));
  EXPECT_FALSE(verify_inclusion(wrong, 7, 20, path, root));
}

TEST(Merkle, InclusionProofRejectsWrongIndex) {
  MerkleTree tree = tree_of(20);
  Hash root = tree.root();
  auto path = tree.inclusion_proof(7, 20);
  EXPECT_FALSE(verify_inclusion(tree.leaf(7), 8, 20, path, root));
  EXPECT_FALSE(verify_inclusion(tree.leaf(7), 25, 20, path, root));
  // NB: a *shape-compatible* wrong size (e.g. 21 with the size-20 root) can
  // pass the structural check — the RFC 9162 verifier binds (size, root)
  // through the signed STH, not through the path shape. The genuine root
  // for the claimed size never matches:
  EXPECT_FALSE(verify_inclusion(tree.leaf(7), 7, 21,
                                tree_of(21).inclusion_proof(7, 21), root));
}

TEST(Merkle, InclusionProofRejectsTamperedPath) {
  MerkleTree tree = tree_of(33);
  Hash root = tree.root();
  auto path = tree.inclusion_proof(13, 33);
  ASSERT_FALSE(path.empty());
  path[0][0] ^= 0x01;
  EXPECT_FALSE(verify_inclusion(tree.leaf(13), 13, 33, path, root));
}

TEST(Merkle, InclusionProofRejectsTruncatedOrPaddedPath) {
  MerkleTree tree = tree_of(33);
  Hash root = tree.root();
  auto path = tree.inclusion_proof(13, 33);
  auto truncated = path;
  truncated.pop_back();
  EXPECT_FALSE(verify_inclusion(tree.leaf(13), 13, 33, truncated, root));
  auto padded = path;
  padded.push_back(empty_tree_hash());
  EXPECT_FALSE(verify_inclusion(tree.leaf(13), 13, 33, padded, root));
}

TEST(Merkle, ConsistencyProofsVerifyForAllSizePairs) {
  MerkleTree tree = tree_of(70);
  for (std::uint64_t from = 1; from <= 70; ++from) {
    Hash from_root = tree.root_at(from);
    for (std::uint64_t to = from; to <= 70; ++to) {
      Hash to_root = tree.root_at(to);
      auto proof = tree.consistency_proof(from, to);
      EXPECT_TRUE(verify_consistency(from, to, from_root, to_root, proof))
          << "from=" << from << " to=" << to;
    }
  }
}

TEST(Merkle, ConsistencyFromEmptyTree) {
  MerkleTree tree = tree_of(5);
  EXPECT_TRUE(verify_consistency(0, 5, empty_tree_hash(), tree.root(), {}));
  Hash not_empty = tree.root();
  EXPECT_FALSE(verify_consistency(0, 5, not_empty, tree.root(), {}));
}

TEST(Merkle, ConsistencyRejectsRewrittenHistory) {
  // Build two trees sharing a prefix length but different early entries.
  MerkleTree honest = tree_of(40);
  MerkleTree rewritten;
  for (int i = 0; i < 40; ++i) {
    Bytes e = i == 3 ? to_bytes("EVIL") : entry(i);
    rewritten.append(BytesView(e));
  }
  Hash old_root = honest.root_at(10);
  Hash new_root = rewritten.root_at(40);
  auto proof = rewritten.consistency_proof(10, 40);
  EXPECT_FALSE(verify_consistency(10, 40, old_root, new_root, proof));
  // The honest continuation verifies.
  EXPECT_TRUE(verify_consistency(10, 40, old_root, honest.root_at(40),
                                 honest.consistency_proof(10, 40)));
}

TEST(Merkle, ConsistencyRejectsTamperedProof) {
  MerkleTree tree = tree_of(23);
  auto proof = tree.consistency_proof(9, 23);
  ASSERT_FALSE(proof.empty());
  proof[0][5] ^= 0xff;
  EXPECT_FALSE(
      verify_consistency(9, 23, tree.root_at(9), tree.root_at(23), proof));
}

TEST(Merkle, SameSizeConsistencyNeedsEqualRootsAndEmptyProof) {
  MerkleTree tree = tree_of(8);
  EXPECT_TRUE(verify_consistency(8, 8, tree.root(), tree.root(), {}));
  EXPECT_FALSE(verify_consistency(8, 8, tree.root(), empty_tree_hash(), {}));
  EXPECT_FALSE(
      verify_consistency(8, 8, tree.root(), tree.root(), {empty_tree_hash()}));
}

TEST(Merkle, RootsChangeWithEveryAppend) {
  MerkleTree tree;
  Hash previous = tree.root();
  for (int i = 0; i < 20; ++i) {
    tree.append(BytesView(entry(i)));
    Hash current = tree.root();
    EXPECT_NE(current, previous);
    previous = current;
  }
}

TEST(Merkle, RandomizedCrossTreeRejection) {
  // Proofs from one tree must not verify against roots of a different one.
  Rng rng(4242);
  MerkleTree a;
  MerkleTree b;
  for (int i = 0; i < 50; ++i) {
    a.append(BytesView(rng.random_bytes(20)));
    b.append(BytesView(rng.random_bytes(20)));
  }
  for (std::uint64_t index : {0ull, 7ull, 31ull, 49ull}) {
    auto path = a.inclusion_proof(index, 50);
    EXPECT_FALSE(verify_inclusion(a.leaf(index), index, 50, path, b.root()));
  }
}

// The tree's heads and proofs against the reference recursion, byte for
// byte, at every size pair up to 300 leaves: every shape of right edge a
// small feed or log passes through.
TEST(MerkleOracle, RootsMatchReferenceAtEverySize) {
  MerkleTree tree = tree_of(300);
  ReferenceTree reference(tree);
  for (std::uint64_t m = 0; m <= 300; ++m) {
    ASSERT_EQ(tree.root_at(m), reference.root(m)) << "m=" << m;
  }
  EXPECT_EQ(tree.root(), reference.root(300));
}

TEST(MerkleOracle, InclusionProofsMatchReferenceAtEveryIndexAndSize) {
  MerkleTree tree = tree_of(300);
  ReferenceTree reference(tree);
  for (std::uint64_t n = 1; n <= 300; ++n) {
    const Hash root = tree.root_at(n);
    for (std::uint64_t index = 0; index < n; ++index) {
      const auto path = tree.inclusion_proof(index, n);
      ASSERT_EQ(path, reference.path(index, n))
          << "index=" << index << " n=" << n;
      ASSERT_TRUE(verify_inclusion(tree.leaf(index), index, n, path, root))
          << "index=" << index << " n=" << n;
    }
  }
}

TEST(MerkleOracle, ConsistencyProofsMatchReferenceAtEverySizePair) {
  MerkleTree tree = tree_of(300);
  ReferenceTree reference(tree);
  for (std::uint64_t n = 0; n <= 300; ++n) {
    const Hash to_root = tree.root_at(n);
    for (std::uint64_t m = 0; m <= n; ++m) {
      const auto proof = tree.consistency_proof(m, n);
      ASSERT_EQ(proof, reference.proof(m, n)) << "m=" << m << " n=" << n;
      ASSERT_TRUE(verify_consistency(m, n, tree.root_at(m), to_root, proof))
          << "m=" << m << " n=" << n;
    }
  }
}

// Past 2^16 leaves every level up to 16 is populated and the right edge
// (2^16 + 5 = 0b1...101) mixes a deep perfect subtree with short ones.
TEST(MerkleOracle, MatchesReferenceOnRandomPairsInALargeTree) {
  constexpr std::uint64_t kLeaves = (std::uint64_t{1} << 16) + 5;
  MerkleTree tree;
  for (std::uint64_t i = 0; i < kLeaves; ++i) {
    tree.append(BytesView(reinterpret_cast<const std::uint8_t*>(&i),
                          sizeof(i)));
  }
  ReferenceTree reference(tree);
  Rng rng(65541);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint64_t n = 1 + rng.uniform(kLeaves);
    std::uint64_t m = rng.uniform(n + 1);
    if (trial == 0) n = kLeaves;  // the head itself, at least once
    const Hash from_root = tree.root_at(m);
    const Hash to_root = tree.root_at(n);
    ASSERT_EQ(to_root, reference.root(n)) << "n=" << n;
    ASSERT_EQ(from_root, reference.root(m)) << "m=" << m;

    const auto proof = tree.consistency_proof(m, n);
    ASSERT_EQ(proof, reference.proof(m, n)) << "m=" << m << " n=" << n;
    ASSERT_TRUE(verify_consistency(m, n, from_root, to_root, proof))
        << "m=" << m << " n=" << n;

    const std::uint64_t index = rng.uniform(n);
    const auto path = tree.inclusion_proof(index, n);
    ASSERT_EQ(path, reference.path(index, n))
        << "index=" << index << " n=" << n;
    ASSERT_TRUE(verify_inclusion(tree.leaf(index), index, n, path, to_root))
        << "index=" << index << " n=" << n;
  }
}

}  // namespace
}  // namespace anchor::ctlog
