// Snapshot suite (ctest -L snapshot; run under both sanitizer configs —
// -DANCHOR_SANITIZE=address for the mmap-lifetime and fuzz sweeps,
// =thread for the service swap tests).
//
// The pinned contract under test: a StoreView serves byte-identical
// verdicts to the heap RootStore its snapshot was written from, and every
// corrupted, truncated, foreign-endian or wrong-version image is rejected
// fail-closed with a classified error — a daemon warm start never serves
// from a snapshot it cannot prove intact.
#include "rootstore/snapshot/view.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "chain/service.hpp"
#include "chain/verifier.hpp"
#include "corpus/census.hpp"
#include "corpus/corpus.hpp"
#include "rootstore/snapshot/writer.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "x509/builder.hpp"
#include "x509/oids.hpp"

namespace anchor::rootstore::snapshot {
namespace {

using x509::CertificateBuilder;
using x509::CertPtr;
using x509::DistinguishedName;

constexpr std::int64_t kNow = 1700000000;

constexpr const char* kAcceptGcc = "valid(Chain, _) :- leaf(Chain, L).";
constexpr const char* kRejectGcc = "valid(Chain, _) :- leaf(Chain, L), ev(L).";
constexpr const char* kCutoffGcc =
    "valid(Chain, \"TLS\") :- leaf(Chain, L), notBefore(L, NB), "
    "NB < 1700000000.\n"
    "valid(Chain, \"S/MIME\") :- leaf(Chain, L).";

// Small but representative PKI: metadata variety (cutoffs, EV, empty and
// non-trivial justifications), multiple GCCs on one root (attachment order
// is observable), a distrusted set, and leaves that exercise acceptance,
// GCC rejection, and plain path failure.
struct SnapPki {
  SimSig sigs;
  std::vector<CertPtr> roots;
  std::vector<CertPtr> leaves;
  std::vector<std::string> domains;
  chain::CertificatePool pool;
  RootStore store;

  SnapPki() {
    int serial = 1;
    for (int r = 0; r < 3; ++r) {
      std::string name = "Snap Root " + std::to_string(r);
      SimKeyPair key = SimSig::keygen(name);
      CertPtr root = CertificateBuilder()
                         .serial(serial++)
                         .subject(DistinguishedName::make(name, "T"))
                         .issuer(DistinguishedName::make(name, "T"))
                         .validity(0, unix_date(2040, 1, 1))
                         .public_key(key.key_id)
                         .ca(std::nullopt)
                         .sign(key)
                         .take();
      sigs.register_key(key);
      roots.push_back(root);
      RootMetadata metadata;
      if (r == 0) {
        metadata.ev_allowed = true;
        metadata.tls_distrust_after = kNow + 365 * 86400;
        metadata.justification = "CCADB inclusion 2019";
      } else if (r == 1) {
        metadata.smime_distrust_after = kNow - 86400;
      }
      EXPECT_TRUE(store.add_trusted(root, metadata).ok());
      for (int l = 0; l < 2; ++l) {
        std::string domain = "s" + std::to_string(serial) + ".example.com";
        SimKeyPair leaf_key = SimSig::keygen("snap-leaf-" +
                                             std::to_string(serial));
        leaves.push_back(CertificateBuilder()
                             .serial(serial++)
                             .subject(DistinguishedName::make(domain))
                             .issuer(root->subject())
                             .validity(kNow - 86400, kNow + 90 * 86400)
                             .public_key(leaf_key.key_id)
                             .dns_names({domain})
                             .extended_key_usage(
                                 {x509::oids::kp_server_auth()})
                             .sign(key)
                             .take());
        domains.push_back(domain);
      }
    }
    store.distrust(*digest_from_hex(std::string(64, 'a')), "incident 2021");
    store.distrust(*digest_from_hex(std::string(64, '3')), "");
    // Two GCCs on root 0 (order observable), one on root 1.
    const Sha256::Digest h0 = roots[0]->fingerprint();
    store.attach_gcc(
        core::Gcc::create("accept-all", h0, kAcceptGcc, "baseline").take());
    store.attach_gcc(
        core::Gcc::create("cutoff", h0, kCutoffGcc, "sunset notBefore")
            .take());
    store.attach_gcc(core::Gcc::create("require-ev",
                                       roots[1]->fingerprint_hex(), kRejectGcc)
                         .take());
  }

  chain::VerifyOptions options_for(std::size_t leaf_index) const {
    chain::VerifyOptions options;
    options.time = kNow;
    options.hostname = domains[leaf_index];
    return options;
  }
};

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "anchor-snapshot-" + name + ".snap";
}

TEST(SnapshotFormat, RoundTripReEncodeIsByteEqual) {
  SnapPki pki;
  const Bytes image = write_snapshot(pki.store);
  auto opened = StoreView::from_bytes(image);
  ASSERT_TRUE(opened.ok()) << opened.error.to_string();
  const StoreView& view = *opened.view;

  EXPECT_EQ(view.trusted_count(), pki.store.trusted_count());
  EXPECT_EQ(view.distrusted_count(), pki.store.distrusted_count());
  EXPECT_EQ(view.gcc_count(), pki.store.gcc_count());
  EXPECT_EQ(view.epoch(), pki.store.epoch());
  EXPECT_EQ(view.info().file_size, image.size());
  EXPECT_EQ(view.info().source, "memory");

  // write -> load -> re-encode reproduces the image byte for byte: the
  // format carries everything the store is, in a canonical encoding.
  EXPECT_EQ(view.re_encode(), image);
  // And the materialized heap store is the original store, byte for byte
  // in the text serialization, at the same epoch.
  RootStore rebuilt = view.materialize();
  EXPECT_EQ(rebuilt.serialize(), pki.store.serialize());
  EXPECT_EQ(rebuilt.epoch(), pki.store.epoch());
}

TEST(SnapshotFormat, DeterministicWriter) {
  SnapPki pki;
  EXPECT_EQ(write_snapshot(pki.store), write_snapshot(pki.store));
}

TEST(SnapshotFormat, MmapViewServesSameAnswersAsHeapStore) {
  SnapPki pki;
  const std::string path = temp_path("mmap-answers");
  ASSERT_TRUE(write_snapshot_file(pki.store, path).ok());
  auto opened = StoreView::open(path);
  ASSERT_TRUE(opened.ok()) << opened.error.to_string();
  const StoreView& view = *opened.view;
  EXPECT_EQ(view.info().source, "mmap:" + path);

  // state_of over all three states.
  for (const CertPtr& root : pki.roots) {
    EXPECT_EQ(view.state_of(root->fingerprint()), TrustState::kTrusted);
  }
  EXPECT_EQ(view.state_of(*digest_from_hex(std::string(64, 'a'))),
            TrustState::kDistrusted);
  EXPECT_EQ(view.state_of(*digest_from_hex(std::string(64, 'f'))),
            TrustState::kUnknown);

  // trusted() in the same (insertion) order, with identical DER and
  // metadata; find() agrees with the heap entry.
  auto heap_trusted = pki.store.trusted();
  auto view_trusted = view.trusted();
  ASSERT_EQ(view_trusted.size(), heap_trusted.size());
  for (std::size_t i = 0; i < heap_trusted.size(); ++i) {
    EXPECT_EQ(view_trusted[i]->cert->der(), heap_trusted[i]->cert->der());
    EXPECT_EQ(view_trusted[i]->metadata, heap_trusted[i]->metadata);
    const RootEntry* found =
        view.find(heap_trusted[i]->cert->fingerprint());
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->cert->der(), heap_trusted[i]->cert->der());
  }

  // gccs_for_root in attachment order, with identical name/source.
  for (const CertPtr& root : pki.roots) {
    auto heap_gccs = pki.store.gccs_for_root(root->fingerprint());
    auto view_gccs = view.gccs_for_root(root->fingerprint());
    ASSERT_EQ(view_gccs.size(), heap_gccs.size());
    for (std::size_t i = 0; i < heap_gccs.size(); ++i) {
      EXPECT_EQ(view_gccs[i].name(), heap_gccs[i].name());
      EXPECT_EQ(view_gccs[i].source(), heap_gccs[i].source());
      EXPECT_EQ(view_gccs[i].justification(), heap_gccs[i].justification());
      EXPECT_EQ(view_gccs[i].root_hash_hex(), heap_gccs[i].root_hash_hex());
    }
  }
  std::remove(path.c_str());
}

// Binary identity, heap vs view, over the census primaries (mozilla-,
// chrome- and apple-like: GCCs, compiled Chrome Root Store constraints,
// distrust entries) and their snapshots: every digest-keyed lookup and the
// subject index answer identically for every root, every intermediate and
// a digest neither store has seen.
TEST(SnapshotFormat, DigestLookupsMatchHeapOverCensusStores) {
  corpus::CorpusConfig config;
  config.num_roots = 16;
  config.num_intermediates = 40;
  config.roots_with_path_len = 3;
  config.intermediates_with_path_len = 30;
  config.intermediates_with_name_constraints = 4;
  config.roots_with_constrained_chain = 3;
  config.leaves_per_intermediate_mean = 1.0;
  const corpus::Corpus corpus = corpus::Corpus::generate(config);
  const corpus::PrimaryStores primaries = corpus::make_primary_stores(corpus);

  std::vector<CertPtr> certs;
  for (const corpus::CaProfile& ca : corpus.roots()) certs.push_back(ca.cert);
  for (const corpus::CaProfile& ca : corpus.intermediates()) {
    certs.push_back(ca.cert);
  }
  Sha256::Digest unseen{};
  unseen.fill(0x5a);
  std::vector<Sha256::Digest> digests{unseen};
  for (const CertPtr& cert : certs) digests.push_back(cert->fingerprint());

  const auto same_entry = [](const RootEntry* heap, const RootEntry* view) {
    if (heap == nullptr || view == nullptr) return heap == view;
    return heap->cert->der() == view->cert->der() &&
           heap->metadata == view->metadata;
  };
  std::size_t gccs_seen = 0;
  for (const RootStore& heap : primaries.stores) {
    auto opened = StoreView::from_bytes(write_snapshot(heap));
    ASSERT_TRUE(opened.ok()) << opened.error.to_string();
    const StoreView& view = *opened.view;
    gccs_seen += heap.gcc_count();

    std::size_t trusted = 0, distrusted = 0;
    for (const Sha256::Digest& digest : digests) {
      const std::string hex = to_hex(BytesView(digest));
      EXPECT_EQ(view.state_of(digest), heap.state_of(digest)) << hex;
      trusted += heap.state_of(digest) == TrustState::kTrusted;
      distrusted += heap.state_of(digest) == TrustState::kDistrusted;
      EXPECT_TRUE(same_entry(heap.find(digest), view.find(digest))) << hex;
      const auto heap_gccs = heap.gccs_for_root(digest);
      const auto view_gccs = view.gccs_for_root(digest);
      ASSERT_EQ(view_gccs.size(), heap_gccs.size()) << hex;
      for (std::size_t i = 0; i < heap_gccs.size(); ++i) {
        EXPECT_EQ(view_gccs[i], heap_gccs[i]) << hex;
      }
    }
    EXPECT_EQ(heap.state_of(unseen), TrustState::kUnknown);
    EXPECT_GT(trusted, 0u);
    EXPECT_GT(distrusted, 0u);

    for (const CertPtr& cert : certs) {
      for (const DistinguishedName* name :
           {&cert->subject(), &cert->issuer()}) {
        const auto heap_anchors = heap.trusted_by_subject(*name);
        const auto view_anchors = view.trusted_by_subject(*name);
        ASSERT_EQ(view_anchors.size(), heap_anchors.size())
            << name->to_string();
        for (std::size_t i = 0; i < heap_anchors.size(); ++i) {
          EXPECT_EQ(heap_anchors[i]->cert->subject(), *name);
          EXPECT_TRUE(same_entry(heap_anchors[i], view_anchors[i]))
              << name->to_string();
        }
      }
    }
  }
  EXPECT_GT(gccs_seen, 0u);
}

// The headline guarantee: verdicts computed through a StoreView are
// byte-identical to the heap store's — every observable VerifyResult
// field, over the whole corpus, for both usages and the EV variant.
TEST(SnapshotFormat, DifferentialVerdictsViewVsHeap) {
  SnapPki pki;
  auto opened = StoreView::from_bytes(write_snapshot(pki.store));
  ASSERT_TRUE(opened.ok()) << opened.error.to_string();

  chain::ChainVerifier heap_verifier(pki.store, pki.sigs);
  chain::ChainVerifier view_verifier(*opened.view, pki.sigs);

  auto variants = [&](std::size_t leaf) {
    std::vector<chain::VerifyOptions> out;
    chain::VerifyOptions tls = pki.options_for(leaf);
    out.push_back(tls);
    chain::VerifyOptions ev = tls;
    ev.require_ev = true;
    out.push_back(ev);
    chain::VerifyOptions smime = tls;
    smime.usage = chain::Usage::kSmime;
    smime.hostname.clear();
    out.push_back(smime);
    return out;
  };

  for (std::size_t leaf = 0; leaf < pki.leaves.size(); ++leaf) {
    for (const chain::VerifyOptions& options : variants(leaf)) {
      chain::VerifyResult a =
          heap_verifier.verify(pki.leaves[leaf], pki.pool, options);
      chain::VerifyResult b =
          view_verifier.verify(pki.leaves[leaf], pki.pool, options);
      EXPECT_EQ(a.ok, b.ok) << "leaf " << leaf;
      EXPECT_EQ(a.kind, b.kind) << "leaf " << leaf;
      EXPECT_EQ(a.error, b.error) << "leaf " << leaf;
      EXPECT_EQ(a.rejected_paths, b.rejected_paths) << "leaf " << leaf;
      EXPECT_EQ(a.paths_explored, b.paths_explored) << "leaf " << leaf;
      ASSERT_EQ(a.chain.size(), b.chain.size()) << "leaf " << leaf;
      for (std::size_t i = 0; i < a.chain.size(); ++i) {
        EXPECT_EQ(a.chain[i]->der(), b.chain[i]->der());
      }
      EXPECT_EQ(a.gcc_verdict.allowed, b.gcc_verdict.allowed);
      EXPECT_EQ(a.gcc_verdict.failed_gcc, b.gcc_verdict.failed_gcc);
      EXPECT_EQ(a.gcc_verdict.gccs_evaluated, b.gcc_verdict.gccs_evaluated);
      EXPECT_EQ(a.gcc_verdict.facts_encoded, b.gcc_verdict.facts_encoded);
      EXPECT_EQ(a.gcc_verdict.stats.derived_tuples,
                b.gcc_verdict.stats.derived_tuples);
    }
  }
}

TEST(SnapshotFormat, CompiledProgramSerializationRoundTrips) {
  SnapPki pki;
  for (const Sha256::Digest& root : pki.store.gccs().roots_sorted()) {
    for (const core::Gcc& gcc : pki.store.gccs().for_root(root)) {
      Bytes wire;
      gcc.compiled()->serialize(wire);
      auto restored = datalog::CompiledProgram::deserialize(BytesView(wire));
      ASSERT_TRUE(restored.ok()) << gcc.name() << ": " << restored.error();
      Bytes again;
      restored.value().serialize(again);
      EXPECT_EQ(again, wire) << gcc.name();
    }
  }
}

// Every strict prefix of a valid image must be rejected with a classified
// error — a partially written or torn snapshot can never be served.
TEST(SnapshotFuzz, EveryTruncationFailsClosed) {
  SnapPki pki;
  const Bytes image = write_snapshot(pki.store);
  ASSERT_GT(image.size(), kHeaderSize);
  for (std::size_t len = 0; len < image.size(); ++len) {
    auto opened =
        StoreView::from_bytes(Bytes(image.begin(), image.begin() + len));
    ASSERT_FALSE(opened.ok()) << "prefix of " << len << " bytes loaded";
    const ErrorClass cls = opened.error.cls;
    EXPECT_TRUE(cls == ErrorClass::kTruncated ||
                cls == ErrorClass::kMalformed)
        << "prefix " << len << " classified as " << to_string(cls);
  }
}

// One flipped bit anywhere in the file — header, offset table, DER,
// compiled program, digest itself — must be caught: the digest covers the
// whole image, so nothing rides on a structural check happening to notice.
TEST(SnapshotFuzz, EverySingleBitFlipIsCaught) {
  SnapPki pki;
  const Bytes image = write_snapshot(pki.store);
  Rng rng(0xb17f11bULL);
  for (std::size_t pos = 0; pos < image.size(); ++pos) {
    Bytes mutated = image;
    mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
    auto opened = StoreView::from_bytes(std::move(mutated));
    EXPECT_FALSE(opened.ok()) << "bit flip at byte " << pos << " loaded";
  }
}

TEST(SnapshotFuzz, ClassifiedRejections) {
  SnapPki pki;
  const Bytes image = write_snapshot(pki.store);

  auto patched = [&](std::size_t offset, auto value, bool seal = true) {
    Bytes mutated = image;
    std::memcpy(mutated.data() + offset, &value, sizeof value);
    if (seal) reseal(mutated);  // rejection must come from the named check,
    return mutated;             // not from the digest noticing the patch
  };

  // Foreign endianness: the byteswapped tag, resealed, is exactly what a
  // big-endian writer would have produced.
  {
    auto opened = StoreView::from_bytes(
        patched(offsetof(Header, endian_tag), std::uint32_t{0x04030201}));
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.error.cls, ErrorClass::kBadEndian);
  }
  // Future format version.
  {
    auto opened = StoreView::from_bytes(
        patched(offsetof(Header, format_version), std::uint16_t{3}));
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.error.cls, ErrorClass::kBadVersion);
  }
  // Not a snapshot at all.
  {
    Bytes mutated = image;
    mutated[0] = 'X';
    reseal(mutated);
    auto opened = StoreView::from_bytes(std::move(mutated));
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.error.cls, ErrorClass::kBadMagic);
  }
  // Absurd record count, digest intact.
  {
    auto opened = StoreView::from_bytes(patched(
        offsetof(Header, trusted_count), std::uint32_t{kMaxRecords + 1}));
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.error.cls, ErrorClass::kLimitExceeded);
  }
  // Header/section count disagreement.
  {
    auto opened = StoreView::from_bytes(
        patched(offsetof(Header, trusted_count), std::uint32_t{4}));
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.error.cls, ErrorClass::kMalformed);
  }
  // Payload corruption without resealing: the digest catches it.
  {
    Bytes mutated = image;
    mutated[kHeaderSize + 16] ^= 0x40;
    auto opened = StoreView::from_bytes(std::move(mutated));
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.error.cls, ErrorClass::kChecksumMismatch);
  }
  // Missing file / unreadable path.
  {
    auto opened = StoreView::open(temp_path("does-not-exist"));
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.error.cls, ErrorClass::kIo);
  }
}

TEST(SnapshotService, AdoptViewServesViewContentAtAdvancedEpoch) {
  SnapPki pki;
  chain::ServiceConfig config;
  config.threads = 2;
  metrics::Registry registry;
  chain::VerifyService service(pki.store, pki.sigs, config, registry);
  const std::uint64_t before = service.epoch();

  // A view written from the same store at the same epoch must still
  // publish a strictly larger epoch: adoption is a wholesale replacement.
  auto opened = StoreView::from_bytes(write_snapshot(pki.store));
  ASSERT_TRUE(opened.ok());
  service.adopt_view(opened.view);
  EXPECT_GT(service.epoch(), before);

  // Verdicts served from the view match the pre-adoption heap verdicts.
  for (std::size_t leaf = 0; leaf < pki.leaves.size(); ++leaf) {
    chain::VerifyResult result =
        service.verify(pki.leaves[leaf], pki.pool, pki.options_for(leaf));
    chain::ChainVerifier cold(pki.store, pki.sigs);
    chain::VerifyResult expected =
        cold.verify(pki.leaves[leaf], pki.pool, pki.options_for(leaf));
    EXPECT_EQ(result.ok, expected.ok) << "leaf " << leaf;
    EXPECT_EQ(result.error, expected.error) << "leaf " << leaf;
  }
}

TEST(SnapshotService, MutateAfterAdoptAppliesToViewContent) {
  SnapPki pki;
  metrics::Registry registry;
  chain::VerifyService service(pki.store, pki.sigs, {}, registry);

  auto opened = StoreView::from_bytes(write_snapshot(pki.store));
  ASSERT_TRUE(opened.ok());
  service.adopt_view(opened.view);
  const std::uint64_t adopted_epoch = service.epoch();

  // Distrust root 0 through mutate(): the mutation must apply on top of
  // the adopted view's content, not whatever the live store last held.
  const Sha256::Digest h0 = pki.roots[0]->fingerprint();
  service.mutate([&](RootStore& live) {
    EXPECT_EQ(live.state_of(h0), TrustState::kTrusted);  // view content
    EXPECT_EQ(live.gcc_count(), 3u);
    live.distrust(h0, "post-adoption incident");
  });
  EXPECT_GT(service.epoch(), adopted_epoch);

  chain::VerifyResult result =
      service.verify(pki.leaves[0], pki.pool, pki.options_for(0));
  EXPECT_FALSE(result.ok);  // leaf 0 chained to the now-distrusted root 0
}

// ASan target: snapshots swapped out from under in-flight verifications
// must stay mapped until the last reference drains. Workers verify
// continuously while the main thread repeatedly adopts fresh mmap views
// and interleaves heap mutations; any read of an unmapped view is a
// use-after-munmap ASan would report.
TEST(SnapshotService, EpochSwapNeverUnmapsUnderInFlightVerifies) {
  SnapPki pki;
  chain::ServiceConfig config;
  config.threads = 2;
  metrics::Registry registry;
  chain::VerifyService service(pki.store, pki.sigs, config, registry);
  const std::string path = temp_path("swap-lifetime");

  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&, w] {
      std::size_t leaf = static_cast<std::size_t>(w) % pki.leaves.size();
      while (!done.load(std::memory_order_relaxed)) {
        (void)service.verify(pki.leaves[leaf], pki.pool,
                             pki.options_for(leaf));
        leaf = (leaf + 1) % pki.leaves.size();
      }
    });
  }

  RootStore source = pki.store;
  for (int round = 0; round < 12; ++round) {
    // Each round writes a slightly different store, so adopted views are
    // genuinely distinct mappings.
    Sha256::Digest hash{};
    hash.fill(0xbb);
    hash.back() = static_cast<std::uint8_t>(round);
    source.distrust(hash, "round " + std::to_string(round));
    ASSERT_TRUE(write_snapshot_file(source, path).ok());
    auto opened = StoreView::open(path);
    ASSERT_TRUE(opened.ok()) << opened.error.to_string();
    service.adopt_view(opened.view);
    // opened.view dropped here: the service snapshot (and any in-flight
    // verification) must be what keeps the mapping alive.
    if (round % 3 == 2) {
      service.mutate([&](RootStore& live) {
        live.distrust(*digest_from_hex(std::string(64, 'c')),
                      "mutate between adoptions");
      });
    }
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& worker : workers) worker.join();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace anchor::rootstore::snapshot
