// anchorctl — command-line companion for libanchor.
//
//   anchorctl inspect <cert.pem>                 print certificate fields
//   anchorctl chain-facts <chain.pem>            chain -> Datalog facts (§3)
//   anchorctl gcc-check <gcc.dl> <root.pem>      validate a GCC offline
//   anchorctl gcc-eval <gcc.dl> <chain.pem> [--usage TLS|S/MIME]
//   anchorctl datalog <program.dl> --query "p(X)?"
//   anchorctl store-dump <store.txt>             summarize a root store
//   anchorctl store-hash <store.txt>             canonical content hash
//   anchorctl store-diff <old.txt> <new.txt>     RSF delta between stores
//   anchorctl verify <store.txt> <chain.pem> --host <h> --time <iso8601>
//                                 [--usage TLS|S/MIME] [--crlset <f>]
//                                 [--onecrl <f>] [--crlite <f>]
//                                 the three optional flags register
//                                 serialized revocation sets as unified
//                                 revocation::Provider sources
//   anchorctl serve-stats <store.txt> <chain.pem> --host <h> --time <t>
//                                 [--usage TLS|S/MIME] [--threads N]
//                                 [--repeat N]     run the chain through a
//                                 VerifyService and print its counters
//   anchorctl feed-publish <dir> <store.txt> --time <iso8601> [--note "..."]
//   anchorctl feed-verify <dir>              check signatures + hash chain
//   anchorctl feed-apply <dir> <out.txt>     materialize the head snapshot
//   anchorctl feed-status <dir> --now <iso8601> [--stale-after <seconds>]
//                                 head, integrity, staleness and the
//                                 healthy/degraded/stale classification a
//                                 polling client would report
//   anchorctl feed-fetch <dir> [--from N] [--transport memory|unix]
//                                 authenticated poll over the anchord wire:
//                                 re-serve the feed directory through an
//                                 in-process daemon, fetch {signed tree
//                                 head, consistency + inclusion proofs,
//                                 snapshot range} from the pinned size N,
//                                 and verify all three before reporting
//   anchorctl metrics <store.txt> <chain.pem> --host <h> --time <iso8601>
//                                 [--usage TLS|S/MIME] [--repeat N]
//                                 [--threads N] [--feed <dir> --now <iso8601>]
//                                 drive verifications (and optionally one
//                                 feed poll; a feed directory that fails
//                                 verification exits 1) through the
//                                 shared registry —
//                                 half direct, half through an in-process
//                                 anchord server so the daemon's own
//                                 queue-depth/overload series populate —
//                                 then print the text exposition
//   anchorctl daemon <store.txt> <verb> [chain.pem] [--host <h>]
//                                 [--time <iso8601>] [--usage TLS|S/MIME]
//                                 [--transport memory|unix]
//                                 speak the framed wire protocol to an
//                                 in-process anchord server; <verb> is one
//                                 of verify, evaluate-gccs, metrics,
//                                 feed-status. Exit code = the response's
//                                 ErrorKind value (0 = ok).
//   anchorctl daemon --snapshot <store.snap> <verb> [...]
//                                 same, but the daemon warm-starts from an
//                                 mmap'd snapshot image: no text parse, no
//                                 GCC recompilation (O(1) warm start).
//   anchorctl snapshot-write <store.txt> <out.snap>
//                                 compile a text store into the flat mmap
//                                 snapshot format, then re-open and verify
//                                 the written image before reporting it
//   anchorctl snapshot-info <store.snap>
//                                 validate a snapshot fail-closed and print
//                                 its header facts (epoch, counts, digest);
//                                 a rejected image prints the classified
//                                 error (truncated, checksum-mismatch, ...)
//   anchorctl crlite-build <spec.txt> <out.crlite>
//                                 build a CRLite-style filter cascade from
//                                 a spec of `enroll <spki-hex>`,
//                                 `revoked <spki-hex> <serial-hex>` and
//                                 `valid <spki-hex> <serial-hex>` lines,
//                                 then print its shape
//   anchorctl crlite-info <filter.crlite>
//                                 parse a serialized filter and print
//                                 levels, enrollment and sizes
//   anchorctl compile-store <store.textproto> [--out <store.txt>]
//                                 [--roots <roots.pem>] [--prefix crs]
//                                 parse a Chrome Root Store textproto
//                                 (fail-closed; classified errors) and
//                                 lower every constraints block to GCCs.
//                                 --roots supplies certificates matched to
//                                 anchors by SHA-256; --out writes the
//                                 compiled store in the native format.
//
// Feed directories hold `feed.name` plus `snapshot-NNNN.txt` files (a
// header block followed by the store payload) — a file-based RSF a
// derivative can rsync/fetch. Signing keys derive deterministically from
// the feed name via SimSig (the DESIGN.md §5 substitution), so publisher
// and verifier need no key exchange in this simulation.
//
// <chain.pem> holds concatenated CERTIFICATE blocks, leaf first.
// `verify` runs without signature verification: PEM files carry no SimSig
// secrets (see DESIGN.md §5); structural, temporal, constraint and GCC
// checks all still apply.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "anchord/client.hpp"
#include "anchord/feed_transport.hpp"
#include "anchord/server.hpp"
#include "ctlog/merkle.hpp"
#include "chain/service.hpp"
#include "chain/verifier.hpp"
#include "core/executor.hpp"
#include "core/facts.hpp"
#include "datalog/engine.hpp"
#include "rootstore/chromeproto.hpp"
#include "rootstore/constraint_compile.hpp"
#include "revocation/crlite.hpp"
#include "revocation/revocation.hpp"
#include "rootstore/snapshot/view.hpp"
#include "rootstore/snapshot/writer.hpp"
#include "rootstore/store.hpp"
#include "rsf/client.hpp"
#include "rsf/delta.hpp"
#include "rsf/feed.hpp"
#include "util/base64.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

using namespace anchor;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: anchorctl <command> [args]\n"
               "  inspect <cert.pem>\n"
               "  chain-facts <chain.pem>\n"
               "  gcc-check <gcc.dl> <root.pem>\n"
               "  gcc-eval <gcc.dl> <chain.pem> [--usage TLS|S/MIME]\n"
               "  datalog <program.dl> --query \"p(X)?\"\n"
               "  store-dump <store.txt>\n"
               "  store-hash <store.txt>\n"
               "  store-diff <old.txt> <new.txt>\n"
               "  verify <store.txt> <chain.pem> --host <h> --time <iso8601>"
               " [--usage TLS|S/MIME]"
               " [--crlset <f>] [--onecrl <f>] [--crlite <f>]\n"
               "  serve-stats <store.txt> <chain.pem> --host <h> --time <t>"
               " [--usage TLS|S/MIME] [--threads N] [--repeat N]\n"
               "  feed-publish <dir> <store.txt> --time <iso8601> [--note s]\n"
               "  feed-verify <dir>\n"
               "  feed-apply <dir> <out-store.txt>\n"
               "  feed-status <dir> --now <iso8601> [--stale-after <sec>]\n"
               "  feed-fetch <dir> [--from N] [--transport memory|unix]\n"
               "  metrics <store.txt> <chain.pem> --host <h> --time <t>"
               " [--usage TLS|S/MIME] [--repeat N] [--threads N]"
               " [--feed <dir> --now <iso8601>]\n"
               "  daemon <store.txt> <verb> [chain.pem] [--host <h>]"
               " [--time <t>] [--usage TLS|S/MIME] [--transport memory|unix]"
               " [--crlset <f>] [--onecrl <f>] [--crlite <f>]\n"
               "      verb: verify | evaluate-gccs | metrics | feed-status\n"
               "  daemon --snapshot <store.snap> <verb> [...]\n"
               "  snapshot-write <store.txt> <out.snap>\n"
               "  snapshot-info <store.snap>\n"
               "  crlite-build <spec.txt> <out.crlite>\n"
               "  crlite-info <filter.crlite>\n"
               "  compile-store <store.textproto> [--out <store.txt>]"
               " [--roots <roots.pem>] [--prefix crs]\n");
  return 2;
}

Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return err("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Result<std::vector<x509::CertPtr>> read_chain(const std::string& path) {
  auto text = read_file(path);
  if (!text) return err(text.error());
  std::vector<x509::CertPtr> chain;
  std::string_view rest = text.value();
  while (true) {
    Bytes der;
    std::size_t consumed = 0;
    if (!pem_decode(rest, "CERTIFICATE", der, &consumed)) break;
    auto cert = x509::Certificate::parse(BytesView(der));
    if (!cert) return err(path + ": " + cert.error());
    chain.push_back(std::move(cert).take());
    rest = rest.substr(consumed);
  }
  if (chain.empty()) return err(path + ": no CERTIFICATE blocks");
  return chain;
}

void print_certificate(const x509::Certificate& cert) {
  std::printf("subject      : %s\n", cert.subject().to_string().c_str());
  std::printf("issuer       : %s\n", cert.issuer().to_string().c_str());
  std::printf("serial       : %s\n", to_hex(BytesView(cert.serial())).c_str());
  std::printf("not before   : %s\n", format_iso8601(cert.not_before()).c_str());
  std::printf("not after    : %s\n", format_iso8601(cert.not_after()).c_str());
  std::printf("sha256       : %s\n", cert.fingerprint_hex().c_str());
  if (cert.is_ca()) {
    if (auto plen = cert.path_len()) {
      std::printf("basic constr : CA, pathLen=%d\n", *plen);
    } else {
      std::printf("basic constr : CA\n");
    }
  }
  if (cert.key_usage()) {
    std::printf("key usage    :");
    for (const auto& name : cert.key_usage()->names()) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n");
  }
  if (cert.extended_key_usage()) {
    std::printf("ext key usage:");
    for (const auto& name : cert.extended_key_usage()->names()) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n");
  }
  if (cert.subject_alt_name()) {
    std::printf("SANs         :");
    for (const auto& name : cert.subject_alt_name()->dns_names) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n");
  }
  if (cert.name_constraints()) {
    for (const auto& permitted : cert.name_constraints()->permitted_dns) {
      std::printf("permitted    : %s\n", permitted.c_str());
    }
    for (const auto& excluded : cert.name_constraints()->excluded_dns) {
      std::printf("excluded     : %s\n", excluded.c_str());
    }
  }
  if (cert.is_ev()) std::printf("EV policy    : yes\n");
}

// Fetches the value following `flag`, or `fallback`.
std::string flag_value(int argc, char** argv, const std::string& flag,
                       const std::string& fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (argv[i] == flag) return argv[i + 1];
  }
  return fallback;
}

int cmd_inspect(int argc, char** argv) {
  if (argc < 1) return usage();
  auto chain = read_chain(argv[0]);
  if (!chain) {
    std::fprintf(stderr, "error: %s\n", chain.error().c_str());
    return 1;
  }
  for (std::size_t i = 0; i < chain.value().size(); ++i) {
    if (i > 0) std::printf("\n--- certificate %zu ---\n", i);
    print_certificate(*chain.value()[i]);
  }
  return 0;
}

int cmd_chain_facts(int argc, char** argv) {
  if (argc < 1) return usage();
  auto chain = read_chain(argv[0]);
  if (!chain) {
    std::fprintf(stderr, "error: %s\n", chain.error().c_str());
    return 1;
  }
  core::FactSet facts;
  core::encode_chain(chain.value(), core::chain_id_of(chain.value()), facts);
  for (const core::Fact& fact : facts.facts) {
    std::printf("%s(", fact.predicate.c_str());
    for (std::size_t i = 0; i < fact.args.size(); ++i) {
      if (i > 0) std::printf(", ");
      std::printf("%s", fact.args[i].to_string().c_str());
    }
    std::printf(").\n");
  }
  std::fprintf(stderr, "%zu facts\n", facts.size());
  return 0;
}

int cmd_gcc_check(int argc, char** argv) {
  if (argc < 2) return usage();
  auto source = read_file(argv[0]);
  if (!source) {
    std::fprintf(stderr, "error: %s\n", source.error().c_str());
    return 1;
  }
  auto roots = read_chain(argv[1]);
  if (!roots) {
    std::fprintf(stderr, "error: %s\n", roots.error().c_str());
    return 1;
  }
  auto gcc = core::Gcc::for_certificate("cli-check", *roots.value()[0],
                                        source.value());
  if (!gcc) {
    std::fprintf(stderr, "INVALID: %s\n", gcc.error().c_str());
    return 1;
  }
  std::printf("OK: %zu clauses, binds to root %s\n",
              gcc.value().program().clauses.size(),
              gcc.value().root_hash_hex().substr(0, 16).c_str());
  return 0;
}

int cmd_gcc_eval(int argc, char** argv) {
  if (argc < 2) return usage();
  auto source = read_file(argv[0]);
  auto chain = read_chain(argv[1]);
  if (!source || !chain) {
    std::fprintf(stderr, "error: %s\n",
                 (!source ? source.error() : chain.error()).c_str());
    return 1;
  }
  std::string usage_name = flag_value(argc, argv, "--usage", "TLS");
  auto gcc = core::Gcc::for_certificate("cli-eval", *chain.value().back(),
                                        source.value());
  if (!gcc) {
    std::fprintf(stderr, "error: %s\n", gcc.error().c_str());
    return 1;
  }
  core::GccExecutor executor;
  core::GccVerdict verdict;
  bool ok =
      executor.evaluate_one(chain.value(), usage_name, gcc.value(), &verdict);
  std::printf("%s (usage %s, %zu facts, %llu tuples derived)\n",
              ok ? "VALID" : "INVALID", usage_name.c_str(),
              verdict.facts_encoded,
              static_cast<unsigned long long>(verdict.stats.derived_tuples));
  if (verdict.stats.type_errors > 0) {
    std::printf("warning: %llu type error(s) — mixed-type ordered comparison "
                "or non-integer arithmetic; affected literals failed\n",
                static_cast<unsigned long long>(verdict.stats.type_errors));
  }
  if (verdict.stats.truncated) {
    std::printf("warning: evaluation truncated (resource limits); verdict "
                "fails closed\n");
  }
  if (verdict.stats.errored) {
    std::printf("warning: evaluation errored (incomplete model); verdict "
                "fails closed\n");
  }
  return ok ? 0 : 1;
}

int cmd_datalog(int argc, char** argv) {
  if (argc < 1) return usage();
  auto source = read_file(argv[0]);
  if (!source) {
    std::fprintf(stderr, "error: %s\n", source.error().c_str());
    return 1;
  }
  std::string query = flag_value(argc, argv, "--query", "");
  if (query.empty()) {
    std::fprintf(stderr, "error: --query required\n");
    return 2;
  }
  datalog::Engine engine;
  if (Status s = engine.load(source.value()); !s) {
    std::fprintf(stderr, "error: %s\n", s.error().c_str());
    return 1;
  }
  auto result = engine.query(query);
  if (!result) {
    std::fprintf(stderr, "error: %s\n", result.error().c_str());
    return 1;
  }
  if (result.value().bindings.empty()) {
    std::printf("no.\n");
    return 1;
  }
  for (const auto& binding : result.value().bindings) {
    if (binding.empty()) {
      std::printf("yes.\n");
      continue;
    }
    bool first = true;
    for (const auto& [var, value] : binding) {
      std::printf("%s%s = %s", first ? "" : ", ", var.c_str(),
                  value.to_string().c_str());
      first = false;
    }
    std::printf("\n");
  }
  return 0;
}

Result<rootstore::RootStore> load_store(const std::string& path) {
  auto text = read_file(path);
  if (!text) return err(text.error());
  return rootstore::RootStore::deserialize(text.value());
}

int cmd_store_dump(int argc, char** argv) {
  if (argc < 1) return usage();
  auto store = load_store(argv[0]);
  if (!store) {
    std::fprintf(stderr, "error: %s\n", store.error().c_str());
    return 1;
  }
  std::printf("trusted    : %zu\n", store.value().trusted_count());
  std::printf("distrusted : %zu\n", store.value().distrusted_count());
  std::printf("gccs       : %zu (on %zu roots)\n", store.value().gccs().total(),
              store.value().gccs().constrained_roots());
  for (const rootstore::RootEntry* entry : store.value().trusted()) {
    const auto& gccs =
        store.value().gccs().for_root(entry->cert->fingerprint());
    std::printf("  + %-40s %s%s%s\n",
                entry->cert->subject().common_name().c_str(),
                entry->metadata.ev_allowed ? "[EV] " : "",
                entry->metadata.tls_distrust_after ? "[tls-cutoff] " : "",
                gccs.empty() ? "" : "[GCC]");
  }
  for (const auto& [hash, justification] : store.value().distrusted()) {
    std::printf("  - %s  (%s)\n", to_hex(BytesView(hash)).substr(0, 16).c_str(),
                justification.c_str());
  }
  return 0;
}

int cmd_store_hash(int argc, char** argv) {
  if (argc < 1) return usage();
  auto store = load_store(argv[0]);
  if (!store) {
    std::fprintf(stderr, "error: %s\n", store.error().c_str());
    return 1;
  }
  std::printf("%s\n", store.value().content_hash_hex().c_str());
  return 0;
}

int cmd_store_diff(int argc, char** argv) {
  if (argc < 2) return usage();
  auto old_store = load_store(argv[0]);
  auto new_store = load_store(argv[1]);
  if (!old_store || !new_store) {
    std::fprintf(stderr, "error: %s\n",
                 (!old_store ? old_store.error() : new_store.error()).c_str());
    return 1;
  }
  rsf::StoreDelta delta =
      rsf::StoreDelta::diff(old_store.value(), new_store.value());
  std::fputs(delta.serialize().c_str(), stdout);
  std::fprintf(stderr, "%zu operations\n", delta.operations());
  return 0;
}

// Loads the revocation sources named by --crlset / --onecrl / --crlite
// into `out` as unified Provider handles. Absent flags are skipped; an
// unreadable or unparseable file is reported and fails the command.
bool load_revocation_flags(
    int argc, char** argv,
    std::vector<std::shared_ptr<const revocation::Provider>>& out) {
  const auto load = [&](const char* flag,
                        auto deserialize) -> bool {
    const std::string path = flag_value(argc, argv, flag, "");
    if (path.empty()) return true;
    auto text = read_file(path);
    if (!text) {
      std::fprintf(stderr, "error: %s\n", text.error().c_str());
      return false;
    }
    auto parsed = deserialize(text.value());
    if (!parsed) {
      std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                   parsed.error().c_str());
      return false;
    }
    using Parsed = std::decay_t<decltype(parsed.value())>;
    out.push_back(std::make_shared<Parsed>(std::move(parsed).take()));
    return true;
  };
  return load("--crlset",
              [](std::string_view t) { return revocation::CrlSet::deserialize(t); }) &&
         load("--onecrl",
              [](std::string_view t) { return revocation::OneCrl::deserialize(t); }) &&
         load("--crlite", [](std::string_view t) {
           return revocation::CompressedRevocationSet::deserialize(t);
         });
}

int cmd_verify(int argc, char** argv) {
  if (argc < 2) return usage();
  auto store = load_store(argv[0]);
  auto chain = read_chain(argv[1]);
  if (!store || !chain) {
    std::fprintf(stderr, "error: %s\n",
                 (!store ? store.error() : chain.error()).c_str());
    return 1;
  }
  chain::VerifyOptions options;
  options.hostname = flag_value(argc, argv, "--host", "");
  options.usage = flag_value(argc, argv, "--usage", "TLS") == "S/MIME"
                      ? chain::Usage::kSmime
                      : chain::Usage::kTls;
  std::string time_text = flag_value(argc, argv, "--time", "");
  if (time_text.empty() || !parse_iso8601(time_text, options.time)) {
    std::fprintf(stderr, "error: --time <YYYY-MM-DDTHH:MM:SSZ> required\n");
    return 2;
  }
  options.check_signatures = false;  // PEMs carry no SimSig secrets

  auto pool = std::make_shared<chain::CertificatePool>();
  for (std::size_t i = 1; i < chain.value().size(); ++i) {
    pool->add(chain.value()[i]);
  }
  SimSig no_keys;
  chain::ChainVerifier verifier(store.value(), no_keys);
  std::vector<std::shared_ptr<const revocation::Provider>> sources;
  if (!load_revocation_flags(argc, argv, sources)) return 1;
  for (const auto& source : sources) verifier.add_revocation_source(source);
  chain::VerifyResult result =
      verifier.verify(chain.value()[0], *pool, options);
  if (result.ok) {
    std::printf("VALID: chain of %zu to root '%s'\n", result.chain.size(),
                result.chain.back()->subject().common_name().c_str());
    return 0;
  }
  std::printf("INVALID (%s): %s\n", chain::to_string(result.kind),
              result.error.c_str());
  for (const auto& rejected : result.rejected_paths) {
    std::printf("  tried [%s]: %s\n", chain::to_string(rejected.kind),
                chain::to_string(rejected).c_str());
  }
  // Scripts branch on the taxonomy, not on scraping the message.
  return chain::exit_code(result.kind);
}

// Runs the chain through a VerifyService --repeat times (async, so the
// worker pool and both caches are exercised) and prints the Stats
// snapshot. The second and later repeats should be verdict-cache hits;
// a hit rate far below (repeat-1)/repeat means the cache is misbehaving.
int cmd_serve_stats(int argc, char** argv) {
  if (argc < 2) return usage();
  auto store = load_store(argv[0]);
  auto chain = read_chain(argv[1]);
  if (!store || !chain) {
    std::fprintf(stderr, "error: %s\n",
                 (!store ? store.error() : chain.error()).c_str());
    return 1;
  }
  chain::VerifyOptions options;
  options.hostname = flag_value(argc, argv, "--host", "");
  options.usage = flag_value(argc, argv, "--usage", "TLS") == "S/MIME"
                      ? chain::Usage::kSmime
                      : chain::Usage::kTls;
  std::string time_text = flag_value(argc, argv, "--time", "");
  if (time_text.empty() || !parse_iso8601(time_text, options.time)) {
    std::fprintf(stderr, "error: --time <YYYY-MM-DDTHH:MM:SSZ> required\n");
    return 2;
  }
  options.check_signatures = false;  // PEMs carry no SimSig secrets
  const unsigned long repeat =
      std::strtoul(flag_value(argc, argv, "--repeat", "16").c_str(), nullptr,
                   10);
  chain::ServiceConfig config;
  config.threads = std::strtoul(
      flag_value(argc, argv, "--threads", "4").c_str(), nullptr, 10);

  auto pool = std::make_shared<chain::CertificatePool>();
  for (std::size_t i = 1; i < chain.value().size(); ++i) {
    pool->add(chain.value()[i]);
  }
  SimSig no_keys;
  chain::VerifyService service(store.value(), no_keys, config);
  std::vector<std::future<chain::VerifyResult>> pending;
  pending.reserve(repeat);
  for (unsigned long i = 0; i < repeat; ++i) {
    pending.push_back(service.submit(chain.value()[0], pool, options));
  }
  bool ok = true;
  std::string error;
  for (auto& future : pending) {
    chain::VerifyResult result = future.get();
    if (!result.ok && ok) {
      ok = false;
      error = result.error;
    }
  }

  const chain::ServiceStats stats = service.stats();
  const double lookups =
      static_cast<double>(stats.verdict_hits + stats.verdict_misses);
  std::printf("verdict        : %s%s%s\n", ok ? "VALID" : "INVALID",
              ok ? "" : " — ", ok ? "" : error.c_str());
  std::printf("calls          : %llu (repeat=%lu, threads=%zu)\n",
              static_cast<unsigned long long>(stats.calls), repeat,
              config.threads);
  std::printf("verdict cache  : %llu hits / %llu misses (hit rate %.3f)\n",
              static_cast<unsigned long long>(stats.verdict_hits),
              static_cast<unsigned long long>(stats.verdict_misses),
              lookups > 0 ? static_cast<double>(stats.verdict_hits) / lookups
                          : 0.0);
  std::printf("cert cache     : %llu hits / %llu misses\n",
              static_cast<unsigned long long>(stats.cert_hits),
              static_cast<unsigned long long>(stats.cert_misses));
  std::printf("evictions      : %llu\n",
              static_cast<unsigned long long>(stats.evictions));
  std::printf("epoch flushes  : %llu (stale purged %llu)\n",
              static_cast<unsigned long long>(stats.epoch_flushes),
              static_cast<unsigned long long>(stats.stale_purged));
  std::printf("store epoch    : %llu\n",
              static_cast<unsigned long long>(stats.epoch));
  std::printf("queue depth    : %zu\n", stats.queue_depth);
  if (stats.calls > 0) {
    std::printf("mean call time : %llu ns\n",
                static_cast<unsigned long long>(stats.total_ns / stats.calls));
  }
  return ok ? 0 : 1;
}

// --- file-based feeds --------------------------------------------------------

Result<std::string> feed_name_of(const std::string& dir) {
  auto name = read_file(dir + "/feed.name");
  if (!name) return err(name.error());
  return std::string(trim(name.value()));
}

std::string snapshot_path(const std::string& dir, std::uint64_t sequence) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04llu",
                static_cast<unsigned long long>(sequence));
  return dir + "/snapshot-" + buf + ".txt";
}

std::string serialize_snapshot(const rsf::Snapshot& snap) {
  std::string out = "anchor-rsf-file/v1\n";
  out += "seq " + std::to_string(snap.sequence) + "\n";
  out += "time " + std::to_string(snap.published_at) + "\n";
  out += "prev " + (snap.prev_hash.empty() ? "-" : snap.prev_hash) + "\n";
  out += "payload-hash " + snap.payload_hash + "\n";
  out += "annotation-b64 " +
         base64_encode(BytesView(to_bytes(snap.annotation))) + "\n";
  out += "signature-hex " + to_hex(BytesView(snap.signature)) + "\n";
  out += "payload:\n";
  out += snap.payload;
  return out;
}

Result<rsf::Snapshot> parse_snapshot(const std::string& text) {
  rsf::Snapshot snap;
  std::size_t pos = 0;
  auto next_line = [&]() -> std::string {
    std::size_t end = text.find('\n', pos);
    std::string line = text.substr(pos, end - pos);
    pos = end == std::string::npos ? text.size() : end + 1;
    return line;
  };
  if (next_line() != "anchor-rsf-file/v1") return err("feed: bad header");
  auto field = [&](const std::string& key) -> Result<std::string> {
    std::string line = next_line();
    if (!starts_with(line, key + " ")) return err("feed: expected " + key);
    return line.substr(key.size() + 1);
  };
  auto seq = field("seq");
  if (!seq) return err(seq.error());
  snap.sequence = std::strtoull(seq.value().c_str(), nullptr, 10);
  auto time_field = field("time");
  if (!time_field) return err(time_field.error());
  snap.published_at = std::strtoll(time_field.value().c_str(), nullptr, 10);
  auto prev = field("prev");
  if (!prev) return err(prev.error());
  snap.prev_hash = prev.value() == "-" ? "" : prev.value();
  auto payload_hash = field("payload-hash");
  if (!payload_hash) return err(payload_hash.error());
  snap.payload_hash = payload_hash.value();
  auto annotation = field("annotation-b64");
  if (!annotation) return err(annotation.error());
  Bytes decoded;
  if (!base64_decode(annotation.value(), decoded)) {
    return err("feed: bad annotation");
  }
  snap.annotation = to_string(BytesView(decoded));
  auto signature = field("signature-hex");
  if (!signature) return err(signature.error());
  if (!from_hex(signature.value(), snap.signature)) {
    return err("feed: bad signature hex");
  }
  if (next_line() != "payload:") return err("feed: missing payload marker");
  snap.payload = text.substr(pos);
  return snap;
}

Result<std::vector<rsf::Snapshot>> load_feed(const std::string& dir) {
  std::vector<rsf::Snapshot> run;
  for (std::uint64_t seq = 1;; ++seq) {
    auto text = read_file(snapshot_path(dir, seq));
    if (!text) break;
    auto snap = parse_snapshot(text.value());
    if (!snap) return err(snapshot_path(dir, seq) + ": " + snap.error());
    if (snap.value().sequence != seq) return err("feed: sequence mismatch");
    run.push_back(std::move(snap).take());
  }
  return run;
}

int cmd_feed_publish(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string dir = argv[0];
  auto store = load_store(argv[1]);
  if (!store) {
    std::fprintf(stderr, "error: %s\n", store.error().c_str());
    return 1;
  }
  std::string time_text = flag_value(argc, argv, "--time", "");
  std::int64_t published_at = 0;
  if (time_text.empty() || !parse_iso8601(time_text, published_at)) {
    std::fprintf(stderr, "error: --time <YYYY-MM-DDTHH:MM:SSZ> required\n");
    return 2;
  }
  auto name = feed_name_of(dir);
  if (!name) {
    std::fprintf(stderr, "error: %s (create <dir>/feed.name first)\n",
                 name.error().c_str());
    return 1;
  }
  auto existing = load_feed(dir);
  if (!existing) {
    std::fprintf(stderr, "error: %s\n", existing.error().c_str());
    return 1;
  }

  rsf::Snapshot snap;
  snap.sequence = existing.value().size() + 1;
  snap.published_at = published_at;
  snap.annotation = flag_value(argc, argv, "--note", "");
  snap.payload = store.value().serialize();
  snap.payload_hash = Sha256::hash_hex(BytesView(to_bytes(snap.payload)));
  snap.prev_hash =
      existing.value().empty() ? "" : existing.value().back().payload_hash;
  SimKeyPair key = SimSig::keygen("rsf-feed-" + name.value());
  snap.signature = SimSig::sign(key, BytesView(snap.transcript()));

  std::ofstream out(snapshot_path(dir, snap.sequence), std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "error: cannot write snapshot\n");
    return 1;
  }
  out << serialize_snapshot(snap);
  std::printf("published snapshot %llu to %s\n",
              static_cast<unsigned long long>(snap.sequence),
              snapshot_path(dir, snap.sequence).c_str());
  return 0;
}

int cmd_feed_verify(int argc, char** argv) {
  if (argc < 1) return usage();
  std::string dir = argv[0];
  auto name = feed_name_of(dir);
  if (!name) {
    std::fprintf(stderr, "error: %s\n", name.error().c_str());
    return 1;
  }
  auto run = load_feed(dir);
  if (!run) {
    std::fprintf(stderr, "error: %s\n", run.error().c_str());
    return 1;
  }
  if (run.value().empty()) {
    std::printf("empty feed\n");
    return 0;
  }
  SimSig registry;
  SimKeyPair key = SimSig::keygen("rsf-feed-" + name.value());
  registry.register_key(key);
  Status status = rsf::Feed::verify_run(run.value(), "", BytesView(key.key_id),
                                        registry);
  if (!status.ok()) {
    std::printf("FEED INVALID: %s\n", status.error().c_str());
    return 1;
  }
  std::printf("feed OK: %zu snapshot(s), head seq %llu, head hash %s\n",
              run.value().size(),
              static_cast<unsigned long long>(run.value().back().sequence),
              run.value().back().payload_hash.substr(0, 16).c_str());
  return 0;
}

int cmd_feed_apply(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string dir = argv[0];
  auto name = feed_name_of(dir);
  if (!name) {
    std::fprintf(stderr, "error: %s\n", name.error().c_str());
    return 1;
  }
  auto run = load_feed(dir);
  if (!run || run.value().empty()) {
    std::fprintf(stderr, "error: %s\n",
                 run.ok() ? "empty feed" : run.error().c_str());
    return 1;
  }
  SimSig registry;
  SimKeyPair key = SimSig::keygen("rsf-feed-" + name.value());
  registry.register_key(key);
  if (Status s = rsf::Feed::verify_run(run.value(), "", BytesView(key.key_id),
                                       registry);
      !s.ok()) {
    std::fprintf(stderr, "refusing to apply: %s\n", s.error().c_str());
    return 1;
  }
  // Payload integrity is covered by verify_run; parse to confirm shape.
  auto parsed = rootstore::RootStore::deserialize(run.value().back().payload);
  if (!parsed) {
    std::fprintf(stderr, "error: %s\n", parsed.error().c_str());
    return 1;
  }
  std::ofstream out(argv[1], std::ios::binary);
  out << run.value().back().payload;
  std::printf("applied snapshot %llu: %zu trusted, %zu distrusted, %zu gccs "
              "-> %s\n",
              static_cast<unsigned long long>(run.value().back().sequence),
              parsed.value().trusted_count(), parsed.value().distrusted_count(),
              parsed.value().gccs().total(), argv[1]);
  return 0;
}

// Reports what a polling RsfClient would see: head, integrity (with the
// fault classified the way ClientStats::transport_errors buckets it), how
// stale the head is relative to --now, and the resulting health state.
int cmd_feed_status(int argc, char** argv) {
  if (argc < 1) return usage();
  std::string dir = argv[0];
  auto name = feed_name_of(dir);
  if (!name) {
    std::fprintf(stderr, "error: %s\n", name.error().c_str());
    return 1;
  }
  auto run = load_feed(dir);
  if (!run) {
    std::fprintf(stderr, "error: %s\n", run.error().c_str());
    return 1;
  }
  std::printf("feed           : %s\n", name.value().c_str());
  std::printf("snapshots      : %zu\n", run.value().size());
  if (run.value().empty()) {
    std::printf("health         : stale (feed is empty)\n");
    return 1;
  }

  std::string now_text = flag_value(argc, argv, "--now", "");
  std::int64_t now = 0;
  if (now_text.empty() || !parse_iso8601(now_text, now)) {
    std::fprintf(stderr, "error: --now <YYYY-MM-DDTHH:MM:SSZ> required\n");
    return 2;
  }
  const std::int64_t stale_after = std::strtoll(
      flag_value(argc, argv, "--stale-after", "86400").c_str(), nullptr, 10);

  const rsf::Snapshot& head = run.value().back();
  std::printf("head sequence  : %llu\n",
              static_cast<unsigned long long>(head.sequence));
  std::printf("head published : %s\n",
              format_iso8601(head.published_at).c_str());

  SimSig registry;
  SimKeyPair key = SimSig::keygen("rsf-feed-" + name.value());
  registry.register_key(key);
  rsf::Feed::RunFault fault = rsf::Feed::RunFault::kNone;
  Status integrity = rsf::Feed::verify_run(run.value(), "",
                                           BytesView(key.key_id), registry,
                                           &fault);
  if (integrity.ok()) {
    std::printf("integrity      : OK (signatures + hash chain)\n");
  } else {
    std::printf("integrity      : FAILED — %s\n", integrity.error().c_str());
  }

  const std::int64_t staleness = now > head.published_at
                                     ? now - head.published_at
                                     : 0;
  std::printf("seconds stale  : %lld (%.1f h)\n",
              static_cast<long long>(staleness), staleness / 3600.0);

  // The classification a polling client serving this feed would report: a
  // broken feed means the client is refusing updates (degraded, and stale
  // once the last good snapshot ages past the threshold).
  rsf::ClientHealth health = rsf::ClientHealth::kHealthy;
  if (staleness >= stale_after) {
    health = rsf::ClientHealth::kStale;
  } else if (!integrity.ok()) {
    health = rsf::ClientHealth::kDegraded;
  }
  std::printf("health         : %s\n", rsf::to_string(health));
  return integrity.ok() && health != rsf::ClientHealth::kStale ? 0 : 1;
}

// Speaks the authenticated feed-fetch verb to an in-process anchord that
// re-serves the feed directory: load + restore the run into an rsf::Feed,
// stand up a daemon on a memory or socketpair conduit, issue one wire
// feed-fetch from the poller's pinned size, then verify everything the
// frame carried — tree-head signature, consistency proof against the
// locally rebuilt tree, inclusion proof for the served head — exactly as
// a downstream RsfClient would before adopting.
int cmd_feed_fetch(int argc, char** argv) {
  if (argc < 1) return usage();
  std::string dir = argv[0];
  auto name = feed_name_of(dir);
  if (!name) {
    std::fprintf(stderr, "error: %s\n", name.error().c_str());
    return 1;
  }
  auto run = load_feed(dir);
  if (!run) {
    std::fprintf(stderr, "error: %s\n", run.error().c_str());
    return 1;
  }
  if (run.value().empty()) {
    std::fprintf(stderr, "error: feed is empty\n");
    return 1;
  }
  const std::uint64_t from = std::strtoull(
      flag_value(argc, argv, "--from", "0").c_str(), nullptr, 10);

  SimSig sig_registry;
  rsf::Feed feed(name.value(), sig_registry);
  if (Status restored = feed.restore(std::move(run).take()); !restored.ok()) {
    std::fprintf(stderr, "error: %s\n", restored.error().c_str());
    return 1;
  }

  // Minimal daemon: an empty store satisfies the dispatcher's service
  // requirement; only the feed-fetch verb is exercised here.
  rootstore::RootStore empty_store;
  SimSig no_keys;
  metrics::Registry registry;
  chain::VerifyService service(empty_store, no_keys, {}, registry);
  anchord::VerbDispatcher::Backends backends;
  backends.service = &service;
  backends.store = &empty_store;
  backends.feed_source = &feed;
  backends.registry = &registry;
  anchord::AnchordServer server(backends, {}, registry);

  const std::string transport =
      flag_value(argc, argv, "--transport", "memory");
  auto pair = transport == "unix" ? anchord::make_socketpair_conduit()
                                  : anchord::make_memory_conduit();
  if (!pair.ok()) {
    std::fprintf(stderr, "error: %s\n", pair.error().c_str());
    return 1;
  }
  anchord::ConduitPair conduits = std::move(pair).take();
  std::thread serve([&] { server.serve(*conduits.second); });
  int code = 0;
  {
    anchord::AnchordClient client(*conduits.first);
    anchord::WireFeedTransport wire(client, name.value());
    rsf::FeedFetchQuery query;
    query.from_size = from;
    auto fetched = wire.feed_fetch(query);
    if (!fetched.ok()) {
      std::fprintf(stderr, "error: %s\n", fetched.error().c_str());
      code = 1;
    } else {
      const rsf::FeedFetch& ff = fetched.value();
      std::printf("feed            : %s\n", name.value().c_str());
      std::printf("tree size       : %llu\n",
                  static_cast<unsigned long long>(ff.sth.tree_size));
      std::printf("root hash       : %s\n",
                  to_hex(BytesView(ff.sth.root_hash.data(),
                                   ff.sth.root_hash.size()))
                      .c_str());
      std::printf("published       : %s\n",
                  format_iso8601(ff.sth.published_at).c_str());
      const bool sth_ok = sig_registry.verify(
          BytesView(feed.key_id()), BytesView(ff.sth.transcript()),
          BytesView(ff.sth.signature));
      std::printf("head signature  : %s\n", sth_ok ? "OK" : "FAILED");

      bool proofs_ok = sth_ok;
      if (from > 0) {
        // The poller's side of the exchange: its pinned root comes from
        // its own history; here the locally rebuilt tree stands in.
        ctlog::MerkleTree local;
        for (std::uint64_t seq = 1; seq <= from; ++seq) {
          const rsf::Snapshot* snap = feed.at(seq);
          if (snap == nullptr) break;
          local.append(BytesView(snap->transcript()));
        }
        const bool consistent =
            local.size() == from &&
            ctlog::verify_consistency(from, ff.sth.tree_size, local.root(),
                                      ff.sth.root_hash, ff.consistency);
        std::printf("consistency     : %s (%zu node(s), from size %llu)\n",
                    consistent ? "OK" : "FAILED", ff.consistency.size(),
                    static_cast<unsigned long long>(from));
        proofs_ok = proofs_ok && consistent;
      }
      if (!ff.snapshots.empty()) {
        const rsf::Snapshot& served_head = ff.snapshots.back();
        const bool included = ctlog::verify_inclusion(
            ctlog::leaf_hash(BytesView(served_head.transcript())),
            served_head.sequence - 1, ff.sth.tree_size, ff.inclusion,
            ff.sth.root_hash);
        std::printf("inclusion       : %s (head seq %llu, %zu node(s))\n",
                    included ? "OK" : "FAILED",
                    static_cast<unsigned long long>(served_head.sequence),
                    ff.inclusion.size());
        proofs_ok = proofs_ok && included;
        std::printf("snapshots       : %zu (seq %llu..%llu)\n",
                    ff.snapshots.size(),
                    static_cast<unsigned long long>(
                        ff.snapshots.front().sequence),
                    static_cast<unsigned long long>(served_head.sequence));
      } else {
        std::printf("snapshots       : 0 (poller is current)\n");
      }
      std::printf("wire bytes      : %zu (headers only: %zu)\n",
                  ff.wire_size(true), ff.wire_size(false));
      code = proofs_ok ? 0 : 1;
    }
  }
  conduits.first->close();
  serve.join();
  return code;
}

void print_snapshot_info(const rootstore::snapshot::StoreView& view) {
  const rootstore::snapshot::StoreView::Info& info = view.info();
  std::printf("format version : %u\n", info.format_version);
  std::printf("source         : %s\n", info.source.c_str());
  std::printf("file size      : %llu bytes\n",
              static_cast<unsigned long long>(info.file_size));
  std::printf("epoch          : %llu\n",
              static_cast<unsigned long long>(info.epoch));
  std::printf("trusted        : %u\n", info.trusted_count);
  std::printf("distrusted     : %u\n", info.distrusted_count);
  std::printf("gccs           : %u\n", info.gcc_count);
  std::printf("revocation     : %u filter(s)\n", info.revocation_count);
  std::printf("digest         : %s\n", info.digest_hex.c_str());
}

// Text store -> flat snapshot image on disk, then re-open the written file
// through the real mmap reader so "wrote OK" means "a daemon can serve
// this" — a write that cannot be read back fails here, not at warm start.
int cmd_snapshot_write(int argc, char** argv) {
  if (argc < 2) return usage();
  auto store = load_store(argv[0]);
  if (!store) {
    std::fprintf(stderr, "error: %s\n", store.error().c_str());
    return 1;
  }
  if (Status s = rootstore::snapshot::write_snapshot_file(store.value(),
                                                          argv[1]);
      !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.error().c_str());
    return 1;
  }
  auto opened = rootstore::snapshot::StoreView::open(argv[1]);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: written image failed to re-open: %s\n",
                 opened.error.to_string().c_str());
    return 1;
  }
  std::printf("wrote          : %s\n", argv[1]);
  print_snapshot_info(*opened.view);
  return 0;
}

int cmd_snapshot_info(int argc, char** argv) {
  if (argc < 1) return usage();
  auto opened = rootstore::snapshot::StoreView::open(argv[0]);
  if (!opened.ok()) {
    std::printf("REJECTED: %s\n", opened.error.to_string().c_str());
    return 1;
  }
  print_snapshot_info(*opened.view);
  return 0;
}

void print_crlite_info(const revocation::CompressedRevocationSet& filter) {
  std::printf("levels         : %zu\n", filter.level_count());
  std::printf("enrolled CAs   : %zu\n", filter.enrolled_count());
  std::printf("filter bytes   : %zu\n", filter.filter_bytes());
  std::printf("total bytes    : %zu\n", filter.size_bytes());
}

// Builds a filter cascade from a plain-text spec: one directive per line,
// `enroll <spki-hex>`, `revoked <spki-hex> <serial-hex>`, or
// `valid <spki-hex> <serial-hex>`; '#' starts a comment.
int cmd_crlite_build(int argc, char** argv) {
  if (argc < 2) return usage();
  auto text = read_file(argv[0]);
  if (!text) {
    std::fprintf(stderr, "error: %s\n", text.error().c_str());
    return 1;
  }
  revocation::CompressedRevocationSet::Builder builder;
  std::size_t line_no = 0;
  for (const std::string& raw : split(text.value(), '\n')) {
    ++line_no;
    const std::string line = std::string(trim(raw));
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> parts = split(line, ' ');
    const auto bad = [&](const char* why) {
      std::fprintf(stderr, "error: %s:%zu: %s\n", argv[0], line_no, why);
      return 1;
    };
    Bytes spki;
    if (parts.size() >= 2 && !from_hex(parts[1], spki)) {
      return bad("malformed spki hex");
    }
    if (parts[0] == "enroll" && parts.size() == 2) {
      builder.enroll(BytesView(spki));
      continue;
    }
    Bytes serial;
    if (parts.size() == 3 && !from_hex(parts[2], serial)) {
      return bad("malformed serial hex");
    }
    if (parts[0] == "revoked" && parts.size() == 3) {
      builder.add_revoked(BytesView(spki), BytesView(serial));
    } else if (parts[0] == "valid" && parts.size() == 3) {
      builder.add_valid(BytesView(spki), BytesView(serial));
    } else {
      return bad("expected enroll/revoked/valid directive");
    }
  }
  auto built = builder.build();
  if (!built) {
    std::fprintf(stderr, "error: %s\n", built.error().c_str());
    return 1;
  }
  std::ofstream out(argv[1], std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", argv[1]);
    return 1;
  }
  out << built.value().serialize();
  out.close();
  std::printf("wrote          : %s\n", argv[1]);
  print_crlite_info(built.value());
  return 0;
}

int cmd_crlite_info(int argc, char** argv) {
  if (argc < 1) return usage();
  auto text = read_file(argv[0]);
  if (!text) {
    std::fprintf(stderr, "error: %s\n", text.error().c_str());
    return 1;
  }
  auto filter = revocation::CompressedRevocationSet::deserialize(text.value());
  if (!filter) {
    std::printf("REJECTED: %s\n", filter.error().c_str());
    return 1;
  }
  print_crlite_info(filter.value());
  return 0;
}

// Builds the wire request for `verb` against a PEM chain (leaf first).
// check_signatures stays off: PEMs carry no SimSig secrets (DESIGN.md §5).
anchord::Request wire_request(anchord::Verb verb,
                              const std::vector<x509::CertPtr>& chain,
                              const chain::VerifyOptions& options) {
  anchord::Request request;
  request.verb = verb;
  request.usage = chain::usage_name(options.usage);
  request.time = options.time;
  request.hostname = options.hostname;
  request.max_depth = static_cast<std::uint32_t>(options.max_depth);
  request.check_signatures = false;
  if (!chain.empty()) {
    request.leaf_der = chain.front()->der();
    for (std::size_t i = 1; i < chain.size(); ++i) {
      request.intermediates_der.push_back(chain[i]->der());
    }
  }
  return request;
}

// anchorctl as a wire client: one request/response round trip through a
// real AnchordServer session — framed codec, correlation ids, the works —
// over an in-memory conduit or an AF_UNIX socketpair. The same four verbs
// a deployed daemon serves; exit code is the response's ErrorKind.
int cmd_daemon(int argc, char** argv) {
  // --snapshot as the first argument switches the store source from the
  // text grammar to an mmap'd snapshot image: the daemon's warm start
  // never parses PEM/text or recompiles a GCC.
  const bool from_snapshot =
      argc >= 1 && std::string_view(argv[0]) == "--snapshot";
  const int base = from_snapshot ? 1 : 0;
  if (argc < base + 2) return usage();

  rootstore::RootStore heap_store;  // snapshot mode leaves this empty
  std::shared_ptr<const rootstore::snapshot::StoreView> view;
  if (from_snapshot) {
    auto opened = rootstore::snapshot::StoreView::open(argv[base]);
    if (!opened.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", argv[base],
                   opened.error.to_string().c_str());
      return 1;
    }
    view = opened.view;
  } else {
    auto store = load_store(argv[base]);
    if (!store) {
      std::fprintf(stderr, "error: %s\n", store.error().c_str());
      return 1;
    }
    heap_store = std::move(store).take();
  }
  const std::string verb_name = argv[base + 1];
  anchord::Verb verb;
  if (verb_name == "verify") {
    verb = anchord::Verb::kVerify;
  } else if (verb_name == "evaluate-gccs") {
    verb = anchord::Verb::kEvaluateGccs;
  } else if (verb_name == "metrics") {
    verb = anchord::Verb::kMetrics;
  } else if (verb_name == "feed-status") {
    verb = anchord::Verb::kFeedStatus;
  } else {
    std::fprintf(stderr, "error: unknown daemon verb '%s'\n",
                 verb_name.c_str());
    return 2;
  }

  chain::VerifyOptions options;
  options.hostname = flag_value(argc, argv, "--host", "");
  options.usage = flag_value(argc, argv, "--usage", "TLS") == "S/MIME"
                      ? chain::Usage::kSmime
                      : chain::Usage::kTls;
  std::vector<x509::CertPtr> certs;
  const bool needs_chain =
      verb == anchord::Verb::kVerify || verb == anchord::Verb::kEvaluateGccs;
  if (needs_chain) {
    if (argc < base + 3) return usage();
    auto chain_file = read_chain(argv[base + 2]);
    if (!chain_file) {
      std::fprintf(stderr, "error: %s\n", chain_file.error().c_str());
      return 1;
    }
    certs = std::move(chain_file).take();
    std::string time_text = flag_value(argc, argv, "--time", "");
    if (time_text.empty() || !parse_iso8601(time_text, options.time)) {
      std::fprintf(stderr, "error: --time <YYYY-MM-DDTHH:MM:SSZ> required\n");
      return 2;
    }
  }

  SimSig no_keys;
  metrics::Registry registry;
  chain::VerifyService service(heap_store, no_keys, {}, registry);
  const rootstore::StoreReader* reader = &heap_store;
  if (view != nullptr) {
    service.adopt_view(view);  // O(1): swap onto the mapping, no deep copy
    reader = view.get();
  }
  std::vector<std::shared_ptr<const revocation::Provider>> sources;
  if (!load_revocation_flags(argc, argv, sources)) return 1;
  for (const auto& source : sources) service.add_revocation_source(source);
  anchord::VerbDispatcher::Backends backends;
  backends.service = &service;
  backends.store = reader;
  backends.registry = &registry;
  anchord::AnchordServer server(backends, {}, registry);

  const std::string transport =
      flag_value(argc, argv, "--transport", "memory");
  auto pair = transport == "unix" ? anchord::make_socketpair_conduit()
                                  : anchord::make_memory_conduit();
  if (!pair.ok()) {
    std::fprintf(stderr, "error: %s\n", pair.error().c_str());
    return 1;
  }
  anchord::ConduitPair conduits = std::move(pair).take();
  std::thread serve([&] { server.serve(*conduits.second); });
  int code;
  {
    anchord::AnchordClient client(*conduits.first);
    auto response = client.call(wire_request(verb, certs, options));
    if (!response.ok()) {
      std::fprintf(stderr, "error: %s\n", response.error().c_str());
      code = exit_code(chain::ErrorKind::kInternal);
    } else {
      const anchord::Response& r = response.value();
      if (verb == anchord::Verb::kMetrics ||
          verb == anchord::Verb::kFeedStatus) {
        std::printf("%s%s", r.detail.c_str(),
                    r.detail.empty() || r.detail.back() == '\n' ? "" : "\n");
      } else {
        std::printf("verdict : %s\n", r.ok ? "VALID" : "INVALID");
        std::printf("kind    : %s\n", chain::to_string(r.kind));
        if (!r.detail.empty()) std::printf("detail  : %s\n", r.detail.c_str());
        std::printf("chain   : %u certificate(s), %llu path(s) explored, "
                    "epoch %llu\n",
                    r.stats.chain_len,
                    static_cast<unsigned long long>(r.stats.paths_explored),
                    static_cast<unsigned long long>(r.stats.epoch));
      }
      code = exit_code(r.kind);
    }
  }
  conduits.first->close();
  serve.join();
  return code;
}

// Operator-facing scrape: drives real work — repeated verifications, and
// optionally one RSF poll against a feed directory — through the shared
// registry, then prints the exposition. The same counters the TrustDaemon
// `metrics` verb serves; EXPERIMENTS tables snapshot these series.
int cmd_metrics(int argc, char** argv) {
  if (argc < 2) return usage();
  auto store = load_store(argv[0]);
  auto chain = read_chain(argv[1]);
  if (!store || !chain) {
    std::fprintf(stderr, "error: %s\n",
                 (!store ? store.error() : chain.error()).c_str());
    return 1;
  }
  chain::VerifyOptions options;
  options.hostname = flag_value(argc, argv, "--host", "");
  options.usage = flag_value(argc, argv, "--usage", "TLS") == "S/MIME"
                      ? chain::Usage::kSmime
                      : chain::Usage::kTls;
  std::string time_text = flag_value(argc, argv, "--time", "");
  if (time_text.empty() || !parse_iso8601(time_text, options.time)) {
    std::fprintf(stderr, "error: --time <YYYY-MM-DDTHH:MM:SSZ> required\n");
    return 2;
  }
  options.check_signatures = false;  // PEMs carry no SimSig secrets
  const unsigned long repeat = std::strtoul(
      flag_value(argc, argv, "--repeat", "16").c_str(), nullptr, 10);
  chain::ServiceConfig config;
  config.threads = std::strtoul(
      flag_value(argc, argv, "--threads", "4").c_str(), nullptr, 10);

  auto pool = std::make_shared<chain::CertificatePool>();
  for (std::size_t i = 1; i < chain.value().size(); ++i) {
    pool->add(chain.value()[i]);
  }
  SimSig no_keys;
  chain::VerifyService service(store.value(), no_keys, config);
  std::vector<std::future<chain::VerifyResult>> pending;
  pending.reserve(repeat);
  for (unsigned long i = 0; i < repeat; ++i) {
    pending.push_back(service.submit(chain.value()[0], pool, options));
  }
  for (auto& future : pending) (void)future.get();

  // Same workload once more through an in-process anchord server, so the
  // exposition includes the daemon's own serving counters — queue depth,
  // in-flight gauge, per-verb requests, overloads/timeouts (zero here, but
  // present: an operator dashboard needs the series to exist before the
  // first incident).
  {
    anchord::VerbDispatcher::Backends backends;
    backends.service = &service;
    backends.store = &store.value();
    anchord::AnchordServer server(backends, {});
    auto pair = anchord::make_memory_conduit();
    if (!pair.ok()) {
      std::fprintf(stderr, "error: %s\n", pair.error().c_str());
      return 1;
    }
    anchord::ConduitPair conduits = std::move(pair).take();
    std::thread serve([&] { server.serve(*conduits.second); });
    {
      anchord::AnchordClient client(*conduits.first);
      anchord::Request request;
      request.usage = chain::usage_name(options.usage);
      request.time = options.time;
      request.hostname = options.hostname;
      request.check_signatures = false;
      request.leaf_der = chain.value()[0]->der();
      for (std::size_t i = 1; i < chain.value().size(); ++i) {
        request.intermediates_der.push_back(chain.value()[i]->der());
      }
      std::vector<std::uint64_t> ids;
      ids.reserve(repeat);
      for (unsigned long i = 0; i < repeat; ++i) {
        auto id = client.send(request);
        if (id.ok()) ids.push_back(id.value());
      }
      for (std::uint64_t id : ids) (void)client.receive(id);
    }
    conduits.first->close();
    serve.join();
  }

  std::string feed_dir = flag_value(argc, argv, "--feed", "");
  if (!feed_dir.empty()) {
    std::string now_text = flag_value(argc, argv, "--now", "");
    std::int64_t now = 0;
    if (now_text.empty() || !parse_iso8601(now_text, now)) {
      std::fprintf(stderr, "error: --feed requires --now <iso8601>\n");
      return 2;
    }
    auto name = feed_name_of(feed_dir);
    auto run = load_feed(feed_dir);
    if (!name || !run) {
      std::fprintf(stderr, "error: %s\n",
                   (!name ? name.error() : run.error()).c_str());
      return 1;
    }
    // A real RsfClient poll over the restored feed populates the same
    // anchor_rsf_* series a deployed client would.
    SimSig sig_registry;
    rsf::Feed feed(name.value(), sig_registry);
    if (Status restored = feed.restore(std::move(run).take()); !restored.ok()) {
      std::fprintf(stderr, "error: %s\n", restored.error().c_str());
      return 1;
    }
    rsf::RsfClient client(feed, /*poll_interval=*/3600);
    client.poll_now(now);
  }

  (void)service.stats();  // refreshes the queue-depth gauge
  const std::string exposition = metrics::Registry::global().expose();
  std::fwrite(exposition.data(), 1, exposition.size(), stdout);
  return 0;
}

// Chrome Root Store textproto -> native RootStore, through the same
// fail-closed parser + GCC compiler the library uses (rootstore/chromeproto
// + rootstore/constraint_compile). Anchors whose certificate appears in
// --roots (matched by SHA-256) become trusted roots; every anchor's GCCs
// attach by hash either way, so constraints are never dropped just because
// the certificate has not arrived yet.
int cmd_compile_store(int argc, char** argv) {
  if (argc < 1) return usage();
  auto text = read_file(argv[0]);
  if (!text) {
    std::fprintf(stderr, "error: %s\n", text.error().c_str());
    return 1;
  }

  rootstore::chromeproto::ParseResult parsed =
      rootstore::chromeproto::parse_store(text.value());
  if (!parsed.ok()) {
    std::fprintf(stderr, "REJECTED: %s\n", parsed.error.to_string().c_str());
    return 1;
  }
  const rootstore::chromeproto::StoreFile& file = *parsed.store;
  std::printf("parsed         : %zu trust anchor(s), %zu additional cert(s)"
              ", version_major %lld\n",
              file.trust_anchors.size(), file.additional_certs.size(),
              static_cast<long long>(file.version_major.value_or(0)));

  // Optional certificate material, matched to anchors by fingerprint.
  std::unordered_map<Sha256::Digest, x509::CertPtr, DigestHash> by_hash;
  std::string roots_path = flag_value(argc, argv, "--roots", "");
  if (!roots_path.empty()) {
    auto roots = read_chain(roots_path);
    if (!roots) {
      std::fprintf(stderr, "error: %s\n", roots.error().c_str());
      return 1;
    }
    for (const x509::CertPtr& cert : roots.value()) {
      by_hash.emplace(cert->fingerprint(), cert);
    }
  }

  rootstore::CompileOptions compile_options;
  compile_options.name_prefix = flag_value(argc, argv, "--prefix", "crs");
  rootstore::RootStore store;
  auto resolver = [&by_hash](const Sha256::Digest& sha256) -> x509::CertPtr {
    auto it = by_hash.find(sha256);
    return it == by_hash.end() ? nullptr : it->second;
  };
  auto compiled =
      rootstore::compile_store(file, resolver, store, compile_options);
  if (!compiled) {
    std::fprintf(stderr, "compile error: %s\n", compiled.error().c_str());
    return 1;
  }
  const rootstore::StoreCompileResult& result = compiled.value();
  std::printf("compiled       : %zu block(s) -> %zu gcc(s), %zu clause(s)\n",
              result.stats.blocks, result.stats.gccs, result.stats.clauses);
  std::printf("certificates   : %zu resolved, %zu constraint-only\n",
              result.anchors_with_cert, result.anchors_without_cert);
  for (std::size_t k = 0; k < rootstore::kConstraintKindCount; ++k) {
    if (result.stats.kind_counts[k] == 0) continue;
    std::printf("  %-28s %zu\n",
                rootstore::to_string(static_cast<rootstore::ConstraintKind>(k)),
                result.stats.kind_counts[k]);
  }
  for (const Sha256::Digest& root : store.gccs().roots_sorted()) {
    for (const core::Gcc& gcc : store.gccs().for_root(root)) {
      std::printf("  gcc %-44s -> root %s\n", gcc.name().c_str(),
                  gcc.root_hash_hex().substr(0, 16).c_str());
    }
  }

  std::string out_path = flag_value(argc, argv, "--out", "");
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << store.serialize();
    std::printf("wrote          : %s (%zu trusted, %zu gccs)\n",
                out_path.c_str(), store.trusted_count(), store.gccs().total());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string command = argv[1];
  int rest_argc = argc - 2;
  char** rest_argv = argv + 2;
  if (command == "inspect") return cmd_inspect(rest_argc, rest_argv);
  if (command == "chain-facts") return cmd_chain_facts(rest_argc, rest_argv);
  if (command == "gcc-check") return cmd_gcc_check(rest_argc, rest_argv);
  if (command == "gcc-eval") return cmd_gcc_eval(rest_argc, rest_argv);
  if (command == "datalog") return cmd_datalog(rest_argc, rest_argv);
  if (command == "store-dump") return cmd_store_dump(rest_argc, rest_argv);
  if (command == "store-hash") return cmd_store_hash(rest_argc, rest_argv);
  if (command == "store-diff") return cmd_store_diff(rest_argc, rest_argv);
  if (command == "verify") return cmd_verify(rest_argc, rest_argv);
  if (command == "serve-stats") return cmd_serve_stats(rest_argc, rest_argv);
  if (command == "feed-publish") return cmd_feed_publish(rest_argc, rest_argv);
  if (command == "feed-verify") return cmd_feed_verify(rest_argc, rest_argv);
  if (command == "feed-apply") return cmd_feed_apply(rest_argc, rest_argv);
  if (command == "feed-status") return cmd_feed_status(rest_argc, rest_argv);
  if (command == "feed-fetch") return cmd_feed_fetch(rest_argc, rest_argv);
  if (command == "metrics") return cmd_metrics(rest_argc, rest_argv);
  if (command == "daemon") return cmd_daemon(rest_argc, rest_argv);
  if (command == "snapshot-write") {
    return cmd_snapshot_write(rest_argc, rest_argv);
  }
  if (command == "snapshot-info") return cmd_snapshot_info(rest_argc, rest_argv);
  if (command == "crlite-build") return cmd_crlite_build(rest_argc, rest_argv);
  if (command == "crlite-info") return cmd_crlite_info(rest_argc, rest_argv);
  if (command == "compile-store") {
    return cmd_compile_store(rest_argc, rest_argv);
  }
  return usage();
}
