#include "rootstore/constraint_compile.hpp"

#include "datalog/value.hpp"

namespace anchor::rootstore {

using datalog::Value;

void ChainContext::append_facts(const std::string& chain_id,
                                core::FactSet& out) const {
  Value chain(chain_id);
  for (std::int64_t ts : sct_timestamps) {
    out.add("sctTimestamp", {chain, Value(ts)});
  }
  if (client_version) {
    out.add("clientVersion", {chain, Value(client_version->packed())});
  }
  if (validation_time) {
    out.add("validationTime", {chain, Value(*validation_time)});
  }
}

const char* to_string(ConstraintKind kind) {
  switch (kind) {
    case ConstraintKind::kSctNotAfter: return "sct-not-after";
    case ConstraintKind::kSctAllAfter: return "sct-all-after";
    case ConstraintKind::kPermittedDns: return "permitted-dns";
    case ConstraintKind::kMinVersion: return "min-version";
    case ConstraintKind::kMaxVersionExclusive: return "max-version-exclusive";
    case ConstraintKind::kAnchorExpiry: return "anchor-expiry";
    case ConstraintKind::kAnchorConstraints: return "anchor-constraints";
    case ConstraintKind::kEvPolicy: return "ev-policy";
  }
  return "unknown";
}

void CompileStats::merge(const CompileStats& other) {
  anchors += other.anchors;
  blocks += other.blocks;
  gccs += other.gccs;
  clauses += other.clauses;
  for (std::size_t i = 0; i < kind_counts.size(); ++i) {
    kind_counts[i] += other.kind_counts[i];
  }
}

namespace {

// Accumulates the Datalog source for one GCC: helper clauses first, the
// per-block body conjuncts collected separately, then the `valid` rules.
struct SourceBuilder {
  std::string helpers;
  std::size_t clauses = 0;

  void clause(const std::string& text) {
    helpers += text;
    helpers += '\n';
    ++clauses;
  }
};

void note_kind(CompileStats* stats, ConstraintKind kind) {
  if (stats != nullptr) {
    ++stats->kind_counts[static_cast<std::size_t>(kind)];
  }
}

// Lowers one constraints block. Returns the conjunct list for the block
// rule body (helper predicates appended to `out`).
std::string lower_block(const chromeproto::ConstraintBlock& block,
                        const std::string& bp,  // block prefix, e.g. "crsB1"
                        SourceBuilder& out, CompileStats* stats) {
  std::string body = "leaf(Chain, CrsLeaf)";
  auto conjunct = [&body](const std::string& literal) {
    body += ", ";
    body += literal;
  };

  // SCT time bounds. sct_not_after_sec is an existence bound (some SCT at
  // or before the instant); sct_all_after_sec demands a non-empty SCT set
  // with nothing at or before the instant.
  if (block.sct_not_after_sec) {
    note_kind(stats, ConstraintKind::kSctNotAfter);
    conjunct("sctTimestamp(Chain, CrsSctNa), CrsSctNa <= " +
             std::to_string(*block.sct_not_after_sec));
  }
  if (block.sct_all_after_sec) {
    note_kind(stats, ConstraintKind::kSctAllAfter);
    out.clause(bp + "SctAny(Chain) :- sctTimestamp(Chain, _).");
    out.clause(bp + "SctOld(Chain) :- sctTimestamp(Chain, CrsT), CrsT <= " +
               std::to_string(*block.sct_all_after_sec) + ".");
    conjunct(bp + "SctAny(Chain), \\+" + bp + "SctOld(Chain)");
  }

  // DNS name permits: every leaf SAN must have a dot-suffix among the
  // permitted names (nameSuffix facts already enumerate the suffixes,
  // with a leading "*." label stripped — see core/facts.cpp).
  if (!block.permitted_dns_names.empty()) {
    note_kind(stats, ConstraintKind::kPermittedDns);
    for (const std::string& name : block.permitted_dns_names) {
      out.clause(bp + "Permit(\"" + name + "\").");
    }
    out.clause(bp +
               "Covered(Chain, CrsN) :- leaf(Chain, CrsL), "
               "nameSuffix(CrsL, CrsN, CrsSfx), " +
               bp + "Permit(CrsSfx).");
    out.clause(bp +
               "DnsBad(Chain) :- leaf(Chain, CrsL), san(CrsL, CrsN), \\+" +
               bp + "Covered(Chain, CrsN).");
    conjunct("\\+" + bp + "DnsBad(Chain)");
  }

  // Version ranges over the packed clientVersion context fact. Absent
  // context fails closed: no clientVersion fact, no satisfied block.
  if (block.min_version || block.max_version_exclusive) {
    conjunct("clientVersion(Chain, CrsCv)");
    if (block.min_version) {
      note_kind(stats, ConstraintKind::kMinVersion);
      conjunct("CrsCv >= " + std::to_string(block.min_version->packed()));
    }
    if (block.max_version_exclusive) {
      note_kind(stats, ConstraintKind::kMaxVersionExclusive);
      conjunct("CrsCv < " +
               std::to_string(block.max_version_exclusive->packed()));
    }
  }

  // Anchor expiry: the validation instant must fall inside the root
  // certificate's own validity window (inclusive ends, matching
  // Certificate::valid_at).
  if (block.enforce_anchor_expiry) {
    note_kind(stats, ConstraintKind::kAnchorExpiry);
    conjunct(
        "root(Chain, CrsAeR), notBefore(CrsAeR, CrsAeNb), "
        "notAfter(CrsAeR, CrsAeNa), validationTime(Chain, CrsAeT), "
        "CrsAeT >= CrsAeNb, CrsAeT <= CrsAeNa");
  }

  // Anchor constraints: apply the root's own X.509 constraints to the
  // chain — permitted/excluded name constraints against the leaf's SANs
  // (suffix semantics, same vocabulary as permitted_dns_names) and the
  // root's pathLenConstraint against the chain length (a chain of length
  // L carries L-2 intermediates).
  if (block.enforce_anchor_constraints) {
    note_kind(stats, ConstraintKind::kAnchorConstraints);
    out.clause(bp +
               "AcCovered(Chain, CrsN) :- root(Chain, CrsR), "
               "leaf(Chain, CrsL), nameSuffix(CrsL, CrsN, CrsSfx), "
               "permittedDNS(CrsR, CrsSfx).");
    out.clause(bp +
               "AcNameBad(Chain) :- root(Chain, CrsR), "
               "permittedDNS(CrsR, _), leaf(Chain, CrsL), san(CrsL, CrsN), "
               "\\+" +
               bp + "AcCovered(Chain, CrsN).");
    out.clause(bp +
               "AcExclBad(Chain) :- root(Chain, CrsR), "
               "excludedDNS(CrsR, CrsSfx), leaf(Chain, CrsL), "
               "nameSuffix(CrsL, CrsN, CrsSfx).");
    out.clause(bp +
               "AcPathBad(Chain) :- root(Chain, CrsR), pathLen(CrsR, CrsP), "
               "chainLength(Chain, CrsLen), CrsLen > CrsP + 2.");
    conjunct("\\+" + bp + "AcNameBad(Chain), \\+" + bp +
             "AcExclBad(Chain), \\+" + bp + "AcPathBad(Chain)");
  }

  return body;
}

}  // namespace

Result<std::vector<core::Gcc>> compile_anchor(
    const chromeproto::TrustAnchor& anchor, const CompileOptions& options,
    CompileStats* stats) {
  std::vector<core::Gcc> gccs;
  const std::string tag =
      options.name_prefix + "-" + anchor.sha256_hex.substr(0, 12);

  CompileStats local;
  local.anchors = 1;
  local.blocks = anchor.constraints.size();

  // The OR-of-blocks constraints program.
  if (!anchor.constraints.empty()) {
    SourceBuilder source;
    source.helpers =
        "% compiled from Chrome Root Store textproto; anchor " +
        anchor.sha256_hex + "\n";
    std::vector<std::string> block_heads;
    for (std::size_t i = 0; i < anchor.constraints.size(); ++i) {
      const std::string bp = "crsB" + std::to_string(i + 1);
      const std::string body =
          lower_block(anchor.constraints[i], bp, source, &local);
      source.clause(bp + "(Chain) :- " + body + ".");
      block_heads.push_back(bp);
    }
    for (const std::string& head : block_heads) {
      source.clause("valid(Chain, _) :- " + head + "(Chain).");
    }
    auto gcc = core::Gcc::create(tag + "-constraints", anchor.sha256_hex,
                                 source.helpers, options.justification);
    if (!gcc) {
      return err("compile_anchor " + anchor.sha256_hex + ": " + gcc.error());
    }
    gccs.push_back(std::move(gcc).take());
    local.clauses += source.clauses;
    ++local.gccs;
  }

  // The EV-policy program: a leaf claiming EV must carry one of the
  // anchor's EV policy OIDs; non-EV leaves are untouched.
  if (!anchor.ev_policy_oids.empty()) {
    note_kind(&local, ConstraintKind::kEvPolicy);
    SourceBuilder source;
    source.helpers =
        "% compiled from Chrome Root Store textproto; anchor " +
        anchor.sha256_hex + " (ev_policy_oids)\n";
    for (const std::string& oid : anchor.ev_policy_oids) {
      source.clause("crsEvOk(Chain) :- leaf(Chain, CrsL), policy(CrsL, \"" +
                    oid + "\").");
    }
    source.clause(
        "crsEvBad(Chain) :- leaf(Chain, CrsL), ev(CrsL), \\+crsEvOk(Chain).");
    source.clause("valid(Chain, _) :- leaf(Chain, CrsL), \\+crsEvBad(Chain).");
    auto gcc = core::Gcc::create(tag + "-ev-policy", anchor.sha256_hex,
                                 source.helpers, options.justification);
    if (!gcc) {
      return err("compile_anchor " + anchor.sha256_hex + ": " + gcc.error());
    }
    gccs.push_back(std::move(gcc).take());
    local.clauses += source.clauses;
    ++local.gccs;
  }

  if (stats != nullptr) stats->merge(local);
  return gccs;
}

Result<StoreCompileResult> compile_store(const chromeproto::StoreFile& file,
                                         const CertResolver& resolve,
                                         RootStore& out,
                                         const CompileOptions& options) {
  StoreCompileResult result;
  for (const chromeproto::TrustAnchor& anchor : file.trust_anchors) {
    const auto hash = digest_from_hex(anchor.sha256_hex);
    if (!hash) return err("compile_store: bad sha256_hex " + anchor.sha256_hex);
    x509::CertPtr cert = resolve ? resolve(*hash) : nullptr;
    if (cert != nullptr) {
      RootMetadata metadata;
      metadata.ev_allowed = !anchor.ev_policy_oids.empty();
      metadata.justification = options.justification;
      Status added = out.add_trusted(cert, metadata);
      if (!added.ok()) {
        return err("compile_store: " + added.error());
      }
      ++result.anchors_with_cert;
    } else {
      // GCCs attach by hash, so the constraint travels even before the
      // certificate itself is distributed.
      ++result.anchors_without_cert;
    }
    auto gccs = compile_anchor(anchor, options, &result.stats);
    if (!gccs) return err(gccs.error());
    for (core::Gcc& gcc : gccs.value()) {
      out.attach_gcc(std::move(gcc));
    }
  }
  return result;
}

}  // namespace anchor::rootstore
