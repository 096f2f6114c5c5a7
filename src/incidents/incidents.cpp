#include "incidents/incidents.hpp"

#include "incidents/listings.hpp"
#include "util/time.hpp"
#include "x509/builder.hpp"
#include "x509/oids.hpp"

namespace anchor::incidents {

using x509::CertificateBuilder;
using x509::CertPtr;
using x509::DistinguishedName;

namespace {

// Shared mini-PKI scaffolding for incident scenarios.
struct MiniPki {
  SimSig sigs;
  std::uint64_t serial = 1;

  struct Ca {
    CertPtr cert;
    SimKeyPair key;
  };

  Ca make_root(const std::string& name, const std::string& org,
               int year_from = 2005, int year_to = 2035) {
    Ca ca;
    ca.key = SimSig::keygen(name);
    ca.cert = CertificateBuilder()
                  .serial(serial++)
                  .subject(DistinguishedName::make(name, org))
                  .issuer(DistinguishedName::make(name, org))
                  .validity(unix_date(year_from, 1, 1), unix_date(year_to, 1, 1))
                  .public_key(ca.key.key_id)
                  .ca(std::nullopt)
                  .sign(ca.key)
                  .take();
    sigs.register_key(ca.key);
    return ca;
  }

  Ca make_intermediate(const std::string& name, const Ca& parent,
                       int year_from = 2008, int year_to = 2030) {
    Ca ca;
    ca.key = SimSig::keygen(name);
    ca.cert = CertificateBuilder()
                  .serial(serial++)
                  .subject(DistinguishedName::make(
                      name, parent.cert->subject().organization()))
                  .issuer(parent.cert->subject())
                  .validity(unix_date(year_from, 1, 1), unix_date(year_to, 1, 1))
                  .public_key(ca.key.key_id)
                  .ca(0)
                  .sign(parent.key)
                  .take();
    sigs.register_key(ca.key);
    return ca;
  }

  CertPtr make_leaf(const std::string& domain, const Ca& issuer,
                    std::int64_t not_before, int lifetime_days = 365,
                    bool ev = false, bool smime = false) {
    SimKeyPair key = SimSig::keygen("leaf-" + domain + std::to_string(serial));
    x509::KeyUsage ku;
    ku.set(x509::KeyUsageBit::kDigitalSignature);
    ku.set(x509::KeyUsageBit::kKeyEncipherment);
    CertificateBuilder builder;
    builder.serial(serial++)
        .subject(DistinguishedName::make(domain))
        .issuer(issuer.cert->subject())
        .validity(not_before, not_before + std::int64_t{lifetime_days} * 86400)
        .public_key(key.key_id)
        .key_usage(ku)
        .dns_names({domain, "*." + domain});
    if (smime) {
      builder.extended_key_usage({x509::oids::kp_email_protection()});
    } else {
      builder.extended_key_usage({x509::oids::kp_server_auth()});
    }
    if (ev) builder.ev();
    return builder.sign(issuer.key).take();
  }
};

chain::VerifyOptions tls_at(std::int64_t time, std::string host) {
  chain::VerifyOptions options;
  options.time = time;
  options.hostname = std::move(host);
  options.usage = chain::Usage::kTls;
  return options;
}

void attach(Incident& incident, const std::string& gcc_name,
            const CertPtr& root, const std::string& source,
            const std::string& justification) {
  auto gcc = core::Gcc::for_certificate(gcc_name, *root, source, justification);
  // Incident GCCs are library-authored; a failure here is a programming
  // error surfaced loudly in tests.
  incident.store.attach_gcc(std::move(gcc).take());
}

}  // namespace

// ---------------------------------------------------------------------------
// TurkTrust, January 2013: two mis-issued intermediate CA certificates, one
// of which signed a leaf for *.google.com. Response: revoke the
// intermediates (CRLSet/OneCRL) and stop honoring EV from the root.
Incident make_turktrust() {
  MiniPki pki;
  Incident incident;
  incident.name = "turktrust";
  incident.summary =
      "2013: TURKTRUST mis-issued intermediates; one signed *.google.com. "
      "Revocation of the intermediates + EV distrust, as a GCC.";

  auto root = pki.make_root("TURKTRUST Elektronik Sertifika Hizmet", "TURKTRUST");
  auto good_int = pki.make_intermediate("TURKTRUST Issuing CA 1", root);
  auto bad_int1 = pki.make_intermediate("e-islem.kktcmerkezbankasi.org", root);
  auto bad_int2 = pki.make_intermediate("EGO Genel Mudurlugu", root);

  incident.affected_roots.push_back(root.cert->fingerprint());
  rootstore::RootMetadata metadata;
  metadata.ev_allowed = true;  // EV removal is expressed in the GCC below
  (void)incident.store.add_trusted(root.cert, metadata);
  incident.pool.add(good_int.cert);
  incident.pool.add(bad_int1.cert);
  incident.pool.add(bad_int2.cert);

  std::string source =
      "revoked(\"" + bad_int1.cert->fingerprint_hex() + "\").\n" +
      "revoked(\"" + bad_int2.cert->fingerprint_hex() + "\").\n" +
      R"(inChain(Chain, C) :- certAt(Chain, _, C).
bad(Chain) :- inChain(Chain, C), hash(C, H), revoked(H).
valid(Chain, _) :-
  leaf(Chain, L),
  \+bad(Chain),
  \+EV(L).
)";
  attach(incident, "turktrust-2013", root.cert, source,
         "https://security.googleblog.com/2013/01/enhancing-digital-certificate-security.html");

  std::int64_t t = unix_date(2013, 2, 1);
  incident.cases.push_back(
      {"legit non-EV leaf under good intermediate",
       pki.make_leaf("bankasya.com.tr", good_int, unix_date(2012, 6, 1)),
       tls_at(t, "bankasya.com.tr"), true});
  incident.cases.push_back(
      {"mis-issued google.com leaf under revoked intermediate",
       pki.make_leaf("google.com", bad_int1, unix_date(2012, 12, 1)),
       tls_at(t, "google.com"), false});
  incident.cases.push_back(
      {"EV leaf under good intermediate (EV distrusted)",
       pki.make_leaf("ev-bank.com.tr", good_int, unix_date(2012, 6, 1), 365,
                     /*ev=*/true),
       tls_at(t, "ev-bank.com.tr"), false});
  incident.signatures = pki.sigs;
  return incident;
}

// ---------------------------------------------------------------------------
// TUBITAK, 2016: a new Turkish government root applies for inclusion;
// Mozilla admits it with a hard-coded name constraint pinning issuance to
// Turkish government TLD space. The pre-emptive flavour of partial trust:
// the GCC ships with the root's very first distribution.
Incident make_tubitak() {
  MiniPki pki;
  Incident incident;
  incident.name = "tubitak";
  incident.summary =
      "2016: TUBITAK Kamu SM root admitted to NSS with a hard-coded name "
      "constraint limiting issuance to Turkish government TLD space, "
      "expressed as a GCC attached at inclusion time.";

  auto root = pki.make_root("TUBITAK Kamu SM SSL Kok Sertifikasi", "TUBITAK");
  auto issuing = pki.make_intermediate("Kamu SM SSL Sertifika Hizmetleri", root);

  incident.affected_roots.push_back(root.cert->fingerprint());
  (void)incident.store.add_trusted(root.cert);
  incident.pool.add(issuing.cert);

  std::string source = R"(permitted("gov.tr").
permitted("k12.tr").
permitted("pol.tr").
permitted("mil.tr").
permitted("tsk.tr").
permitted("kep.tr").
permitted("bel.tr").
permitted("edu.tr").
goodName(L, N) :- nameSuffix(L, N, S), permitted(S).
badName(L) :- san(L, N), \+goodName(L, N).
valid(Chain, _) :-
  leaf(Chain, L),
  \+badName(L).
)";
  attach(incident, "tubitak-2016", root.cert, source,
         "https://bugzilla.mozilla.org/show_bug.cgi?id=1262809");

  std::int64_t t = unix_date(2017, 3, 1);
  incident.cases.push_back(
      {"Turkish government portal",
       pki.make_leaf("turkiye.gov.tr", issuing, unix_date(2016, 9, 1)),
       tls_at(t, "turkiye.gov.tr"), true});
  incident.cases.push_back(
      {"Turkish military domain",
       pki.make_leaf("hvkk.tsk.tr", issuing, unix_date(2016, 10, 1)),
       tls_at(t, "hvkk.tsk.tr"), true});
  incident.cases.push_back(
      {"commercial .com.tr domain (outside the pin)",
       pki.make_leaf("bank.com.tr", issuing, unix_date(2016, 11, 1)),
       tls_at(t, "bank.com.tr"), false});
  incident.cases.push_back(
      {"mis-issued google.com leaf",
       pki.make_leaf("google.com", issuing, unix_date(2016, 12, 1)),
       tls_at(t, "google.com"), false});
  incident.signatures = pki.sigs;
  return incident;
}

// ---------------------------------------------------------------------------
// ANSSI, December 2013: a French-government intermediate used to MITM
// Google domains. Response: revoke it and name-constrain the root to
// French(-government) domain space.
Incident make_anssi() {
  MiniPki pki;
  Incident incident;
  incident.name = "anssi";
  incident.summary =
      "2013: ANSSI intermediate MITMed Google domains. Revocation + root "
      "name-constrained to French TLD space, as a GCC.";

  auto root = pki.make_root("IGC/A", "ANSSI");
  auto good_int = pki.make_intermediate("ANSSI Service CA", root);
  auto bad_int = pki.make_intermediate("DG Tresor", root);

  incident.affected_roots.push_back(root.cert->fingerprint());
  (void)incident.store.add_trusted(root.cert);
  incident.pool.add(good_int.cert);
  incident.pool.add(bad_int.cert);

  std::string source =
      "revoked(\"" + bad_int.cert->fingerprint_hex() + "\").\n" +
      R"(permitted("fr").
permitted("gouv.fr").
inChain(Chain, C) :- certAt(Chain, _, C).
bad(Chain) :- inChain(Chain, C), hash(C, H), revoked(H).
goodName(L, N) :- nameSuffix(L, N, S), permitted(S).
badName(L) :- san(L, N), \+goodName(L, N).
valid(Chain, _) :-
  leaf(Chain, L),
  \+bad(Chain),
  \+badName(L).
)";
  attach(incident, "anssi-2013", root.cert, source,
         "https://bugzilla.mozilla.org/show_bug.cgi?id=952572");

  std::int64_t t = unix_date(2014, 1, 15);
  incident.cases.push_back(
      {"legit French government site",
       pki.make_leaf("impots.gouv.fr", good_int, unix_date(2013, 6, 1)),
       tls_at(t, "impots.gouv.fr"), true});
  incident.cases.push_back(
      {"MITM google.com leaf under revoked intermediate",
       pki.make_leaf("google.com", bad_int, unix_date(2013, 11, 20)),
       tls_at(t, "google.com"), false});
  incident.cases.push_back(
      {"non-French domain under surviving intermediate",
       pki.make_leaf("example.com", good_int, unix_date(2013, 10, 1)),
       tls_at(t, "example.com"), false});
  incident.cases.push_back(
      {"plain .fr domain under surviving intermediate",
       pki.make_leaf("exemple.fr", good_int, unix_date(2013, 10, 1)),
       tls_at(t, "exemple.fr"), true});
  incident.signatures = pki.sigs;
  return incident;
}

// ---------------------------------------------------------------------------
// India CCA, July 2014: NIC intermediates mis-issued Google and Yahoo
// leaves. Response (Chrome): revoke the intermediates and constrain the
// root to Indian TLDs.
Incident make_india_cca() {
  MiniPki pki;
  Incident incident;
  incident.name = "india-cca";
  incident.summary =
      "2014: India CCA / NIC intermediates mis-issued Google and Yahoo "
      "leaves. Revocation + root pinned to .in, as a GCC.";

  auto root = pki.make_root("India CCA 2011", "Controller of Certifying Authorities");
  auto good_int = pki.make_intermediate("e-Mudhra CA", root);
  auto bad_int = pki.make_intermediate("NIC CA 2011", root);

  incident.affected_roots.push_back(root.cert->fingerprint());
  (void)incident.store.add_trusted(root.cert);
  incident.pool.add(good_int.cert);
  incident.pool.add(bad_int.cert);

  std::string source =
      "revoked(\"" + bad_int.cert->fingerprint_hex() + "\").\n" +
      R"(permitted("in").
inChain(Chain, C) :- certAt(Chain, _, C).
bad(Chain) :- inChain(Chain, C), hash(C, H), revoked(H).
goodName(L, N) :- nameSuffix(L, N, S), permitted(S).
badName(L) :- san(L, N), \+goodName(L, N).
valid(Chain, _) :-
  leaf(Chain, L),
  \+bad(Chain),
  \+badName(L).
)";
  attach(incident, "india-cca-2014", root.cert, source,
         "https://security.googleblog.com/2014/07/maintaining-digital-certificate-security.html");

  std::int64_t t = unix_date(2014, 8, 15);
  incident.cases.push_back(
      {"legit Indian government portal",
       pki.make_leaf("india.gov.in", good_int, unix_date(2014, 1, 10)),
       tls_at(t, "india.gov.in"), true});
  incident.cases.push_back(
      {"mis-issued gmail leaf under revoked NIC intermediate",
       pki.make_leaf("mail.google.com", bad_int, unix_date(2014, 6, 25)),
       tls_at(t, "mail.google.com"), false});
  incident.cases.push_back(
      {"yahoo leaf under surviving intermediate, non-Indian TLD",
       pki.make_leaf("mail.yahoo.com", good_int, unix_date(2014, 6, 25)),
       tls_at(t, "mail.yahoo.com"), false});
  incident.signatures = pki.sigs;
  return incident;
}

// ---------------------------------------------------------------------------
// MCS/CNNIC, 2015: an unconstrained MCS Holdings intermediate was used to
// MITM traffic. Response: revoke it, then partially distrust the CNNIC
// root with "an allowlist of exempted subordinate certificates".
Incident make_cnnic() {
  MiniPki pki;
  Incident incident;
  incident.name = "cnnic";
  incident.summary =
      "2015: MCS Holdings intermediate under CNNIC used for MITM. Root "
      "restricted to an allowlist of exempted subordinates, as a GCC.";

  auto root = pki.make_root("CNNIC ROOT", "China Internet Network Information Center");
  auto exempt_int1 = pki.make_intermediate("CNNIC SSL A", root);
  auto exempt_int2 = pki.make_intermediate("CNNIC SSL B", root);
  auto mcs_int = pki.make_intermediate("MCS Holdings CA", root);
  auto post_int = pki.make_intermediate("CNNIC SSL C (post-incident)", root);

  incident.affected_roots.push_back(root.cert->fingerprint());
  (void)incident.store.add_trusted(root.cert);
  incident.pool.add(exempt_int1.cert);
  incident.pool.add(exempt_int2.cert);
  incident.pool.add(mcs_int.cert);
  incident.pool.add(post_int.cert);

  std::string source =
      "exempt(\"" + exempt_int1.cert->fingerprint_hex() + "\").\n" +
      "exempt(\"" + exempt_int2.cert->fingerprint_hex() + "\").\n" +
      R"(valid(Chain, _) :-
  root(Chain, Root),
  signs(Root, Int),
  hash(Int, H),
  exempt(H).
)";
  attach(incident, "cnnic-2015", root.cert, source,
         "https://blog.mozilla.org/security/2015/03/23/revoking-trust-in-one-cnnic-intermediate-certificate/");

  std::int64_t t = unix_date(2015, 6, 1);
  incident.cases.push_back(
      {"leaf under exempted subordinate A",
       pki.make_leaf("site.cn", exempt_int1, unix_date(2015, 1, 1)),
       tls_at(t, "site.cn"), true});
  incident.cases.push_back(
      {"leaf under exempted subordinate B",
       pki.make_leaf("portal.cn", exempt_int2, unix_date(2015, 2, 1)),
       tls_at(t, "portal.cn"), true});
  incident.cases.push_back(
      {"MITM leaf under MCS intermediate",
       pki.make_leaf("google.com", mcs_int, unix_date(2015, 3, 1)),
       tls_at(t, "google.com"), false});
  incident.cases.push_back(
      {"leaf under new non-exempt subordinate",
       pki.make_leaf("shop.cn", post_int, unix_date(2015, 5, 1)),
       tls_at(t, "shop.cn"), false});
  incident.signatures = pki.sigs;
  return incident;
}

// ---------------------------------------------------------------------------
// WoSign/StartCom, October 2016: backdated SHA-1 certificates and an
// undisclosed acquisition. Response: distrust all *new* leaves chaining to
// the roots (existing leaves kept working) and revoke the backdated ones.
Incident make_wosign() {
  MiniPki pki;
  Incident incident;
  incident.name = "wosign";
  incident.summary =
      "2016: WoSign backdated SHA-1 certs and covertly acquired StartCom. "
      "New leaves distrusted via notBefore cutoff; backdated leaves "
      "revoked, as a GCC.";

  auto wosign_root = pki.make_root("CA WoSign Root", "WoSign CA Limited");
  auto startcom_root = pki.make_root("StartCom Certification Authority", "StartCom Ltd.");
  auto wosign_int = pki.make_intermediate("WoSign Class 3 Server CA", wosign_root);
  auto startcom_int = pki.make_intermediate("StartCom Class 1 Server CA", startcom_root);

  incident.affected_roots.push_back(wosign_root.cert->fingerprint());
  incident.affected_roots.push_back(startcom_root.cert->fingerprint());
  (void)incident.store.add_trusted(wosign_root.cert);
  (void)incident.store.add_trusted(startcom_root.cert);
  incident.pool.add(wosign_int.cert);
  incident.pool.add(startcom_int.cert);

  // The backdated certificate: notBefore forged into 2015 to dodge the
  // SHA-1 sunset; identified and revoked by hash.
  CertPtr backdated =
      pki.make_leaf("backdated.example.cn", wosign_int, unix_date(2015, 11, 1));

  const std::int64_t cutoff = unix_date(2016, 10, 21);
  auto make_source = [&](const std::string& revoked_hash) {
    return "cutoff(" + std::to_string(cutoff) + ").\n" +
           "revoked(\"" + revoked_hash + "\").\n" +
           R"(bad(Chain) :- leaf(Chain, L), hash(L, H), revoked(H).
valid(Chain, _) :-
  leaf(Chain, L),
  notBefore(L, NB),
  cutoff(T),
  NB < T,
  \+bad(Chain).
)";
  };
  attach(incident, "wosign-2016", wosign_root.cert,
         make_source(backdated->fingerprint_hex()),
         "https://blog.mozilla.org/security/2016/10/24/distrusting-new-wosign-and-startcom-certificates/");
  attach(incident, "startcom-2016", startcom_root.cert,
         make_source(backdated->fingerprint_hex()),
         "https://blog.mozilla.org/security/2016/10/24/distrusting-new-wosign-and-startcom-certificates/");

  std::int64_t t = unix_date(2017, 1, 10);
  incident.cases.push_back(
      {"existing WoSign leaf issued before the cutoff",
       pki.make_leaf("old-site.cn", wosign_int, unix_date(2016, 5, 1)),
       tls_at(t, "old-site.cn"), true});
  incident.cases.push_back(
      {"new WoSign leaf issued after the cutoff",
       pki.make_leaf("new-site.cn", wosign_int, unix_date(2016, 12, 1)),
       tls_at(t, "new-site.cn"), false});
  incident.cases.push_back(
      {"backdated SHA-1 leaf (revoked by hash)", backdated,
       tls_at(t, "backdated.example.cn"), false});
  incident.cases.push_back(
      {"existing StartCom leaf issued before the cutoff",
       pki.make_leaf("old-start.com", startcom_int, unix_date(2016, 8, 1)),
       tls_at(t, "old-start.com"), true});
  incident.signatures = pki.sigs;
  return incident;
}

// ---------------------------------------------------------------------------
// Symantec, May 2018 stage: leaves issued on/after June 1 2016 distrusted
// unless the first intermediate is one of the allowlisted,
// independently-operated subordinates (Apple, Google). This is the paper's
// Listing 2, instantiated with real hashes.
Incident make_symantec() {
  MiniPki pki;
  Incident incident;
  incident.name = "symantec";
  incident.summary =
      "2018: gradual Symantec distrust. Leaves from June 1 2016 onward "
      "rejected unless under an exempt (Apple/Google) intermediate — the "
      "paper's Listing 2.";

  auto root = pki.make_root("GeoTrust Global CA", "Symantec Corporation");
  auto normal_int = pki.make_intermediate("Symantec Class 3 Secure Server CA", root);
  auto apple_int = pki.make_intermediate("Apple IST CA 2", root);
  auto google_int = pki.make_intermediate("Google Internet Authority G2", root);

  incident.affected_roots.push_back(root.cert->fingerprint());
  (void)incident.store.add_trusted(root.cert);
  incident.pool.add(normal_int.cert);
  incident.pool.add(apple_int.cert);
  incident.pool.add(google_int.cert);

  attach(incident, "symantec-2018", root.cert,
         listing2_symantec({apple_int.cert->fingerprint_hex(),
                            google_int.cert->fingerprint_hex()}),
         "https://wiki.mozilla.org/CA/Symantec_Issues");

  std::int64_t t = unix_date(2018, 6, 15);
  incident.cases.push_back(
      {"legacy leaf issued before June 1 2016",
       pki.make_leaf("legacy-shop.com", normal_int, unix_date(2016, 2, 1),
                     3 * 365),
       tls_at(t, "legacy-shop.com"), true});
  incident.cases.push_back(
      {"new leaf under ordinary Symantec intermediate",
       pki.make_leaf("new-shop.com", normal_int, unix_date(2017, 3, 1),
                     2 * 365),
       tls_at(t, "new-shop.com"), false});
  incident.cases.push_back(
      {"new leaf under exempt Apple intermediate",
       pki.make_leaf("icloud-service.com", apple_int, unix_date(2017, 9, 1),
                     2 * 365),
       tls_at(t, "icloud-service.com"), true});
  incident.cases.push_back(
      {"new leaf under exempt Google intermediate",
       pki.make_leaf("youtube-cdn.com", google_int, unix_date(2018, 1, 10)),
       tls_at(t, "youtube-cdn.com"), true});
  incident.signatures = pki.sigs;
  return incident;
}

// ---------------------------------------------------------------------------
// Cross-sign resurrection (the Hiller et al. bane case, modelled on the
// Symantec-era pattern where distrusted hierarchies stayed reachable
// through cross-signs from still-trusted roots): the store explicitly
// distrusts a legacy root, but a cross-sign certificate — same subject DN,
// same SPKI, signed by a trusted bridge root — remains in circulation. A
// tree walk that only checks the certificates *on* the winning path never
// sees the distrusted self-signed certificate and accepts; the graph
// search collapses both certificates into one logical CA, finds it
// poisoned, and rejects every path through it with kDistrusted.
Incident make_cross_sign() {
  MiniPki pki;
  Incident incident;
  incident.name = "cross-sign-resurrection";
  incident.summary =
      "2021: a distrusted legacy root stays reachable through a cross-sign "
      "from a trusted bridge root. Negative inclusion must poison the "
      "logical CA (subject + SPKI), not just the distrusted certificate.";

  auto bridge = pki.make_root("Universal Bridge Root", "Bridge Trust Ltd");
  auto legacy = pki.make_root("Legacy Commerce Root", "Legacy Trust Inc");
  auto issuing = pki.make_intermediate("Legacy Commerce Issuing CA", legacy);

  // The cross-sign: the legacy root's subject and key, certified by the
  // bridge. Same logical CA as `legacy`, different certificate.
  CertPtr cross = CertificateBuilder()
                      .serial(pki.serial++)
                      .subject(legacy.cert->subject())
                      .issuer(bridge.cert->subject())
                      .validity(unix_date(2010, 1, 1), unix_date(2033, 1, 1))
                      .public_key(legacy.key.key_id)
                      .ca(std::nullopt)
                      .sign(bridge.key)
                      .take();

  // A benign cross-signed CA for contrast: trusted via the bridge, never
  // distrusted — the boon case must keep working.
  auto modern = pki.make_intermediate("Modern Commerce CA", bridge);

  incident.affected_roots.push_back(legacy.cert->fingerprint());
  (void)incident.store.add_trusted(bridge.cert);
  incident.store.distrust(legacy.cert->fingerprint(),
                          "compromised legacy hierarchy (distrusted 2021)");
  incident.pool.add(issuing.cert);
  incident.pool.add(cross);
  incident.pool.add(legacy.cert);
  incident.pool.add(modern.cert);

  std::int64_t t = unix_date(2021, 9, 30);
  incident.cases.push_back(
      {"leaf under distrusted root via cross-sign (resurrection path)",
       pki.make_leaf("shop.example.com", issuing, unix_date(2021, 1, 1)),
       tls_at(t, "shop.example.com"), false});
  incident.cases.push_back(
      {"leaf under benign cross-signed CA",
       pki.make_leaf("modern.example.com", modern, unix_date(2021, 1, 1)),
       tls_at(t, "modern.example.com"), true});
  incident.signatures = pki.sigs;
  return incident;
}

std::vector<Incident> all_incidents() {
  std::vector<Incident> incidents;
  incidents.push_back(make_turktrust());
  incidents.push_back(make_tubitak());
  incidents.push_back(make_anssi());
  incidents.push_back(make_india_cca());
  incidents.push_back(make_cnnic());
  incidents.push_back(make_wosign());
  incidents.push_back(make_symantec());
  incidents.push_back(make_cross_sign());
  return incidents;
}

}  // namespace anchor::incidents
