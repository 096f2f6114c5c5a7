// The paper's running example (§2.2/§2.3): the 2018 Symantec distrust,
// expressed as the Listing 2 GCC, and the three derivative outcomes —
// full removal (Debian), full retention (a frozen mirror), and the
// GCC-carrying RSF client that mirrors Mozilla exactly.
//
// Build & run:  ./build/examples/symantec_distrust
#include <cstdio>

#include "chain/verifier.hpp"
#include "incidents/incidents.hpp"
#include "rsf/client.hpp"
#include "util/time.hpp"

using namespace anchor;

int main() {
  incidents::Incident symantec = incidents::make_symantec();
  std::printf("%s\n\n", symantec.summary.c_str());

  // Show the GCC the primary ships (the paper's Listing 2, with real
  // hashes in place of "exempt(...)").
  const auto& gccs = symantec.store.gccs().for_root(symantec.affected_roots[0]);
  std::printf("--- GCC attached to %s... ---\n%s\n",
              to_hex(BytesView(symantec.affected_roots[0]))
                  .substr(0, 16)
                  .c_str(),
              gccs[0].source().c_str());

  // Distribute it over an RSF.
  SimSig registry;
  rsf::Feed feed("mozilla", registry);
  feed.publish(symantec.store, unix_date(2018, 5, 1),
               "Symantec distrust, May 2018 stage");

  rsf::RsfClient gcc_derivative(feed, 3600);
  gcc_derivative.poll_now(unix_date(2018, 5, 1) + 3600);

  rsf::ManualMirrorClient bare_derivative(feed, /*strip_gccs=*/true);
  bare_derivative.manual_sync(unix_date(2018, 5, 2));

  rootstore::RootStore removed_store;  // Debian 2018: root dropped entirely

  chain::ChainVerifier primary(symantec.store, symantec.signatures);
  chain::ChainVerifier via_gcc(gcc_derivative.store(), symantec.signatures);
  chain::ChainVerifier via_bare(bare_derivative.store(), symantec.signatures);
  chain::ChainVerifier via_removal(removed_store, symantec.signatures);

  std::printf("%-46s %-8s %-8s %-8s %-8s\n", "chain", "primary", "rsf+gcc",
              "bare", "removed");
  for (const auto& test_case : symantec.cases) {
    auto verdict = [&](chain::ChainVerifier& verifier) {
      return verifier.verify(test_case.leaf, symantec.pool, test_case.options).ok
                 ? "accept"
                 : "REJECT";
    };
    std::printf("%-46s %-8s %-8s %-8s %-8s\n", test_case.label.c_str(),
                verdict(primary), verdict(via_gcc), verdict(via_bare),
                verdict(via_removal));
  }

  std::printf(
      "\nReading the table:\n"
      "  * rsf+gcc matches the primary on every chain;\n"
      "  * the bare mirror accepts the post-cutoff chain Mozilla distrusts\n"
      "    (the imprecision problem, paper §2.3);\n"
      "  * removal rejects even the legacy and exempt chains Mozilla still\n"
      "    accepts — the collateral damage that forced Debian to revert.\n");
  return 0;
}
