// The four workloads: their inputs (generated from the seed, with the
// expected verdict of every request), the serving stack each one drives,
// and the RSF update path that flips a sentinel chain's verdict.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "anchord/client.hpp"
#include "anchord/conduit.hpp"
#include "anchord/server.hpp"
#include "chain/service.hpp"
#include "corpus/corpus.hpp"
#include "rootstore/constraint_compile.hpp"
#include "rootstore/snapshot/view.hpp"
#include "rsf/client.hpp"
#include "rsf/feed.hpp"
#include "util/metrics.hpp"

namespace verdictbench {

struct Verdict {
  bool ok = false;
  anchor::chain::ErrorKind kind = anchor::chain::ErrorKind::kInternal;
  bool operator==(const Verdict&) const = default;
};

// Where a workload's requests enter the library.
enum class Entry {
  kDaemon,    // anchord verify over a socketpair (AnchordClient::call)
  kValidate,  // in-process VerifyService::validate on DER
  kVerify,    // in-process VerifyService::verify with a context FactSet
};

struct Request {
  anchor::x509::CertPtr leaf;
  std::shared_ptr<const anchor::chain::CertificatePool> pool;  // its intermediates
  anchor::Bytes leaf_der;
  std::vector<anchor::Bytes> intermediates_der;
  anchor::chain::VerifyOptions options;  // gcc_context points at `context`
  std::shared_ptr<const anchor::core::FactSet> context;
  const anchor::rootstore::ChainContext* chain_context = nullptr;
  anchor::anchord::Request wire;  // the same verify as an anchord request
  Verdict expected;               // from an uncached ChainVerifier
};

// Result of sending one request through a workload's entry point.
struct Outcome {
  bool delivered = false;  // false: transport error, nothing came back
  Verdict verdict;
  std::string error;
  // Counts the verdict path reported (wire ResponseStats for the daemon).
  std::uint64_t paths_explored = 0;
};

struct Inputs {
  Entry entry = Entry::kValidate;
  bool concurrent_updates = false;  // feed_churn: updater runs beside reads
  bool hot_set = true;              // requests repeat, so caches can warm
  anchor::corpus::Corpus corpus;
  anchor::rootstore::RootStore primary;  // the store the feed publishes
  anchor::chain::ServiceConfig service_config;
  // CRLite cascade over the corpus (every intermediate enrolled). It is
  // registered on the service only when `register_crlite` is set; the traced
  // run prices one check on every workload.
  std::shared_ptr<const anchor::revocation::Provider> crlite;
  bool register_crlite = false;
  std::vector<anchor::rootstore::ChainContext> contexts;  // ua_context
  std::vector<Request> requests;  // measured requests in visit order
  Request sentinel;                // its verdict flips on every update
  Verdict sentinel_denied;
  std::string sentinel_root;
  std::string snapshot_path;       // the on-disk store every start opens
  std::string verdict_mix;         // expected kinds, for the host record
};

// Builds a workload's inputs from `seed`; writes its snapshot under
// `workdir`. Returns nullptr and sets `error` for an unknown workload.
std::unique_ptr<Inputs> make_inputs(const std::string& workload,
                                    std::uint64_t seed,
                                    const std::string& workdir,
                                    std::string& error);

// One serving instance started from the on-disk snapshot: the service,
// and for the daemon entry point an anchord server with one worker on a
// socketpair plus the client. Destruction closes the connection and joins
// the serve thread.
class Stack {
 public:
  Stack(const Inputs& inputs,
        std::shared_ptr<const anchor::rootstore::snapshot::StoreView> view,
        const anchor::SignatureScheme& scheme,
        std::shared_ptr<const anchor::revocation::Provider> revocation);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  Outcome issue(const Request& request);
  anchor::chain::VerifyService& service() { return *service_; }
  anchor::metrics::Registry& registry() { return registry_; }
  bool ok() const { return error_.empty(); }
  double adopt_ms() const { return adopt_ms_; }  // VerifyService::adopt_view
  const std::string& error() const { return error_; }

 private:
  const Inputs& inputs_;
  anchor::metrics::Registry registry_;
  anchor::rootstore::RootStore live_;
  std::unique_ptr<anchor::chain::VerifyService> service_;
  std::unique_ptr<anchor::anchord::AnchordServer> server_;
  anchor::anchord::ConduitPair conduits_;
  std::unique_ptr<anchor::anchord::AnchordClient> client_;
  std::thread serve_thread_;
  std::string error_;
  double adopt_ms_ = 0;
};

// One update, timed from Feed::publish to the first sentinel verdict that
// reflects it.
struct UpdateSample {
  bool correct = false;
  double visible_ms = 0;
  double publish_ms = 0;
  double poll_ms = 0;    // RsfClient poll minus the adoption hook
  double mutate_ms = 0;  // VerifyService::mutate inside the adoption hook
  double bytes = 0;      // ClientStats::bytes_fetched delta
  double stale_purged = 0;
  // Traced only (shadow work after the timed span).
  double proof_us = 0;   // consistency + inclusion verification
  double copy_ms = 0;    // one RootStore copy of the adopted store
  double allocs = 0;     // allocations on the updater thread
};

// The RSF update path: a publisher toggles a denying GCC on the sentinel's
// root and publishes; an RsfClient (delta transport, Merkle poll path)
// polls immediately and its adoption hook moves the bound stack's service
// onto the adopted store through VerifyService::mutate.
class Updater {
 public:
  explicit Updater(const Inputs& inputs);
  Updater(const Updater&) = delete;
  Updater& operator=(const Updater&) = delete;

  void bind(Stack& stack);
  // Runs one update against the bound stack and checks the sentinel.
  UpdateSample step(bool traced);

 private:
  const Inputs& inputs_;
  anchor::SimSig feed_keys_;
  anchor::rsf::Feed feed_;
  anchor::rootstore::RootStore primary_;
  anchor::rsf::RsfClient client_;
  anchor::core::Gcc deny_;
  Stack* stack_ = nullptr;
  bool denied_ = false;
  std::int64_t clock_ = 0;
  double hook_ms_ = 0;
};

}  // namespace verdictbench
