// rsf::FeedTransport over the anchord wire protocol: turns a connected
// AnchordClient into the transport an RsfClient polls, so one anchord
// instance can fan the authenticated feed out to downstream pollers
// (DESIGN.md "Authenticated feed distribution").
//
// Every poll is one feed-fetch verb round trip carrying the signed tree
// head, proofs and snapshot range (deltas inline when asked), so a
// no-change poll costs O(1) bytes on the wire and nothing the daemon in
// the middle says is trusted before the poller verifies it.
#pragma once

#include <string>

#include "anchord/client.hpp"
#include "rsf/transport.hpp"

namespace anchor::anchord {

class WireFeedTransport : public rsf::FeedTransport {
 public:
  // `client` must outlive the transport; same single-thread contract as
  // AnchordClient itself. `publisher` names the upstream feed — the
  // poller's key registry derives the expected signing key from it out of
  // band, exactly as with a local transport, so the daemon in the middle
  // holds no trust: tampering shows up as a signature or proof failure.
  WireFeedTransport(AnchordClient& client, std::string publisher);

  const std::string& name() const override { return publisher_; }
  const Bytes& key_id() const override { return key_id_; }

  Result<rsf::FeedFetch> feed_fetch(
      const rsf::FeedFetchQuery& query) override;

 private:
  AnchordClient& client_;
  std::string publisher_;
  Bytes key_id_;
};

}  // namespace anchor::anchord
