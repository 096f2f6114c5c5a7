#include "anchord/feed_transport.hpp"

#include "util/simsig.hpp"

namespace anchor::anchord {

WireFeedTransport::WireFeedTransport(AnchordClient& client,
                                     std::string publisher)
    : client_(client),
      publisher_(std::move(publisher)),
      key_id_(SimSig::keygen("rsf-feed-" + publisher_).key_id) {}

Result<rsf::FeedFetch> WireFeedTransport::feed_fetch(
    const rsf::FeedFetchQuery& query) {
  Request request;
  request.verb = Verb::kFeedFetch;
  request.feed_query = query;
  auto response = client_.call(std::move(request));
  if (!response) return err(response.error());
  if (!response.value().ok) {
    return err(response.value().detail.empty()
                   ? "feed-fetch: daemon refused the request"
                   : response.value().detail);
  }
  return std::move(response.value().feed);
}

}  // namespace anchor::anchord
