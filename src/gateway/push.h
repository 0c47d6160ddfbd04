// M-Push feed: the per-shard notifier/feeder split behind the wire's
// subscription plane.
//
// The paper's WebView plane delivers platform callbacks through a
// notification table the client *polls*; at production scale polling is
// the first thing to die. The feed inverts that: platform callbacks
// (SMS delivery reports, proximity alerts, call-state changes, WebView
// notification posts) are Publish()ed into their shard's feed, which
//  * notifies — live listeners (the wire server's per-connection
//    subscriptions) get each event synchronously at publish time, and
//  * feeds — a bounded replay ring retains the last N events under
//    monotonic cursors, so a reconnecting subscriber catches up from its
//    last cursor instead of silently missing the gap.
// When the ring has already evicted part of a requested range the replay
// reports the gap explicitly — the caller surfaces it as a typed
// kEventsDropped marker, never as silent loss.
//
// Threading: one feed per shard, but publishers are not confined to the
// shard worker (Gateway::PublishEvent and the WebView bridge run on
// caller threads), so the feed is internally mutex-guarded. Listeners
// run under that mutex: they must be quick (enqueue-and-signal, the wire
// server's delivery path) and must not re-enter the feed. In exchange,
// RemoveListener() returning guarantees no further callback for that
// listener is running or will run — the teardown fence connection close
// needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mobivine::gateway {

/// Callback families a subscription can listen to. Numeric values are
/// the wire encoding (wire::PushTopic mirrors this enum one to one; the
/// wire layer static_casts between them, like WireStatus/ErrorCode).
enum class PushTopic : std::uint8_t {
  kAll = 0,           ///< wildcard: every topic on the owning shard
  kProximity = 1,     ///< ProximityListener::proximityEvent
  kSmsDelivery = 2,   ///< SmsListener::smsStatusChanged delivery reports
  kCallState = 3,     ///< CallListener::callStateChanged
  kNotification = 4,  ///< WebView NotificationTable posts (paper Fig 6)
};

[[nodiscard]] const char* ToString(PushTopic topic);

/// An event body as the feed keeps it: immutable and reference-counted.
/// Publish stores it once; the replay ring, replays and every listener's
/// queue hold references, so a broadcast to N subscriptions costs N
/// reference bumps, not N copies.
using SharedBody = std::shared_ptr<const std::string>;

/// One pushed platform callback as it sits in the feed.
struct PushEvent {
  PushTopic topic = PushTopic::kAll;
  std::uint64_t cursor = 0;     ///< feed-assigned, monotonic from 1
  std::uint64_t client_id = 0;  ///< origin client; 0 = shard-wide broadcast
  SharedBody body;              ///< never null once published
};

/// Does an event match a subscription's (topic, client) filter? Topic
/// kAll subscribes to everything; client 0 subscribes to every client;
/// broadcast events (client_id 0) reach every subscriber of the topic.
[[nodiscard]] inline bool MatchesSubscription(const PushEvent& event,
                                              PushTopic sub_topic,
                                              std::uint64_t sub_client) {
  if (sub_topic != PushTopic::kAll && event.topic != sub_topic) return false;
  return sub_client == 0 || event.client_id == 0 ||
         event.client_id == sub_client;
}

class PushFeed {
 public:
  using Listener = std::function<void(const PushEvent&)>;

  /// `replay_capacity` bounds the ring; older events are evicted
  /// (counted) as new ones arrive. Zero means "no replay": every
  /// kFromCursor subscribe starts with a gap.
  explicit PushFeed(std::size_t replay_capacity);

  PushFeed(const PushFeed&) = delete;
  PushFeed& operator=(const PushFeed&) = delete;

  /// Append an event: assign the next cursor, store `body` once as a
  /// SharedBody, retain the event in the ring (evicting the oldest past
  /// capacity) and invoke every listener with it. Returns the assigned
  /// cursor.
  std::uint64_t Publish(PushTopic topic, std::uint64_t client_id,
                        std::string body);

  /// Register a live listener; returns its id. The listener sees every
  /// event published after this returns (and none published before —
  /// catch-up is ReplayAfter's job; do it from the same thread between
  /// AddListener and the first delivery to get the seam exactly once).
  std::uint64_t AddListener(Listener listener);

  /// Unregister. On return no callback for `id` is in flight or will
  /// ever run again (publishes hold the same mutex).
  void RemoveListener(std::uint64_t id);

  /// What a replay actually covered.
  struct ReplayResult {
    std::uint64_t delivered = 0;  ///< events handed to `fn`
    /// The cursor the live stream resumes after: the last retained
    /// cursor <= now, whether or not it matched the filter. Equal to the
    /// requested cursor when nothing new happened; clamped down to the
    /// feed's last cursor when the request was from the future (a cursor
    /// from another worker after a plan change).
    std::uint64_t resume_cursor = 0;
    bool gap = false;            ///< [gap_first, gap_last] were evicted
    std::uint64_t gap_first = 0;
    std::uint64_t gap_last = 0;
  };

  /// Feed every retained event with cursor > `after` matching (topic,
  /// client) to `fn`, oldest first. Events evicted from the ring inside
  /// (after, first-retained) are reported as a gap.
  ReplayResult ReplayAfter(std::uint64_t after, PushTopic topic,
                           std::uint64_t client_id, const Listener& fn);

  /// The exactly-once subscribe seam: replay (after, now] into
  /// `replay_fn` and register `listener` for everything newer — under
  /// ONE lock acquisition, so no event lands in both the replay and the
  /// live stream and none falls between them. Returns the listener id;
  /// `result` (if non-null) receives what the replay covered.
  std::uint64_t AddListenerAndReplay(std::uint64_t after, PushTopic topic,
                                     std::uint64_t client_id,
                                     const Listener& replay_fn,
                                     Listener listener, ReplayResult* result);

  /// Cursor of the newest event ever published (0 = none yet).
  [[nodiscard]] std::uint64_t last_cursor() const;

  struct Counters {
    std::uint64_t published = 0;
    std::uint64_t evicted = 0;    ///< pushed out of the replay ring
    std::uint64_t listeners = 0;  ///< currently registered
    std::uint64_t replays = 0;    ///< ReplayAfter calls
    std::uint64_t replay_gaps = 0;  ///< replays that reported a gap
  };
  [[nodiscard]] Counters GetCounters() const;

 private:
  struct Entry {
    std::uint64_t id;
    Listener listener;
  };

  /// ReplayAfter's body; mutex_ must be held.
  ReplayResult ReplayLocked(std::uint64_t after, PushTopic topic,
                            std::uint64_t client_id, const Listener& fn);

  const std::size_t replay_capacity_;
  mutable std::mutex mutex_;
  std::uint64_t next_cursor_ = 1;
  std::uint64_t next_listener_id_ = 1;
  std::deque<PushEvent> ring_;  ///< retained events, oldest first
  std::vector<Entry> listeners_;
  std::uint64_t evicted_ = 0;
  std::uint64_t replays_ = 0;
  std::uint64_t replay_gaps_ = 0;
};

}  // namespace mobivine::gateway
