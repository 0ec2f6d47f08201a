// PVA-style publish/subscribe channel and the mirror server.
//
// The detector IOC publishes frames on a Channel; the beamline's
// PvMirrorServer subscribes and republishes on its own channel so multiple
// consumers (file-writer, NERSC streaming service) receive every frame
// without loading the IOC. Delivery to each subscriber is optionally
// delayed through a Link (the ESnet hop for the remote streaming service).
//
// Subscribers are sinks: each message is handed to a callback as it is
// delivered, so services consume frames without a parked coroutine.
// Polling consumers subscribe() a queue instead, with PVA monitor
// semantics: a per-subscriber FIFO with a bounded depth; when the queue
// overruns, the oldest message is dropped and a counter increments
// (slow-consumer overrun, visible in tests).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "sim/engine.hpp"
#include "sim/resources.hpp"

namespace alsflow::net {

template <typename T>
class Channel;

// A subscription handle: an awaitable queue of messages.
template <typename T>
class Subscription {
 public:
  explicit Subscription(std::size_t max_depth) : max_depth_(max_depth) {}

  sim::Queue<T>& queue() { return queue_; }
  std::size_t overruns() const { return overruns_; }

  void deliver(T msg) {
    if (max_depth_ > 0 && queue_.size() >= max_depth_) {
      (void)queue_.try_pop();  // drop oldest
      ++overruns_;
    }
    queue_.push(std::move(msg));
  }

 private:
  sim::Queue<T> queue_;
  std::size_t max_depth_;
  std::size_t overruns_ = 0;
};

template <typename T>
class Channel {
 public:
  // A sink receives each message synchronously when it is delivered: inside
  // publish() for a local subscriber, when the link transfer lands for a
  // remote one. A sink must not publish back into the channel it listens
  // on (none does: the mirror republishes on its own channel).
  using Sink = std::function<void(T)>;
  using SizeFn = std::function<Bytes(const T&)>;

  Channel(sim::Engine& eng, std::string name) : eng_(eng), name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // Deliver every message to `sink`, optionally through a link
  // (bandwidth/latency between publisher and this subscriber) with a
  // per-message payload size.
  void attach(Sink sink, Link* link = nullptr, SizeFn size_fn = {}) {
    subs_.push_back(Entry{std::move(sink), link, std::move(size_fn)});
  }

  // Subscribe a polling consumer: messages land in a queue (fixed payload
  // size per message when delivered through `link`).
  std::shared_ptr<Subscription<T>> subscribe(Link* link = nullptr,
                                             Bytes message_bytes = 0,
                                             std::size_t max_depth = 0) {
    auto sub = std::make_shared<Subscription<T>>(max_depth);
    attach([sub](T msg) { sub->deliver(std::move(msg)); }, link,
           [message_bytes](const T&) { return message_bytes; });
    return sub;
  }

  void publish(T msg) {
    ++published_;
    for (auto& entry : subs_) {
      if (entry.link != nullptr) {
        deliver_via_link(entry, msg);
      } else {
        entry.sink(msg);
      }
    }
  }

  std::size_t published() const { return published_; }
  std::size_t subscriber_count() const { return subs_.size(); }

 private:
  struct Entry {
    Sink sink;
    Link* link;
    SizeFn size_fn;
  };

  void deliver_via_link(Entry& entry, T msg) {
    const Bytes bytes = entry.size_fn ? entry.size_fn(msg) : 0;
    // Fire-and-forget coroutine: traverse the link, then deliver.
    [](Link* link, Bytes b, Sink sink, T m) -> sim::Proc {
      co_await link->send(b);
      sink(std::move(m));
    }(entry.link, bytes, entry.sink, std::move(msg))
        .detach();
  }

  sim::Engine& eng_;
  std::string name_;
  std::vector<Entry> subs_;
  std::size_t published_ = 0;
};

// Republishes everything from an upstream channel onto its own channel.
// The mirror is itself a subscriber, so downstream consumers never touch
// the IOC channel directly (Section 4.2.1).
template <typename T>
class MirrorServer {
 public:
  MirrorServer(sim::Engine& eng, Channel<T>& upstream, std::string name)
      : out_(eng, std::move(name)) {
    upstream.attach([this](T msg) {
      ++forwarded_;
      out_.publish(std::move(msg));
    });
  }
  // The upstream channel's sink holds `this`.
  MirrorServer(const MirrorServer&) = delete;
  MirrorServer& operator=(const MirrorServer&) = delete;

  Channel<T>& channel() { return out_; }
  std::size_t forwarded() const { return forwarded_; }

 private:
  Channel<T> out_;
  std::size_t forwarded_ = 0;
};

}  // namespace alsflow::net
