#pragma once
// Shared-medium arbiter: CSMA-style single-transmitter semantics.
//
// Only one frame can occupy the air at a time (§4.2: "multiple AMPDUs
// cannot be transmitted simultaneously"). The AP downlink, the client
// uplink, and any saturating interferers (bulk flows on *other* APs
// sharing the channel, Fig. 17) all contend here. Interferers are modelled
// as virtual contenders that win each contention round with probability
// n/(n+1), which yields the 1/(n+1) long-run airtime share of saturating
// 802.11 DCF contenders while keeping the event count low.

#include <cstdint>
#include <functional>

#include "sim/random.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace zhuge::wireless {

using sim::Duration;
using sim::TimePoint;

/// FIFO medium arbiter with interferer contention.
class Medium {
 public:
  static constexpr Duration kDifs = Duration::micros(34);
  static constexpr Duration kBackoffMean = Duration::micros(80);  ///< exponential backoff
  static constexpr Duration kInterfererFrame = Duration::micros(1500);  ///< airtime/frame

  /// `interferers` saturating contenders share the channel.
  Medium(sim::Simulator& simulator, sim::Rng& rng, int interferers = 0)
      : sim_(simulator), rng_(rng), interferers_(interferers) {}

  /// Request the medium. When granted, `on_grant` runs and returns the
  /// airtime the frame will occupy; `on_done` runs when that airtime ends.
  /// Grants are FIFO among local requesters; interferers may win rounds
  /// in between.
  void transmit(std::function<Duration()> on_grant, std::function<void()> on_done) {
    waiting_.push_back({std::move(on_grant), std::move(on_done)});
    if (!busy_) grant_next();
  }

  [[nodiscard]] int interferers() const { return interferers_; }
  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] std::uint64_t interferer_wins() const { return interferer_wins_; }

 private:
  struct Request {
    std::function<Duration()> on_grant;
    std::function<void()> on_done;
  };

  void grant_next() {
    if (waiting_.empty()) {
      busy_ = false;
      return;
    }
    busy_ = true;
    const Duration gap =
        kDifs + Duration::from_seconds(rng_.exponential(kBackoffMean.to_seconds()));
    // One contention round: with n saturating interferers, the local
    // requester wins with probability 1/(n+1).
    const int n = interferers_;
    if (n > 0 &&
        rng_.uniform() < static_cast<double>(n) / static_cast<double>(n + 1)) {
      ++interferer_wins_;
      sim_.schedule_after(gap + kInterfererFrame, [this] { grant_next(); });
      return;
    }
    sim_.schedule_after(gap, [this] {
      Request req = std::move(waiting_.front());
      waiting_.pop_front();
      const Duration airtime = req.on_grant();
      sim_.schedule_after(airtime, [this, done = std::move(req.on_done)] {
        done();
        grant_next();
      });
    });
  }

  sim::Simulator& sim_;
  sim::Rng& rng_;
  int interferers_;
  sim::Ring<Request> waiting_;
  bool busy_ = false;
  std::uint64_t interferer_wins_ = 0;
};

}  // namespace zhuge::wireless
