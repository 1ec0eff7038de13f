// Fixture: per-packet-deque must trip on each std::deque below (and on
// nothing else) when analyzed under a packet-path layer.
#include <deque>

struct Packet {
  int bytes = 0;
};

class Queue {
 public:
  void enqueue(Packet p) { queue_.push_back(p); }  // "enqueue" alone: silent
  std::deque<int> snapshot() const { return {}; }  // return type: trips

 private:
  std::deque<Packet> queue_;  // member: trips
  using Times = std::deque<long>;  // alias: trips
};

namespace other {
template <typename T>
struct deque {};  // a non-std deque: silent
}  // namespace other

other::deque<int> not_std;  // silent
