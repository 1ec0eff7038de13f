// Fixture: the std::deque uses of per_packet_deque.cpp, each silenced by a
// suppression comment (same-line and own-line forms both exercised).
#include <deque>

struct Packet {
  int bytes = 0;
};

class Queue {
 public:
  // zlint-allow(per-packet-deque): fixture exercises own-line form
  std::deque<int> snapshot() const { return {}; }

 private:
  std::deque<Packet> queue_;  // zlint-allow(per-packet-deque): same-line form
  using Times = std::deque<long>;  // zlint-allow(per-packet-deque): alias
};
