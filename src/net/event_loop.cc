#include "net/event_loop.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <atomic>
#include <vector>

namespace jecb::net {

namespace {

// Process-wide stop flag: the only state a signal handler may touch.
// Lock-free atomic rather than volatile sig_atomic_t so that raising it
// from another *thread* (tests, embedding hosts) is defined too; relaxed
// atomic ops on a lock-free int are async-signal-safe.
std::atomic<int> g_stop_flag{0};
static_assert(std::atomic<int>::is_always_lock_free);

void StopSignalHandler(int) {
  g_stop_flag.store(1, std::memory_order_relaxed);
}

constexpr int kPollTimeoutMs = 50;
constexpr size_t kReadChunk = 64 * 1024;

}  // namespace

void InstallStopSignalHandler() {
  struct sigaction sa{};
  sa.sa_handler = StopSignalHandler;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

void RaiseStopFlag() { g_stop_flag.store(1, std::memory_order_relaxed); }
void ClearStopFlag() { g_stop_flag.store(0, std::memory_order_relaxed); }
bool StopFlagRaised() { return g_stop_flag.load(std::memory_order_relaxed) != 0; }

EventLoop::EventLoop(Socket listener)
    : listener_(std::move(listener)), wake_(eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  // The loop multiplexes with poll(); reads must never block it.
  SetNonBlocking(listener_, true);
}

void EventLoop::RequestStop() {
  stop_requested_.store(true, std::memory_order_relaxed);
  // Without an eventfd (creation failed) poll() ignores the -1 entry and
  // the stop is seen within one poll timeout instead.
  const uint64_t one = 1;
  if (wake_.valid()) (void)!write(wake_.fd(), &one, sizeof(one));
}

bool EventLoop::stopped() const {
  return stop_requested_.load(std::memory_order_relaxed) ||
         g_stop_flag.load(std::memory_order_relaxed) != 0;
}

bool EventLoop::PopReady(int64_t focus, int64_t* peer, Frame* frame) {
  if (focus >= 0) {
    auto it = peers_.find(focus);
    if (it == peers_.end() || it->second.ready.empty()) return false;
    *peer = focus;
    *frame = std::move(it->second.ready.front());
    it->second.ready.pop_front();
    return true;
  }
  for (auto& [id, p] : peers_) {
    if (!p.ready.empty()) {
      *peer = id;
      *frame = std::move(p.ready.front());
      p.ready.pop_front();
      return true;
    }
  }
  return false;
}

void EventLoop::ReadPeer(int64_t id, Peer& peer) {
  char chunk[kReadChunk];
  for (;;) {
    RecvSomeResult r = RecvSome(peer.sock, chunk, sizeof(chunk));
    if (r.n > 0) {
      stats_.bytes_received += static_cast<uint64_t>(r.n);
      peer.in.Feed(chunk, static_cast<size_t>(r.n));
      if (static_cast<size_t>(r.n) < sizeof(chunk)) break;
      continue;  // kernel may hold more
    }
    if (r.n == 0 || !r.status.ok()) {
      // EOF or hard error: drop the peer. Held transactions are released by
      // NextFrom observing the disappearance.
      stats_.peer_disconnects++;
      peers_.erase(id);
      return;
    }
    break;  // EAGAIN: drained
  }
  Frame f;
  for (;;) {
    FrameBuffer::NextResult res = peer.in.Next(&f);
    if (res == FrameBuffer::NextResult::kNeedMore) break;
    if (res == FrameBuffer::NextResult::kCorrupt) {
      // An undecodable stream cannot be resynchronized; cut the peer loose
      // (its coordinator will surface the dead connection) and count it.
      stats_.corrupt_streams++;
      stats_.peer_disconnects++;
      peers_.erase(id);
      return;
    }
    stats_.frames_received++;
    if (f.seq <= peer.last_seq) {
      stats_.dedup_dropped++;  // deliberate duplicate from the fault shim
      continue;
    }
    peer.last_seq = f.seq;
    peer.ready.push_back(std::move(f));
  }
}

bool EventLoop::PollOnce(int64_t focus) {
  if (stopped()) return false;
  std::vector<pollfd> fds;
  std::vector<int64_t> ids;  // ids[i] corresponds to fds[i]; -1 = listener
  fds.push_back({wake_.fd(), POLLIN, 0});
  ids.push_back(-2);  // readable only once stopped: the next PollOnce returns
  if (focus < 0) {
    fds.push_back({listener_.fd(), POLLIN, 0});
    ids.push_back(-1);
    for (auto& [id, p] : peers_) {
      fds.push_back({p.sock.fd(), POLLIN, 0});
      ids.push_back(id);
    }
  } else {
    auto it = peers_.find(focus);
    if (it == peers_.end()) return false;  // peer vanished during a hold
    fds.push_back({it->second.sock.fd(), POLLIN, 0});
    ids.push_back(focus);
  }
  int n = poll(fds.data(), fds.size(), kPollTimeoutMs);
  if (n <= 0) return !stopped();  // timeout or EINTR: let the caller re-check
  for (size_t i = 0; i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0 || ids[i] == -2) {
      continue;
    }
    if (ids[i] < 0) {
      // Accept everything pending; new peers start reading next iteration.
      for (;;) {
        Result<Socket> conn = Accept(listener_);
        if (!conn.ok()) break;  // EAGAIN (or a transient error): done
        SetNonBlocking(conn.value(), true);
        Peer peer;
        peer.sock = std::move(conn).value();
        peers_.emplace(next_peer_id_++, std::move(peer));
        stats_.peers_accepted++;
      }
      continue;
    }
    auto it = peers_.find(ids[i]);
    if (it != peers_.end()) ReadPeer(ids[i], it->second);
  }
  return true;
}

bool EventLoop::Next(int64_t* peer, Frame* frame) {
  for (;;) {
    if (PopReady(-1, peer, frame)) return true;
    if (!PollOnce(-1)) return false;
  }
}

bool EventLoop::NextFrom(int64_t peer, Frame* frame) {
  int64_t got = -1;
  for (;;) {
    if (PopReady(peer, &got, frame)) return true;
    if (peers_.find(peer) == peers_.end()) return false;  // disconnected
    if (!PollOnce(peer)) return false;
  }
}

void EventLoop::Send(int64_t peer, MsgType type, uint64_t seq,
                     std::string_view payload) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  std::string frame = EncodeFrame(type, seq, payload);
  if (SendAll(it->second.sock, frame.data(), frame.size()).ok()) {
    stats_.frames_sent++;
    stats_.bytes_sent += frame.size();
  } else {
    stats_.peer_disconnects++;
    peers_.erase(it);
  }
}

void EventLoop::ClosePeer(int64_t peer) { peers_.erase(peer); }

}  // namespace jecb::net
