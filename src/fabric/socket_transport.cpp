#include "fabric/socket_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/log.hpp"

namespace tc::fabric {

namespace {

// Bytes after the u32 length prefix that every frame carries before its
// payload: kind(1) code(1) am_id(2) src(4) cid(8) f0(8) f1(8) f2(8).
constexpr std::size_t kHeaderBytes = 40;
constexpr std::size_t kWireFrameMin = 4 + kHeaderBytes;

// Bootstrap re-dials a peer that has not bound yet with exponential
// backoff: quick when the peer is a moment behind, cheap when it is slow.
constexpr std::chrono::microseconds kDialBackoffMin{100};
constexpr std::chrono::microseconds kDialBackoffMax{5000};

template <typename T>
std::uint8_t* put_le(std::uint8_t* out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    *out++ = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return out;
}
std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}
std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

Status errno_status(const std::string& what) {
  return internal_error(what + ": " + std::strerror(errno));
}

struct Endpoint {
  bool is_unix = true;
  std::string path;        // unix
  std::string host;        // tcp
  std::uint16_t port = 0;  // tcp
};

StatusOr<Endpoint> parse_endpoint(const std::string& spec) {
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.is_unix = true;
    ep.path = spec.substr(5);
    if (ep.path.empty()) return invalid_argument("empty unix path: " + spec);
    if (ep.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      return invalid_argument("unix path too long (sun_path cap): " + spec);
    }
    return ep;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    ep.is_unix = false;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon + 1 == rest.size()) {
      return invalid_argument("want tcp:<ipv4>:<port>, got " + spec);
    }
    ep.host = rest.substr(0, colon);
    const long port = std::strtol(rest.c_str() + colon + 1, nullptr, 10);
    if (port <= 0 || port > 65535) {
      return invalid_argument("bad tcp port in " + spec);
    }
    ep.port = static_cast<std::uint16_t>(port);
    return ep;
  }
  return invalid_argument("endpoint wants unix:<path> or tcp:<ip>:<port>: " +
                          spec);
}

Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return errno_status("fcntl(O_NONBLOCK)");
  }
  return Status::ok();
}

void set_tcp_nodelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Status write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return errno_status("bootstrap write");
    }
  }
  return Status::ok();
}

Status read_exact(int fd, std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::recv(fd, data + off, size - off, 0);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EINTR)) {
      continue;
    } else if (n == 0) {
      return unavailable("bootstrap peer closed mid-hello");
    } else {
      return errno_status("bootstrap read");
    }
  }
  return Status::ok();
}

}  // namespace

SocketTransport::SocketTransport(std::size_t node_count, NodeId self,
                                 SocketTransportOptions options)
    : options_(options), node_count_(node_count), self_(self) {
  nodes_.resize(node_count);
}

SocketTransport::~SocketTransport() {
  stop_progress_threads();
  for (auto& state : nodes_) {
    if (state == nullptr) continue;
    for (Link& link : state->links) {
      if (link.fd >= 0) ::close(link.fd);
      link.fd = -1;
    }
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!listen_unix_path_.empty()) ::unlink(listen_unix_path_.c_str());
}

std::vector<std::string> SocketTransport::unix_endpoints(
    std::size_t node_count, const std::string& dir) {
  std::vector<std::string> endpoints;
  endpoints.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    endpoints.push_back("unix:" + dir + "/n" + std::to_string(i) + ".sock");
  }
  return endpoints;
}

StatusOr<std::unique_ptr<SocketTransport>> SocketTransport::create_threaded(
    std::size_t node_count, SocketTransportOptions options) {
  if (node_count == 0) return invalid_argument("need at least one node");
  auto transport = std::unique_ptr<SocketTransport>(
      new SocketTransport(node_count, kAllLocal, options));
  for (std::size_t i = 0; i < node_count; ++i) {
    transport->nodes_[i] = std::make_unique<NodeState>();
    transport->nodes_[i]->links.resize(node_count);
  }
  for (std::size_t i = 0; i < node_count; ++i) {
    for (std::size_t j = i + 1; j < node_count; ++j) {
      int fds[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        return errno_status("socketpair");
      }
      for (int fd : fds) {
        if (Status s = set_nonblocking(fd); !s.is_ok()) return s;
      }
      transport->nodes_[i]->links[j] = Link{fds[0], true};
      transport->nodes_[j]->links[i] = Link{fds[1], true};
    }
  }
  return transport;
}

StatusOr<std::unique_ptr<SocketTransport>> SocketTransport::create_process(
    std::size_t node_count, NodeId self,
    const std::vector<std::string>& endpoints, SocketTransportOptions options) {
  if (self >= node_count) return invalid_argument("self out of range");
  if (endpoints.size() != node_count) {
    return invalid_argument("need one endpoint per node");
  }
  // Validate the whole endpoint list before touching the network: a typo in
  // a peer we'd only accept from should fail fast, not as a bootstrap
  // timeout ten seconds later.
  for (const std::string& spec : endpoints) {
    TC_RETURN_IF_ERROR(parse_endpoint(spec).status());
  }
  auto transport = std::unique_ptr<SocketTransport>(
      new SocketTransport(node_count, self, options));
  NodeState& state =
      *(transport->nodes_[self] = std::make_unique<NodeState>());
  state.links.resize(node_count);

  // 1. Bind + listen on our own endpoint so every later dialer succeeds
  //    regardless of accept timing (the backlog holds connections).
  TC_ASSIGN_OR_RETURN(Endpoint ep, parse_endpoint(endpoints[self]));
  if (ep.is_unix) {
    transport->listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (transport->listen_fd_ < 0) return errno_status("socket(AF_UNIX)");
    ::unlink(ep.path.c_str());  // stale path from a crashed previous run
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, ep.path.c_str(), sizeof(addr.sun_path) - 1);
    if (::bind(transport->listen_fd_,
               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      return errno_status("bind(" + ep.path + ")");
    }
    transport->listen_unix_path_ = ep.path;
  } else {
    transport->listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (transport->listen_fd_ < 0) return errno_status("socket(AF_INET)");
    int one = 1;
    ::setsockopt(transport->listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ep.port);
    if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
      return invalid_argument("bad ipv4 address: " + ep.host);
    }
    if (::bind(transport->listen_fd_,
               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      return errno_status("bind(tcp " + ep.host + ")");
    }
  }
  if (::listen(transport->listen_fd_, static_cast<int>(node_count)) != 0) {
    return errno_status("listen");
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options.connect_timeout_ms);

  // 2. Dial every lower-id peer (it may not have bound yet — retry until
  //    the deadline) and identify ourselves with a kHello frame.
  for (NodeId peer = 0; peer < self; ++peer) {
    TC_ASSIGN_OR_RETURN(Endpoint pep, parse_endpoint(endpoints[peer]));
    int fd = -1;
    std::chrono::microseconds backoff = kDialBackoffMin;
    for (;;) {
      fd = ::socket(pep.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return errno_status("socket(dial)");
      int rc;
      if (pep.is_unix) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, pep.path.c_str(),
                     sizeof(addr.sun_path) - 1);
        rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr));
      } else {
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(pep.port);
        if (::inet_pton(AF_INET, pep.host.c_str(), &addr.sin_addr) != 1) {
          ::close(fd);
          return invalid_argument("bad ipv4 address: " + pep.host);
        }
        rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr));
      }
      if (rc == 0) break;
      ::close(fd);
      fd = -1;
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        return unavailable("bootstrap: node " + std::to_string(peer) +
                           " never came up at " + endpoints[peer]);
      }
      std::this_thread::sleep_for(
          std::min<std::chrono::steady_clock::duration>(backoff,
                                                        deadline - now));
      backoff = std::min(backoff * 2, kDialBackoffMax);
    }
    Header hello;
    hello.kind = FrameKind::kHello;
    hello.src = self;
    std::uint8_t wire[kWireFrameMin];
    encode(wire, hello, {});
    if (Status s = write_all(fd, wire, sizeof(wire)); !s.is_ok()) {
      ::close(fd);
      return s;
    }
    state.links[peer] = Link{fd, true};
  }

  // 3. Accept every higher-id peer; the kHello names which one each is.
  std::size_t expected = node_count - 1 - self;
  while (expected > 0) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      return unavailable("bootstrap: timed out waiting for " +
                         std::to_string(expected) + " inbound peers");
    }
    pollfd pfd{transport->listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) continue;
    const int fd = ::accept(transport->listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return errno_status("accept");
    }
    // A dead dialer must not hang the hello read forever.
    timeval tv{};
    tv.tv_sec = options.connect_timeout_ms / 1000;
    tv.tv_usec = (options.connect_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::uint8_t hello[kWireFrameMin];
    if (Status s = read_exact(fd, hello, sizeof(hello)); !s.is_ok()) {
      ::close(fd);
      return s;
    }
    const Header h = decode(hello + 4);
    const NodeId peer = h.src;
    if (get_u32(hello) != kHeaderBytes || h.kind != FrameKind::kHello ||
        peer <= self || peer >= node_count || state.links[peer].fd >= 0) {
      ::close(fd);
      return internal_error("bootstrap: malformed hello from peer " +
                            std::to_string(peer));
    }
    state.links[peer] = Link{fd, true};
    --expected;
  }

  for (NodeId peer = 0; peer < node_count; ++peer) {
    if (peer == self) continue;
    Link& link = state.links[peer];
    if (Status s = set_nonblocking(link.fd); !s.is_ok()) return s;
    TC_ASSIGN_OR_RETURN(Endpoint pep, parse_endpoint(endpoints[peer]));
    if (!pep.is_unix) set_tcp_nodelay(link.fd);
  }
  // The mesh is complete: nobody will dial us again.
  ::close(transport->listen_fd_);
  transport->listen_fd_ = -1;
  if (!transport->listen_unix_path_.empty()) {
    ::unlink(transport->listen_unix_path_.c_str());
    transport->listen_unix_path_.clear();
  }
  return transport;
}

SocketTransport::NodeState* SocketTransport::local_state(NodeId node) {
  if (node >= node_count_) return nullptr;
  return nodes_[node].get();
}
const SocketTransport::NodeState* SocketTransport::local_state(
    NodeId node) const {
  if (node >= node_count_) return nullptr;
  return nodes_[node].get();
}

std::int64_t SocketTransport::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Worker::Stats SocketTransport::worker_stats(NodeId node) const {
  const NodeState* state = local_state(node);
  return state != nullptr ? state->worker.stats() : Worker::Stats{};
}

StatusOr<MemRegion> SocketTransport::allocate_window(NodeId node,
                                                     std::size_t length) {
  if (length == 0) return invalid_argument("allocate_window: empty window");
  std::uint8_t* base = nullptr;
  {
    std::lock_guard lock(arena_mu_);
    arena_.emplace_back(length);
    base = arena_.back().data();
  }
  return register_window(node, base, length);
}

void SocketTransport::start_progress_threads(
    const std::vector<NodeId>& nodes) {
  for (NodeId node : nodes) {
    threads_.emplace_back([this, node] {
      int idle_spins = 0;
      while (!stop_.load(std::memory_order_relaxed)) {
        if (progress(node)) {
          idle_spins = 0;
          continue;
        }
        if (++idle_spins < 64) continue;
        if (idle_spins < 1024) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
    });
  }
}

void SocketTransport::stop_progress_threads() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  stop_.store(false, std::memory_order_relaxed);
}

// --- completion stashes -------------------------------------------------------

std::uint64_t SocketTransport::stash_completion(NodeId node, NodeId dst,
                                                CompletionFn cb) {
  NodeState& state = *nodes_[node];
  std::lock_guard lock(state.completions_mu);
  const std::uint64_t cid = state.next_cid++;
  state.completions.emplace(cid, PendingCompletion{std::move(cb), dst});
  return cid;
}

std::uint64_t SocketTransport::stash_get_completion(NodeId node, NodeId dst,
                                                    GetCompletionFn cb) {
  NodeState& state = *nodes_[node];
  std::lock_guard lock(state.completions_mu);
  const std::uint64_t cid = state.next_cid++;
  state.get_completions.emplace(cid, PendingGet{std::move(cb), dst});
  return cid;
}

void SocketTransport::complete(NodeId node, std::uint64_t cid, Status status) {
  NodeState& state = *nodes_[node];
  CompletionFn cb;
  {
    std::lock_guard lock(state.completions_mu);
    auto it = state.completions.find(cid);
    if (it == state.completions.end()) return;
    cb = std::move(it->second.fn);
    state.completions.erase(it);
  }
  if (cb) cb(std::move(status));
}

void SocketTransport::complete_get(NodeId node, std::uint64_t cid,
                                   StatusOr<Bytes> result) {
  NodeState& state = *nodes_[node];
  GetCompletionFn cb;
  {
    std::lock_guard lock(state.completions_mu);
    auto it = state.get_completions.find(cid);
    if (it == state.get_completions.end()) return;
    cb = std::move(it->second.fn);
    state.get_completions.erase(it);
  }
  if (cb) cb(std::move(result));
}

void SocketTransport::fail_completions_for_peer(NodeId node, NodeId peer) {
  NodeState& state = *nodes_[node];
  std::vector<CompletionFn> cbs;
  std::vector<GetCompletionFn> get_cbs;
  {
    std::lock_guard lock(state.completions_mu);
    for (auto it = state.completions.begin();
         it != state.completions.end();) {
      if (it->second.dst == peer) {
        cbs.push_back(std::move(it->second.fn));
        it = state.completions.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = state.get_completions.begin();
         it != state.get_completions.end();) {
      if (it->second.dst == peer) {
        get_cbs.push_back(std::move(it->second.fn));
        it = state.get_completions.erase(it);
      } else {
        ++it;
      }
    }
  }
  const Status gone =
      unavailable("peer " + std::to_string(peer) + " disconnected");
  for (auto& cb : cbs) {
    if (cb) cb(gone);
  }
  for (auto& cb : get_cbs) {
    if (cb) cb(gone);
  }
}

// --- wire codec ---------------------------------------------------------------

void SocketTransport::encode(std::uint8_t* out, const Header& h,
                             ByteSpan payload) {
  out = put_le(out, static_cast<std::uint32_t>(kHeaderBytes + payload.size()));
  *out++ = static_cast<std::uint8_t>(h.kind);
  *out++ = h.code;
  out = put_le<std::uint16_t>(out, h.am_id);
  out = put_le<std::uint32_t>(out, h.src);
  out = put_le(out, h.cid);
  out = put_le(out, h.f0);
  out = put_le(out, h.f1);
  out = put_le(out, h.f2);
  if (!payload.empty()) std::memcpy(out, payload.data(), payload.size());
}

SocketTransport::Header SocketTransport::decode(const std::uint8_t* p) {
  Header h;
  h.kind = static_cast<FrameKind>(p[0]);
  h.code = p[1];
  h.am_id = get_u16(p + 2);
  h.src = get_u32(p + 4);
  h.cid = get_u64(p + 8);
  h.f0 = get_u64(p + 16);
  h.f1 = get_u64(p + 24);
  h.f2 = get_u64(p + 32);
  return h;
}

Status SocketTransport::send_frame(NodeId node, NodeId peer, const Header& h,
                                   ByteSpan payload, bool control) {
  if (peer == node) {
    Frame frame;
    static_cast<Header&>(frame) = h;
    frame.payload.assign(payload.begin(), payload.end());
    handle_frame(node, std::move(frame));
    return Status::ok();
  }
  NodeState& state = *nodes_[node];
  if (peer >= node_count_ || state.links[peer].fd < 0) {
    return invalid_argument("no link from node " + std::to_string(node) +
                            " to node " + std::to_string(peer));
  }
  Link& link = state.links[peer];
  if (!link.connected) {
    return unavailable("peer " + std::to_string(peer) + " disconnected");
  }
  if (!control && link.unwritten() >= options_.send_buffer_bytes) {
    backpressure_rejects_.fetch_add(1, std::memory_order_relaxed);
    return backpressure_status(node, peer);
  }
  const std::size_t at = link.tx.size();
  link.tx.resize(at + kWireFrameMin + payload.size());
  encode(link.tx.data() + at, h, payload);
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  // Inside a progress step the step's end flushes (see file comment).
  if (state.step_depth == 0) flush_link(node, peer);
  return Status::ok();
}

bool SocketTransport::flush_link(NodeId node, NodeId peer) {
  Link& link = nodes_[node]->links[peer];
  bool wrote = false;
  while (link.connected && link.unwritten() > 0) {
    const ssize_t n = ::send(link.fd, link.tx.data() + link.tx_off,
                             link.unwritten(), MSG_NOSIGNAL);
    if (n > 0) {
      wrote = true;
      send_calls_.fetch_add(1, std::memory_order_relaxed);
      bytes_sent_.fetch_add(static_cast<std::uint64_t>(n),
                            std::memory_order_relaxed);
      link.tx_off += static_cast<std::size_t>(n);
      if (link.unwritten() > 0) {
        // The kernel buffer is full: honest partial write. The tail stays
        // in place for the next flush, so frame bytes never interleave.
        partial_writes_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      disconnect_link(node, peer, "write failed");
      break;
    }
  }
  if (link.unwritten() == 0) {
    link.tx.clear();
    link.tx_off = 0;
  } else if (link.tx_off >= link.unwritten()) {
    link.tx.erase(link.tx.begin(),
                  link.tx.begin() + static_cast<std::ptrdiff_t>(link.tx_off));
    link.tx_off = 0;
  }
  return wrote;
}

bool SocketTransport::read_link(NodeId node, NodeId peer) {
  NodeState& state = *nodes_[node];
  Link& link = state.links[peer];
  if (!link.connected) return false;
  bool any = false;
  bool eof = false;
  bool err = false;
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(link.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      any = true;
      bytes_received_.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
      link.rx.insert(link.rx.end(), buf, buf + n);
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
    } else if (n == 0) {
      eof = true;
      break;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno == EINTR) {
      continue;
    } else {
      err = true;
      break;
    }
  }
  // Deliver every complete frame that arrived before a disconnect; only a
  // partial tail is discarded (and counted) by disconnect_link.
  if (any) parse_frames(node, peer, link);
  if (!link.connected) return any;
  if (eof || err) {
    disconnect_link(node, peer, eof ? "peer closed" : "read failed");
  }
  return any;
}

void SocketTransport::parse_frames(NodeId node, NodeId peer, Link& link) {
  std::size_t off = 0;
  while (link.rx.size() - off >= 4) {
    const std::uint32_t len = get_u32(link.rx.data() + off);
    if (len < kHeaderBytes || len > options_.max_frame_bytes) {
      protocol_error(node, peer, "frame length " + std::to_string(len));
      return;  // disconnect_link cleared rx
    }
    if (link.rx.size() - off - 4 < len) break;
    const std::uint8_t* p = link.rx.data() + off + 4;
    Frame frame;
    static_cast<Header&>(frame) = decode(p);
    // Replies are routed by src, so it must name the link's own peer.
    if (frame.kind < FrameKind::kHello || frame.kind > FrameKind::kBarrier ||
        frame.src != peer) {
      protocol_error(node, peer,
                     "frame kind " + std::to_string(p[0]) + " from src " +
                         std::to_string(frame.src));
      return;
    }
    frame.payload.assign(p + kHeaderBytes, p + len);
    off += 4 + len;
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    handle_frame(node, std::move(frame));
    // A handler may have torn this link down and cleared rx under us.
    if (!link.connected) return;
  }
  if (off > 0) {
    link.rx.erase(link.rx.begin(),
                  link.rx.begin() + static_cast<std::ptrdiff_t>(off));
  }
}

void SocketTransport::protocol_error(NodeId node, NodeId peer,
                                     const std::string& what) {
  TC_LOG(kError, "socket") << "node " << node << ": protocol error from peer "
                           << peer << " (" << what << ")";
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  disconnect_link(node, peer, "protocol error");
}

void SocketTransport::disconnect_link(NodeId node, NodeId peer,
                                      const char* reason) {
  NodeState& state = *nodes_[node];
  Link& link = state.links[peer];
  if (!link.connected) return;
  link.connected = false;
  if (!link.rx.empty()) {
    rx_partial_discards_.fetch_add(1, std::memory_order_relaxed);
  }
  link.rx.clear();
  link.tx.clear();
  link.tx_off = 0;
  disconnects_.fetch_add(1, std::memory_order_relaxed);
  TC_LOG(kWarn, "socket") << "node " << node << ": link to peer " << peer
                          << " down (" << reason << ")";
  fail_completions_for_peer(node, peer);
}

void SocketTransport::handle_frame(NodeId node, Frame frame) {
  NodeState& state = *nodes_[node];
  // Completions and barriers must survive full tx queues or flow control
  // deadlocks the protocol above it, so replies ride as control frames; a
  // dead link is already handled by fail_completions_for_peer on the
  // other side's disconnect.
  Header ack;
  ack.kind = FrameKind::kAck;
  ack.src = node;
  ack.cid = frame.cid;
  const auto reply = [&](const Status& status) {
    ack.code = static_cast<std::uint8_t>(status.code());
    (void)send_frame(node, frame.src, ack,
                     {reinterpret_cast<const std::uint8_t*>(
                          status.message().data()),
                      status.message().size()},
                     /*control=*/true);
  };
  switch (frame.kind) {
    case FrameKind::kHello:
      break;  // only meaningful during bootstrap
    case FrameKind::kSend: {
      state.worker.deliver_message(std::move(frame.payload), frame.src);
      if (ack.cid != 0) reply(Status::ok());
      break;
    }
    case FrameKind::kAm: {
      Status status = state.worker.deliver_am(frame.am_id,
                                              std::move(frame.payload),
                                              frame.src);
      if (ack.cid != 0) reply(status);
      break;
    }
    case FrameKind::kPut: {
      Status status = Status::ok();
      {
        std::lock_guard lock(state.mem_mu);
        auto target = state.memory.translate(frame.f0, frame.f1,
                                             frame.payload.size());
        if (target.is_ok()) {
          std::copy(frame.payload.begin(), frame.payload.end(), *target);
        } else {
          status = target.status();
        }
      }
      if (ack.cid != 0) reply(status);
      break;
    }
    case FrameKind::kGet: {
      ack.kind = FrameKind::kGetAck;
      Bytes data;
      Status status = Status::ok();
      {
        std::lock_guard lock(state.mem_mu);
        auto source = state.memory.translate(frame.f0, frame.f1, frame.f2);
        if (source.is_ok()) {
          data.assign(*source, *source + frame.f2);
        } else {
          status = source.status();
        }
      }
      if (status.is_ok()) {
        (void)send_frame(node, frame.src, ack, as_span(data),
                         /*control=*/true);
      } else {
        reply(status);
      }
      break;
    }
    case FrameKind::kAck: {
      Status status =
          frame.code == 0
              ? Status::ok()
              : Status(static_cast<ErrorCode>(frame.code),
                       std::string(frame.payload.begin(),
                                   frame.payload.end()));
      complete(node, frame.cid, std::move(status));
      break;
    }
    case FrameKind::kGetAck: {
      if (frame.code == 0) {
        complete_get(node, frame.cid, std::move(frame.payload));
      } else {
        complete_get(node, frame.cid,
                     Status(static_cast<ErrorCode>(frame.code),
                            std::string(frame.payload.begin(),
                                        frame.payload.end())));
      }
      break;
    }
    case FrameKind::kSegment: {
      MemRegion region;
      region.rkey = frame.f0;
      region.base = nullptr;  // one-sided access is serviced by the owner
      region.length = frame.f1;
      std::lock_guard lock(segments_mu_);
      remote_segments_[frame.src] = region;
      break;
    }
    case FrameKind::kBarrier: {
      if (frame.f1 == 0) {
        ++state.barrier_arrivals[frame.f0];
      } else {
        state.barrier_released.insert(frame.f0);
      }
      break;
    }
  }
}

// --- data plane ---------------------------------------------------------------

void SocketTransport::post_send(NodeId src, NodeId dst, ByteSpan data,
                                std::size_t fragments,
                                CompletionFn on_complete) {
  if (local_state(src) == nullptr) {
    if (on_complete) {
      on_complete(invalid_argument("post_send: node " + std::to_string(src) +
                                   " is not local"));
    }
    return;
  }
  Header h;
  h.kind = FrameKind::kSend;
  h.src = src;
  if (on_complete) h.cid = stash_completion(src, dst, std::move(on_complete));
  h.f0 = fragments;
  Status posted = send_frame(src, dst, h, data, /*control=*/false);
  if (!posted.is_ok() && h.cid != 0) complete(src, h.cid, std::move(posted));
}

void SocketTransport::post_am(NodeId src, NodeId dst, AmId id, ByteSpan payload,
                              CompletionFn on_complete) {
  if (local_state(src) == nullptr) {
    if (on_complete) {
      on_complete(invalid_argument("post_am: node " + std::to_string(src) +
                                   " is not local"));
    }
    return;
  }
  Header h;
  h.kind = FrameKind::kAm;
  h.am_id = id;
  h.src = src;
  if (on_complete) h.cid = stash_completion(src, dst, std::move(on_complete));
  Status posted = send_frame(src, dst, h, payload, /*control=*/false);
  if (!posted.is_ok() && h.cid != 0) complete(src, h.cid, std::move(posted));
}

void SocketTransport::post_put(NodeId src, const RemoteAddr& dst, ByteSpan data,
                               CompletionFn on_complete) {
  if (local_state(src) == nullptr) {
    if (on_complete) {
      on_complete(invalid_argument("post_put: node " + std::to_string(src) +
                                   " is not local"));
    }
    return;
  }
  Header h;
  h.kind = FrameKind::kPut;
  h.src = src;
  if (on_complete) {
    h.cid = stash_completion(src, dst.node, std::move(on_complete));
  }
  h.f0 = dst.rkey;
  h.f1 = dst.offset;
  Status posted = send_frame(src, dst.node, h, data, /*control=*/false);
  if (!posted.is_ok() && h.cid != 0) complete(src, h.cid, std::move(posted));
}

void SocketTransport::post_get(NodeId src, const RemoteAddr& addr,
                               std::size_t length,
                               GetCompletionFn on_complete) {
  if (local_state(src) == nullptr) {
    if (on_complete) {
      on_complete(invalid_argument("post_get: node " + std::to_string(src) +
                                   " is not local"));
    }
    return;
  }
  Header h;
  h.kind = FrameKind::kGet;
  h.src = src;
  h.cid = stash_get_completion(src, addr.node, std::move(on_complete));
  h.f0 = addr.rkey;
  h.f1 = addr.offset;
  h.f2 = length;
  Status posted = send_frame(src, addr.node, h, {}, /*control=*/false);
  if (!posted.is_ok()) complete_get(src, h.cid, std::move(posted));
}

// --- registered memory --------------------------------------------------------

StatusOr<MemRegion> SocketTransport::register_window(NodeId node, void* base,
                                                     std::size_t length) {
  NodeState* state = local_state(node);
  if (state == nullptr) {
    return invalid_argument("register_window: node " + std::to_string(node) +
                            " is not local");
  }
  std::lock_guard lock(state->mem_mu);
  return state->memory.register_memory(base, length);
}

Status SocketTransport::expose_segment(NodeId node, void* base,
                                       std::size_t length) {
  NodeState* state = local_state(node);
  if (state == nullptr) {
    return invalid_argument("expose_segment: node " + std::to_string(node) +
                            " is not local");
  }
  MemRegion region;
  {
    std::lock_guard lock(state->mem_mu);
    if (state->exposed.has_value()) {
      return already_exists("node " + std::to_string(node) +
                            " already exposes a segment");
    }
    auto registered = state->memory.register_memory(base, length);
    if (!registered.is_ok()) return registered.status();
    state->exposed = *registered;
    region = *registered;
  }
  if (self_ != kAllLocal) broadcast_segment(node, region);
  return Status::ok();
}

void SocketTransport::broadcast_segment(NodeId node, const MemRegion& region) {
  Header advert;
  advert.kind = FrameKind::kSegment;
  advert.src = node;
  advert.f0 = region.rkey;
  advert.f1 = region.length;
  for (NodeId peer = 0; peer < node_count_; ++peer) {
    if (peer == node) continue;
    (void)send_frame(node, peer, advert, {}, /*control=*/true);
  }
}

std::optional<MemRegion> SocketTransport::exposed_segment(NodeId node) const {
  const NodeState* state = local_state(node);
  if (state != nullptr) {
    std::lock_guard lock(state->mem_mu);
    return state->exposed;
  }
  std::lock_guard lock(segments_mu_);
  auto it = remote_segments_.find(node);
  if (it == remote_segments_.end()) return std::nullopt;
  return it->second;
}

Status SocketTransport::wait_for_segment(NodeId node, NodeId owner) {
  return run_until(node, [this, owner] {
    return exposed_segment(owner).has_value();
  });
}

// --- two-sided receive & AM dispatch ------------------------------------------

Status SocketTransport::register_am_handler(NodeId node, AmId id,
                                            AmHandler handler) {
  NodeState* state = local_state(node);
  if (state == nullptr) {
    return invalid_argument("register_am_handler: node " +
                            std::to_string(node) + " is not local");
  }
  return state->worker.register_am(id, std::move(handler));
}

Status SocketTransport::unregister_am_handler(NodeId node, AmId id) {
  NodeState* state = local_state(node);
  if (state == nullptr) {
    return invalid_argument("unregister_am_handler: node " +
                            std::to_string(node) + " is not local");
  }
  return state->worker.unregister_am(id);
}

std::optional<ReceivedMessage> SocketTransport::try_recv(NodeId node) {
  NodeState* state = local_state(node);
  if (state == nullptr) return std::nullopt;
  return state->worker.try_recv();
}

void SocketTransport::set_delivery_notifier(NodeId node,
                                            std::function<void()> notify) {
  NodeState* state = local_state(node);
  if (state == nullptr) return;
  state->worker.set_delivery_notifier(std::move(notify));
}

// --- timers & progress --------------------------------------------------------

void SocketTransport::execute_on(NodeId node, std::int64_t cost_ns,
                                 std::function<void()> fn, bool scale_cost) {
  // Wall-clock backend: modeled charges are no-ops and the caller is, per
  // the Transport contract, already on `node`'s progress context.
  (void)node;
  (void)cost_ns;
  (void)scale_cost;
  fn();
}

void SocketTransport::schedule_after(NodeId node, std::int64_t delay_ns,
                                     std::function<void()> fn) {
  NodeState* state = local_state(node);
  if (state == nullptr) return;
  std::lock_guard lock(state->timers_mu);
  state->timers.push_back(Timer{now_ns() + delay_ns, std::move(fn)});
}

bool SocketTransport::fire_due_timers(NodeId node) {
  NodeState& state = *nodes_[node];
  std::vector<std::function<void()>> due;
  {
    std::lock_guard lock(state.timers_mu);
    if (state.timers.empty()) return false;
    const std::int64_t now = now_ns();
    for (std::size_t i = 0; i < state.timers.size();) {
      if (state.timers[i].deadline_ns <= now) {
        due.push_back(std::move(state.timers[i].fn));
        state.timers[i] = std::move(state.timers.back());
        state.timers.pop_back();
      } else {
        ++i;
      }
    }
  }
  for (auto& fn : due) fn();
  return !due.empty();
}

bool SocketTransport::progress(NodeId node) {
  NodeState* state = local_state(node);
  if (state == nullptr) return false;
  ++state->step_depth;
  bool did_work = fire_due_timers(node);
  for (NodeId peer = 0; peer < node_count_; ++peer) {
    if (peer != node) did_work |= read_link(node, peer);
  }
  --state->step_depth;
  // Everything this step posted (and any tail a full kernel buffer left
  // behind) leaves in one send(2) per link.
  for (NodeId peer = 0; peer < node_count_; ++peer) {
    if (peer != node) did_work |= flush_link(node, peer);
  }
  return did_work;
}

Status SocketTransport::run_until(NodeId node,
                                  const std::function<bool()>& pred) {
  if (local_state(node) == nullptr) {
    return invalid_argument("run_until: node " + std::to_string(node) +
                            " is not local");
  }
  const std::int64_t deadline =
      now_ns() + options_.run_until_timeout_ms * 1'000'000;
  int idle_spins = 0;
  std::uint32_t iterations = 0;
  while (!pred()) {
    // Poll the budget even while busy: a self-sustaining forward loop must
    // still hit the watchdog instead of hanging ctest.
    if ((++iterations & 0xFF) == 0 && now_ns() > deadline) {
      return resource_exhausted(
          "socket run_until: timeout after " +
          std::to_string(options_.run_until_timeout_ms) + " ms");
    }
    if (progress(node)) {
      idle_spins = 0;
      continue;
    }
    if (now_ns() > deadline) {
      return resource_exhausted(
          "socket run_until: timeout after " +
          std::to_string(options_.run_until_timeout_ms) + " ms");
    }
    if (++idle_spins >= 64) {
      std::this_thread::yield();
    }
  }
  return Status::ok();
}

// --- process-mode coordination ------------------------------------------------

Status SocketTransport::barrier(NodeId node, std::uint64_t id) {
  NodeState* state = local_state(node);
  if (state == nullptr || self_ == kAllLocal) {
    return failed_precondition("barrier: process mode only");
  }
  if (node_count_ == 1) return Status::ok();
  Header msg;
  msg.kind = FrameKind::kBarrier;
  msg.src = node;
  msg.f0 = id;
  if (node == 0) {
    // Coordinator: wait for everyone, then release everyone. Driving
    // progress here services peers' AMs/PUTs/GETs while they catch up.
    TC_RETURN_IF_ERROR(run_until(node, [state, id, this] {
      auto it = state->barrier_arrivals.find(id);
      return it != state->barrier_arrivals.end() &&
             it->second == node_count_ - 1;
    }));
    state->barrier_arrivals.erase(id);
    msg.f1 = 1;  // release
    for (NodeId peer = 1; peer < node_count_; ++peer) {
      TC_RETURN_IF_ERROR(send_frame(node, peer, msg, {}, /*control=*/true));
    }
    return Status::ok();
  }
  TC_RETURN_IF_ERROR(send_frame(node, 0, msg, {}, /*control=*/true));
  TC_RETURN_IF_ERROR(run_until(
      node, [state, id] { return state->barrier_released.count(id) != 0; }));
  state->barrier_released.erase(id);
  return Status::ok();
}

Status SocketTransport::kill_connection(NodeId node, NodeId peer) {
  NodeState* state = local_state(node);
  if (state == nullptr || peer >= node_count_ || peer == node) {
    return invalid_argument("kill_connection: no such link");
  }
  const int fd = state->links[peer].fd;
  if (fd < 0) return invalid_argument("kill_connection: link never existed");
  // shutdown (not close) so the owning progress contexts observe EOF /
  // EPIPE on their next spin without any fd-reuse race; they then run the
  // regular disconnect path.
  if (::shutdown(fd, SHUT_RDWR) != 0 && errno != ENOTCONN) {
    return errno_status("shutdown");
  }
  return Status::ok();
}

}  // namespace tc::fabric
