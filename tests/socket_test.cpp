// SocketTransport coverage: the shared transport conformance suite run
// against the real-sockets backend in threaded (socketpair) mode, plus
// socket-specific behaviour the other backends cannot exhibit — wire-codec
// framing under concurrency, per-step send coalescing, bounded-send-buffer
// backpressure, abrupt peer disconnect, and a mutational fuzz of the wire
// decoder against a hostile peer. The true multi-process deployment of the
// same codec is exercised by socket_mp_test.cpp / tools/tc_launch.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "fabric/socket_transport.hpp"
#include "fabric/transport.hpp"
#include "transport_conformance.hpp"

namespace tc {
namespace {

conformance::BackendInstance make_socket(std::size_t nodes) {
  auto socket_or = fabric::SocketTransport::create_threaded(nodes);
  if (!socket_or.is_ok()) return {};
  std::shared_ptr<fabric::SocketTransport> holder = std::move(*socket_or);
  return {holder, holder.get()};
}

using conformance::TransportConformance;

INSTANTIATE_TEST_SUITE_P(
    Backends, TransportConformance,
    ::testing::Values(conformance::ConformanceParam{
        "socket", /*deterministic=*/false, make_socket}),
    conformance::param_name);

// --- socket-specific coverage ------------------------------------------------

TEST(SocketTransport, UnixEndpointsNameEveryNode) {
  const auto eps = fabric::SocketTransport::unix_endpoints(3, "/tmp/tc");
  ASSERT_EQ(eps.size(), 3u);
  EXPECT_EQ(eps[0], "unix:/tmp/tc/n0.sock");
  EXPECT_EQ(eps[2], "unix:/tmp/tc/n2.sock");
}

TEST(SocketTransport, ProcessModeRejectsMalformedEndpoints) {
  auto bad = fabric::SocketTransport::create_process(
      2, 0, {"unix:/tmp/x.sock", "carrier-pigeon:coop7"});
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidArgument);
  auto miscounted = fabric::SocketTransport::create_process(
      3, 0, {"unix:/tmp/x.sock"});
  EXPECT_FALSE(miscounted.is_ok());
}

TEST(SocketTransport, AmEchoStormAcrossProgressThreads) {
  // Same storm the shm backend runs, but every AM and its ack crosses the
  // wire codec and the kernel's socketpair buffers.
  auto socket_or = fabric::SocketTransport::create_threaded(3);
  ASSERT_TRUE(socket_or.is_ok()) << socket_or.status().to_string();
  fabric::SocketTransport& sock = **socket_or;
  std::atomic<int> echoes{0};
  ASSERT_TRUE(sock.register_am_handler(0, 5,
                                       [&](ByteSpan, fabric::NodeId) {
                                         echoes.fetch_add(
                                             1, std::memory_order_relaxed);
                                       })
                  .is_ok());
  for (fabric::NodeId server : {1u, 2u}) {
    ASSERT_TRUE(sock.register_am_handler(
                        server, 5,
                        [&sock, server](ByteSpan payload,
                                        fabric::NodeId source) {
                          sock.post_am(server, source, 5, payload, {});
                        })
                    .is_ok());
  }
  sock.start_progress_threads({1, 2});

  constexpr int kPerServer = 500;
  Bytes payload{0x42};
  for (int i = 0; i < kPerServer; ++i) {
    sock.post_am(0, 1, 5, as_span(payload), {});
    sock.post_am(0, 2, 5, as_span(payload), {});
  }
  Status status = sock.run_until(
      0, [&] { return echoes.load(std::memory_order_relaxed) ==
                      2 * kPerServer; });
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  sock.stop_progress_threads();
  EXPECT_EQ(echoes.load(), 2 * kPerServer);
  const fabric::SocketTransport::Stats stats = sock.stats();
  EXPECT_GE(stats.frames_sent, 2u * kPerServer);
  EXPECT_GE(stats.bytes_received, stats.frames_received * 44u)
      << "every frame carries at least the wire header";
}

TEST(SocketTransport, ConcurrentPutsLandInDistinctWindowSlots) {
  auto socket_or = fabric::SocketTransport::create_threaded(4);
  ASSERT_TRUE(socket_or.is_ok());
  fabric::SocketTransport& sock = **socket_or;
  auto window = sock.allocate_window(3, 3 * sizeof(std::uint64_t));
  ASSERT_TRUE(window.is_ok());
  sock.start_progress_threads({3});

  std::vector<std::thread> initiators;
  for (fabric::NodeId n = 0; n < 3; ++n) {
    initiators.emplace_back([&sock, &window, n] {
      const std::uint64_t value = 0x2000 + n;
      Bytes data(sizeof(value));
      std::memcpy(data.data(), &value, sizeof(value));
      std::atomic<bool> done{false};
      sock.post_put(n, window->remote_addr(3, n * sizeof(std::uint64_t)),
                    as_span(data), [&](Status s) {
                      ASSERT_TRUE(s.is_ok()) << s.to_string();
                      done.store(true, std::memory_order_relaxed);
                    });
      Status st = sock.run_until(
          n, [&] { return done.load(std::memory_order_relaxed); });
      ASSERT_TRUE(st.is_ok()) << st.to_string();
    });
  }
  for (auto& t : initiators) t.join();
  sock.stop_progress_threads();

  for (std::uint64_t n = 0; n < 3; ++n) {
    std::uint64_t slot = 0;
    std::memcpy(&slot, window->base + n * sizeof(slot), sizeof(slot));
    EXPECT_EQ(slot, 0x2000 + n);
  }
}

TEST(SocketTransport, SlowConsumerBackpressureFailsPostAndRecovers) {
  // A tx budget far below one message: the first frame is accepted (the
  // queue was empty) but cannot drain into the kernel buffer while node 1
  // never runs, so the next post must fail with the shared backpressure
  // status — not block, not crash.
  fabric::SocketTransportOptions options;
  options.send_buffer_bytes = 16 * 1024;
  auto socket_or = fabric::SocketTransport::create_threaded(2, options);
  ASSERT_TRUE(socket_or.is_ok());
  fabric::SocketTransport& sock = **socket_or;

  const Bytes big(1024 * 1024, 0xAB);
  // Without draining node 1, the socketpair buffer + tx queue fill. An
  // accepted post leaves its completion pending (the ack needs node 1); a
  // rejected one fails it immediately — keep posting until that happens.
  // An accepted post's completion fires during recovery below, so its
  // state must outlive this loop.
  struct Post {
    bool fired = false;
    Status status = internal_error("never fired");
  };
  std::deque<Post> posts;
  Status rejected = Status::ok();
  bool saw_reject = false;
  for (int i = 0; i < 64 && !saw_reject; ++i) {
    Post& post = posts.emplace_back();
    sock.post_send(0, 1, as_span(big), 1, [&post](Status s) {
      post.fired = true;
      post.status = std::move(s);
    });
    for (int spin = 0; spin < 100; ++spin) (void)sock.progress(0);
    if (post.fired) {
      saw_reject = true;
      rejected = post.status;
    }
  }
  ASSERT_TRUE(saw_reject) << "64 MiB queued without a backpressure signal";
  EXPECT_FALSE(rejected.is_ok());
  EXPECT_TRUE(fabric::is_backpressure(rejected)) << rejected.to_string();
  EXPECT_GE(sock.stats().backpressure_rejects, 1u);
  EXPECT_GE(sock.stats().partial_writes, 1u)
      << "a 1MiB frame cannot enter the kernel buffer in one write";

  // Recovery: drain the consumer, then the same post succeeds.
  int drained = 0;
  for (int spin = 0; spin < 1'000'000; ++spin) {
    (void)sock.progress(0);
    (void)sock.progress(1);
    while (sock.try_recv(1).has_value()) ++drained;
    if (drained > 0) break;
  }
  EXPECT_GT(drained, 0);
  bool ok_fired = false;
  Status ok_status = internal_error("never fired");
  sock.post_send(0, 1, as_span(big), 1, [&](Status s) {
    ok_fired = true;
    ok_status = std::move(s);
  });
  for (int spin = 0; spin < 1'000'000 && !ok_fired; ++spin) {
    (void)sock.progress(0);
    (void)sock.progress(1);
    (void)sock.try_recv(1);
  }
  ASSERT_TRUE(ok_fired);
  EXPECT_TRUE(ok_status.is_ok()) << ok_status.to_string();
  EXPECT_TRUE(posts.front().fired) << "the first, accepted post was acked";
  EXPECT_TRUE(posts.front().status.is_ok()) << posts.front().status.to_string();
}

TEST(SocketTransport, KillConnectionFailsPendingCompletionsWithUnavailable) {
  auto socket_or = fabric::SocketTransport::create_threaded(2);
  ASSERT_TRUE(socket_or.is_ok());
  fabric::SocketTransport& sock = **socket_or;

  // A send whose ack can never come back once the link dies.
  Bytes msg{1, 2, 3, 4};
  Status seen = internal_error("never fired");
  bool fired = false;
  sock.post_send(0, 1, as_span(msg), 1, [&](Status s) {
    fired = true;
    seen = std::move(s);
  });
  ASSERT_TRUE(sock.kill_connection(0, 1).is_ok());
  for (int spin = 0; spin < 1'000'000 && !fired; ++spin) {
    (void)sock.progress(0);
  }
  ASSERT_TRUE(fired);
  EXPECT_EQ(seen.code(), ErrorCode::kUnavailable) << seen.to_string();
  EXPECT_GE(sock.stats().disconnects, 1u);

  // Posting into the dead link fails immediately with the same code.
  bool fired2 = false;
  Status seen2 = internal_error("never fired");
  sock.post_send(0, 1, as_span(msg), 1, [&](Status s) {
    fired2 = true;
    seen2 = std::move(s);
  });
  for (int spin = 0; spin < 1'000'000 && !fired2; ++spin) {
    (void)sock.progress(0);
  }
  ASSERT_TRUE(fired2);
  EXPECT_EQ(seen2.code(), ErrorCode::kUnavailable);
}

// --- send coalescing ---------------------------------------------------------

std::uint32_t read_seq(ByteSpan payload) {
  std::uint32_t seq = 0;
  if (payload.size() == sizeof(seq)) {
    std::memcpy(&seq, payload.data(), sizeof(seq));
  }
  return seq;
}

TEST(SocketTransport, PostsInsideOneStepLeaveInOneSendPerLink) {
  // Node 1 answers one trigger AM by posting K AMs to each of nodes 0 and
  // 2 from inside its handler, i.e. inside a progress step: the step must
  // end with one send(2) per link, carrying all K frames in FIFO order.
  auto socket_or = fabric::SocketTransport::create_threaded(3);
  ASSERT_TRUE(socket_or.is_ok()) << socket_or.status().to_string();
  fabric::SocketTransport& sock = **socket_or;
  constexpr std::uint32_t kFanout = 32;
  ASSERT_TRUE(sock.register_am_handler(
                      1, 7,
                      [&sock](ByteSpan, fabric::NodeId) {
                        for (std::uint32_t i = 0; i < kFanout; ++i) {
                          Bytes seq(sizeof(i));
                          std::memcpy(seq.data(), &i, sizeof(i));
                          sock.post_am(1, 0, 8, as_span(seq), {});
                          sock.post_am(1, 2, 8, as_span(seq), {});
                        }
                      })
                  .is_ok());
  std::vector<std::uint32_t> got[3];
  for (fabric::NodeId node : {0u, 2u}) {
    ASSERT_TRUE(sock.register_am_handler(
                        node, 8,
                        [&got, node](ByteSpan payload, fabric::NodeId src) {
                          EXPECT_EQ(src, 1u);
                          got[node].push_back(read_seq(payload));
                        })
                    .is_ok());
  }

  const Bytes trigger{1};
  sock.post_am(0, 1, 7, as_span(trigger), {});
  const fabric::SocketTransport::Stats before = sock.stats();
  // The trigger already sits in node 1's socket buffer: one step reads it,
  // runs the handler and flushes.
  ASSERT_TRUE(sock.progress(1));
  const fabric::SocketTransport::Stats after = sock.stats();
  EXPECT_EQ(after.frames_sent - before.frames_sent, 2u * kFanout);
  EXPECT_EQ(after.send_calls - before.send_calls, 2u)
      << "one send(2) per link per step, not one per frame";
  EXPECT_EQ(after.partial_writes, 0u);

  for (fabric::NodeId node : {0u, 2u}) {
    Status status =
        sock.run_until(node, [&] { return got[node].size() == kFanout; });
    ASSERT_TRUE(status.is_ok()) << status.to_string();
    for (std::uint32_t i = 0; i < kFanout; ++i) {
      EXPECT_EQ(got[node][i], i) << "node " << node << " frame " << i;
    }
  }
}

TEST(SocketTransport, PostOutsideAStepIsOnTheWireBeforeItReturns) {
  auto socket_or = fabric::SocketTransport::create_threaded(2);
  ASSERT_TRUE(socket_or.is_ok());
  fabric::SocketTransport& sock = **socket_or;
  int delivered = 0;
  ASSERT_TRUE(sock.register_am_handler(
                      1, 7, [&](ByteSpan, fabric::NodeId) { ++delivered; })
                  .is_ok());
  const std::uint64_t before = sock.stats().send_calls;
  const Bytes payload{1, 2, 3};
  sock.post_am(0, 1, 7, as_span(payload), {});
  EXPECT_EQ(sock.stats().send_calls - before, 1u);
  // Node 0 never progresses again: the frame must already be in flight.
  Status status = sock.run_until(1, [&] { return delivered == 1; });
  EXPECT_TRUE(status.is_ok()) << status.to_string();
}

TEST(SocketTransport, NestedWaitInsideAStepFlushesItsOwnRequest) {
  // A timer (so: inside node 1's progress step) issues a GET and blocks in
  // run_until for its reply. The nested steps must put the request on the
  // wire even though the outer step has not ended yet.
  fabric::SocketTransportOptions options;
  options.run_until_timeout_ms = 10'000;
  auto socket_or = fabric::SocketTransport::create_threaded(2, options);
  ASSERT_TRUE(socket_or.is_ok());
  fabric::SocketTransport& sock = **socket_or;
  auto window = sock.allocate_window(0, sizeof(std::uint64_t));
  ASSERT_TRUE(window.is_ok());
  const std::uint64_t value = 0x5eed;
  std::memcpy(window->base, &value, sizeof(value));
  sock.start_progress_threads({0});

  bool ran = false;
  Status nested = internal_error("never ran");
  std::uint64_t seen = 0;
  sock.schedule_after(1, 0, [&] {
    bool done = false;
    sock.post_get(1, window->remote_addr(0, 0), sizeof(seen),
                  [&](StatusOr<Bytes> data) {
                    if (data.is_ok() && data->size() == sizeof(seen)) {
                      std::memcpy(&seen, data->data(), sizeof(seen));
                    }
                    done = true;
                  });
    nested = sock.run_until(1, [&] { return done; });
    ran = true;
  });
  Status outer = sock.run_until(1, [&] { return ran; });
  sock.stop_progress_threads();
  ASSERT_TRUE(outer.is_ok()) << outer.to_string();
  EXPECT_TRUE(nested.is_ok()) << nested.to_string();
  EXPECT_EQ(seen, value);
}

// --- wire decoder fuzz -------------------------------------------------------
//
// The node under test is node 1 of a 2-node process-mode mesh; the test
// itself plays node 0 over a raw socket, so every byte node 1 decodes is
// one the test wrote. The corpus is captured from the transport's own
// encoder (node 1's posts and replies, re-addressed as if node 0 sent
// them), then truncated, bit-flipped and given hostile length fields and
// kind bytes. Node 1 must deliver only whole frames and either keep the
// link or drop it with a counted protocol error; every wait is bounded.

constexpr std::size_t kWireHeader = 44;  // u32 length + 40 header bytes
constexpr fabric::AmId kFuzzAm = 9;

struct RawPeer {
  std::unique_ptr<fabric::SocketTransport> node;  ///< node 1, under test
  int fd = -1;                                    ///< node 0's end
  std::vector<std::size_t> am_sizes;              ///< AM payloads delivered
  std::vector<std::size_t> msg_sizes;             ///< messages delivered
  ~RawPeer() {
    if (fd >= 0) ::close(fd);
  }
  void hang_up() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  void drain_messages() {
    while (auto msg = node->try_recv(1)) msg_sizes.push_back(msg->data.size());
  }
  /// Bytes node 1 charged to delivered frames (header + payload each).
  std::size_t delivered_bytes() const {
    std::size_t total = 0;
    for (std::size_t n : am_sizes) total += kWireHeader + n;
    for (std::size_t n : msg_sizes) total += kWireHeader + n;
    return total;
  }
};

class SocketWireFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/tc_sockfuzz_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    options_.run_until_timeout_ms = 5'000;
    options_.connect_timeout_ms = 5'000;
  }
  void TearDown() override {
    if (!dir_.empty()) ::rmdir(dir_.c_str());
  }

  /// A fresh node 1 connected to a raw node 0 owned by the test.
  std::unique_ptr<RawPeer> connect() {
    const auto endpoints = fabric::SocketTransport::unix_endpoints(2, dir_);
    const std::string path = endpoints[0].substr(5);
    const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(listener, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listener, 1) != 0) {
      ADD_FAILURE() << "cannot listen on " << path;
      ::close(listener);
      return nullptr;
    }
    // Node 1 dials node 0 (the backlog accepts it) and says hello.
    auto node_or =
        fabric::SocketTransport::create_process(2, 1, endpoints, options_);
    auto peer = std::make_unique<RawPeer>();
    peer->fd = ::accept(listener, nullptr, nullptr);
    ::close(listener);
    ::unlink(path.c_str());
    if (!node_or.is_ok() || peer->fd < 0) {
      ADD_FAILURE() << "bootstrap failed: " << node_or.status().to_string();
      return nullptr;
    }
    peer->node = std::move(*node_or);
    std::uint8_t hello[kWireHeader];
    EXPECT_EQ(read_bytes(peer->fd, hello, sizeof(hello)), sizeof(hello));
    RawPeer* raw = peer.get();
    EXPECT_TRUE(peer->node
                    ->register_am_handler(1, kFuzzAm,
                                          [raw](ByteSpan payload,
                                                fabric::NodeId) {
                                            raw->am_sizes.push_back(
                                                payload.size());
                                          })
                    .is_ok());
    auto window = peer->node->allocate_window(1, 64);
    EXPECT_TRUE(window.is_ok());
    if (window.is_ok()) window_ = *window;
    return peer;
  }

  /// Reads up to `size` bytes, waiting at most 2 s for each chunk.
  static std::size_t read_bytes(int fd, std::uint8_t* out, std::size_t size) {
    std::size_t got = 0;
    while (got < size) {
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, 2'000) <= 0) break;
      const ssize_t n = ::recv(fd, out + got, size - got, 0);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    return got;
  }

  /// Everything node 1 has sent to node 0 so far that the test has not read.
  static Bytes read_sent(RawPeer& peer, std::size_t already_read) {
    const std::size_t sent = peer.node->stats().bytes_sent;
    Bytes out(sent - already_read);
    out.resize(read_bytes(peer.fd, out.data(), out.size()));
    return out;
  }

  /// Rewrites the src field of every frame in `stream` to node 0.
  static void readdress(Bytes& stream) {
    for (std::size_t off = 0; off + kWireHeader <= stream.size();) {
      std::uint32_t len = 0;
      std::memcpy(&len, stream.data() + off, sizeof(len));
      std::memset(stream.data() + off + 8, 0, 4);
      off += 4 + len;
    }
  }

  /// Captures a valid node-0→node-1 stream from the transport's encoder:
  /// a segment advert, AMs with and without completions, a send, a PUT and
  /// a GET into node 1's window, then node 1's acks and GET reply to them.
  Bytes capture_corpus() {
    auto peer = connect();
    if (peer == nullptr) return {};
    fabric::SocketTransport& node = *peer->node;
    EXPECT_TRUE(node.expose_segment(1, window_.base, window_.length).is_ok());
    const Bytes payload{1, 2, 3, 4, 5, 6, 7, 8, 9};
    const fabric::RemoteAddr slot{0, window_.rkey, 8};
    node.post_am(1, 0, kFuzzAm, as_span(payload), [](Status) {});
    node.post_am(1, 0, kFuzzAm, as_span(payload), {});
    node.post_send(1, 0, as_span(payload), 1, [](Status) {});
    node.post_put(1, slot, as_span(payload), [](Status) {});
    node.post_get(1, slot, 16, [](StatusOr<Bytes>) {});
    Bytes corpus = read_sent(*peer, 0);
    readdress(corpus);
    const std::size_t requests = corpus.size();

    // Replay the requests to a fresh node 1 and capture its replies.
    auto replier = connect();
    if (replier == nullptr) return {};
    EXPECT_EQ(::send(replier->fd, corpus.data(), corpus.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(corpus.size()));
    Status status = replier->node->run_until(1, [&] {
      return replier->node->stats().frames_received == 6;
    });
    EXPECT_TRUE(status.is_ok()) << status.to_string();
    Bytes replies = read_sent(*replier, 0);
    readdress(replies);
    corpus.insert(corpus.end(), replies.begin(), replies.end());
    EXPECT_GT(corpus.size(), requests) << "acks and the GET reply captured";
    return corpus;
  }

  /// Offsets at which each frame of a well-formed `stream` starts.
  static std::vector<std::size_t> frame_starts(const Bytes& stream) {
    std::vector<std::size_t> starts;
    for (std::size_t off = 0; off + 4 <= stream.size();) {
      starts.push_back(off);
      std::uint32_t len = 0;
      std::memcpy(&len, stream.data() + off, sizeof(len));
      off += 4 + len;
    }
    return starts;
  }

  struct Outcome {
    fabric::SocketTransport::Stats stats;
    std::size_t delivered = 0;  ///< AMs + messages
  };

  /// Feeds `stream` to a fresh node 1 and checks the decoder invariants;
  /// with `hang_up`, then closes node 0's end and waits for the disconnect.
  Outcome feed(const Bytes& stream, bool hang_up, const std::string& what) {
    SCOPED_TRACE(what);
    Outcome out;
    auto peer = connect();
    if (peer == nullptr) return out;
    fabric::SocketTransport& node = *peer->node;
    EXPECT_EQ(::send(peer->fd, stream.data(), stream.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(stream.size()));
    Status status = node.run_until(1, [&] {
      const auto s = node.stats();
      return s.bytes_received >= stream.size() || s.disconnects > 0;
    });
    EXPECT_TRUE(status.is_ok()) << status.to_string();
    peer->drain_messages();
    auto s = node.stats();
    // Either the link is kept, or it is dropped by a counted protocol error.
    EXPECT_EQ(s.disconnects, s.protocol_errors);
    EXPECT_LE(s.protocol_errors, 1u);
    // Only whole frames: every delivery was charged bytes that arrived.
    EXPECT_LE(peer->delivered_bytes(), stream.size());
    EXPECT_LE(s.frames_received * kWireHeader, s.bytes_received);
    if (hang_up) {
      peer->hang_up();
      status = node.run_until(1, [&] { return node.stats().disconnects > 0; });
      EXPECT_TRUE(status.is_ok()) << status.to_string();
      peer->drain_messages();
      s = node.stats();
    }
    out.stats = s;
    out.delivered = peer->am_sizes.size() + peer->msg_sizes.size();
    return out;
  }

  std::string dir_;
  fabric::SocketTransportOptions options_;
  fabric::MemRegion window_;
};

TEST_F(SocketWireFuzz, CapturedStreamDecodesCleanly) {
  const Bytes corpus = capture_corpus();
  ASSERT_FALSE(corpus.empty());
  const Outcome out = feed(corpus, /*hang_up=*/true, "pristine");
  EXPECT_EQ(out.stats.protocol_errors, 0u);
  EXPECT_EQ(out.stats.rx_partial_discards, 0u);
  EXPECT_EQ(out.stats.frames_received, frame_starts(corpus).size());
  EXPECT_EQ(out.delivered, 3u) << "two AMs and one send";
}

TEST_F(SocketWireFuzz, TruncationsDeliverExactlyTheWholeFrames) {
  const Bytes corpus = capture_corpus();
  ASSERT_FALSE(corpus.empty());
  const std::vector<std::size_t> starts = frame_starts(corpus);
  std::vector<std::size_t> cuts;
  for (std::size_t start : starts) {
    for (std::size_t d : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                          std::size_t{20}, kWireHeader}) {
      if (start + d < corpus.size()) cuts.push_back(start + d);
    }
  }
  Xoshiro256 rng(0x7a11);
  for (int i = 0; i < 24; ++i) cuts.push_back(rng.below(corpus.size()));
  for (std::size_t cut : cuts) {
    const Bytes prefix(corpus.begin(),
                       corpus.begin() + static_cast<std::ptrdiff_t>(cut));
    std::size_t whole = 0;
    bool partial = false;
    for (std::size_t k = 0; k < starts.size(); ++k) {
      const std::size_t end = k + 1 < starts.size() ? starts[k + 1]
                                                    : corpus.size();
      if (end <= cut) {
        ++whole;
      } else if (starts[k] < cut) {
        partial = true;
      }
    }
    const Outcome out =
        feed(prefix, /*hang_up=*/true, "cut at " + std::to_string(cut));
    EXPECT_EQ(out.stats.frames_received, whole) << "cut " << cut;
    EXPECT_EQ(out.stats.protocol_errors, 0u) << "cut " << cut;
    EXPECT_EQ(out.stats.rx_partial_discards, partial ? 1u : 0u)
        << "cut " << cut;
  }
}

TEST_F(SocketWireFuzz, HostileLengthFieldsAreProtocolErrors) {
  const Bytes corpus = capture_corpus();
  ASSERT_FALSE(corpus.empty());
  const std::vector<std::size_t> starts = frame_starts(corpus);
  const std::uint32_t lengths[] = {
      0, 39, 40, static_cast<std::uint32_t>(options_.max_frame_bytes + 1),
      0xFFFFFFFFu};
  for (std::size_t k = 0; k < starts.size(); ++k) {
    for (std::uint32_t len : lengths) {
      Bytes mutated = corpus;
      std::memcpy(mutated.data() + starts[k], &len, sizeof(len));
      const Outcome out =
          feed(mutated, /*hang_up=*/false,
               "frame " + std::to_string(k) + " length " + std::to_string(len));
      if (len != 40) {
        // Everything before the bad frame is delivered, then the link drops.
        EXPECT_EQ(out.stats.protocol_errors, 1u);
        EXPECT_EQ(out.stats.frames_received, k);
      }
    }
  }
}

TEST_F(SocketWireFuzz, UnknownKindBytesAreProtocolErrors) {
  const Bytes corpus = capture_corpus();
  ASSERT_FALSE(corpus.empty());
  const std::vector<std::size_t> starts = frame_starts(corpus);
  const std::size_t k = 1;  // the AM with a completion
  for (unsigned kind = 0; kind < 256; ++kind) {
    Bytes mutated = corpus;
    mutated[starts[k] + 4] = static_cast<std::uint8_t>(kind);
    const Outcome out = feed(mutated, /*hang_up=*/false,
                             "kind " + std::to_string(kind));
    if (kind == 0 || kind > 9) {
      EXPECT_EQ(out.stats.protocol_errors, 1u) << "kind " << kind;
      EXPECT_EQ(out.stats.frames_received, k) << "kind " << kind;
    }
  }
}

TEST_F(SocketWireFuzz, ForgedSourceIdsAreProtocolErrors) {
  // Acks are routed by src: a frame claiming any node but the link's peer
  // (itself, or one that does not exist) must not be answered.
  const Bytes corpus = capture_corpus();
  ASSERT_FALSE(corpus.empty());
  const std::size_t k = frame_starts(corpus)[1];  // the AM with a completion
  for (std::uint32_t src : {1u, 2u, 0xFFFFFFFFu}) {
    Bytes mutated = corpus;
    std::memcpy(mutated.data() + k + 8, &src, sizeof(src));
    const Outcome out = feed(mutated, /*hang_up=*/false,
                             "src " + std::to_string(src));
    EXPECT_EQ(out.stats.protocol_errors, 1u) << "src " << src;
    EXPECT_EQ(out.stats.frames_received, 1u) << "src " << src;
  }
}

TEST_F(SocketWireFuzz, RandomBitFlipsNeverCrashOrHang) {
  const Bytes corpus = capture_corpus();
  ASSERT_FALSE(corpus.empty());
  Xoshiro256 rng(0xb17f11b5);
  for (int round = 0; round < 1000; ++round) {
    Bytes mutated = corpus;
    const int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t bit = rng.below(mutated.size() * 8);
      mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    (void)feed(mutated, /*hang_up=*/round % 2 == 0,
               "round " + std::to_string(round));
  }
}

}  // namespace
}  // namespace tc
