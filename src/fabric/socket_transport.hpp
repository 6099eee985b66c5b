// SocketTransport: the real-sockets backend — true address-space isolation.
//
// Where ShmTransport scales an RDMA fabric down to one process,
// SocketTransport runs it over actual stream sockets, in two deployment
// shapes sharing one wire protocol:
//
//  * threaded mode (create_threaded) — every node lives in this process and
//    each directed pair is joined by a socketpair(2). Same topology as shm,
//    but every verb is serialized through the length-prefixed wire codec
//    and the kernel's socket buffers, so partial writes, framing and flow
//    control are real. This is what hetsim::Backend::kSocket uses, letting
//    the whole in-tree test matrix drive the codec.
//  * process mode (create_process) — this process *is* one node; peers are
//    separate processes reached over Unix-domain or TCP sockets. Bootstrap
//    is ordered dialing: every node listens on its endpoint, connects to
//    all lower-id peers and accepts from all higher-id peers, identifying
//    each accepted connection with a kHello frame. Registered-segment rkeys
//    travel out-of-band as kSegment frames (the expose_segment contract);
//    PUT/GET are serviced by the target's progress context and routed back
//    by request id. tools/tc_launch forks such a cluster.
//
// Send path: every link owns one contiguous tx buffer, and a posted frame's
// header and payload are encoded straight into its tail. When the bytes
// leave depends on who posted them:
//
//  * inside a progress step (AM/send handlers, completions, acks, GET
//    replies, timers — and therefore the runtime's forwards and results)
//    the frame is only appended; once progress() has read every link it
//    writes each link's pending bytes with one send(2). A handler that
//    answers a buffer of K received frames costs one syscall per link, not
//    K. Steps nest (a handler may block in run_until); every step flushes
//    on exit, so a nested wait never strands the bytes its reply needs.
//  * outside a step (a client's first requests, test threads, barriers,
//    segment adverts) the link is flushed before the post returns, so a
//    lone send pays no extra latency.
//
// A short write leaves the unwritten tail in place and advances a write
// offset; the consumed prefix is compacted away once it is at least as long
// as the tail, so after a flush the buffer holds less than twice its
// unwritten bytes.
//
// Flow control is honest: a data frame posted while a link already holds
// send_buffer_bytes of unwritten data fails its completion with the
// shared fabric::backpressure_status() instead of blocking (so a
// backpressured link holds at most that budget plus one frame) — the same
// Status the shm backend reports on a full ring, so the runtime's
// max_send_retries policy behaves identically on both. Control frames
// (acks, segment adverts, barriers) bypass the cap: losing a completion to
// backpressure on the reverse path would turn flow control into a hang.
// Peer disconnect fails every in-flight completion toward that peer with
// kUnavailable and discards any partially received frame (counted in
// Stats::rx_partial_discards). A frame the decoder cannot trust — a length
// outside [header, max_frame_bytes], an unknown kind, or a source id other
// than the link's peer — is a protocol error: counted, and the link is
// disconnected.
//
// Threading contract: identical to the other backends — one progress
// context per node; post_* from the initiating node's context; callbacks
// fire on the owning node's context. Link state is only ever touched by
// the owning node's progress context, which is what makes the nonblocking
// read/flush loops lock-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fabric/memory.hpp"
#include "fabric/transport.hpp"

namespace tc::fabric {

struct SocketTransportOptions {
  /// Per-directed-link tx budget. A data frame posted while at least this
  /// many bytes are already queued fails with backpressure_status().
  std::size_t send_buffer_bytes = 4 * 1024 * 1024;
  /// Safety net for run_until: give up after this much wall time.
  std::int64_t run_until_timeout_ms = 30'000;
  /// Process mode: how long bootstrap keeps re-dialing a peer that has not
  /// bound its endpoint yet (and how long it waits for inbound hellos).
  std::int64_t connect_timeout_ms = 10'000;
  /// Codec sanity bound; a longer frame on the wire is a protocol error
  /// and disconnects the link.
  std::size_t max_frame_bytes = 64 * 1024 * 1024;
};

class SocketTransport final : public Transport {
 public:
  /// Every node in this process, full socketpair mesh. The shape
  /// hetsim::Cluster's Backend::kSocket builds.
  static StatusOr<std::unique_ptr<SocketTransport>> create_threaded(
      std::size_t node_count, SocketTransportOptions options = {});
  /// This process is node `self` of `node_count`; `endpoints[i]` names
  /// node i's listening address as "unix:<path>" or "tcp:<ipv4>:<port>".
  /// Blocks until the full mesh is connected (or connect_timeout_ms).
  static StatusOr<std::unique_ptr<SocketTransport>> create_process(
      std::size_t node_count, NodeId self,
      const std::vector<std::string>& endpoints,
      SocketTransportOptions options = {});
  /// "unix:<dir>/n<i>.sock" for every node (keep `dir` short: sun_path
  /// caps at ~107 bytes).
  static std::vector<std::string> unix_endpoints(std::size_t node_count,
                                                 const std::string& dir);
  ~SocketTransport() override;

  static constexpr NodeId kAllLocal = ~NodeId{0};
  /// kAllLocal in threaded mode, this process's node id in process mode.
  NodeId self_node() const { return self_; }
  bool is_local(NodeId node) const {
    return self_ == kAllLocal || node == self_;
  }

  /// Allocates `length` bytes owned by the transport and registers them as
  /// a window on the (local) node — malloc + ibv_reg_mr in one call.
  StatusOr<MemRegion> allocate_window(NodeId node, std::size_t length);

  /// Spawns one dedicated progress thread per listed (local) node.
  void start_progress_threads(const std::vector<NodeId>& nodes);
  void stop_progress_threads();

  /// Process mode: drives `node`'s progress until `owner`'s exposed-segment
  /// advert (kSegment) has arrived — the out-of-band rkey exchange real
  /// deployments run at setup.
  Status wait_for_segment(NodeId node, NodeId owner);
  /// Process mode: phase barrier over the mesh (node 0 coordinates).
  /// Doubles as the server's progress loop — AMs/PUTs/GETs arriving while
  /// blocked here are serviced.
  Status barrier(NodeId node, std::uint64_t id);
  /// Abruptly shuts down the connection between `node` and `peer` (both
  /// directions) — the mid-message-disconnect fault for tests. Safe to
  /// call from any thread.
  Status kill_connection(NodeId node, NodeId peer);

  // --- Transport ------------------------------------------------------------
  const char* name() const override { return "socket"; }
  bool deterministic() const override { return false; }
  std::size_t node_count() const override { return node_count_; }

  void post_send(NodeId src, NodeId dst, ByteSpan data, std::size_t fragments,
                 CompletionFn on_complete) override;
  void post_am(NodeId src, NodeId dst, AmId id, ByteSpan payload,
               CompletionFn on_complete) override;
  void post_put(NodeId src, const RemoteAddr& dst, ByteSpan data,
                CompletionFn on_complete) override;
  void post_get(NodeId src, const RemoteAddr& addr, std::size_t length,
                GetCompletionFn on_complete) override;

  StatusOr<MemRegion> register_window(NodeId node, void* base,
                                      std::size_t length) override;
  Status expose_segment(NodeId node, void* base, std::size_t length) override;
  std::optional<MemRegion> exposed_segment(NodeId node) const override;

  Status register_am_handler(NodeId node, AmId id, AmHandler handler) override;
  Status unregister_am_handler(NodeId node, AmId id) override;
  std::optional<ReceivedMessage> try_recv(NodeId node) override;
  void set_delivery_notifier(NodeId node,
                             std::function<void()> notify) override;

  std::int64_t now_ns() const override;
  void consume_compute(NodeId, std::int64_t, bool) override {}
  void execute_on(NodeId node, std::int64_t cost_ns, std::function<void()> fn,
                  bool scale_cost) override;
  void schedule_after(NodeId node, std::int64_t delay_ns,
                      std::function<void()> fn) override;
  void sync_to_compute_horizon(NodeId) override {}

  bool progress(NodeId node) override;
  Status run_until(NodeId node, const std::function<bool()>& pred) override;

  struct Stats {
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t send_calls = 0;       ///< send(2) calls that wrote bytes
    std::uint64_t partial_writes = 0;   ///< short writes that left tx queued
    std::uint64_t backpressure_rejects = 0;
    std::uint64_t disconnects = 0;
    std::uint64_t rx_partial_discards = 0;  ///< mid-frame EOF
    std::uint64_t protocol_errors = 0;      ///< untrusted frames (disconnect)
  };
  Stats stats() const {
    Stats s;
    s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
    s.frames_received = frames_received_.load(std::memory_order_relaxed);
    s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
    s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
    s.send_calls = send_calls_.load(std::memory_order_relaxed);
    s.partial_writes = partial_writes_.load(std::memory_order_relaxed);
    s.backpressure_rejects =
        backpressure_rejects_.load(std::memory_order_relaxed);
    s.disconnects = disconnects_.load(std::memory_order_relaxed);
    s.rx_partial_discards =
        rx_partial_discards_.load(std::memory_order_relaxed);
    s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
    return s;
  }
  /// Per-node dispatch counters (local nodes only).
  Worker::Stats worker_stats(NodeId node) const;

 private:
  /// Frame kinds on the wire. Wire layout (little-endian):
  ///   [u32 length] [u8 kind] [u8 code] [u16 am_id] [u32 src]
  ///   [u64 cid] [u64 f0] [u64 f1] [u64 f2] [payload...]
  /// where `length` counts everything after itself and the f-words are
  /// per-kind (see socket_transport.cpp).
  enum class FrameKind : std::uint8_t {
    kHello = 1,    ///< bootstrap: src identifies the dialing node
    kSend = 2,     ///< two-sided eager message; f0 = fragments
    kAm = 3,       ///< active message; am_id selects the handler
    kPut = 4,      ///< one-sided write; f0 = rkey, f1 = offset
    kGet = 5,      ///< one-sided read; f0 = rkey, f1 = offset, f2 = length
    kAck = 6,      ///< completion for kSend/kAm/kPut; code + message payload
    kGetAck = 7,   ///< completion + data for kGet
    kSegment = 8,  ///< exposed-segment advert; f0 = rkey, f1 = length
    kBarrier = 9,  ///< f0 = barrier id, f1 = 0 arrive / 1 release
  };
  struct Header {
    FrameKind kind = FrameKind::kSend;
    std::uint8_t code = 0;  ///< ErrorCode for acks
    AmId am_id = 0;
    NodeId src = 0;
    std::uint64_t cid = 0;
    std::uint64_t f0 = 0, f1 = 0, f2 = 0;
  };
  struct Frame : Header {
    Bytes payload;
  };
  /// Writes the length prefix, `h` and `payload` to `out`, which must hold
  /// 44 + payload.size() bytes.
  static void encode(std::uint8_t* out, const Header& h, ByteSpan payload);
  /// Reads the 40 header bytes that follow the length prefix.
  static Header decode(const std::uint8_t* p);

  struct Link {
    int fd = -1;
    bool connected = false;
    Bytes rx;                ///< partially received bytes, parsed in place
    Bytes tx;                ///< encoded frames; [tx_off, size) unwritten
    std::size_t tx_off = 0;  ///< bytes of tx already written
    std::size_t unwritten() const { return tx.size() - tx_off; }
  };

  struct Timer {
    std::int64_t deadline_ns;
    std::function<void()> fn;
  };
  struct PendingCompletion {
    CompletionFn fn;
    NodeId dst = 0;  ///< fail fast if this peer disconnects
  };
  struct PendingGet {
    GetCompletionFn fn;
    NodeId dst = 0;
  };

  struct NodeState {
    Worker worker;
    mutable std::mutex mem_mu;
    MemoryDomain memory;
    std::optional<MemRegion> exposed;
    std::mutex completions_mu;
    std::uint64_t next_cid = 1;
    std::unordered_map<std::uint64_t, PendingCompletion> completions;
    std::unordered_map<std::uint64_t, PendingGet> get_completions;
    std::mutex timers_mu;
    std::vector<Timer> timers;
    /// Indexed by peer id; links[self] unused. Owned by this node's
    /// progress context.
    std::vector<Link> links;
    /// Nesting depth of progress() on this node: non-zero means a post only
    /// appends, and the step's end flushes (progress-context-only).
    int step_depth = 0;
    /// Process-mode barrier state (progress-context-only).
    std::unordered_map<std::uint64_t, std::size_t> barrier_arrivals;
    std::unordered_set<std::uint64_t> barrier_released;
  };

  SocketTransport(std::size_t node_count, NodeId self,
                  SocketTransportOptions options);

  NodeState* local_state(NodeId node);
  const NodeState* local_state(NodeId node) const;
  /// Routes a frame from `node` to `peer`: a local target dispatches inline
  /// (loopback); otherwise the frame is encoded onto the link and, outside
  /// a progress step, flushed. Control frames bypass the tx budget (see
  /// file comment).
  Status send_frame(NodeId node, NodeId peer, const Header& h,
                    ByteSpan payload, bool control);
  bool flush_link(NodeId node, NodeId peer);
  bool read_link(NodeId node, NodeId peer);
  void parse_frames(NodeId node, NodeId peer, Link& link);
  void handle_frame(NodeId node, Frame frame);
  void protocol_error(NodeId node, NodeId peer, const std::string& what);
  void disconnect_link(NodeId node, NodeId peer, const char* reason);
  void fail_completions_for_peer(NodeId node, NodeId peer);
  bool fire_due_timers(NodeId node);
  std::uint64_t stash_completion(NodeId node, NodeId dst, CompletionFn cb);
  std::uint64_t stash_get_completion(NodeId node, NodeId dst,
                                     GetCompletionFn cb);
  void complete(NodeId node, std::uint64_t cid, Status status);
  void complete_get(NodeId node, std::uint64_t cid, StatusOr<Bytes> result);
  /// Sends a kSegment advert for `node`'s exposed segment to every peer
  /// (process mode).
  void broadcast_segment(NodeId node, const MemRegion& region);

  SocketTransportOptions options_;
  std::size_t node_count_ = 0;
  NodeId self_ = kAllLocal;
  /// Only local nodes are non-null.
  std::vector<std::unique_ptr<NodeState>> nodes_;
  /// Process mode: rkey/length of remote nodes' exposed segments, learned
  /// from kSegment adverts (base is null — one-sided access is serviced on
  /// the owning process).
  mutable std::mutex segments_mu_;
  std::unordered_map<NodeId, MemRegion> remote_segments_;

  /// Process mode: listening socket + owned unix path (unlinked on exit).
  int listen_fd_ = -1;
  std::string listen_unix_path_;

  std::mutex arena_mu_;
  std::deque<std::vector<std::uint8_t>> arena_;

  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};

  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> send_calls_{0};
  std::atomic<std::uint64_t> partial_writes_{0};
  std::atomic<std::uint64_t> backpressure_rejects_{0};
  std::atomic<std::uint64_t> disconnects_{0};
  std::atomic<std::uint64_t> rx_partial_discards_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
};

}  // namespace tc::fabric
