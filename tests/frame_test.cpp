// Tests for the ifunc message-frame codec (paper Figs. 2/3): layout, the
// truncated/full dual view, delimiter discovery, corruption detection, and
// result frames — and the bytes the runtime's send path hands to the
// transport, pinned against the layout written out independently here.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/frame.hpp"
#include "core/ifunc.hpp"
#include "core/protocol.hpp"
#include "core/runtime.hpp"
#include "fabric/fabric.hpp"
#include "fabric/sim_transport.hpp"
#include "obs/trace.hpp"

namespace tc::core {
namespace {

Bytes make_code(std::size_t n, std::uint64_t seed = 1) {
  Xoshiro256 rng(seed);
  Bytes code(n);
  for (auto& b : code) b = static_cast<std::uint8_t>(rng());
  return code;
}

TEST(Frame, LayoutMatchesSpec) {
  const Bytes code = make_code(100);
  const Bytes payload = {0xAA};
  auto frame = Frame::build(0x1234, ir::CodeRepr::kBitcode, as_span(code),
                            as_span(payload), 7);
  ASSERT_TRUE(frame.is_ok());

  // header + payload + magic + code + magic
  EXPECT_EQ(frame->full_size(), kHeaderSize + 1 + 4 + 100 + 4);
  EXPECT_EQ(frame->truncated_size(), kHeaderSize + 1 + 4);
  EXPECT_EQ(frame->header().ifunc_id, 0x1234u);
  EXPECT_EQ(frame->header().origin_node, 7u);
  EXPECT_EQ(frame->header().payload_size, 1u);
  EXPECT_EQ(frame->header().code_size, 100u);

  // The truncated view is a strict prefix of the full frame — the paper's
  // "pass a smaller size to the same PUT" trick.
  ByteSpan full = frame->full_view();
  ByteSpan truncated = frame->truncated_view();
  EXPECT_TRUE(std::equal(truncated.begin(), truncated.end(), full.begin()));
}

TEST(Frame, CachedFrameIsTiny) {
  // Paper §V-A: cached TSI message is 26 B vs 5185 B uncached. Our header is
  // itself 26 B; with a 1-byte payload and one delimiter the truncated frame
  // stays around the same tens-of-bytes scale while the full frame carries
  // the entire ~5 KiB archive.
  const Bytes code = make_code(5159);
  const Bytes payload = {1};
  auto frame = Frame::build(1, ir::CodeRepr::kBitcode, as_span(code),
                            as_span(payload), 0);
  ASSERT_TRUE(frame.is_ok());
  EXPECT_EQ(frame->truncated_size(), 31u);
  EXPECT_EQ(frame->full_size(), 31u + 5159 + 4);
}

TEST(Frame, HeaderRoundTrip) {
  const Bytes code = make_code(64);
  auto frame = Frame::build(0xDEADBEEFCAFEull, ir::CodeRepr::kObject,
                            as_span(code), {}, 42);
  ASSERT_TRUE(frame.is_ok());
  auto header = Frame::peek_header(frame->full_view());
  ASSERT_TRUE(header.is_ok());
  EXPECT_EQ(header->ifunc_id, 0xDEADBEEFCAFEull);
  EXPECT_EQ(header->repr, static_cast<std::uint8_t>(ir::CodeRepr::kObject));
  EXPECT_EQ(header->origin_node, 42u);
  EXPECT_EQ(header->payload_size, 0u);
  EXPECT_EQ(header->code_size, 64u);
}

TEST(Frame, EmptyCodeRejected) {
  EXPECT_EQ(Frame::build(1, ir::CodeRepr::kBitcode, {}, {}, 0)
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
}

TEST(Frame, ValidateFullAndTruncated) {
  const Bytes code = make_code(200);
  const Bytes payload = make_code(33, 2);
  auto frame = Frame::build(9, ir::CodeRepr::kBitcode, as_span(code),
                            as_span(payload), 3);
  ASSERT_TRUE(frame.is_ok());

  auto full = Frame::validate(frame->full_view());
  ASSERT_TRUE(full.is_ok());
  EXPECT_TRUE(*full);  // code present

  auto truncated = Frame::validate(frame->truncated_view());
  ASSERT_TRUE(truncated.is_ok());
  EXPECT_FALSE(*truncated);
}

TEST(Frame, ViewsRecoverSections) {
  const Bytes code = make_code(128, 3);
  const Bytes payload = make_code(56, 4);
  auto frame = Frame::build(11, ir::CodeRepr::kBitcode, as_span(code),
                            as_span(payload), 0);
  ASSERT_TRUE(frame.is_ok());

  ByteSpan data = frame->full_view();
  auto header = Frame::peek_header(data);
  ASSERT_TRUE(header.is_ok());
  ByteSpan p = Frame::payload_view(data, *header);
  ByteSpan c = Frame::code_view(data, *header);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), p.begin(), p.end()));
  EXPECT_TRUE(std::equal(code.begin(), code.end(), c.begin(), c.end()));
}

TEST(Frame, ShortBufferRejected) {
  Bytes tiny(10, 0);
  EXPECT_EQ(Frame::peek_header(as_span(tiny)).status().code(),
            ErrorCode::kDataLoss);
}

TEST(Frame, BadMagicRejected) {
  const Bytes code = make_code(16);
  auto frame = Frame::build(1, ir::CodeRepr::kBitcode, as_span(code), {}, 0);
  ASSERT_TRUE(frame.is_ok());
  Bytes corrupted(frame->full_view().begin(), frame->full_view().end());
  corrupted[0] ^= 0xff;
  EXPECT_FALSE(Frame::peek_header(as_span(corrupted)).is_ok());
}

TEST(Frame, HeaderCorruptionDetected) {
  const Bytes code = make_code(16);
  auto frame = Frame::build(1, ir::CodeRepr::kBitcode, as_span(code), {}, 0);
  ASSERT_TRUE(frame.is_ok());
  // Flip each header byte between magic and check; all must be caught.
  for (std::size_t pos = 4; pos < 24; ++pos) {
    Bytes corrupted(frame->full_view().begin(), frame->full_view().end());
    corrupted[pos] ^= 0x10;
    EXPECT_FALSE(Frame::peek_header(as_span(corrupted)).is_ok())
        << "byte " << pos;
  }
}

TEST(Frame, WrongLengthRejected) {
  const Bytes code = make_code(64);
  const Bytes payload = make_code(8, 9);
  auto frame = Frame::build(2, ir::CodeRepr::kBitcode, as_span(code),
                            as_span(payload), 0);
  ASSERT_TRUE(frame.is_ok());
  ByteSpan full = frame->full_view();
  // Neither-truncated-nor-full lengths are protocol violations.
  for (std::size_t cut : {1ul, 3ul, 10ul}) {
    EXPECT_FALSE(Frame::validate(full.subspan(0, full.size() - cut)).is_ok())
        << "cut " << cut;
  }
}

TEST(Frame, PayloadDelimiterCorruptionDetected) {
  const Bytes code = make_code(64);
  const Bytes payload = make_code(8, 9);
  auto frame = Frame::build(2, ir::CodeRepr::kBitcode, as_span(code),
                            as_span(payload), 0);
  ASSERT_TRUE(frame.is_ok());
  Bytes corrupted(frame->full_view().begin(), frame->full_view().end());
  corrupted[kHeaderSize + 8] ^= 0xff;  // first MAGIC byte
  EXPECT_FALSE(Frame::validate(as_span(corrupted)).is_ok());
}

TEST(Frame, TrailerDelimiterCorruptionDetected) {
  const Bytes code = make_code(64);
  auto frame = Frame::build(2, ir::CodeRepr::kBitcode, as_span(code), {}, 0);
  ASSERT_TRUE(frame.is_ok());
  Bytes corrupted(frame->full_view().begin(), frame->full_view().end());
  corrupted.back() ^= 0xff;
  EXPECT_FALSE(Frame::validate(as_span(corrupted)).is_ok());
  // But the truncated prefix of the same buffer stays valid.
  EXPECT_TRUE(Frame::validate(ByteSpan(corrupted.data(),
                                       frame->truncated_size()))
                  .is_ok());
}

// --- traced wire images ----------------------------------------------------------
// Frame::encode writes only the bytes that ship. The byte-count checks here
// pin the property the NACK-redelivery path depends on: a traced truncated
// send adds exactly the 16-byte trace extension and never copies the code
// archive, however large it is.

/// `frame` re-encoded with `trace` attached, truncated or full.
Bytes traced_image(const Frame& frame, const obs::TraceContext& trace,
                   bool include_code) {
  FrameHeader header = frame.header();
  header.trace = trace;
  return Frame::encode(header,
                       Frame::payload_view(frame.full_view(), frame.header()),
                       Frame::code_view(frame.full_view(), frame.header()),
                       include_code);
}

TEST(FrameTracedWire, TruncatedImageAddsOnlyTraceExt) {
  const Bytes code = make_code(5159);  // the paper's ~5 KiB TSI archive
  const Bytes payload = {1, 2, 3};
  auto frame = Frame::build(21, ir::CodeRepr::kBitcode, as_span(code),
                            as_span(payload), 4);
  ASSERT_TRUE(frame.is_ok());
  obs::TraceContext trace;
  trace.trace_id = 0xABCD;
  trace.hop = 2;
  trace.parent_span = 77;
  Bytes wire = traced_image(*frame, trace, /*include_code=*/false);
  // Exactly trace-ext bigger than the untraced truncated send: the 5 KiB
  // archive contributed zero bytes to the redelivery-path image.
  EXPECT_EQ(wire.size(), frame->truncated_size() + kTraceExtSize);
  auto has_code = Frame::validate(as_span(wire));
  ASSERT_TRUE(has_code.is_ok());
  EXPECT_FALSE(*has_code);
  auto header = Frame::peek_header(as_span(wire));
  ASSERT_TRUE(header.is_ok());
  EXPECT_TRUE(header->traced());
  EXPECT_EQ(header->trace.trace_id, 0xABCDu);
  EXPECT_EQ(header->trace.hop, 2u);
  EXPECT_EQ(header->trace.parent_span, 77u);
  ByteSpan p = Frame::payload_view(as_span(wire), *header);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), p.begin(), p.end()));
}

TEST(FrameTracedWire, FullImageAddsOnlyTraceExt) {
  const Bytes code = make_code(4096);
  const Bytes payload = {9};
  auto frame = Frame::build(22, ir::CodeRepr::kObject, as_span(code),
                            as_span(payload), 1);
  ASSERT_TRUE(frame.is_ok());
  obs::TraceContext trace;
  trace.trace_id = 7;
  Bytes wire = traced_image(*frame, trace, /*include_code=*/true);
  EXPECT_EQ(wire.size(), frame->full_size() + kTraceExtSize);
  auto has_code = Frame::validate(as_span(wire));
  ASSERT_TRUE(has_code.is_ok());
  EXPECT_TRUE(*has_code);
  auto header = Frame::peek_header(as_span(wire));
  ASSERT_TRUE(header.is_ok());
  ByteSpan c = Frame::code_view(as_span(wire), *header);
  EXPECT_TRUE(std::equal(code.begin(), code.end(), c.begin(), c.end()));
}

// --- the runtime's ifunc encoder, pinned byte for byte ----------------------
// Runtime encodes each ifunc frame once, at departure, with only the bytes
// that ship. The captured wire bytes are held against the frame layout
// written out here from the spec in frame.hpp, independently of Frame.

std::uint16_t folded_check(ByteSpan first24) {
  const std::uint64_t h = fnv1a64(first24);
  return static_cast<std::uint16_t>(h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48));
}

Bytes reference_image(std::uint64_t ifunc_id, ir::CodeRepr repr,
                      std::uint32_t origin, ByteSpan payload, ByteSpan code,
                      const obs::TraceContext& trace, bool with_code) {
  ByteWriter w;
  w.u16(kFrameMagic);
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(static_cast<std::uint8_t>(repr) |
                                 (trace.traced() ? kReprTracedFlag : 0)));
  w.u64(ifunc_id);
  w.u32(origin);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(static_cast<std::uint32_t>(code.size()));
  w.u16(folded_check(ByteSpan(w.bytes().data(), 24)));
  if (trace.traced()) {
    w.u64(trace.trace_id);
    w.u32(trace.hop);
    w.u32(trace.parent_span);
  }
  w.raw(payload);
  w.u32(kMagicPayloadEnd);
  if (with_code) {
    w.raw(code);
    w.u32(kMagicCodeEnd);
  }
  return std::move(w).take();
}

/// A sim cluster whose first `runtimes` nodes run a Runtime (traced when
/// asked); the rest run none, so whatever is sent to them stays queued,
/// byte for byte, for try_recv.
struct EncoderHarness {
  EncoderHarness(std::size_t nodes, bool traced, RuntimeOptions options = {},
                 std::size_t runtimes = 1)
      : tracer(nodes) {
    fabric.set_default_link(fabric::instant_link());
    for (std::size_t i = 0; i < nodes; ++i) {
      fabric.add_node("n" + std::to_string(i));
    }
    transport = std::make_unique<fabric::SimTransport>(fabric);
    if (traced) options.tracer = &tracer;
    for (std::size_t i = 0; i < runtimes; ++i) {
      auto made = Runtime::create(*transport, i, options);
      EXPECT_TRUE(made.is_ok()) << made.status().to_string();
      rts.push_back(std::move(made).value());
    }
  }

  Runtime& rt() { return *rts.front(); }

  Bytes take(fabric::NodeId node) {
    auto msg = transport->try_recv(node);
    EXPECT_TRUE(msg.has_value()) << "nothing queued at node " << node;
    return msg.has_value() ? msg->data : Bytes{};
  }

  /// The trace context a captured frame carries (untraced if none).
  static obs::TraceContext trace_of(const Bytes& wire) {
    auto header = Frame::peek_header(as_span(wire));
    EXPECT_TRUE(header.is_ok()) << header.status().to_string();
    return header.is_ok() ? header->trace : obs::TraceContext{};
  }

  fabric::Fabric fabric;
  std::unique_ptr<fabric::SimTransport> transport;
  obs::Tracer tracer;
  std::vector<std::unique_ptr<Runtime>> rts;
};

IfuncLibrary portable_library(ir::KernelKind kind) {
  auto lib = IfuncLibrary::from_portable_kernel(kind);
  EXPECT_TRUE(lib.is_ok()) << lib.status().to_string();
  return std::move(lib).value();
}

class RuntimeEncoderP
    : public ::testing::TestWithParam<std::tuple<bool, std::size_t>> {};

TEST_P(RuntimeEncoderP, SendsShipExactlyTheLayout) {
  const auto [traced, payload_size] = GetParam();
  EncoderHarness h(3, traced);
  const IfuncLibrary lib =
      portable_library(ir::KernelKind::kTargetSideIncrement);
  const Bytes code = lib.serialized_archive();
  auto id = h.rt().register_ifunc(lib);
  ASSERT_TRUE(id.is_ok());
  const Bytes payload = make_code(payload_size, 3);

  // Node 1 through send_ifunc, node 2 through create_message + send_frame.
  // The first round finds both peers without the code, the second with it.
  for (bool peer_has_code : {false, true}) {
    SCOPED_TRACE(peer_has_code ? "peer has the code" : "peer lacks the code");
    ASSERT_TRUE(h.rt().send_ifunc(1, *id, as_span(payload)).is_ok());
    auto frame = h.rt().create_message(*id, as_span(payload));
    ASSERT_TRUE(frame.is_ok());
    ASSERT_TRUE(h.rt().send_frame(2, *frame).is_ok());
    h.fabric.run_until_idle();

    for (fabric::NodeId dst : {fabric::NodeId{1}, fabric::NodeId{2}}) {
      const Bytes wire = h.take(dst);
      const obs::TraceContext trace = EncoderHarness::trace_of(wire);
      EXPECT_EQ(trace.traced(), traced);
      if (traced) EXPECT_EQ(trace.hop, 0u);
      EXPECT_EQ(wire, reference_image(*id, lib.repr(), 0, as_span(payload),
                                      as_span(code), trace, !peer_has_code));
      if (!traced) {
        const ByteSpan view =
            peer_has_code ? frame->truncated_view() : frame->full_view();
        EXPECT_EQ(wire, Bytes(view.begin(), view.end()));
      }
    }
    const Runtime::Stats& st = h.rt().stats();
    EXPECT_EQ(st.frames_sent_full, 2u);
    EXPECT_EQ(st.code_bytes_sent, 2 * code.size());
    EXPECT_EQ(st.frames_sent_truncated, peer_has_code ? 2u : 0u);
    EXPECT_EQ(st.code_bytes_saved,
              peer_has_code ? 2 * (frame->full_size() - frame->truncated_size())
                            : 0u);
  }
  if (traced) {
    // Every root send recorded its span under the id the frame carries as
    // parent: four sends, four distinct traces.
    std::set<std::uint64_t> roots;
    for (const obs::TraceEvent& event : h.tracer.drain_all()) {
      if (event.kind == obs::SpanKind::kRootSend) roots.insert(event.trace_id);
    }
    EXPECT_EQ(roots.size(), 4u);
  }
}

TEST_P(RuntimeEncoderP, ForwardsShipExactlyTheLayout) {
  // The ring hop runs on a second runtime (node 1) and forwards itself to
  // node 2, which has no runtime: the captured frames are the forward
  // path's departures, first without, then with the code at the peer.
  const auto [traced, extra] = GetParam();
  const std::size_t payload_size = 16 + extra;  // [ttl][hops] + filler
  EncoderHarness h(3, traced, {}, /*runtimes=*/2);
  Runtime& rt_b = *h.rts[1];
  rt_b.set_peers({2, 1});  // self index 1: the next hop is index 0, node 2

  const IfuncLibrary lib = portable_library(ir::KernelKind::kRingHop);
  const Bytes code = lib.serialized_archive();
  auto id = h.rt().register_ifunc(lib);
  ASSERT_TRUE(id.is_ok());

  for (bool peer_has_code : {false, true}) {
    SCOPED_TRACE(peer_has_code ? "peer has the code" : "peer lacks the code");
    Bytes payload = make_code(payload_size, 5);
    ByteWriter head;
    head.u64(1);  // ttl: node 1 forwards once
    head.u64(7);  // hops so far
    std::copy(head.bytes().begin(), head.bytes().end(), payload.begin());
    ASSERT_TRUE(h.rt().send_ifunc(1, *id, as_span(payload)).is_ok());
    h.fabric.run_until_idle();

    Bytes forwarded = payload;  // the kernel decrements ttl, bumps hops
    ByteWriter next;
    next.u64(0);
    next.u64(8);
    std::copy(next.bytes().begin(), next.bytes().end(), forwarded.begin());
    const Bytes wire = h.take(2);
    const obs::TraceContext trace = EncoderHarness::trace_of(wire);
    EXPECT_EQ(trace.traced(), traced);
    if (traced) EXPECT_EQ(trace.hop, 1u);
    EXPECT_EQ(wire, reference_image(*id, lib.repr(), /*origin=*/0,
                                    as_span(forwarded), as_span(code), trace,
                                    !peer_has_code));
    const Runtime::Stats& st = rt_b.stats();
    EXPECT_EQ(st.forwards, peer_has_code ? 2u : 1u);
    EXPECT_EQ(st.forward_send_failures, 0u);
    EXPECT_EQ(st.frames_sent_full, 1u);
    EXPECT_EQ(st.code_bytes_sent, code.size());
    EXPECT_EQ(st.frames_sent_truncated, peer_has_code ? 1u : 0u);
    EXPECT_EQ(st.code_bytes_saved,
              peer_has_code ? code.size() + kMagicSize : 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TracedAndPayloads, RuntimeEncoderP,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(std::size_t{0}, std::size_t{24},
                                         std::size_t{4096})));

TEST(RuntimeEncoder, ForceFullFramesShipsTheCodeEveryTime) {
  RuntimeOptions options;
  options.force_full_frames = true;
  EncoderHarness h(2, /*traced=*/false, options);
  const IfuncLibrary lib =
      portable_library(ir::KernelKind::kTargetSideIncrement);
  auto id = h.rt().register_ifunc(lib);
  ASSERT_TRUE(id.is_ok());
  const Bytes payload = make_code(24, 9);
  auto frame = h.rt().create_message(*id, as_span(payload));
  ASSERT_TRUE(frame.is_ok());
  const Bytes full(frame->full_view().begin(), frame->full_view().end());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(h.rt().send_ifunc(1, *id, as_span(payload)).is_ok());
  }
  h.fabric.run_until_idle();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(h.take(1), full);
  EXPECT_EQ(h.rt().stats().frames_sent_full, 3u);
  EXPECT_EQ(h.rt().stats().frames_sent_truncated, 0u);
  EXPECT_EQ(h.rt().stats().code_bytes_sent,
            3 * lib.serialized_archive().size());
  EXPECT_EQ(h.rt().stats().code_bytes_saved, 0u);
}

class FrameSweepP : public ::testing::TestWithParam<
                        std::tuple<std::size_t, std::size_t, ir::CodeRepr>> {};

TEST_P(FrameSweepP, RoundTripAcrossShapes) {
  const auto [payload_size, code_size, repr] = GetParam();
  const Bytes code = make_code(code_size, payload_size + 17);
  const Bytes payload = make_code(payload_size, code_size + 29);
  auto frame = Frame::build(payload_size * 1000003 + code_size, repr,
                            as_span(code), as_span(payload), 5);
  ASSERT_TRUE(frame.is_ok());

  for (bool truncated : {false, true}) {
    ByteSpan view = truncated ? frame->truncated_view() : frame->full_view();
    auto has_code = Frame::validate(view);
    ASSERT_TRUE(has_code.is_ok());
    EXPECT_EQ(*has_code, !truncated);
    auto header = Frame::peek_header(view);
    ASSERT_TRUE(header.is_ok());
    ByteSpan p = Frame::payload_view(view, *header);
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), p.begin(), p.end()));
    if (!truncated) {
      ByteSpan c = Frame::code_view(view, *header);
      EXPECT_TRUE(std::equal(code.begin(), code.end(), c.begin(), c.end()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FrameSweepP,
    ::testing::Combine(::testing::Values(0, 1, 16, 255, 4096),
                       ::testing::Values(1, 65, 5159, 65536),
                       ::testing::Values(ir::CodeRepr::kBitcode,
                                         ir::CodeRepr::kObject)));

// --- result frames ---------------------------------------------------------------

TEST(ResultFrame, RoundTrip) {
  const Bytes data = {1, 2, 3, 4, 5, 6, 7, 8};
  Bytes wire = encode_result_frame(13, as_span(data));
  ASSERT_TRUE(is_result_frame(as_span(wire)));
  auto decoded = decode_result_frame(as_span(wire));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded->origin_node, 13u);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), decoded->data.begin(),
                         decoded->data.end()));
}

TEST(ResultFrame, EmptyPayloadAllowed) {
  Bytes wire = encode_result_frame(1, {});
  auto decoded = decode_result_frame(as_span(wire));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_TRUE(decoded->data.empty());
}

TEST(ResultFrame, IfuncFrameIsNotResultFrame) {
  const Bytes code = make_code(16);
  auto frame = Frame::build(1, ir::CodeRepr::kBitcode, as_span(code), {}, 0);
  ASSERT_TRUE(frame.is_ok());
  EXPECT_FALSE(is_result_frame(frame->full_view()));
}

TEST(ResultFrame, TrailingGarbageRejected) {
  Bytes wire = encode_result_frame(1, as_span(Bytes{9}));
  wire.push_back(0);
  EXPECT_FALSE(decode_result_frame(as_span(wire)).is_ok());
}

}  // namespace
}  // namespace tc::core
