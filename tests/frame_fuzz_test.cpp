// Fuzzes the runtime's frame decoders — ifunc frames with and without the
// v3 trace extension, result frames, NACKs and protocol-v2 batch
// containers — with a corpus captured from the runtime's own encoders.
//
// Every mutant is delivered to a victim runtime that holds the TSI kernel
// (each execution adds exactly 1 to its target word) and is checked for:
//   * no crash or over-read (the suite runs under ASan+UBSan);
//   * no wrong code: the target word moves exactly as often as frames
//     execute, so nothing but the checksummed TSI archive ever ran;
//   * no silent drop: each (sub-)frame either lands — executes, returns a
//     result, answers a NACK with the code, or waits for its code — or is
//     counted in Stats::protocol_errors. A well-formed code-only frame is
//     the one message that lands without a visible effect.
// Batches additionally keep the sub-frames around a bad one.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

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

Bytes pattern(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

struct Sample {
  std::string name;
  Bytes bytes;
};

/// Frames exactly as the runtime's send paths encode them: a runtime on
/// node 0 sends to node 1, which runs no runtime, so the wire bytes stay
/// queued there for the taking.
class Corpus {
 public:
  Corpus() : tracer_(2) {
    fabric_.set_default_link(fabric::instant_link());
    fabric_.add_node("encoder");
    fabric_.add_node("capture");
    transport_ = std::make_unique<fabric::SimTransport>(fabric_);
  }

  /// Frames of `lib` from a fresh runtime: the first send ships the code,
  /// the second is truncated, and then three truncated sends leave as one
  /// protocol-v2 batch container.
  void capture_ifunc_frames(const IfuncLibrary& lib, bool traced,
                            std::size_t payload_size) {
    RuntimeOptions options;
    if (traced) options.tracer = &tracer_;
    auto rt = Runtime::create(*transport_, 0, options);
    ASSERT_TRUE(rt.is_ok());
    auto id = (*rt)->register_ifunc(lib);
    ASSERT_TRUE(id.is_ok());
    const Bytes payload = pattern(payload_size, payload_size + 1);
    const std::string tag = std::string(traced ? "traced" : "plain") +
                            " payload " + std::to_string(payload_size);
    ASSERT_TRUE((*rt)->send_ifunc(1, *id, as_span(payload)).is_ok());
    ASSERT_TRUE((*rt)->send_ifunc(1, *id, as_span(payload)).is_ok());
    fabric_.run_until_idle();
    take("full " + tag);
    take("truncated " + tag);

    (*rt)->set_batch_options({/*max_frames=*/3, /*flush_ns=*/1'000});
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*rt)->send_ifunc(1, *id, as_span(payload)).is_ok());
    }
    fabric_.run_until_idle();
    take("batch of truncated " + tag);
  }

  void add(std::string name, Bytes bytes) {
    samples_.push_back({std::move(name), std::move(bytes)});
  }

  const std::vector<Sample>& samples() const { return samples_; }
  const Bytes& get(const std::string& name) const {
    for (const Sample& s : samples_) {
      if (s.name == name) return s.bytes;
    }
    ADD_FAILURE() << "no corpus sample " << name;
    return samples_.front().bytes;
  }

 private:
  void take(std::string name) {
    auto msg = transport_->try_recv(1);
    ASSERT_TRUE(msg.has_value()) << name;
    samples_.push_back({std::move(name), std::move(msg->data)});
  }

  fabric::Fabric fabric_;
  std::unique_ptr<fabric::SimTransport> transport_;
  obs::Tracer tracer_;
  std::vector<Sample> samples_;
};

/// Node 1 runs the victim runtime (traced, so the trace decode paths run
/// too); node 0 is a bare sender whose queue soaks up NACKs and resends.
class Victim {
 public:
  explicit Victim(const Bytes& registering_full_frame) : tracer_(2) {
    fabric_.set_default_link(fabric::instant_link());
    fabric_.add_node("sender");
    fabric_.add_node("victim");
    transport_ = std::make_unique<fabric::SimTransport>(fabric_);
    RuntimeOptions options;
    options.tracer = &tracer_;
    auto rt = Runtime::create(*transport_, 1, options);
    EXPECT_TRUE(rt.is_ok());
    rt_ = std::move(rt).value();
    rt_->set_target_ptr(&counter_);
    deliver(registering_full_frame);
    EXPECT_EQ(counter_, 1u);
    EXPECT_EQ(rt_->stats().auto_registered, 1u);
  }

  struct Outcome {
    std::uint64_t landed = 0;
    std::uint64_t protocol_errors = 0;
    std::uint64_t executed = 0;
  };

  Outcome deliver(const Bytes& message) {
    const Runtime::Stats& st = rt_->stats();
    const std::uint64_t errors0 = st.protocol_errors;
    const std::uint64_t executed0 = st.frames_executed;
    const std::uint64_t landed0 = landed_so_far();
    const std::uint64_t counter0 = counter_;
    transport_->post_send(0, 1, as_span(message), 1, {});
    fabric_.run_until_idle();
    while (transport_->try_recv(0).has_value()) {
    }
    tracer_.drain_all();
    Outcome out;
    out.protocol_errors = st.protocol_errors - errors0;
    out.executed = st.frames_executed - executed0;
    out.landed = landed_so_far() - landed0;
    // Nothing but TSI may ever run: one increment per execution.
    EXPECT_EQ(counter_ - counter0, out.executed);
    return out;
  }

 private:
  std::uint64_t landed_so_far() const {
    const Runtime::Stats& st = rt_->stats();
    return st.frames_executed + st.results_received + st.frames_sent_full +
           rt_->pending_payload_count();
  }

  fabric::Fabric fabric_;
  std::unique_ptr<fabric::SimTransport> transport_;
  obs::Tracer tracer_;
  std::unique_ptr<Runtime> rt_;
  std::uint64_t counter_ = 0;
};

/// A code-only frame as the NACK resend path builds it: the full form, no
/// payload.
bool is_code_only_frame(ByteSpan bytes) {
  auto header = Frame::peek_header(bytes);
  auto has_code = Frame::validate(bytes);
  return header.is_ok() && header->code_only && header->payload_size == 0 &&
         has_code.is_ok() && *has_code;
}

/// How many (sub-)frames of `message` must land or be counted as protocol
/// errors: one per part, except well-formed code-only frames; a container
/// that does not decode is one error.
std::uint64_t accountable_parts(ByteSpan message) {
  if (!is_batch_frame(message)) return is_code_only_frame(message) ? 0 : 1;
  auto parts = decode_batch_frame(message);
  if (!parts.is_ok()) return 1;
  return static_cast<std::uint64_t>(std::count_if(
      parts->begin(), parts->end(),
      [](ByteSpan part) { return !is_code_only_frame(part); }));
}

void expect_accounted(Victim& victim, const Bytes& mutant,
                      const std::string& what) {
  const Victim::Outcome out = victim.deliver(mutant);
  EXPECT_EQ(out.landed + out.protocol_errors,
            accountable_parts(as_span(mutant)))
      << what << " (landed " << out.landed << ", protocol errors "
      << out.protocol_errors << ")";
}

// --- mutators ---------------------------------------------------------------

std::uint16_t folded_check(ByteSpan first24) {
  const std::uint64_t h = fnv1a64(first24);
  return static_cast<std::uint16_t>(h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48));
}

void put_u32(Bytes& b, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Re-seals an ifunc frame's header check after a field edit, so the edit
/// reaches the length and flag logic instead of failing the check.
void reseal(Bytes& frame) {
  const std::uint16_t check = folded_check(ByteSpan(frame.data(), 24));
  frame[24] = static_cast<std::uint8_t>(check);
  frame[25] = static_cast<std::uint8_t>(check >> 8);
}

constexpr std::size_t kPayloadSizeAt = 16;
constexpr std::size_t kCodeSizeAt = 20;
constexpr std::size_t kReprAt = 3;

std::uint32_t read_u32(const Bytes& b, std::size_t at) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) v |= std::uint32_t{b[at + i]} << (8 * i);
  return v;
}

/// Lengths to cut `bytes` to: every one through the header and trace
/// extension, then a stride through the rest.
std::vector<std::size_t> cut_points(std::size_t size) {
  std::vector<std::size_t> cuts;
  for (std::size_t n = 1; n < size; n += (n < 64 ? 1 : 97)) cuts.push_back(n);
  if (size > 1) cuts.push_back(size - 1);
  return cuts;
}

class FrameDecoderFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    auto lib = IfuncLibrary::from_portable_kernel(
        ir::KernelKind::kTargetSideIncrement);
    ASSERT_TRUE(lib.is_ok()) << lib.status().to_string();
    for (bool traced : {false, true}) {
      for (std::size_t payload : {std::size_t{0}, std::size_t{24}}) {
        corpus_.capture_ifunc_frames(*lib, traced, payload);
      }
    }
    corpus_.capture_ifunc_frames(*lib, /*traced=*/false, 4096);
    ASSERT_FALSE(HasFatalFailure());
    tsi_id_ = lib->id();
    obs::TraceContext trace;
    trace.trace_id = 0x5EED;
    trace.hop = 3;
    trace.parent_span = 11;
    const Bytes result_data = pattern(24, 7);
    corpus_.add("plain result",
                encode_result_frame(0, as_span(result_data)));
    corpus_.add("traced result",
                encode_result_frame(0, as_span(result_data), &trace));
    corpus_.add("nack", encode_nack_frame(tsi_id_));
    auto mixed = encode_batch_frame(
        {corpus_.get("truncated traced payload 24"),
         encode_result_frame(0, as_span(result_data)),
         encode_nack_frame(tsi_id_), corpus_.get("truncated plain payload 0")});
    ASSERT_TRUE(mixed.is_ok());
    corpus_.add("mixed batch", std::move(*mixed));
  }

  static bool is_ifunc_frame(const Bytes& b) {
    return b.size() >= 2 && b[0] == (kFrameMagic & 0xff) &&
           b[1] == (kFrameMagic >> 8);
  }

  Corpus corpus_;
  std::uint64_t tsi_id_ = 0;
};

TEST_F(FrameDecoderFuzz, PristineCorpusLands) {
  Victim victim(corpus_.get("full plain payload 0"));
  for (const Sample& s : corpus_.samples()) {
    const Victim::Outcome out = victim.deliver(s.bytes);
    EXPECT_EQ(out.protocol_errors, 0u) << s.name;
    EXPECT_EQ(out.landed, accountable_parts(as_span(s.bytes))) << s.name;
  }
}

TEST_F(FrameDecoderFuzz, TruncationsAreCountedNeverOverRead) {
  Victim victim(corpus_.get("full plain payload 0"));
  for (const Sample& s : corpus_.samples()) {
    for (std::size_t n : cut_points(s.bytes.size())) {
      const Bytes cut(s.bytes.begin(), s.bytes.begin() + n);
      expect_accounted(victim, cut, s.name + " cut to " + std::to_string(n));
    }
  }
}

TEST_F(FrameDecoderFuzz, SectionSizesZeroOffByOneAndMaximum) {
  Victim victim(corpus_.get("full plain payload 0"));
  for (const Sample& s : corpus_.samples()) {
    if (!is_ifunc_frame(s.bytes)) continue;
    for (std::size_t field : {kPayloadSizeAt, kCodeSizeAt}) {
      const std::uint32_t actual = read_u32(s.bytes, field);
      for (std::uint32_t value :
           {0u, actual - 1, actual + 1, 0xFFFFFFFFu, 0xFFFFFFFEu}) {
        if (value == actual) continue;
        for (bool sealed : {false, true}) {
          Bytes m = s.bytes;
          put_u32(m, field, value);
          if (sealed) reseal(m);
          const Victim::Outcome out = victim.deliver(m);
          const std::string what =
              s.name +
              (field == kPayloadSizeAt ? " payload_size=" : " code_size=") +
              std::to_string(value) + (sealed ? " resealed" : "");
          EXPECT_EQ(out.landed + out.protocol_errors, 1u) << what;
          // A length that disagrees with the bytes never runs. (A truncated
          // frame does not depend on code_size, so that edit may.)
          if (!Frame::validate(as_span(m)).is_ok()) {
            EXPECT_EQ(out.executed, 0u) << what;
          }
        }
      }
    }
  }
}

TEST_F(FrameDecoderFuzz, ReprFlagBits) {
  Victim victim(corpus_.get("full plain payload 0"));
  for (const Sample& s : corpus_.samples()) {
    if (!is_ifunc_frame(s.bytes)) continue;
    for (int bit = 0; bit < 8; ++bit) {
      for (bool sealed : {false, true}) {
        Bytes m = s.bytes;
        m[kReprAt] ^= static_cast<std::uint8_t>(1u << bit);
        if (sealed) reseal(m);
        expect_accounted(victim, m,
                         s.name + " repr bit " + std::to_string(bit) +
                             (sealed ? " resealed" : ""));
      }
    }
  }
}

TEST_F(FrameDecoderFuzz, SeededBitFlips) {
  Victim victim(corpus_.get("full plain payload 0"));
  Xoshiro256 rng(0xF1A9);
  const std::vector<Sample>& samples = corpus_.samples();
  for (int round = 0; round < 1000; ++round) {
    const Sample& s = samples[rng.below(samples.size())];
    Bytes m = s.bytes;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t bit = rng.below(m.size() * 8);
      m[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    expect_accounted(victim, m,
                     s.name + " round " + std::to_string(round) + ", " +
                         std::to_string(flips) + " flips");
  }
}

TEST_F(FrameDecoderFuzz, BadSubFrameKeepsItsBatchMates) {
  Victim victim(corpus_.get("full plain payload 0"));
  const Bytes good = corpus_.get("truncated plain payload 24");
  const Bytes traced = corpus_.get("truncated traced payload 24");
  std::vector<std::pair<std::string, Bytes>> bad;
  for (std::size_t n : cut_points(traced.size())) {
    bad.push_back({"cut to " + std::to_string(n),
                   Bytes(traced.begin(), traced.begin() + n)});
  }
  for (std::uint32_t value : {0u, 23u, 25u, 0xFFFFFFFFu}) {
    Bytes m = traced;
    put_u32(m, kPayloadSizeAt, value);
    reseal(m);
    bad.push_back({"payload_size=" + std::to_string(value), std::move(m)});
  }
  for (int bit = 0; bit < 8; ++bit) {
    Bytes m = traced;
    m[kReprAt] ^= static_cast<std::uint8_t>(1u << bit);
    reseal(m);
    bad.push_back({"repr bit " + std::to_string(bit), std::move(m)});
  }
  bad.push_back({"nack with trailing bytes", [&] {
                   Bytes m = encode_nack_frame(tsi_id_);
                   m.push_back(0);
                   return m;
                 }()});
  bad.push_back({"nested batch", *encode_batch_frame({good, good})});

  for (const auto& [name, part] : bad) {
    auto container = encode_batch_frame({good, part, good});
    ASSERT_TRUE(container.is_ok());
    const Victim::Outcome out = victim.deliver(*container);
    if (name == "nested batch") {
      // Batches never nest: a container holding one is malformed as a
      // whole, refused with one error before any part runs.
      EXPECT_EQ(out.protocol_errors, 1u);
      EXPECT_EQ(out.executed, 0u);
      continue;
    }
    EXPECT_GE(out.executed, 2u) << name;
    EXPECT_EQ(out.landed + out.protocol_errors,
              accountable_parts(as_span(*container)))
        << name;
  }
}

}  // namespace
}  // namespace tc::core
