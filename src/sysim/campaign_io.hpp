#pragma once
/// \file campaign_io.hpp
/// Binary wire format of the campaign process pool
/// (campaign_orchestrator.hpp). A coordinator stages the workload once,
/// then fans pre-drawn spec shards out to worker processes, which
/// rebuild the same platform, check it against the coordinator's golden
/// reference and stream verdict histograms back. Everything that crosses
/// the process boundary is serialized here:
///
///   CampaignShard     — one worker's complete input (golden reference +
///                       budget + ladder + specs)
///   CampaignProgress  — a worker heartbeat (trials completed)
///   CampaignResult    — a verdict histogram (the worker's answer)
///
/// No platform image crosses the wire; a worker rebuilds and checks its
/// own (see CampaignShard).
///
/// Every payload starts with an 8-byte header (magic, format version,
/// payload kind); deserialization validates all three, every enum in the
/// body and the consistency of histograms, throwing std::runtime_error
/// whose message carries the byte offset and the expected-vs-actual
/// sizes rather than constructing half-formed state — a short pipe read
/// and a malformed enum are distinguishable from the message alone.
/// Scalars are little-endian and doubles are IEEE-754 bit patterns, so a
/// payload that parses re-serializes to its own bytes and merged
/// multi-process histograms match the serial run bit-for-bit.
///
/// Payloads that travel over a byte *stream* (worker stdout) are wrapped
/// in frames — a u64 length prefix followed by the payload — reassembled
/// by FrameBuffer, so heartbeats and the final histogram share one pipe
/// without ambiguity.

#include <cstdint>
#include <optional>
#include <vector>

#include "sysim/fault.hpp"

namespace aspen::sys {

/// Format version; bump on any layout change (readers reject mismatches).
/// v2: CampaignShard gained `seq` + `point` (sweep-cell parameters), and
/// the stream kinds progress (5) and journal (6) joined the protocol.
/// v3: fault-detection state joined the platform image (accelerator
/// ERROR latch, CRC expectations, watchdog countdown, ABFT counters),
/// SweepPoint gained the `abft` axis, CampaignShard gained the
/// software-fallback golden, and histograms carry the recovery verdicts.
/// v4: the CPU snapshot gained the mtval CSR (trap value register,
/// introduced with the RV32C / misaligned-fetch work).
/// v5: CampaignShard no longer carries the staged platform image (about
/// 90% of a shard's bytes), and the platform-image payload kind (1) is
/// retired: workers rebuild the platform from factory(point) and check
/// its golden against the shard's instead of restoring a shipped copy.
/// v6: CampaignShard lost the sweep point (28 bytes) and the
/// software-fallback golden (8 bytes when empty): the sweep harness that
/// set the point is gone, and recovery-aware campaigns run in-process
/// only (plan_shards rejects them). The spec-batch (2) and journal (6)
/// kinds are retired too, because specs travel only inside a shard and
/// the resume journal is gone; like kind 1, they are rejected as unknown.
inline constexpr std::uint16_t kCampaignWireVersion = 6;

/// Payload discriminator carried in the header (1, 2 and 6 are retired;
/// see kCampaignWireVersion).
enum class PayloadKind : std::uint16_t {
  kHistogram = 3,
  kShard = 4,
  kProgress = 5,
};

/// One worker's complete campaign input: the coordinator's golden
/// reference plus the spec shard to execute. The worker rebuilds the
/// platform from its own factory, runs its own golden, and executes the
/// specs only if that golden's output equals `golden` and its cycle
/// count equals `golden_cycles` — a worker built on another platform
/// refuses the shard instead of grading it on its own timing.
struct CampaignShard {
  /// Orchestrator sequence number: unique per shard across a campaign.
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> golden;
  std::uint64_t golden_cycles = 0;
  std::uint64_t max_cycles = 0;
  /// Checkpoint-ladder rungs the worker should build (<= 1 disables).
  std::uint32_t ladder_rungs = 0;
  std::vector<FaultSpec> specs;
};

/// Worker heartbeat: emitted between trial chunks so the orchestrator
/// can tell a slow shard from a hung worker.
struct CampaignProgress {
  std::uint64_t shard_seq = 0;
  std::uint64_t trials_done = 0;
  std::uint64_t trials_total = 0;
};

// -- Serialization (header + body) ----------------------------------------
[[nodiscard]] std::vector<std::uint8_t> serialize_histogram(
    const CampaignResult& r);
[[nodiscard]] std::vector<std::uint8_t> serialize_shard(
    const CampaignShard& shard);
[[nodiscard]] std::vector<std::uint8_t> serialize_progress(
    const CampaignProgress& p);

// -- Deserialization (throws std::runtime_error on malformed payloads) ----
[[nodiscard]] CampaignResult deserialize_histogram(const std::uint8_t* data,
                                                   std::size_t size);
[[nodiscard]] CampaignShard deserialize_shard(const std::uint8_t* data,
                                              std::size_t size);
[[nodiscard]] CampaignProgress deserialize_progress(const std::uint8_t* data,
                                                    std::size_t size);

[[nodiscard]] inline CampaignResult deserialize_histogram(
    const std::vector<std::uint8_t>& b) {
  return deserialize_histogram(b.data(), b.size());
}
[[nodiscard]] inline CampaignShard deserialize_shard(
    const std::vector<std::uint8_t>& b) {
  return deserialize_shard(b.data(), b.size());
}
[[nodiscard]] inline CampaignProgress deserialize_progress(
    const std::vector<std::uint8_t>& b) {
  return deserialize_progress(b.data(), b.size());
}

// -- Stream framing --------------------------------------------------------

/// Upper bound on a framed payload; a length prefix beyond this is
/// treated as stream corruption, not an allocation request.
inline constexpr std::uint64_t kMaxFrameBytes = 1ull << 30;

/// Peek at a serialized payload's kind (validates magic + version).
[[nodiscard]] PayloadKind payload_kind(const std::uint8_t* data,
                                       std::size_t size);
[[nodiscard]] inline PayloadKind payload_kind(
    const std::vector<std::uint8_t>& b) {
  return payload_kind(b.data(), b.size());
}

/// Wrap a payload in a stream frame: u64 little-endian length + payload.
[[nodiscard]] std::vector<std::uint8_t> frame(
    const std::vector<std::uint8_t>& payload);

/// Incremental frame reassembly for byte streams (worker pipes): feed()
/// arbitrary chunks, next() yields each complete payload. A partial
/// frame simply waits for more bytes; an insane length prefix
/// (> kMaxFrameBytes) throws — corrupt streams fail loudly, they do not
/// allocate terabytes.
class FrameBuffer {
 public:
  void feed(const std::uint8_t* data, std::size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }
  void feed(const std::vector<std::uint8_t>& b) { feed(b.data(), b.size()); }
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> next();
  /// Bytes buffered but not yet consumed by next().
  [[nodiscard]] std::size_t pending() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

/// Deterministic histogram merge: shard counts sum per outcome (the map
/// is ordered, so the result is independent of shard arrival order).
/// With shards formed by partitioning one serially drawn spec list, the
/// merged histogram is bit-identical to the serial campaign's.
[[nodiscard]] CampaignResult merge_histograms(
    const std::vector<CampaignResult>& shards);

/// Shard planning: partition a serially drawn spec list into
/// `shard_count` contiguous shards, each carrying the campaign's golden
/// reference and cycle budget and a sequence number k = 0, 1, ...
/// Contiguous partitioning is what makes the merged histogram
/// bit-identical to the serial run — trials are independent and every
/// spec lands in exactly one shard. Trailing specs go to the last shard.
/// Throws std::invalid_argument for a campaign with recovery enabled: a
/// worker grades with the four-outcome classifier, so its histogram
/// would not be the serial campaign's.
[[nodiscard]] std::vector<CampaignShard> plan_shards(
    FaultCampaign& campaign, const std::vector<FaultSpec>& specs,
    std::size_t shard_count, std::uint32_t ladder_rungs = 0);

}  // namespace aspen::sys
