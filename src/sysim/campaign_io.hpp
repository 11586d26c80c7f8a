#pragma once
/// \file campaign_io.hpp
/// Binary wire format for distributed fault campaigns. NEUROPULS-scale
/// robustness sweeps (fault type x PCM drift x temperature x ENOB at
/// millions of trials) outgrow one process: a coordinator stages the
/// workload once, then fans pre-drawn spec shards out to worker
/// processes which rebuild the same platform, check it against the
/// coordinator's golden reference and stream verdict histograms back.
/// Everything that crosses the process boundary is serialized here:
///
///   std::vector<FaultSpec>  — a pre-drawn spec shard
///   CampaignResult          — a verdict histogram
///   CampaignShard           — one worker's complete input (sweep point +
///                             golden reference + specs + budget)
///   CampaignProgress        — a worker heartbeat (trials completed)
///   JournalEntry            — a completed-shard record (resume marker)
///
/// No platform image crosses the wire; a worker rebuilds and checks its
/// own (see CampaignShard).
///
/// Every payload starts with an 8-byte header (magic, format version,
/// payload kind); deserialization validates all three, every enum and
/// bool in the body and the consistency of histograms, throwing
/// std::runtime_error whose message carries the byte offset and the
/// expected-vs-actual sizes rather than constructing half-formed state —
/// a short pipe read and a malformed enum are distinguishable from the
/// message alone. Scalars are little-endian and doubles are IEEE-754 bit
/// patterns, so a payload that parses re-serializes to its own bytes and
/// merged multi-process histograms match the serial run bit-for-bit.
///
/// Payloads that travel over a byte *stream* (worker stdout, journal
/// files) are wrapped in frames — a u64 length prefix followed by the
/// payload — reassembled by FrameBuffer, so heartbeats and the final
/// histogram share one pipe without ambiguity.

#include <cstdint>
#include <optional>
#include <vector>

#include "sysim/fault.hpp"

namespace aspen::sys {

/// Format version; bump on any layout change (readers reject mismatches).
/// v2: CampaignShard gained `seq` + `point` (sweep-cell parameters), and
/// the stream kinds kProgress / kJournal joined the protocol.
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
inline constexpr std::uint16_t kCampaignWireVersion = 5;

/// Payload discriminator carried in the header (1, the platform image
/// up to v4, is retired).
enum class PayloadKind : std::uint16_t {
  kSpecBatch = 2,
  kHistogram = 3,
  kShard = 4,
  kProgress = 5,
  kJournal = 6,
};

/// One cell of the multi-axis NEUROPULS sweep (fault target/model x PCM
/// drift x temperature x ENOB). Shipped inside every shard so the worker
/// process can rebuild the coordinator's platform, configuration and
/// staged state alike, from its own factory: detector temperature, ADC
/// resolution and weight technology must match on both sides for the
/// trials to be bit-identical.
struct SweepPoint {
  std::uint32_t cell = 0;  ///< grid cell index (journal/report key)
  FaultTarget target = FaultTarget::kCpuRegfile;
  FaultModel model = FaultModel::kTransientFlip;
  bool pcm_weights = false;       ///< kPcm weight technology
  double pcm_drift_time_s = 0.0;  ///< seconds since PCM programming
  double temperature_k = 300.0;   ///< detector temperature
  int adc_bits = 8;               ///< ADC resolution (ENOB axis)
  bool abft = false;              ///< ABFT-protected offload (v3 axis)
};

/// One worker's complete campaign input: the coordinator's golden
/// reference plus the spec shard to execute. The worker rebuilds the
/// platform from its own factory for `point`, runs its own golden, and
/// executes the specs only if that golden's output equals `golden` and
/// its cycle count equals `golden_cycles` — a worker built on another
/// platform refuses the shard instead of grading it on its own timing.
struct CampaignShard {
  /// Orchestrator sequence number: unique per shard across a campaign,
  /// stable across resume (it keys the journal).
  std::uint64_t seq = 0;
  /// Sweep-cell parameters the worker rebuilds its platform from.
  SweepPoint point;
  std::vector<std::uint8_t> golden;
  /// Software-fallback reference output for recovery-aware campaigns
  /// (empty otherwise): a worker running a checked workload classifies
  /// fell-back trials against these bytes (see
  /// FaultCampaign::set_recovery).
  std::vector<std::uint8_t> fallback_golden;
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

/// Completed-shard record appended to the on-disk journal: a killed
/// orchestrator resumes by replaying these and re-running only the
/// shards without one.
struct JournalEntry {
  std::uint64_t shard_seq = 0;
  CampaignResult hist;
};

// -- Serialization (header + body) ----------------------------------------
[[nodiscard]] std::vector<std::uint8_t> serialize_specs(
    const std::vector<FaultSpec>& specs);
[[nodiscard]] std::vector<std::uint8_t> serialize_histogram(
    const CampaignResult& r);
[[nodiscard]] std::vector<std::uint8_t> serialize_shard(
    const CampaignShard& shard);
[[nodiscard]] std::vector<std::uint8_t> serialize_progress(
    const CampaignProgress& p);
[[nodiscard]] std::vector<std::uint8_t> serialize_journal_entry(
    const JournalEntry& e);

// -- Deserialization (throws std::runtime_error on malformed payloads) ----
[[nodiscard]] std::vector<FaultSpec> deserialize_specs(
    const std::uint8_t* data, std::size_t size);
[[nodiscard]] CampaignResult deserialize_histogram(const std::uint8_t* data,
                                                   std::size_t size);
[[nodiscard]] CampaignShard deserialize_shard(const std::uint8_t* data,
                                              std::size_t size);
[[nodiscard]] CampaignProgress deserialize_progress(const std::uint8_t* data,
                                                    std::size_t size);
[[nodiscard]] JournalEntry deserialize_journal_entry(const std::uint8_t* data,
                                                     std::size_t size);

[[nodiscard]] inline std::vector<FaultSpec> deserialize_specs(
    const std::vector<std::uint8_t>& b) {
  return deserialize_specs(b.data(), b.size());
}
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
[[nodiscard]] inline JournalEntry deserialize_journal_entry(
    const std::vector<std::uint8_t>& b) {
  return deserialize_journal_entry(b.data(), b.size());
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

/// Incremental frame reassembly for byte streams (worker pipes, journal
/// files): feed() arbitrary chunks, next() yields each complete payload.
/// A partial frame simply waits for more bytes; an insane length prefix
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
/// reference and cycle budget plus the sweep-cell
/// parameters and a stable sequence number starting at `first_seq`.
/// Contiguous partitioning is what makes the merged histogram
/// bit-identical to the serial run — trials are independent and every
/// spec lands in exactly one shard. Trailing specs go to the last shard.
[[nodiscard]] std::vector<CampaignShard> plan_shards(
    FaultCampaign& campaign, const std::vector<FaultSpec>& specs,
    std::size_t shard_count, std::uint32_t ladder_rungs = 0,
    const SweepPoint& point = {}, std::uint64_t first_seq = 0);

}  // namespace aspen::sys
