// Tests for the distributed-campaign wire format (campaign_io): bit-exact
// round-trips of spec shards and verdict histograms, loud rejection of
// malformed payloads (fixed mutations and a seeded mutation fuzzer), and
// the end-to-end guarantee the format exists for — a spec list
// partitioned into shards, executed through serialize/deserialize on
// worker campaigns that rebuild the platform and check the golden, and
// merged, yields the serial campaign's histogram bit-for-bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>

#include "sysim/campaign_io.hpp"
#include "sysim/fault.hpp"
#include "sysim/system.hpp"
#include "sysim/workloads.hpp"

namespace {

using namespace aspen::sys;
using namespace aspen::sys::rv;

constexpr std::uint64_t kMaxCycles = 500000;

std::vector<std::int16_t> random_fixed(std::size_t count, std::uint64_t seed) {
  aspen::lina::Rng rng(seed);
  std::vector<std::int16_t> v(count);
  for (auto& x : v) x = PhotonicAccelerator::to_fixed(rng.uniform(-0.9, 0.9));
  return v;
}

SystemConfig small_config() {
  SystemConfig sc;
  sc.accel.gemm.mvm.ports = 8;
  sc.accel.max_cols = 16;
  sc.max_cycles = kMaxCycles;
  return sc;
}

GemmWorkload small_workload() {
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  return wl;
}

/// Staged-system factory identical across every campaign/worker in a
/// test — the contract the wire format assumes.
FaultCampaign::SystemFactory make_factory(std::uint64_t seed) {
  const SystemConfig sc = small_config();
  const GemmWorkload wl = small_workload();
  const auto a = random_fixed(wl.n * wl.n, seed);
  const auto x = random_fixed(wl.n * wl.m, seed + 1);
  return [=]() {
    auto system = std::make_unique<System>(sc);
    stage_gemm_data(*system, wl, a, x);
    system->load_program(build_gemm_offload(wl, sc, OffloadPath::kMmrPolling));
    return system;
  };
}

FaultCampaign::OutputReader make_reader() {
  const GemmWorkload wl = small_workload();
  return [wl](System& s) {
    const auto y = read_gemm_result(s, wl);
    std::vector<std::uint8_t> bytes(y.size() * 2);
    std::memcpy(bytes.data(), y.data(), bytes.size());
    return bytes;
  };
}

std::vector<FaultSpec> mixed_specs(FaultCampaign& campaign,
                                   std::uint64_t seed, int per_target) {
  aspen::lina::Rng rng(seed);
  std::vector<FaultSpec> specs;
  for (const FaultTarget t :
       {FaultTarget::kCpuRegfile, FaultTarget::kDramData,
        FaultTarget::kAccelSpmW, FaultTarget::kAccelPhase}) {
    const auto s =
        campaign.sample_specs(t, FaultModel::kTransientFlip, per_target, rng);
    specs.insert(specs.end(), s.begin(), s.end());
  }
  return specs;
}

CampaignResult to_histogram(const std::vector<Outcome>& outcomes) {
  CampaignResult r;
  for (const Outcome o : outcomes) {
    ++r.counts[o];
    ++r.total;
  }
  return r;
}

// ------------------------------------------------------------ round trips

TEST(CampaignIoTest, SpecBatchRoundTrip) {
  FaultCampaign campaign(make_factory(502), make_reader(), kMaxCycles);
  const std::vector<FaultSpec> specs = mixed_specs(campaign, 503, 6);
  ASSERT_FALSE(specs.empty());

  const std::vector<std::uint8_t> wire = serialize_specs(specs);
  const std::vector<FaultSpec> back = deserialize_specs(wire);
  EXPECT_EQ(serialize_specs(back), wire);
  ASSERT_EQ(back.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(back[i].target, specs[i].target);
    EXPECT_EQ(back[i].model, specs[i].model);
    EXPECT_EQ(back[i].cycle, specs[i].cycle);
    EXPECT_EQ(back[i].index, specs[i].index);
    EXPECT_EQ(back[i].bit, specs[i].bit);
    // Bit-pattern equality, not approximate: the wire format ships the
    // IEEE-754 image.
    std::uint64_t pa, pb;
    std::memcpy(&pa, &specs[i].phase_delta_rad, 8);
    std::memcpy(&pb, &back[i].phase_delta_rad, 8);
    EXPECT_EQ(pa, pb);
  }
  EXPECT_TRUE(deserialize_specs(serialize_specs({})).empty());
}

TEST(CampaignIoTest, HistogramRoundTripAndMerge) {
  CampaignResult r;
  r.counts[Outcome::kMasked] = 17;
  r.counts[Outcome::kSdc] = 4;
  r.counts[Outcome::kDueHang] = 1;
  r.total = 22;

  const std::vector<std::uint8_t> wire = serialize_histogram(r);
  const CampaignResult back = deserialize_histogram(wire);
  EXPECT_EQ(serialize_histogram(back), wire);
  EXPECT_EQ(back.counts, r.counts);
  EXPECT_EQ(back.total, r.total);

  CampaignResult a, b;
  a.counts[Outcome::kMasked] = 10;
  a.counts[Outcome::kSdc] = 3;
  a.total = 13;
  b.counts[Outcome::kMasked] = 7;
  b.counts[Outcome::kSdc] = 1;
  b.counts[Outcome::kDueHang] = 1;
  b.total = 9;
  const CampaignResult merged = merge_histograms({a, b});
  EXPECT_EQ(merged.counts, r.counts);
  EXPECT_EQ(merged.total, r.total);
  // Ordered-map merge: shard arrival order cannot matter.
  const CampaignResult swapped = merge_histograms({b, a});
  EXPECT_EQ(swapped.counts, merged.counts);
  EXPECT_EQ(swapped.total, merged.total);
}

TEST(CampaignIoTest, ShardRoundTrip) {
  FaultCampaign campaign(make_factory(504), make_reader(), kMaxCycles);

  CampaignShard shard;
  shard.seq = 42;
  shard.point.cell = 7;
  shard.point.target = FaultTarget::kAccelPhase;
  shard.point.pcm_weights = true;
  shard.point.pcm_drift_time_s = 3600.0;
  shard.point.temperature_k = 340.0;
  shard.point.adc_bits = 6;
  shard.golden = campaign.golden();
  shard.golden_cycles = campaign.golden_cycles();
  shard.max_cycles = kMaxCycles;
  shard.ladder_rungs = 8;
  shard.specs = mixed_specs(campaign, 505, 4);

  const std::vector<std::uint8_t> wire = serialize_shard(shard);
  const CampaignShard back = deserialize_shard(wire);
  EXPECT_EQ(serialize_shard(back), wire);
  EXPECT_EQ(back.seq, shard.seq);
  EXPECT_EQ(back.point.cell, shard.point.cell);
  EXPECT_EQ(back.point.target, shard.point.target);
  EXPECT_EQ(back.point.pcm_weights, shard.point.pcm_weights);
  EXPECT_EQ(back.point.pcm_drift_time_s, shard.point.pcm_drift_time_s);
  EXPECT_EQ(back.point.temperature_k, shard.point.temperature_k);
  EXPECT_EQ(back.point.adc_bits, shard.point.adc_bits);
  EXPECT_EQ(back.golden, shard.golden);
  EXPECT_EQ(back.golden_cycles, shard.golden_cycles);
  EXPECT_EQ(back.max_cycles, shard.max_cycles);
  EXPECT_EQ(back.ladder_rungs, shard.ladder_rungs);
  EXPECT_EQ(back.specs.size(), shard.specs.size());
}

TEST(CampaignIoTest, ProgressAndJournalRoundTrip) {
  const CampaignProgress p{911, 64, 256};
  const std::vector<std::uint8_t> pw = serialize_progress(p);
  EXPECT_EQ(payload_kind(pw), PayloadKind::kProgress);
  const CampaignProgress pb = deserialize_progress(pw);
  EXPECT_EQ(pb.shard_seq, p.shard_seq);
  EXPECT_EQ(pb.trials_done, p.trials_done);
  EXPECT_EQ(pb.trials_total, p.trials_total);
  EXPECT_EQ(serialize_progress(pb), pw);

  JournalEntry e;
  e.shard_seq = 911;
  e.hist.counts[Outcome::kMasked] = 60;
  e.hist.counts[Outcome::kSdc] = 4;
  e.hist.total = 64;
  const std::vector<std::uint8_t> ew = serialize_journal_entry(e);
  EXPECT_EQ(payload_kind(ew), PayloadKind::kJournal);
  const JournalEntry eb = deserialize_journal_entry(ew);
  EXPECT_EQ(eb.shard_seq, e.shard_seq);
  EXPECT_EQ(eb.hist.counts, e.hist.counts);
  EXPECT_EQ(eb.hist.total, e.hist.total);
  EXPECT_EQ(serialize_journal_entry(eb), ew);

  // Kind mismatch across the new payloads is rejected like any other.
  EXPECT_THROW((void)deserialize_progress(ew), std::runtime_error);
  EXPECT_THROW((void)deserialize_journal_entry(pw), std::runtime_error);
}

TEST(CampaignIoTest, FrameBufferReassemblesByteDribbledStreams) {
  // Three frames of different kinds, delivered one byte at a time — the
  // worst pipe fragmentation possible. FrameBuffer must hand back each
  // payload whole, in order.
  const std::vector<std::vector<std::uint8_t>> payloads = {
      serialize_progress({1, 0, 8}),
      serialize_progress({1, 8, 8}),
      serialize_histogram({{{Outcome::kMasked, 8}}, 8}),
  };
  std::vector<std::uint8_t> stream;
  for (const auto& p : payloads) {
    const auto f = frame(p);
    stream.insert(stream.end(), f.begin(), f.end());
  }

  FrameBuffer fb;
  std::vector<std::vector<std::uint8_t>> got;
  for (const std::uint8_t byte : stream) {
    fb.feed(&byte, 1);
    while (const auto p = fb.next()) got.push_back(*p);
  }
  ASSERT_EQ(got.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i)
    EXPECT_EQ(got[i], payloads[i]);
  EXPECT_EQ(fb.pending(), 0u);

  // A partial tail frame stays buffered, never yielded.
  const auto tail = frame(payloads[0]);
  fb.feed(tail.data(), tail.size() - 3);
  EXPECT_FALSE(fb.next().has_value());
  EXPECT_GT(fb.pending(), 0u);

  // An insane length prefix is corruption, not an allocation request.
  FrameBuffer evil;
  std::uint8_t huge[8];
  const std::uint64_t len = kMaxFrameBytes + 1;
  std::memcpy(huge, &len, 8);
  evil.feed(huge, 8);
  EXPECT_THROW((void)evil.next(), std::runtime_error);
}

// ------------------------------------------------------ malformed payloads

TEST(CampaignIoTest, MalformedPayloadsRejected) {
  FaultCampaign campaign(make_factory(506), make_reader(), kMaxCycles);
  aspen::lina::Rng rng(507);
  const auto specs = campaign.sample_specs(FaultTarget::kCpuRegfile,
                                           FaultModel::kStuckAt0, 3, rng);
  const std::vector<std::uint8_t> good = serialize_specs(specs);

  // Empty / truncated-below-header payloads.
  EXPECT_THROW((void)deserialize_specs(good.data(), 0), std::runtime_error);
  EXPECT_THROW((void)deserialize_specs(good.data(), 7), std::runtime_error);

  // Corrupt magic (byte 0), unknown version (byte 4).
  std::vector<std::uint8_t> bad = good;
  bad[0] ^= 0xFF;
  EXPECT_THROW((void)deserialize_specs(bad), std::runtime_error);
  bad = good;
  bad[4] ^= 0xFF;
  EXPECT_THROW((void)deserialize_specs(bad), std::runtime_error);

  // Kind mismatch: a histogram payload is not a spec batch (and vice
  // versa) even though both parse as valid headers.
  CampaignResult hist;
  hist.counts[Outcome::kMasked] = 1;
  hist.total = 1;
  EXPECT_THROW((void)deserialize_specs(serialize_histogram(hist)),
               std::runtime_error);
  EXPECT_THROW((void)deserialize_histogram(good), std::runtime_error);

  // Truncation mid-body and trailing garbage.
  EXPECT_THROW((void)deserialize_specs(good.data(), good.size() - 1),
               std::runtime_error);
  EXPECT_THROW((void)deserialize_specs(good.data(), good.size() / 2),
               std::runtime_error);
  bad = good;
  bad.push_back(0);
  EXPECT_THROW((void)deserialize_specs(bad), std::runtime_error);

  // Invalid enum values: fault target (first spec body byte, offset
  // header(8) + count(8)), outcome in a histogram.
  bad = good;
  bad[16] = 0xFF;
  EXPECT_THROW((void)deserialize_specs(bad), std::runtime_error);
  std::vector<std::uint8_t> hist_wire = serialize_histogram(hist);
  hist_wire[16] = 0x7F;
  EXPECT_THROW((void)deserialize_histogram(hist_wire), std::runtime_error);

  // A spec-count field larger than the remaining payload must be
  // rejected before any allocation is sized from it.
  bad = good;
  bad[8] = 0xFF;
  bad[9] = 0xFF;
  EXPECT_THROW((void)deserialize_specs(bad), std::runtime_error);

  const auto expect_tagged = [](const std::function<void()>& parse,
                                const std::string& mutation) {
    try {
      parse();
      ADD_FAILURE() << mutation << " was accepted";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("campaign_io:"), std::string::npos) << msg;
      EXPECT_NE(msg.find("byte offset"), std::string::npos) << msg;
    }
  };
  const auto put_u64 = [](std::vector<std::uint8_t>& w, std::size_t at,
                          std::uint64_t v) {
    for (std::size_t i = 0; i < 8; ++i)
      w[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };

  // A histogram is accepted only in canonical form: every count and the
  // total fit int, outcomes strictly increase, and the total is the sum
  // of the counts. {masked: 5, SDC: 3} lays out as the entry count at 8,
  // (outcome u8, count u64) entries at 16 and 25, and the total at 34.
  CampaignResult two;
  two.counts[Outcome::kMasked] = 5;
  two.counts[Outcome::kSdc] = 3;
  two.total = 8;
  const std::vector<std::uint8_t> two_wire = serialize_histogram(two);
  ASSERT_NO_THROW((void)deserialize_histogram(two_wire));
  const auto parse_hist = [](const std::vector<std::uint8_t>& w) {
    return [w] { (void)deserialize_histogram(w); };
  };
  bad = two_wire;
  put_u64(bad, 17, (1ull << 32) + 5);  // would read back as 5
  expect_tagged(parse_hist(bad), "masked count 2^32 + 5");
  bad = two_wire;
  put_u64(bad, 34, (1ull << 32) + 8);  // would read back as 8
  expect_tagged(parse_hist(bad), "total 2^32 + 8");
  bad = two_wire;
  bad[25] = static_cast<std::uint8_t>(Outcome::kMasked);
  expect_tagged(parse_hist(bad), "duplicate masked entry");
  bad = two_wire;  // SDC 3 listed before masked 5
  bad[16] = static_cast<std::uint8_t>(Outcome::kSdc);
  put_u64(bad, 17, 3);
  bad[25] = static_cast<std::uint8_t>(Outcome::kMasked);
  put_u64(bad, 26, 5);
  expect_tagged(parse_hist(bad), "descending outcomes");
  bad = two_wire;
  put_u64(bad, 34, 99);
  expect_tagged(parse_hist(bad), "total 99 over counts 5 + 3");

  // A bool byte is 0 or 1. In a shard, SweepPoint::pcm_weights sits at
  // offset 22 (header 8, seq 8, cell 4, target 1, model 1) and
  // SweepPoint::abft at 43 (after two f64 and the u32 adc_bits).
  CampaignShard shard;
  shard.golden = {1, 2, 3};
  shard.specs = specs;
  const std::vector<std::uint8_t> shard_wire = serialize_shard(shard);
  ASSERT_NO_THROW((void)deserialize_shard(shard_wire));
  for (const std::size_t at : {22u, 43u}) {
    ASSERT_EQ(shard_wire[at], 0u);
    bad = shard_wire;
    bad[at] = 2;
    expect_tagged([&bad] { (void)deserialize_shard(bad); },
                  "bool byte 2 at " + std::to_string(at));
  }
}

/// The satellite contract for pipe debugging: a truncated payload and a
/// malformed enum must be distinguishable from the exception message
/// alone, and the message must locate the damage (byte offset) and
/// quantify it (expected vs actual sizes).
TEST(CampaignIoTest, MalformedPayloadErrorsCarryOffsetsAndSizes) {
  FaultCampaign campaign(make_factory(510), make_reader(), kMaxCycles);
  aspen::lina::Rng rng(511);
  const auto specs = campaign.sample_specs(FaultTarget::kCpuRegfile,
                                           FaultModel::kTransientFlip, 3, rng);
  const std::vector<std::uint8_t> good = serialize_specs(specs);

  const auto message_of = [](const auto& fn) -> std::string {
    try {
      fn();
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };

  // Short read: the message names the missing vs remaining byte counts
  // and the offset where the reader ran dry. (A progress payload is
  // fixed-size, so truncation lands mid-field rather than tripping the
  // element-count guard first.)
  const std::vector<std::uint8_t> prog = serialize_progress({9, 1, 4});
  const std::string trunc = message_of(
      [&] { (void)deserialize_progress(prog.data(), prog.size() - 5); });
  EXPECT_NE(trunc.find("truncated payload"), std::string::npos) << trunc;
  EXPECT_NE(trunc.find("byte offset"), std::string::npos) << trunc;
  EXPECT_NE(trunc.find("remain"), std::string::npos) << trunc;
  EXPECT_NE(trunc.find(std::to_string(prog.size() - 5) + "-byte payload"),
            std::string::npos)
      << trunc;

  // Malformed enum: offset of the bad byte plus the valid range.
  std::vector<std::uint8_t> bad = good;
  bad[16] = 0xEE;  // first spec's target (header 8 + count 8)
  const std::string enum_msg = message_of([&] { (void)deserialize_specs(bad); });
  EXPECT_NE(enum_msg.find("invalid"), std::string::npos) << enum_msg;
  EXPECT_NE(enum_msg.find("238"), std::string::npos) << enum_msg;  // 0xEE
  EXPECT_NE(enum_msg.find("byte offset 16"), std::string::npos) << enum_msg;
  EXPECT_NE(enum_msg.find("valid: 0.."), std::string::npos) << enum_msg;

  // Oversized count: the claimed element count vs the remaining bytes.
  bad = good;
  bad[8] = 0xFF;
  bad[9] = 0xFF;
  const std::string count_msg =
      message_of([&] { (void)deserialize_specs(bad); });
  EXPECT_NE(count_msg.find("element count"), std::string::npos) << count_msg;
  EXPECT_NE(count_msg.find("exceeds the remaining payload"),
            std::string::npos)
      << count_msg;
  EXPECT_NE(count_msg.find("byte offset 8"), std::string::npos) << count_msg;

  // Trailing garbage: how many bytes were left over, and where the
  // payload should have ended.
  bad = good;
  bad.insert(bad.end(), {1, 2, 3});
  const std::string trail = message_of([&] { (void)deserialize_specs(bad); });
  EXPECT_NE(trail.find("3 trailing bytes"), std::string::npos) << trail;
  EXPECT_NE(trail.find("byte offset " + std::to_string(good.size())),
            std::string::npos)
      << trail;
}

/// Every mutation an adversarial (or merely crashed) peer can apply to a
/// wire payload — truncation at every byte, damaged header fields, an
/// unknown payload tag, a hostile element count, trailing garbage — must
/// surface as the offset-tagged campaign_io error, never as an
/// out-of-bounds read or a silent half-parse. Exhaustive truncation is
/// the part the sanitizer leg leans on: each cut length walks the reader
/// up to a different field boundary.
TEST(CampaignIoTest, CorruptFrameTableRejectsEveryMutation) {
  FaultCampaign campaign(make_factory(512), make_reader(), kMaxCycles);
  aspen::lina::Rng rng(513);
  const auto specs = campaign.sample_specs(FaultTarget::kAccelSpmW,
                                           FaultModel::kStuckAt1, 4, rng);
  CampaignResult hist;
  hist.counts[Outcome::kMasked] = 5;
  hist.counts[Outcome::kDetectedCorrected] = 3;
  hist.counts[Outcome::kDetectedRecovered] = 2;
  hist.counts[Outcome::kSdc] = 1;
  hist.total = 11;
  JournalEntry entry;
  entry.shard_seq = 77;
  entry.hist = hist;
  CampaignShard shard;
  shard.seq = 5;
  shard.point.cell = 2;
  shard.point.abft = true;
  shard.golden = campaign.golden();
  shard.fallback_golden = campaign.golden();
  shard.fallback_golden[0] ^= 0x55;
  shard.golden_cycles = campaign.golden_cycles();
  shard.max_cycles = kMaxCycles;
  shard.ladder_rungs = 4;
  shard.specs = specs;

  struct Case {
    const char* name;
    std::vector<std::uint8_t> wire;
    std::function<void(const std::uint8_t*, std::size_t)> parse;
    bool counted;  ///< body starts with an element count at offset 8
  };
  const std::vector<Case> cases = {
      {"specs", serialize_specs(specs),
       [](const std::uint8_t* d, std::size_t n) { (void)deserialize_specs(d, n); },
       true},
      {"histogram", serialize_histogram(hist),
       [](const std::uint8_t* d, std::size_t n) {
         (void)deserialize_histogram(d, n);
       },
       true},
      {"progress", serialize_progress({3, 9, 27}),
       [](const std::uint8_t* d, std::size_t n) {
         (void)deserialize_progress(d, n);
       },
       false},
      {"journal", serialize_journal_entry(entry),
       [](const std::uint8_t* d, std::size_t n) {
         (void)deserialize_journal_entry(d, n);
       },
       false},
      {"shard", serialize_shard(shard),
       [](const std::uint8_t* d, std::size_t n) {
         (void)deserialize_shard(d, n);
       },
       false},
  };

  const auto expect_tagged_throw = [](const Case& c,
                                      const std::vector<std::uint8_t>& wire,
                                      const std::string& mutation) {
    try {
      c.parse(wire.data(), wire.size());
      ADD_FAILURE() << c.name << ": " << mutation << " was accepted";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("campaign_io:"), std::string::npos)
          << c.name << "/" << mutation << ": " << msg;
      EXPECT_NE(msg.find("byte offset"), std::string::npos)
          << c.name << "/" << mutation << ": " << msg;
    }
  };

  for (const Case& c : cases) {
    // The pristine payload parses (the table tests the mutations, not
    // the serializer).
    ASSERT_NO_THROW(c.parse(c.wire.data(), c.wire.size())) << c.name;

    // Truncation at every length, header through last-byte-missing.
    for (std::size_t cut = 0; cut < c.wire.size(); ++cut)
      expect_tagged_throw(c, {c.wire.begin(), c.wire.begin() + cut},
                          "truncate@" + std::to_string(cut));

    // Each damaged header field: magic bytes, version, payload kind
    // (both zero and far out of range).
    for (const std::size_t at : {0u, 1u, 2u, 3u, 4u, 5u}) {
      std::vector<std::uint8_t> bad = c.wire;
      bad[at] ^= 0xFF;
      expect_tagged_throw(c, bad, "header-flip@" + std::to_string(at));
    }
    for (const std::uint8_t kind : {0x00, 0x63}) {
      std::vector<std::uint8_t> bad = c.wire;
      bad[6] = kind;
      bad[7] = 0;
      expect_tagged_throw(c, bad, "kind=" + std::to_string(kind));
    }

    // Trailing garbage after a complete payload.
    std::vector<std::uint8_t> bad = c.wire;
    bad.insert(bad.end(), {0xDE, 0xAD});
    expect_tagged_throw(c, bad, "trailing-bytes");

    // A hostile element count must be rejected by the remaining-payload
    // bound before it sizes any allocation.
    if (c.counted) {
      bad = c.wire;
      for (std::size_t i = 0; i < 8; ++i) bad[8 + i] = 0xFF;
      expect_tagged_throw(c, bad, "count=2^64-1");
    }
  }
}

/// Parse a payload with the deserializer its header names and serialize
/// the result again.
std::vector<std::uint8_t> reserialize(const std::vector<std::uint8_t>& b) {
  switch (payload_kind(b)) {
    case PayloadKind::kSpecBatch:
      return serialize_specs(deserialize_specs(b));
    case PayloadKind::kHistogram:
      return serialize_histogram(deserialize_histogram(b));
    case PayloadKind::kShard:
      return serialize_shard(deserialize_shard(b));
    case PayloadKind::kProgress:
      return serialize_progress(deserialize_progress(b));
    case PayloadKind::kJournal:
      return serialize_journal_entry(deserialize_journal_entry(b));
  }
  throw std::logic_error("payload_kind returned an unlisted kind");
}

/// Deterministic mutation fuzzer over every deserializer. Each mutant of
/// a valid payload must either parse and re-serialize to exactly its own
/// bytes (the format has one encoding per value) or be rejected with the
/// campaign_io error; any other exception, a sanitizer report or a
/// mismatch fails. The framed mutants, concatenated and cut into random
/// chunks, must come back whole through FrameBuffer, and a stream whose
/// length prefixes are damaged must be rejected or reassembled without
/// a crash.
TEST(CampaignIoTest, MutationFuzzerParsesCanonicallyOrRejects) {
  FaultCampaign campaign(make_factory(515), make_reader(), kMaxCycles);
  aspen::lina::Rng rng(516);
  const std::vector<FaultSpec> specs = mixed_specs(campaign, 517, 2);
  CampaignResult hist;
  hist.counts[Outcome::kMasked] = 9;
  hist.counts[Outcome::kSdc] = 2;
  hist.counts[Outcome::kDetectedRecovered] = 1;
  hist.total = 12;
  CampaignShard shard;
  shard.seq = 12;
  shard.point.cell = 4;
  shard.point.pcm_weights = true;
  shard.point.pcm_drift_time_s = 3600.0;
  shard.golden = campaign.golden();
  shard.fallback_golden = {7, 8, 9};
  shard.golden_cycles = campaign.golden_cycles();
  shard.max_cycles = kMaxCycles;
  shard.ladder_rungs = 8;
  shard.specs = specs;
  const std::vector<std::vector<std::uint8_t>> seeds = {
      serialize_specs(specs),
      serialize_histogram(hist),
      serialize_progress({3, 9, 27}),
      serialize_journal_entry({77, hist}),
      serialize_shard(shard),
  };

  const std::uint64_t window_values[] = {0, 1ull << 32, 1ull << 63, ~0ull};
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, n - 1));
  };
  const auto mutate = [&](std::vector<std::uint8_t>& b) {
    switch (rng.uniform_int(0, 5)) {
      case 0:  // bit flip
        if (!b.empty())
          b[pick(b.size())] ^= static_cast<std::uint8_t>(1u << pick(8));
        break;
      case 1:  // byte overwrite
        if (!b.empty())
          b[pick(b.size())] = static_cast<std::uint8_t>(pick(256));
        break;
      case 2:  // truncation
        b.resize(pick(b.size() + 1));
        break;
      case 3: {  // inserted bytes
        const std::size_t at = pick(b.size() + 1);
        const std::size_t n = 1 + pick(8);
        for (std::size_t i = 0; i < n; ++i)
          b.insert(b.begin() + static_cast<std::ptrdiff_t>(at),
                   static_cast<std::uint8_t>(pick(256)));
        break;
      }
      case 4: {  // deleted bytes
        if (b.empty()) break;
        const std::size_t at = pick(b.size());
        const std::size_t n = std::min<std::size_t>(1 + pick(8), b.size() - at);
        b.erase(b.begin() + static_cast<std::ptrdiff_t>(at),
                b.begin() + static_cast<std::ptrdiff_t>(at + n));
        break;
      }
      default: {  // an 8-byte window set to a boundary value
        if (b.size() < 8) break;
        const std::uint64_t v = window_values[pick(4)];
        const std::size_t at = pick(b.size() - 7);
        for (std::size_t i = 0; i < 8; ++i)
          b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
        break;
      }
    }
  };

  std::size_t accepted = 0, rejected = 0;
  const auto check = [&](const std::vector<std::uint8_t>& mutant,
                         const std::string& what) {
    try {
      const std::vector<std::uint8_t> again = reserialize(mutant);
      EXPECT_TRUE(again == mutant)
          << what << ": parsed but re-serialized to other bytes";
      ++accepted;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("campaign_io:"), std::string::npos)
          << what << ": " << e.what();
      ++rejected;
    }
  };

  constexpr int kMutantsPerSeed = 800;
  std::vector<std::vector<std::uint8_t>> mutants;
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      std::vector<std::uint8_t> m = seeds[k];
      const int edits = 1 + static_cast<int>(pick(3));
      for (int e = 0; e < edits; ++e) mutate(m);
      check(m, "seed " + std::to_string(k) + " mutant " + std::to_string(i));
      mutants.push_back(std::move(m));
    }
  }
  // Both verdicts must occur, or the mutations are not reaching the
  // parsers' interesting paths.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);

  // The framed mutants as one stream, fed in random chunks, come back
  // whole and in order.
  std::vector<std::uint8_t> stream;
  for (const auto& m : mutants) {
    const std::vector<std::uint8_t> f = frame(m);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameBuffer fb;
  std::size_t got = 0;
  for (std::size_t at = 0; at < stream.size();) {
    const std::size_t n = std::min(stream.size() - at, 1 + pick(4096));
    fb.feed(stream.data() + at, n);
    at += n;
    while (const auto payload = fb.next()) {
      ASSERT_LT(got, mutants.size());
      EXPECT_TRUE(*payload == mutants[got]) << "frame " << got;
      ++got;
    }
  }
  EXPECT_EQ(got, mutants.size());
  EXPECT_EQ(fb.pending(), 0u);

  // Damaged streams: each frame either reassembles (and then obeys the
  // pass rule) or FrameBuffer rejects the stream with the campaign_io
  // error; a length prefix under the cap that overruns the stream just
  // waits for bytes that never come.
  const std::vector<std::uint8_t> head(
      stream.begin(),
      stream.begin() + static_cast<std::ptrdiff_t>(
                           std::min<std::size_t>(stream.size(), 1 << 14)));
  for (int i = 0; i < 64; ++i) {
    std::vector<std::uint8_t> s = head;
    for (int e = 0; e < 4; ++e) mutate(s);
    FrameBuffer damaged;
    damaged.feed(s);
    try {
      while (const auto payload = damaged.next())
        check(*payload, "damaged stream " + std::to_string(i));
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("campaign_io:"), std::string::npos)
          << e.what();
    }
  }
}

/// The v3 additions that still travel — recovery verdicts in histograms,
/// the ABFT sweep axis and the software-fallback golden — must all
/// survive the wire bit-exactly; a worker that dropped any of them would
/// classify recovery trials against the wrong reference.
TEST(CampaignIoTest, RecoveryFieldsRoundTripInV3Payloads) {
  CampaignResult hist;
  hist.counts[Outcome::kMasked] = 9;
  hist.counts[Outcome::kDetectedCorrected] = 6;
  hist.counts[Outcome::kDetectedRecovered] = 4;
  hist.counts[Outcome::kSdc] = 2;
  hist.counts[Outcome::kDueTrap] = 1;
  hist.total = 22;
  const std::vector<std::uint8_t> hw = serialize_histogram(hist);
  const CampaignResult hb = deserialize_histogram(hw);
  EXPECT_EQ(hb.counts, hist.counts);
  EXPECT_EQ(serialize_histogram(hb), hw);

  FaultCampaign campaign(make_factory(514), make_reader(), kMaxCycles);

  CampaignShard shard;
  shard.seq = 99;
  shard.point.cell = 3;
  shard.point.abft = true;
  shard.golden = campaign.golden();
  shard.fallback_golden = campaign.golden();
  shard.fallback_golden[0] ^= 0x55;  // distinct from the primary golden
  shard.golden_cycles = campaign.golden_cycles();
  shard.max_cycles = kMaxCycles;

  const std::vector<std::uint8_t> wire = serialize_shard(shard);
  const CampaignShard back = deserialize_shard(wire);
  EXPECT_EQ(serialize_shard(back), wire);
  EXPECT_TRUE(back.point.abft);
  EXPECT_EQ(back.fallback_golden, shard.fallback_golden);
}

// ------------------------------------------- sharded execution end to end

TEST(CampaignIoTest, TwoShardWirePathMatchesSerialBitForBit) {
  // The full multi-process protocol, in-process: a coordinator campaign
  // draws specs and runs them serially; the same specs split into two
  // shards, serialized, deserialized and executed by worker campaigns
  // that rebuild the platform from the same factory and check its golden
  // against the shard's, must merge to the identical histogram. This is
  // the determinism contract the bench's process-level fan-out relies on.
  FaultCampaign coordinator(make_factory(508), make_reader(), kMaxCycles);
  const std::vector<FaultSpec> specs = mixed_specs(coordinator, 509, 6);
  const CampaignResult serial = to_histogram(coordinator.run_trials(specs, 1));

  std::vector<CampaignResult> worker_results;
  const std::size_t half = specs.size() / 2;
  for (int w = 0; w < 2; ++w) {
    CampaignShard shard;
    shard.golden = coordinator.golden();
    shard.golden_cycles = coordinator.golden_cycles();
    shard.max_cycles = kMaxCycles;
    shard.ladder_rungs = 4;  // workers may ladder; verdicts cannot change
    shard.specs.assign(specs.begin() + (w == 0 ? 0 : half),
                       w == 0 ? specs.begin() + half : specs.end());

    // Through the wire, as a worker process would receive it.
    const CampaignShard received = deserialize_shard(serialize_shard(shard));
    FaultCampaign worker(make_factory(508), make_reader(),
                         received.max_cycles);
    EXPECT_EQ(worker.golden(), received.golden);
    EXPECT_EQ(worker.golden_cycles(), received.golden_cycles);
    if (received.ladder_rungs > 1) worker.build_ladder(received.ladder_rungs);
    const CampaignResult hist =
        to_histogram(worker.run_trials(received.specs, 1));
    // ...and the verdict histogram travels back through the wire too.
    worker_results.push_back(
        deserialize_histogram(serialize_histogram(hist)));
  }

  const CampaignResult merged = merge_histograms(worker_results);
  EXPECT_EQ(merged.counts, serial.counts);
  EXPECT_EQ(merged.total, serial.total);
  EXPECT_EQ(merged.total, static_cast<int>(specs.size()));
}

}  // namespace
