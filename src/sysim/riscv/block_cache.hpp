#pragma once
/// \file block_cache.hpp
/// Basic-block translation tier over the predecoded micro-op engine:
/// straight-line instruction runs are decoded once into a Block — an
/// array of micro-ops with a single entry check — executed back-to-back
/// with per-op cycle/instret accounting (pure register runs retire
/// through exec_alu with one batched update; every other op goes through
/// the CPU's single exec_op semantics), chained across direct
/// branches/jumps via memoized successor links, and peephole-fused
/// (lui+addi, auipc+jalr, load+op, op+branch) at build time. Coherence
/// rides the same write paths that keep the per-instruction micro-op
/// cache honest: every store/DMA/fault-flip invalidation call also
/// evicts overlapping blocks, and a generation counter lets the
/// executor notice when the block it is running was invalidated under
/// its feet (self-modifying code). Results are bit-identical to the
/// uop-at-a-time path and to the legacy decode-every-fetch interpreter.

#include <cstdint>
#include <vector>

namespace aspen::sys::rv {

/// Decoded micro-operation: one fetched word reduced to a dense handler
/// tag plus pre-extracted register indices and a pre-extended immediate
/// (shamt / CSR number reuse the imm slot). Shared by the per-PC
/// micro-op cache and the block tier.
struct MicroOp {
  enum Op : std::uint8_t {
    kLui, kAuipc, kJal, kJalr,
    kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
    kLb, kLh, kLw, kLbu, kLhu,
    kSb, kSh, kSw,
    kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
    kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
    kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
    kFence, kEcall, kEbreak, kWfi, kMret,
    kCsrrw, kCsrrs, kCsrrc, kCsrrwi, kCsrrsi, kCsrrci,
    kIllegal,
  };
  std::uint8_t op = kIllegal;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  /// Encoded length in bytes: 2 for an RV32C form (expanded to the same
  /// Op set), 4 for a full-width instruction. Drives PC stepping, link
  /// values (jal/jalr write pc+len), and icache/block byte extents.
  std::uint8_t len = 4;
  std::uint32_t imm = 0;
};

/// Macro-op fusion kinds. A fused BlockOp retires both constituent
/// instructions with their exact individual cycle/instret/stall
/// bookkeeping — fusion removes dispatch overhead, never timing.
enum FuseKind : std::uint8_t {
  kFuseNone = 0,
  kFuseLuiAddi,    ///< lui rd,hi ; addi rd2,rd,lo   (materialize constant)
  kFuseAuipcJalr,  ///< auipc rd,hi ; jalr rd2,rd,lo (static call target)
  kFuseLoadOp,     ///< load rd ; ALU/M op reading rd
  kFuseOpBranch,   ///< 1-cycle ALU op rd ; branch reading rd
};

/// One block slot: a single micro-op, or a fused pair (`fuse` != none).
struct BlockOp {
  MicroOp a;
  MicroOp b;                       ///< second half when fused
  std::uint8_t fuse = kFuseNone;
  /// Total encoded bytes of the slot (a.len, + b.len when fused).
  std::uint8_t len = 4;
  /// Precomputed fusion result: the full constant for kFuseLuiAddi, the
  /// resolved jump target for kFuseAuipcJalr.
  std::uint32_t fused_imm = 0;
};

/// A run of block ops the executor can retire with batched bookkeeping
/// (`static_run`: pure register ops whose cycle cost is known at build
/// time — no faults, traps, bus traffic, or PC/CSR reads — so budget,
/// cycle, instret, and pc updates happen once per run), or a single op
/// needing full per-op bookkeeping (memory, control flow, system, CSR).
struct Segment {
  std::uint32_t first = 0;    ///< index into Block::ops
  std::uint32_t count = 0;    ///< BlockOps in this segment
  std::uint32_t cycles = 0;   ///< static cycle cost (static_run only)
  std::uint32_t instret = 0;  ///< instructions retired (static_run only)
  std::uint32_t pc_bump = 0;  ///< bytes advanced (static_run only)
  bool static_run = false;
};

/// A decoded straight-line run [start, end) ending at the first control
/// transfer (or the window edge / length cap). Successor PCs are static
/// where the terminator allows; links memoize the successor's pool slot
/// so hot loops re-dispatch without a lookup. Links are hints only:
/// every use re-validates `valid && start == pc`, so stale links
/// self-heal after eviction.
struct Block {
  static constexpr std::uint32_t kNoPc = 0xFFFFFFFFu;
  std::uint32_t start = kNoPc;
  std::uint32_t end = 0;        ///< one past the last instruction byte
  bool valid = false;
  std::uint32_t taken_pc = kNoPc;
  std::uint32_t fall_pc = kNoPc;
  std::int32_t taken_link = -1;
  std::int32_t fall_link = -1;
  std::vector<BlockOp> ops;
  std::vector<Segment> segs;  ///< exec plan: static runs + dynamic singles
};

/// Byte-extent [lo, hi) over a set of cached code ranges: the exact
/// overlap test store-invalidation uses to reject unrelated data
/// traffic cheaply. Shared by the micro-op cache (entries cover
/// [tag, tag+4), so its extent is [min tag, max tag + 4)) and the block
/// cache (blocks cover [start, end)); half-word-aligned PCs and spans
/// landing exactly on either edge resolve exactly — no slack bytes.
struct ByteExtent {
  std::uint32_t lo = 0xFFFFFFFFu;
  std::uint32_t hi = 0;

  [[nodiscard]] bool empty() const { return hi <= lo; }
  void reset() {
    lo = 0xFFFFFFFFu;
    hi = 0;
  }
  void grow(std::uint32_t a, std::uint32_t b) {
    if (a < lo) lo = a;
    if (b > hi) hi = b;
  }
  /// True when [addr, addr+bytes) intersects [lo, hi). The sum is
  /// widened so a span reaching the top of the address space cannot
  /// wrap past the extent.
  [[nodiscard]] bool overlaps(std::uint32_t addr, std::uint32_t bytes) const {
    return !empty() && bytes != 0 && addr < hi &&
           static_cast<std::uint64_t>(addr) + bytes > lo;
  }
};

/// Diagnostic counters for the block tier (derived state, excluded from
/// snapshots — they describe host-side execution strategy, not
/// architectural progress).
struct BlockStats {
  std::uint64_t blocks_built = 0;
  std::uint64_t dispatches = 0;   ///< block executions entered
  std::uint64_t chained = 0;      ///< dispatches resolved via a chain link
  std::uint64_t fused_built = 0;  ///< fused pairs created at build time
  std::uint64_t fused_exec = 0;   ///< fused pairs fully retired
  std::uint64_t evictions = 0;    ///< blocks dropped by invalidation/flush
  std::uint64_t fallback_steps = 0;  ///< single-step dispatches (no block)
  std::uint64_t lookup_hits = 0;
  std::uint64_t lookup_misses = 0;
  std::uint64_t rvc_built = 0;     ///< compressed (2-byte) ops decoded
  std::uint64_t fetch_bytes = 0;   ///< bytes decoded into blocks (2/4 per op)
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = lookup_hits + lookup_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(lookup_hits) /
                            static_cast<double>(total);
  }
};

/// Direct-mapped pool of translated blocks keyed by entry PC. Storage
/// is allocated once and never moves, so the executor may hold Block
/// pointers across invalidations (eviction only clears `valid`; the ops
/// vector stays intact until the slot is rebuilt).
class BlockCache {
 public:
  static constexpr std::uint32_t kSlots = 1024;  // power of two

  BlockCache() : pool_(kSlots) {}

  [[nodiscard]] static std::uint32_t slot_index(std::uint32_t pc) {
    // Half-word shift: RV32C entry PCs are 2-byte aligned, so >> 2
    // would alias pc and pc+2 onto one slot.
    return (pc >> 1) & (kSlots - 1);
  }
  [[nodiscard]] Block& block_at(std::uint32_t slot) { return pool_[slot]; }

  /// Valid block starting exactly at `pc`, or nullptr (counted).
  [[nodiscard]] Block* lookup(std::uint32_t pc) {
    Block& b = pool_[slot_index(pc)];
    if (b.valid && b.start == pc) {
      ++stats_.lookup_hits;
      return &b;
    }
    ++stats_.lookup_misses;
    return nullptr;
  }

  /// Slot to (re)build a block for `pc` into; evicts the incumbent.
  Block& prepare_slot(std::uint32_t pc) {
    Block& b = pool_[slot_index(pc)];
    if (b.valid) {
      b.valid = false;
      ++stats_.evictions;
      ++gen_;
    }
    return b;
  }

  /// Publish a freshly built block (extent grow + counters).
  void commit(Block& b) {
    b.valid = true;
    extent_.grow(b.start, b.end);
    ++stats_.blocks_built;
  }

  /// Evict every block overlapping the written byte range and bump the
  /// generation so an executor mid-way through one of them stops at the
  /// next store boundary. The extent check makes data stores free.
  void invalidate_range(std::uint32_t addr, std::uint32_t bytes);

  /// Drop everything (reset, fetch-device change, a cache-wide write).
  void flush();

  [[nodiscard]] std::uint64_t generation() const { return gen_; }
  [[nodiscard]] BlockStats& stats() { return stats_; }
  [[nodiscard]] const BlockStats& stats() const { return stats_; }

 private:
  std::vector<Block> pool_;
  ByteExtent extent_;
  std::uint64_t gen_ = 0;
  BlockStats stats_;
};

}  // namespace aspen::sys::rv
