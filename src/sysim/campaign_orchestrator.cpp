#include "sysim/campaign_orchestrator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>

#if defined(__unix__)
#include <csignal>
#include <cerrno>
#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace aspen::sys {

#if defined(__unix__)

namespace io {

std::vector<std::uint8_t> read_all(int fd) {
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n > 0) {
      bytes.insert(bytes.end(), chunk, chunk + n);
      continue;
    }
    if (n == 0) return bytes;
    if (errno == EINTR) continue;
    throw std::runtime_error(std::string("io::read_all: ") +
                             std::strerror(errno));
  }
}

bool write_all(int fd, const void* p, std::size_t n) {
  const auto* s = static_cast<const std::uint8_t*>(p);
  while (n > 0) {
    const ssize_t w = ::write(fd, s, n);
    if (w >= 0) {
      s += w;
      n -= static_cast<std::size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    return false;  // EPIPE and friends: peer gone, caller decides
  }
  return true;
}

bool write_frame(int fd, const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> framed = frame(payload);
  return write_all(fd, framed.data(), framed.size());
}

}  // namespace io

namespace {

using Clock = std::chrono::steady_clock;

/// Relaunch backoff growth per lost attempt, and its cap.
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffMaxMs = 1'000;

int ms_until(Clock::time_point deadline, Clock::time_point now) {
  if (deadline <= now) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
          .count();
  return static_cast<int>(std::min<long long>(ms + 1, 60'000));
}

void set_cloexec_nonblock(int fd) {
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

void reap(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

/// One worker-process attempt in flight.
struct Slot {
  bool active = false;
  pid_t pid = -1;
  int in_fd = -1;   ///< write end: shard payload -> child stdin
  int out_fd = -1;  ///< read end: frames <- child stdout
  std::size_t task = 0;
  std::size_t wr_off = 0;
  FrameBuffer frames;
  Clock::time_point last_frame{};
};

std::map<std::uint64_t, CampaignResult> load_journal(const std::string& path) {
  std::map<std::uint64_t, CampaignResult> entries;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return entries;
  FrameBuffer frames;
  std::uint8_t chunk[1 << 16];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) frames.feed(chunk, n);
  std::fclose(f);
  try {
    while (const auto payload = frames.next()) {
      const JournalEntry e = deserialize_journal_entry(*payload);
      // Replay is idempotent: a seq journaled twice (a resume re-ran a
      // shard whose record landed after the cut the resumer read, or the
      // append was duplicated) keeps only the last record. Trials are
      // deterministic, so duplicate records are identical and "last"
      // equals "first" — the shard merges into the campaign once either
      // way.
      entries[e.shard_seq] = e.hist;
    }
    // A partial frame at the tail (orchestrator killed mid-append) is
    // expected on resume; anything before it replays fine.
  } catch (const std::exception&) {
    // A corrupt tail is ignored: its shards run again.
  }
  return entries;
}

}  // namespace

CampaignOrchestrator::CampaignOrchestrator(OrchestratorConfig cfg,
                                           SerialExecutor serial_fallback)
    : cfg_(std::move(cfg)), serial_(std::move(serial_fallback)) {
  if (cfg_.max_workers == 0) cfg_.max_workers = 1;
  if (cfg_.max_attempts == 0) cfg_.max_attempts = 1;
  if (!serial_)
    throw std::invalid_argument(
        "CampaignOrchestrator: a serial fallback executor is required");
}

std::vector<ShardOutcome> CampaignOrchestrator::run(
    const std::vector<ShardTask>& tasks) {
  std::signal(SIGPIPE, SIG_IGN);  // a dead worker is an error code, not death

  std::vector<ShardOutcome> out(tasks.size());
  std::map<std::uint64_t, std::size_t> by_seq;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    out[i].seq = tasks[i].seq;
    if (!by_seq.emplace(tasks[i].seq, i).second)
      throw std::invalid_argument("CampaignOrchestrator: duplicate shard seq " +
                                  std::to_string(tasks[i].seq));
  }

  // Journal replay: shards with a completed record are done before any
  // worker spawns.
  std::FILE* journal = nullptr;
  if (!cfg_.journal_path.empty()) {
    for (const auto& [seq, hist] : load_journal(cfg_.journal_path)) {
      const auto it = by_seq.find(seq);
      if (it == by_seq.end()) continue;
      ShardOutcome& o = out[it->second];
      o.hist = hist;
      o.completed = true;
      o.from_journal = true;
      ++stats_.journal_hits;
    }
    journal = std::fopen(cfg_.journal_path.c_str(), "ab");
    if (journal == nullptr)
      throw std::runtime_error("CampaignOrchestrator: cannot open journal " +
                               cfg_.journal_path);
    ::fcntl(fileno(journal), F_SETFD, FD_CLOEXEC);
  }
  const auto journal_append = [&](std::uint64_t seq,
                                  const CampaignResult& hist) {
    if (journal == nullptr) return;
    const std::vector<std::uint8_t> framed =
        frame(serialize_journal_entry({seq, hist}));
    // A short write leaves a partial tail frame: a resume re-runs the shard.
    std::fwrite(framed.data(), 1, framed.size(), journal);
    std::fflush(journal);
    ::fsync(fileno(journal));
  };

  struct Pending {
    std::size_t task;
    Clock::time_point eligible;
  };
  std::vector<Pending> queue;
  std::size_t remaining = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i)
    if (!out[i].completed) {
      queue.push_back({i, Clock::now()});
      ++remaining;
    }

  std::vector<Slot> slots(std::min<std::size_t>(
      cfg_.max_workers, std::max<std::size_t>(remaining, 1)));

  unsigned completed_this_run = 0;
  bool abandoned = false;

  const auto backoff_ms = [&](unsigned attempts_used) -> std::uint32_t {
    // attempts_used >= 1 when a retry is being scheduled.
    double d = cfg_.backoff_initial_ms *
               std::pow(kBackoffMultiplier,
                        static_cast<int>(attempts_used) - 1);
    return static_cast<std::uint32_t>(std::min<double>(d, kBackoffMaxMs));
  };

  const auto close_slot = [&](Slot& s) {
    if (s.in_fd >= 0) ::close(s.in_fd);
    if (s.out_fd >= 0) ::close(s.out_fd);
    s.in_fd = s.out_fd = -1;
    s.active = false;
    s.frames = FrameBuffer{};
  };

  /// Terminate an attempt's process (idempotent on exited children) and
  /// reap it — used for completion, failure and shutdown alike.
  const auto terminate = [&](Slot& s) {
    if (s.pid > 0) {
      ::kill(s.pid, SIGKILL);
      reap(s.pid);
      s.pid = -1;
    }
    close_slot(s);
  };

  const auto complete = [&](Slot& s, CampaignResult hist) {
    ShardOutcome& o = out[s.task];
    o.hist = std::move(hist);
    o.completed = true;
    journal_append(o.seq, o.hist);
    terminate(s);
    --remaining;
    ++completed_this_run;
    if (cfg_.stop_after_shards != 0 &&
        completed_this_run >= cfg_.stop_after_shards)
      abandoned = true;
  };

  const auto fallback_serial = [&](std::size_t task) {
    ShardOutcome& o = out[task];
    o.hist = serial_(deserialize_shard(tasks[task].payload));
    o.completed = true;
    o.serial_fallback = true;
    ++stats_.serial_fallbacks;
    journal_append(o.seq, o.hist);
    --remaining;
    ++completed_this_run;
    if (cfg_.stop_after_shards != 0 &&
        completed_this_run >= cfg_.stop_after_shards)
      abandoned = true;
  };

  const auto fail_attempt = [&](Slot& s) {
    const std::size_t task = s.task;
    ShardOutcome& o = out[task];
    terminate(s);
    ++stats_.failures;
    if (o.attempts >= cfg_.max_attempts) {
      fallback_serial(task);
    } else {
      ++stats_.retries;
      queue.push_back({task, Clock::now() + std::chrono::milliseconds(
                                                backoff_ms(o.attempts))});
    }
  };

  const auto spawn = [&](Slot& s, std::size_t task) -> bool {
    const ShardTask& t = tasks[task];
    ShardOutcome& o = out[task];
    const unsigned attempt = o.attempts;  // 0-based for hooks
    int in_pipe[2], out_pipe[2];
    if (::pipe(in_pipe) != 0) return false;
    if (::pipe(out_pipe) != 0) {
      ::close(in_pipe[0]);
      ::close(in_pipe[1]);
      return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (const int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]})
        ::close(fd);
      return false;
    }
    if (pid == 0) {
      // Child: pipes onto stdin/stdout, every orchestrator fd closed (the
      // exec path also has CLOEXEC, but child_entry never execs).
      ::dup2(in_pipe[0], 0);
      ::dup2(out_pipe[1], 1);
      for (const int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]})
        if (fd > 2) ::close(fd);
      for (const Slot& other : slots) {
        if (other.in_fd > 2) ::close(other.in_fd);
        if (other.out_fd > 2) ::close(other.out_fd);
      }
      if (journal != nullptr) ::close(fileno(journal));
      if (cfg_.child_entry) ::_exit(cfg_.child_entry(t.seq, attempt));
      const std::vector<std::string>& argv_s = cfg_.worker_argv;
      std::vector<char*> argv;
      argv.reserve(argv_s.size() + 1);
      for (const std::string& a : argv_s)
        argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      if (!argv_s.empty()) ::execvp(argv[0], argv.data());
      std::fprintf(stderr, "campaign orchestrator: exec %s failed: %s\n",
                   argv_s.empty() ? "<empty argv>" : argv_s[0].c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    s.pid = pid;
    s.in_fd = in_pipe[1];
    s.out_fd = out_pipe[0];
    set_cloexec_nonblock(s.in_fd);
    set_cloexec_nonblock(s.out_fd);
    s.task = task;
    s.wr_off = 0;
    s.frames = FrameBuffer{};
    s.last_frame = Clock::now();
    s.active = true;
    ++o.attempts;
    ++stats_.launches;
    return true;
  };

  // ---------------------------------------------------- supervision loop
  while (remaining > 0 && !abandoned) {
    const Clock::time_point now = Clock::now();

    // Launch eligible pending shards into free slots, lowest seq first
    // (deterministic scheduling order; completion order still races).
    std::stable_sort(queue.begin(), queue.end(),
                     [&](const Pending& a, const Pending& b) {
                       return tasks[a.task].seq < tasks[b.task].seq;
                     });
    for (Slot& s : slots) {
      if (s.active) continue;
      const auto it = std::find_if(queue.begin(), queue.end(),
                                   [&](const Pending& p) {
                                     return p.eligible <= now;
                                   });
      if (it == queue.end()) break;
      const std::size_t task = it->task;
      queue.erase(it);
      if (!spawn(s, task)) {
        // Transient fork/pipe exhaustion: run the shard in-process rather
        // than dropping it.
        ++out[task].attempts;
        ++stats_.failures;
        fallback_serial(task);
      }
    }

    if (remaining == 0 || abandoned) break;

    // Poll timeout: nearest of backoff eligibility and worker deadlines.
    int timeout = -1;
    const auto consider = [&](Clock::time_point deadline) {
      const int ms = ms_until(deadline, now);
      if (timeout < 0 || ms < timeout) timeout = ms;
    };
    const bool have_free_slot = std::any_of(
        slots.begin(), slots.end(), [](const Slot& s) { return !s.active; });
    if (have_free_slot)
      for (const Pending& p : queue) consider(p.eligible);
    for (const Slot& s : slots) {
      if (!s.active) continue;
      if (cfg_.heartbeat_timeout_ms != 0)
        consider(s.last_frame +
                 std::chrono::milliseconds(cfg_.heartbeat_timeout_ms));
    }

    std::vector<pollfd> fds;
    std::vector<std::pair<std::size_t, bool>> who;  // slot idx, is_input
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& s = slots[i];
      if (!s.active) continue;
      fds.push_back({s.out_fd, POLLIN, 0});
      who.emplace_back(i, false);
      if (s.in_fd >= 0 && s.wr_off < tasks[s.task].payload.size()) {
        fds.push_back({s.in_fd, POLLOUT, 0});
        who.emplace_back(i, true);
      }
    }
    int rc;
    do {
      rc = ::poll(fds.data(), fds.size(), timeout);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0)
      throw std::runtime_error(std::string("CampaignOrchestrator: poll: ") +
                               std::strerror(errno));

    for (std::size_t k = 0; k < fds.size(); ++k) {
      const auto [idx, is_input] = who[k];
      Slot& s = slots[idx];
      if (!s.active || fds[k].revents == 0) continue;

      if (is_input) {
        // Stream the shard payload into the child's stdin; EOF (close)
        // once fully written tells the worker to start executing.
        const std::vector<std::uint8_t>& payload = tasks[s.task].payload;
        while (s.wr_off < payload.size()) {
          const std::size_t n =
              std::min<std::size_t>(payload.size() - s.wr_off, 1u << 18);
          const ssize_t w = ::write(s.in_fd, payload.data() + s.wr_off, n);
          if (w > 0) {
            s.wr_off += static_cast<std::size_t>(w);
            continue;
          }
          if (w < 0 && errno == EINTR) continue;
          if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          fail_attempt(s);  // the shard write failed: worker gone
          break;
        }
        if (s.active && s.wr_off >= payload.size()) {
          ::close(s.in_fd);
          s.in_fd = -1;
        }
        continue;
      }

      // Frame stream from the worker.
      bool eof = false;
      std::uint8_t chunk[1 << 16];
      for (;;) {
        const ssize_t n = ::read(s.out_fd, chunk, sizeof chunk);
        if (n > 0) {
          s.frames.feed(chunk, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) {
          eof = true;
          break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        eof = true;  // read error: treat as a lost worker
        break;
      }
      try {
        bool done = false;
        while (!done) {
          const auto payload = s.frames.next();
          if (!payload) break;
          s.last_frame = Clock::now();
          switch (payload_kind(*payload)) {
            case PayloadKind::kProgress:
              (void)deserialize_progress(*payload);  // throws if corrupt
              ++stats_.progress_frames;
              break;
            case PayloadKind::kHistogram:
              complete(s, deserialize_histogram(*payload));
              done = true;
              break;
            default:
              throw std::runtime_error(
                  "unexpected frame kind from worker");
          }
        }
        if (s.active && eof) fail_attempt(s);  // EOF before the histogram
      } catch (const std::exception&) {
        if (s.active) fail_attempt(s);  // corrupt frame stream
      }
    }

    // Deadline sweep: hung workers are killed and their shards retried.
    const Clock::time_point after = Clock::now();
    for (Slot& s : slots) {
      if (s.active && cfg_.heartbeat_timeout_ms != 0 &&
          after - s.last_frame >=
              std::chrono::milliseconds(cfg_.heartbeat_timeout_ms)) {
        ++stats_.kills;
        fail_attempt(s);
      }
    }
  }

  // Shutdown: abandon in-flight attempts (journal already holds every
  // completed shard).
  for (Slot& s : slots)
    if (s.active) terminate(s);
  if (journal != nullptr) std::fclose(journal);
  return out;
}

int campaign_worker_main(int in_fd, int out_fd, const PointFactory& factory,
                         const FaultCampaign::OutputReader& read_output,
                         int progress_every,
                         const FaultCampaign::RecoveryReader& recovery) {
  std::signal(SIGPIPE, SIG_IGN);  // orchestrator death = write error, not kill
  try {
    const CampaignShard shard = deserialize_shard(io::read_all(in_fd));
    FaultCampaign campaign(factory(shard.point), read_output,
                           shard.max_cycles);
    // A worker whose factory builds another platform (config or staged
    // data) must not grade the shard: no frame, a nonzero exit, and the
    // orchestrator retries and then runs the shard in-process.
    const bool same_output = campaign.golden() == shard.golden;
    if (!same_output || campaign.golden_cycles() != shard.golden_cycles)
      throw std::runtime_error(
          "shard " + std::to_string(shard.seq) +
          ": the rebuilt platform's golden run (" +
          (same_output ? "same" : "other") + " output, " +
          std::to_string(campaign.golden_cycles()) +
          " cycles) differs from the shard's (" +
          std::to_string(shard.golden_cycles) + " cycles)");
    if (recovery && !shard.fallback_golden.empty())
      campaign.set_recovery(recovery, shard.fallback_golden);
    if (shard.ladder_rungs > 1) campaign.build_ladder(shard.ladder_rungs);

    if (progress_every <= 0) progress_every = 16;
    const std::size_t total = shard.specs.size();
    std::size_t done = 0;
    CampaignResult hist;
    // First heartbeat before the first chunk: "platform checked, alive".
    if (!io::write_frame(out_fd,
                         serialize_progress({shard.seq, done, total})))
      return 1;
    while (done < total) {
      const std::size_t n = std::min<std::size_t>(
          static_cast<std::size_t>(progress_every), total - done);
      const std::vector<FaultSpec> part(
          shard.specs.begin() + static_cast<std::ptrdiff_t>(done),
          shard.specs.begin() + static_cast<std::ptrdiff_t>(done + n));
      hist = merge_histograms({hist, histogram_of(campaign.run_trials(part, 1))});
      done += n;
      if (!io::write_frame(out_fd,
                           serialize_progress({shard.seq, done, total})))
        return 1;
    }
    return io::write_frame(out_fd, serialize_histogram(hist)) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign worker: %s\n", e.what());
    return 1;
  }
}

#else  // !__unix__

namespace io {
std::vector<std::uint8_t> read_all(int) {
  throw std::runtime_error("campaign_orchestrator: POSIX-only");
}
bool write_all(int, const void*, std::size_t) { return false; }
bool write_frame(int, const std::vector<std::uint8_t>&) { return false; }
}  // namespace io

CampaignOrchestrator::CampaignOrchestrator(OrchestratorConfig cfg,
                                           SerialExecutor serial_fallback)
    : cfg_(std::move(cfg)), serial_(std::move(serial_fallback)) {
  if (!serial_)
    throw std::invalid_argument(
        "CampaignOrchestrator: a serial fallback executor is required");
}

/// Without fork/pipe the pool degrades to the serial executor for every
/// shard — the same graceful-degradation path a fully faulty pool takes.
std::vector<ShardOutcome> CampaignOrchestrator::run(
    const std::vector<ShardTask>& tasks) {
  std::vector<ShardOutcome> out(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    out[i].seq = tasks[i].seq;
    out[i].hist = serial_(deserialize_shard(tasks[i].payload));
    out[i].completed = true;
    out[i].serial_fallback = true;
    ++stats_.serial_fallbacks;
  }
  return out;
}

int campaign_worker_main(int, int, const PointFactory&,
                         const FaultCampaign::OutputReader&, int,
                         const FaultCampaign::RecoveryReader&) {
  return 1;
}

#endif  // __unix__

// -- SweepGrid (platform-independent; delegates process work) --------------

SweepGrid::SweepGrid(SweepAxes axes, PointFactory factory,
                     FaultCampaign::OutputReader read_output,
                     std::uint64_t max_cycles)
    : axes_(std::move(axes)),
      factory_(std::move(factory)),
      read_output_(std::move(read_output)),
      max_cycles_(max_cycles) {}

void SweepGrid::set_recovery(FaultCampaign::RecoveryReader reader,
                             std::vector<std::uint8_t> fallback_golden) {
  recovery_ = std::move(reader);
  recovery_fallback_golden_ = std::move(fallback_golden);
}

std::vector<SweepPoint> SweepGrid::points() const {
  std::vector<SweepPoint> pts;
  std::uint32_t cell = 0;
  for (const auto& [target, model] : axes_.faults)
    for (const double drift : axes_.pcm_drift_times_s)
      for (const double temp : axes_.temperatures_k)
        for (const int bits : axes_.adc_bits)
          for (const bool abft : axes_.abft) {
            SweepPoint p;
            p.cell = cell++;
            p.target = target;
            p.model = model;
            p.pcm_drift_time_s = drift;
            p.pcm_weights = drift > 0.0;
            p.temperature_k = temp;
            p.adc_bits = bits;
            p.abft = abft;
            pts.push_back(p);
          }
  return pts;
}

SweepGrid::Cell SweepGrid::make_cell(const SweepPoint& p,
                                     const SweepRunConfig& rc) const {
  Cell cell;
  cell.campaign = std::make_unique<FaultCampaign>(factory_(p), read_output_,
                                                  max_cycles_);
  if (p.abft && recovery_)
    cell.campaign->set_recovery(recovery_, recovery_fallback_golden_);
  // Per-cell spec stream: deterministic in (seed, cell) only, so the
  // serial oracle and the orchestrated run draw identical trials.
  lina::Rng rng(rc.seed + 0x9E3779B97F4A7C15ULL * (p.cell + 1));
  cell.specs = cell.campaign->sample_specs(p.target, p.model,
                                           rc.trials_per_cell, rng);
  return cell;
}

std::vector<SweepCell> SweepGrid::run_serial(const SweepRunConfig& rc) {
  std::vector<SweepCell> cells;
  for (const SweepPoint& p : points()) {
    Cell cell = make_cell(p, rc);
    SweepCell result;
    result.point = p;
    result.hist = histogram_of(cell.campaign->run_trials(cell.specs, 1));
    result.golden_cycles = cell.campaign->golden_cycles();
    result.shards = 1;
    cells.push_back(std::move(result));
  }
  return cells;
}

std::vector<SweepCell> SweepGrid::run(const SweepRunConfig& rc,
                                      const OrchestratorConfig& orch,
                                      CampaignOrchestrator::Stats* stats_out) {
  const std::vector<SweepPoint> pts = points();
  const unsigned shards_per_cell = std::max(1u, rc.shards_per_cell);

  // Stage every cell once; the campaigns stay alive through the run so
  // the serial fallback executes on already-staged platforms.
  std::vector<Cell> cells;
  cells.reserve(pts.size());
  std::vector<ShardTask> tasks;
  for (const SweepPoint& p : pts) {
    Cell cell = make_cell(p, rc);
    const std::vector<CampaignShard> shards =
        plan_shards(*cell.campaign, cell.specs, shards_per_cell,
                    rc.ladder_rungs, p,
                    static_cast<std::uint64_t>(p.cell) * shards_per_cell);
    for (const CampaignShard& shard : shards) {
      ShardTask t;
      t.seq = shard.seq;
      t.trials = shard.specs.size();
      t.payload = serialize_shard(shard);
      tasks.push_back(std::move(t));
    }
    cells.push_back(std::move(cell));
  }

  CampaignOrchestrator orchestrator(
      orch, [&](const CampaignShard& shard) {
        FaultCampaign& campaign = *cells.at(shard.point.cell).campaign;
        return histogram_of(campaign.run_trials(shard.specs, 1));
      });
  const std::vector<ShardOutcome> outcomes = orchestrator.run(tasks);
  if (stats_out != nullptr) *stats_out = orchestrator.stats();

  std::vector<SweepCell> result;
  result.reserve(pts.size());
  for (std::size_t c = 0; c < pts.size(); ++c) {
    SweepCell sc;
    sc.point = pts[c];
    sc.golden_cycles = cells[c].campaign->golden_cycles();
    std::vector<CampaignResult> parts;
    for (const ShardOutcome& o : outcomes)
      if (o.completed && o.seq / shards_per_cell == c) {
        parts.push_back(o.hist);
        ++sc.shards;
      }
    sc.hist = merge_histograms(parts);
    result.push_back(std::move(sc));
  }
  return result;
}

}  // namespace aspen::sys
