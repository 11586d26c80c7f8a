#include "sysim/campaign_orchestrator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#if defined(__unix__)
#include <csignal>
#include <cerrno>
#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace aspen::sys {

namespace {

/// Parse every task's payload and check it against the task, so that a
/// worker's histogram can be held to the task's trial count.
std::vector<CampaignShard> parse_tasks(const std::vector<ShardTask>& tasks) {
  std::vector<CampaignShard> shards;
  shards.reserve(tasks.size());
  std::set<std::uint64_t> seqs;
  for (const ShardTask& t : tasks) {
    const std::string name = "CampaignOrchestrator: task seq " +
                             std::to_string(t.seq);
    if (!seqs.insert(t.seq).second)
      throw std::invalid_argument(name + " is not unique");
    try {
      shards.push_back(deserialize_shard(t.payload));
    } catch (const std::runtime_error& e) {
      throw std::invalid_argument(name + ": " + e.what());
    }
    const CampaignShard& shard = shards.back();
    if (shard.seq != t.seq || shard.specs.size() != t.trials)
      throw std::invalid_argument(
          name + " (" + std::to_string(t.trials) + " trials) carries shard " +
          std::to_string(shard.seq) + " with " +
          std::to_string(shard.specs.size()) + " specs");
  }
  return shards;
}

}  // namespace

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

/// Trials a worker runs between two progress frames.
constexpr std::size_t kProgressEvery = 16;

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

}  // namespace

CampaignOrchestrator::CampaignOrchestrator(OrchestratorConfig cfg,
                                           SerialExecutor serial_fallback)
    : cfg_(std::move(cfg)), serial_(std::move(serial_fallback)) {
  if (cfg_.max_workers == 0) cfg_.max_workers = 1;
  if (!serial_)
    throw std::invalid_argument(
        "CampaignOrchestrator: a serial fallback executor is required");
}

std::vector<ShardOutcome> CampaignOrchestrator::run(
    const std::vector<ShardTask>& tasks) {
  const std::vector<CampaignShard> shards = parse_tasks(tasks);
  std::signal(SIGPIPE, SIG_IGN);  // a dead worker is an error code, not death

  std::vector<ShardOutcome> out(tasks.size());
  // Shards waiting for a worker, keyed by seq: a free slot takes the
  // lowest (deterministic launch order; completion order still races).
  std::set<std::pair<std::uint64_t, std::size_t>> pending;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    out[i].seq = tasks[i].seq;
    pending.emplace(tasks[i].seq, i);
  }
  std::size_t remaining = tasks.size();

  std::vector<Slot> slots(std::min<std::size_t>(
      cfg_.max_workers, std::max<std::size_t>(remaining, 1)));

  const auto close_slot = [&](Slot& s) {
    if (s.in_fd >= 0) ::close(s.in_fd);
    if (s.out_fd >= 0) ::close(s.out_fd);
    s.in_fd = s.out_fd = -1;
    s.active = false;
    s.frames = FrameBuffer{};
  };

  /// Terminate an attempt's process (idempotent on exited children) and
  /// reap it — used for completion and failure alike.
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
    terminate(s);
    --remaining;
  };

  const auto fallback_serial = [&](std::size_t task) {
    ShardOutcome& o = out[task];
    o.hist = serial_(shards[task]);
    o.completed = true;
    o.serial_fallback = true;
    ++stats_.serial_fallbacks;
    --remaining;
  };

  /// A lost attempt: relaunched on the next loop pass, or run in-process
  /// once kMaxAttempts workers have failed it.
  const auto fail_attempt = [&](Slot& s) {
    const std::size_t task = s.task;
    terminate(s);
    ++stats_.failures;
    if (out[task].attempts >= kMaxAttempts) {
      fallback_serial(task);
    } else {
      ++stats_.retries;
      pending.emplace(tasks[task].seq, task);
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
  while (remaining > 0) {
    // Fill the free slots. A fork or pipe failure (transient exhaustion)
    // runs the shard in-process rather than dropping it.
    for (Slot& s : slots) {
      while (!s.active && !pending.empty()) {
        const std::size_t task = pending.begin()->second;
        pending.erase(pending.begin());
        if (!spawn(s, task)) {
          ++out[task].attempts;
          ++stats_.failures;
          fallback_serial(task);
        }
      }
    }
    if (remaining == 0) break;

    // Every shard left is in a slot now; wait for frames, or for the
    // nearest heartbeat deadline.
    const Clock::time_point now = Clock::now();
    int timeout = -1;
    for (const Slot& s : slots) {
      if (!s.active || cfg_.heartbeat_timeout_ms == 0) continue;
      const int ms = ms_until(
          s.last_frame + std::chrono::milliseconds(cfg_.heartbeat_timeout_ms),
          now);
      if (timeout < 0 || ms < timeout) timeout = ms;
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
            case PayloadKind::kHistogram: {
              CampaignResult hist = deserialize_histogram(*payload);
              if (static_cast<std::uint64_t>(hist.total) !=
                  tasks[s.task].trials)
                throw std::runtime_error(
                    "histogram total differs from the shard's trials");
              complete(s, std::move(hist));
              done = true;
              break;
            }
            default:
              throw std::runtime_error(
                  "unexpected frame kind from worker");
          }
        }
        if (s.active && eof) fail_attempt(s);  // EOF before the histogram
      } catch (const std::exception&) {
        // A corrupt frame stream, or a histogram of the wrong size.
        if (s.active) fail_attempt(s);
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
  return out;
}

int campaign_worker_main(int in_fd, int out_fd, const PointFactory& factory,
                         const FaultCampaign::OutputReader& read_output) {
  std::signal(SIGPIPE, SIG_IGN);  // orchestrator death = write error, not kill
  try {
    const CampaignShard shard = deserialize_shard(io::read_all(in_fd));
    FaultCampaign campaign(factory(SweepPoint{}), read_output,
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
    if (shard.ladder_rungs > 1) campaign.build_ladder(shard.ladder_rungs);

    const std::size_t total = shard.specs.size();
    std::size_t done = 0;
    CampaignResult hist;
    // First heartbeat before the first chunk: "platform checked, alive".
    if (!io::write_frame(out_fd,
                         serialize_progress({shard.seq, done, total})))
      return 1;
    while (done < total) {
      const std::size_t n = std::min(kProgressEvery, total - done);
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
  const std::vector<CampaignShard> shards = parse_tasks(tasks);
  std::vector<ShardOutcome> out(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    out[i].seq = tasks[i].seq;
    out[i].hist = serial_(shards[i]);
    out[i].completed = true;
    out[i].serial_fallback = true;
    ++stats_.serial_fallbacks;
  }
  return out;
}

int campaign_worker_main(int, int, const PointFactory&,
                         const FaultCampaign::OutputReader&) {
  return 1;
}

#endif  // __unix__

}  // namespace aspen::sys
