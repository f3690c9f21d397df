// The daemon under test: `wrpt_cli serve --listen unix:<path>` started as
// a child process with fixed flags, probed through /proc, and stopped with
// a wire shutdown request (SIGKILL only if that does not end it).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace wb {

struct daemon_config {
    std::string cli;         ///< path of the wrpt_cli binary
    std::string socket;      ///< unix socket path (relative keeps it short)
    std::string log;         ///< daemon stderr goes here
    unsigned workers = 2;    ///< --workers: server worker set
    unsigned threads = 2;    ///< --threads: batch_session compute pool
    std::size_t max_views = 0;  ///< --max-views (0 = unbounded)
};

/// Resource counters of the daemon process.
struct proc_sample {
    double vm_hwm_mb = 0.0;      ///< peak resident set (VmHWM)
    std::size_t threads = 0;     ///< Threads
    double cpu_seconds = 0.0;    ///< utime + stime
};

class daemon {
public:
    /// Spawn and wait until the socket accepts connections. Throws
    /// std::runtime_error on spawn failure or a 30 s start timeout.
    explicit daemon(const daemon_config& cfg);
    ~daemon();
    daemon(const daemon&) = delete;
    daemon& operator=(const daemon&) = delete;

    pid_t pid() const { return pid_; }
    const daemon_config& config() const { return cfg_; }
    proc_sample sample() const;
    /// Send a shutdown request and reap the child; idempotent.
    void stop();

private:
    daemon_config cfg_;
    pid_t pid_ = -1;
};

/// Connect a blocking unix stream socket to `path`; -1 on failure.
int connect_unix(const std::string& path);

}  // namespace wb
