#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace wb {

int connect_unix(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) return -1;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

namespace {

bool reap(pid_t pid, int timeout_ms) {
    for (int waited = 0;; waited += 5) {
        int status = 0;
        const pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid || r < 0) return true;
        if (waited >= timeout_ms) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

}  // namespace

daemon::daemon(const daemon_config& cfg) : cfg_(cfg) {
    ::unlink(cfg_.socket.c_str());
    std::vector<std::string> args = {
        cfg_.cli, "serve", "--listen", "unix:" + cfg_.socket,
        "--workers", std::to_string(cfg_.workers),
        "--threads", std::to_string(cfg_.threads),
        "--max-views", std::to_string(cfg_.max_views)};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 2, cfg_.log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    const int rc = ::posix_spawn(&pid_, cfg_.cli.c_str(), &fa, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
        pid_ = -1;
        throw std::runtime_error("cannot spawn " + cfg_.cli + ": " +
                                 std::strerror(rc));
    }
    for (int waited = 0;; waited += 2) {
        const int fd = connect_unix(cfg_.socket);
        if (fd >= 0) {
            ::close(fd);
            return;
        }
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw std::runtime_error("daemon exited during start-up (see " +
                                     cfg_.log + ")");
        }
        if (waited > 30000) {
            stop();
            throw std::runtime_error("daemon did not start listening");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

daemon::~daemon() { stop(); }

void daemon::stop() {
    if (pid_ < 0) return;
    const int fd = connect_unix(cfg_.socket);
    if (fd >= 0) {
        const char line[] = "{\"req\":\"shutdown\",\"id\":0}\n";
        [[maybe_unused]] const ssize_t n = ::write(fd, line, sizeof line - 1);
        char buf[256];
        while (::read(fd, buf, sizeof buf) > 0) {
        }
        ::close(fd);
    }
    if (!reap(pid_, 10000)) {
        ::kill(pid_, SIGKILL);
        reap(pid_, 10000);
    }
    pid_ = -1;
    ::unlink(cfg_.socket.c_str());
}

proc_sample daemon::sample() const {
    proc_sample s;
    if (pid_ < 0) return s;
    const std::string base = "/proc/" + std::to_string(pid_);
    std::ifstream status(base + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            s.vm_hwm_mb = std::stod(line.substr(6)) / 1024.0;
        else if (line.rfind("Threads:", 0) == 0)
            s.threads = std::stoul(line.substr(8));
    }
    std::ifstream stat(base + "/stat");
    std::string all((std::istreambuf_iterator<char>(stat)),
                    std::istreambuf_iterator<char>());
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 (1-based), i.e. 12 and 13 after the ')'.
    const std::size_t close = all.rfind(')');
    if (close != std::string::npos) {
        std::istringstream in(all.substr(close + 2));
        std::string field;
        double ticks = 0.0;
        for (int i = 0; i < 13 && (in >> field); ++i)
            if (i == 11 || i == 12) ticks += std::stod(field);
        s.cpu_seconds = ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
    }
    return s;
}

}  // namespace wb
