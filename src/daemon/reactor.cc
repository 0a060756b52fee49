#include "daemon/reactor.h"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <utility>

#include "common/log.h"

namespace dbpc {

Result<std::unique_ptr<Reactor>> Reactor::Create(std::string name) {
  std::unique_ptr<Reactor> r(new Reactor());
  r->name_ = std::move(name);
  r->epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (r->epoll_fd_ < 0) {
    return Status::Internal(std::string("epoll_create1: ") + strerror(errno));
  }
  r->wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (r->wake_fd_ < 0) {
    ::close(r->epoll_fd_);
    r->epoll_fd_ = -1;
    return Status::Internal(std::string("eventfd: ") + strerror(errno));
  }
  struct epoll_event ev;
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // token 0 is reserved for the wakeup fd
  if (::epoll_ctl(r->epoll_fd_, EPOLL_CTL_ADD, r->wake_fd_, &ev) != 0) {
    Status st =
        Status::Internal(std::string("epoll_ctl(wake): ") + strerror(errno));
    ::close(r->wake_fd_);
    ::close(r->epoll_fd_);
    r->wake_fd_ = r->epoll_fd_ = -1;
    return st;
  }
  r->loop_ = std::thread([raw = r.get()] { raw->Run(); });
  r->loop_thread_id_ = r->loop_.get_id();
  return r;
}

Reactor::~Reactor() {
  Stop();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void Reactor::Stop() {
  if (stopping_.exchange(true)) {
    if (loop_.joinable() && !on_loop_thread()) loop_.join();
    return;
  }
  uint64_t one = 1;
  ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;
  if (loop_.joinable()) loop_.join();
}

void Reactor::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(fn));
  }
  uint64_t one = 1;
  ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;
}

Result<uint64_t> Reactor::Add(int fd, uint32_t events, IoHandler handler) {
  uint64_t token = next_token_++;
  struct epoll_event ev;
  ev.events = events;
  ev.data.u64 = token;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Status::Internal(std::string("epoll_ctl(add): ") + strerror(errno));
  }
  Registration reg;
  reg.fd = fd;
  reg.handler = std::make_shared<IoHandler>(std::move(handler));
  registrations_[token] = std::move(reg);
  return token;
}

Status Reactor::SetEvents(int fd, uint64_t token, uint32_t events) {
  auto it = registrations_.find(token);
  if (it == registrations_.end() || it->second.fd != fd) {
    return Status::NotFound("fd is not registered under this token");
  }
  struct epoll_event ev;
  ev.events = events;
  ev.data.u64 = token;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return Status::Internal(std::string("epoll_ctl(mod): ") + strerror(errno));
  }
  return Status::OK();
}

void Reactor::Remove(int fd, uint64_t token) {
  auto it = registrations_.find(token);
  if (it == registrations_.end() || it->second.fd != fd) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  registrations_.erase(it);
}

Reactor::TimerId Reactor::ScheduleAt(Clock::time_point when,
                                     std::function<void()> fn) {
  TimerId id = next_timer_id_++;
  timer_callbacks_[id] = std::move(fn);
  timer_heap_.push(TimerEntry{when, id});
  return id;
}

void Reactor::CancelTimer(TimerId id) {
  // The heap entry stays behind as a tombstone; FireDueTimers skips
  // entries whose callback is gone.
  timer_callbacks_.erase(id);
}

int Reactor::NextTimeoutMs() const {
  if (timer_heap_.empty()) return 1000;  // periodic stop-flag check
  auto now = Clock::now();
  auto when = timer_heap_.top().when;
  if (when <= now) return 0;
  auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(when - now)
          .count() +
      1;  // round up so the timer is actually due when we wake
  if (ms > 1000) return 1000;
  return static_cast<int>(ms);
}

void Reactor::FireDueTimers() {
  auto now = Clock::now();
  while (!timer_heap_.empty() && timer_heap_.top().when <= now) {
    TimerEntry entry = timer_heap_.top();
    timer_heap_.pop();
    auto it = timer_callbacks_.find(entry.id);
    if (it == timer_callbacks_.end()) continue;  // cancelled
    std::function<void()> fn = std::move(it->second);
    timer_callbacks_.erase(it);
    fn();
  }
}

void Reactor::DrainPosted() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) fn();
}

void Reactor::Run() {
  constexpr int kMaxEvents = 64;
  struct epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, NextTimeoutMs());
    if (n < 0) {
      if (errno == EINTR) continue;
      // Unexpected epoll failure: shut the loop down, but say why first.
      DBPC_LOG(LogLevel::kError, "reactor_epoll_failed",
               LogField("reactor", name_), LogField("errno", errno),
               LogField("error", strerror(errno)));
      break;
    }
    for (int i = 0; i < n; ++i) {
      uint64_t token = events[i].data.u64;
      if (token == 0) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      auto it = registrations_.find(token);
      if (it == registrations_.end()) continue;  // stale: fd was removed
      // Hold the handler alive across the call: it may Remove() itself.
      std::shared_ptr<IoHandler> handler = it->second.handler;
      (*handler)(events[i].events);
    }
    DrainPosted();
    FireDueTimers();
  }
  // Posts that raced Stop still run: the queue is drained once more after
  // the loop so no enqueued work is silently dropped.
  DrainPosted();
}

}  // namespace dbpc
