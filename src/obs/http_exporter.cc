#include "obs/http_exporter.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace snb::obs {
namespace {

/// The whole request head must arrive within this window, however the
/// client paces its bytes, so one connection holds the single serve thread
/// for at most this long before it is answered from what arrived.
constexpr std::chrono::milliseconds kRequestHeadDeadline{2000};
/// Longest request head read; only the request line matters.
constexpr size_t kMaxRequestHead = 16 * 1024;

/// The whole response must be sent within this window, however slowly the
/// client reads, so a client that stops reading a response larger than the
/// socket buffers holds the sending thread for at most this long.
constexpr std::chrono::milliseconds kResponseDeadline{2000};

/// Sends the whole buffer, tolerating partial writes, until the client
/// hangs up or kResponseDeadline passes. MSG_NOSIGNAL keeps a client that
/// hung up from killing the process with SIGPIPE.
void SendAll(int fd, const std::string& data) {
  const auto deadline = std::chrono::steady_clock::now() + kResponseDeadline;
  size_t off = 0;
  while (off < data.size()) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return;
    pollfd writable{fd, POLLOUT, 0};
    int ready = ::poll(&writable, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return;
    ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

std::string StatusLine(int code) {
  switch (code) {
    case 200:
      return "HTTP/1.1 200 OK\r\n";
    case 404:
      return "HTTP/1.1 404 Not Found\r\n";
    case 503:
      return "HTTP/1.1 503 Service Unavailable\r\n";
    default:
      return "HTTP/1.1 400 Bad Request\r\n";
  }
}

void SendResponse(int fd, int code, const std::string& content_type,
                  const std::string& body) {
  std::string response = StatusLine(code);
  response += "Content-Type: " + content_type + "\r\n";
  response += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  response += "Connection: close\r\n\r\n";
  response += body;
  SendAll(fd, response);
}

}  // namespace

void HttpExporter::Handle(std::string path, std::string content_type,
                          ContentFn fn) {
  Route route;
  route.path = std::move(path);
  route.content_type = std::move(content_type);
  route.build = std::move(fn);
  routes_.push_back(std::move(route));
}

void HttpExporter::HandleDynamic(std::string path, DynamicFn fn) {
  Route route;
  route.path = std::move(path);
  route.build_dynamic = std::move(fn);
  routes_.push_back(std::move(route));
}

util::Status HttpExporter::Start(uint16_t port) {
  if (running()) {
    return util::Status::InvalidArgument("exporter already started");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return util::Status::Internal("socket() failed: " +
                                  std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::string err = std::strerror(errno);
    ::close(fd);
    return util::Status::Internal("bind(port " + std::to_string(port) +
                                  ") failed: " + err);
  }
  if (::listen(fd, 16) != 0) {
    std::string err = std::strerror(errno);
    ::close(fd);
    return util::Status::Internal("listen() failed: " + err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    std::string err = std::strerror(errno);
    ::close(fd);
    return util::Status::Internal("getsockname() failed: " + err);
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_.store(fd, std::memory_order_release);
  server_ = std::thread([this] { ServeLoop(); });
  return util::Status::Ok();
}

void HttpExporter::Stop() {
  int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd < 0) return;
  // shutdown() unblocks a blocked accept() without retiring the fd number,
  // so the serve thread can never race against a recycled descriptor; the
  // fd is closed only after the thread joined.
  ::shutdown(fd, SHUT_RDWR);
  if (server_.joinable()) server_.join();
  // A dynamic capture may still be in flight on its worker thread; its
  // handler sees running() == false (the fd was retired above) and is
  // expected to finish promptly.
  if (dynamic_worker_.joinable()) dynamic_worker_.join();
  ::close(fd);
}

void HttpExporter::ServeLoop() {
  for (;;) {
    int fd = listen_fd_.load(std::memory_order_acquire);
    if (fd < 0) return;  // Stop() retired the listener.
    int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      return;  // Listener shut down by Stop().
    }
    if (!ServeConnection(client)) ::close(client);
  }
}

bool HttpExporter::ServeConnection(int fd) {
  // Read until the end of the request head, a size cap, EOF or the one
  // deadline for the whole head: a per-recv timeout would let a client
  // that drips a byte at a time hold the serve thread indefinitely.
  std::string request;
  char buf[1024];
  const auto deadline = std::chrono::steady_clock::now() + kRequestHeadDeadline;
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < kMaxRequestHead) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) break;
    pollfd readable{fd, POLLIN, 0};
    int ready = ::poll(&readable, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) break;
    ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
  }
  size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) line_end = request.size();
  std::string line = request.substr(0, line_end);
  if (line.rfind("GET ", 0) != 0) {
    SendResponse(fd, 400, "text/plain; charset=utf-8",
                 "only GET is supported\n");
    return false;
  }
  size_t path_end = line.find(' ', 4);
  std::string path = line.substr(4, path_end == std::string::npos
                                        ? std::string::npos
                                        : path_end - 4);
  std::string query_string;
  size_t query = path.find('?');
  if (query != std::string::npos) {
    query_string = path.substr(query + 1);
    path.resize(query);
  }

  // Liveness probe: answers as long as the serve thread runs, without
  // touching any ContentFn (no snapshot merge, no cache) — the probe must
  // stay cheap and must not report "healthy" based on stale cache.
  if (path == "/healthz") {
    SendResponse(fd, 200, "text/plain; charset=utf-8", "ok\n");
    return false;
  }

  for (Route& route : routes_) {
    if (route.path != path) continue;
    if (route.build_dynamic) {
      // Dynamic routes bypass the cache and run on their own worker
      // thread: a handler may block for a whole capture window (e.g.
      // /profile?seconds=N), and the accept loop must keep answering
      // /healthz and the cached routes meanwhile. One at a time — a
      // concurrent dynamic request is refused, not queued behind a
      // window it did not ask for.
      if (dynamic_busy_.exchange(true, std::memory_order_acq_rel)) {
        SendResponse(fd, 503, "application/json",
                     "{\"error\":\"a capture is already in progress\"}\n");
        return false;
      }
      // The previous worker (if any) cleared busy before closing its
      // client, so this join at most waits out that close().
      if (dynamic_worker_.joinable()) dynamic_worker_.join();
      DynamicFn* handler = &route.build_dynamic;  // routes_ is immutable
                                                  // after Start().
      dynamic_worker_ = std::thread([this, handler, fd, query_string] {
        HttpResponse resp = (*handler)(query_string);
        SendResponse(fd, resp.status, resp.content_type, resp.body);
        // Busy clears before close(): a client that read the response to
        // EOF is guaranteed its next dynamic request is not refused.
        dynamic_busy_.store(false, std::memory_order_release);
        ::close(fd);
      });
      return true;
    }
    auto now = std::chrono::steady_clock::now();
    if (!route.cache_valid ||
        now - route.cached_at >=
            std::chrono::milliseconds(refresh_interval_ms_)) {
      route.cached_body = route.build();
      route.cached_at = now;
      route.cache_valid = true;
    }
    SendResponse(fd, 200, route.content_type, route.cached_body);
    return false;
  }
  SendResponse(fd, 404, "text/plain; charset=utf-8",
               "unknown path " + path + "\n");
  return false;
}

}  // namespace snb::obs
