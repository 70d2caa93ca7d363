// Deterministic mutation fuzz of HttpExporter's request reading: a valid
// GET is cut, stripped of its CRLFs, salted with NUL bytes, padded past
// the 16 KB head cap, given other methods and bit flips under fixed seeds,
// and every variant must get a status line or a close while the server
// keeps serving. A slow-drip client (one byte every 50 ms, never a blank
// line) must not keep a concurrent /healthz waiting past the request-head
// deadline, and a client that requests a response far larger than the
// socket buffers and never reads it must not keep /healthz, or the next
// dynamic capture, waiting past the response deadline. scripts/check.sh
// and CI also run this test under AddressSanitizer and
// UndefinedBehaviorSanitizer (ctest -L hostile).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/http_exporter.h"
#include "util/rng.h"

namespace snb::obs {
namespace {

/// Mutations per kind.
constexpr int kMutationsPerKind = 40;

/// Body of the bulk routes: far larger than the socket buffers, so the
/// server cannot finish sending it to a client that does not read.
constexpr size_t kBulkBodyBytes = size_t{32} << 20;

/// A connected client socket with a receive timeout, or -1. A non-zero
/// `recv_buffer_bytes` pins the receive buffer to that size.
int Connect(uint16_t port, int recv_timeout_s, int recv_buffer_bytes = 0) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = recv_timeout_s;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  if (recv_buffer_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &recv_buffer_bytes,
                 sizeof(recv_buffer_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends what the server will take (it may close early: MSG_NOSIGNAL keeps
/// that from raising SIGPIPE here).
void SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

/// Everything the server sends until it closes. `timed_out` is set when the
/// receive timeout fired first, i.e. the server neither answered nor closed.
std::string ReadToClose(int fd, bool* timed_out) {
  std::string response;
  char buf[2048];
  *timed_out = false;
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      response.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) *timed_out = true;
    return response;  // Orderly close, reset, or timeout.
  }
}

/// Sends `request`, half-closes, and returns the response; the server sees
/// EOF, so it answers without waiting out the request-head deadline.
std::string Exchange(uint16_t port, const std::string& request,
                     bool* timed_out) {
  int fd = Connect(port, /*recv_timeout_s=*/10);
  if (fd < 0) {
    *timed_out = true;
    return "";
  }
  SendAll(fd, request);
  ::shutdown(fd, SHUT_WR);
  std::string response = ReadToClose(fd, timed_out);
  ::close(fd);
  return response;
}

/// A status line, or nothing at all (the server closed).
bool IsStatusLineOrClose(const std::string& response) {
  return response.empty() || response.rfind("HTTP/1.1 ", 0) == 0;
}

const char kValid[] = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";

std::string Mutate(const std::string& kind, util::Rng& rng) {
  std::string r = kValid;
  if (kind == "truncate") {
    r.resize(rng.NextBounded(r.size()));
  } else if (kind == "missing_crlf") {
    // Drop one or more CR or LF bytes, or every CRLF.
    if (rng.NextBool(0.3)) {
      std::string out;
      for (char c : r) {
        if (c != '\r' && c != '\n') out += c;
      }
      r = out;
    } else {
      for (uint64_t i = 1 + rng.NextBounded(3); i > 0; --i) {
        size_t pos = r.find_first_of("\r\n", rng.NextBounded(r.size()));
        if (pos != std::string::npos) r.erase(pos, 1);
      }
    }
  } else if (kind == "nul") {
    for (uint64_t i = 1 + rng.NextBounded(4); i > 0; --i) {
      r.insert(r.begin() + static_cast<std::ptrdiff_t>(
                               rng.NextBounded(r.size() + 1)),
               '\0');
    }
  } else if (kind == "oversized") {
    // A head past the 16 KB cap, with or without its request line intact.
    std::string pad(16 * 1024 + rng.NextBounded(8 * 1024), 'a');
    r = rng.NextBool(0.5) ? "GET /metrics HTTP/1.1\r\nX: " + pad + "\r\n\r\n"
                          : pad;
  } else if (kind == "method") {
    static const char* kMethods[] = {"POST", "PUT", "HEAD", "DELETE",
                                     "get",  "GETX", "OPTIONS", ""};
    r = std::string(kMethods[rng.NextBounded(8)]) +
        " /metrics HTTP/1.1\r\n\r\n";
  } else if (kind == "bare_get") {
    static const char* kBare[] = {"GET", "GET ", "GET\r\n\r\n", "GET \r\n\r\n",
                                  "GET  HTTP/1.1\r\n\r\n", "GET ?\r\n\r\n",
                                  "GET /healthz?", "GET /profile?x"};
    r = kBare[rng.NextBounded(8)];
  } else {  // "flip"
    for (uint64_t i = 1 + rng.NextBounded(4); i > 0; --i) {
      r[rng.NextBounded(r.size())] ^=
          static_cast<char>(1u << rng.NextBounded(8));
    }
  }
  return r;
}

class HttpFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    exporter_.Handle("/metrics", "text/plain", [] { return "m 1\n"; });
    exporter_.HandleDynamic("/profile", [](const std::string& query) {
      HttpExporter::HttpResponse resp;
      resp.body = "query=" + query + "\n";
      return resp;
    });
    exporter_.Handle("/bulk", "application/octet-stream",
                     [] { return std::string(kBulkBodyBytes, 'b'); });
    exporter_.HandleDynamic("/bulk-capture", [](const std::string&) {
      HttpExporter::HttpResponse resp;
      resp.body.assign(kBulkBodyBytes, 'c');
      return resp;
    });
    ASSERT_TRUE(exporter_.Start(0).ok());
  }

  /// A client that requests `path` and never reads the response, with a
  /// small pinned receive buffer so the server's sends stall early; -1 on
  /// failure. The caller closes it.
  int StalledReader(const std::string& path) {
    int fd = Connect(exporter_.port(), /*recv_timeout_s=*/1,
                     /*recv_buffer_bytes=*/4096);
    if (fd >= 0) SendAll(fd, "GET " + path + " HTTP/1.1\r\n\r\n");
    return fd;
  }

  bool Healthy() {
    bool timed_out = false;
    std::string response =
        Exchange(exporter_.port(), "GET /healthz HTTP/1.1\r\n\r\n", &timed_out);
    return response.rfind("HTTP/1.1 200 OK\r\n", 0) == 0;
  }

  HttpExporter exporter_;
};

TEST_F(HttpFuzzTest, MutatedRequestsGetAStatusLineOrAClose) {
  bool timed_out = false;
  ASSERT_EQ(Exchange(exporter_.port(), kValid, &timed_out)
                .rfind("HTTP/1.1 200 OK\r\n", 0),
            0u);
  const std::vector<std::string> kinds = {
      "truncate", "missing_crlf", "nul",     "oversized",
      "method",   "bare_get",     "flip"};
  for (size_t k = 0; k < kinds.size(); ++k) {
    util::Rng rng(0x477b + k);
    for (int i = 0; i < kMutationsPerKind; ++i) {
      std::string request = Mutate(kinds[k], rng);
      std::string response =
          Exchange(exporter_.port(), request, &timed_out);
      EXPECT_FALSE(timed_out) << kinds[k] << " #" << i;
      EXPECT_TRUE(IsStatusLineOrClose(response))
          << kinds[k] << " #" << i << ": " << response.substr(0, 64);
    }
    EXPECT_TRUE(Healthy()) << "after " << kinds[k];
  }
}

TEST_F(HttpFuzzTest, SlowDripClientDoesNotStarveHealthz) {
  // The drip client sends a request line and then one header byte every
  // 50 ms, never the blank line, so each byte arrives well inside any
  // per-recv timeout. It stops once the server answers or closes, or gives
  // up after 30 s.
  std::atomic<bool> drip_answered{false};
  std::thread drip([&] {
    int fd = Connect(exporter_.port(), /*recv_timeout_s=*/1);
    if (fd < 0) return;
    SendAll(fd, "GET /metrics HTTP/1.1\r\nX-Drip: ");
    auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    const char c = 'a';
    while (std::chrono::steady_clock::now() < give_up) {
      char probe;
      ssize_t n = ::recv(fd, &probe, 1, MSG_DONTWAIT);
      if (n >= 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
        drip_answered.store(true);  // A response byte, a close or a reset.
        break;
      }
      ::send(fd, &c, 1, MSG_NOSIGNAL | MSG_DONTWAIT);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ::close(fd);
  });
  // Give the serve thread time to pick up the drip connection first.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(Healthy());
  auto waited = std::chrono::steady_clock::now() - start;
  drip.join();
  // One request-head deadline (2 s) plus slack for a loaded machine; an
  // unbounded read would hold /healthz until the drip gave up (30 s).
  EXPECT_LT(waited, std::chrono::seconds(8));
  EXPECT_TRUE(drip_answered.load());
}

TEST_F(HttpFuzzTest, StalledReaderDoesNotStarveHealthz) {
  // The serve thread sends /bulk to a client that never reads; it must give
  // up on that response at the response deadline rather than block in send
  // until the client leaves.
  int stalled = StalledReader("/bulk");
  ASSERT_GE(stalled, 0);
  // Give the serve thread time to pick up the stalled connection first.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(Healthy());
  auto waited = std::chrono::steady_clock::now() - start;
  ::close(stalled);
  // One response deadline (2 s) plus slack for a loaded machine; an
  // unbounded send would hold /healthz until the client left.
  EXPECT_LT(waited, std::chrono::seconds(8));
}

TEST_F(HttpFuzzTest, StalledReaderDoesNotWedgeDynamicRoutes) {
  // The same stall on a dynamic route: its worker must give up on the
  // response and clear the one-capture-at-a-time flag, or every later
  // capture is refused with 503.
  int stalled = StalledReader("/bulk-capture");
  ASSERT_GE(stalled, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto start = std::chrono::steady_clock::now();
  bool served = false;
  while (!served &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
    bool timed_out = false;
    std::string response = Exchange(
        exporter_.port(), "GET /profile?x HTTP/1.1\r\n\r\n", &timed_out);
    served = response.rfind("HTTP/1.1 200 OK\r\n", 0) == 0;
    if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  auto waited = std::chrono::steady_clock::now() - start;
  ::close(stalled);
  EXPECT_TRUE(served);
  EXPECT_LT(waited, std::chrono::seconds(8));
}

}  // namespace
}  // namespace snb::obs
