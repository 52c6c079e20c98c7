#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/chaos.h"

namespace seco {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// The daemon that serves peers announcing `role`, for status messages.
std::string ServerName(WireRole role) {
  return role == WireRole::kQueryClient ? "front end" : "backend";
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownRead() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::ShutdownWrite() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

Status Socket::SendAll(const std::string& data) {
  if (fd_ < 0) return Status::Unavailable("socket: send on closed socket");
  size_t sent = 0;
  while (sent < data.size()) {
    size_t want = data.size() - sent;
    if (chaos_) {
      Status fault = ChaosBeforeSend(chaos_.get(), tx_offset_, &want);
      if (!fault.ok()) {
        // Make the fault visible to the peer too: it sees EOF mid-frame,
        // exactly like a real half-closed connection.
        ShutdownWrite();
        return fault;
      }
      // Clamping never yields 0: at the boundary the call above fails
      // instead, so every pass makes progress.
    }
    if (write_timeout_ms_ >= 0) {
      struct pollfd pfd;
      pfd.fd = fd_;
      pfd.events = POLLOUT;
      pfd.revents = 0;
      int ready;
      do {
        ready = ::poll(&pfd, 1, write_timeout_ms_);
      } while (ready < 0 && errno == EINTR);
      if (ready < 0) return Status::Unavailable(Errno("socket: poll failed"));
      if (ready == 0) {
        return Status::DeadlineExceeded(
            "socket: write stalled for " +
            std::to_string(write_timeout_ms_) +
            " ms (peer not reading)");
      }
    }
    const int flags =
        MSG_NOSIGNAL | (write_timeout_ms_ >= 0 ? MSG_DONTWAIT : 0);
    ssize_t n = ::send(fd_, data.data() + sent, want, flags);
    if (n < 0) {
      if (errno == EINTR) continue;
      // With MSG_DONTWAIT the buffer may have refilled between the poll
      // and the send; loop back to the poll for another progress window.
      if (write_timeout_ms_ >= 0 &&
          (errno == EAGAIN || errno == EWOULDBLOCK)) {
        continue;
      }
      return Status::Unavailable(Errno("socket: send failed"));
    }
    sent += static_cast<size_t>(n);
    tx_offset_ += static_cast<uint64_t>(n);
  }
  return Status::OK();
}

Result<size_t> Socket::RecvSome(std::string* out, size_t max_bytes,
                                int timeout_ms) {
  if (fd_ < 0) return Status::Unavailable("socket: recv on closed socket");
  char buf[16384];
  size_t want = std::min(max_bytes, sizeof(buf));
  if (chaos_) {
    bool eof = false;
    Status fault =
        ChaosBeforeRecv(chaos_.get(), rx_offset_, &want, timeout_ms, &eof);
    SECO_RETURN_IF_ERROR(fault);
    if (eof) return static_cast<size_t>(0);  // truncation: clean EOF
    if (want == 0) want = 1;  // never issue a zero-byte recv
  }
  if (timeout_ms >= 0) {
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int ready;
    do {
      ready = ::poll(&pfd, 1, timeout_ms);
    } while (ready < 0 && errno == EINTR);
    if (ready < 0) return Status::Unavailable(Errno("socket: poll failed"));
    if (ready == 0) {
      return Status::DeadlineExceeded("socket: recv timed out after " +
                                      std::to_string(timeout_ms) + " ms");
    }
  }
  ssize_t n;
  do {
    n = ::recv(fd_, buf, want, 0);
  } while (n < 0 && errno == EINTR);
  if (n < 0) return Status::Unavailable(Errno("socket: recv failed"));
  if (chaos_ && n > 0) {
    ChaosAfterRecv(chaos_.get(), rx_offset_, buf, static_cast<size_t>(n));
  }
  rx_offset_ += static_cast<uint64_t>(n);
  out->append(buf, static_cast<size_t>(n));
  return static_cast<size_t>(n);
}

void Socket::SetNoDelay() {
  if (fd_ < 0) return;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Status Listener::Listen(uint16_t port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Unavailable(Errno("socket: socket() failed"));
  Socket owned(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::Unavailable(Errno("socket: bind to 127.0.0.1:" +
                                     std::to_string(port) + " failed"));
  }
  if (::listen(fd, backlog) < 0) {
    return Status::Unavailable(Errno("socket: listen failed"));
  }
  // Recover the kernel-assigned port when the caller asked for an
  // ephemeral one.
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) <
      0) {
    return Status::Unavailable(Errno("socket: getsockname failed"));
  }
  port_ = ntohs(addr.sin_port);
  socket_ = std::move(owned);
  return Status::OK();
}

Result<Socket> Listener::Accept() {
  if (!socket_.valid()) {
    return Status::Unavailable("socket: accept on closed listener");
  }
  int fd;
  do {
    fd = ::accept(socket_.fd(), nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Status::Unavailable(Errno("socket: accept failed"));
  Socket conn(fd);
  conn.SetNoDelay();
  return conn;
}

void Listener::Close() {
  // shutdown() only — it fails a concurrent blocked accept() without
  // writing the fd member an acceptor thread is still reading (close()
  // here would race that read, and could recycle the descriptor number
  // under it). The descriptor itself is released when the Listener is
  // destroyed or rebound by the next Listen().
  if (socket_.valid()) ::shutdown(socket_.fd(), SHUT_RDWR);
}

Result<Socket> ConnectTcp(const std::string& host, uint16_t port,
                          int timeout_ms) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const char* node = host == "localhost" ? "127.0.0.1" : host.c_str();
  if (::inet_pton(AF_INET, node, &addr.sin_addr) != 1) {
    return Status::InvalidArgument("socket: cannot parse IPv4 address '" +
                                   host + "'");
  }

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Unavailable(Errno("socket: socket() failed"));
  Socket conn(fd);

  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    return Status::Unavailable(Errno("socket: connect to " + host + ":" +
                                     std::to_string(port) + " failed"));
  }
  (void)timeout_ms;  // loopback connects complete or fail immediately
  conn.SetNoDelay();
  return conn;
}

Result<Frame> RecvFrame(Socket* socket, FrameDecoder* decoder,
                        int timeout_ms) {
  Frame frame;
  while (!decoder->Next(&frame)) {
    // Next() returning false while poisoned means a payload failed its
    // checksum: the stream is corrupt, not merely incomplete. Fail before
    // blocking in recv for bytes that would never complete a frame.
    if (decoder->poisoned()) {
      return Status::Unavailable(
          "socket: frame stream failed checksum (corrupted)");
    }
    std::string bytes;
    SECO_ASSIGN_OR_RETURN(size_t n,
                          socket->RecvSome(&bytes, 65536, timeout_ms));
    if (n == 0) {
      return Status::Unavailable("socket: connection closed by peer");
    }
    SECO_RETURN_IF_ERROR(decoder->Feed(bytes));
  }
  return frame;
}

Status ClientHello(Socket* socket, FrameDecoder* decoder, WireRole role,
                   int timeout_ms) {
  const std::string server = ServerName(role);
  WireWriter hello;
  hello.U32(kWireMagic);
  hello.U16(kWireVersion);
  hello.U8(static_cast<uint8_t>(role));
  SECO_RETURN_IF_ERROR(SendFrame(socket, FrameType::kHello, hello.Take()));
  Result<Frame> ack = RecvFrame(socket, decoder, timeout_ms);
  if (!ack.ok()) {
    if (ack.status().code() == StatusCode::kDeadlineExceeded) {
      return Status::Unavailable(server + " handshake timed out: " +
                                 ack.status().message());
    }
    return ack.status();
  }
  if (ack.value().type == FrameType::kError) {
    return ErrorFrameStatus(ack.value().payload,
                            Status::Unavailable(server + " rejected hello"));
  }
  if (ack.value().type != FrameType::kHelloAck) {
    return Status::Unavailable(
        server + " sent unexpected frame " +
        std::to_string(static_cast<int>(ack.value().type)) +
        " instead of hello ack");
  }
  return Status::OK();
}

HelloOutcome ServerHello(Socket* socket, FrameDecoder* decoder, WireRole role,
                         int timeout_ms,
                         const std::function<std::string()>& refusal) {
  Result<Frame> hello = RecvFrame(socket, decoder, timeout_ms);
  if (!hello.ok() || hello.value().type != FrameType::kHello) {
    return HelloOutcome::kInvalid;
  }
  const std::string server = ServerName(role);
  WireReader r(hello.value().payload);
  auto magic = r.U32();
  auto version = r.U16();
  auto announced = r.U8();
  Status problem = Status::OK();
  if (!magic.ok() || magic.value() != kWireMagic) {
    problem = Status::InvalidArgument(server + ": bad magic in hello");
  } else if (!version.ok() || version.value() != kWireVersion) {
    problem = Status::Unsupported(server + ": unsupported protocol version");
  } else if (!announced.ok() ||
             announced.value() != static_cast<uint8_t>(role)) {
    problem = Status::InvalidArgument(
        server + ": expected a " +
        (role == WireRole::kQueryClient ? "query client" : "backend client") +
        " hello");
  }
  if (!problem.ok()) {
    WireWriter w;
    EncodeStatus(problem, &w);
    (void)SendFrame(socket, FrameType::kError, w.Take());
    return HelloOutcome::kInvalid;
  }
  const std::string refused = refusal ? refusal() : std::string();
  if (!refused.empty()) {
    (void)SendFrame(socket, FrameType::kError, refused);
    return HelloOutcome::kRefused;
  }
  WireWriter ack;
  ack.U16(kWireVersion);
  return SendFrame(socket, FrameType::kHelloAck, ack.Take()).ok()
             ? HelloOutcome::kAccepted
             : HelloOutcome::kRefused;
}

}  // namespace seco
