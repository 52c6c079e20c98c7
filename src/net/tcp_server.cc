#include "net/tcp_server.h"

#include <sys/socket.h>

#include <utility>

#include "net/chaos.h"

namespace seco {

Status TcpServer::Start(uint16_t port, std::function<void(Socket*)> serve) {
  if (running_.exchange(true, std::memory_order_acq_rel)) {
    return Status::AlreadyExists("tcp server already running");
  }
  Status listening = listener_.Listen(port);
  if (!listening.ok()) {
    running_.store(false, std::memory_order_release);
    return listening;
  }
  serve_ = std::move(serve);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

bool TcpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return false;
  listener_.Close();  // fails the blocked Accept in the acceptor thread
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::unique_ptr<Connection>> conns;
  {
    // SHUT_RDWR: readers see EOF, and a writer blocked in send() against a
    // peer that stopped reading fails instead of wedging the join below.
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::unique_ptr<Connection>& conn : conns_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
    conns.swap(conns_);
  }
  // The threads still lock mu_ to clear fd/done on their (heap) slots,
  // which outlive the swap; join without holding it.
  for (const std::unique_ptr<Connection>& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  return true;
}

void TcpServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    Result<Socket> conn = listener_.Accept();
    if (!conn.ok()) break;  // listener closed by Stop (or fatal error)
    if (chaos_ != nullptr) {
      std::shared_ptr<ChaosPlan> plan = chaos_->PlanConnection();
      // Refusal: drop the accepted socket before any byte — the dialing
      // client sees an immediate EOF, the loopback equivalent of
      // ECONNREFUSED.
      if (plan->refuse) continue;
      conn.value().AttachChaos(std::move(plan));
    }
    if (write_timeout_ms_ >= 0) conn.value().SetWriteTimeout(write_timeout_ms_);
    Launch(std::move(conn.value()));
  }
}

void TcpServer::Launch(Socket socket) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < conns_.size();) {
    if (conns_[i]->done) {
      // done is set by the thread's last statement; the join completes as
      // soon as it returns, so holding mu_ here cannot deadlock.
      conns_[i]->thread.join();
      conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  conns_.push_back(std::make_unique<Connection>());
  Connection* slot = conns_.back().get();
  slot->fd = socket.fd();
  slot->thread = std::thread(
      [this, slot](Socket conn) {
        serve_(&conn);
        {
          // Unregister the fd *before* the socket closes: once close()
          // runs, the kernel may hand the same number to a new descriptor,
          // and a concurrent Stop must not shut that one down.
          std::lock_guard<std::mutex> lock(mu_);
          slot->fd = -1;
        }
        conn.Close();
        std::lock_guard<std::mutex> lock(mu_);
        slot->done = true;
      },
      std::move(socket));
}

}  // namespace seco
