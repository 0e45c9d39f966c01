#include "federation/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

namespace vdg {

namespace {

/// Whole-buffer send loop; false on a broken socket.
bool SendAll(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

// -----------------------------------------------------------------------
// BatchDedupRegistry
// -----------------------------------------------------------------------

BatchDedupRegistry::BatchDedupRegistry(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::optional<wire::Response> BatchDedupRegistry::BeginOrAwait(
    const std::string& token) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = entries_.find(token);
  if (it == entries_.end()) {
    entries_.emplace(token, Entry{});  // claim: caller executes
    return std::nullopt;
  }
  // Another claimant exists. Wait for its outcome; the claimant always
  // reaches Complete() because workers finish the item they are
  // executing before honouring a stop.
  cv_.wait(lock, [&] {
    auto e = entries_.find(token);
    return e == entries_.end() || e->second.done;
  });
  auto e = entries_.find(token);
  if (e == entries_.end()) {
    // Evicted between completion and wake-up: the window is too small
    // for the retry horizon. Re-claim and execute again — the caller
    // accepts at-least-once in this (configurable) corner.
    entries_.emplace(token, Entry{});
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return e->second.response;
}

void BatchDedupRegistry::Complete(const std::string& token,
                                  wire::Response response) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(token);
    if (it == entries_.end()) return;
    it->second.done = true;
    it->second.response = std::move(response);
    completed_order_.push_back(token);
    while (completed_order_.size() > capacity_) {
      auto old = entries_.find(completed_order_.front());
      if (old != entries_.end() && old->second.done) entries_.erase(old);
      completed_order_.pop_front();
    }
  }
  cv_.notify_all();
}

size_t BatchDedupRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

// -----------------------------------------------------------------------
// ServerConnection
// -----------------------------------------------------------------------

ServerConnection::ServerConnection(CatalogServer* server, int client_fd,
                                   int server_fd)
    : server_(server), client_fd_(client_fd), server_fd_(server_fd) {}

ServerConnection::~ServerConnection() {
  Close();
  if (pump_.joinable()) pump_.join();
  if (client_fd_ >= 0) ::close(client_fd_);
  if (server_fd_ >= 0) ::close(server_fd_);
}

bool ServerConnection::ClientSend(std::string_view bytes) {
  if (client_fd_ >= 0) {
    std::lock_guard<std::mutex> lock(write_fd_mu_);
    if (closed()) return false;
    return SendAll(client_fd_, bytes);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    inbound_.append(bytes);
  }
  server_->NotifyReadable(this);
  return true;
}

bool ServerConnection::ClientReceive(std::string* out) {
  if (client_fd_ >= 0) {
    char buf[16384];
    for (;;) {
      ssize_t n = ::recv(client_fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      out->append(buf, static_cast<size_t>(n));
      return true;
    }
  }
  std::unique_lock<std::mutex> lock(mu_);
  outbound_cv_.wait(lock, [this] { return !outbound_.empty() || closed_; });
  if (outbound_.empty()) return false;  // closed with nothing pending
  out->append(outbound_);
  outbound_.clear();
  return true;
}

void ServerConnection::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    closed_ = true;
  }
  // Unblock any recv() in the pump thread / client receiver.
  if (client_fd_ >= 0) ::shutdown(client_fd_, SHUT_RDWR);
  if (server_fd_ >= 0) ::shutdown(server_fd_, SHUT_RDWR);
  outbound_cv_.notify_all();
  // Let the dispatcher notice and prune this connection.
  if (server_ != nullptr) server_->NotifyReadable(this);
}

bool ServerConnection::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

void ServerConnection::ServerWrite(std::string_view frame) {
  if (server_fd_ >= 0) {
    std::lock_guard<std::mutex> lock(write_fd_mu_);
    SendAll(server_fd_, frame);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    outbound_.append(frame);
  }
  outbound_cv_.notify_all();
}

// -----------------------------------------------------------------------
// CatalogServer
// -----------------------------------------------------------------------

CatalogServer::CatalogServer(std::shared_ptr<CatalogClient> backend,
                             ServerOptions options)
    : backend_(std::move(backend)), options_(options) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  dedup_ = options_.batch_dedup != nullptr
               ? options_.batch_dedup
               : std::make_shared<BatchDedupRegistry>();
  handler_delay_us_.store(options_.handler_delay.count(),
                          std::memory_order_relaxed);
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

CatalogServer::~CatalogServer() { Shutdown(); }

std::shared_ptr<ServerConnection> CatalogServer::Connect(bool use_socket) {
  int client_fd = -1;
  int server_fd = -1;
  if (use_socket) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0) {
      client_fd = fds[0];
      server_fd = fds[1];
    }
    // On failure fall back to the in-memory pipe: same protocol, no fds.
  }
  std::shared_ptr<ServerConnection> conn(
      new ServerConnection(this, client_fd, server_fd));
  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || draining_) {
      rejected = true;
    } else {
      connections_.push_back(conn);
      stats_.connections_opened.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (rejected) {
    // Close outside mu_: Close() notifies the dispatcher via
    // NotifyReadable, which takes mu_ itself.
    conn->Close();
    return conn;
  }
  if (server_fd >= 0) {
    // Socket mode: a pump thread moves kernel bytes into the same
    // inbound path the in-memory pipe uses, so the dispatcher is
    // transport-agnostic.
    ServerConnection* raw = conn.get();
    raw->pump_ = std::thread([this, raw] {
      char buf[16384];
      for (;;) {
        ssize_t n = ::recv(raw->server_fd_, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        {
          std::lock_guard<std::mutex> lock(raw->mu_);
          if (raw->closed_) break;
          raw->inbound_.append(buf, static_cast<size_t>(n));
        }
        NotifyReadable(raw);
      }
      raw->Close();
    });
  }
  return conn;
}

bool CatalogServer::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

void CatalogServer::Shutdown(std::chrono::milliseconds drain_timeout) {
  if (drain_timeout.count() > 0) {
    // Drain phase: refuse new connections and bounce fresh frames
    // (DrainConnection answers them Unavailable) while the dispatcher
    // and workers keep running, then wait for admitted work to finish.
    std::unique_lock<std::mutex> lock(mu_);
    if (!stopping_) {
      draining_ = true;
      drain_cv_.wait_for(lock, drain_timeout, [this] {
        return queue_.empty() && active_workers_ == 0;
      });
    }
  }
  std::vector<std::shared_ptr<ServerConnection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && !dispatcher_.joinable()) return;
    stopping_ = true;
    conns = connections_;
  }
  dispatcher_cv_.notify_all();
  worker_cv_.notify_all();
  // Close connections before joining: a worker blocked writing to a
  // full socket unblocks once the peer is shut down.
  for (auto& conn : conns) conn->Close();
  if (dispatcher_.joinable()) dispatcher_.join();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  std::lock_guard<std::mutex> lock(mu_);
  connections_.clear();
  queue_.clear();
}

void CatalogServer::NotifyReadable(ServerConnection* conn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    readable_.push_back(conn);
  }
  dispatcher_cv_.notify_all();
}

void CatalogServer::DispatcherLoop() {
  for (;;) {
    std::shared_ptr<ServerConnection> conn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      dispatcher_cv_.wait(
          lock, [this] { return stopping_ || !readable_.empty(); });
      if (stopping_) return;
      ServerConnection* raw = readable_.front();
      readable_.erase(readable_.begin());
      for (const auto& c : connections_) {
        if (c.get() == raw) {
          conn = c;
          break;
        }
      }
      // Prune connections both sides are done with.
      connections_.erase(
          std::remove_if(connections_.begin(), connections_.end(),
                         [&](const std::shared_ptr<ServerConnection>& c) {
                           return c != conn && c->closed();
                         }),
          connections_.end());
    }
    if (conn != nullptr && !conn->closed()) DrainConnection(conn);
  }
}

void CatalogServer::DrainConnection(
    const std::shared_ptr<ServerConnection>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu_);
    conn->parse_buffer_.append(conn->inbound_);
    conn->inbound_.clear();
  }
  std::string& buffer = conn->parse_buffer_;
  while (!buffer.empty()) {
    Result<size_t> size = wire::FrameSize(buffer);
    if (!size.ok()) {
      if (size.status().IsNotFound()) break;  // need more bytes
      // Corrupt framing: the stream cannot be resynchronized.
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      stats_.connection_resets.fetch_add(1, std::memory_order_relaxed);
      buffer.clear();
      conn->Close();
      return;
    }
    if (buffer.size() < *size) break;  // incomplete frame
    std::string_view frame_bytes(buffer.data(), *size);
    Result<wire::Frame> frame = wire::DecodeFrame(frame_bytes);
    if (!frame.ok() || frame->is_response) {
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      stats_.connection_resets.fetch_add(1, std::memory_order_relaxed);
      buffer.clear();
      conn->Close();
      return;
    }
    stats_.frames_in.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_in.fetch_add(*size, std::memory_order_relaxed);
    WorkItem item;
    item.conn = conn;
    item.request_id = frame->request_id;
    item.kind = frame->kind;
    item.payload.assign(frame->payload);
    buffer.erase(0, *size);
    bool admitted = false;
    bool draining = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      draining = draining_;
      if (!stopping_ && !draining_ &&
          queue_.size() < options_.queue_capacity) {
        queue_.push_back(std::move(item));
        admitted = true;
      }
    }
    if (draining) {
      // Drain phase: already-admitted work keeps executing, but every
      // fresh frame is answered with a retryable Unavailable so a
      // resilient client fails over instead of hanging on a dying
      // server.
      stats_.drain_rejections.fetch_add(1, std::memory_order_relaxed);
      wire::Response bounced;
      bounced.kind = item.kind;
      bounced.status = Status::Unavailable("catalog server is draining");
      Reply(conn, item.request_id, bounced);
      continue;
    }
    if (admitted) {
      worker_cv_.notify_one();
    } else {
      // Admission control: reject at the door, before any worker is
      // occupied, so overload degrades to fast-failing calls instead
      // of unbounded queueing.
      stats_.queue_rejections.fetch_add(1, std::memory_order_relaxed);
      wire::Response rejected;
      rejected.kind = item.kind;
      rejected.status =
          Status::ResourceExhausted("catalog server work queue is full");
      Reply(conn, item.request_id, rejected);
    }
  }
}

void CatalogServer::WorkerLoop() {
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      worker_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      item = std::move(queue_.front());
      queue_.pop_front();
      ++active_workers_;
    }
    int64_t delay_us = handler_delay_us_.load(std::memory_order_relaxed);
    if (delay_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    }
    wire::Response response;
    Result<wire::Request> request =
        wire::DecodeRequest(item.kind, item.payload);
    if (!request.ok()) {
      response.kind = item.kind;
      response.status = request.status();
    } else {
      response = Execute(*request);
    }
    stats_.requests_served.fetch_add(1, std::memory_order_relaxed);
    Reply(item.conn, item.request_id, response);
    bool drained = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_workers_;
      drained = queue_.empty() && active_workers_ == 0;
    }
    if (drained) drain_cv_.notify_all();
  }
}

wire::Response CatalogServer::Execute(const wire::Request& request) {
  const auto* batch = std::get_if<wire::ApplyBatchReq>(&request.body);
  const std::string* token =
      batch != nullptr && !batch->options.idempotency_token.empty()
          ? &batch->options.idempotency_token
          : nullptr;
  // Tokenized batch: consult the idempotency window first so a retry
  // (lost reply / replica failover) replays the recorded outcome —
  // assigned ids included — instead of applying twice.
  if (token != nullptr) {
    if (std::optional<wire::Response> recorded = dedup_->BeginOrAwait(*token)) {
      stats_.batch_dedup_hits.fetch_add(1, std::memory_order_relaxed);
      return std::move(*recorded);
    }
  }
  Result<wire::Response> result = backend_->Call(request);
  wire::Response resp;
  if (result.ok()) {
    resp = std::move(*result);
  } else {
    resp.kind = request.kind;
    resp.status = result.status();
  }
  if (token != nullptr) dedup_->Complete(*token, resp);
  return resp;
}

void CatalogServer::Reply(const std::shared_ptr<ServerConnection>& conn,
                          uint64_t request_id,
                          const wire::Response& response) {
  std::string frame = wire::EncodeResponseFrame(request_id, response);
  stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_out.fetch_add(frame.size(), std::memory_order_relaxed);
  conn->ServerWrite(frame);
}

// -----------------------------------------------------------------------
// WireCatalogClient
// -----------------------------------------------------------------------

Result<std::shared_ptr<WireCatalogClient>> WireCatalogClient::Connect(
    CatalogServer* server, WireClientOptions options, bool use_socket) {
  return ConnectChannel(server->Connect(use_socket), options);
}

Result<std::shared_ptr<WireCatalogClient>> WireCatalogClient::ConnectChannel(
    std::shared_ptr<ClientChannel> channel, WireClientOptions options) {
  if (channel == nullptr || channel->closed()) {
    return Status::Unavailable("catalog server refused the connection");
  }
  std::shared_ptr<WireCatalogClient> client(
      new WireCatalogClient(std::move(channel), options));
  wire::Request handshake;
  handshake.kind = wire::MsgKind::kHandshake;
  handshake.body = wire::EmptyReq{};
  VDG_ASSIGN_OR_RETURN(wire::Response resp, client->Call(handshake));
  if (!resp.status.ok()) return resp.status;
  const auto* body = std::get_if<wire::HandshakeResp>(&resp.body);
  if (body == nullptr) {
    return Status::Internal("wire: handshake response carried no body");
  }
  client->authority_ = body->authority;
  client->read_only_ = body->read_only;
  return client;
}

WireCatalogClient::WireCatalogClient(std::shared_ptr<ClientChannel> conn,
                                     WireClientOptions options)
    : conn_(std::move(conn)), options_(options) {
  receiver_ = std::thread([this] { ReceiverLoop(); });
}

WireCatalogClient::~WireCatalogClient() {
  Disconnect();
  if (receiver_.joinable()) receiver_.join();
}

WireClientStats WireCatalogClient::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void WireCatalogClient::reset_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = WireClientStats{};
}

void WireCatalogClient::CancelPending() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, slot] : pending_) {
    if (slot->done) continue;
    slot->done = true;
    slot->abandoned = true;
    slot->error = Status::Cancelled("call cancelled by CancelPending");
    stats_.cancellations++;
    slot->cv.notify_all();
  }
}

void WireCatalogClient::Disconnect() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (broken_) return;
    broken_ = true;
  }
  conn_->Close();
  // Pending requests were already sent: they may execute server-side
  // even though their replies are lost, so carriers must not blindly
  // re-issue mutations among them.
  FailAllPending(
      Status::UnavailableRetryUnsafe("wire client disconnected"));
}

void WireCatalogClient::FailAllPending(const Status& error) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, slot] : pending_) {
    if (slot->done) continue;
    slot->done = true;
    slot->error = error;
    slot->cv.notify_all();
  }
}

bool WireCatalogClient::SendFrame(std::string_view frame) {
  // One frame = one logical send, serialized so concurrent callers
  // can't interleave partial frames, looping because a channel (or a
  // fault shim under it) may accept fewer bytes than offered.
  std::lock_guard<std::mutex> lock(send_mu_);
  size_t off = 0;
  while (off < frame.size()) {
    ptrdiff_t n = conn_->Send(frame.substr(off));
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

void WireCatalogClient::ReceiverLoop() {
  std::string buffer;
  for (;;) {
    if (!conn_->Receive(&buffer)) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        broken_ = true;
      }
      // Lost replies: the in-flight requests may have executed.
      FailAllPending(Status::UnavailableRetryUnsafe(
          "wire connection closed by server"));
      return;
    }
    while (!buffer.empty()) {
      Result<size_t> size = wire::FrameSize(buffer);
      if (!size.ok()) {
        if (size.status().IsNotFound()) break;  // need more bytes
        {
          std::lock_guard<std::mutex> lock(mu_);
          broken_ = true;
        }
        conn_->Close();
        FailAllPending(Status::UnavailableRetryUnsafe(
            "wire response stream is corrupt: " + size.status().message()));
        return;
      }
      if (buffer.size() < *size) break;
      Result<wire::Frame> frame =
          wire::DecodeFrame(std::string_view(buffer.data(), *size));
      if (!frame.ok() || !frame->is_response) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          broken_ = true;
        }
        conn_->Close();
        FailAllPending(
            Status::UnavailableRetryUnsafe("wire response stream is corrupt"));
        return;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.bytes_received += *size;
        auto it = pending_.find(frame->request_id);
        if (it != pending_.end() && !it->second->done) {
          // Deposit raw payload bytes; the caller decodes on its own
          // thread so the receiver never stalls on a large response.
          it->second->payload.assign(frame->payload);
          it->second->done = true;
          it->second->cv.notify_all();
        }
        // else: response to an abandoned (deadline-expired/cancelled)
        // or unknown request — discarded by design.
      }
      buffer.erase(0, *size);
    }
  }
}

Result<wire::Response> WireCatalogClient::Call(const wire::Request& request) {
  std::shared_ptr<PendingSlot> slot;
  uint64_t request_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (broken_) {
      stats_.failures++;
      return Status::Unavailable("wire client is disconnected");
    }
    if (pending_.size() >= options_.max_in_flight) {
      stats_.admission_rejections++;
      return Status::ResourceExhausted(
          "wire client in-flight limit reached");
    }
    request_id = next_request_id_++;
    slot = std::make_shared<PendingSlot>();
    pending_.emplace(request_id, slot);
  }
  std::string frame = wire::EncodeRequestFrame(request_id, request);
  if (!SendFrame(frame)) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.erase(request_id);
    stats_.failures++;
    // A partial frame can never be executed (the server drops
    // incomplete framing), so a send failure is retry-safe.
    return Status::Unavailable("wire connection closed");
  }
  const bool has_deadline = options_.default_deadline.count() > 0;
  const auto deadline =
      std::chrono::steady_clock::now() + options_.default_deadline;
  std::unique_lock<std::mutex> lock(mu_);
  stats_.bytes_sent += frame.size();
  while (!slot->done) {
    if (has_deadline) {
      if (slot->cv.wait_until(lock, deadline) == std::cv_status::timeout &&
          !slot->done) {
        // Abandon the slot: the request may still execute server-side,
        // but its response is discarded on arrival.
        slot->abandoned = true;
        pending_.erase(request_id);
        stats_.deadline_expiries++;
        // The request is still queued or executing server-side:
        // re-issuing a mutation after an expiry can double-apply it.
        return Status::MarkRetryUnsafe(Status::DeadlineExceeded(
            "wire call deadline expired: " +
            std::string(wire::MsgKindName(request.kind))));
      }
    } else {
      slot->cv.wait(lock);
    }
  }
  pending_.erase(request_id);
  if (!slot->error.ok()) {
    if (!slot->error.IsCancelled()) stats_.failures++;
    return slot->error;
  }
  stats_.round_trips++;
  std::string payload = std::move(slot->payload);
  lock.unlock();
  // Decode on the calling thread, outside the client lock.
  return wire::DecodeResponse(request.kind, payload);
}

}  // namespace vdg
