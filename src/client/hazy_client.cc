#include "client/hazy_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/strings.h"

namespace hazy::client {

namespace {

Status Errno(const char* what) {
  return Status::IOError(StrFormat("%s: %s", what, std::strerror(errno)));
}

}  // namespace

StatusOr<std::unique_ptr<HazyClient>> HazyClient::Connect(
    const std::string& host, uint16_t port, const std::string& client_name) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(StrFormat("bad server address '%s'", host.c_str()));
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = Errno("connect");
    ::close(fd);
    return s;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  auto client = std::unique_ptr<HazyClient>(new HazyClient());
  client->fd_ = fd;
  HAZY_RETURN_NOT_OK(client->Handshake(client_name));
  return client;
}

StatusOr<std::unique_ptr<HazyClient>> HazyClient::Loopback(
    engine::Database* db, const std::string& client_name) {
  auto client = std::unique_ptr<HazyClient>(new HazyClient());
  client->session_ = std::make_unique<server::Session>(/*id=*/0, db);
  HAZY_RETURN_NOT_OK(client->Handshake(client_name));
  return client;
}

HazyClient::~HazyClient() {
  Close().ok();  // best effort
}

Status HazyClient::Handshake(const std::string& client_name) {
  std::string payload;
  rpc::EncodeHelloPayload(rpc::kProtocolVersion, client_name, &payload);
  std::string raw;
  rpc::FrameView reply;
  HAZY_RETURN_NOT_OK(
      RoundTrip(rpc::Opcode::kHello, payload, rpc::Opcode::kHelloOk, &raw, &reply));
  uint32_t server_version = 0;
  HAZY_RETURN_NOT_OK(
      rpc::DecodeHelloPayload(reply.payload, &server_version, &server_name_));
  if (server_version != rpc::kProtocolVersion) {
    return Status::NotSupported(StrFormat(
        "server speaks protocol %u, client speaks %u", server_version,
        rpc::kProtocolVersion));
  }
  return Status::OK();
}

Status HazyClient::SendAll(std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

StatusOr<std::string> HazyClient::ReadFrameBytes() {
  for (;;) {
    rpc::FrameView frame;
    size_t frame_bytes = 0;
    std::string error;
    const rpc::FrameDecode rc =
        rpc::TryDecodeFrame(recv_buf_, &frame, &frame_bytes, &error);
    if (rc == rpc::FrameDecode::kBad) {
      return Status::Corruption(StrFormat("bad frame from server: %s", error.c_str()));
    }
    if (rc == rpc::FrameDecode::kFrame) {
      // A synchronous client's buffer usually holds exactly this reply.
      if (frame_bytes == recv_buf_.size()) {
        std::string raw = std::move(recv_buf_);
        recv_buf_.clear();
        return raw;
      }
      std::string raw = recv_buf_.substr(0, frame_bytes);
      recv_buf_.erase(0, frame_bytes);
      return raw;
    }
    char chunk[64 * 1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return Status::IOError("server closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    recv_buf_.append(chunk, static_cast<size_t>(n));
  }
}

StatusOr<std::string> HazyClient::RoundTripRaw(rpc::Opcode op,
                                               std::string_view payload) {
  if (closed_) return Status::InvalidArgument("client is closed");
  const uint32_t request_id = next_request_id_++;
  std::string request;
  rpc::EncodeFrame(op, request_id, payload, &request);

  std::string raw;
  if (session_ != nullptr) {
    rpc::FrameView view;
    size_t frame_bytes = 0;
    std::string error;
    if (rpc::TryDecodeFrame(request, &view, &frame_bytes, &error) !=
        rpc::FrameDecode::kFrame) {
      return Status::Internal(StrFormat("self-encoded frame invalid: %s",
                                        error.c_str()));
    }
    bool close_after = false;
    raw = session_->HandleFrame(view, &close_after);
    if (close_after) closed_ = true;
  } else {
    HAZY_RETURN_NOT_OK(SendAll(request));
    HAZY_ASSIGN_OR_RETURN(raw, ReadFrameBytes());
  }

  // A synchronous client has exactly one request outstanding; the response
  // id must echo it.
  rpc::FrameView reply;
  size_t frame_bytes = 0;
  if (rpc::TryDecodeFrame(raw, &reply, &frame_bytes, nullptr) !=
      rpc::FrameDecode::kFrame) {
    return Status::Corruption("undecodable response frame");
  }
  if (reply.request_id != request_id) {
    return Status::Corruption(StrFormat("response id %u for request id %u",
                                        reply.request_id, request_id));
  }
  return raw;
}

Status HazyClient::RoundTrip(rpc::Opcode op, std::string_view payload,
                             rpc::Opcode expect, std::string* raw,
                             rpc::FrameView* reply) {
  HAZY_ASSIGN_OR_RETURN(*raw, RoundTripRaw(op, payload));
  size_t frame_bytes = 0;
  if (rpc::TryDecodeFrame(*raw, reply, &frame_bytes, nullptr) !=
      rpc::FrameDecode::kFrame) {
    return Status::Corruption("undecodable response frame");
  }
  if (reply->opcode == rpc::Opcode::kError || reply->opcode == rpc::Opcode::kBusy) {
    return rpc::DecodeErrorPayload(reply->payload);
  }
  if (reply->opcode != expect) {
    return Status::Internal(StrFormat("%s answered with %s", rpc::OpcodeName(op),
                                      rpc::OpcodeName(reply->opcode)));
  }
  return Status::OK();
}

StatusOr<sql::ResultSet> HazyClient::ResultRoundTrip(rpc::Opcode op,
                                                     std::string_view payload) {
  std::string raw;
  rpc::FrameView reply;
  HAZY_RETURN_NOT_OK(RoundTrip(op, payload, rpc::Opcode::kResult, &raw, &reply));
  return sql::ResultSet::Decode(reply.payload);
}

StatusOr<sql::ResultSet> HazyClient::Query(const std::string& sql) {
  return ResultRoundTrip(rpc::Opcode::kQuery, sql);
}

StatusOr<PreparedHandle> HazyClient::Prepare(const std::string& sql_template) {
  std::string raw;
  rpc::FrameView reply;
  HAZY_RETURN_NOT_OK(RoundTrip(rpc::Opcode::kPrepare, sql_template,
                               rpc::Opcode::kPrepared, &raw, &reply));
  PreparedHandle handle;
  HAZY_RETURN_NOT_OK(
      rpc::DecodePreparedPayload(reply.payload, &handle.id, &handle.num_params));
  return handle;
}

StatusOr<sql::ResultSet> HazyClient::ExecPrepared(
    const PreparedHandle& handle, const std::vector<storage::Value>& params) {
  if (params.size() != handle.num_params) {
    return Status::InvalidArgument(
        StrFormat("statement %u takes %u parameters, got %zu", handle.id,
                  handle.num_params, params.size()));
  }
  std::string payload;
  rpc::EncodeExecPayload(handle.id, params, &payload);
  return ResultRoundTrip(rpc::Opcode::kExecPrepared, payload);
}

Status HazyClient::CloseStmt(const PreparedHandle& handle) {
  std::string payload;
  rpc::EncodeCloseStmtPayload(handle.id, &payload);
  std::string raw;
  rpc::FrameView reply;
  return RoundTrip(rpc::Opcode::kCloseStmt, payload, rpc::Opcode::kStmtClosed,
                   &raw, &reply);
}

StatusOr<sql::ResultSet> HazyClient::Stats(const std::string& like) {
  return ResultRoundTrip(rpc::Opcode::kStats, like);
}

Status HazyClient::Ping() {
  std::string raw;
  rpc::FrameView reply;
  return RoundTrip(rpc::Opcode::kPing, {}, rpc::Opcode::kPong, &raw, &reply);
}

Status HazyClient::Close() {
  if (closed_) return Status::OK();
  std::string raw;
  rpc::FrameView reply;
  const Status s =
      RoundTrip(rpc::Opcode::kGoodbye, {}, rpc::Opcode::kGoodbyeOk, &raw, &reply);
  closed_ = true;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  session_.reset();
  return s;
}

}  // namespace hazy::client
