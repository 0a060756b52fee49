#include "daemon/client.h"

#include <utility>

namespace dbpc {

DaemonClient::DaemonClient(std::unique_ptr<SockBuffer> sock)
    : sock_(std::move(sock)) {}

Result<std::unique_ptr<DaemonClient>> DaemonClient::Connect(
    const std::string& host, int port, SockBuffer::Limits limits) {
  DBPC_ASSIGN_OR_RETURN(int fd, ConnectTcp(host, port, /*timeout_ms=*/-1));
  // Requests are written whole (EncodeSubmit builds one string), so the
  // client side of the request/reply exchange must not sit out Nagle
  // either.
  EnableTcpNoDelay(fd);
  std::unique_ptr<DaemonClient> client(
      new DaemonClient(std::make_unique<SockBuffer>(fd, limits)));
  DBPC_ASSIGN_OR_RETURN(std::string greeting, client->sock_->ReadLine());
  DBPC_ASSIGN_OR_RETURN(WireReply reply, ParseReplyLine(greeting));
  if (!reply.ok) {
    return Status::Unavailable("server refused session: " + reply.message);
  }
  client->greeting_ = reply.fields;
  auto proto = reply.fields.find("proto");
  if (proto == reply.fields.end() ||
      proto->second != std::to_string(kProtocolVersion)) {
    return Status::Unsupported(
        "server speaks proto=" +
        (proto == reply.fields.end() ? std::string("?") : proto->second) +
        ", this client needs proto=" + std::to_string(kProtocolVersion));
  }
  return client;
}

Result<WireReply> DaemonClient::RoundTrip(const std::string& wire,
                                          std::string* payload) {
  Result<WireReply> reply = Exchange(wire, payload);
  if (!reply.ok()) connected_ = false;
  return reply;
}

Result<WireReply> DaemonClient::Exchange(const std::string& wire,
                                         std::string* payload) {
  DBPC_RETURN_IF_ERROR(sock_->WriteAll(wire));
  DBPC_ASSIGN_OR_RETURN(std::string line, sock_->ReadLine());
  DBPC_ASSIGN_OR_RETURN(WireReply reply, ParseReplyLine(line));
  if (reply.has_payload) {
    DBPC_ASSIGN_OR_RETURN(std::string body,
                          sock_->ReadExact(reply.payload_bytes));
    // The counted payload is followed by a terminating newline.
    DBPC_ASSIGN_OR_RETURN(std::string terminator, sock_->ReadLine());
    if (!terminator.empty()) {
      return Status::Internal("payload not followed by an empty line");
    }
    if (payload != nullptr) *payload = std::move(body);
  }
  return reply;
}

Status DaemonClient::Ping() {
  DBPC_ASSIGN_OR_RETURN(WireReply reply, RoundTrip("PING\n", nullptr));
  if (!reply.ok) return Status(reply.code, reply.message);
  return Status::OK();
}

Result<JobId> DaemonClient::Submit(const ConversionRequest& request) {
  DBPC_ASSIGN_OR_RETURN(WireReply reply,
                        RoundTrip(EncodeSubmit(request), nullptr));
  if (!reply.ok) return Status(reply.code, reply.message);
  auto it = reply.fields.find("id");
  if (it == reply.fields.end()) {
    return Status::Internal("SUBMIT reply without an id field");
  }
  return static_cast<JobId>(std::stoull(it->second));
}

Result<JobState> DaemonClient::State(JobId id) {
  WireCommand command;
  command.kind = CommandKind::kStatus;
  command.id = id;
  DBPC_ASSIGN_OR_RETURN(
      WireReply reply, RoundTrip(FormatCommandLine(command) + "\n", nullptr));
  if (!reply.ok) return Status(reply.code, reply.message);
  auto it = reply.fields.find("state");
  if (it == reply.fields.end()) {
    return Status::Internal("STATUS reply without a state field");
  }
  return ParseJobState(it->second);
}

Result<ConversionResponse> DaemonClient::Fetch(JobId id, bool wait) {
  WireCommand command;
  command.kind = CommandKind::kResult;
  command.id = id;
  command.wait = wait;
  std::string payload;
  DBPC_ASSIGN_OR_RETURN(
      WireReply reply,
      RoundTrip(FormatCommandLine(command) + "\n", &payload));
  if (!reply.ok) return Status(reply.code, reply.message);
  if (!reply.has_payload) {
    // +OK without payload: the job is still queued/running.
    auto it = reply.fields.find("state");
    return Status::Unavailable(
        "job " + std::to_string(id) + " is still " +
        (it == reply.fields.end() ? std::string("pending") : it->second));
  }
  return DecodeResponse(reply, payload);
}

Result<ConversionResponse> DaemonClient::Convert(
    const ConversionRequest& request) {
  DBPC_ASSIGN_OR_RETURN(JobId id, Submit(request));
  return Fetch(id, /*wait=*/true);
}

Result<std::string> DaemonClient::Metrics() {
  std::string payload;
  DBPC_ASSIGN_OR_RETURN(WireReply reply, RoundTrip("METRICS\n", &payload));
  if (!reply.ok) return Status(reply.code, reply.message);
  return payload;
}

Result<std::string> DaemonClient::Trace(JobId id) {
  WireCommand command;
  command.kind = CommandKind::kTrace;
  command.id = id;
  std::string payload;
  DBPC_ASSIGN_OR_RETURN(
      WireReply reply,
      RoundTrip(FormatCommandLine(command) + "\n", &payload));
  if (!reply.ok) return Status(reply.code, reply.message);
  return payload;
}

Status DaemonClient::Drain() {
  DBPC_ASSIGN_OR_RETURN(WireReply reply, RoundTrip("DRAIN\n", nullptr));
  if (!reply.ok) return Status(reply.code, reply.message);
  return Status::OK();
}

Status DaemonClient::Quit() {
  DBPC_ASSIGN_OR_RETURN(WireReply reply, RoundTrip("QUIT\n", nullptr));
  if (!reply.ok) return Status(reply.code, reply.message);
  return Status::OK();
}

Status DaemonClient::SendRaw(const std::string& bytes) {
  return sock_->WriteAll(bytes);
}

Result<std::string> DaemonClient::ReadReplyLineRaw() {
  return sock_->ReadLine();
}

}  // namespace dbpc
