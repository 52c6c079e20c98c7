#include "net/client.h"

#include <atomic>
#include <chrono>
#include <thread>

namespace seco {

Result<NetClient> NetClient::Connect(const std::string& host, uint16_t port,
                                     int timeout_ms) {
  SECO_ASSIGN_OR_RETURN(Socket socket, ConnectTcp(host, port, timeout_ms));
  NetClient client(std::move(socket), timeout_ms);
  SECO_RETURN_IF_ERROR(ClientHello(&client.socket_, &client.decoder_,
                                   WireRole::kQueryClient, timeout_ms));
  return client;
}

Status NetClient::Submit(uint64_t request_id, const QueryRequest& request) {
  WireWriter w;
  w.U64(request_id);
  std::string encoded = EncodeQueryRequest(request);
  w.Bytes(encoded.data(), encoded.size());
  return SendFrame(&socket_, FrameType::kQuery, w.Take());
}

Result<WireResponse> NetClient::Receive() {
  SECO_ASSIGN_OR_RETURN(Frame header,
                        RecvFrame(&socket_, &decoder_, timeout_ms_));
  if (header.type == FrameType::kError) {
    return ErrorFrameStatus(header.payload,
                            Status::Unavailable("front end protocol error"));
  }
  if (header.type != FrameType::kResultHeader) {
    return Status::Unavailable("front end sent unexpected frame " +
                               std::to_string(static_cast<int>(header.type)) +
                               " instead of a result header");
  }
  WireResponse response;
  uint32_t body_len = 0;
  {
    WireReader r(header.payload);
    SECO_ASSIGN_OR_RETURN(response.request_id, r.U64());
    SECO_ASSIGN_OR_RETURN(uint8_t status, r.U8());
    if (status > static_cast<uint8_t>(WireStatus::kCancelled)) {
      return Status::InvalidArgument("wire: result status out of range");
    }
    response.status = static_cast<WireStatus>(status);
    SECO_ASSIGN_OR_RETURN(response.retry_after_ms, r.F64());
    SECO_ASSIGN_OR_RETURN(body_len, r.U32());
    SECO_RETURN_IF_ERROR(r.ExpectEnd());
  }

  response.body.reserve(body_len);
  while (true) {
    SECO_ASSIGN_OR_RETURN(Frame frame,
                          RecvFrame(&socket_, &decoder_, timeout_ms_));
    const bool end = frame.type == FrameType::kResultEnd;
    if (!end && frame.type != FrameType::kResultBody) {
      return Status::Unavailable(
          "front end sent unexpected frame " +
          std::to_string(static_cast<int>(frame.type)) +
          " inside a chunked response");
    }
    WireReader r(frame.payload);
    SECO_ASSIGN_OR_RETURN(uint64_t id, r.U64());
    if (id != response.request_id) {
      return Status::InvalidArgument(
          std::string(end ? "wire: result end" : "wire: body chunk") +
          " for request " + std::to_string(id) + " inside response " +
          std::to_string(response.request_id));
    }
    if (end) break;
    response.body.append(frame.payload, 8, std::string::npos);
  }
  if (response.body.size() != body_len) {
    return Status::InvalidArgument(
        "wire: reassembled body is " + std::to_string(response.body.size()) +
        " bytes, header promised " + std::to_string(body_len));
  }
  return response;
}

Result<WireResponse> NetClient::Roundtrip(uint64_t request_id,
                                          const QueryRequest& request) {
  SECO_RETURN_IF_ERROR(Submit(request_id, request));
  return Receive();
}

Status NetClient::Cancel(uint64_t request_id) {
  WireWriter w;
  w.U64(request_id);
  return SendFrame(&socket_, FrameType::kCancel, w.Take());
}

Status NetClient::Ping(uint64_t cookie) {
  WireWriter w;
  w.U64(cookie);
  SECO_RETURN_IF_ERROR(SendFrame(&socket_, FrameType::kPing, w.Take()));
  SECO_ASSIGN_OR_RETURN(Frame pong,
                        RecvFrame(&socket_, &decoder_, timeout_ms_));
  if (pong.type != FrameType::kPong) {
    return Status::Unavailable("expected pong, got frame " +
                               std::to_string(static_cast<int>(pong.type)));
  }
  WireReader r(pong.payload);
  SECO_ASSIGN_OR_RETURN(uint64_t echoed, r.U64());
  if (echoed != cookie) {
    return Status::Unavailable("pong cookie mismatch");
  }
  return Status::OK();
}

void NetClient::Goodbye() {
  (void)SendFrame(&socket_, FrameType::kGoodbye, std::string());
  socket_.ShutdownWrite();
  socket_.Close();
}

int64_t WireLoadReport::CountOutcome(ServedOutcome outcome) const {
  int64_t count = 0;
  for (const QueryResponse& response : responses) {
    if (response.outcome == outcome) ++count;
  }
  return count;
}

namespace {

/// Decodes one wire response into the report slots; transport or codec
/// failures become kFailed responses so the report always has one terminal
/// entry per scheduled query, like the in-process `LoadReport`.
void FillSlot(Result<WireResponse> wire, WireLoadReport* report, size_t i) {
  if (!wire.ok()) {
    report->responses[i].outcome = ServedOutcome::kFailed;
    report->responses[i].status = wire.status();
    return;
  }
  report->bodies[i] = wire.value().body;
  Result<QueryResponse> decoded = DecodeAnswerBody(wire.value().body);
  if (!decoded.ok()) {
    report->responses[i].outcome = ServedOutcome::kFailed;
    report->responses[i].status = decoded.status();
    return;
  }
  report->responses[i] = std::move(decoded.value());
}

}  // namespace

WireLoadReport DriveLoadOverWire(const std::string& host, uint16_t port,
                                 const std::vector<LoadItem>& schedule,
                                 const LoadProfile& profile) {
  WireLoadReport report;
  report.responses.resize(schedule.size());
  report.bodies.resize(schedule.size());
  auto start = std::chrono::steady_clock::now();

  if (profile.closed_loop_width > 0) {
    // Closed loop: `width` worker connections, each keeping exactly one
    // call outstanding and pulling the next schedule slot as its response
    // lands — the wire analogue of DriveLoad's future deque.
    const int width = std::min<int>(profile.closed_loop_width,
                                    static_cast<int>(schedule.size()));
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(width);
    for (int w = 0; w < width; ++w) {
      workers.emplace_back([&] {
        Result<NetClient> client = NetClient::Connect(host, port);
        for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < schedule.size();
             i = next.fetch_add(1, std::memory_order_relaxed)) {
          if (!client.ok()) {
            // Reconnect per slot: one refused dial or one poisoned stream
            // fails its own query, not every query this worker would have
            // pulled for the rest of the run.
            client = NetClient::Connect(host, port);
          }
          if (!client.ok()) {
            report.responses[i].outcome = ServedOutcome::kFailed;
            report.responses[i].status = client.status();
            continue;
          }
          Result<WireResponse> wire = client.value().Roundtrip(
              static_cast<uint64_t>(i + 1), schedule[i].request);
          if (!wire.ok()) {
            // The stream may hold a half-delivered response; poison the
            // client so the next slot dials fresh.
            client = wire.status();
          }
          FillSlot(std::move(wire), &report, i);
        }
        if (client.ok()) client.value().Goodbye();
      });
    }
    for (std::thread& t : workers) t.join();
  } else {
    // Open loop: pipeline the entire schedule down one keep-alive
    // connection; a reader thread collects responses (submission order)
    // while the writer keeps offering load, so offered load stays
    // independent of service rate just like the in-process open loop.
    Result<NetClient> client = NetClient::Connect(host, port);
    if (!client.ok()) {
      for (size_t i = 0; i < schedule.size(); ++i) {
        report.responses[i].outcome = ServedOutcome::kFailed;
        report.responses[i].status = client.status();
      }
    } else {
      std::thread reader([&] {
        for (size_t i = 0; i < schedule.size(); ++i) {
          FillSlot(client.value().Receive(), &report, i);
        }
      });
      for (size_t i = 0; i < schedule.size(); ++i) {
        if (profile.realtime_factor > 0.0 && i > 0) {
          double gap_ms = (schedule[i].arrival_ms -
                           schedule[i - 1].arrival_ms) *
                          profile.realtime_factor;
          if (gap_ms > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(gap_ms));
          }
        }
        Status sent = client.value().Submit(static_cast<uint64_t>(i + 1),
                                            schedule[i].request);
        if (!sent.ok()) break;  // reader fails the remaining slots
      }
      reader.join();
      client.value().Goodbye();
    }
  }

  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return report;
}

}  // namespace seco
