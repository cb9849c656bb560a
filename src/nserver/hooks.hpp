// Application hooks — the only code a user of the N-Server writes.
//
// "To develop a network server application using the N-Server pattern, a
// programmer only has to write code corresponding to the three
// application-dependent steps [Decode Request, Handle Request, Encode
// Reply], while the N-Server generates code for the other two common steps
// [Read Request, Send Reply]" (paper, Section IV).
//
// Hooks are plain sequential code.  All concurrency — reading, queueing,
// scheduling, completion dispatch, sending — lives in the framework.  The
// framework guarantees at most one pipeline step per connection is executing
// at any moment, so hooks may freely use the per-connection state without
// locks.
#pragma once

#include <any>
#include <memory>
#include <string>

#include "common/byte_buffer.hpp"
#include "common/send_queue.hpp"
#include "nserver/file_io_service.hpp"

namespace cops::nserver {

class RequestContext;

enum class DecodeStatus {
  kNeedMore,  // incomplete request: re-arm the socket for reading
  kRequest,   // one complete request extracted from the buffer
  kError,     // malformed input: the framework closes the connection
  // Input the protocol can answer deterministically but not serve (bad
  // Content-Length, unsupported Transfer-Encoding, ...): the framework
  // encodes and sends the carried response, then closes the connection.
  kReject,
};

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kNeedMore;
  std::any request;
  // Scheduling priority for this request (0 = highest); honoured only when
  // option O8 is enabled.  This is the hook the paper's ISP experiment
  // implements in "13 lines": classify the request, assign the level.
  int priority = 0;

  static DecodeResult need_more() { return {}; }
  static DecodeResult error() { return {DecodeStatus::kError, {}, 0}; }
  static DecodeResult request_ready(std::any request, int priority = 0) {
    return {DecodeStatus::kRequest, std::move(request), priority};
  }
  // `response` goes through the Encode Reply hook like a normal reply, then
  // the connection closes.
  static DecodeResult reject(std::any response) {
    return {DecodeStatus::kReject, std::move(response), 0};
  }
};

class AppHooks {
 public:
  virtual ~AppHooks() = default;

  // Called on the dispatcher thread right after a connection is accepted.
  // Typical use: send a protocol greeting (FTP's "220 Service ready").
  virtual void on_connect(RequestContext& ctx) { (void)ctx; }

  // Called after a connection is fully closed (any thread).
  virtual void on_close(uint64_t connection_id) { (void)connection_id; }

  // Decode Request step.  Consume bytes from `in` (leaving any trailing
  // pipelined data for the next round).  Called only when `in` holds unread
  // bytes: after a reply the framework re-arms the socket itself when
  // nothing is buffered.  Not called — and not required —
  // when the server was configured without encoding/decoding (O3 = No,
  // Fig. 2): the framework then delivers raw chunks straight to handle().
  virtual DecodeResult decode(RequestContext& ctx, ByteBuffer& in) {
    (void)ctx;
    (void)in;
    return DecodeResult::error();  // only reachable if O3 was misconfigured
  }

  // Handle Request step.  Must eventually resolve the context exactly once:
  // reply() / reply_raw() / finish() / close() — synchronously or from a
  // fetch_file() continuation.
  virtual void handle(RequestContext& ctx, std::any request) = 0;

  // Encode Reply step (only with O3 = Yes).  Default: the response already
  // is the wire payload.
  virtual std::string encode(RequestContext& ctx, std::any response) {
    (void)ctx;
    return std::any_cast<std::string>(std::move(response));
  }

  // Segment-producing Encode Reply step.  The framework calls this one; the
  // default wraps encode() into a single owned segment, so protocols that
  // only implement the string hook behave exactly as before.  Zero-copy
  // protocols override it to emit owned header bytes plus refcounted body
  // slices (see ctx.send_path() and HttpAppHooks::encode_reply).
  virtual EncodedReply encode_reply(RequestContext& ctx, std::any response) {
    return EncodedReply::from_string(encode(ctx, std::move(response)));
  }
};

}  // namespace cops::nserver
