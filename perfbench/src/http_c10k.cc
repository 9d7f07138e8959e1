// http_c10k: one thread plays both the wire client (net::LoopbackClient in
// batch mode) and the event-loop server (kEvqWait with timeout 0 -> kRecv
// -> ramfs read -> kSend) on one booted SVA-Safe kernel holding 10,000
// connections. The connections are virtual in-process state, not host
// sockets. The loop is closed with one request outstanding, each on a
// connection drawn by seed from the held set, so every request's latency
// is its own path through client, NIC/NAPI, event queue and server, never
// time spent queued behind other requests. Responses come in two sizes
// read from ramfs (one frame, several frames) and every response is
// byte-checked.
//
// It loads net rx/tx and NAPI, skb registration and bounds checks, the
// kernel's event queue and a 10k-entry fd table, and vfs reads. mm fork
// and the SVM stay idle. One thread leaves no thread handoff to add noise.
#include <cstring>

#include "harness.h"
#include "replay.h"
#include "src/net/client.h"

namespace svabench {
namespace {

constexpr int kConns = 10000;
constexpr uint16_t kPort = 80;
constexpr uint16_t kCanaryPort = 53;
// SYNs injected per Flush during the connection storm (half the NIC rx
// ring, so a burst never overruns it).
constexpr int kStormChunk = 128;
// On average one request in this many is preceded by a safety canary.
constexpr uint64_t kCanaryPeriod = 2048;

constexpr uint64_t kPathAt = 0x0000;
constexpr uint64_t kWaitAt = 0x1000;  // kWaitEvents records of 16 bytes.
constexpr uint64_t kRxAt = 0x2000;
constexpr uint64_t kRespAt = 0x4000;  // The larger response fits below 0x6000.
constexpr uint64_t kWaitEvents = 64;

const std::string kRequests[2] = {"GET /small HTTP/1.0\r\n\r\n",
                                  "GET /large HTTP/1.0\r\n\r\n"};

// The two responses, each a whole file in ramfs: the small one fits in one
// frame, the large one spans several. They stand for the two most requested
// file classes of the SPECweb99 file set: class 0 (files under 1 KB, 35% of
// requests) and class 1 (1-10 KB, 50%). Each body is its class's mean file
// size, and requests keep the two classes' 35:50 ratio (7 in 17 small).
constexpr uint64_t kSmallBody = 512;
constexpr uint64_t kLargeBody = 5120;
constexpr uint64_t kSmallShare = 7;
constexpr uint64_t kShares = 17;
struct Plan {
  uint64_t seed = 0;
  std::string responses[2];
};

std::string MakeResponse(Rng& rng, uint64_t body_bytes) {
  std::string body(body_bytes, ' ');
  for (char& c : body) {
    c = static_cast<char>('a' + rng.Below(26));
  }
  std::string header = "HTTP/1.0 200 OK\r\nContent-Length: " +
                       std::to_string(body_bytes) + "\r\n\r\n";
  return header + body;
}

Plan MakePlan(uint64_t seed) {
  Plan plan;
  plan.seed = seed;
  Rng rng(seed ^ 0xc10c);
  // Fixed sizes, seeded bytes: every seed serves the same amount of work.
  plan.responses[0] = MakeResponse(rng, kSmallBody);  // One frame.
  plan.responses[1] = MakeResponse(rng, kLargeBody);  // Four frames.
  return plan;
}

bool IsCanary(uint64_t seed, uint64_t i) {
  return Draw(seed, i, 3) % kCanaryPeriod == 0;
}

int Conn(uint64_t seed, uint64_t i) {
  return static_cast<int>(Draw(seed, i) % kConns);
}

int ResponseKind(uint64_t seed, uint64_t i) {
  return Draw(seed, i, 1) % kShares < kSmallShare ? 0 : 1;
}

class C10k : public ReplayTarget {
 public:
  C10k(const Plan& plan, bool disarm) : plan_(plan), disarm_(disarm) {}

  Status Setup(KernelMode mode, SetupTimes* times) override;
  uint64_t RunChunk(uint64_t begin, uint64_t end, bool canaries,
                    RunResult* result, LatencyLog* latencies) override;

  void BeginCounters() override;
  void EndCounters(RunResult* result, uint64_t ops) override;

 private:
  struct NetCounters {
    uint64_t rx_irqs = 0, rx_polls = 0, rx_frames_polled = 0, tx_frames = 0,
             rx_queue_drops = 0, rx_violations = 0, conns_accepted = 0;
  };
  NetCounters ReadNet() const;
  Status Storm();
  // One server pass: waits (timeout 0) and serves every ready connection.
  void ServePass(RunResult* result);
  void Canary(RunResult* result);

  const Plan& plan_;
  const bool disarm_;
  std::unique_ptr<KernelBox> box_;
  std::unique_ptr<sva::net::LoopbackClient> client_;
  uint64_t listener_ = 0;
  uint64_t evq_ = 0;
  uint64_t files_[2] = {0, 0};
  std::vector<int> handles_;          // Client-side connection handles.
  uint64_t accepted_ = 0;
  // Bench-side event-loop counts.
  uint64_t waits_ = 0, events_ = 0, recvs_ = 0, eagains_ = 0;
  KernelCounters kbefore_;
  NetCounters nbefore_;
  uint64_t wbefore_[4] = {0, 0, 0, 0};
  std::vector<uint8_t> scratch_ = std::vector<uint8_t>(1024);
};

Status C10k::Setup(KernelMode mode, SetupTimes* times) {
  uint64_t t0 = NowNs();
  SVA_ASSIGN_OR_RETURN(box_, KernelBox::Boot(mode));
  uint64_t t1 = NowNs();
  KernelBox& k = *box_;
  client_ = std::make_unique<sva::net::LoopbackClient>(*k.k().net());
  client_->set_batch_mode(true);
  auto ok_fd = [](const Result<uint64_t>& r, const char* what,
                  uint64_t* out) -> Status {
    if (!r.ok()) {
      return r.status();
    }
    if (IsErrno(*r)) {
      return sva::Internal(std::string("setup: ") + what + " failed");
    }
    if (out != nullptr) {
      *out = *r;
    }
    return sva::OkStatus();
  };
  // The document root: both responses as ramfs files, kept open.
  const char* paths[2] = {"/www/small", "/www/large"};
  for (int f = 0; f < 2; ++f) {
    const std::string& body = plan_.responses[f];
    SVA_RETURN_IF_ERROR(k.PokeString(k.user(kPathAt), paths[f]));
    SVA_RETURN_IF_ERROR(ok_fd(k.Call(Sys::kOpen, k.user(kPathAt), 1), "create",
                              &files_[f]));
    SVA_RETURN_IF_ERROR(k.Poke(k.user(kRespAt), body.data(), body.size()));
    uint64_t wrote = 0;
    SVA_RETURN_IF_ERROR(ok_fd(
        k.Call(Sys::kWrite, files_[f], k.user(kRespAt), body.size()), "fill",
        &wrote));
    if (wrote != body.size()) {
      return sva::Internal("setup: short file write");
    }
  }
  SVA_RETURN_IF_ERROR(ok_fd(
      k.Call(Sys::kSocket,
             static_cast<uint64_t>(sva::kernel::SocketDomain::kListener)),
      "socket", &listener_));
  uint64_t rc = 0;
  SVA_RETURN_IF_ERROR(ok_fd(k.Call(Sys::kBind, listener_, kPort, 0), "bind", &rc));
  SVA_RETURN_IF_ERROR(ok_fd(k.Call(Sys::kEvqCreate), "evq_create", &evq_));
  SVA_RETURN_IF_ERROR(ok_fd(
      k.Call(Sys::kEvqCtl, evq_, sva::kernel::kEvqCtlAdd, listener_, listener_),
      "evq_ctl", &rc));
  // The canary's target: a bound datagram socket the server never reads.
  uint64_t udp = 0;
  SVA_RETURN_IF_ERROR(ok_fd(
      k.Call(Sys::kSocket,
             static_cast<uint64_t>(sva::kernel::SocketDomain::kDatagram)),
      "udp socket", &udp));
  SVA_RETURN_IF_ERROR(ok_fd(k.Call(Sys::kBind, udp, kCanaryPort, 0),
                            "udp bind", &rc));
  SVA_RETURN_IF_ERROR(Storm());
  uint64_t t2 = NowNs();
  if (times != nullptr) {
    times->boot_ms = static_cast<double>(t1 - t0) / 1e6;
    times->prefill_ms = static_cast<double>(t2 - t1) / 1e6;
  }
  return sva::OkStatus();
}

// The connection storm: 10,000 SYNs in ring-sized bursts, each burst
// accepted and registered with the event queue.
Status C10k::Storm() {
  KernelBox& k = *box_;
  handles_.reserve(kConns);
  for (int opened = 0; opened < kConns;) {
    int chunk = std::min(kStormChunk, kConns - opened);
    for (int i = 0; i < chunk; ++i) {
      SVA_ASSIGN_OR_RETURN(int h, client_->OpenStream(kPort));
      handles_.push_back(h);
    }
    opened += chunk;
    client_->Flush();
    while (true) {
      Result<uint64_t> conn = k.Call(Sys::kAccept, listener_);
      if (!conn.ok()) {
        return conn.status();
      }
      if (IsErrno(*conn)) {
        break;  // EAGAIN: backlog drained.
      }
      Result<uint64_t> added =
          k.Call(Sys::kEvqCtl, evq_, sva::kernel::kEvqCtlAdd, *conn, *conn);
      if (!added.ok() || *added != 0) {
        return sva::Internal("storm: evq_ctl add failed");
      }
      ++accepted_;
    }
  }
  // The listener's readiness hint from the storm is stale now; one pass
  // culls it so the serving loop never sees it.
  SVA_ASSIGN_OR_RETURN(uint64_t n, k.Call(Sys::kEvqWait, evq_, k.user(kWaitAt),
                                          kWaitEvents, 0));
  if (accepted_ != kConns || n != 0 ||
      k.k().net()->stats().conns_accepted.load() != kConns) {
    return sva::Internal("storm: not all 10,000 connections are held");
  }
  return sva::OkStatus();
}

void C10k::ServePass(RunResult* result) {
  KernelBox& k = *box_;
  Result<uint64_t> n =
      k.Call(Sys::kEvqWait, evq_, k.user(kWaitAt), kWaitEvents, 0);
  ++waits_;
  if (!n.ok() || IsErrno(*n) || *n > kWaitEvents) {
    result->Broken("evq_wait failed");
    return;
  }
  events_ += *n;
  uint8_t raw[kWaitEvents * 16];
  if (*n > 0 && !k.Peek(k.user(kWaitAt), raw, *n * 16).ok()) {
    result->Broken("evq_wait: cannot read events");
    return;
  }
  for (uint64_t e = 0; e < *n; ++e) {
    uint32_t fd = 0;
    std::memcpy(&fd, raw + e * 16 + 12, 4);
    if (fd == listener_) {
      result->Broken("listener became ready: a connection was lost");
      continue;
    }
    Result<uint64_t> got = k.Call(Sys::kRecv, fd, k.user(kRxAt), 1024);
    ++recvs_;
    if (!got.ok()) {
      result->Broken("recv: " + got.status().ToString());
      continue;
    }
    if (*got == static_cast<uint64_t>(-11)) {
      ++eagains_;  // A stale level hint.
      continue;
    }
    if (*got == 0 || IsErrno(*got) || *got != kRequests[0].size()) {
      result->Broken("recv: connection closed or short request");
      continue;
    }
    if (!k.Peek(k.user(kRxAt), scratch_.data(), *got).ok()) {
      result->Broken("recv: cannot read request");
      continue;
    }
    int f = -1;
    for (int r = 0; r < 2; ++r) {
      if (std::memcmp(scratch_.data(), kRequests[r].data(), *got) == 0) {
        f = r;
      }
    }
    if (f < 0) {
      result->Broken("server received a garbled request");
      continue;
    }
    const uint64_t size = plan_.responses[f].size();
    Result<uint64_t> sought = k.Call(Sys::kLseek, files_[f], 0, 0);
    Result<uint64_t> read = k.Call(Sys::kRead, files_[f], k.user(kRespAt), size);
    Result<uint64_t> sent = k.Call(Sys::kSend, fd, k.user(kRespAt), size);
    if (!sought.ok() || *sought != 0 || !read.ok() || *read != size ||
        !sent.ok() || *sent != size) {
      result->Broken("server: lseek/read/send of the response failed");
    }
  }
}

void C10k::Canary(RunResult* result) {
  // A UDP datagram whose length field claims 4096 bytes of a 32-byte
  // payload: the rx bounds check must count exactly one violation.
  // Disarmed (test hook), an honest datagram is sent instead.
  ++result->attempted;
  sva::net::NetStack& net = *box_->k().net();
  uint64_t before = net.stats().rx_violations.load();
  Status sent = disarm_ ? client_->SendDatagram(7, kCanaryPort,
                                                std::vector<uint8_t>(32, 0xA5))
                        : client_->SendMalformedDatagram(7, kCanaryPort, 4096,
                                                         32);
  client_->Flush();
  if (!sent.ok() || net.stats().rx_violations.load() != before + 1) {
    result->Fail("canary: UDP length lie was not caught");
  }
}

uint64_t C10k::RunChunk(uint64_t begin, uint64_t end, bool canaries,
                        RunResult* result, LatencyLog* latencies) {
  uint64_t start = NowNs();
  for (uint64_t i = begin; i < end && result->integrity_ok; ++i) {
    if (canaries && IsCanary(plan_.seed, i)) {
      Canary(result);
    }
    const int handle = handles_[static_cast<size_t>(Conn(plan_.seed, i))];
    const int kind = ResponseKind(plan_.seed, i);
    const std::string& want = plan_.responses[kind];
    g_op = static_cast<uint32_t>(i);
    ++result->attempted;
    uint64_t sent_ns = NowNs();
    Status s;
    {
      Span span(Layer::kClient);
      s = client_->SendStream(handle, kRequests[kind]);
    }
    if (!s.ok()) {
      result->Fail("client send: " + s.ToString());
      continue;
    }
    {
      Span span(Layer::kNet);
      client_->Flush();
    }
    ServePass(result);
    std::string got;
    {
      Span span(Layer::kClient);
      got = client_->TakeStream(handle);
    }
    uint64_t done_ns = NowNs();
    if (latencies != nullptr) {
      latencies->Add(done_ns - sent_ns);
    }
    if (got != want) {
      result->Fail(got.size() < want.size() ? "request left without a reply"
                                            : "response bytes differ");
    }
  }
  return NowNs() - start;
}

C10k::NetCounters C10k::ReadNet() const {
  const sva::net::NetStats& s = box_->k().net()->stats();
  NetCounters c;
  c.rx_irqs = s.rx_irqs.load();
  c.rx_polls = s.rx_polls.load();
  c.rx_frames_polled = s.rx_frames_polled.load();
  c.tx_frames = s.tx_frames.load();
  c.rx_queue_drops = s.rx_queue_drops.load();
  c.rx_violations = s.rx_violations.load();
  c.conns_accepted = s.conns_accepted.load();
  return c;
}

void C10k::BeginCounters() {
  kbefore_ = KernelCounters::Read(*box_);
  nbefore_ = ReadNet();
  wbefore_[0] = waits_;
  wbefore_[1] = events_;
  wbefore_[2] = recvs_;
  wbefore_[3] = eagains_;
}

void C10k::EndCounters(RunResult* result, uint64_t ops) {
  ReportKernelCounters(result, kbefore_, KernelCounters::Read(*box_), ops);
  NetCounters a = ReadNet();
  const NetCounters& b = nbefore_;
  auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  result->Set("net.frames_per_poll",
              ratio(a.rx_frames_polled - b.rx_frames_polled,
                    a.rx_polls - b.rx_polls),
              "count");
  result->Set("net.irqs_per_frame",
              ratio(a.rx_irqs - b.rx_irqs,
                    a.rx_frames_polled - b.rx_frames_polled),
              "count");
  result->Set("net.tx_frames_per_req", ratio(a.tx_frames - b.tx_frames, ops),
              "count");
  result->Set("net.rx_queue_drops",
              static_cast<double>(a.rx_queue_drops - b.rx_queue_drops), "count");
  result->Set("net.rx_violations",
              static_cast<double>(a.rx_violations - b.rx_violations), "count");
  result->Set("kernel.evq_events_per_wait",
              ratio(events_ - wbefore_[1], waits_ - wbefore_[0]), "count");
  result->Set("kernel.recv_eagain_ratio",
              ratio(eagains_ - wbefore_[3], recvs_ - wbefore_[2]), "ratio");
  // Integrity: every connection is still held and nothing was dropped.
  if (a.conns_accepted != kConns || accepted_ != kConns) {
    result->Broken("not all 10,000 connections are held");
  }
  if (a.rx_queue_drops != b.rx_queue_drops) {
    result->Broken("rx queue dropped frames");
  }
}

}  // namespace

RunResult RunHttpC10k(const Options& options) {
  const Plan plan = MakePlan(options.seed);
  WorkloadSpec spec;
  spec.chunk = 2048;
  spec.replay_modes = {KernelMode::kNative, KernelMode::kSvaGcc,
                       KernelMode::kSvaLlvm, KernelMode::kSvaSafe};
  spec.breakdown = [](RunResult* result, const std::vector<double>& ns,
                      double safe_ns) {
    ReportBreakdown(result, ns.data(), safe_ns);
  };
  spec.digest = [&](uint64_t ops) {
    uint64_t h = kFnvBasis;
    for (uint64_t i = 0; i < ops; ++i) {
      h = Fnv(Fnv(Fnv(h, static_cast<uint64_t>(Conn(options.seed, i))),
                  static_cast<uint64_t>(ResponseKind(options.seed, i))),
              IsCanary(options.seed, i));
    }
    return h;
  };
  return RunWorkload(options, spec, [&]() -> std::unique_ptr<ReplayTarget> {
    return std::make_unique<C10k>(plan, options.disarm_canary);
  });
}

}  // namespace svabench
