// Load generator of the benchmark driver: open-loop and closed-loop read
// traffic and a closed-loop writer, each over its own loopback
// connections through the reference wire client (net::Client).
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "measure.h"
#include "net/client.h"

namespace perfbench {

enum class Op { kQuery, kAsk, kAddPost };

inline const char* op_name(Op op) {
  switch (op) {
    case Op::kQuery: return "query";
    case Op::kAsk: return "ask";
    case Op::kAddPost: return "add_post";
  }
  return "?";
}

/// One read request of a generated stream. `arg` is the doc id of a QUERY
/// or the index of an ASK text; `due_s` the offset of its send time from
/// the phase start (open loop only).
struct Request {
  Op op = Op::kQuery;
  uint32_t arg = 0;
  double due_s = 0.0;
};

/// What happened to one request.
struct Outcome {
  bool attempted = false;
  bool ok = false;
  std::string refused;        ///< rejection reason when the server refused
  double latency_ms = 0.0;    ///< from due time (open loop) or send time
  double lag_ms = 0.0;        ///< how late the generator sent it
  bool traced = false;
};

/// Maps a server ERROR to its ibseg_net_rejected_total reason, or "" when
/// the error is not a refusal (the request then counts as failed).
inline std::string refusal_reason(ibseg::net::ErrCode code) {
  using ibseg::net::ErrCode;
  switch (code) {
    case ErrCode::kOverloaded: return "overloaded";
    case ErrCode::kDraining: return "draining";
    case ErrCode::kTimeout: return "timeout";
    case ErrCode::kBadRequest: return "bad_request";
    case ErrCode::kUnknownTenant: return "unknown_tenant";
    default: return "";
  }
}

class Loadgen {
 public:
  /// Span request ids of this generator start above `request_base`.
  Loadgen(uint16_t port, const std::vector<std::string>& ask_texts,
          SpanRecorder& spans, uint64_t request_base = 0)
      : port_(port), ask_texts_(ask_texts), spans_(spans),
        request_base_(request_base) {}

  /// Sends `schedule` on its due times over `conns` connections. Stops
  /// sending once `stop` reads true (requests not yet sent are not
  /// attempted). With tracing on, every even request gets a wire span and
  /// odd ones none, so one run compares traced with untraced latency.
  std::vector<Outcome> open_loop(const std::vector<Request>& schedule,
                                 int conns, const std::atomic<bool>* stop,
                                 bool* transport_ok) {
    std::vector<Outcome> out(schedule.size());
    std::atomic<size_t> next{0};
    std::atomic<bool> ok{true};
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);
    run_threads(conns, [&](ibseg::net::Client& client) {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= schedule.size()) return;
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(schedule[i].due_s));
        std::this_thread::sleep_until(due);
        if (stop != nullptr && stop->load()) return;
        Outcome& o = out[i];
        o.traced = spans_.enabled() && i % 2 == 0;
        const Clock::time_point sent = Clock::now();
        if (!send(client, schedule[i], &o)) ok = false;
        const Clock::time_point done = Clock::now();
        o.lag_ms = ms_between(due, sent);
        o.latency_ms = ms_between(due, done);
        if (o.traced) {
          spans_.record(std::string("wire.") + op_name(schedule[i].op), 0,
                        request_base_ + i + 1, sent, done);
        }
      }
    }, &ok);
    *transport_ok = ok.load();
    return out;
  }

  struct ClosedResult {
    uint64_t completed = 0;  ///< succeeded within the window
    double seconds = 0.0;    ///< the window's length
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool transport_ok = true;
  };

  /// `conns` callers each send their next request when the previous one
  /// completes, cycling through `mix`, for `seconds`. Requests completing
  /// after the window closes are attempted but not counted as completed.
  ClosedResult closed_loop(const std::vector<Request>& mix, int conns,
                           double seconds) {
    std::atomic<uint64_t> done{0}, attempted{0}, failed{0};
    std::atomic<int> thread_index{0};
    std::atomic<bool> ok{true};
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);
    run_threads(conns, [&](ibseg::net::Client& client) {
      const int c = thread_index.fetch_add(1);
      std::this_thread::sleep_until(start);
      const size_t step = static_cast<size_t>(conns);
      for (size_t i = static_cast<size_t>(c);; i += step) {
        Outcome o;
        ++attempted;
        if (!send(client, mix[i % mix.size()], &o)) ok = false;
        if (!o.ok) ++failed;
        if (seconds_since(start) >= seconds) return;
        if (o.ok) ++done;
      }
    }, &ok);
    ClosedResult r;
    r.completed = done.load();
    r.seconds = seconds;
    r.attempted = attempted.load();
    r.failed = failed.load();
    r.transport_ok = ok.load();
    return r;
  }

  struct WriterResult {
    std::vector<Outcome> outcomes;
    std::vector<ibseg::DocId> acked;
    double seconds = 0.0;
    bool transport_ok = true;
  };

  /// One connection sends ADD_POST for each text, closed loop.
  WriterResult writer(const std::vector<std::string>& texts) {
    WriterResult r;
    r.outcomes.resize(texts.size());
    std::atomic<bool> ok{true};
    const Clock::time_point start = Clock::now();
    run_threads(1, [&](ibseg::net::Client& client) {
      for (size_t i = 0; i < texts.size(); ++i) {
        Outcome& o = r.outcomes[i];
        o.attempted = true;
        const Clock::time_point sent = Clock::now();
        ibseg::DocId id = 0;
        const ibseg::net::CallResult res = client.add_post(texts[i], &id);
        const Clock::time_point done = Clock::now();
        o.latency_ms = ms_between(sent, done);
        classify(res, &o);
        if (!res.transport_ok) ok = false;
        if (o.ok) r.acked.push_back(id);
        if (spans_.enabled()) {
          spans_.record("wire.add_post", 0,
                        request_base_ + (1ull << 31) + i + 1, sent, done);
        }
      }
    }, &ok);
    r.seconds = seconds_since(start);
    r.transport_ok = ok.load();
    return r;
  }

 private:
  template <typename Body>
  void run_threads(int n, Body body, std::atomic<bool>* ok) {
    std::vector<std::unique_ptr<ibseg::net::Client>> clients;
    for (int c = 0; c < n; ++c) {
      clients.push_back(ibseg::net::Client::connect("127.0.0.1", port_, 30.0));
      if (clients.back() == nullptr) {
        *ok = false;
        return;
      }
    }
    std::vector<std::thread> threads;
    for (int c = 0; c < n; ++c) {
      threads.emplace_back([&, c] { body(*clients[static_cast<size_t>(c)]); });
    }
    for (std::thread& t : threads) t.join();
  }

  static void classify(const ibseg::net::CallResult& res, Outcome* o) {
    o->ok = res.ok();
    if (!o->ok && res.transport_ok) o->refused = refusal_reason(res.error.code);
  }

  bool send(ibseg::net::Client& client, const Request& req, Outcome* o) {
    o->attempted = true;
    ibseg::net::RelatedResponse resp;
    const ibseg::net::CallResult res =
        req.op == Op::kQuery ? client.query(req.arg, 10, &resp)
                             : client.ask(ask_texts_[req.arg], 10, &resp);
    classify(res, o);
    return res.transport_ok;
  }

  uint16_t port_;
  const std::vector<std::string>& ask_texts_;
  SpanRecorder& spans_;
  uint64_t request_base_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
