// decode_serve: 16 sequences, each a closed-loop client whose next token
// is submitted only after its previous one resolves, spread over 2
// submitter threads and sent through Server::submit_decode (default
// ServerOptions except a 1-thread engine and one shard). Every sequence
// is freed and begun again each 128 tokens, so KV page writes and
// recycling happen next to the reads. The serve layer's batching and
// bypass logic and small-m projections dominate; attention costs little.
#include <algorithm>
#include <deque>
#include <future>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "serve/server.hpp"
#include "workloads/generators.hpp"

namespace perfbench {

using namespace nmspmm;

namespace {

using G = DecodeGeometry;
constexpr index_t kClients = 16;
constexpr int kThreads = 2;
constexpr index_t kLife = 128;  ///< tokens per sequence before it restarts
constexpr index_t kPool = 256;  ///< generated token rows the clients cycle
constexpr int kSetups = 15;
constexpr std::uint64_t kWarmId = 1000;
constexpr std::uint64_t kReplayId = 1001;
/// The checked client: its first sequence's served outputs are replayed
/// through DecoderPlan::decode directly after the run.
constexpr index_t kChecked = 0;

/// Generated input row of client @p c's @p n-th token.
index_t input_row(index_t c, std::uint64_t n) {
  return static_cast<index_t>((static_cast<std::uint64_t>(c) * 37 + n) %
                              kPool);
}

struct Client {
  std::uint64_t id = 0;
  std::uint64_t tokens = 0;  ///< resolved so far
  index_t life = 0;          ///< tokens of the current sequence
  MatrixF out{1, G::kHidden};
  std::future<Status> result;
  std::int64_t submitted_ns = 0;
};

/// What one submitter thread saw.
struct ThreadResult {
  std::vector<double> latency_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t tokens = 0;
};

}  // namespace

void run_decode_serve(const Args& args, Report& report, SpanLog* log) {
  Rng rng(args.seed);
  const model::DecoderLayer layer = make_decoder_layer(rng);
  const MatrixF pool = random_matrix(kPool, G::kHidden, rng);
  // Every client's sequence plus the warm-up / replay sequence.
  const attn::KvCacheOptions kv_opt = G::kv_options((kClients + 1) * kLife);
  ServerOptions server_opt;
  server_opt.engine.num_threads = 1;
  server_opt.num_shards = 1;

  // Set-up: server, plan_decoder on its engine, one warm-up request.
  // Repeated; median.
  std::unique_ptr<Server> server;
  std::shared_ptr<model::DecoderPlan> plan;
  std::vector<double> setup_s, build_ms;
  Engine::CacheStats setup_cache;
  MatrixF warm_out(1, G::kHidden);
  for (int i = 0; i < kSetups; ++i) {
    plan.reset();
    server.reset();
    const std::int64_t t0 = now_ns();
    server = std::make_unique<Server>(server_opt);
    const std::int64_t t1 = now_ns();
    auto plan_or = server->engine().plan_decoder(kClients, layer, kv_opt);
    const std::int64_t t2 = now_ns();
    if (!plan_or.ok()) {
      report.check_failed("plan_decoder: " + plan_or.status().to_string());
      return;
    }
    plan = *plan_or;
    Status st = plan->begin_sequence(kWarmId);
    if (st.ok()) {
      st = server
               ->submit_decode(kWarmId, pool.cview().block(0, 0, 1, G::kHidden),
                               plan, warm_out.view())
               .get();
    }
    if (st.ok()) st = plan->free_sequence(kWarmId);
    const std::int64_t t3 = now_ns();
    if (!st.ok()) {
      report.check_failed("serve set-up: " + st.to_string());
      return;
    }
    setup_s.push_back(static_cast<double>(t3 - t0) * 1e-9);
    build_ms.push_back(ms_between(t1, t2));
    setup_cache = server->engine().cache_stats();
  }

  std::vector<Client> clients(kClients);
  for (index_t c = 0; c < kClients; ++c) {
    clients[static_cast<std::size_t>(c)].id = static_cast<std::uint64_t>(c + 1);
  }
  MatrixF checked_out(kLife, G::kHidden);
  index_t checked_tokens = 0;

  // One closed-loop submitter thread. Its clients take turns: a client
  // whose token resolved goes to the back of the submit queue. A request
  // already resolved when submit_decode returns (served on the submitting
  // thread) is timed at that return; the others when this thread finds
  // them ready, blocking on the oldest only when no client can submit.
  bool record_check = true;  // only the first phase's first sequence
  const auto submitter = [&](int t, std::int64_t deadline, SpanLog* spans_log,
                             ThreadResult& res) {
    SpanBuffer* spans = spans_log ? spans_log->thread_buffer() : nullptr;
    std::deque<Client*> to_submit, pending;
    const auto resolve = [&](Client& cl, std::int64_t now) {
      const Status st = cl.result.get();
      ++res.attempted;
      if (spans != nullptr) {
        spans->record("request", cl.submitted_ns, now, cl.tokens);
      }
      if (!st.ok()) {
        ++res.failed;
        res.latency_ms.push_back(kFailedLatency);
      } else {
        ++res.tokens;
        res.latency_ms.push_back(ms_between(cl.submitted_ns, now));
        if (record_check && cl.id == kChecked + 1 && checked_tokens < kLife) {
          std::copy_n(cl.out.row(0), G::kHidden,
                      checked_out.row(checked_tokens++));
        }
      }
      ++cl.tokens;
      if (++cl.life == kLife) {
        cl.life = 0;
        ++res.attempted;
        if (!plan->free_sequence(cl.id).ok() ||
            !plan->begin_sequence(cl.id).ok()) {
          ++res.failed;
        }
      }
      if (now < deadline) to_submit.push_back(&cl);
    };
    const auto ready = [](const Client& cl) {
      return cl.result.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
    };
    for (index_t c = t; c < kClients; c += kThreads) {
      Client& cl = clients[static_cast<std::size_t>(c)];
      ++res.attempted;
      if (plan->begin_sequence(cl.id).ok()) {
        to_submit.push_back(&cl);
      } else {
        ++res.failed;
      }
    }
    while (!to_submit.empty() || !pending.empty()) {
      if (to_submit.empty()) pending.front()->result.wait();
      for (auto it = pending.begin(); it != pending.end();) {
        if (ready(**it)) {
          Client& cl = **it;
          it = pending.erase(it);
          resolve(cl, now_ns());
        } else {
          ++it;
        }
      }
      if (to_submit.empty()) continue;
      Client& cl = *to_submit.front();
      to_submit.pop_front();
      const index_t row = input_row(static_cast<index_t>(cl.id - 1), cl.tokens);
      cl.submitted_ns = now_ns();
      {
        Scope span(spans, "Server::submit_decode", cl.tokens);
        cl.result = server->submit_decode(
            cl.id, pool.cview().block(row, 0, 1, G::kHidden), plan,
            cl.out.view());
      }
      if (ready(cl)) {
        resolve(cl, now_ns());
      } else {
        pending.push_back(&cl);
      }
    }
    for (index_t c = t; c < kClients; c += kThreads) {
      Client& cl = clients[static_cast<std::size_t>(c)];
      if (plan->has_sequence(cl.id) && !plan->free_sequence(cl.id).ok()) {
        ++res.attempted;
        ++res.failed;
      }
      cl.life = 0;
    }
  };

  // One measured window: every client begins a sequence, the submitters
  // run until the deadline and drain, and the sequences are freed.
  std::uint64_t attempted = 0, failed = 0;
  const auto window = [&](double seconds, SpanLog* spans_log) {
    ThreadResult results[kThreads];
    const std::int64_t start = now_ns();
    const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    {
      std::vector<std::jthread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back(submitter, t, deadline, spans_log,
                             std::ref(results[t]));
      }
    }
    const std::int64_t end = now_ns();
    Window w;
    std::uint64_t tokens = 0;
    for (const ThreadResult& r : results) {
      w.latency_ms.insert(w.latency_ms.end(), r.latency_ms.begin(),
                          r.latency_ms.end());
      attempted += r.attempted;
      failed += r.failed;
      tokens += r.tokens;
    }
    w.tokens_per_s = static_cast<double>(tokens) /
                     (static_cast<double>(end - start) * 1e-9);
    record_check = false;
    return w;
  };

  std::vector<Window> windows;
  if (log == nullptr) {
    for (int i = 0; i < kWindows; ++i) {
      windows.push_back(window(args.seconds / kWindows, nullptr));
    }
  } else {
    windows.push_back(window(args.seconds / 2, nullptr));
    windows.push_back(window(args.seconds / 2, log));
    report.add("trace.overhead_frac",
               1.0 - windows[1].tokens_per_s / windows[0].tokens_per_s,
               "frac");
  }
  const model::DecoderPlan::Stats stats = plan->stats();
  add_end_to_end(report, windows, setup_s,
                 static_cast<double>(stats.resident_bytes()) / 1e6, attempted,
                 failed);

  // Correctness, outside the timed region: the checked client's first
  // sequence as served in the first window (up to kLife tokens from an
  // empty context), against a direct DecoderPlan::decode replay of the
  // same token stream, bit for bit.
  Status st = plan->begin_sequence(kReplayId);
  index_t mismatch = -1;
  MatrixF direct(1, G::kHidden);
  if (args.corrupt && checked_tokens > 0) {
    flip_low_bit(checked_out(checked_tokens - 1, 0));
  }
  for (index_t n = 0; n < checked_tokens && st.ok(); ++n) {
    const std::uint64_t id = kReplayId;
    const index_t row = input_row(kChecked, static_cast<std::uint64_t>(n));
    Status row_status;
    st = plan->decode(pool.cview().block(row, 0, 1, G::kHidden), &id,
                      direct.view(), &row_status);
    if (st.ok()) st = row_status;
    if (st.ok() && mismatch < 0 &&
        !bit_equal(direct.cview(),
                   checked_out.cview().block(n, 0, 1, G::kHidden))) {
      mismatch = n;
    }
  }
  if (st.ok()) st = plan->free_sequence(kReplayId);
  std::ostringstream check;
  check << "check: " << checked_tokens << " served tokens of sequence "
        << kChecked + 1 << " vs direct DecoderPlan::decode replay, bit-exact";
  report.note(check.str());
  if (!st.ok()) {
    report.check_failed("serve replay: " + st.to_string());
  } else if (checked_tokens == 0) {
    report.check_failed("the checked sequence served no token");
  } else if (mismatch >= 0) {
    report.check_failed("served output differs from direct decode at token " +
                        std::to_string(mismatch));
  }

  // The serve layer, from the aggregate Server::stats() only.
  const Server::Stats s = server->stats();
  const Server::GroupStats& totals = s.totals;
  // A bypassed request is served as a 1-row batch of its own.
  const std::uint64_t batches = totals.batches + totals.bypassed;
  report.add("serve.rows_per_batch",
             batches > 0 ? static_cast<double>(totals.rows) /
                               static_cast<double>(batches)
                         : 0.0,
             "rows");
  report.add("serve.bypass_frac",
             totals.requests > 0 ? static_cast<double>(totals.bypassed) /
                                       static_cast<double>(totals.requests)
                                 : 0.0,
             "frac");
  const auto p50_us = [&](serve::Stage stage) {
    return static_cast<double>(
        s.latency.stage(serve::RequestClass::kDecode, stage).p50());
  };
  report.add("serve.queue_us_p50", p50_us(serve::Stage::kQueue), "us");
  report.add("serve.gather_us_p50", p50_us(serve::Stage::kGather), "us");
  report.add("serve.execute_us_p50", p50_us(serve::Stage::kExecute), "us");
  report.add("serve.ring_stalls", static_cast<double>(s.ring_stalls), "count");

  const model::DecoderPlan::Stats end = plan->stats();
  add_kv_recycling(report, end.kv);
  add_plan_metrics(report, setup_cache, build_ms,
                   end.packed_bytes + end.ffn.packed_bytes,
                   end.ffn.store.repacks);
}

}  // namespace perfbench
