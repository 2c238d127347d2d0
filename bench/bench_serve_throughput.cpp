// Serving throughput: closed-loop multi-threaded clients against the
// in-process estimation service, sweeping micro-batching off vs on and the
// client count, for one model per inference family (FCN flat MLP, MSCN
// set-based, LW-XGB GBDT).
//
// Each client thread is a plain std::thread (never a pool task — the flush
// fans out on the pool inside the kernels) that round-robins pre-rendered
// SQL strings through EstimationService::EstimateSql, so every request pays
// the full serve path: parse -> route -> coalesce -> vectorized flush. The
// headline quantity is the batched-over-unbatched QPS ratio at 4 clients,
// which should reach >= 3x for FCN or MSCN.
//
// Only NN models over the service's inline limit (1 MiB of parameters) are
// batched, which the default served size (hidden 1024) is. LW-XGB is
// answered inline on the client's thread in both arms at any size: its off
// and on arms are the same path, its batch_speedup_x is ~1 by
// construction, and its mean_batch is exactly 1 (CI asserts that as proof
// the inline route is taken).
//
// Published gauges (into BENCH_manifest_serve_throughput.json, gated by
// tools/bench_diff --watch qps --watch p99):
//   serve.<model>.c<N>.<off|on>.inv_qps            us per request  (watched)
//   serve.<model>.c<N>.<off|on>.throughput_rps     requests/s      (report)
//   serve.<model>.c<N>.<off|on>.lat_p{50,95,99}_micros  (p99 watched)
//   serve.<model>.c<N>.<off|on>.mean_batch
//   serve.<model>.c<N>.<off|on>.queue_wait_mean_micros
//   serve.<model>.c4.batch_speedup_x               on/off QPS ratio
//
// Env knobs: LCE_SERVE_BENCH_SECONDS (per-config duration, default 1),
// LCE_SERVE_BENCH_CLIENTS (comma list, default "1,4,16"),
// LCE_SERVE_BENCH_HIDDEN / LCE_SERVE_BENCH_LAYERS / LCE_SERVE_BENCH_EPOCHS
// (served model size), plus the usual LCE_BENCH_* sizing and LCE_SERVE_*
// batching knobs for the "on" arm (batched models only).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/serve/service.h"
#include "src/util/stats.h"

namespace lce {
namespace bench {
namespace {

double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::atof(v) : fallback;
}

std::vector<int> ClientCounts() {
  std::vector<int> counts;
  const char* v = std::getenv("LCE_SERVE_BENCH_CLIENTS");
  std::string spec = (v != nullptr && *v != '\0') ? v : "1,4,16";
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    int n = std::atoi(spec.substr(pos, comma - pos).c_str());
    if (n > 0) counts.push_back(n);
    pos = comma + 1;
  }
  if (counts.empty()) counts = {1, 4, 16};
  return counts;
}

/// Serving-realistic model size. The study's accuracy benches train small
/// nets (hidden 48) whose single-query forward costs a few microseconds —
/// there, coalescing overhead would drown the kernel win. Serving targets
/// production-sized models whose per-layer weights exceed L2, so a
/// single-row forward is bound by streaming the weight matrices and a
/// 4-row panel amortizes that traffic nearly 4x; depth multiplies the
/// amortizable work relative to the fixed per-flush coordination cost.
/// Epochs stay low because throughput, not accuracy, is measured here. All
/// three are env knobs so CI can shrink the build cost.
ce::NeuralOptions ServeNeuralOptions() {
  ce::NeuralOptions o;
  o.hidden_dim = static_cast<int>(EnvDouble("LCE_SERVE_BENCH_HIDDEN", 1024));
  o.num_hidden_layers =
      static_cast<int>(EnvDouble("LCE_SERVE_BENCH_LAYERS", 3));
  o.epochs = static_cast<int>(EnvDouble("LCE_SERVE_BENCH_EPOCHS", 2));
  return o;
}

std::string GaugeModelName(const std::string& model) {
  std::string out;
  for (char c : model) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c))
                      ? static_cast<char>(std::tolower(
                            static_cast<unsigned char>(c)))
                      : '_');
  }
  return out;
}

struct ConfigResult {
  double qps = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0;
  double mean_batch = 0;
  double mean_queue_wait_us = 0;
  uint64_t requests = 0;
};

/// One closed-loop measurement: `clients` threads hammer `model` through
/// `service` for ~`seconds`, each recording per-request latency and the
/// serving context off the response.
ConfigResult RunConfig(serve::EstimationService* service,
                       const std::string& model,
                       const std::vector<std::string>& sqls, int clients,
                       double seconds) {
  struct ClientStats {
    std::vector<double> latency_us;
    double batch_sum = 0;
    double wait_sum_us = 0;
    uint64_t requests = 0;
  };
  std::vector<ClientStats> stats(static_cast<size_t>(clients));
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};

  // Warm-up outside the timed window: faults SQL strings and model state in.
  for (size_t i = 0; i < 4 && i < sqls.size(); ++i) {
    auto resp = service->EstimateSql(model, sqls[i]);
    LCE_CHECK_MSG(resp.ok(), "warm-up: " << resp.status().ToString());
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientStats& my = stats[static_cast<size_t>(c)];
      // Stagger starting offsets so concurrent clients request a mix of
      // query shapes in every flush.
      size_t i = static_cast<size_t>(c) * 17 % sqls.size();
      while (!stop.load(std::memory_order_relaxed)) {
        const auto q0 = std::chrono::steady_clock::now();
        auto resp = service->EstimateSql(model, sqls[i]);
        const auto q1 = std::chrono::steady_clock::now();
        if (!resp.ok()) {
          failed.store(true);
          return;
        }
        my.latency_us.push_back(
            std::chrono::duration<double, std::micro>(q1 - q0).count());
        my.batch_sum += resp.value().batch_size;
        my.wait_sum_us += resp.value().queue_wait_us;
        ++my.requests;
        i = (i + 1) % sqls.size();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  LCE_CHECK_MSG(!failed.load(), "a serve client got an error response");

  ConfigResult r;
  std::vector<double> latencies;
  double batch_sum = 0, wait_sum = 0;
  for (const ClientStats& s : stats) {
    r.requests += s.requests;
    batch_sum += s.batch_sum;
    wait_sum += s.wait_sum_us;
    latencies.insert(latencies.end(), s.latency_us.begin(),
                     s.latency_us.end());
  }
  LCE_CHECK(r.requests > 0);
  r.qps = static_cast<double>(r.requests) / elapsed;
  SampleSummary lat = Summarize(latencies);
  r.p50_us = lat.p50;
  r.p95_us = lat.p95;
  r.p99_us = lat.p99;
  r.mean_batch = batch_sum / static_cast<double>(r.requests);
  r.mean_queue_wait_us = wait_sum / static_cast<double>(r.requests);
  return r;
}

void PublishGauges(const std::string& model, int clients, bool batching,
                   const ConfigResult& r) {
  auto& reg = telemetry::MetricsRegistry::Global();
  const std::string prefix = "serve." + GaugeModelName(model) + ".c" +
                             std::to_string(clients) + "." +
                             (batching ? "on" : "off") + ".";
  // SetAlways: these gauges are the bench's output and must reach the
  // manifest whether or not LCE_METRICS is on. inv_qps (us/request) is the
  // watched, higher-is-worse form of throughput.
  reg.gauge(prefix + "inv_qps").SetAlways(r.qps > 0 ? 1e6 / r.qps : 0.0);
  reg.gauge(prefix + "throughput_rps").SetAlways(r.qps);
  reg.gauge(prefix + "lat_p50_micros").SetAlways(r.p50_us);
  reg.gauge(prefix + "lat_p95_micros").SetAlways(r.p95_us);
  reg.gauge(prefix + "lat_p99_micros").SetAlways(r.p99_us);
  reg.gauge(prefix + "mean_batch").SetAlways(r.mean_batch);
  reg.gauge(prefix + "queue_wait_mean_micros")
      .SetAlways(r.mean_queue_wait_us);
}

}  // namespace
}  // namespace bench
}  // namespace lce

int main() {
  using namespace lce;
  using namespace lce::bench;

  BenchRun run("serve_throughput");
  PrintHeader("serve_throughput",
              "cross-request micro-batching over the SIMD kernel layer",
              "batched serving >= 3x QPS over batch-size-1 at 4 clients "
              "(FCN/MSCN)");

  BenchConfig cfg = BenchConfig::FromEnv();
  const double seconds = EnvDouble("LCE_SERVE_BENCH_SECONDS", 1.0);
  const std::vector<int> client_counts = ClientCounts();

  BenchDb bench = MakeBenchDb(storage::datagen::TpchLikeSpec(cfg.scale), cfg);

  // The request stream: the test workload rendered to SQL, so every request
  // exercises the hardened parser exactly as an external client would.
  std::vector<std::string> sqls;
  sqls.reserve(bench.test.size());
  for (const auto& lq : bench.test) {
    sqls.push_back(query::ToSql(lq.q, bench.db->schema()));
  }
  LCE_CHECK(!sqls.empty());

  // One model per inference family. Built once, shared by both sweep arms —
  // inference mutates only scratch state, serialized by the service.
  const std::vector<std::string> models = {"FCN", "MSCN", "LW-XGB"};
  std::vector<std::shared_ptr<ce::Estimator>> built;
  for (const std::string& name : models) {
    telemetry::PhaseScope scope(name);
    std::shared_ptr<ce::Estimator> est =
        ce::MakeEstimator(name, ServeNeuralOptions(), cfg.seed);
    Timer timer;
    LCE_CHECK_OK(est->Build(*bench.db, bench.train));
    LCE_LOG(INFO) << name << " built in " << timer.ElapsedSeconds() << "s";
    built.push_back(std::move(est));
  }

  serve::BatcherOptions batch_on = serve::BatcherOptions::FromEnv();
  batch_on.enabled = true;
  serve::BatcherOptions batch_off;
  batch_off.enabled = false;

  TablePrinter table({"model", "clients", "batching", "qps", "p50_us",
                      "p95_us", "p99_us", "mean_batch", "wait_us"});
  for (size_t m = 0; m < models.size(); ++m) {
    double qps_on_4 = 0, qps_off_4 = 0;
    for (int clients : client_counts) {
      for (bool batching : {false, true}) {
        // A fresh service per arm keeps batcher state and registry version
        // counters independent across configs.
        serve::EstimationService service(
            bench.db.get(), batching ? batch_on : batch_off);
        service.RegisterModel(models[m], built[m]);
        ConfigResult r =
            RunConfig(&service, models[m], sqls, clients, seconds);
        PublishGauges(models[m], clients, batching, r);
        table.AddRow({models[m], std::to_string(clients),
                      batching ? "on" : "off", TablePrinter::Fixed(r.qps, 0),
                      TablePrinter::Fixed(r.p50_us, 1),
                      TablePrinter::Fixed(r.p95_us, 1),
                      TablePrinter::Fixed(r.p99_us, 1),
                      TablePrinter::Fixed(r.mean_batch, 2),
                      TablePrinter::Fixed(r.mean_queue_wait_us, 1)});
        if (clients == 4) {
          (batching ? qps_on_4 : qps_off_4) = r.qps;
        }
      }
    }
    if (qps_off_4 > 0) {
      const double speedup = qps_on_4 / qps_off_4;
      telemetry::MetricsRegistry::Global()
          .gauge("serve." + GaugeModelName(models[m]) + ".c4.batch_speedup_x")
          .SetAlways(speedup);
      std::printf("%s: batched/unbatched QPS at 4 clients = %.2fx\n",
                  models[m].c_str(), speedup);
      if (speedup < 3.0 && models[m] != "LW-XGB") {
        LCE_LOG(WARN) << models[m] << ": batch speedup " << speedup
                      << "x below the 3x acceptance target";
      }
    }
  }
  table.Print();
  return 0;
}
