// perfbench driver: runs one workload of the exchange-stack benchmark and
// writes one JSON record of raw observations for run.py to turn into
// metrics.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    [--trace 0|1] --out <record.json>
//
// Scratch files go to .bench_out/ under the working directory.
//
// Workloads (see README.md for why each exists):
//   exchange-cold  4 closed-loop clients, every request a distinct sequence
//   exchange-hot   4 closed-loop clients over 24 sequences, 10 % drop faults
//   grid           the paper's cold experiment grid, one oracle call at a
//                  time, plus CHAID/CART fits
//   stream-file    file-to-file streaming compress + decompress with dnax
//
// The driver calls only the public APIs of the library layers. With
// --trace 1 it also records spans around those calls (in memory, written
// into the record at exit); the library itself is not instrumented by this
// program. Inputs derive from --seed alone.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cloud/blob_store.h"
#include "cloud/vm.h"
#include "compressors/compressor.h"
#include "compressors/container.h"
#include "compressors/gzipx/lz77.h"
#include "core/experiment.h"
#include "core/framework.h"
#include "core/labeling.h"
#include "core/measurement.h"
#include "core/training.h"
#include "exchange/service.h"
#include "sequence/corpus.h"
#include "sequence/generator.h"
#include "stream/streaming.h"
#include "util/crc32.h"
#include "util/json.h"
#include "util/memory_tracker.h"
#include "util/random.h"
#include "util/thread_pool.h"

using namespace dnacomp;
using util::JsonValue;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch)
      .count();
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ------------------------------------------------------------------ args

// Set-ups per run; run.py reports their median as setup_s.
constexpr int kSetups = 3;
const char* const kWorkDir = ".bench_out";

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--out") {
      a.out = v;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.out.empty()) {
    throw std::runtime_error("--workload and --out are required");
  }
  return a;
}

// --------------------------------------------------------------- memory

// Resets the kernel's resident-set high-water mark so VmHWM covers only
// what follows (Linux clear_refs "5"). Returns false where unsupported.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f.good()) return false;
  f << "5";
  return f.good();
}

// Share of CPU time the hypervisor took from this machine between two
// /proc/stat snapshots (the "steal" column; 0 on bare metal).
std::vector<double> cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  std::vector<double> t;
  double v = 0;
  while (t.size() < 8 && f >> v) t.push_back(v);
  return t;
}

double steal_share(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() < 8 || b.size() < 8) return 0.0;
  double total = 0;
  for (std::size_t i = 0; i < 8; ++i) total += b[i] - a[i];
  return total > 0 ? (b[7] - a[7]) / total : 0.0;
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------- spans

// A span is one timed call into a layer, recorded from this program.
// Spans of one exchange request share `rid`; `parent` links the tree.
struct Span {
  std::string name;
  std::string cat;  // layer: exchange, ml, core, compressors, ...
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t rid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint64_t tid = 0;
  JsonValue args = JsonValue::object();
};

std::uint64_t thread_index() {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t index = next.fetch_add(1);
  return index;
}

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  bool on() const noexcept { return on_; }
  std::uint64_t new_id() noexcept { return ids_.fetch_add(1) + 1; }
  void add(Span s) {
    if (!on_) return;
    std::lock_guard lk(mu_);
    spans_.push_back(std::move(s));
  }
  JsonValue to_json() const {
    auto arr = JsonValue::array();
    std::lock_guard lk(mu_);
    for (const auto& s : spans_) {
      auto o = JsonValue::object();
      o.set("name", s.name);
      o.set("cat", s.cat);
      o.set("id", static_cast<double>(s.id));
      o.set("parent", static_cast<double>(s.parent));
      o.set("rid", static_cast<double>(s.rid));
      o.set("ts_us", s.ts_us);
      o.set("dur_us", s.dur_us);
      o.set("tid", static_cast<double>(s.tid));
      o.set("args", s.args);
      arr.push(std::move(o));
    }
    return arr;
  }

 private:
  bool on_;
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Innermost open span on this thread; codec decorators parent to it.
thread_local std::uint64_t t_open_span = 0;

// Times a scope as one span. Costs two clock reads when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string cat, std::string name,
             std::uint64_t parent = t_open_span)
      : log_(&log), prev_open_(t_open_span) {
    span_.cat = std::move(cat);
    span_.name = std::move(name);
    span_.parent = parent;
    span_.id = log.on() ? log.new_id() : 0;
    span_.tid = thread_index();
    if (log.on()) t_open_span = span_.id;
    span_.ts_us = now_us();
  }
  ~ScopedSpan() {
    span_.dur_us = now_us() - span_.ts_us;
    t_open_span = prev_open_;
    log_->add(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double elapsed_ms() const { return (now_us() - span_.ts_us) / 1000.0; }
  std::uint64_t id() const noexcept { return span_.id; }
  JsonValue& args() { return span_.args; }

 private:
  SpanLog* log_;
  std::uint64_t prev_open_;
  Span span_;
};

// Codec decorator: forwards to the registry codec and records one span per
// compress/decompress call, parented to the caller's open span.
class TimedCompressor final : public compressors::Compressor {
 public:
  TimedCompressor(std::unique_ptr<compressors::Compressor> inner,
                  SpanLog& log)
      : inner_(std::move(inner)), log_(&log) {}
  compressors::AlgorithmId id() const noexcept override {
    return inner_->id();
  }
  std::string_view family() const noexcept override {
    return inner_->family();
  }
  std::vector<std::uint8_t> compress(
      std::span<const std::uint8_t> input,
      util::TrackingResource* mem = nullptr) const override {
    ScopedSpan s(*log_, "compressors", std::string(name()) + ".compress");
    auto out = inner_->compress(input, mem);
    note(s, input.size(), out.size());
    return out;
  }
  std::vector<std::uint8_t> decompress(
      std::span<const std::uint8_t> input,
      util::TrackingResource* mem = nullptr) const override {
    ScopedSpan s(*log_, "compressors", std::string(name()) + ".decompress");
    auto out = inner_->decompress(input, mem);
    note(s, out.size(), input.size());
    return out;
  }

 private:
  void note(ScopedSpan& s, std::size_t raw, std::size_t packed) const {
    s.args().set("codec", std::string(name()));
    s.args().set("raw_bytes", raw);
    s.args().set("packed_bytes", packed);
  }
  std::unique_ptr<compressors::Compressor> inner_;
  SpanLog* log_;
};

// ------------------------------------------------------------- record

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

// One stretch of the measured phase: a stream-file round trip, a grid pass
// or a slice of exchange traffic. run.py reports the median rate over the
// usable windows (see WindowGate).
struct Window {
  double start_us = 0, end_us = 0;
  double raw_bytes = 0;  // raw bytes round-tripped and verified in it
  double steal = 0;      // share of CPU time the hypervisor took
  double peak_rss_mib = 0;
  bool usable = false;
};

// Raw observations of one measured phase; run.py derives the metrics.
struct Record {
  std::vector<double> setup_s;
  double generate_s = 0.0;        // input generation inside the last set-up
  double measured_s = 0.0;        // wall time of the measured phase
  double wire_bytes = 0;          // compressed bytes stored / written
  double wire_raw_bytes = 0;      // raw bytes behind wire_bytes
  std::vector<Window> windows;
  std::vector<double> latency_ms;  // one sample per operation
  std::vector<double> latency_window;  // its window index, -1 if none
  std::string latency_unit;        // what one latency sample times
  bool peak_rss_reset = false;  // false: window peaks include earlier ones
  double steal_share = 0.0;  // CPU time taken by the hypervisor
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double bytes_checked = -1;  // exact-size quantity, see README.md
  std::map<std::string, double> canary_bytes;
  std::vector<Check> checks;
  std::map<std::string, double> layers;  // per-layer values (see run.py)
  std::map<std::string, std::vector<double>> layer_samples;
};

// Brackets the measured phase; end() records its wall time and the CPU
// steal share over all of it.
struct MeasuredPhase {
  explicit MeasuredPhase(Record& r)
      : rec(&r), ticks(cpu_ticks()), start(Clock::now()) {}
  void end() const {
    rec->measured_s = seconds_since(start);
    rec->steal_share = steal_share(ticks, cpu_ticks());
  }
  Record* rec;
  std::vector<double> ticks;
  Clock::time_point start;
};

// Every run measures until it holds this many latency samples in usable
// windows, so that p95 has at least ten samples beyond it.
constexpr std::size_t kMinSamples = 200;

// This benchmark runs on shared virtual machines. When the hypervisor took
// CPU time from the machine ("steal" in /proc/stat), throughput fell by
// about twice the stolen share, for minutes at a time. So the measured
// phase is cut into windows, and a window with more than kMaxSteal of its
// CPU time stolen is measured again instead of being used. Measuring stops
// once --seconds of usable windows and kMinSamples samples are in, or at
// kMaxMeasureFactor x --seconds; run.py then uses every window and says so.
// Each window also records the process's peak RSS within it.
constexpr double kMaxSteal = 0.02;
constexpr double kMaxMeasureFactor = 1.5;

class WindowGate {
 public:
  WindowGate(Record& rec, double seconds)
      : rec_(&rec), seconds_(seconds), ticks_(cpu_ticks()),
        start_us_(now_us()), open_us_(start_us_) {
    rec.peak_rss_reset = reset_peak_rss();
  }

  // Closes the open window, which verified `raw_bytes` and produced
  // `samples` latency samples, and opens the next. Returns its index.
  std::size_t close(double raw_bytes, std::size_t samples) {
    auto ticks = cpu_ticks();
    Window w;
    w.start_us = open_us_;
    w.end_us = now_us();
    w.raw_bytes = raw_bytes;
    w.steal = steal_share(ticks_, ticks);
    w.peak_rss_mib = peak_rss_mib();
    reset_peak_rss();
    w.usable = w.steal <= kMaxSteal;
    samples_ += samples;
    if (w.usable) {
      usable_s_ += (w.end_us - w.start_us) / 1e6;
      usable_samples_ += samples;
    }
    rec_->windows.push_back(w);
    ticks_ = std::move(ticks);
    open_us_ = w.end_us;
    return rec_->windows.size() - 1;
  }

  bool done() const {
    if (samples_ < kMinSamples) return false;
    return (usable_s_ >= seconds_ && usable_samples_ >= kMinSamples) ||
           (now_us() - start_us_) / 1e6 >= kMaxMeasureFactor * seconds_;
  }

 private:
  Record* rec_;
  double seconds_;
  std::vector<double> ticks_;
  double start_us_, open_us_;
  double usable_s_ = 0;
  std::size_t samples_ = 0, usable_samples_ = 0;
};

void add_sample(Record& r, double ms, std::ptrdiff_t window) {
  r.latency_ms.push_back(ms);
  r.latency_window.push_back(static_cast<double>(window));
}

void check(Record& r, std::string name, bool ok, std::string detail = "") {
  r.checks.push_back({std::move(name), ok, std::move(detail)});
}

// Runs `build` kSetups times, timing each, and keeps the last state.
template <typename T>
std::unique_ptr<T> repeated_setup(
    Record& rec, const std::function<std::unique_ptr<T>()>& build) {
  std::unique_ptr<T> state;
  for (int i = 0; i < kSetups; ++i) {
    state.reset();  // tear the previous set-up down first
    const auto t0 = Clock::now();
    state = build();
    rec.setup_s.push_back(seconds_since(t0));
  }
  return state;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<std::uint8_t> generate_bytes(std::size_t length,
                                         std::uint64_t seed) {
  sequence::GeneratorParams p;
  p.length = length;
  p.seed = seed;
  const std::string s = sequence::generate_dna(p);
  return {s.begin(), s.end()};
}

double crc32_mbps(const std::vector<std::span<const std::uint8_t>>& inputs,
                  SpanLog& log) {
  ScopedSpan s(log, "util", "crc32");
  double bytes = 0;
  std::uint32_t acc = 0;
  for (const auto& in : inputs) {
    acc ^= util::crc32(in);
    bytes += static_cast<double>(in.size());
  }
  s.args().set("crc", static_cast<double>(acc));
  const double ms = s.elapsed_ms();
  return ms > 0 ? bytes / 1e3 / ms : 0.0;
}

// Fixed inputs compressed on every run, whatever the seed, so that a change
// in any codec's output size fails the run (expected values: expected.json).
void run_canary(Record& rec) {
  const auto small = generate_bytes(20'000, 20150101);
  for (const std::string algo : {"ctw", "dnax", "gencompress", "gzip"}) {
    const auto codec = compressors::make_compressor(algo);
    rec.canary_bytes[algo] = static_cast<double>(codec->compress(small).size());
  }
  const auto big = generate_bytes((std::size_t{5} << 18) + 12'345, 20150102);
  const auto dnax = compressors::make_compressor("dnax");
  util::ThreadPool pool(2);
  rec.canary_bytes["dcb.dnax"] = static_cast<double>(
      compressors::compress_blocked(*dnax, big, pool).size());
}

// ============================================================ exchange

constexpr std::size_t kClients = 4;
// Request sizes are log-spaced from 16 KiB to 4 MiB. Cold requests cycle
// through 61 sizes (prime, so sizes and the 32 contexts do not lock step)
// cut from 3 base sequences; hot requests cycle through 24 sequences.
constexpr std::size_t kColdSizes = 61;
constexpr std::size_t kColdBases = 3;
constexpr std::size_t kHotSequences = 24;
constexpr std::size_t kMaxRequestBytes = std::size_t{4} << 20;
constexpr std::size_t kCheckedRequests = 32;  // exact-byte prefix
// Read-back sample: a seeded one in 8 of the first 256 requests.
constexpr std::uint64_t kReadBackEvery = 8;
constexpr std::uint64_t kReadBackWithin = 256;
constexpr double kExchangeWindowS = 2.5;

std::size_t log_spaced_bytes(std::size_t k, std::size_t n) {
  const double t = static_cast<double>(k) / static_cast<double>(n - 1);
  return static_cast<std::size_t>(std::llround(16384.0 * std::pow(256.0, t)));
}

struct ExchangeState {
  bool hot = false;
  std::uint64_t seed = 0;
  std::vector<std::vector<std::uint8_t>> pool;
  std::vector<std::string> algorithms;
  std::vector<cloud::VmSpec> contexts;
  cloud::BlobStore store;
  std::unique_ptr<exchange::ExchangeService> service;
};

// The selector ext_exchange trains: CART on the analytic cost oracle, so
// it is deterministic and its picks (and thus wire bytes) are exact.
std::shared_ptr<ml::Classifier> train_selector(
    std::vector<std::string>* algorithms) {
  core::AnalyticCostOracle oracle;
  core::EngineTrainingOptions opts;
  opts.corpus.synthetic_count = 40;
  opts.corpus.max_size = 262144;
  const auto corpus = sequence::build_corpus(opts.corpus);
  const auto contexts = cloud::context_grid();
  const auto rows =
      core::run_experiments(corpus, contexts, oracle, opts.experiment);
  const auto cells = core::label_cells(rows, opts.experiment.algorithms,
                                       core::WeightSpec::total_time());
  const auto split = sequence::split_corpus(corpus.size());
  const auto tables =
      core::make_tables(cells, opts.experiment.algorithms, split.test);
  auto fit = core::fit_and_evaluate(opts.method, tables);
  *algorithms = opts.experiment.algorithms;
  return std::shared_ptr<ml::Classifier>(std::move(fit.model));
}

std::unique_ptr<ExchangeState> setup_exchange(bool hot, std::uint64_t seed,
                                              Record& rec) {
  auto st = std::make_unique<ExchangeState>();
  st->hot = hot;
  st->seed = seed;
  const auto t0 = Clock::now();
  const std::size_t n = hot ? kHotSequences : kColdBases;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len =
        hot ? log_spaced_bytes(i, kHotSequences) : kMaxRequestBytes;
    st->pool.push_back(generate_bytes(len, mix_seed(seed, i)));
  }
  rec.generate_s = seconds_since(t0);
  st->contexts = cloud::context_grid();
  auto model = train_selector(&st->algorithms);

  exchange::ExchangeServiceOptions opts;
  opts.pipelined_upload = true;
  opts.pipeline_depth = 4;
  opts.dcb_threshold_bytes = std::size_t{1} << 20;
  if (hot) {
    opts.faults.drop_probability = 0.10;
    opts.faults.seed = seed;
    // 10 % drops exhaust the default 5 attempts once per 1e5 transfers;
    // 8 attempts keep the workload failure-free (1e-8 per transfer).
    opts.retry.max_attempts = 8;
  }
  st->service = std::make_unique<exchange::ExchangeService>(
      st->store, std::move(model), st->algorithms, opts);
  return st;
}

// Request i's input. Cold: a seeded slice (size i % 61) of base i % 3, its
// first 16 bases spelling i in base 4, then 32 seeded point substitutions,
// so no two requests share content. Hot: one of 24 fixed sequences.
std::vector<std::uint8_t> request_sequence(const ExchangeState& st,
                                           std::uint64_t i) {
  if (st.hot) return st.pool[i % st.pool.size()];
  const auto& base = st.pool[i % st.pool.size()];
  const std::size_t len = log_spaced_bytes(i % kColdSizes, kColdSizes);
  util::Xoshiro256 rng(mix_seed(st.seed, 1'000'000 + i));
  const std::size_t off = rng.next_below(base.size() - len + 1);
  std::vector<std::uint8_t> seq(base.begin() + off, base.begin() + off + len);
  static constexpr char kBases[4] = {'A', 'C', 'G', 'T'};
  std::uint64_t v = i;
  for (std::size_t k = 0; k < 16; ++k, v >>= 2) seq[k] = kBases[v & 3];
  for (int k = 0; k < 32; ++k) {
    seq[16 + rng.next_below(seq.size() - 16)] = kBases[rng.next_below(4)];
  }
  return seq;
}

struct Done {
  std::uint64_t index = 0;
  double t0_us = 0.0;
  double t1_us = 0.0;
  std::uint64_t tid = 0;
  exchange::ExchangeReport rep;
};

const char* compress_layer(const exchange::ExchangeReport& r) {
  return r.blocked ? "container" : "compressors";
}

// One client-side span per request, parenting its seven stages laid out in
// pipeline order from the client's start time. The pipelined upload fuses
// compression, so its compress child sits inside the upload span.
void trace_request(SpanLog& log, const Done& d) {
  const auto& r = d.rep;
  const auto& st = r.stages;
  Span req;
  req.name = "exchange.request";
  req.cat = "exchange";
  req.id = log.new_id();
  req.rid = r.request_id;
  req.ts_us = d.t0_us;
  req.dur_us = d.t1_us - d.t0_us;
  req.tid = d.tid;
  req.args.set("index", static_cast<double>(d.index));
  req.args.set("codec", r.codec);
  req.args.set("raw_bytes", r.raw_bytes);
  req.args.set("payload_bytes", r.payload_bytes);
  req.args.set("cache_hit", r.cache_hit);
  req.args.set("blocked", r.blocked);
  req.args.set("pipelined", r.pipelined);
  req.args.set("status", std::string(exchange::status_name(r.status)));
  double t = d.t0_us;
  const auto child = [&](const char* cat, const char* name, double ms,
                         std::uint64_t parent = 0) {
    Span s;
    s.name = name;
    s.cat = cat;
    s.id = log.new_id();
    s.parent = parent != 0 ? parent : req.id;
    s.rid = r.request_id;
    s.ts_us = t;
    s.dur_us = ms * 1000.0;
    s.tid = d.tid;
    s.args.set("codec", r.codec);
    s.args.set("raw_bytes", r.raw_bytes);
    if (parent == 0) t += s.dur_us;  // stages follow one another
    return s;
  };
  log.add(child("exchange", "queue", st.queue_ms));
  log.add(child("ml", "select", st.select_ms));
  if (r.pipelined) {
    // Block compression runs inside the fused upload; its summed codec
    // time can exceed the upload's wall time, so the span is clipped to it.
    const double upload_start = t;
    auto up = child("stream", "compress_upload", st.upload_ms);
    const double after_upload = t;
    t = upload_start;
    auto c = child("compressors", "compress",
                   std::min(st.compress_ms, st.upload_ms), up.id);
    c.args.set("codec_ms_sum", st.compress_ms);
    t = after_upload;
    log.add(std::move(c));
    log.add(std::move(up));
  } else {
    log.add(child(compress_layer(r), "compress", st.compress_ms));
    log.add(child("cloud", "upload", st.upload_ms));
  }
  log.add(child("cloud", "download", st.download_ms));
  log.add(child(compress_layer(r), "decompress", st.decompress_ms));
  log.add(child("util", "verify", st.verify_ms));
  log.add(std::move(req));
}

void run_exchange(bool hot, const Args& args, SpanLog& log, Record& rec) {
  const auto st = repeated_setup<ExchangeState>(
      rec, [&] { return setup_exchange(hot, args.seed, rec); });
  auto& service = *st->service;
  const std::string container = service.options().container;

  const auto read_back = [&](std::uint64_t i) {
    return i < kReadBackWithin && mix_seed(args.seed, i) % kReadBackEvery == 0;
  };
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> stop{false};
  std::vector<std::vector<Done>> per_client(kClients);
  const MeasuredPhase phase(rec);
  {
    // Windows are fixed time slices; each request's bytes are shared out
    // over the slices it overlaps once the run is over.
    WindowGate gate(rec, args.seconds);
    std::jthread slicer([&] {
      std::size_t seen = 0;
      for (int k = 1; !stop.load(); ++k) {
        std::this_thread::sleep_until(
            phase.start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  k * kExchangeWindowS)));
        const std::size_t now_done = completed.load();
        gate.close(0.0, now_done - seen);
        seen = now_done;
        if (gate.done()) stop.store(true);
      }
    });
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const std::uint64_t tid = thread_index();
        while (!stop.load()) {
          const std::uint64_t i = next.fetch_add(1);
          exchange::ExchangeRequest req;
          req.sequence = request_sequence(*st, i);
          req.context = st->contexts[i % st->contexts.size()];
          Done d;
          d.index = i;
          d.tid = tid;
          d.t0_us = now_us();
          d.rep = service.run(std::move(req));
          d.t1_us = now_us();
          // Cold blobs are unique: drop the ones the read-back check will
          // not sample so the store does not grow with throughput.
          if (!hot && !read_back(i)) {
            st->store.delete_blob(container, d.rep.blob_name);
          }
          per_client[c].push_back(std::move(d));
          completed.fetch_add(1);
        }
      });
    }
  }
  phase.end();
  rec.latency_unit = "request";

  std::vector<Done> done;
  for (auto& v : per_client) {
    for (auto& d : v) done.push_back(std::move(d));
  }
  std::sort(done.begin(), done.end(),
            [](const Done& a, const Done& b) { return a.index < b.index; });

  auto& windows = rec.windows;
  const auto window_at = [&](double t_us) -> std::ptrdiff_t {
    for (std::size_t k = 0; k < windows.size(); ++k) {
      if (t_us >= windows[k].start_us && t_us < windows[k].end_us) {
        return static_cast<std::ptrdiff_t>(k);
      }
    }
    return -1;  // after the last slice closed
  };
  std::map<std::string, double> picks = {
      {"ctw", 0}, {"dnax", 0}, {"gencompress", 0}, {"gzip", 0}};
  double checked = 0;
  std::size_t checked_n = 0, attempts = 0, ok_attempts = 0;
  auto& L = rec.layers;
  auto& S = rec.layer_samples;
  for (const auto& d : done) {
    const auto& r = d.rep;
    ++rec.attempted;
    const bool ok = r.status == exchange::ExchangeStatus::kOk && r.verified;
    if (!ok) {
      ++rec.failed;
      check(rec, "request " + std::to_string(d.index), false,
            std::string(exchange::status_name(r.status)) + " " + r.error);
      continue;
    }
    // A request counts towards a window's latencies only if every slice it
    // touched is usable.
    const std::ptrdiff_t w0 = window_at(d.t0_us), w1 = window_at(d.t1_us);
    bool usable = w0 >= 0 && w1 >= 0;
    for (std::ptrdiff_t k = std::max<std::ptrdiff_t>(w0, 0); usable && k <= w1;
         ++k) {
      usable = windows[static_cast<std::size_t>(k)].usable;
    }
    add_sample(rec, (d.t1_us - d.t0_us) / 1000.0, usable ? w1 : -1);
    for (auto& win : windows) {
      const double overlap = std::min(d.t1_us, win.end_us) -
                             std::max(d.t0_us, win.start_us);
      if (overlap > 0) {
        win.raw_bytes += static_cast<double>(r.raw_bytes) * overlap /
                         (d.t1_us - d.t0_us);
      }
    }
    rec.wire_bytes += static_cast<double>(r.payload_bytes);
    rec.wire_raw_bytes += static_cast<double>(r.raw_bytes);
    L["cloud.stored_bytes"] += static_cast<double>(r.payload_bytes);
    if (d.index < kCheckedRequests) {
      checked += static_cast<double>(r.payload_bytes);
      ++checked_n;
    }
    picks[r.codec] += 1;
    attempts += r.upload_attempts + r.download_attempts;
    ok_attempts += 2;
    S["exchange.queue_ms_p50"].push_back(r.stages.queue_ms);
    L["ml.select_ms_sum"] += r.stages.select_ms;
    L["compressors.compress_ms_sum"] += r.stages.compress_ms;
    L["compressors.decompress_ms_sum"] += r.stages.decompress_ms;
    if (r.blocked) {
      L["container.blocked_requests"] += 1;
      L["container.decompress_ms_sum"] += r.stages.decompress_ms;
    }
    if (r.pipelined) L["stream.compress_upload_ms_sum"] += r.stages.upload_ms;
    L["cloud.upload_ms_sum"] += r.stages.upload_ms;
    L["cloud.download_ms_sum"] += r.stages.download_ms;
    L["cloud.sim_upload_ms_mean"] += r.simulated_upload_ms;
    L["cloud.sim_download_ms_mean"] += r.simulated_download_ms;
    L["util.verify_ms_sum"] += r.stages.verify_ms;
    if (log.on()) trace_request(log, d);
  }
  const double n_ok = static_cast<double>(rec.latency_ms.size());
  if (n_ok > 0) {
    L["cloud.sim_upload_ms_mean"] /= n_ok;
    L["cloud.sim_download_ms_mean"] /= n_ok;
  }
  for (const auto& [codec, n] : picks) L["ml.picks." + codec] = n;
  const auto stats = service.stats();
  L["exchange.requests"] = static_cast<double>(rec.attempted);
  L["exchange.cache_hit_rate"] = stats.cache_hit_rate;
  L["exchange.retries"] = static_cast<double>(stats.retries);
  L["exchange.transfer_success_ratio"] =
      attempts > 0 ? static_cast<double>(ok_attempts) /
                         static_cast<double>(attempts)
                   : 0.0;
  L["exchange.rejected"] = static_cast<double>(stats.rejected);
  L["exchange.failed"] = static_cast<double>(stats.failed);

  check(rec, "all requests ok and verified", rec.failed == 0,
        std::to_string(rec.failed) + " of " + std::to_string(rec.attempted));
  check(rec, "exact-byte prefix complete", checked_n == kCheckedRequests,
        std::to_string(checked_n) + " of the first " +
            std::to_string(kCheckedRequests) + " requests");
  rec.bytes_checked = checked;
  if (hot) {
    check(rec, "fault path exercised", stats.retries > 0,
          std::to_string(stats.retries) + " retries");
  }

  // Independent read-back: fetch a seeded sample of stored blobs straight
  // from the store, decode them with the self-detecting entry point and
  // compare with a freshly built copy of the input.
  std::size_t sampled = 0, mismatched = 0;
  std::map<std::string, bool> seen;
  for (const auto& d : done) {
    if (!read_back(d.index)) continue;
    if (!seen.emplace(d.rep.blob_name, true).second) continue;
    ++sampled;
    const auto blob = st->store.get_blob(container, d.rep.blob_name);
    bool same = false;
    if (blob.has_value()) {
      const auto restored = compressors::decompress_auto(*blob);
      same = restored.has_value() &&
             restored.value() == request_sequence(*st, d.index);
    }
    if (!same) ++mismatched;
  }
  check(rec, "sampled blob read-back", sampled > 0 && mismatched == 0,
        std::to_string(mismatched) + " mismatches in " +
            std::to_string(sampled) + " blobs");

  if (log.on()) {
    std::vector<std::span<const std::uint8_t>> inputs(st->pool.begin(),
                                                      st->pool.end());
    L["util.crc32_MBps"] = crc32_mbps(inputs, log);
  }
}

// ================================================================ grid

// Times every oracle call (one file x codec round trip) for the latency
// samples; with tracing on, also opens a span the codec calls nest under.
class TimedOracle final : public core::CostOracle {
 public:
  TimedOracle(core::CostOracle& inner, SpanLog& log, std::uint64_t parent)
      : inner_(&inner), log_(&log), parent_(parent) {}
  core::MeasuredCosts measure(const sequence::CorpusFile& file,
                              const std::string& algo) override {
    ScopedSpan s(*log_, "core", "measure", parent_);
    const auto costs = inner_->measure(file, algo);
    if (log_->on()) {
      s.args().set("codec", algo);
      s.args().set("file", file.name);
      s.args().set("raw_bytes", costs.original_bytes);
      s.args().set("packed_bytes", costs.compressed_bytes);
    }
    const double ms = s.elapsed_ms();
    std::lock_guard lk(mu_);
    calls_.push_back({ms, costs, algo});
    return costs;
  }
  struct Call {
    double ms;
    core::MeasuredCosts costs;
    std::string algo;
  };
  std::vector<Call> calls() const {
    std::lock_guard lk(mu_);
    return calls_;
  }

 private:
  core::CostOracle* inner_;
  SpanLog* log_;
  std::uint64_t parent_;
  mutable std::mutex mu_;
  std::vector<Call> calls_;
};

struct GridState {
  std::vector<sequence::CorpusFile> corpus;
  std::vector<cloud::VmSpec> contexts;
  sequence::CorpusSplit split;
  core::ExperimentConfig config;
};

void run_grid(const Args& args, SpanLog& log, Record& rec) {
  const auto st = repeated_setup<GridState>(rec, [&] {
    auto g = std::make_unique<GridState>();
    const auto t0 = Clock::now();
    sequence::CorpusOptions co;  // the DNACOMP_SMALL=1 dev corpus
    co.master_seed = args.seed;
    co.synthetic_count = 25;
    co.max_size = 131072;
    g->corpus = sequence::build_corpus(co);
    rec.generate_s = seconds_since(t0);
    g->contexts = cloud::context_grid();
    g->split = sequence::split_corpus(g->corpus.size());
    // One oracle call at a time. With four, the process peak depended on
    // which CTW calls happened to overlap, and its spread over ten runs
    // reached 27 % of the median; one at a time it is the largest single
    // call's.
    g->config.threads = 1;
    return g;
  });
  const auto& algos = st->config.algorithms;

  const MeasuredPhase phase(rec);
  WindowGate gate(rec, args.seconds);
  std::size_t passes = 0;
  auto& L = rec.layers;
  auto& S = rec.layer_samples;
  std::map<std::string, double> codec_raw, codec_ms_c, codec_ms_d,
      codec_packed;
  while (!gate.done()) {
    ScopedSpan pass(log, "core", "grid.pass", 0);
    core::RealCostOracleOptions oo;
    oo.cache_path = "";  // cold: never read dnacomp_measurements.csv
    oo.verify_round_trip = true;
    if (log.on()) {
      oo.compressor_factory = [&log](const std::string& name)
          -> std::unique_ptr<compressors::Compressor> {
        return std::make_unique<TimedCompressor>(
            compressors::make_compressor(name), log);
      };
    }
    core::RealCostOracle oracle(oo);
    std::vector<core::ExperimentRow> rows;
    std::vector<TimedOracle::Call> calls;
    {
      ScopedSpan s(log, "core", "run_experiments");
      TimedOracle timed(oracle, log, s.id());
      rows = core::run_experiments(st->corpus, st->contexts, timed,
                                   st->config);
      calls = timed.calls();
      S["core.measure_s"].push_back(s.elapsed_ms() / 1000.0);
    }
    check(rec, "pass " + std::to_string(passes) + " cold oracle",
          oracle.cache_hits() == 0,
          std::to_string(oracle.cache_hits()) + " cache hits");
    std::vector<core::LabeledCell> cells;
    {
      ScopedSpan s(log, "core", "label_cells");
      cells = core::label_cells(rows, algos, core::WeightSpec::total_time());
      S["core.label_ms"].push_back(s.elapsed_ms());
    }
    const auto tables = [&] {
      ScopedSpan s(log, "core", "make_tables");
      return core::make_tables(cells, algos, st->split.test);
    }();
    std::map<std::string, double> accuracy;
    for (const auto method : {core::Method::kChaid, core::Method::kCart}) {
      std::string m = core::method_name(method);
      std::transform(m.begin(), m.end(), m.begin(),
                     [](unsigned char ch) { return std::tolower(ch); });
      ScopedSpan s(log, "ml", "fit_and_evaluate." + m);
      const auto fit = core::fit_and_evaluate(method, tables);
      accuracy[m] = fit.eval.accuracy();
      S["ml.fit_ms." + m].push_back(s.elapsed_ms());
    }
    const double grid_s = pass.elapsed_ms() / 1000.0;
    S["core.grid_s"].push_back(grid_s);

    // One operation per oracle call; the grid's verified bytes are every
    // file round-tripped through every codec.
    double packed_total = 0, raw_total = 0;
    for (const auto& c : calls) {
      raw_total += static_cast<double>(c.costs.original_bytes);
    }
    const auto window = static_cast<std::ptrdiff_t>(
        gate.close(raw_total, calls.size()));
    for (const auto& c : calls) {
      ++rec.attempted;
      add_sample(rec, c.ms, window);
      const auto raw = static_cast<double>(c.costs.original_bytes);
      rec.wire_bytes += static_cast<double>(c.costs.compressed_bytes);
      rec.wire_raw_bytes += raw;
      L["compressors.compress_ms_sum"] += c.costs.compress_ms;
      L["compressors.decompress_ms_sum"] += c.costs.decompress_ms;
      packed_total += static_cast<double>(c.costs.compressed_bytes);
      codec_raw[c.algo] += raw;
      codec_ms_c[c.algo] += c.costs.compress_ms;
      codec_ms_d[c.algo] += c.costs.decompress_ms;
      if (passes == 0) {
        codec_packed[c.algo] += static_cast<double>(c.costs.compressed_bytes);
      }
    }
    if (passes == 0) rec.bytes_checked = packed_total;
    check(rec, "pass " + std::to_string(passes) + " measured every cell",
          calls.size() == st->corpus.size() * algos.size(),
          std::to_string(calls.size()) + " oracle calls");
    for (const auto& [m, acc] : accuracy) {
      S["ml.accuracy." + m].push_back(acc);
    }
    double sim_up = 0, sim_down = 0;
    for (const auto& r : rows) {
      sim_up += r.upload_ms;
      sim_down += r.download_ms;
    }
    S["cloud.sim_upload_ms_mean"].push_back(sim_up / rows.size());
    S["cloud.sim_download_ms_mean"].push_back(sim_down / rows.size());
    ++passes;
  }
  phase.end();
  rec.latency_unit = "oracle call (file x codec round trip)";
  L["core.passes"] = static_cast<double>(passes);
  for (const auto& a : algos) {
    const std::string p = "compressors." + a;
    L[p + ".compress_MBps"] =
        codec_ms_c[a] > 0 ? codec_raw[a] / 1e3 / codec_ms_c[a] : 0.0;
    L[p + ".decompress_MBps"] =
        codec_ms_d[a] > 0 ? codec_raw[a] / 1e3 / codec_ms_d[a] : 0.0;
    L[p + ".compressed_bytes"] = codec_packed[a];
  }

  if (log.on()) {
    std::vector<std::span<const std::uint8_t>> inputs;
    for (const auto& f : st->corpus) {
      inputs.push_back(compressors::as_byte_span(f.data));
    }
    L["util.crc32_MBps"] = crc32_mbps(inputs, log);
    ScopedSpan s(log, "compressors", "lz77.tokenize", 0);
    const compressors::Lz77Matcher lz;
    double bytes = 0, tokens = 0;
    for (const auto& in : inputs) {
      tokens += static_cast<double>(lz.tokenize(in).size());
      bytes += static_cast<double>(in.size());
    }
    s.args().set("tokens", tokens);
    L["compressors.lz77_tokenize_MBps"] = bytes / 1e3 / s.elapsed_ms();
  }
}

// ========================================================= stream-file

constexpr std::size_t kStreamFileBytes = std::size_t{24} << 20;

bool files_equal(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  if (!fa.good() || !fb.good()) return false;
  std::vector<char> ba(1 << 20), bb(1 << 20);
  while (true) {
    fa.read(ba.data(), static_cast<std::streamsize>(ba.size()));
    fb.read(bb.data(), static_cast<std::streamsize>(bb.size()));
    if (fa.gcount() != fb.gcount()) return false;
    if (fa.gcount() == 0) return true;
    if (std::memcmp(ba.data(), bb.data(),
                    static_cast<std::size_t>(fa.gcount())) != 0) {
      return false;
    }
  }
}

// Lays per-block codec times (StreamSummary::block_ms, index order) onto
// the engine's in-flight lanes: each block starts on the lane that frees
// first. The engine reports durations only, so start times are modelled.
void trace_blocks(SpanLog& log, const ScopedSpan& parent, double start_us,
                  const std::vector<double>& block_ms, std::size_t lanes,
                  const char* name) {
  std::vector<double> lane_free(lanes, start_us);
  for (std::size_t i = 0; i < block_ms.size(); ++i) {
    auto it = std::min_element(lane_free.begin(), lane_free.end());
    Span s;
    s.name = name;
    s.cat = "container";
    s.id = log.new_id();
    s.parent = parent.id();
    s.ts_us = *it;
    s.dur_us = block_ms[i] * 1000.0;
    s.tid = 1000 + static_cast<std::uint64_t>(it - lane_free.begin());
    s.args.set("block", i);
    s.args.set("placement", "modelled from block_ms");
    *it += s.dur_us;
    log.add(std::move(s));
  }
}

struct StreamState {
  std::string dir;
  std::string input;
};

void run_stream_file(const Args& args, SpanLog& log, Record& rec) {
  const std::string dir =
      std::string(kWorkDir) + "/stream-file-" + std::to_string(args.seed);
  const auto st = repeated_setup<StreamState>(rec, [&] {
    auto s = std::make_unique<StreamState>();
    s->dir = dir;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    s->input = dir + "/input.acgt";
    const auto t0 = Clock::now();
    const auto bytes = generate_bytes(kStreamFileBytes, mix_seed(args.seed, 7));
    rec.generate_s = seconds_since(t0);
    std::ofstream os(s->input, std::ios::binary);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    if (!os.good()) throw std::runtime_error("cannot write " + s->input);
    return s;
  });
  const auto codec = compressors::make_compressor("dnax");
  const std::string packed = st->dir + "/packed.dcz";
  const std::string restored = st->dir + "/restored.acgt";
  const stream::StreamOptions sopts;
  const std::size_t lanes =
      std::min<std::size_t>(sopts.pipeline_depth,
                            std::max(1u, std::thread::hardware_concurrency()));

  const MeasuredPhase phase(rec);
  WindowGate gate(rec, args.seconds);
  auto& L = rec.layers;
  auto& S = rec.layer_samples;
  double peak_c = 0, peak_d = 0;
  std::size_t rounds = 0;
  while (!gate.done()) {
    ++rec.attempted;
    ScopedSpan round(log, "stream", "round_trip", 0);
    util::TrackingResource mem_c, mem_d;
    auto c_span = std::make_unique<ScopedSpan>(log, "stream", "compress_file");
    const double c_start = now_us();
    auto c = stream::compress_file(*codec, st->input, packed, sopts, &mem_c);
    const double c_ms = c_span->elapsed_ms();
    if (c.has_value() && log.on()) {
      trace_blocks(log, *c_span, c_start, c.value().block_ms, lanes,
                   "compress_block");
    }
    c_span.reset();
    if (!c.has_value()) {
      ++rec.failed;
      check(rec, "round trip " + std::to_string(rounds), false,
            c.error().message);
      break;  // a failed run stops; run.py reports it
    }
    auto d_span =
        std::make_unique<ScopedSpan>(log, "stream", "decompress_file");
    const double d_start = now_us();
    auto d = stream::decompress_file(packed, restored, sopts, &mem_d);
    const double d_ms = d_span->elapsed_ms();
    if (d.has_value() && log.on()) {
      trace_blocks(log, *d_span, d_start, d.value().block_ms, lanes,
                   "decompress_block");
    }
    d_span.reset();
    bool same = false;
    {
      ScopedSpan v(log, "util", "verify");
      same = d.has_value() && files_equal(st->input, restored);
      L["util.verify_ms_sum"] += v.elapsed_ms();
    }
    if (!same) {
      ++rec.failed;
      check(rec, "round trip " + std::to_string(rounds), false,
            d.has_value() ? "restored file differs from input"
                          : d.error().message);
      break;  // a failed run stops; run.py reports it
    }
    const auto& cs = c.value();
    const auto& ds = d.value();
    const auto raw = static_cast<double>(cs.plain_bytes);
    rec.wire_bytes += static_cast<double>(cs.stream_bytes);
    rec.wire_raw_bytes += raw;
    const std::size_t n_blocks = std::min(cs.block_ms.size(), ds.block_ms.size());
    const auto window = static_cast<std::ptrdiff_t>(gate.close(raw, n_blocks));
    S["stream.compress_file_MBps"].push_back(raw / 1e3 / c_ms);
    S["stream.decompress_file_MBps"].push_back(raw / 1e3 / d_ms);
    if (rounds == 0) rec.bytes_checked = static_cast<double>(cs.stream_bytes);
    check(rec, "round trip " + std::to_string(rounds) + " block counts",
          cs.block_count == ds.block_count &&
              cs.block_ms.size() == ds.block_ms.size(),
          std::to_string(cs.block_count) + " blocks");
    for (std::size_t i = 0; i < n_blocks; ++i) {
      add_sample(rec, cs.block_ms[i] + ds.block_ms[i], window);
      S["stream.block_ms_p50"].push_back(cs.block_ms[i]);
    }
    L["stream.blocks"] += static_cast<double>(cs.block_count);
    L["compressors.compress_ms_sum"] +=
        std::accumulate(cs.block_ms.begin(), cs.block_ms.end(), 0.0);
    L["compressors.decompress_ms_sum"] +=
        std::accumulate(ds.block_ms.begin(), ds.block_ms.end(), 0.0);
    peak_c = std::max(peak_c, static_cast<double>(mem_c.peak_bytes()));
    peak_d = std::max(peak_d, static_cast<double>(mem_d.peak_bytes()));
    ++rounds;
  }
  phase.end();
  rec.latency_unit = "block round trip (compress + decompress codec time)";
  L["stream.peak_tracked_bytes.compress"] = peak_c;
  L["stream.peak_tracked_bytes.decompress"] = peak_d;
  check(rec, "all round trips verified", rec.failed == 0,
        std::to_string(rec.failed) + " of " + std::to_string(rec.attempted));

  if (log.on()) {
    std::ifstream is(st->input, std::ios::binary);
    std::vector<std::uint8_t> all(kStreamFileBytes);
    is.read(reinterpret_cast<char*>(all.data()),
            static_cast<std::streamsize>(all.size()));
    L["util.crc32_MBps"] = crc32_mbps({std::span<const std::uint8_t>(all)}, log);
  }
  std::filesystem::remove_all(st->dir);
}

// =============================================================== output

JsonValue to_json(const Args& args, const Record& r, const SpanLog& log) {
  auto o = JsonValue::object();
  o.set("workload", args.workload);
  o.set("seed", static_cast<double>(args.seed));
  o.set("traced", args.trace);
  o.set("compiler", std::string("g++ ") + __VERSION__);
  o.set("build_type", PERFBENCH_BUILD_TYPE);
  o.set("hardware_threads",
        static_cast<std::size_t>(std::thread::hardware_concurrency()));
  auto setups = JsonValue::array();
  for (const double s : r.setup_s) setups.push(s);
  o.set("setup_s", std::move(setups));
  o.set("generate_s", r.generate_s);
  o.set("measured_s", r.measured_s);
  o.set("wire_bytes", r.wire_bytes);
  o.set("wire_raw_bytes", r.wire_raw_bytes);
  auto lat_window = JsonValue::array();
  for (const double v : r.latency_window) lat_window.push(v);
  o.set("latency_window", std::move(lat_window));
  auto windows = JsonValue::array();
  for (const auto& w : r.windows) {
    auto wo = JsonValue::object();
    wo.set("raw_bytes", w.raw_bytes);
    wo.set("wall_s", (w.end_us - w.start_us) / 1e6);
    wo.set("steal", w.steal);
    wo.set("peak_rss_mib", w.peak_rss_mib);
    wo.set("usable", w.usable);
    windows.push(std::move(wo));
  }
  o.set("windows", std::move(windows));
  auto lat = JsonValue::array();
  for (const double v : r.latency_ms) lat.push(v);
  o.set("latency_ms", std::move(lat));
  o.set("latency_unit", r.latency_unit);
  o.set("peak_rss_reset", r.peak_rss_reset);
  o.set("steal_share", r.steal_share);
  o.set("attempted", r.attempted);
  o.set("failed", r.failed);
  o.set("bytes_checked", r.bytes_checked);
  auto canary = JsonValue::object();
  for (const auto& [k, v] : r.canary_bytes) canary.set(k, v);
  o.set("canary_bytes", std::move(canary));
  auto checks = JsonValue::array();
  for (const auto& c : r.checks) {
    auto co = JsonValue::object();
    co.set("name", c.name);
    co.set("ok", c.ok);
    co.set("detail", c.detail);
    checks.push(std::move(co));
  }
  o.set("checks", std::move(checks));
  auto layers = JsonValue::object();
  for (const auto& [k, v] : r.layers) layers.set(k, v);
  o.set("layers", std::move(layers));
  auto samples = JsonValue::object();
  for (const auto& [k, vs] : r.layer_samples) {
    auto arr = JsonValue::array();
    for (const double v : vs) arr.push(v);
    samples.set(k, std::move(arr));
  }
  o.set("layer_samples", std::move(samples));
  o.set("spans", log.to_json());
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    std::filesystem::create_directories(kWorkDir);
    SpanLog log(args.trace);
    Record rec;
    if (args.workload == "exchange-cold") {
      run_exchange(false, args, log, rec);
    } else if (args.workload == "exchange-hot") {
      run_exchange(true, args, log, rec);
    } else if (args.workload == "grid") {
      run_grid(args, log, rec);
    } else if (args.workload == "stream-file") {
      run_stream_file(args, log, rec);
    } else {
      throw std::runtime_error("unknown workload " + args.workload);
    }
    run_canary(rec);
    std::ofstream os(args.out, std::ios::binary);
    os << to_json(args, rec, log).dump() << "\n";
    if (!os.good()) throw std::runtime_error("cannot write " + args.out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
