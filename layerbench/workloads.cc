#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "core/engine.h"
#include "host.h"
#include "index/forward_index.h"
#include "index/inverted_index.h"
#include "index/word_lists.h"
#include "phrase/phrase_extractor.h"
#include "service/planner.h"
#include "service/service.h"
#include "shard/sharded_engine.h"
#include "subscribe/subscription_manager.h"

namespace layerbench {

namespace pm = phrasemine;
using pm::Algorithm;

namespace {

// ---------------------------------------------------------------------------
// Metric catalogue and values
// ---------------------------------------------------------------------------

constexpr Algorithm kMineAlgorithms[] = {Algorithm::kExact, Algorithm::kGm,
                                         Algorithm::kNra, Algorithm::kSmj};

const char* AlgKey(Algorithm a) {
  switch (a) {
    case Algorithm::kExact: return "exact";
    case Algorithm::kGm: return "gm";
    case Algorithm::kSimitsis: return "simitsis";
    case Algorithm::kNra: return "nra";
    case Algorithm::kNraDisk: return "nra_disk";
    case Algorithm::kSmj: return "smj";
  }
  return "unknown";
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

class Values {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  double Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  /// p50 and tail of a sample under `base`.p50 / `base`.tail; the note
  /// names the tail's percentile and the sample count.
  void SetDistribution(const std::string& base,
                       const std::vector<double>& samples,
                       std::vector<std::string>* notes) {
    const Tail tail = TailPercentile(samples);
    Set(base + ".p50", Median(samples));
    Set(base + ".tail", tail.value);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %s: n=%zu p50=%.4f tail=p%.1f %.4f",
                  base.c_str(), samples.size(), Median(samples),
                  tail.q * 100.0, tail.value);
    notes->push_back(buf);
  }

 private:
  std::map<std::string, double> values_;
};

// ---------------------------------------------------------------------------
// Result fingerprints
// ---------------------------------------------------------------------------

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

uint64_t Mix(uint64_t h, uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t MixString(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return Mix(h, s.size());
}

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

uint64_t FingerprintIds(const std::vector<pm::MinedPhrase>& phrases) {
  uint64_t h = Mix(kFnvOffset, phrases.size());
  for (const pm::MinedPhrase& p : phrases) h = Mix(Mix(h, p.phrase), Bits(p.score));
  return h;
}

std::string Hex(uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ---------------------------------------------------------------------------
// Inputs and the system under test
// ---------------------------------------------------------------------------

/// Update batches generated per churn run; the run wraps around them.
constexpr std::size_t kChurnBatches = 1000;
/// Churn verification points: every this many steps, and at the end.
constexpr std::size_t kChurnCheckEvery = 50;
/// The checkpoint whose snapshot fingerprints form the churn digest (it
/// precedes the first rebuild, so it is a pure function of the seed).
constexpr std::size_t kChurnDigestStep = 50;
/// Distinct results folded into the query workloads' digest.
constexpr std::size_t kDigestKeys = 100;
/// A verification engine is reopened after this many mines, which bounds
/// the memory of the word lists verification builds.
constexpr std::size_t kVerifyReopenEvery = 200;
/// The untraced run of a query workload is cut into this many equal time
/// slices (churn: one slice per rebuild cycle). query_p50_ms is the
/// median over the slices, so a burst of contention from other tenants
/// of a shared host moves one slice, not the result.
constexpr std::size_t kSlices = 5;
/// Churn runs exactly this many rebuild cycles: each cycle adds a quarter
/// of the corpus, so a run that stopped on the clock would measure a
/// different corpus size, cache state and peak RSS from run to run.
constexpr std::size_t kChurnCycles = 3;

struct Inputs {
  const WorkloadSettings* w = nullptr;
  uint64_t seed = 0;
  std::string scratch_dir;
  std::vector<Request> pool;
  /// Indices into `pool`.
  std::vector<uint32_t> stream;
  std::vector<pm::Query> pool_queries;
  BatchSet batches;
  std::vector<pm::SubscriptionRequest> subs;
  /// The persisted base index a from_file set-up reopens.
  std::string index_path;
  uint64_t token_bytes = 0;
  uint64_t index_bytes = 0;
};

/// Every input of a run, taken from one prep engine over the workload
/// corpus that is dropped before anything is measured: the harvested
/// pool and stream, churn's batches and standing queries, and the size of
/// the persisted base index (kept on disk when the set-up reopens it).
void GenerateInputs(Inputs* in) {
  const WorkloadSettings& w = *in->w;
  const pm::MiningEngine prep = pm::MiningEngine::Build(MakeCorpus(w));
  const pm::Vocabulary& vocab = prep.corpus().vocab();
  const std::vector<pm::Query> term_sets = HarvestTermSets(w, prep);
  PM_CHECK_MSG(!term_sets.empty(), "no query term sets harvested");
  in->pool = MakePool(w, term_sets, vocab);
  in->stream = MakeStream(w, in->seed, in->pool, vocab);
  for (const Request& r : in->pool) in->pool_queries.push_back(r.query);
  if (w.fragments > 0) {
    in->batches = MakeBatches(w, prep.corpus(), kChurnBatches);
    in->subs = MakeSubscriptions(w, term_sets, vocab);
    for (const pm::SubscriptionRequest& s : in->subs) {
      std::string text;
      for (const std::string& t : s.terms) text += (text.empty() ? "" : " ") + t;
      in->pool_queries.push_back(prep.ParseQuery(text, s.op).value());
    }
  }
  in->token_bytes = TokenTextBytes(prep.corpus());
  const std::string path = in->scratch_dir + "/" + w.name + ".pmidx";
  PM_CHECK(prep.SaveToFile(path).ok());
  in->index_bytes = std::filesystem::file_size(path);
  if (w.from_file) {
    in->index_path = path;
  } else {
    std::filesystem::remove(path);
  }
}

/// The corpus a set-up builds from (none when it reopens the index).
pm::Corpus SetUpCorpus(const WorkloadSettings& w) {
  return w.from_file ? pm::Corpus() : MakeCorpus(w);
}

pm::PhraseServiceOptions ServiceOptions() {
  pm::PhraseServiceOptions options;
  // Stay within the host's processors; 4 (the default) everywhere else.
  options.pool.num_threads = std::min<std::size_t>(
      options.pool.num_threads,
      std::max(1u, std::thread::hardware_concurrency()));
  return options;
}

struct System {
  std::unique_ptr<pm::MiningEngine> engine;
  std::unique_ptr<pm::PhraseService> service;
  std::vector<uint64_t> subscriptions;
  double setup_s = 0.0;
  double build_ms = 0.0;
  double ensure_ms = 0.0;
  double open_ms = 0.0;
  double file_open_ms = 0.0;
  double rss_after_open_mb = 0.0;
  double bootstrap_ms = 0.0;

  void Stop() {
    if (service != nullptr) service->Shutdown();
    service.reset();
    engine.reset();
  }
};

/// One timed set-up: from inputs ready to a service that can serve. Only
/// the set-up calls themselves are timed; `corpus` is input.
System SetUp(const Inputs& in, pm::Corpus corpus) {
  System sys;
  double timed_ms = 0.0;
  if (in.w->from_file) {
    int64_t t = NowNs();
    auto loaded = pm::MiningEngine::LoadFromFile(in.index_path);
    sys.open_ms = MsSince(t);
    PM_CHECK_MSG(loaded.ok(), "LoadFromFile failed");
    sys.rss_after_open_mb = CurrentRssMb();
    sys.engine =
        std::make_unique<pm::MiningEngine>(std::move(loaded).value());
    sys.file_open_ms =
        sys.engine->index_file() != nullptr ? sys.engine->index_file()->open_ms() : 0.0;
    t = NowNs();
    sys.service =
        std::make_unique<pm::PhraseService>(sys.engine.get(), ServiceOptions());
    timed_ms = sys.open_ms + MsSince(t);
  } else {
    int64_t t = NowNs();
    sys.engine = std::make_unique<pm::MiningEngine>(
        pm::MiningEngine::Build(std::move(corpus)));
    sys.build_ms = MsSince(t);
    t = NowNs();
    sys.engine->EnsureWordListsFor(in.pool_queries);
    sys.ensure_ms = MsSince(t);
    t = NowNs();
    sys.service =
        std::make_unique<pm::PhraseService>(sys.engine.get(), ServiceOptions());
    timed_ms = sys.build_ms + sys.ensure_ms + MsSince(t);
    if (!in.subs.empty()) {
      t = NowNs();
      for (const pm::SubscriptionRequest& s : in.subs) {
        auto id = sys.service->Subscribe(s);
        PM_CHECK_MSG(id.ok(), "Subscribe failed");
        sys.subscriptions.push_back(id.value());
      }
      sys.service->subscriptions()->Flush();
      sys.bootstrap_ms = MsSince(t);
      timed_ms += sys.bootstrap_ms;
    }
  }
  sys.setup_s = timed_ms / 1000.0;
  return sys;
}

// ---------------------------------------------------------------------------
// Untraced run
// ---------------------------------------------------------------------------

struct KeyRecord {
  Request request;
  Algorithm algorithm = Algorithm::kGm;
  uint64_t fingerprint = 0;
  double client_ms = 0.0;
  std::vector<pm::MinedPhrase> phrases;
};

/// The calls of one time slice of the run.
struct Slice {
  std::size_t first_call = 0;
  uint64_t ok = 0;
  uint64_t hits = 0;
  double handoff_p50_ms = 0.0;
  double hit_p50_us = 0.0;
};

/// What the untraced run keeps per call is only its client latency (4
/// bytes), so the log adds little to the peak RSS the run measures.
/// Handoff and hit service times are reduced to a median per slice when
/// the slice closes.
struct QueryLog {
  std::vector<float> client_ms;
  std::vector<Slice> slices;
  /// Samples of the open slice.
  std::vector<double> handoff_ms;
  std::vector<double> hit_service_us;
  uint64_t ok = 0;
  uint64_t non_ok = 0;
  uint64_t hits = 0;
  /// Replies that differ from the first reply of the same key and epoch.
  uint64_t inconsistent = 0;
  std::vector<std::string> order;
  std::unordered_map<std::string, KeyRecord> keys;

  /// Makes slice `s` the open one, closing those before it.
  void EnterSlice(std::size_t s) {
    while (slices.size() < s + 1) {
      CloseSlice();
      slices.push_back(Slice{client_ms.size()});
    }
  }
  void CloseSlice() {
    if (slices.empty()) return;
    slices.back().handoff_p50_ms = Median(handoff_ms);
    slices.back().hit_p50_us = Median(hit_service_us);
    handoff_ms.clear();
    hit_service_us.clear();
  }
  /// Appends the calls and counts of a closed log as further slices. The
  /// keys stay with the log that served them.
  void AppendCalls(const QueryLog& other) {
    for (Slice slice : other.slices) {
      slice.first_call += client_ms.size();
      slices.push_back(slice);
    }
    client_ms.insert(client_ms.end(), other.client_ms.begin(),
                     other.client_ms.end());
    ok += other.ok;
    non_ok += other.non_ok;
    hits += other.hits;
    inconsistent += other.inconsistent;
  }
};

struct QueryStats {
  double qps = 0.0;
  double p50_ms = 0.0;
  Tail p90;
  Tail p99;
  double handoff_p50_ms = 0.0;
  double hit_p50_us = 0.0;
};

/// Medians over the run's slices of (OK replies / query seconds), of the
/// slice median latency, and of the slice handoff and hit medians.
/// A tail (p90, p99) is the median of the slice tails when every slice
/// holds enough calls for it, else the tail over the whole run.
QueryStats SliceStats(const QueryLog& log) {
  std::vector<double> qps;
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> p99;
  std::vector<double> handoff;
  std::vector<double> hit_us;
  bool slice_p90 = true;
  bool slice_p99 = true;
  for (std::size_t s = 0; s < log.slices.size(); ++s) {
    const Slice& slice = log.slices[s];
    const std::size_t end = s + 1 < log.slices.size()
                                ? log.slices[s + 1].first_call
                                : log.client_ms.size();
    const std::vector<double> ms(log.client_ms.begin() + slice.first_call,
                                 log.client_ms.begin() + end);
    if (ms.empty()) continue;
    qps.push_back(Ratio(static_cast<double>(slice.ok), Sum(ms) / 1000.0));
    p50.push_back(Median(ms));
    const Tail t90 = TailPercentile(ms, 0.90);
    slice_p90 = slice_p90 && t90.q >= 0.90;
    p90.push_back(t90.value);
    const Tail t99 = TailPercentile(ms, 0.99);
    slice_p99 = slice_p99 && t99.q >= 0.99;
    p99.push_back(t99.value);
    handoff.push_back(slice.handoff_p50_ms);
    if (slice.hits > 0) hit_us.push_back(slice.hit_p50_us);
  }
  QueryStats stats;
  stats.qps = Median(qps);
  stats.p50_ms = Median(p50);
  const std::vector<double> all(log.client_ms.begin(), log.client_ms.end());
  stats.p90 = TailPercentile(all, 0.90);
  if (slice_p90 && !p90.empty()) stats.p90.value = Median(p90);
  stats.p99 = TailPercentile(all, 0.99);
  if (slice_p99 && !p99.empty()) stats.p99.value = Median(p99);
  stats.handoff_p50_ms = Median(handoff);
  stats.hit_p50_us = Median(hit_us);
  return stats;
}

/// Serves one request in the open slice of `log`.
void Serve(pm::PhraseService& service, const Request& r, bool by_epoch,
           QueryLog* log) {
  pm::ServiceRequest request;
  request.query = r.query;
  request.options.k = r.k;
  const int64_t t0 = NowNs();
  pm::ServiceReply reply = service.Submit(std::move(request)).get();
  const double client_ms = MsSince(t0);
  log->client_ms.push_back(static_cast<float>(client_ms));
  log->handoff_ms.push_back(client_ms - reply.latency_ms);
  if (!reply.status.ok()) {
    ++log->non_ok;
    return;
  }
  ++log->ok;
  ++log->slices.back().ok;
  if (reply.result_cache_hit) {
    ++log->hits;
    ++log->slices.back().hits;
    log->hit_service_us.push_back(reply.latency_ms * 1000.0);
  }
  const uint64_t fp = FingerprintIds(reply.result.phrases);
  // The planner may pick another algorithm for the same request once more
  // word lists are cached, and each algorithm ranks by its own score: a
  // result is identified by request, algorithm and (under churn) epoch.
  std::string key = r.key + "#" + AlgKey(reply.plan.algorithm);
  if (by_epoch) {
    key += '@';
    key += std::to_string(reply.epoch);
  }
  auto [it, inserted] = log->keys.try_emplace(key);
  if (!inserted) {
    if (it->second.fingerprint != fp) ++log->inconsistent;
    return;
  }
  KeyRecord& rec = it->second;
  rec.request = r;
  rec.algorithm = reply.plan.algorithm;
  rec.fingerprint = fp;
  rec.client_ms = client_ms;
  rec.phrases = reply.result.phrases;
  log->order.push_back(key);
}

/// Closed loop, one client: runs at least `seconds` and until the p99 has
/// kMinBeyond samples beyond it, but never past 4 * seconds.
void RunQueries(System& sys, const Inputs& in, double seconds, QueryLog* log) {
  const std::size_t need = 100 * kMinBeyond;
  const int64_t start = NowNs();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = MsSince(start) / 1000.0;
    if (elapsed >= 4 * seconds) break;
    if (elapsed >= seconds && log->client_ms.size() >= need) break;
    log->EnterSlice(static_cast<std::size_t>(
        std::min<double>(kSlices - 1, elapsed / (seconds / kSlices))));
    Serve(*sys.service, StreamAt(*in.w, in.pool, in.stream, i), false, log);
  }
  log->CloseSlice();
}

struct ChurnLog {
  QueryLog queries;
  std::vector<double> ingest_ms;
  std::vector<double> publish_ms;
  uint64_t failed_ingests = 0;
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  uint64_t rebuilds = 0;
  std::string digest;

  /// Folds in another repetition: its calls become further slices, its
  /// samples and counts are added, and `rebuilds` keeps the fewest that
  /// any repetition completed.
  void Append(const ChurnLog& other) {
    const bool first = ingest_ms.empty();
    queries.AppendCalls(other.queries);
    ingest_ms.insert(ingest_ms.end(), other.ingest_ms.begin(),
                     other.ingest_ms.end());
    publish_ms.insert(publish_ms.end(), other.publish_ms.begin(),
                      other.publish_ms.end());
    failed_ingests += other.failed_ingests;
    checked += other.checked;
    mismatches += other.mismatches;
    rebuilds = first ? other.rebuilds : std::min(rebuilds, other.rebuilds);
    // Every repetition's digest point precedes its first rebuild, so the
    // digests agree; a repetition that disagrees is a failure.
    if (first) {
      digest = other.digest;
    } else if (other.digest != digest) {
      ++mismatches;
    }
  }
};

/// Compares every subscription's published top-k with a fresh SMJ mine
/// of its query at the same epoch. Retries while a background rebuild
/// moves the epoch under the comparison. Returns the snapshot fingerprint.
uint64_t VerifySubscriptions(System& sys, const Inputs& in, ChurnLog* log) {
  pm::MiningEngine& engine = *sys.engine;
  for (int attempt = 0; attempt < 500; ++attempt) {
    sys.service->subscriptions()->Flush();
    const uint64_t epoch = engine.epoch();
    bool stable = true;
    uint64_t mismatches = 0;
    uint64_t fp = Mix(kFnvOffset, epoch);
    for (std::size_t i = 0; i < in.subs.size() && stable; ++i) {
      auto state = sys.service->SubscriptionSnapshot(sys.subscriptions[i]);
      if (!state.ok() || state.value().epoch != epoch) {
        stable = false;
        break;
      }
      std::string text;
      for (const std::string& t : in.subs[i].terms) {
        text += (text.empty() ? "" : " ") + t;
      }
      const pm::Query query = engine.ParseQuery(text, in.subs[i].op).value();
      pm::MineOptions options;
      options.k = in.subs[i].k;
      const pm::MineResult fresh = engine.Mine(query, Algorithm::kSmj, options);
      const auto& topk = state.value().topk;
      bool equal = state.value().exact && topk.size() == fresh.phrases.size();
      for (std::size_t r = 0; equal && r < topk.size(); ++r) {
        equal = topk[r].phrase == fresh.phrases[r].phrase &&
                Bits(topk[r].score) == Bits(fresh.phrases[r].score);
      }
      if (!equal) ++mismatches;
      for (const pm::MinedPhrase& p : topk) {
        fp = Mix(MixString(fp, engine.PhraseText(p.phrase)), Bits(p.score));
      }
    }
    if (stable && engine.epoch() == epoch) {
      log->checked += in.subs.size();
      log->mismatches += mismatches;
      return fp;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Never quiescent: count every subscription as unverified.
  log->checked += in.subs.size();
  log->mismatches += in.subs.size();
  return 0;
}

/// Churn steps: IngestBatch, Flush (publish lag), then a few Zipf queries.
/// Runs kChurnCycles rebuild cycles, stopping right after the step that
/// crosses the rebuild threshold for the last time (and once the query
/// p99 has kMinBeyond samples beyond it); `seconds` only caps the step
/// time at 4 * seconds. Verification pauses are not step time.
void RunChurn(System& sys, const Inputs& in, double seconds, ChurnLog* log) {
  const WorkloadSettings& w = *in.w;
  double step_s = 0.0;
  uint64_t last_epoch = sys.engine->epoch();
  std::size_t qi = 0;
  uint32_t crossings = 0;
  bool was_recommended = false;
  bool crossed = false;
  for (std::size_t step = 0;; ++step) {
    if (step_s >= 4 * seconds) break;
    if (crossed && crossings >= kChurnCycles &&
        log->queries.client_ms.size() >= 100 * kMinBeyond) {
      break;
    }
    log->queries.EnterSlice(crossings);
    const pm::UpdateBatch batch = in.batches.Batch(step % in.batches.size());
    const int64_t t0 = NowNs();
    const pm::UpdateStats stats = sys.service->IngestBatch(batch);
    const int64_t t1 = NowNs();
    sys.service->subscriptions()->Flush();
    const int64_t t2 = NowNs();
    log->ingest_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    log->publish_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    if (stats.epoch <= last_epoch) ++log->failed_ingests;
    last_epoch = stats.epoch;
    // A cycle ends at the batch that first crosses the threshold; the
    // service then rebuilds in the background.
    crossed = stats.rebuild_recommended && !was_recommended;
    was_recommended = stats.rebuild_recommended;
    if (crossed) ++crossings;
    for (std::size_t j = 0; j < w.queries_per_step; ++j) {
      Serve(*sys.service, StreamAt(w, in.pool, in.stream, qi++), true,
            &log->queries);
    }
    step_s += MsSince(t0) / 1000.0;
    if ((step + 1) % kChurnCheckEvery == 0) {
      const uint64_t fp = VerifySubscriptions(sys, in, log);
      if (step + 1 == kChurnDigestStep) log->digest = Hex(fp);
      last_epoch = sys.engine->epoch();
    }
  }
  log->queries.CloseSlice();
}

/// The last verification point of a churn repetition; it waits out the
/// rebuild the final threshold crossing scheduled.
void FinishChurn(System& sys, const Inputs& in, ChurnLog* log) {
  (void)VerifySubscriptions(sys, in, log);
  log->rebuilds = sys.service->stats().rebuilds;
}

// ---------------------------------------------------------------------------
// Verification of query replies
// ---------------------------------------------------------------------------

/// Hands out an engine for verification mines, reopening it from the
/// persisted index every kVerifyReopenEvery mines when one exists.
class VerifyEngine {
 public:
  VerifyEngine(pm::MiningEngine* fixed, std::string path)
      : fixed_(fixed), path_(std::move(path)) {}
  pm::MiningEngine& Get() {
    if (fixed_ != nullptr) return *fixed_;
    if (owned_ == nullptr || ++uses_ % kVerifyReopenEvery == 0) {
      owned_.reset();
      auto loaded = pm::MiningEngine::LoadFromFile(path_);
      PM_CHECK_MSG(loaded.ok(), "verification LoadFromFile failed");
      owned_ = std::make_unique<pm::MiningEngine>(std::move(loaded).value());
    }
    return *owned_;
  }

 private:
  pm::MiningEngine* fixed_;
  std::string path_;
  std::unique_ptr<pm::MiningEngine> owned_;
  std::size_t uses_ = 0;
};

/// Every distinct OK reply equals MiningEngine::Mine of the canonical
/// query on the reply's planned algorithm, bitwise. Returns mismatches;
/// `compared` counts the replies checked.
uint64_t VerifyReplies(const QueryLog& log, VerifyEngine* verify,
                       uint64_t* compared) {
  uint64_t mismatches = 0;
  for (const std::string& key : log.order) {
    const KeyRecord& rec = log.keys.at(key);
    pm::MineOptions options;
    options.k = rec.request.k;
    const pm::MineResult fresh =
        verify->Get().Mine(rec.request.query, rec.algorithm, options);
    bool equal = fresh.status.ok() && fresh.phrases.size() == rec.phrases.size();
    for (std::size_t i = 0; equal && i < fresh.phrases.size(); ++i) {
      equal = Bits(fresh.phrases[i].score) == Bits(rec.phrases[i].score) &&
              fresh.phrases[i].phrase == rec.phrases[i].phrase;
    }
    ++*compared;
    if (!equal) ++mismatches;
  }
  return mismatches;
}

std::string QueryDigest(const QueryLog& log) {
  uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < log.order.size() && i < kDigestKeys; ++i) {
    h = Mix(MixString(h, log.order[i]), log.keys.at(log.order[i]).fingerprint);
  }
  return Hex(h);
}

// ---------------------------------------------------------------------------
// Traced replays
// ---------------------------------------------------------------------------

/// Per-layer numbers of the query workloads: the distinct requests of the
/// untraced run, in first-seen order and within a time budget, replayed
/// through the layers' public functions in the order the service uses
/// them (plan, list build, mine on the service's pick), then mined once
/// more with every other algorithm for the per-algorithm costs. With a
/// `fleet`, each request is also mined through it on the fleet planner's
/// pick.
void LayerReplayQueries(pm::MiningEngine& engine, pm::ShardedEngine* fleet,
                        const QueryLog& log, double budget_s, SpanRecorder* rec,
                        Values* v, std::vector<std::string>* notes) {
  const pm::CostPlanner planner(&engine);
  std::map<Algorithm, std::vector<double>> mine_ms;
  std::map<Algorithm, std::vector<double>> entries;
  std::vector<double> shard_ms;
  std::vector<double> mono_same_ms;
  std::vector<double> fill_slots;
  std::vector<double> pruned;
  double untraced_ms = 0.0;
  double attributed_ms = 0.0;
  std::size_t regrets = 0;
  std::size_t replayed = 0;
  const int64_t start = NowNs();
  auto span_ms = [&](int32_t id) {
    const Span& s = rec->spans()[id];
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  };
  auto ensure_lists = [&](Algorithm alg, const Request& r) {
    if (alg == Algorithm::kNra || alg == Algorithm::kSmj) {
      engine.EnsureWordLists(r.query.terms);
      if (alg == Algorithm::kSmj) engine.EnsureIdOrderedLists(r.query.terms);
    }
  };
  auto mine = [&](Algorithm alg, const Request& r, uint64_t id) {
    pm::MineOptions options;
    options.k = r.k;
    const int32_t span = rec->Begin(std::string("core.mine.") + AlgKey(alg), id);
    const pm::MineResult result = engine.Mine(r.query, alg, options);
    rec->End(span);
    mine_ms[alg].push_back(span_ms(span));
    entries[alg].push_back(static_cast<double>(result.entries_read));
    return span_ms(span);
  };
  for (const std::string& key : log.order) {
    if (MsSince(start) / 1000.0 >= budget_s || replayed >= 400) break;
    const KeyRecord& kr = log.keys.at(key);
    const Request& r = kr.request;
    const uint64_t id = replayed++;
    pm::MineOptions options;
    options.k = r.k;
    std::map<Algorithm, double> per_alg;
    const int32_t root = rec->Begin("request", id);
    {
      ScopedSpan plan(rec, "service.plan", id);
      (void)planner.Plan(r.query, options);
    }
    {
      ScopedSpan ensure(rec, "core.ensure_lists", id);
      ensure_lists(kr.algorithm, r);
    }
    per_alg[kr.algorithm] = mine(kr.algorithm, r, id);
    rec->End(root);
    // The root's children (plan, list build, mine) have no children of
    // their own, so their self time is their duration.
    for (std::size_t s = root + 1; s < rec->spans().size(); ++s) {
      if (rec->spans()[s].parent == root) attributed_ms += span_ms(s);
    }
    untraced_ms += kr.client_ms;

    for (Algorithm alg : kMineAlgorithms) {
      if (per_alg.count(alg) > 0) continue;
      ensure_lists(alg, r);
      per_alg[alg] = mine(alg, r, id);
    }
    double best = per_alg.begin()->second;
    for (const auto& [alg, ms] : per_alg) best = std::min(best, ms);
    if (per_alg[kr.algorithm] > 1.5 * best) ++regrets;
    if (fleet != nullptr) {
      const Algorithm pick =
          pm::CostPlanner::PlanAcrossShards(
              fleet->GatherPlannerInputs(r.query, options), pm::PlannerOptions{})
              .algorithm;
      const int32_t span = rec->Begin("shard.mine", id);
      const pm::ShardedMineResult result = fleet->Mine(r.query, pick, options);
      rec->End(span);
      shard_ms.push_back(span_ms(span));
      fill_slots.push_back(static_cast<double>(result.fill_slots));
      pruned.push_back(static_cast<double>(result.result.candidates_pruned));
      mono_same_ms.push_back(per_alg.count(pick) > 0 ? per_alg[pick]
                                                     : mine(pick, r, id));
    }
  }
  for (Algorithm alg : kMineAlgorithms) {
    v->SetDistribution(std::string("core.mine_ms.") + AlgKey(alg), mine_ms[alg],
                       notes);
    if (alg != Algorithm::kExact) {
      v->Set(std::string("core.entries_read.") + AlgKey(alg), Mean(entries[alg]));
    }
  }
  v->Set("service.planner.regret_share",
         Ratio(static_cast<double>(regrets), static_cast<double>(replayed)));
  v->Set("service.unattributed_share",
         Ratio(untraced_ms - attributed_ms, untraced_ms));
  if (fleet != nullptr) {
    v->SetDistribution("shard.mine_ms", shard_ms, notes);
    v->Set("shard.fill_slots", Mean(fill_slots));
    v->Set("shard.candidates_pruned", Mean(pruned));
    v->Set("shard.fanout_overhead", Ratio(Median(shard_ms), Median(mono_same_ms)));
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "  layer replay: %zu distinct requests, %.2f s", replayed,
                MsSince(start) / 1000.0);
  notes->push_back(buf);
}

/// Per-layer numbers of churn: a fresh engine and subscription manager
/// replay the run's batches and queries in service order, with rebuilds
/// run in line where the service would schedule them.
void LayerReplayChurn(const Inputs& in, const ChurnLog& log, SpanRecorder* rec,
                      Values* v, std::vector<std::string>* notes) {
  const WorkloadSettings& w = *in.w;
  pm::MiningEngine engine = pm::MiningEngine::Build(MakeCorpus(w));
  pm::MetricsRegistry registry;
  pm::SubscriptionManagerOptions sub_options;
  sub_options.metrics = &registry;
  pm::SubscriptionManager manager(&engine, sub_options);
  for (const pm::SubscriptionRequest& s : in.subs) {
    PM_CHECK(manager.Subscribe(s).ok());
  }
  manager.Flush();
  const pm::CostPlanner planner(&engine);
  std::vector<std::vector<double>> apply_cycles(1);
  std::vector<std::vector<double>> query_cycles(1);
  std::vector<double> apply_ms;
  std::vector<double> flush_ms;
  std::vector<double> rebuild_ms;
  auto span_ms = [&](int32_t id) {
    const Span& s = rec->spans()[id];
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  };
  std::size_t qi = 0;
  const std::size_t steps = log.ingest_ms.size();
  const int64_t start = NowNs();
  for (std::size_t step = 0; step < steps; ++step) {
    const pm::UpdateBatch batch = in.batches.Batch(step % in.batches.size());
    pm::UpdateStats stats;
    {
      ScopedSpan root(rec, "ingest", step);
      const int32_t id = rec->Begin("core.apply_update", step);
      stats = engine.ApplyUpdate(batch);
      rec->End(id);
      apply_ms.push_back(span_ms(id));
      apply_cycles.back().push_back(span_ms(id));
    }
    {
      ScopedSpan root(rec, "publish", step);
      const int32_t id = rec->Begin("subscribe.flush", step);
      manager.Flush();
      rec->End(id);
      flush_ms.push_back(span_ms(id));
    }
    if (stats.rebuild_recommended) {
      ScopedSpan root(rec, "rebuild", step);
      const int32_t id = rec->Begin("core.rebuild", step);
      engine.Rebuild();
      rec->End(id);
      rebuild_ms.push_back(span_ms(id));
      ScopedSpan flush(rec, "subscribe.flush", step);
      manager.Flush();
      apply_cycles.emplace_back();
      query_cycles.emplace_back();
    }
    for (std::size_t j = 0; j < w.queries_per_step; ++j, ++qi) {
      const Request r = StreamAt(w, in.pool, in.stream, qi);
      pm::MineOptions options;
      options.k = r.k;
      ScopedSpan root(rec, "request", qi);
      Algorithm alg;
      {
        ScopedSpan plan(rec, "service.plan", qi);
        alg = planner.Plan(r.query, options, engine.delta_snapshot()).algorithm;
      }
      if (alg == Algorithm::kNra || alg == Algorithm::kSmj) {
        ScopedSpan ensure(rec, "core.ensure_lists", qi);
        engine.EnsureWordLists(r.query.terms);
        if (alg == Algorithm::kSmj) engine.EnsureIdOrderedLists(r.query.terms);
      }
      const int32_t id =
          rec->Begin(std::string("core.mine.") + AlgKey(alg), qi);
      (void)engine.Mine(r.query, alg, options);
      rec->End(id);
      query_cycles.back().push_back(span_ms(id));
    }
  }
  // Growth and drift are read over the first rebuild cycle, the one that
  // starts from the freshly built engine.
  v->SetDistribution("core.apply_update_ms", apply_ms, notes);
  v->Set("core.apply_update_growth", QuarterGrowth(apply_cycles.front()));
  v->Set("core.delta_query_ratio", QuarterGrowth(query_cycles.front()));
  v->Set("core.rebuild_ms", Median(rebuild_ms));
  v->SetDistribution("subscribe.flush_ms", flush_ms, notes);
  const auto self = rec->SelfMsByName();
  for (Algorithm alg : kMineAlgorithms) {
    auto it = self.find(std::string("core.mine.") + AlgKey(alg));
    v->SetDistribution(std::string("core.mine_ms.") + AlgKey(alg),
                       it == self.end() ? std::vector<double>{} : it->second,
                       notes);
  }
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "  layer replay: %zu steps, %zu in-line rebuilds, first cycle "
                "%zu batches, %.2f s",
                steps, rebuild_ms.size(), apply_cycles.front().size(),
                MsSince(start) / 1000.0);
  notes->push_back(buf);
}

/// Phrase extraction and index construction timed on the workload corpus.
void ComponentTimings(const Inputs& in, Values* v) {
  const pm::Corpus corpus = MakeCorpus(*in.w);
  int64_t t = NowNs();
  const pm::PhraseDictionary dict =
      pm::PhraseExtractor(pm::PhraseExtractorOptions{}).Extract(corpus);
  v->Set("phrase.extract_ms", MsSince(t));
  t = NowNs();
  const pm::InvertedIndex inverted = pm::InvertedIndex::Build(corpus);
  v->Set("index.inverted_build_ms", MsSince(t));
  t = NowNs();
  const pm::ForwardIndex forward =
      pm::ForwardIndex::Build(corpus, dict, pm::ForwardStorage::kFull);
  v->Set("index.forward_build_ms", MsSince(t));
  std::set<pm::TermId> terms;
  for (const pm::Query& q : in.pool_queries) terms.insert(q.terms.begin(), q.terms.end());
  const std::vector<pm::TermId> term_list(terms.begin(), terms.end());
  t = NowNs();
  (void)pm::WordScoreLists::Build(inverted, forward, dict, term_list);
  v->Set("index.word_lists_ms", MsSince(t));
}

/// Share of the traced replay's time that recording its spans took: the
/// measured cost of one Begin/End pair, times the spans recorded, over
/// the summed duration of the root spans.
double TraceOverheadShare(const SpanRecorder& rec) {
  constexpr int kPairs = 20000;
  SpanRecorder probe;
  const int64_t t = NowNs();
  for (int i = 0; i < kPairs; ++i) probe.End(probe.Begin("core.mine.smj", i));
  const double pair_ms = MsSince(t) / kPairs;
  double root_ms = 0.0;
  for (const Span& s : rec.spans()) {
    if (s.parent < 0) root_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return Ratio(pair_ms * static_cast<double>(rec.spans().size()), root_ms);
}

}  // namespace

// ---------------------------------------------------------------------------
// Catalogue
// ---------------------------------------------------------------------------

const std::vector<NamedUnit>& EndToEndMetrics() {
  static const std::vector<NamedUnit> metrics = {
      {"setup_s", "s"},           {"rss_mb", "MB"},
      {"query_p50_ms", "ms"},     {"query_p90_ms", "ms"},
      {"index_space_ratio", "ratio"},
  };
  return metrics;
}

const std::vector<NamedUnit>& PerLayerMetrics() {
  static const std::vector<NamedUnit> metrics = {
      {"service.handoff_p50_ms", "ms"},
      {"service.result_cache.hit_share", "ratio"},
      {"service.result_cache.hit_p50_us", "us"},
      {"service.wordlist_cache.hit_share", "ratio"},
      {"service.wordlist_cache.evictions", "count"},
      {"service.wordlist_cache.mb", "MB"},
      {"service.planner.plan_us_p50", "us"},
      {"service.planner.pick_share.exact", "ratio"},
      {"service.planner.pick_share.gm", "ratio"},
      {"service.planner.pick_share.nra", "ratio"},
      {"service.planner.pick_share.smj", "ratio"},
      {"service.planner.regret_share", "ratio"},
      {"service.unattributed_share", "ratio"},
      {"service.ingest_ms.p50", "ms"},
      {"service.ingest_ms.tail", "ms"},
      {"core.mine_ms.exact.p50", "ms"},
      {"core.mine_ms.exact.tail", "ms"},
      {"core.mine_ms.gm.p50", "ms"},
      {"core.mine_ms.gm.tail", "ms"},
      {"core.mine_ms.nra.p50", "ms"},
      {"core.mine_ms.nra.tail", "ms"},
      {"core.mine_ms.smj.p50", "ms"},
      {"core.mine_ms.smj.tail", "ms"},
      {"core.entries_read.gm", "count"},
      {"core.entries_read.nra", "count"},
      {"core.entries_read.smj", "count"},
      {"core.build_ms", "ms"},
      {"core.ensure_lists_ms", "ms"},
      {"core.apply_update_ms.p50", "ms"},
      {"core.apply_update_ms.tail", "ms"},
      {"core.apply_update_growth", "ratio"},
      {"core.delta_query_ratio", "ratio"},
      {"core.rebuild_ms", "ms"},
      {"core.rebuilds", "count"},
      {"phrase.extract_ms", "ms"},
      {"index.inverted_build_ms", "ms"},
      {"index.forward_build_ms", "ms"},
      {"index.word_lists_ms", "ms"},
      {"storage.open_ms", "ms"},
      {"storage.file_mb", "MB"},
      {"storage.rss_after_open_mb", "MB"},
      {"shard.build_ms", "ms"},
      {"shard.mine_ms.p50", "ms"},
      {"shard.mine_ms.tail", "ms"},
      {"shard.fill_slots", "count"},
      {"shard.candidates_pruned", "count"},
      {"shard.fanout_overhead", "ratio"},
      {"subscribe.flush_ms.p50", "ms"},
      {"subscribe.flush_ms.tail", "ms"},
      {"subscribe.publish_lag_ms.p50", "ms"},
      {"subscribe.publish_lag_ms.tail", "ms"},
      {"subscribe.remine_share", "ratio"},
      {"subscribe.bootstrap_ms", "ms"},
      {"obs.series", "count"},
      {"obs.snapshot_ms", "ms"},
      {"bench.trace_overhead_share", "ratio"},
      {"bench.fail_share", "ratio"},
  };
  return metrics;
}

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

RunOutput RunWorkload(const WorkloadSettings& w, const RunOptions& options) {
  RunOutput out;
  Values v;
  std::vector<std::string>& notes = out.notes;
  Inputs in;
  in.w = &w;
  in.seed = options.seed;
  in.scratch_dir = options.scratch_dir;
  const bool churn = w.fragments > 0;

  // Input generation, then the peak-RSS reset: rss_mb covers the set-up
  // and the run, not the making of their inputs.
  GenerateInputs(&in);
  pm::Corpus corpus = SetUpCorpus(w);
  const bool rss_reset = ResetPeakRss();

  // Set-up #1 and the untraced run.
  System sys = SetUp(in, std::move(corpus));
  QueryLog qlog;
  ChurnLog clog;
  const int64_t run_start = NowNs();
  if (churn) {
    RunChurn(sys, in, options.seconds, &clog);
  } else {
    RunQueries(sys, in, options.seconds, &qlog);
  }
  double run_s = MsSince(run_start) / 1000.0;
  std::vector<double> rss_mb = {PeakRssMb()};
  if (churn) FinishChurn(sys, in, &clog);

  const pm::ServiceStats stats = sys.service->stats();
  {
    const int64_t t = NowNs();
    const pm::MetricsSnapshot snapshot = sys.service->metrics_snapshot();
    v.Set("obs.snapshot_ms", MsSince(t));
    v.Set("obs.series", static_cast<double>(snapshot.counters.size() +
                                            snapshot.gauges.size() +
                                            snapshot.histograms.size()));
    if (churn) {
      v.Set("subscribe.remine_share",
            Ratio(static_cast<double>(snapshot.counter("subscribe_remine_total")),
                  static_cast<double>(clog.ingest_ms.size() * in.subs.size())));
    }
  }

  sys.service->Shutdown();

  // Set-ups #2 and #3. Set-up time is the median of the three. churn
  // repeats its run on each of them: one run is only three rebuild
  // cycles, so its latencies, ingest and publish-lag samples and peak RSS
  // (the median of the three peaks) are taken over all repetitions. The
  // service counters, the pick shares and the traced replay use the
  // first.
  std::vector<double> setup_s = {sys.setup_s};
  std::vector<double> build_ms = {sys.build_ms};
  std::vector<double> ensure_ms = {sys.ensure_ms};
  std::vector<double> open_ms = {sys.open_ms};
  ChurnLog churn_all;
  if (churn) {
    // Nothing later needs the first system; its memory must not count in
    // the peaks of the repetitions.
    sys.Stop();
    churn_all.Append(clog);
  }
  for (int i = 0; i < 2; ++i) {
    pm::Corpus again_corpus = SetUpCorpus(w);
    if (churn) ResetPeakRss();
    System again = SetUp(in, std::move(again_corpus));
    setup_s.push_back(again.setup_s);
    build_ms.push_back(again.build_ms);
    ensure_ms.push_back(again.ensure_ms);
    open_ms.push_back(again.open_ms);
    if (churn) {
      ChurnLog repeat;
      const int64_t repeat_start = NowNs();
      RunChurn(again, in, options.seconds, &repeat);
      run_s += MsSince(repeat_start) / 1000.0;
      rss_mb.push_back(PeakRssMb());
      FinishChurn(again, in, &repeat);
      churn_all.Append(repeat);
    }
    again.Stop();
  }
  v.Set("setup_s", Median(setup_s));
  v.Set("rss_mb", Median(rss_mb));

  // End-to-end query metrics.
  const QueryLog& log = churn ? churn_all.queries : qlog;
  const QueryStats query_stats = SliceStats(log);
  const Tail& query_tail = query_stats.p99;
  v.Set("query_qps", query_stats.qps);
  v.Set("query_p50_ms", query_stats.p50_ms);
  v.Set("query_p90_ms", query_stats.p90.value);
  v.Set("query_p99_ms", query_tail.value);
  v.Set("service.handoff_p50_ms", query_stats.handoff_p50_ms);
  v.Set("service.result_cache.hit_share",
        Ratio(static_cast<double>(log.hits), static_cast<double>(log.ok)));
  v.Set("service.result_cache.hit_p50_us", query_stats.hit_p50_us);
  v.Set("service.wordlist_cache.hit_share", stats.word_list_cache.HitRate());
  v.Set("service.wordlist_cache.evictions",
        static_cast<double>(stats.word_list_cache.evictions));
  v.Set("service.wordlist_cache.mb",
        static_cast<double>(stats.word_list_cache.bytes) / (1024.0 * 1024.0));
  {
    std::map<Algorithm, double> picks;
    const QueryLog& first = churn ? clog.queries : qlog;
    for (const auto& [key, rec] : first.keys) picks[rec.algorithm] += 1.0;
    const double distinct = static_cast<double>(first.keys.size());
    for (Algorithm alg : kMineAlgorithms) {
      v.Set(std::string("service.planner.pick_share.") + AlgKey(alg),
            Ratio(picks[alg], distinct));
    }
  }
  if (churn) {
    v.SetDistribution("service.ingest_ms", churn_all.ingest_ms, &notes);
    v.SetDistribution("subscribe.publish_lag_ms", churn_all.publish_ms, &notes);
    v.Set("core.rebuilds", static_cast<double>(churn_all.rebuilds));
    v.Set("subscribe.bootstrap_ms", sys.bootstrap_ms);
  }
  if (w.from_file) {
    v.Set("storage.rss_after_open_mb", sys.rss_after_open_mb);
    v.Set("storage.file_mb", static_cast<double>(in.index_bytes) / (1024.0 * 1024.0));
  }
  v.Set("index_space_ratio", Ratio(static_cast<double>(in.index_bytes),
                                   static_cast<double>(in.token_bytes)));
  if (w.from_file) {
    v.Set("storage.open_ms", Median(open_ms));
    char buf[120];
    std::snprintf(buf, sizeof(buf),
                  "  storage: IndexFile::open_ms %.3f of LoadFromFile %.3f ms",
                  sys.file_open_ms, sys.open_ms);
    notes.push_back(buf);
  } else {
    v.Set("core.build_ms", Median(build_ms));
    v.Set("core.ensure_lists_ms", Median(ensure_ms));
  }

  // Traced layer replay.
  SpanRecorder& rec = out.spans;
  if (options.trace) {
    if (churn) {
      LayerReplayChurn(in, clog, &rec, &v, &notes);
    } else {
      // cold_tail also measures the shard layer: a 2-shard fleet over the
      // same corpus mines the same requests.
      std::unique_ptr<pm::ShardedEngine> fleet;
      if (w.from_file) {
        pm::Corpus fleet_corpus = MakeCorpus(w);
        pm::ShardedEngineOptions fleet_options;
        fleet_options.num_shards = 2;
        const int64_t t = NowNs();
        fleet = std::make_unique<pm::ShardedEngine>(
            pm::ShardedEngine::Build(std::move(fleet_corpus), fleet_options));
        v.Set("shard.build_ms", MsSince(t));
      }
      LayerReplayQueries(*sys.engine, fleet.get(), qlog,
                         std::max(2.0, 0.5 * options.seconds), &rec, &v, &notes);
    }
    if (!w.from_file) ComponentTimings(in, &v);
    std::vector<double> plan_us;
    const std::vector<double> self = rec.SelfMs();
    for (std::size_t s = 0; s < rec.spans().size(); ++s) {
      if (rec.spans()[s].name == "service.plan") plan_us.push_back(self[s] * 1000.0);
    }
    v.Set("service.planner.plan_us_p50", Median(plan_us));
    v.Set("bench.trace_overhead_share", TraceOverheadShare(rec));
  }

  // Verification (never timed, after the peak RSS was read).
  uint64_t mismatches = 0;
  uint64_t compared = 0;
  if (churn) {
    mismatches = churn_all.mismatches;
    compared = churn_all.checked;
    out.digest = churn_all.digest;
  } else {
    // cold_tail checks on engines reopened from the persisted index;
    // hot_zipf's served engine checks itself.
    VerifyEngine verify(w.from_file ? nullptr : sys.engine.get(), in.index_path);
    mismatches = VerifyReplies(qlog, &verify, &compared);
    out.digest = QueryDigest(qlog);
  }
  sys.Stop();
  if (w.from_file) std::filesystem::remove(in.index_path);

  const uint64_t ingests = churn_all.ingest_ms.size();
  out.result.attempted = log.client_ms.size() + ingests;
  out.result.failed =
      log.non_ok + log.inconsistent + churn_all.failed_ingests + mismatches;
  out.result.correct = out.result.failed == 0;
  v.Set("bench.fail_share", Ratio(static_cast<double>(out.result.failed),
                                   static_cast<double>(out.result.attempted)));

  const std::vector<NamedUnit>& shown =
      options.trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const NamedUnit& m : shown) {
    out.result.metrics.push_back({m.name, v.Get(m.name), m.unit});
  }
  out.report_only = {{"query_qps", v.Get("query_qps"), "1/s"},
                     {"query_p99_ms", v.Get("query_p99_ms"), "ms"},
                     {"fail_share", v.Get("bench.fail_share"), "ratio"}};
  if (churn) {
    out.report_only.push_back({"ingest_p50_ms", v.Get("service.ingest_ms.p50"), "ms"});
    out.report_only.push_back({"ingest_p99_ms", v.Get("service.ingest_ms.tail"), "ms"});
    out.report_only.push_back(
        {"publish_lag_p50_ms", v.Get("subscribe.publish_lag_ms.p50"), "ms"});
    out.report_only.push_back(
        {"publish_lag_p99_ms", v.Get("subscribe.publish_lag_ms.tail"), "ms"});
  }

  char buf[400];
  std::snprintf(buf, sizeof(buf),
                "run: %.2f s, %zu queries (%llu ok, %llu hits), %llu ingests; "
                "query tail p%.1f of n=%zu; peak-RSS reset %s",
                run_s, log.client_ms.size(),
                static_cast<unsigned long long>(log.ok),
                static_cast<unsigned long long>(log.hits),
                static_cast<unsigned long long>(ingests), query_tail.q * 100.0,
                query_tail.n, rss_reset ? "ok" : "REFUSED");
  notes.insert(notes.begin(), buf);
  std::snprintf(buf, sizeof(buf),
                "verification: %llu results compared, %llu mismatches, %llu "
                "non-OK replies, %llu inconsistent repeats, %llu failed "
                "ingests; digest %s",
                static_cast<unsigned long long>(compared),
                static_cast<unsigned long long>(mismatches),
                static_cast<unsigned long long>(log.non_ok),
                static_cast<unsigned long long>(log.inconsistent),
                static_cast<unsigned long long>(churn_all.failed_ingests),
                out.digest.c_str());
  notes.insert(notes.begin() + 1, buf);
  std::snprintf(buf, sizeof(buf),
                "end-to-end: setup_s=%.4f s rss_mb=%.1f MB query_qps=%.1f 1/s "
                "query_p50_ms=%.4f ms query_p90_ms=%.4f ms query_p99_ms=%.4f ms "
                "index_space_ratio=%.4f ratio fail_share=%.6f ratio",
                v.Get("setup_s"), v.Get("rss_mb"), v.Get("query_qps"),
                v.Get("query_p50_ms"), v.Get("query_p90_ms"), v.Get("query_p99_ms"),
                v.Get("index_space_ratio"), v.Get("bench.fail_share"));
  notes.insert(notes.begin() + 2, buf);
  if (churn) {
    std::snprintf(buf, sizeof(buf),
                  "end-to-end (churn): ingest_p50_ms=%.4f ms ingest_p99_ms=%.4f "
                  "ms publish_lag_p50_ms=%.4f ms publish_lag_p99_ms=%.4f ms "
                  "(tails by the >=10-beyond rule), rebuilds completed=%llu (fewest "
                  "of the repetitions)",
                  v.Get("service.ingest_ms.p50"), v.Get("service.ingest_ms.tail"),
                  v.Get("subscribe.publish_lag_ms.p50"),
                  v.Get("subscribe.publish_lag_ms.tail"),
                  static_cast<unsigned long long>(churn_all.rebuilds));
    notes.insert(notes.begin() + 3, buf);
  }
  if (options.trace) {
    for (const NamedUnit& m : PerLayerMetrics()) {
      std::snprintf(buf, sizeof(buf), "  %s = %.6g %s", m.name, v.Get(m.name),
                    m.unit);
      notes.push_back(buf);
    }
  }
  return out;
}

}  // namespace layerbench
