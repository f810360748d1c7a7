#include "inputs.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "eval/query_gen.h"
#include "service/cache.h"
#include "workload/generator.h"

namespace layerbench {

using phrasemine::Corpus;
using phrasemine::MiningEngine;
using phrasemine::Query;
using phrasemine::QueryOperator;
using phrasemine::Rng;

namespace {

std::vector<WorkloadSettings> BuildWorkloads() {
  std::vector<WorkloadSettings> all;

  WorkloadSettings hot;
  hot.name = "hot_zipf";
  hot.term_sets = 100;
  // Mid-frequency terms only, so the hot word lists fit the service's
  // 64 MB word-list cache.
  hot.max_term_df_fraction = 0.04;
  hot.zipf_s = 1.1;
  hot.drift_cadence = 5000;
  hot.drift_rotate = 7;
  hot.stream_len = 200000;
  all.push_back(hot);

  WorkloadSettings cold;
  cold.name = "cold_tail";
  cold.term_sets = 500;
  cold.distinct_stream = true;
  cold.from_file = true;
  all.push_back(cold);

  WorkloadSettings churn;
  churn.name = "churn";
  churn.docs = 2000;
  churn.term_sets = 64;
  churn.min_term_df = 8;
  churn.min_pairwise_codf = 3;
  churn.min_and_matches = 3;
  churn.zipf_s = 1.1;
  churn.drift_cadence = 500;
  churn.drift_rotate = 3;
  churn.stream_len = 50000;
  churn.fragments = 6;
  churn.delete_every = 4;
  churn.queries_per_step = 12;
  churn.subscriptions = 8;
  all.push_back(churn);
  return all;
}

Query ParseTerms(const std::vector<std::string>& terms, QueryOperator op,
                 const phrasemine::Vocabulary& vocab) {
  std::string text;
  for (const std::string& t : terms) {
    if (!text.empty()) text += ' ';
    text += t;
  }
  return phrasemine::CanonicalizeQuery(Query::Parse(text, op, vocab).value());
}

Request MakeRequest(Query canonical, std::size_t k) {
  Request r;
  r.key = RequestKey(canonical, k);
  r.query = std::move(canonical);
  r.k = k;
  return r;
}

}  // namespace

const std::vector<WorkloadSettings>& AllWorkloads() {
  static const std::vector<WorkloadSettings> all = BuildWorkloads();
  return all;
}

const WorkloadSettings* FindWorkload(const std::string& name) {
  for (const WorkloadSettings& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

/// Seeds the parts of the dataset drawn here rather than by a generator
/// preset: the popularity order of a Zipf stream's pool and churn's
/// update batches.
constexpr uint64_t kDatasetSeed = 0x706f70756c6172ull;

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + salt);
  return rng.NextU64();
}

std::string RequestKey(const Query& canonical, std::size_t k) {
  std::string key = canonical.op == QueryOperator::kAnd ? "A" : "O";
  key += std::to_string(k);
  for (phrasemine::TermId t : canonical.terms) {
    key += ':';
    key += std::to_string(t);
  }
  return key;
}

Corpus MakeCorpus(const WorkloadSettings& w) {
  phrasemine::SyntheticCorpusOptions options =
      phrasemine::SyntheticCorpusGenerator::ReutersLike();
  options.num_docs = w.docs;
  phrasemine::SyntheticCorpusGenerator generator(options);
  return generator.Generate();
}

uint64_t TokenTextBytes(const Corpus& corpus) {
  uint64_t bytes = 0;
  for (std::size_t d = 0; d < corpus.size(); ++d) {
    for (phrasemine::TermId t :
         corpus.doc(static_cast<phrasemine::DocId>(d)).tokens) {
      bytes += corpus.vocab().TermText(t).size() + 1;
    }
  }
  return bytes;
}

std::vector<Query> HarvestTermSets(const WorkloadSettings& w,
                                   const MiningEngine& engine) {
  phrasemine::QueryGenOptions options;
  options.num_queries = w.term_sets;
  options.min_term_df = w.min_term_df;
  options.min_pairwise_codf = w.min_pairwise_codf;
  options.min_and_matches = w.min_and_matches;
  options.max_term_df_fraction = w.max_term_df_fraction;
  return phrasemine::QuerySetGenerator(options).Generate(
      engine.dict(), engine.inverted(), engine.corpus().size());
}

std::vector<Request> MakePool(const WorkloadSettings& w,
                              const std::vector<Query>& term_sets,
                              const phrasemine::Vocabulary& vocab) {
  std::vector<Query> both;
  for (const Query& q : term_sets) {
    for (QueryOperator op : {QueryOperator::kAnd, QueryOperator::kOr}) {
      Query copy = q;
      copy.op = op;
      both.push_back(std::move(copy));
    }
  }
  // Resolve through the text form bench/workload uses, so the pool is
  // exactly what a trace file would carry.
  std::vector<Request> pool;
  for (const auto& spec :
       phrasemine::workload::PoolFromQueries(both, vocab, w.k)) {
    pool.push_back(MakeRequest(ParseTerms(spec.terms, spec.op, vocab), w.k));
  }
  return pool;
}

std::vector<uint32_t> MakeStream(const WorkloadSettings& w, uint64_t seed,
                                 const std::vector<Request>& pool,
                                 const phrasemine::Vocabulary& vocab) {
  std::vector<uint32_t> stream(pool.size());
  if (w.distinct_stream) {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      stream[i] = static_cast<uint32_t>(i);
    }
    Rng rng(SubSeed(seed, 3));
    for (std::size_t i = stream.size(); i > 1; --i) {
      std::swap(stream[i - 1], stream[rng.NextBelow(i)]);
    }
    return stream;
  }
  // The popularity order is part of the dataset, like the pool: Zipf rank
  // r serves pool[order[r]] under every seed, and the seed draws only the
  // stream. Otherwise each seed would make other pool entries hot, and a
  // run's latencies would depend on which entries those are. GenerateTrace
  // assigns ranks by a Fisher-Yates shuffle drawn first from its seed
  // (rank r -> slot placed[r]), so the pool is handed to it arranged to
  // undo that shuffle.
  const uint64_t trace_seed = SubSeed(seed, 3);
  const std::size_t n = pool.size();
  std::vector<std::size_t> order(n);
  std::vector<std::size_t> placed(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = placed[i] = i;
  Rng fixed(SubSeed(kDatasetSeed, 5));
  Rng drawn(trace_seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[fixed.NextBelow(i)]);
    std::swap(placed[i - 1], placed[drawn.NextBelow(i)]);
  }
  std::vector<phrasemine::workload::WorkloadQuerySpec> specs(n);
  for (std::size_t r = 0; r < n; ++r) {
    const Request& req = pool[order[r]];
    phrasemine::workload::WorkloadQuerySpec& spec = specs[placed[r]];
    spec.op = req.query.op;
    spec.k = req.k;
    for (phrasemine::TermId t : req.query.terms) {
      spec.terms.push_back(vocab.TermText(t));
    }
  }
  std::unordered_map<std::string, uint32_t> index;
  for (std::size_t i = 0; i < n; ++i) {
    index.emplace(pool[i].key, static_cast<uint32_t>(i));
  }
  phrasemine::workload::WorkloadOptions options;
  options.seed = trace_seed;
  options.num_queries = w.stream_len;
  options.zipf_s = w.zipf_s;
  options.drift_cadence = w.drift_cadence;
  options.drift_rotate = w.drift_rotate;
  const phrasemine::workload::WorkloadTrace trace =
      phrasemine::workload::GenerateTrace(specs, options);
  stream.clear();
  stream.reserve(trace.queries.size());
  for (const auto& q : trace.queries) {
    stream.push_back(index.at(RequestKey(ParseTerms(q.terms, q.op, vocab), q.k)));
  }
  return stream;
}

Request StreamAt(const WorkloadSettings& w, const std::vector<Request>& pool,
                 const std::vector<uint32_t>& stream, std::size_t i) {
  const Request& base = pool[stream[i % stream.size()]];
  const std::size_t pass = i / stream.size();
  if (!w.distinct_stream || pass == 0) return base;
  return MakeRequest(base.query, base.k + pass);
}

phrasemine::UpdateBatch BatchSet::Batch(std::size_t b) const {
  phrasemine::UpdateBatch batch;
  for (uint32_t f = b == 0 ? 0 : batch_end_[b - 1]; f < batch_end_[b]; ++f) {
    phrasemine::UpdateDoc doc;
    for (uint32_t t = f == 0 ? 0 : fragment_end_[f - 1]; t < fragment_end_[f];
         ++t) {
      doc.tokens.push_back(texts_[tokens_[t]]);
    }
    batch.inserts.push_back(std::move(doc));
  }
  if (deletes_[b] >= 0) {
    batch.deletes.push_back(static_cast<phrasemine::DocId>(deletes_[b]));
  }
  return batch;
}

BatchSet MakeBatches(const WorkloadSettings& w, const Corpus& corpus,
                     std::size_t count) {
  BatchSet set;
  const phrasemine::Vocabulary& vocab = corpus.vocab();
  for (std::size_t t = 0; t < vocab.size(); ++t) {
    set.texts_.push_back(vocab.TermText(static_cast<phrasemine::TermId>(t)));
  }
  Rng rng(SubSeed(kDatasetSeed, 4));
  for (std::size_t b = 0; b < count; ++b) {
    for (std::size_t i = 0; i < w.fragments; ++i) {
      const phrasemine::Document& doc = corpus.doc(
          static_cast<phrasemine::DocId>(rng.NextBelow(corpus.size())));
      const std::size_t len =
          std::min<std::size_t>(8 + rng.NextBelow(16), doc.tokens.size());
      const std::size_t start =
          doc.tokens.size() > len ? rng.NextBelow(doc.tokens.size() - len) : 0;
      for (std::size_t t = start; t < start + len; ++t) {
        set.tokens_.push_back(doc.tokens[t]);
      }
      set.fragment_end_.push_back(static_cast<uint32_t>(set.tokens_.size()));
    }
    set.batch_end_.push_back(static_cast<uint32_t>(set.fragment_end_.size()));
    int64_t deleted = -1;
    if (w.delete_every > 0 && b % w.delete_every == w.delete_every - 1) {
      deleted = static_cast<int64_t>(rng.NextBelow(corpus.size()));
    }
    set.deletes_.push_back(deleted);
  }
  return set;
}

std::vector<phrasemine::SubscriptionRequest> MakeSubscriptions(
    const WorkloadSettings& w, const std::vector<Query>& term_sets,
    const phrasemine::Vocabulary& vocab) {
  std::vector<phrasemine::SubscriptionRequest> subs;
  for (std::size_t i = 0; i < term_sets.size() && i < w.subscriptions; ++i) {
    phrasemine::SubscriptionRequest request;
    for (phrasemine::TermId t : term_sets[i].terms) {
      request.terms.push_back(vocab.TermText(t));
    }
    std::sort(request.terms.begin(), request.terms.end());
    request.op = i % 2 == 0 ? QueryOperator::kAnd : QueryOperator::kOr;
    request.k = w.subscription_k;
    request.exact = true;
    subs.push_back(std::move(request));
  }
  return subs;
}

}  // namespace layerbench
