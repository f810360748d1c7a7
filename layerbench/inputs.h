// Workload definitions and input generation. Every input is a pure
// function of (workload, seed). The dataset -- the corpus from
// SyntheticCorpusGenerator::ReutersLike, the request pool harvested from
// it by QuerySetGenerator, the pool's popularity order and churn's update
// batches -- is fixed per workload; the seed draws the request stream
// served against it: a Zipf stream (bench/workload's GenerateTrace) or
// the shuffled order of a distinct stream. A seed thus changes which
// requests a run samples, not which requests are hot or what is written,
// so runs on different seeds measure the same workload.
#ifndef LAYERBENCH_INPUTS_H_
#define LAYERBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/query.h"
#include "subscribe/subscription_manager.h"
#include "text/corpus.h"
#include "text/synthetic.h"

namespace layerbench {

/// Generator settings of one workload. Fields a workload does not use
/// stay 0. metric_map.json beside this file lists the values.
struct WorkloadSettings {
  std::string name;
  /// ReutersLike() corpus size.
  std::size_t docs = 21578;
  /// QuerySetGenerator knobs: term sets harvested, each used under both
  /// AND and OR.
  std::size_t term_sets = 0;
  uint32_t min_term_df = 12;
  uint32_t min_pairwise_codf = 6;
  std::size_t min_and_matches = 6;
  double max_term_df_fraction = 0.10;
  std::size_t k = 5;
  /// Zipf stream (GenerateTrace) over the pool; distinct_stream instead
  /// walks a seeded shuffle of the pool, raising k by one per pass so
  /// that no (terms, op, k) key repeats.
  bool distinct_stream = false;
  double zipf_s = 1.1;
  std::size_t drift_cadence = 0;
  std::size_t drift_rotate = 0;
  std::size_t stream_len = 0;
  /// Write path (churn): fragments inserted per IngestBatch, one delete
  /// every `delete_every` batches, queries after each batch, standing
  /// queries.
  std::size_t fragments = 0;
  std::size_t delete_every = 0;
  std::size_t queries_per_step = 0;
  std::size_t subscriptions = 0;
  std::size_t subscription_k = 10;
  /// Set-up reopens the persisted base index with LoadFromFile instead of
  /// building an engine from the corpus.
  bool from_file = false;
};

const std::vector<WorkloadSettings>& AllWorkloads();
/// Null for an unknown name.
const WorkloadSettings* FindWorkload(const std::string& name);

/// Independent sub-seed for one input stream.
uint64_t SubSeed(uint64_t seed, uint64_t salt);

/// One client request, resolved against the corpus vocabulary. `query`
/// is canonical (sorted unique terms), the form the service mines.
struct Request {
  phrasemine::Query query;
  std::size_t k = 5;
  std::string key;
};

/// Cache identity of a request: (terms, op, k).
std::string RequestKey(const phrasemine::Query& canonical, std::size_t k);

/// The workload's corpus: ReutersLike() at `docs` documents with the
/// preset's own generator seed. It is the workload's fixed dataset, as a
/// Reuters collection would be; regenerated (deterministically) for every
/// set-up because Corpus is move-only.
phrasemine::Corpus MakeCorpus(const WorkloadSettings& w);

/// Token-text bytes of a corpus: every token's text plus one separator.
uint64_t TokenTextBytes(const phrasemine::Corpus& corpus);

/// Harvests the workload's term sets from an engine over its corpus, with
/// the harvester's own seed: the pool is part of the fixed dataset, and
/// the run seed draws the stream served from it.
std::vector<phrasemine::Query> HarvestTermSets(
    const WorkloadSettings& w, const phrasemine::MiningEngine& engine);

/// The request pool: every harvested term set under AND and under OR.
std::vector<Request> MakePool(const WorkloadSettings& w,
                              const std::vector<phrasemine::Query>& term_sets,
                              const phrasemine::Vocabulary& vocab);

/// The request stream as indices into the pool: a Zipf trace over the
/// pool in its fixed popularity order (GenerateTrace), or the pool itself
/// in seeded shuffled order for distinct streams.
std::vector<uint32_t> MakeStream(const WorkloadSettings& w, uint64_t seed,
                                 const std::vector<Request>& pool,
                                 const phrasemine::Vocabulary& vocab);

/// Request `i` of a stream the run may walk past its end: distinct
/// streams wrap with k raised by the pass number, Zipf streams wrap as is.
Request StreamAt(const WorkloadSettings& w, const std::vector<Request>& pool,
                 const std::vector<uint32_t>& stream, std::size_t i);

/// Update batches held compactly while the run serves them: fragment
/// tokens as ids into the corpus vocabulary's texts. Batch(b) builds the
/// UpdateBatch the service takes.
class BatchSet {
 public:
  std::size_t size() const { return batch_end_.size(); }
  phrasemine::UpdateBatch Batch(std::size_t b) const;

 private:
  friend BatchSet MakeBatches(const WorkloadSettings& w,
                              const phrasemine::Corpus& corpus,
                              std::size_t count);
  std::vector<std::string> texts_;
  /// Every fragment's tokens, concatenated; a fragment ends at its
  /// fragment_end_ offset, a batch at its batch_end_ fragment.
  std::vector<uint32_t> tokens_;
  std::vector<uint32_t> fragment_end_;
  std::vector<uint32_t> batch_end_;
  /// Per batch: the build-time doc id it deletes, or -1.
  std::vector<int64_t> deletes_;
};

/// Update batches, the same for every seed: `fragments` inserts of 8..23
/// tokens sliced from corpus documents, plus one delete of a build-time
/// id every delete_every batches.
BatchSet MakeBatches(const WorkloadSettings& w,
                     const phrasemine::Corpus& corpus, std::size_t count);

/// Standing queries: the first `subscriptions` term sets, alternating
/// AND and OR, exact.
std::vector<phrasemine::SubscriptionRequest> MakeSubscriptions(
    const WorkloadSettings& w, const std::vector<phrasemine::Query>& term_sets,
    const phrasemine::Vocabulary& vocab);

}  // namespace layerbench

#endif  // LAYERBENCH_INPUTS_H_
